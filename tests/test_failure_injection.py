"""Failure-injection tests: corrupted inputs and degenerate regimes.

The library must fail loudly on malformed inputs and degrade sanely --
not crash -- on degenerate but legal ones (all-one-class data, empty
descriptions, fully-occluded frames).
"""

import numpy as np
import pytest

from repro.cot.chain import StressChainPipeline
from repro.datasets.base import Sample, StressDataset
from repro.errors import DatasetError, TrainingError
from repro.facs.descriptions import FacialDescription
from repro.model.foundation import FoundationModel
from repro.model.generation import GenerationConfig
from repro.rng import make_rng
from repro.training.instruction_tuning import train_assess
from repro.video.frame import Video, VideoSpec


def _video(video_id="fx-0", subject_id="fx-s0", seed=0):
    return Video(VideoSpec(
        video_id=video_id, subject_id=subject_id,
        au_intensities=np.full((6, 12), 0.3),
        identity=np.zeros(8), seed=seed,
    ))


class TestDegenerateData:
    def test_single_class_training_does_not_crash(self, instruction_pairs):
        samples = tuple(
            Sample(video=_video(f"fx-{i}", f"fx-s{i % 3}", seed=i),
                   label=0, true_aus=np.zeros(12))
            for i in range(12)
        )
        dataset = StressDataset("all-unstressed", samples)
        model = FoundationModel(make_rng(1, "fx"))
        curve = train_assess(
            model, [s.video for s in dataset],
            [s.true_description() for s in dataset],
            dataset.labels.astype(float), epochs=20,
        )
        assert np.isfinite(curve).all()
        # The model should then predict the only class it has seen.
        label, __ = model.assess(dataset[0].video, None)
        assert label == 0

    def test_empty_description_assess(self, trained):
        model, __, __, test = trained
        label, prob = model.assess(test[0].video, FacialDescription(()))
        assert label in (0, 1) and 0 <= prob <= 1

    def test_neutral_face_pipeline(self, trained):
        """A clip with no facial action at all must still produce a
        complete (possibly empty-rationale) chain result."""
        model, __, __, __ = trained
        neutral = Video(VideoSpec(
            video_id="fx-neutral", subject_id="fx-sn",
            au_intensities=np.zeros((6, 12)),
            identity=np.zeros(8), seed=3,
        ))
        result = StressChainPipeline(model).predict(neutral)
        assert result.label in (0, 1)

    def test_fully_occluded_frames(self, trained):
        """Occlusion on every frame degrades but never crashes."""
        model, __, __, __ = trained
        occluded = Video(VideoSpec(
            video_id="fx-occ", subject_id="fx-so",
            au_intensities=np.full((6, 12), 0.4),
            identity=np.zeros(8), occlusion_rate=1.0, seed=4,
        ))
        result = StressChainPipeline(model).predict(occluded)
        assert 0.0 <= result.prob_stressed <= 1.0


class TestMalformedInputs:
    def test_nan_intensities_rejected(self):
        curves = np.full((6, 12), np.nan)
        with pytest.raises(ValueError):
            VideoSpec(video_id="x", subject_id="s",
                      au_intensities=curves, identity=np.zeros(8))

    def test_assess_rejects_wrong_frame_shape(self, trained):
        model, __, __, test = trained
        from repro.errors import ModelError

        with pytest.raises(ModelError):
            model.chain_prob_from_frames(
                np.zeros((50, 50)), np.zeros((96, 96)))

    def test_mismatched_training_inputs(self, trained):
        model = FoundationModel(make_rng(2, "fx2"))
        with pytest.raises(TrainingError):
            train_assess(model, [_video()], [None, None],
                         np.array([0.0]))

    def test_dataset_rejects_duplicate_render_identity(self):
        sample = Sample(video=_video("dup"), label=0,
                        true_aus=np.zeros(12))
        with pytest.raises(DatasetError):
            StressDataset("dup", (sample, sample))


class TestSamplingRobustness:
    def test_extreme_temperature_describe(self, trained):
        model, __, __, test = trained
        hot = model.describe(test[0].video,
                             GenerationConfig(temperature=50.0, seed=1))
        assert isinstance(hot, FacialDescription)

    def test_all_seeds_produce_parseable_descriptions(self, trained):
        model, __, __, test = trained
        for seed in range(10):
            description = model.describe(test[0].video,
                                         GenerationConfig(seed=seed))
            rendered = description.render()
            assert FacialDescription.parse(rendered) == description
