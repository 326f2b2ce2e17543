"""Batched-vs-loop equivalence of the prediction engine.

The batched engine must be a pure performance change: every explainer,
the deletion metric, and the model's frame-level chain hook have to produce
the same numbers whether perturbations go through the vectorized
``batch`` path or the seed's one-frame-at-a-time loop.
"""

import numpy as np
import pytest

from repro.cot.chain import StressChainPipeline
from repro.explainers import (
    BatchPredictFn,
    KernelShapExplainer,
    LimeExplainer,
    SobolExplainer,
    chain_predict_fn,
    deletion_metric,
    explainer_ranker,
    predict_batch,
)
from repro.errors import ExplainerError


@pytest.fixture(scope="module")
def frame_stack(sample_video):
    """The clean expressive keyframe plus a few noisy variants."""
    expressive, neutral = sample_video.keyframes
    rng = np.random.default_rng(11)
    frames = np.stack([
        expressive,
        np.clip(expressive + rng.normal(0, 0.1, expressive.shape), 0, 1),
        np.clip(expressive + rng.normal(0, 0.3, expressive.shape), 0, 1),
        neutral,
    ])
    return frames, neutral


# `sample_video` is function-scoped in conftest; re-scope a copy for
# the module so the rendered keyframes are shared across these tests.
@pytest.fixture(scope="module")
def sample_video():
    from repro.video.frame import Video, VideoSpec

    rng = np.random.default_rng(5)
    curves = np.zeros((12, 12))
    curves[:, 2] = np.linspace(0.1, 0.9, 12)
    curves[:, 4] = 0.7
    return Video(VideoSpec(
        video_id="batched-video-0", subject_id="batched-subj-0",
        au_intensities=curves, identity=rng.standard_normal(8), seed=42,
    ))


@pytest.fixture(scope="module")
def model():
    from repro.model.foundation import FoundationModel
    from repro.rng import make_rng

    return FoundationModel(make_rng(123, "batched-test-model"))


class TestFoundationBatchPaths:
    def test_chain_prob_matches_loop(self, model, frame_stack):
        frames, neutral = frame_stack
        batched = model.chain_prob_from_frames_batch(frames, neutral)
        looped = np.array([
            model.chain_prob_from_frames(frame, neutral) for frame in frames
        ])
        np.testing.assert_allclose(batched, looped, rtol=0, atol=1e-12)


class TestPredictBatchAdapter:
    def test_plain_callable_falls_back_to_loop(self, frame_stack):
        frames, __ = frame_stack
        calls = []

        def single(frame):
            calls.append(frame.shape)
            return float(frame.mean())

        out = predict_batch(single, frames)
        assert len(calls) == len(frames)
        np.testing.assert_array_equal(out,
                                      [float(f.mean()) for f in frames])

    def test_batch_path_used_when_available(self, frame_stack):
        frames, __ = frame_stack
        single_calls = []
        fn = BatchPredictFn(
            single=lambda f: single_calls.append(1) or 0.0,
            batch=lambda fs: fs.mean(axis=(1, 2)),
        )
        out = predict_batch(fn, frames)
        assert not single_calls
        np.testing.assert_allclose(out, frames.mean(axis=(1, 2)))

    def test_bad_batch_shape_rejected(self, frame_stack):
        frames, __ = frame_stack
        fn = BatchPredictFn(single=lambda f: 0.0,
                            batch=lambda fs: np.zeros(len(fs) + 1))
        with pytest.raises(ExplainerError):
            predict_batch(fn, frames)

    def test_non_stack_input_rejected(self):
        with pytest.raises(ExplainerError):
            predict_batch(lambda f: 0.0, np.zeros((4, 4)))


class TestPerturbBatchHelpers:
    def test_apply_masks_batch_matches_loop(self):
        from repro.video.perturb import apply_mask, apply_masks_batch

        rng = np.random.default_rng(0)
        frame = rng.random((24, 24))
        labels = (np.arange(24 * 24).reshape(24, 24) // 36) % 9
        keeps = (rng.random((20, 9)) < 0.5).astype(np.float64)
        batched = apply_masks_batch(frame, labels, keeps)
        looped = np.stack([
            apply_mask(frame, labels, keep) for keep in keeps
        ])
        np.testing.assert_array_equal(batched, looped)


ALL_EXPLAINERS = [
    LimeExplainer(num_samples=60),
    KernelShapExplainer(num_samples=60),
    SobolExplainer(num_designs=4),
]


class TestExplainerBatchedEquivalence:
    """Every explainer must attribute identically through the batched
    chain black box and through the seed's per-frame loop, at a fixed
    perturbation seed."""

    @pytest.mark.parametrize(
        "explainer", ALL_EXPLAINERS,
        ids=[e.name for e in ALL_EXPLAINERS],
    )
    def test_batched_equals_per_frame_loop(self, explainer, model,
                                           sample_video):
        expressive, neutral = sample_video.keyframes
        labels = sample_video.segmentation(16)
        batched_fn = BatchPredictFn(
            single=lambda f: model.chain_prob_from_frames(f, neutral),
            batch=lambda fs: model.chain_prob_from_frames_batch(fs, neutral),
        )
        loop_fn = lambda f: model.chain_prob_from_frames(f, neutral)  # noqa: E731
        batched = explainer.attribute(expressive, labels, batched_fn, seed=9)
        looped = explainer.attribute(expressive, labels, loop_fn, seed=9)
        assert batched.num_evaluations == looped.num_evaluations
        np.testing.assert_allclose(batched.scores, looped.scores,
                                   rtol=0, atol=1e-9)


class TestDeletionMetricBatched:
    def test_batched_matches_loop(self, model, sample_video):
        from repro.datasets.base import Sample

        pipeline = StressChainPipeline(model)
        sample = Sample(video=sample_video, label=1,
                        true_aus=np.zeros(12))
        __, neutral = sample_video.keyframes
        kwargs = dict(
            ranker=explainer_ranker(LimeExplainer(num_samples=16)),
            ks=(1, 2, 3), num_segments=16, seed=3,
        )
        batched = deletion_metric(
            [sample], predict_fn_factory=lambda s: chain_predict_fn(pipeline, s),
            **kwargs,
        )
        looped = deletion_metric(
            [sample],
            predict_fn_factory=lambda s: (
                lambda f: model.chain_prob_from_frames(f, neutral)
            ),
            **kwargs,
        )
        assert batched.base_accuracy == looped.base_accuracy
        assert batched.accuracy_after == looped.accuracy_after

    @pytest.mark.parametrize("explainer, single_calls, batch_calls", [
        (LimeExplainer(num_samples=16), 2, 4),
        (KernelShapExplainer(num_samples=16), 2, 4),
        (SobolExplainer(num_designs=4), 2, 6),
    ], ids=["LIME", "SHAP", "SOBOL"])
    def test_chain_black_box_scores_each_stack_in_one_pass(
            self, model, sample_video, monkeypatch, explainer,
            single_calls, batch_calls):
        """Over ``chain_predict_fn``, the deletion metric queries the
        single-frame path once per sample (the clean base frame) and
        scores every perturbation stack -- the explainer's and the
        top-k one -- through ``chain_prob_from_frames_batch``."""
        from dataclasses import replace

        from repro.datasets.base import Sample
        from repro.video.frame import Video

        pipeline = StressChainPipeline(model)
        other = Video(replace(sample_video.spec, video_id="batched-video-1",
                              seed=43))
        samples = [
            Sample(video=sample_video, label=1, true_aus=np.zeros(12)),
            Sample(video=other, label=0, true_aus=np.zeros(12)),
        ]
        calls = {"single": 0, "batch": 0}
        single = model.chain_prob_from_frames
        batch = model.chain_prob_from_frames_batch

        def counted_single(*args):
            calls["single"] += 1
            return single(*args)

        def counted_batch(*args):
            calls["batch"] += 1
            return batch(*args)

        monkeypatch.setattr(model, "chain_prob_from_frames", counted_single)
        monkeypatch.setattr(model, "chain_prob_from_frames_batch",
                            counted_batch)
        deletion_metric(
            samples, explainer_ranker(explainer),
            lambda s: chain_predict_fn(pipeline, s),
            ks=(1, 2, 3), num_segments=16, seed=3,
        )
        assert calls["single"] <= single_calls
        assert calls["batch"] == batch_calls

    def test_ranker_reuses_base_prediction(self, model, sample_video):
        """The sign-normalisation query on the clean frame is gone:
        total single-frame calls stay at the attribution budget plus
        one base query plus one perturbed query per k."""
        from repro.datasets.base import Sample

        sample = Sample(video=sample_video, label=1, true_aus=np.zeros(12))
        __, neutral = sample_video.keyframes
        calls = []

        def factory(s):
            def predict(frame):
                calls.append(1)
                return model.chain_prob_from_frames(frame, neutral)
            return predict

        deletion_metric(
            [sample], explainer_ranker(LimeExplainer(num_samples=16)),
            factory,
            ks=(1, 2, 3), num_segments=16, seed=3,
        )
        # base + LIME's budget of exactly num_samples + 3 top-k.
        assert len(calls) == 1 + 16 + 3
