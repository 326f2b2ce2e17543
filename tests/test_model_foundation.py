"""Tests for the FoundationModel simulator."""

import dataclasses
import math

import numpy as np
import pytest

from repro.errors import ModelError
from repro.facs.descriptions import FacialDescription
from repro.model.features import video_features
from repro.model.foundation import STRESSED, UNSTRESSED
from repro.model.generation import GenerationConfig, bernoulli_set_logprob
from repro.model.instructions import DESCRIBE_INSTRUCTION
from repro.model.session import DialogueSession
from repro.video import frame
from repro.video.frame import Video, video_content_hash
from tests.foundation_reference import (
    assess_logit_from_frames,
    au_logits_from_frames,
)


def _logprob(model, video, description) -> float:
    """Exact log p_F(E | V, I1) of a description."""
    return bernoulli_set_logprob(model.au_logits(video),
                                 description.to_vector())


class TestDescribe:
    def test_greedy_is_deterministic(self, fresh_model, sample_video):
        a = fresh_model.describe(sample_video, GenerationConfig(temperature=0))
        b = fresh_model.describe(sample_video, GenerationConfig(temperature=0))
        assert a == b

    def test_sampled_varies_with_seed(self, fresh_model, sample_video):
        outs = {
            fresh_model.describe(sample_video,
                                 GenerationConfig(seed=s)).au_ids
            for s in range(8)
        }
        assert len(outs) > 1

    def test_logprob_is_negative(self, fresh_model, sample_video):
        description = fresh_model.describe(
            sample_video, GenerationConfig(temperature=0)
        )
        logprob = _logprob(fresh_model, sample_video, description)
        assert logprob < 0

    def test_greedy_description_is_mode(self, fresh_model, sample_video):
        """The greedy description must have the highest probability."""
        greedy = fresh_model.describe(sample_video,
                                      GenerationConfig(temperature=0))
        greedy_lp = _logprob(fresh_model, sample_video, greedy)
        for seed in range(5):
            other = fresh_model.describe(sample_video,
                                         GenerationConfig(seed=seed))
            assert _logprob(fresh_model, sample_video, other) <= \
                greedy_lp + 1e-9


class TestAssess:
    def test_greedy_threshold(self, fresh_model, sample_video):
        label, prob = fresh_model.assess(sample_video, None)
        logit = fresh_model.assess_logit(sample_video, None)
        assert label == (STRESSED if logit > 0 else UNSTRESSED)
        assert prob == pytest.approx(1 / (1 + math.exp(-logit)))

    def test_description_changes_logit(self, fresh_model, sample_video):
        without = fresh_model.assess_logit(sample_video, None)
        with_desc = fresh_model.assess_logit(
            sample_video, FacialDescription((1, 4, 15))
        )
        assert without != with_desc

    def test_tempered_sampling_seeded(self, fresh_model, sample_video):
        config = GenerationConfig(temperature=0.7, seed=11)
        a = fresh_model.assess(sample_video, None, config)
        b = fresh_model.assess(sample_video, None, config)
        assert a == b

    def test_frames_pathway_matches_video_pathway(self, fresh_model,
                                                  sample_video):
        fe, fl = sample_video.keyframes
        description = FacialDescription((4,))
        assert assess_logit_from_frames(fresh_model, fe, fl, description) == \
            pytest.approx(fresh_model.assess_logit(sample_video, description))

    def test_chain_prob_extracts_features_once(self, fresh_model,
                                               sample_video, monkeypatch):
        """Describe and Assess share one feature extraction and trunk
        pass, bitwise equal to running each from the frames."""
        from repro.model import foundation

        fe, fl = sample_video.keyframes
        logits = au_logits_from_frames(fresh_model, fe, fl)
        description = FacialDescription.from_vector(
            (logits > 0).astype(np.float64))
        logit = assess_logit_from_frames(fresh_model, fe, fl, description)
        expected = 1.0 / (1.0 + math.exp(-logit))
        calls = []
        keyframe_features = foundation.keyframe_features

        def counted(*args):
            calls.append(args)
            return keyframe_features(*args)

        monkeypatch.setattr(foundation, "keyframe_features", counted)
        prob = fresh_model.chain_prob_from_frames(fe, fl)
        assert len(calls) == 1
        assert prob == pytest.approx(expected, rel=0, abs=1e-15)


class TestHighlight:
    def test_rationale_subset_of_description(self, fresh_model, sample_video):
        description = FacialDescription((1, 4, 6, 25))
        rationale = fresh_model.highlight(sample_video, description, STRESSED)
        assert set(rationale) <= set(description.au_ids)
        assert len(rationale) == len(description)

    def test_empty_description_gives_empty_rationale(self, fresh_model,
                                                     sample_video):
        assert fresh_model.highlight(sample_video, FacialDescription(()),
                                     STRESSED) == ()

    def test_invalid_assessment_raises(self, fresh_model, sample_video):
        with pytest.raises(ModelError):
            fresh_model.highlight(sample_video, FacialDescription((1,)), 7)

    def test_assessment_sign_changes_scores(self, fresh_model, sample_video):
        description = FacialDescription((1, 4, 6, 25))
        stressed = fresh_model.highlight_scores(sample_video, description,
                                                STRESSED)
        unstressed = fresh_model.highlight_scores(sample_video, description,
                                                  UNSTRESSED)
        active = np.isfinite(stressed)
        assert not np.allclose(stressed[active], unstressed[active])

    def test_rationale_logprob_negative(self, fresh_model, sample_video):
        description = FacialDescription((1, 4, 6))
        rationale = fresh_model.highlight(sample_video, description, STRESSED)
        logprob = fresh_model.rationale_logprob(sample_video, description,
                                                rationale, STRESSED)
        assert logprob < 0

    def test_top_k(self, fresh_model, sample_video):
        description = FacialDescription((1, 4, 6, 25))
        rationale = fresh_model.highlight(sample_video, description, STRESSED,
                                          top_k=2)
        assert len(rationale) == 2


class TestVerify:
    def _videos(self, micro_uvsd, count):
        return [s.video for s in list(micro_uvsd)[:count]]

    def test_requires_fresh_session(self, fresh_model, micro_uvsd):
        videos = self._videos(micro_uvsd, 3)
        session = DialogueSession()
        session.record(DESCRIBE_INSTRUCTION, fresh_model.describe(
            videos[0], GenerationConfig(temperature=0)).render())
        with pytest.raises(ModelError):
            fresh_model.verify(FacialDescription((1,)), videos,
                               GenerationConfig(), session)

    def test_needs_two_candidates(self, fresh_model, micro_uvsd):
        videos = self._videos(micro_uvsd, 1)
        with pytest.raises(ModelError):
            fresh_model.verify(FacialDescription((1,)), videos,
                               GenerationConfig(), DialogueSession())

    def test_choice_in_range_and_recorded(self, fresh_model, micro_uvsd):
        videos = self._videos(micro_uvsd, 4)
        session = DialogueSession()
        choice = fresh_model.verify(
            FacialDescription((4,)), videos,
            GenerationConfig(temperature=0.0), session,
        )
        assert 0 <= choice < 4
        assert len(session) == 1

    def test_precomputed_logits_match(self, fresh_model, micro_uvsd):
        videos = self._videos(micro_uvsd, 4)
        logits = [fresh_model.au_logits(video) for video in videos]
        for seed in range(5):
            config = GenerationConfig(temperature=1.0, seed=seed)
            assert fresh_model.verify(
                FacialDescription((4, 12)), videos, config,
                DialogueSession(), au_logits=logits,
            ) == fresh_model.verify(
                FacialDescription((4, 12)), videos, config, DialogueSession())
        with pytest.raises(ModelError):
            fresh_model.verify(FacialDescription((4,)), videos,
                               GenerationConfig(), DialogueSession(),
                               au_logits=logits[:3])


class TestHousekeeping:
    def test_clone_is_independent(self, fresh_model, sample_video):
        clone = fresh_model.clone()
        clone.assess_head.weight.value += 1.0
        assert fresh_model.assess_logit(sample_video, None) != \
            clone.assess_logit(sample_video, None)

    def test_frozen_blocks_training(self, fresh_model):
        fresh_model.frozen = True
        with pytest.raises(ModelError):
            fresh_model.backward_description(np.zeros(12))

    def test_feature_cache(self, fresh_model, sample_video):
        a = fresh_model.features(sample_video)
        b = fresh_model.features(sample_video)
        assert a is b
        fresh_model.clear_feature_cache()
        assert fresh_model.features(sample_video) is not a

    def test_au_patch_sensitivity_shape(self, fresh_model):
        sens = fresh_model.au_patch_sensitivity(4)
        assert sens.shape == (12, 12)
        assert np.all(sens >= 0)

    def test_feature_cache_distinguishes_same_id_different_seed(
        self, fresh_model
    ):
        """Regression: two datasets generated with different root seeds
        reuse the same human-readable video ids; the feature cache must
        not serve one dataset's features for the other's videos."""
        from repro.datasets import generate_disfa

        a = generate_disfa(seed=0, num_samples=2, num_subjects=2)
        b = generate_disfa(seed=99, num_samples=2, num_subjects=2)
        assert a[0].video.video_id == b[0].video.video_id
        features_a = fresh_model.features(a[0].video)
        features_b = fresh_model.features(b[0].video)
        assert not np.array_equal(features_a, features_b)

    def test_feature_cache_keys_on_content_not_id_and_seed(
        self, fresh_model, sample_video
    ):
        """Regression: two specs with the same id and render seed but
        different AU curves must not share cached features."""
        curves = sample_video.spec.au_intensities.copy()
        curves[:, 0] = 0.9
        other = Video(dataclasses.replace(sample_video.spec,
                                          au_intensities=curves))
        assert other.video_id == sample_video.video_id
        assert other.spec.seed == sample_video.spec.seed
        first = fresh_model.features(sample_video)
        features = fresh_model.features(other)
        assert np.array_equal(features, video_features(other, fresh_model.grid))
        assert not np.array_equal(features, first)

    def test_feature_cache_hashes_each_video_once(
        self, fresh_model, sample_video, monkeypatch
    ):
        calls = []

        def counting_hash(video):
            calls.append(video)
            return video_content_hash(video)

        monkeypatch.setattr(frame, "video_content_hash", counting_hash)
        video = Video(sample_video.spec)
        for _ in range(3):
            fresh_model.features(video)
        assert calls == [video]
