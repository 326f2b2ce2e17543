"""Tests for the chain pipeline, rationale grounding, in-context shift."""

import numpy as np
import pytest

from repro.cot.chain import StressChainPipeline
from repro.cot.incontext import (
    InContextExample,
    description_similarity,
    incontext_logit_shift,
)
from repro.cot.rationale import Rationale
from repro.errors import ConfigError, DeadlineExceededError, ModelError
from repro.facs.descriptions import FacialDescription
from repro.model.foundation import FoundationModel


class TestPipeline:
    def test_result_fields(self, trained):
        model, __, __, test = trained
        pipeline = StressChainPipeline(model)
        result = pipeline.predict(test[0].video)
        assert result.label in (0, 1)
        assert 0.0 <= result.prob_stressed <= 1.0
        assert result.description is not None
        assert isinstance(result.rationale, Rationale)
        assert result.elapsed_seconds > 0
        assert len(result.session) >= 2  # describe + assess (+ highlight)

    def test_rationale_orders_description(self, trained):
        model, __, __, test = trained
        pipeline = StressChainPipeline(model)
        result = pipeline.predict(test[0].video)
        assert set(result.rationale) <= set(result.description.au_ids)

    def test_wo_chain_has_no_description(self, trained):
        model, __, __, test = trained
        pipeline = StressChainPipeline(model, use_chain=False)
        result = pipeline.predict(test[0].video)
        assert result.description is None
        assert isinstance(result.rationale, Rationale)

    def test_deterministic(self, trained):
        model, __, __, test = trained
        pipeline = StressChainPipeline(model)
        a = pipeline.predict(test[0].video)
        b = pipeline.predict(test[0].video)
        assert a.label == b.label
        assert a.rationale.au_ids == b.rationale.au_ids

    def test_test_time_refine_requires_pool(self, trained):
        model, __, __, __ = trained
        with pytest.raises(ModelError):
            StressChainPipeline(model, test_time_refine=True)

    def test_zero_verify_trials_rejected(self, trained):
        model, __, train, __ = trained
        with pytest.raises(ModelError, match="num_verify_trials"):
            StressChainPipeline(
                model, test_time_refine=True,
                verification_pool=[s.video for s in list(train)[:20]],
                num_verify_trials=0,
            )

    def test_negative_refine_rounds_rejected(self, trained):
        model, __, __, __ = trained
        with pytest.raises(ModelError, match="refine_rounds"):
            StressChainPipeline(model, refine_rounds=-3)
        assert StressChainPipeline(model, refine_rounds=0).refine_rounds == 0

    def test_nan_deadline_rejected(self, fresh_model, sample_video):
        pipeline = StressChainPipeline(fresh_model)
        with pytest.raises(ConfigError, match="deadline budget"):
            pipeline.predict(sample_video, deadline_ms=float("nan"))

    def test_test_time_refine_runs(self, trained):
        model, __, train, test = trained
        pipeline = StressChainPipeline(
            model, test_time_refine=True,
            verification_pool=[s.video for s in list(train)[:20]],
            refine_rounds=1, num_verify_trials=2,
        )
        result = pipeline.predict(test[0].video)
        assert result.label in (0, 1)

    @pytest.mark.parametrize("use_chain", [True, False])
    def test_predict_runs_the_trunk_once(self, fresh_model, sample_video,
                                         monkeypatch, use_chain):
        """Describe, Assess and Highlight all read one trunk embedding
        (w/o Chain too, where Highlight still needs a description)."""
        calls = []
        embed_video = FoundationModel.embed_video

        def counted(model, video):
            calls.append(video.video_id)
            return embed_video(model, video)

        monkeypatch.setattr(FoundationModel, "embed_video", counted)
        result = StressChainPipeline(fresh_model, use_chain=use_chain).predict(
            sample_video)
        assert calls == [sample_video.video_id]
        assert len(result.session) >= 1

    def test_expired_deadline_raises_before_highlight(
            self, fresh_model, sample_video, monkeypatch):
        highlights = []
        highlight = FoundationModel.highlight

        def counted(model, *args, **kwargs):
            highlights.append(args)
            return highlight(model, *args, **kwargs)

        monkeypatch.setattr(FoundationModel, "highlight", counted)
        pipeline = StressChainPipeline(fresh_model)
        with pytest.raises(DeadlineExceededError, match="Describe"):
            pipeline.predict(sample_video, deadline_ms=0.0)
        assert highlights == []
        # An unbounded call on the same pipeline still completes.
        assert pipeline.predict(sample_video).label in (0, 1)
        assert len(highlights) == 1


class TestRationale:
    def test_render_mentions_regions(self):
        text = Rationale((4, 12)).render()
        assert "eyebrow" in text and "lips" in text

    def test_render_empty(self):
        assert "No single facial expression" in Rationale(()).render()

    def test_model_segment_ranking_prioritises_first_au(self, trained):
        model, __, __, test = trained
        video = test[0].video
        labels = video.segmentation(64)
        a_first = Rationale((4, 6)).model_segment_ranking(model, labels)
        b_first = Rationale((6, 4)).model_segment_ranking(model, labels)
        assert a_first[0] != b_first[0] or a_first == b_first[::-1]


class TestInContext:
    def test_similarity_bounds(self):
        a = FacialDescription((1, 4))
        b = FacialDescription((1, 4))
        c = FacialDescription((6, 12))
        assert description_similarity(a, b) == pytest.approx(1.0)
        assert description_similarity(a, c) == 0.0
        assert description_similarity(a, FacialDescription(())) == 0.0

    def test_no_examples_no_shift(self):
        assert incontext_logit_shift(FacialDescription((1,)), []) == 0.0

    def test_shift_direction_follows_label(self):
        query = FacialDescription((1, 4))
        stressed = InContextExample(FacialDescription((1, 4)), 1)
        unstressed = InContextExample(FacialDescription((1, 4)), 0)
        assert incontext_logit_shift(query, [stressed]) > 0
        assert incontext_logit_shift(query, [unstressed]) < 0

    def test_similar_example_shifts_more(self):
        query = FacialDescription((1, 4))
        near = InContextExample(FacialDescription((1, 4)), 1)
        far = InContextExample(FacialDescription((12,)), 1)
        assert incontext_logit_shift(query, [near]) > \
            incontext_logit_shift(query, [far])
