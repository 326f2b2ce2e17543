"""Tests for the deletion metric and timing harness."""

import pytest

from repro.cot.chain import StressChainPipeline
from repro.errors import ExplainerError
from repro.explainers import (
    LimeExplainer,
    chain_predict_fn,
    deletion_metric,
    explainer_ranker,
    rationale_ranker,
    time_explainers,
)


@pytest.fixture(scope="module")
def pipeline_and_samples(trained):
    model, __, __, test = trained
    pipeline = StressChainPipeline(model)
    return pipeline, list(test)[:10]


class TestDeletionMetric:
    def test_empty_samples_raise(self, pipeline_and_samples):
        pipeline, __ = pipeline_and_samples
        with pytest.raises(ExplainerError):
            deletion_metric([], rationale_ranker(pipeline),
                            lambda s: (lambda f: 0.5))

    def test_result_structure(self, pipeline_and_samples):
        pipeline, samples = pipeline_and_samples
        result = deletion_metric(
            samples, rationale_ranker(pipeline),
            lambda s: chain_predict_fn(pipeline, s),
            ks=(1, 2), num_segments=32,
        )
        assert set(result.accuracy_after) == {1, 2}
        assert result.num_samples == len(samples)
        assert 0.0 <= result.base_accuracy <= 1.0
        for drop in result.drops.values():
            assert -1.0 <= drop <= 1.0

    def test_perturbing_more_segments_never_helps_much(
        self, pipeline_and_samples
    ):
        """Top-3 accuracy should not exceed top-1 accuracy by a wide
        margin (noise can fix an occasional wrong prediction, but the
        trend must be downward)."""
        pipeline, samples = pipeline_and_samples
        result = deletion_metric(
            samples, explainer_ranker(LimeExplainer(num_samples=200)),
            lambda s: chain_predict_fn(pipeline, s),
            num_segments=32,
        )
        assert result.accuracy_after[3] <= result.accuracy_after[1] + 0.21

    def test_deterministic(self, pipeline_and_samples):
        pipeline, samples = pipeline_and_samples
        kwargs = dict(ks=(1,), num_segments=32, seed=5)
        a = deletion_metric(samples, rationale_ranker(pipeline),
                            lambda s: chain_predict_fn(pipeline, s), **kwargs)
        b = deletion_metric(samples, rationale_ranker(pipeline),
                            lambda s: chain_predict_fn(pipeline, s), **kwargs)
        assert a.accuracy_after == b.accuracy_after


class TestTiming:
    def test_ours_is_fastest(self, pipeline_and_samples):
        pipeline, samples = pipeline_and_samples
        timing = time_explainers(
            pipeline, [LimeExplainer(num_samples=100)], samples[:4],
            num_segments=32,
        )
        assert timing.seconds_per_sample["Ours"] < \
            timing.seconds_per_sample["LIME"]
        assert timing.evaluations_per_sample["Ours"] == 1.0
        assert timing.evaluations_per_sample["LIME"] == 100.0
        assert timing.speedup_over("Ours", "LIME") > 1.0
