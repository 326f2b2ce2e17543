"""Tests for LIME, KernelSHAP and SOBOL against a known black box.

The explainers are validated against a *known* black box: a linear
function of chosen segments, whose ground-truth attribution order is
unambiguous.
"""

import numpy as np
import pytest

from repro.errors import ExplainerError
from repro.explainers import (
    KernelShapExplainer,
    LimeExplainer,
    SobolExplainer,
)
from repro.video.segmentation import slic_segments


@pytest.fixture(scope="module")
def synthetic_problem():
    """A frame, its segmentation, and a black box that depends on
    exactly three segments with known relative importance."""
    rng = np.random.default_rng(0)
    frame = rng.random((48, 48)) * 0.2 + 0.4
    labels = slic_segments(frame, num_segments=16)
    num_segments = int(labels.max()) + 1
    important = [0, num_segments // 2, num_segments - 1]
    weights = {important[0]: 0.6, important[1]: 0.3, important[2]: 0.15}

    def predict(perturbed: np.ndarray) -> float:
        # Response: how intact each important segment's mean is.
        value = 0.5
        for segment, weight in weights.items():
            mask = labels == segment
            intact = 1.0 - np.abs(perturbed[mask] - frame[mask]).mean() / 0.5
            value += weight * (intact - 0.5)
        return float(np.clip(value, 0.0, 1.0))

    return frame, labels, predict, important


class TestAgainstKnownBlackBox:
    @pytest.mark.parametrize("explainer", [
        LimeExplainer(num_samples=400),
        KernelShapExplainer(num_samples=400),
        SobolExplainer(num_designs=8),
    ], ids=["lime", "shap", "sobol"])
    def test_recovers_important_segments(self, explainer, synthetic_problem):
        frame, labels, predict, important = synthetic_problem
        attribution = explainer.attribute(frame, labels, predict, seed=1)
        top3 = set(attribution.top_k(3))
        assert len(top3 & set(important)) >= 2, (
            f"{explainer.name} top-3 {top3} misses ground truth {important}"
        )

    def test_lime_ranks_by_weight(self, synthetic_problem):
        frame, labels, predict, important = synthetic_problem
        attribution = LimeExplainer(num_samples=600).attribute(
            frame, labels, predict, seed=2
        )
        assert attribution.ranking()[0] == important[0]

    def test_shap_efficiency_property(self, synthetic_problem):
        """KernelSHAP attributions sum to f(full) - f(empty)."""
        frame, labels, predict, __ = synthetic_problem
        from repro.video.perturb import apply_mask

        num_segments = int(labels.max()) + 1
        attribution = KernelShapExplainer(num_samples=400).attribute(
            frame, labels, predict, seed=3
        )
        full = predict(apply_mask(frame, labels, np.ones(num_segments)))
        empty = predict(apply_mask(frame, labels, np.zeros(num_segments)))
        assert attribution.scores.sum() == pytest.approx(full - empty,
                                                         abs=1e-6)

    def test_sobol_scores_nonnegative(self, synthetic_problem):
        frame, labels, predict, __ = synthetic_problem
        attribution = SobolExplainer(num_designs=8).attribute(
            frame, labels, predict, seed=4
        )
        assert np.all(attribution.scores >= -1e-9)

    def test_evaluation_budgets_reported(self, synthetic_problem):
        frame, labels, predict, __ = synthetic_problem
        lime = LimeExplainer(num_samples=100).attribute(frame, labels,
                                                        predict, seed=0)
        assert lime.num_evaluations == 100
        sobol = SobolExplainer(num_designs=4).attribute(frame, labels,
                                                        predict, seed=0)
        num_segments = int(labels.max()) + 1
        assert sobol.num_evaluations == 4 * (num_segments + 2)

    def test_deterministic_per_seed(self, synthetic_problem):
        frame, labels, predict, __ = synthetic_problem
        a = LimeExplainer(num_samples=200).attribute(frame, labels, predict,
                                                     seed=7)
        b = LimeExplainer(num_samples=200).attribute(frame, labels, predict,
                                                     seed=7)
        assert np.array_equal(a.scores, b.scores)


class TestValidation:
    def test_too_few_samples_raise(self):
        with pytest.raises(ValueError):
            LimeExplainer(num_samples=2)
        with pytest.raises(ValueError):
            KernelShapExplainer(num_samples=2)
        with pytest.raises(ValueError):
            SobolExplainer(num_designs=1)

    def test_single_segment_rejected(self):
        frame = np.zeros((16, 16))
        labels = np.zeros((16, 16), dtype=np.int64)
        with pytest.raises(ExplainerError):
            LimeExplainer().attribute(frame, labels, lambda f: 0.5)
