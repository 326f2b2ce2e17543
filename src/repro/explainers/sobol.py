"""SOBOL attribution (Fel et al., NeurIPS 2021).

Attributes the model output to segments via Sobol total-order
sensitivity indices estimated with the Jansen estimator on
quasi-Monte-Carlo mask sequences:

    ST_i = E[ (f(A) - f(A_B^(i)))^2 ] / (2 * Var(f))

where ``A`` and ``B`` are two QMC mask matrices and ``A_B^(i)`` is
``A`` with column ``i`` taken from ``B``.  Masks are real-valued in
``[0, 1]`` and applied multiplicatively between the frame and a
mid-gray baseline, as in the original method.  Total black-box calls:
``N * (d + 2)`` -- the design-point economy that makes SOBOL the
fastest of the paper's post-hoc baselines.
"""

from __future__ import annotations

import numpy as np

from repro.explainers.base import (
    Explainer,
    PredictFn,
    SegmentAttribution,
    predict_batch,
)
from repro.rng import derive_seed


class SobolExplainer(Explainer):
    """Sobol total-index attribution on QMC masks.

    Parameters
    ----------
    num_designs:
        ``N``, the number of QMC base designs.  Black-box calls are
        ``N * (num_segments + 2)``; the default keeps the budget near
        the paper's ~1000 evaluations for 64 segments.
    baseline:
        Fill value a fully-masked segment fades toward.
    """

    name = "SOBOL"

    def __init__(self, num_designs: int = 16, baseline: float = 0.5):
        if num_designs < 2:
            raise ValueError("num_designs must be at least 2")
        self.num_designs = num_designs
        self.baseline = baseline

    def attribute(self, frame: np.ndarray, labels: np.ndarray,
                  predict_fn: PredictFn, seed: int = 0) -> SegmentAttribution:
        # Imported here: scipy.stats costs a process most of a second
        # and tens of MiB, and only this explainer needs it.
        from scipy.stats import qmc

        num_segments = self._num_segments(labels)
        sampler = qmc.Sobol(d=2 * num_segments, scramble=True,
                            seed=derive_seed(seed, "sobol"))
        designs = sampler.random(self.num_designs)
        a_masks = designs[:, :num_segments]
        b_masks = designs[:, num_segments:]

        base_eval = predict_batch(
            predict_fn, self._fade(frame, labels, np.vstack([a_masks, b_masks]))
        )
        f_a = base_eval[: self.num_designs]
        f_b = base_eval[self.num_designs:]
        evaluations = 2 * self.num_designs

        # All N*d hybrid design points go through the model in one
        # batch: hybrid block i is A with column i taken from B.
        hybrids = np.repeat(a_masks[np.newaxis, :, :], num_segments, axis=0)
        hybrids[np.arange(num_segments), :, np.arange(num_segments)] = \
            b_masks.T
        f_hybrid = predict_batch(
            predict_fn,
            self._fade(frame, labels,
                       hybrids.reshape(num_segments * self.num_designs,
                                       num_segments)),
        ).reshape(num_segments, self.num_designs)
        evaluations += num_segments * self.num_designs

        total_variance = np.var(np.concatenate([f_a, f_b]))
        scores = np.mean((f_a[np.newaxis, :] - f_hybrid) ** 2, axis=1) / (
            2.0 * total_variance + 1e-12
        )
        return SegmentAttribution(
            scores=scores, num_evaluations=evaluations, explainer=self.name
        )

    def _fade(self, frame: np.ndarray, labels: np.ndarray,
              masks: np.ndarray) -> np.ndarray:
        """Blend each segment toward the baseline by ``1 - mask_i``,
        for a ``(N, S)`` mask matrix -> ``(N, H, W)`` frame stack."""
        alpha = masks[:, labels]
        return self.baseline + alpha * (frame - self.baseline)
