"""Post-hoc explainers and the interpretability evaluation protocol.

LIME (:mod:`~repro.explainers.lime`), KernelSHAP
(:mod:`~repro.explainers.shap`) and SOBOL
(:mod:`~repro.explainers.sobol`) are implemented from scratch over SLIC
superpixels, each spending a ~1000-evaluation budget per sample as in
the paper's setup; :mod:`~repro.explainers.evaluation` implements the
top-k deletion metric of Table II and
:mod:`~repro.explainers.timing` the per-sample cost comparison of
Figure 6.  RISE (:mod:`~repro.explainers.rise`) is not in the paper; it
stays because the engine benchmark's deletion-metric workload runs it.
"""

from repro.explainers.base import (
    BatchPredictFn,
    Explainer,
    SegmentAttribution,
    predict_batch,
)
from repro.explainers.evaluation import (
    DeletionResult,
    chain_predict_fn,
    deletion_metric,
    explainer_ranker,
    rationale_ranker,
)
from repro.explainers.lime import LimeExplainer
from repro.explainers.rise import RiseExplainer
from repro.explainers.shap import KernelShapExplainer
from repro.explainers.sobol import SobolExplainer
from repro.explainers.timing import time_explainers

__all__ = [
    "BatchPredictFn",
    "DeletionResult",
    "Explainer",
    "KernelShapExplainer",
    "LimeExplainer",
    "RiseExplainer",
    "SegmentAttribution",
    "SobolExplainer",
    "chain_predict_fn",
    "deletion_metric",
    "explainer_ranker",
    "predict_batch",
    "rationale_ranker",
    "time_explainers",
]
