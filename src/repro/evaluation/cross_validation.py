"""Generic subject-aware k-fold cross-validation.

The paper reports 10-fold cross-validated means for every method; this
module runs any fit/predict pair over the folds produced by
:func:`repro.datasets.base.kfold_splits` and averages the macro
metrics.

Folds run one after another, in fold order, in the calling process.
Each derives its own seeds from its fold index, so a fold's metrics do
not depend on which folds ran before it.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.datasets.base import StressDataset, kfold_splits
from repro.observability.metrics import global_metrics
from repro.observability.tracing import span
from repro.reliability.faults import fault_point
from repro.metrics.classification import (
    ClassificationMetrics,
    evaluate_predictions,
    mean_metrics,
)

#: fit(train_dataset, fold_index) -> predictor;
#: the predictor maps a Sample to a hard label.
FitFn = Callable[[StressDataset, int], Callable]


def cross_validate(
    fit: FitFn,
    dataset: StressDataset,
    num_folds: int = 10,
    seed: int = 0,
) -> tuple[ClassificationMetrics, list[ClassificationMetrics]]:
    """Run k-fold CV; returns (mean metrics, per-fold metrics)."""
    splits = kfold_splits(dataset, num_folds, seed)

    def run_fold(fold_index: int) -> ClassificationMetrics:
        with span("eval.fold", fold=fold_index, dataset=dataset.name):
            # The cv.fold fault site: chaos tests fail a chosen fold to
            # verify a fold error surfaces instead of corrupting means.
            fault_point("cv.fold")
            train_idx, test_idx = splits[fold_index]
            train = dataset.subset(train_idx,
                                   f"{dataset.name}-fold{fold_index}-train")
            test = dataset.subset(test_idx,
                                  f"{dataset.name}-fold{fold_index}-test")
            predictor = fit(train, fold_index)
            predictions = np.array([predictor(sample) for sample in test])
            return evaluate_predictions(test.labels, predictions)

    with span("eval.cross_validate", dataset=dataset.name,
              folds=len(splits)):
        per_fold = [run_fold(index) for index in range(len(splits))]
    global_metrics().counter("evaluation.folds").inc(len(splits))
    return mean_metrics(per_fold), per_fold
