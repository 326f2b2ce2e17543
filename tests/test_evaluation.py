"""Tests for cross-validation and per-method protocols."""

import pytest

from repro.datasets.base import kfold_splits
from repro.evaluation import cross_validate, evaluate_baseline
from repro.metrics.classification import ClassificationMetrics


class TestCrossValidate:
    def test_majority_fit(self, micro_uvsd):
        """A majority-class predictor scores exactly the majority rate."""

        def fit(train, fold_index):
            majority = int(train.labels.mean() > 0.5)
            return lambda sample: majority

        mean, per_fold = cross_validate(fit, micro_uvsd, num_folds=4)
        assert isinstance(mean, ClassificationMetrics)
        assert len(per_fold) == 4
        assert 0.4 <= mean.accuracy <= 0.75

    def test_oracle_fit_is_perfect(self, micro_uvsd):
        def fit(train, fold_index):
            return lambda sample: sample.label

        mean, __ = cross_validate(fit, micro_uvsd, num_folds=4)
        assert mean.accuracy == 1.0

    def test_fold_support_covers_dataset(self, micro_uvsd):
        def fit(train, fold_index):
            return lambda sample: 0

        __, per_fold = cross_validate(fit, micro_uvsd, num_folds=4)
        assert sum(m.support for m in per_fold) == len(micro_uvsd)

    def test_fit_receives_training_split_only(self, micro_uvsd):
        seen_sizes = []

        def fit(train, fold_index):
            seen_sizes.append(len(train))
            return lambda sample: 0

        cross_validate(fit, micro_uvsd, num_folds=4)
        for size, (train_idx, __) in zip(
            seen_sizes, kfold_splits(micro_uvsd, 4, 0)
        ):
            assert size == len(train_idx)


class TestProtocols:
    def test_evaluate_baseline_runs(self, micro_uvsd):
        metrics = evaluate_baseline("fdassnn", micro_uvsd, num_folds=3)
        assert metrics.accuracy > 0.5

    def test_evaluate_baseline_deterministic(self, micro_uvsd):
        a = evaluate_baseline("tsdnet", micro_uvsd, num_folds=3, seed=2)
        b = evaluate_baseline("tsdnet", micro_uvsd, num_folds=3, seed=2)
        assert a.accuracy == pytest.approx(b.accuracy)
