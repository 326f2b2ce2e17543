"""Gao et al. (ICIP 2014): landmark-geometry SVM + negative-frame ratio.

The original extracts 49 facial feature points per frame, classifies
each frame's emotion polarity with an SVM, and calls the video
stressed when the fraction of negative frames exceeds a threshold.
The re-implementation keeps both bottlenecks: per-frame landmark
samples only (no appearance), and the frame-majority decision rule
that discards which cues fired.  The linear frame classifier is
trained with a hinge-style logistic surrogate against the video label
(frame labels are not available, as in the original's weak
supervision), and the ratio threshold is tuned on the training set.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import SupervisedBaseline, fit_logistic
from repro.baselines.features import landmark_features
from repro.datasets.base import StressDataset
from repro.nn.layers import Linear
from repro.rng import make_rng
from repro.video.frame import Video


class GaoSVM(SupervisedBaseline):
    """Per-frame landmark classifier with ratio rule."""

    name = "Gao et al."

    def __init__(self, epochs: int = 80, lr: float = 5e-3):
        super().__init__()
        self.epochs = epochs
        self.lr = lr
        self._frame_clf: Linear | None = None
        self._threshold: float = 0.5

    def fit(self, train_data: StressDataset, seed: int = 0) -> None:
        frames, labels = [], []
        for sample in train_data:
            matrix = landmark_features(sample.video)
            frames.append(matrix)
            labels.extend([sample.label] * matrix.shape[0])
        features = np.concatenate(frames, axis=0)
        frame_labels = np.asarray(labels, dtype=np.float64)
        self._frame_clf = Linear(features.shape[1], 1,
                                 make_rng(seed, "gao"), name="gao")
        fit_logistic(
            self._frame_clf,
            lambda x: self._frame_clf.forward(x)[:, 0],
            lambda g: self._frame_clf.backward(g[:, np.newaxis]),
            features, frame_labels, self.epochs, self.lr,
            weight_decay=8e-3,
        )
        # Tune the negative-frame ratio threshold on training videos.
        ratios = np.array([
            self._negative_ratio(sample.video) for sample in train_data
        ])
        video_labels = train_data.labels
        candidates = np.unique(ratios)
        best_threshold, best_accuracy = 0.5, -1.0
        for threshold in candidates:
            accuracy = ((ratios >= threshold).astype(int) == video_labels).mean()
            if accuracy > best_accuracy:
                best_accuracy, best_threshold = accuracy, float(threshold)
        self._threshold = best_threshold
        self._fitted = True

    def _negative_ratio(self, video: Video) -> float:
        logits = self._frame_clf.forward(landmark_features(video))[:, 0]
        return float((logits > 0).mean())

    def predict_proba(self, video: Video) -> float:
        self._check_fitted()
        ratio = self._negative_ratio(video)
        # Ratio relative to the tuned threshold, squashed to (0, 1).
        return float(1.0 / (1.0 + np.exp(-8.0 * (ratio - self._threshold))))
