"""Singh et al. (Microprocessors & Microsystems 2022).

Stress/anxiety/depression detection from surveillance video with a
generic ResNet-101 backbone.  The defining property is *generic deep
features* -- a high-capacity encoder not specialised for faces, fed
with single frames (surveillance footage rarely yields clean keyframe
pairs).  The re-implementation uses the expressive frame only (no
neutral-frame differencing, losing identity/lighting cancellation) and
a deeper MLP, which lands it in the mid-field as in the paper.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import SupervisedBaseline, fit_logistic, probability
from repro.baselines.features import per_frame_features
from repro.datasets.base import StressDataset
from repro.nn.layers import MLP
from repro.rng import make_rng
from repro.video.frame import Video
from repro.video.keyframes import extract_keyframes


class SinghResNet(SupervisedBaseline):
    """Generic deep features from the expressive frame only."""

    name = "Singh et al."

    def __init__(self, hidden_dims: tuple[int, int] = (24, 12),
                 epochs: int = 180, lr: float = 5e-3):
        super().__init__()
        self.hidden_dims = hidden_dims
        self.epochs = epochs
        self.lr = lr
        self._mlp: MLP | None = None

    @staticmethod
    def _features(video: Video) -> np.ndarray:
        # Surveillance-grade input: a single frame at coarse
        # resolution, no neutral-frame differencing -- the expressive
        # keyframe's row of the clip's per-frame patch features.
        expressive, __ = extract_keyframes(video.spec)
        return per_frame_features(video)[expressive]

    def fit(self, train_data: StressDataset, seed: int = 0) -> None:
        features = np.stack([
            self._features(sample.video) for sample in train_data
        ])
        labels = train_data.labels.astype(np.float64)
        dims = [features.shape[1], *self.hidden_dims, 1]
        self._mlp = MLP(dims, make_rng(seed, "singh"), name="singh")
        fit_logistic(
            self._mlp,
            lambda x: self._mlp.forward(x)[:, 0],
            lambda g: self._mlp.backward(g[:, np.newaxis]),
            features, labels, self.epochs, self.lr,
            weight_decay=1e-4,
        )
        self._fitted = True

    def predict_proba(self, video: Video) -> float:
        self._check_fitted()
        features = self._features(video)[np.newaxis, :]
        return probability(float(self._mlp.forward(features)[0, 0]))
