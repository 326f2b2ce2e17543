"""Jeon et al. (Sensors 2021): spatio-temporal attention stress model.

The original combines ResNet-18 frame encodings with facial-landmark
features and pools frames through a learned temporal attention module.
The re-implementation keeps the structure: per-frame patch + landmark
features, a learned frame embedding, temporal attention weights, and a
classifier on the attention-pooled video representation -- trained
end-to-end through the attention.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import SupervisedBaseline, probability
from repro.baselines.features import landmark_features, per_frame_features
from repro.datasets.base import StressDataset
from repro.nn.layers import Linear
from repro.nn.optim import Adam
from repro.nn.tensorops import binary_cross_entropy_with_logits, softmax
from repro.rng import make_rng
from repro.video.frame import Video


class JeonSpatioTemporal(SupervisedBaseline):
    """Frame + landmark features with temporal attention pooling."""

    name = "Jeon et al."

    def __init__(self, embed_dim: int = 10, epochs: int = 100,
                 lr: float = 5e-3):
        super().__init__()
        self.embed_dim = embed_dim
        self.epochs = epochs
        self.lr = lr
        self._embed: Linear | None = None
        self._attend: Linear | None = None
        self._classify: Linear | None = None

    def _frame_matrix(self, video: Video) -> np.ndarray:
        return np.concatenate([per_frame_features(video),
                               landmark_features(video)], axis=1)

    def fit(self, train_data: StressDataset, seed: int = 0) -> None:
        rng = make_rng(seed, "jeon")
        videos = [self._frame_matrix(sample.video) for sample in train_data]
        labels = train_data.labels.astype(np.float64)
        in_dim = videos[0].shape[1]
        self._embed = Linear(in_dim, self.embed_dim, rng, name="jeon.embed")
        self._attend = Linear(self.embed_dim, 1, rng, name="jeon.attend")
        self._classify = Linear(self.embed_dim, 1, rng, name="jeon.classify")
        params = (self._embed.parameters() + self._attend.parameters()
                  + self._classify.parameters())
        optimizer = Adam(params, lr=self.lr, weight_decay=1e-4)
        for _ in range(self.epochs):
            optimizer.zero_grad()
            logits = np.array([
                self._video_logit_with_grad(frames, labels[i], len(videos))
                for i, frames in enumerate(videos)
            ])
            optimizer.step()
        self._fitted = True

    def _video_logit_with_grad(self, frames: np.ndarray, label: float,
                               num_videos: int) -> float:
        """Forward one video and accumulate gradients in place."""
        embeds = self._embed.forward(frames)                    # (T, D)
        scores = self._attend.forward(embeds)[:, 0]             # (T,)
        weights = softmax(scores)                               # (T,)
        pooled = weights @ embeds                               # (D,)
        logit = float(self._classify.forward(pooled[np.newaxis, :])[0, 0])
        __, grad = binary_cross_entropy_with_logits(
            np.array([logit]), np.array([label])
        )
        grad_scalar = float(grad[0]) / num_videos
        # Backprop: classifier -> pooled.
        grad_pooled = self._classify.backward(
            np.array([[grad_scalar]])
        )[0]
        # pooled = sum_t w_t e_t: gradient to embeds and weights.
        grad_embeds = np.outer(weights, grad_pooled)
        grad_weights = embeds @ grad_pooled
        # softmax backward to attention scores.
        grad_scores = weights * (grad_weights - weights @ grad_weights)
        grad_embeds += self._attend.backward(
            grad_scores[:, np.newaxis]
        )
        self._embed.backward(grad_embeds)
        return logit

    def _video_logit(self, frames: np.ndarray) -> float:
        embeds = self._embed.forward(frames)
        weights = softmax(self._attend.forward(embeds)[:, 0])
        pooled = weights @ embeds
        return float(self._classify.forward(pooled[np.newaxis, :])[0, 0])

    def predict_proba(self, video: Video) -> float:
        self._check_fitted()
        return probability(self._video_logit(self._frame_matrix(video)))
