"""Numerically-stable tensor operations.

All activation and normalisation math used by the library funnels
through these helpers so stability fixes live in one place.  Each
function accepts and returns ``numpy`` arrays and never modifies its
input.
"""

from __future__ import annotations

import numpy as np


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Elementwise logistic function, stable for large ``|x|``."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    return out


def log_sigmoid(x: np.ndarray) -> np.ndarray:
    """``log(sigmoid(x))`` computed without overflow.

    Uses the identity ``log sigmoid(x) = min(x, 0) - log1p(exp(-|x|))``.
    """
    x = np.asarray(x, dtype=np.float64)
    return np.minimum(x, 0.0) - np.log1p(np.exp(-np.abs(x)))


def logit(p: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Inverse sigmoid with clamping away from {0, 1}."""
    p = np.clip(np.asarray(p, dtype=np.float64), eps, 1.0 - eps)
    return np.log(p) - np.log1p(-p)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stable softmax along ``axis``."""
    x = np.asarray(x, dtype=np.float64)
    shifted = x - x.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear unit."""
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0)


def binary_cross_entropy_with_logits(
    logits: np.ndarray, targets: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean BCE loss and its gradient w.r.t. the logits.

    Returns ``(loss, grad)`` where ``grad`` has the shape of ``logits``
    and already includes the ``1/N`` mean factor.
    """
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if logits.shape != targets.shape:
        raise ValueError(
            f"logits shape {logits.shape} != targets shape {targets.shape}"
        )
    probs = sigmoid(logits)
    loss = -(
        targets * log_sigmoid(logits) + (1.0 - targets) * log_sigmoid(-logits)
    ).mean()
    grad = (probs - targets) / logits.size
    return float(loss), grad
