"""Minimal numpy neural-network substrate.

The foundation-model simulator and supervised baselines are shallow
networks (linear heads, small MLPs, attention pooling) trained by
explicit backpropagation.  This package provides numerically-stable
tensor ops (:mod:`~repro.nn.tensorops`), layers with manual
forward/backward passes and ``state_dict`` snapshots
(:mod:`~repro.nn.layers`) and the Adam optimizer
(:mod:`~repro.nn.optim`) that every trained model uses.  No external
ML framework is used; :mod:`repro.model.persistence` writes model
archives.
"""

from repro.nn.layers import MLP, Linear, Parameter
from repro.nn.optim import Adam
from repro.nn.tensorops import (
    log_sigmoid,
    relu,
    sigmoid,
    softmax,
)

__all__ = [
    "Adam",
    "Linear",
    "MLP",
    "Parameter",
    "log_sigmoid",
    "relu",
    "sigmoid",
    "softmax",
]
