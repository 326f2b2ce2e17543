"""Adam over :class:`~repro.nn.layers.Parameter`s."""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Parameter


class Adam:
    """Adam (Kingma & Ba, 2015) with bias correction."""

    def __init__(self, params: list[Parameter], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0):
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.value) for p in self.params]
        self._v = [np.zeros_like(p.value) for p in self.params]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        for param, m, v in zip(self.params, self._m, self._v):
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.value
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad**2
            param.value -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)

    def zero_grad(self) -> None:
        for param in self.params:
            param.zero_grad()
