"""Retry policy: which errors retry, and the seeded backoff between
tries.

Retryability is a property of the error *type*, not of the call site:
an exception is retried iff it derives from
:class:`~repro.errors.TransientError` (the reliability branch of the
library's taxonomy).  Everything else -- config errors, model misuse,
programming errors -- fails immediately; retrying a deterministic
failure only multiplies its cost.

Backoff delays are *seeded*: the jitter sequence comes from a
:mod:`repro.rng` stream derived from ``(policy.seed, scope)``, so a
retry schedule is reproducible run-to-run exactly like every other
stochastic choice in the repo.  The serving layer runs the retry loop
itself (:class:`~repro.serving.service.StressService` retries the
failed requests of a batch after each delay) and counts the retries
in its stats (``serving.retries``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError, TransientError
from repro.rng import make_rng


def is_retryable(exc: BaseException) -> bool:
    """The taxonomy rule: transient errors retry, everything else is
    fatal."""
    return isinstance(exc, TransientError)


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Bounded exponential backoff with seeded jitter.

    Attempt ``k`` (0-based) sleeps
    ``min(base_delay_ms * multiplier**k, max_delay_ms)`` scaled by a
    uniform jitter factor in ``[1 - jitter, 1 + jitter]`` before
    retrying.  ``max_attempts`` counts *total* tries, so ``1`` disables
    retrying.
    """

    max_attempts: int = 3
    base_delay_ms: float = 1.0
    multiplier: float = 2.0
    max_delay_ms: float = 50.0
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError(
                f"max_attempts must be >= 1, got {self.max_attempts}")
        # Comparisons NaN fails, so a NaN never reaches time.sleep.
        for name in ("base_delay_ms", "max_delay_ms"):
            if not getattr(self, name) >= 0:
                raise ConfigError(
                    f"{name} must be >= 0, got {getattr(self, name)}")
        if not self.multiplier >= 1.0:
            raise ConfigError(
                f"multiplier must be >= 1, got {self.multiplier}")
        if not 0.0 <= self.jitter < 1.0:
            raise ConfigError(
                f"jitter must be in [0, 1), got {self.jitter}")

    def delays_s(self, scope: str = "") -> list[float]:
        """The full jittered backoff schedule (``max_attempts - 1``
        sleeps), deterministic for a given ``(seed, scope)``."""
        rng = make_rng(self.seed, f"retry:{scope}")
        delays = []
        for attempt in range(self.max_attempts - 1):
            base = min(self.base_delay_ms * self.multiplier ** attempt,
                       self.max_delay_ms)
            factor = 1.0 + rng.uniform(-self.jitter, self.jitter)
            delays.append(base * factor / 1000.0)
        return delays


__all__ = ["RetryPolicy", "is_retryable", "TransientError"]
