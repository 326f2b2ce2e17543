"""Request deadlines.

A :class:`Deadline` is an absolute point on the monotonic clock before
which a caller still wants its answer.  The micro-batcher sheds
requests whose deadline has passed *at batch-collection time* -- after
they are dequeued, before any executor work -- so the single model
worker never burns a forward pass for a caller that has already timed
out (DESIGN.md section 12 explains why shedding lives exactly there).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True, slots=True)
class Deadline:
    """An absolute expiry on the monotonic clock."""

    expires_at: float

    @classmethod
    def after_ms(cls, budget_ms: float,
                 now: float | None = None) -> "Deadline":
        """A deadline ``budget_ms`` from ``now`` (monotonic seconds)."""
        if not budget_ms >= 0:
            raise ConfigError(
                f"deadline budget must be >= 0 ms, got {budget_ms}")
        if now is None:
            now = time.monotonic()
        return cls(expires_at=now + budget_ms / 1000.0)

    def expired(self, now: float | None = None) -> bool:
        if now is None:
            now = time.monotonic()
        return now >= self.expires_at
