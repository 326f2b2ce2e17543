"""Sliding-window circuit breaker.

The breaker guards the batch executor: every executed request outcome
is recorded (a batch's outcomes in order, under one lock), and when
the failure rate over the most recent ``window`` outcomes crosses
``failure_threshold`` (with at least ``min_volume`` outcomes
observed) the circuit **opens** -- execution stops, and the
service either fails fast or serves cache-only hits in degraded mode.
After ``open_duration_s`` the breaker goes **half-open** and admits up
to ``half_open_probes`` trial requests: if every probe succeeds the
circuit closes (window reset), a single probe failure re-opens it.
The breaker keeps a running count of the failures in its window, so
recording an outcome never re-sums the window.

The clock is injectable so tests drive transitions deterministically;
state changes are exported as ``reliability.breaker_state`` (0 closed,
1 open, 2 half-open) plus transition counters.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.errors import ConfigError
from repro.observability.metrics import global_metrics

#: Breaker states (the gauge exports the numeric value).
CLOSED, OPEN, HALF_OPEN = "closed", "open", "half_open"
_STATE_VALUES = {CLOSED: 0, OPEN: 1, HALF_OPEN: 2}


@dataclass(frozen=True, slots=True)
class BreakerConfig:
    """Knobs of one :class:`CircuitBreaker`."""

    window: int = 32
    failure_threshold: float = 0.5
    min_volume: int = 8
    open_duration_s: float = 5.0
    half_open_probes: int = 2

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ConfigError(f"window must be >= 1, got {self.window}")
        if not 0.0 < self.failure_threshold <= 1.0:
            raise ConfigError(
                "failure_threshold must be in (0, 1], "
                f"got {self.failure_threshold}")
        if self.min_volume < 1:
            raise ConfigError(
                f"min_volume must be >= 1, got {self.min_volume}")
        # NaN fails this comparison: a NaN window would never elapse.
        if not self.open_duration_s >= 0:
            raise ConfigError(
                f"open_duration_s must be >= 0, got {self.open_duration_s}")
        if self.half_open_probes < 1:
            raise ConfigError(
                f"half_open_probes must be >= 1, got {self.half_open_probes}")


class CircuitBreaker:
    """Thread-safe failure-rate breaker with half-open probing."""

    def __init__(self, config: BreakerConfig | None = None,
                 clock: Callable[[], float] = time.monotonic,
                 name: str = "serving"):
        self.config = config or BreakerConfig()
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._outcomes: deque[bool] = deque(maxlen=self.config.window)
        #: Failures among ``_outcomes``, kept in step with the window.
        self._failures = 0
        self._opened_at = 0.0
        self._probes_in_flight = 0
        self._probe_successes = 0
        metrics = global_metrics()
        self._m_state = metrics.gauge(f"reliability.breaker_state.{name}")
        self._m_opened = metrics.counter(f"reliability.breaker_opened.{name}")
        self._m_closed = metrics.counter(f"reliability.breaker_closed.{name}")
        self._m_state.set(_STATE_VALUES[CLOSED])

    # ------------------------------------------------------------------

    @property
    def state(self) -> str:
        with self._lock:
            self._maybe_half_open()
            return self._state

    def allow(self) -> bool:
        """May a request execute right now?

        In half-open state this *admits* a probe (bounded by
        ``half_open_probes``); the caller must report the probe's
        outcome through :meth:`record`.
        """
        with self._lock:
            self._maybe_half_open()
            if self._state == CLOSED:
                return True
            if self._state == OPEN:
                return False
            if self._probes_in_flight >= self.config.half_open_probes:
                return False
            self._probes_in_flight += 1
            return True

    def record(self, success: bool) -> None:
        """Report one executed request's outcome."""
        self.record_many((success,))

    def record_many(self, successes: Iterable[bool]) -> None:
        """Report executed requests' outcomes, in order, under one lock:
        the same transitions as one :meth:`record` per outcome."""
        with self._lock:
            for success in successes:
                self._record(success)

    # ------------------------------------------------------------------

    def _record(self, success: bool) -> None:
        # Called under the lock.
        self._maybe_half_open()
        if self._state == HALF_OPEN:
            self._probes_in_flight = max(0, self._probes_in_flight - 1)
            if success:
                self._probe_successes += 1
                if self._probe_successes >= self.config.half_open_probes:
                    self._transition(CLOSED)
            else:
                self._transition(OPEN)
            return
        if self._state == OPEN:
            # Outcome of a request admitted before the trip; it no
            # longer changes the verdict.
            return
        outcomes = self._outcomes
        if len(outcomes) == outcomes.maxlen and not outcomes[0]:
            self._failures -= 1  # the append below evicts a failure
        outcomes.append(success)
        if not success:
            self._failures += 1
        if self._trippable():
            self._transition(OPEN)

    def _trippable(self) -> bool:
        count = len(self._outcomes)
        if count < self.config.min_volume:
            return False
        return self._failures / count >= self.config.failure_threshold

    def _maybe_half_open(self) -> None:
        if (self._state == OPEN
                and self._clock() - self._opened_at
                >= self.config.open_duration_s):
            self._transition(HALF_OPEN)

    def _transition(self, state: str) -> None:
        # Called under the lock.
        self._state = state
        self._m_state.set(_STATE_VALUES[state])
        if state == OPEN:
            self._opened_at = self._clock()
            self._m_opened.inc()
        elif state == CLOSED:
            self._outcomes.clear()
            self._failures = 0
            self._m_closed.inc()
        self._probes_in_flight = 0
        self._probe_successes = 0
