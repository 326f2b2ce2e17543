"""Process-wide metrics: counters, gauges, bounded-window histograms.

One :class:`MetricsRegistry` is the shared reporting surface of the
whole system -- serving (each :class:`~repro.serving.stats.ServiceStats`
is a scope whose instruments also record here), training (stage
outcomes, DPO pair counts), and evaluation (fold timings) all publish
here, so one ``global_metrics().snapshot()`` shows everything the
process did.

Semantics follow the usual time-series conventions:

- a **Counter** only increases (requests served, pairs accepted);
- a **Gauge** is a last-write-wins scalar (queue depth, stage loss);
- a **Histogram** keeps a bounded window of recent observations (the
  most recent ``window`` values) plus lifetime count/sum, so quantiles
  track current behaviour and memory stays constant.

Everything is thread-safe, and :meth:`MetricsRegistry.snapshot` is
**isolated**: it deep-copies all values under the instruments' locks,
so a snapshot never mutates under the reader while recorders keep
hammering the registry (covered by the concurrency tests).

Instruments are cheap enough for hot paths (one lock acquisition), but
unlike tracing they are *always on* -- callers that need true zero
cost when idle should guard on :func:`repro.observability.tracing.enabled`.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass, field


def nearest_rank_quantile(ordered: list[float], q: float) -> float:
    """Nearest-rank quantile of an already-sorted sample.

    The rank is ``ceil(q * (n - 1))``: a fractional rank always
    resolves *upward*, so on exact ``.5`` boundaries (even windows)
    the upper sample is picked and quantiles never understate latency.
    (Banker's-rounding ``round()`` would pick the lower rank there --
    the bug this rule replaces.)  Edge cases: ``n == 1`` returns the
    only sample; ``q == 0`` the minimum; ``q == 1`` the maximum.
    """
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, max(0, math.ceil(q * (len(ordered) - 1))))
    return ordered[rank]


#: Default histogram window (matches the serving latency window).
HISTOGRAM_WINDOW: int = 4096


class Counter:
    """A monotonically increasing integer; every increment is also
    applied to ``parent`` (a scoped registry's link, see
    :class:`MetricsRegistry`)."""

    __slots__ = ("name", "_value", "_lock", "_parent")

    def __init__(self, name: str, parent: "Counter | None" = None):
        self.name = name
        self._value = 0
        self._lock = threading.Lock()
        self._parent = parent

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount
        if self._parent is not None:
            self._parent.inc(amount)

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """A last-write-wins scalar."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


@dataclass(frozen=True, slots=True)
class HistogramSnapshot:
    """Frozen view of one histogram: lifetime count/sum plus
    window-based order statistics."""

    count: int
    total: float
    p50: float
    p95: float
    max: float

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class Histogram:
    """Bounded-window histogram of float observations; every
    observation is also applied to ``parent``."""

    __slots__ = ("name", "_window", "_count", "_sum", "_lock", "_parent")

    def __init__(self, name: str, window: int = HISTOGRAM_WINDOW,
                 parent: "Histogram | None" = None):
        self.name = name
        self._window: deque[float] = deque(maxlen=window)
        self._count = 0
        self._sum = 0.0
        self._lock = threading.Lock()
        self._parent = parent

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._window.append(value)
            self._count += 1
            self._sum += value
        if self._parent is not None:
            self._parent.observe(value)

    def observe_many(self, values: list[float]) -> None:
        with self._lock:
            for value in values:
                value = float(value)
                self._window.append(value)
                self._count += 1
                self._sum += value
        if self._parent is not None:
            self._parent.observe_many(values)

    def snapshot(self) -> HistogramSnapshot:
        with self._lock:
            ordered = sorted(self._window)
            return HistogramSnapshot(
                count=self._count,
                total=self._sum,
                p50=nearest_rank_quantile(ordered, 0.50),
                p95=nearest_rank_quantile(ordered, 0.95),
                max=ordered[-1] if ordered else 0.0,
            )


@dataclass(frozen=True, slots=True)
class MetricsSnapshot:
    """A point-in-time, fully-copied view of one registry."""

    counters: dict[str, int] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, HistogramSnapshot] = field(default_factory=dict)


class MetricsRegistry:
    """Thread-safe name -> instrument map with get-or-create access.

    A registry made with a ``parent`` is a **scope**: its counters and
    histograms keep their own values and also record into the parent's
    instrument of the same name (created on first use), so the parent
    reads the sum of its scopes.  One service's stats are such a scope
    over the process-wide registry.
    """

    def __init__(self, parent: "MetricsRegistry | None" = None) -> None:
        self._parent = parent
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                parent = (self._parent.counter(name)
                          if self._parent is not None else None)
                instrument = self._counters[name] = Counter(name, parent)
            return instrument

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = self._gauges[name] = Gauge(name)
            return instrument

    def histogram(self, name: str,
                  window: int = HISTOGRAM_WINDOW) -> Histogram:
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                parent = (self._parent.histogram(name)
                          if self._parent is not None else None)
                instrument = self._histograms[name] = Histogram(
                    name, window, parent)
            return instrument

    def snapshot(self) -> MetricsSnapshot:
        """An isolated copy of every instrument's current value."""
        with self._lock:
            counters = list(self._counters.values())
            gauges = list(self._gauges.values())
            histograms = list(self._histograms.values())
        return MetricsSnapshot(
            counters={c.name: c.value for c in counters},
            gauges={g.name: g.value for g in gauges},
            histograms={h.name: h.snapshot() for h in histograms},
        )

    def reset(self) -> None:
        """Drop every instrument (tests; never on a live service)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


#: The process-wide registry every subsystem publishes into.
_GLOBAL = MetricsRegistry()


def global_metrics() -> MetricsRegistry:
    """The shared process-wide :class:`MetricsRegistry`."""
    return _GLOBAL
