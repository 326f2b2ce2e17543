"""Service counters: requests, batches, occupancy, latency quantiles.

:class:`ServiceStats` is the mutable, thread-safe accumulator the
service updates on its hot path; :meth:`ServiceStats.snapshot` freezes
it into a :class:`ServiceStatsSnapshot` for reporting.  Latencies are
kept in a bounded ring (the most recent ``LATENCY_WINDOW`` requests),
so quantiles track current behaviour and memory stays constant under
sustained traffic.

Failed requests (fast rejects, timeouts, executor errors) are tracked
in their **own** latency window: folding them into the success
quantiles would skew p50/p95 toward whatever failure mode is current,
so the snapshot reports both distributions side by side.

Every counter is also folded into the process-wide
:class:`~repro.observability.metrics.MetricsRegistry` (``serving.*``
names), so serving shares one reporting surface with training and
evaluation -- ``global_metrics().snapshot()`` sees it all.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field

from repro.observability.metrics import (
    MetricsRegistry,
    global_metrics,
    nearest_rank_quantile,
)
from repro.serving.cache import CacheStats

#: How many recent request latencies feed the p50/p95 estimates.
LATENCY_WINDOW: int = 4096


@dataclass(frozen=True, slots=True)
class ServiceStatsSnapshot:
    """A point-in-time view of one service's counters."""

    requests: int
    completed: int
    failed: int
    rejected: int
    deduplicated: int
    batches: int
    mean_batch_occupancy: float
    latency_p50_s: float
    latency_p95_s: float
    cache: dict[str, CacheStats] = field(default_factory=dict)
    #: Requests shed at batch-collection time because their deadline
    #: had expired (no executor work was spent on them).  Disjoint from
    #: ``completed``/``failed``.
    shed: int = 0
    #: Requests answered from cache alone while the circuit breaker
    #: was open (their results carry ``degraded=True``).
    degraded: int = 0
    #: Executor retry attempts performed beyond first tries.
    retries: int = 0
    #: Circuit breaker state at snapshot time ("closed" when no
    #: breaker is configured).
    breaker_state: str = "closed"
    #: Quantiles of the *failed*-request latency window (0.0 when no
    #: failure has been recorded) -- kept out of latency_p50/p95_s.
    failed_latency_p50_s: float = 0.0
    failed_latency_p95_s: float = 0.0
    #: The queue-wait vs execute split of request latency: how long
    #: requests sat queued before their batch started, and how long
    #: batch execution itself took.
    queue_wait_p50_s: float = 0.0
    queue_wait_p95_s: float = 0.0
    execute_p50_s: float = 0.0
    execute_p95_s: float = 0.0

    @property
    def cache_hit_rate(self) -> float:
        """Aggregate hit rate across all stage caches."""
        hits = sum(s.hits for s in self.cache.values())
        misses = sum(s.misses for s in self.cache.values())
        total = hits + misses
        return hits / total if total else 0.0


class ServiceStats:
    """Thread-safe accumulator for the serving counters.

    Parameters
    ----------
    registry:
        The metrics registry the counters are folded into; defaults to
        the process-wide :func:`~repro.observability.metrics.global_metrics`
        registry.  Instruments are named ``serving.*``.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self._lock = threading.Lock()
        self._requests = 0
        self._completed = 0
        self._failed = 0
        self._rejected = 0
        self._deduplicated = 0
        self._batches = 0
        self._occupancy_sum = 0
        self._latencies: deque[float] = deque(maxlen=LATENCY_WINDOW)
        self._failed_latencies: deque[float] = deque(maxlen=LATENCY_WINDOW)
        self._queue_waits: deque[float] = deque(maxlen=LATENCY_WINDOW)
        self._executes: deque[float] = deque(maxlen=LATENCY_WINDOW)
        registry = registry if registry is not None else global_metrics()
        self._m_requests = registry.counter("serving.requests")
        self._m_completed = registry.counter("serving.completed")
        self._m_failed = registry.counter("serving.failed")
        self._m_rejected = registry.counter("serving.rejected")
        self._m_deduplicated = registry.counter("serving.deduplicated")
        self._m_batches = registry.counter("serving.batches")
        self._m_batch_size = registry.histogram("serving.batch_size")
        self._m_latency = registry.histogram("serving.latency_s")
        self._m_failed_latency = registry.histogram("serving.failed_latency_s")
        self._m_queue_wait = registry.histogram("serving.queue_wait_s")
        self._m_execute = registry.histogram("serving.execute_s")
        self._shed = 0
        self._degraded = 0
        self._retries = 0
        self._m_shed = registry.counter("serving.shed")
        self._m_shed_wait = registry.histogram("serving.shed_wait_s")
        self._m_degraded = registry.counter("serving.degraded")
        self._m_retries = registry.counter("serving.retries")

    def record_submitted(self) -> None:
        with self._lock:
            self._requests += 1
        self._m_requests.inc()

    def record_rejected(self) -> None:
        with self._lock:
            self._rejected += 1
        self._m_rejected.inc()

    def record_batch(self, size: int, unique: int) -> None:
        with self._lock:
            self._batches += 1
            self._occupancy_sum += size
            self._deduplicated += size - unique
        self._m_batches.inc()
        self._m_batch_size.observe(size)
        self._m_deduplicated.inc(size - unique)

    def record_batch_split(self, queue_waits: list[float],
                           execute_s: float) -> None:
        """The latency split of one executed batch: per-request time
        spent queued before the batch started, and the batch's own
        execution time."""
        with self._lock:
            self._queue_waits.extend(queue_waits)
            self._executes.append(execute_s)
        self._m_queue_wait.observe_many(queue_waits)
        self._m_execute.observe(execute_s)

    @property
    def batches(self) -> int:
        """Batches executed so far (names the retry jitter stream)."""
        with self._lock:
            return self._batches

    def record_shed(self, queued_s: float) -> None:
        """One request shed on deadline expiry after ``queued_s`` in
        queue, before any executor work."""
        with self._lock:
            self._shed += 1
        self._m_shed.inc()
        self._m_shed_wait.observe(queued_s)

    def record_degraded(self) -> None:
        """One request answered cache-only while the breaker was open."""
        with self._lock:
            self._degraded += 1
        self._m_degraded.inc()

    def record_retries(self, attempts: int) -> None:
        """``attempts`` executor retries performed beyond first tries."""
        if attempts <= 0:
            return
        with self._lock:
            self._retries += attempts
        self._m_retries.inc(attempts)

    def record_completion(self, latency_s: float, failed: bool) -> None:
        with self._lock:
            if failed:
                self._failed += 1
                self._failed_latencies.append(latency_s)
            else:
                self._completed += 1
                self._latencies.append(latency_s)
        if failed:
            self._m_failed.inc()
            self._m_failed_latency.observe(latency_s)
        else:
            self._m_completed.inc()
            self._m_latency.observe(latency_s)

    def snapshot(self, cache: dict[str, CacheStats] | None = None,
                 breaker_state: str = "closed") -> ServiceStatsSnapshot:
        with self._lock:
            ordered = sorted(self._latencies)
            failed_ordered = sorted(self._failed_latencies)
            waits = sorted(self._queue_waits)
            executes = sorted(self._executes)
            occupancy = (self._occupancy_sum / self._batches
                         if self._batches else 0.0)
            return ServiceStatsSnapshot(
                requests=self._requests,
                completed=self._completed,
                failed=self._failed,
                rejected=self._rejected,
                deduplicated=self._deduplicated,
                batches=self._batches,
                mean_batch_occupancy=occupancy,
                latency_p50_s=nearest_rank_quantile(ordered, 0.50),
                latency_p95_s=nearest_rank_quantile(ordered, 0.95),
                cache=dict(cache or {}),
                failed_latency_p50_s=nearest_rank_quantile(
                    failed_ordered, 0.50),
                failed_latency_p95_s=nearest_rank_quantile(
                    failed_ordered, 0.95),
                queue_wait_p50_s=nearest_rank_quantile(waits, 0.50),
                queue_wait_p95_s=nearest_rank_quantile(waits, 0.95),
                execute_p50_s=nearest_rank_quantile(executes, 0.50),
                execute_p95_s=nearest_rank_quantile(executes, 0.95),
                shed=self._shed,
                degraded=self._degraded,
                retries=self._retries,
                breaker_state=breaker_state,
            )
