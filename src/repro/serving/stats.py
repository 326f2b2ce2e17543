"""Service counters: requests, batches, occupancy, latency quantiles.

:class:`ServiceStats` is the recorder the service calls on its hot
path; :meth:`ServiceStats.snapshot` freezes it into a
:class:`ServiceStatsSnapshot` for reporting.  Latencies are kept in
bounded windows (the most recent ``LATENCY_WINDOW`` requests), so
quantiles track current behaviour and memory stays constant under
sustained traffic.

Failed requests (fast rejects, timeouts, executor errors) are tracked
in their **own** latency window: folding them into the success
quantiles would skew p50/p95 toward whatever failure mode is current,
so the snapshot reports both distributions side by side.

Each service's counters live in one place: the ``serving.*``
instruments of its own
:class:`~repro.observability.metrics.MetricsRegistry` scope.  The
scope's parent -- the process-wide registry by default -- receives
every record too, so serving shares one reporting surface with
training and evaluation -- ``global_metrics().snapshot()`` sees it all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.observability.metrics import MetricsRegistry, global_metrics
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


class ServiceStats:
    """Thread-safe recorder and view over one service's metrics scope.

    Parameters
    ----------
    registry:
        The parent registry every record also lands in; defaults to
        the process-wide :func:`~repro.observability.metrics.global_metrics`
        registry.  Instruments are named ``serving.*``.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        scope = MetricsRegistry(
            parent=registry if registry is not None else global_metrics())
        self._requests = scope.counter("serving.requests")
        self._completed = scope.counter("serving.completed")
        self._failed = scope.counter("serving.failed")
        self._rejected = scope.counter("serving.rejected")
        self._deduplicated = scope.counter("serving.deduplicated")
        self._batches = scope.counter("serving.batches")
        self._shed = scope.counter("serving.shed")
        self._degraded = scope.counter("serving.degraded")
        self._batch_size = scope.histogram("serving.batch_size")
        self._shed_wait = scope.histogram("serving.shed_wait_s")
        self._latency = scope.histogram("serving.latency_s", LATENCY_WINDOW)
        self._failed_latency = scope.histogram("serving.failed_latency_s",
                                               LATENCY_WINDOW)
        self._queue_wait = scope.histogram("serving.queue_wait_s",
                                           LATENCY_WINDOW)
        self._execute = scope.histogram("serving.execute_s", LATENCY_WINDOW)

    def record_submitted(self) -> None:
        self._requests.inc()

    def record_rejected(self) -> None:
        self._rejected.inc()

    def record_batch(self, size: int, unique: int) -> None:
        self._batches.inc()
        self._batch_size.observe(size)
        self._deduplicated.inc(size - unique)

    def record_batch_split(self, queue_waits: list[float],
                           execute_s: float) -> None:
        """The latency split of one executed batch: per-request time
        spent queued before the batch started, and the batch's own
        execution time."""
        self._queue_wait.observe_many(queue_waits)
        self._execute.observe(execute_s)

    def record_shed(self, queued_s: float) -> None:
        """One request shed on deadline expiry after ``queued_s`` in
        queue, before any executor work."""
        self._shed.inc()
        self._shed_wait.observe(queued_s)

    def record_degraded(self) -> None:
        """One request answered cache-only while the breaker was open."""
        self._degraded.inc()

    def record_completions(self, latencies_s: Sequence[float],
                           failed: Sequence[bool]) -> None:
        """The outcomes of one batch's requests, in order:
        ``latencies_s[i]`` is request ``i``'s latency and ``failed[i]``
        whether it failed.  One ``observe_many`` per window for the
        whole batch."""
        outcomes = list(zip(latencies_s, failed))
        ok = [latency for latency, is_failed in outcomes if not is_failed]
        bad = [latency for latency, is_failed in outcomes if is_failed]
        if ok:
            self._completed.inc(len(ok))
            self._latency.observe_many(ok)
        if bad:
            self._failed.inc(len(bad))
            self._failed_latency.observe_many(bad)

    def snapshot(self, cache: dict[str, CacheStats] | None = None,
                 breaker_state: str = "closed") -> ServiceStatsSnapshot:
        # Outcomes before requests: every recorded outcome's submit was
        # recorded earlier, so completed + failed <= requests holds
        # even while recorders run.
        completed, failed = self._completed.value, self._failed.value
        latency = self._latency.snapshot()
        failed_latency = self._failed_latency.snapshot()
        queue_wait = self._queue_wait.snapshot()
        execute = self._execute.snapshot()
        return ServiceStatsSnapshot(
            requests=self._requests.value,
            completed=completed,
            failed=failed,
            rejected=self._rejected.value,
            deduplicated=self._deduplicated.value,
            batches=self._batches.value,
            mean_batch_occupancy=self._batch_size.snapshot().mean,
            latency_p50_s=latency.p50,
            latency_p95_s=latency.p95,
            cache=dict(cache or {}),
            failed_latency_p50_s=failed_latency.p50,
            failed_latency_p95_s=failed_latency.p95,
            queue_wait_p50_s=queue_wait.p50,
            queue_wait_p95_s=queue_wait.p95,
            execute_p50_s=execute.p50,
            execute_p95_s=execute.p95,
            shed=self._shed.value,
            degraded=self._degraded.value,
            breaker_state=breaker_state,
        )
