"""The online stress-detection service.

:class:`StressService` is the deployment front of the library: it
accepts concurrent ``predict`` requests, coalesces them through the
dynamic micro-batcher into the :class:`ChainBatchExecutor`, and
returns full :class:`~repro.cot.chain.ChainResult` objects -- label,
probability, *and* the rationale chain, because a served prediction
without its reasoning would break the paper's interpretability
contract.

Usage::

    service = StressService(StressChainPipeline(model))
    try:
        result = service.predict(video)                  # blocking
        future = service.submit(other_video,
                                deadline_ms=50.0)        # async + deadline
        print(service.stats())
    finally:
        service.close()                                  # graceful drain

Guarantees:

- responses are bitwise-identical to serial ``pipeline.predict`` (the
  serving equivalence suite enforces this per request);
- the queue is bounded -- submits past ``max_queue_depth`` raise
  :class:`~repro.errors.ServiceOverloadedError` instead of growing
  latency without bound;
- a request whose ``deadline_ms`` expires while queued is shed with
  :class:`~repro.errors.DeadlineExceededError` *before* any model
  work is spent on it;
- transient executor failures (:class:`~repro.errors.TransientError`)
  are retried per-request with seeded exponential backoff; sustained
  failure trips a circuit breaker that fails fast (or serves
  cache-only hits flagged ``degraded=True``) instead of hammering a
  broken executor;
- ``close()`` drains in-flight work before returning and reports
  whether the drain actually completed;
- the service only reads the pipeline's weights, so it may serve a
  pipeline other threads also read -- which must not be trained while
  it serves (DESIGN.md section 10).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.errors import CircuitOpenError, ConfigError
from repro.observability.metrics import global_metrics
from repro.reliability.breaker import CLOSED, BreakerConfig, CircuitBreaker
from repro.reliability.deadlines import Deadline
from repro.reliability.retry import RetryPolicy, is_retryable
from repro.serving.batcher import MicroBatcher
from repro.serving.executor import ChainBatchExecutor
from repro.serving.stats import ServiceStats, ServiceStatsSnapshot
from repro.video.frame import Video


@dataclass(frozen=True, slots=True)
class ServiceConfig:
    """Knobs of one :class:`StressService`.

    ``max_batch_size`` caps the micro-batches: the worker takes what
    is queued, up to ``max_batch_size``, as soon as it is free, with
    no batching timer; ``max_queue_depth`` is the backpressure limit;
    ``cache_capacity`` sizes the LRU of chain results (0 disables
    it).

    Deadlines, retry and the breaker default *off*, so the hot path
    runs none of them unless a deployment opts in:
    ``default_deadline_ms`` attaches a deadline to every submit that
    does not bring its own; ``retry_policy`` retries transient
    per-request executor failures with seeded backoff; ``breaker``
    trips on sustained failure.  ``degraded_mode`` (on by default, and
    only read once a breaker is open) lets an open breaker serve
    cache-only hits (flagged ``degraded=True``) instead of failing
    everything fast.
    """

    max_batch_size: int = 32
    max_queue_depth: int = 256
    cache_capacity: int = 4096
    default_deadline_ms: float | None = None
    retry_policy: RetryPolicy | None = None
    breaker: BreakerConfig | None = None
    degraded_mode: bool = True

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ConfigError(
                f"max_batch_size must be >= 1, got {self.max_batch_size}")
        if self.max_queue_depth < 1:
            raise ConfigError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}")
        if self.cache_capacity < 0:
            raise ConfigError(
                f"cache_capacity must be >= 0, got {self.cache_capacity}")
        if (self.default_deadline_ms is not None
                and not self.default_deadline_ms > 0):
            raise ConfigError(
                "default_deadline_ms must be positive, "
                f"got {self.default_deadline_ms}")


class StressService:
    """Concurrent serving front-end over one chain pipeline."""

    def __init__(self, pipeline, config: ServiceConfig | None = None):
        config = config or ServiceConfig()
        self._setup(ChainBatchExecutor(pipeline, config.cache_capacity),
                    config)

    @classmethod
    def _over(cls, executor, config: ServiceConfig) -> "StressService":
        """A service over a ready executor: a
        :class:`ChainBatchExecutor`, such as a forked replica's
        subclass of it."""
        service = cls.__new__(cls)
        service._setup(executor, config)
        return service

    def _setup(self, executor, config: ServiceConfig) -> None:
        self.config = config
        self.executor = executor
        # Held by the worker for the span of each batch's execution;
        # swap_pipeline() acquires it to wait out the in-flight batch.
        self._swap_lock = threading.Lock()
        self._stats = ServiceStats()
        self._breaker = (CircuitBreaker(config.breaker)
                         if config.breaker is not None else None)
        self._batcher = MicroBatcher(
            self._process_batch, self._stats,
            max_batch_size=config.max_batch_size,
            max_queue_depth=config.max_queue_depth,
        )

    @property
    def breaker(self) -> CircuitBreaker | None:
        return self._breaker

    # ------------------------------------------------------------------

    def submit(self, video: Video, deadline_ms: float | None = None):
        """Enqueue one request; returns a ``Future[ChainResult]``.

        ``deadline_ms`` bounds how long the caller will wait: a request
        still queued when its deadline expires is shed with
        :class:`~repro.errors.DeadlineExceededError` before execution
        (falls back to ``config.default_deadline_ms`` when ``None``).

        Raises
        ------
        ServiceOverloadedError
            If the queue already holds ``max_queue_depth`` requests.
        ServiceClosedError
            If the service has been closed.
        """
        if deadline_ms is None:
            deadline_ms = self.config.default_deadline_ms
        deadline = (Deadline.after_ms(deadline_ms)
                    if deadline_ms is not None else None)
        return self._batcher.submit(video, deadline=deadline)

    def predict(self, video: Video, timeout: float | None = None,
                deadline_ms: float | None = None):
        """Blocking predict: submit and wait for the result."""
        return self.submit(video, deadline_ms=deadline_ms).result(timeout)

    def stats(self) -> ServiceStatsSnapshot:
        """Current service counters (see :class:`ServiceStatsSnapshot`)."""
        breaker_state = (self._breaker.state
                         if self._breaker is not None else CLOSED)
        return self._stats.snapshot(self.executor.cache_stats(),
                                    breaker_state=breaker_state)

    def queue_depth(self) -> int:
        return self._batcher.queue_depth()

    def swap_pipeline(self, pipeline, loaded=None) -> None:
        """Hot-swap the served pipeline without dropping requests.

        Blocks until the in-flight batch (if any) finishes, then
        points the executor at ``pipeline`` -- a pipeline, or the path
        of a saved pipeline archive -- and clears the chain cache
        (cached results are only valid for the pipeline that produced
        them).  ``loaded`` is that path already loaded: a pool loads a
        deploy's artifact once and hands every replica the one copy.
        Queued requests are untouched -- they simply
        execute against the new pipeline once the swap completes -- so
        a deploy fails zero in-flight requests.
        """
        with self._swap_lock:
            self.executor.swap(pipeline, loaded)

    @property
    def closed(self) -> bool:
        return self._batcher.closed

    def close(self, drain: bool = True, timeout: float | None = None) -> bool:
        """Shut down; with ``drain=True`` (default) queued requests
        finish first, with ``drain=False`` they fail fast.

        Returns ``True`` when the worker fully drained and exited
        within ``timeout``; ``False`` means it is still running and
        pending futures may remain unresolved (see
        :meth:`MicroBatcher.close`).
        """
        drained = self._batcher.close(drain=drain, timeout=timeout)
        self.executor.close()
        return drained

    def __enter__(self) -> "StressService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------

    def _process_batch(self, videos: list[Video]) -> list[object]:
        with self._swap_lock:
            if self._breaker is not None and not self._breaker.allow():
                outcomes: list[object] = self._degraded_outcomes(videos)
                unique = len(videos)
            else:
                outcomes, unique = self._execute(videos)
                if self._breaker is not None:
                    self._breaker.record_many(
                        not isinstance(outcome, BaseException)
                        for outcome in outcomes)
        self._stats.record_batch(size=len(videos), unique=unique)
        # Live backlog signal, refreshed once per batch (not per
        # request -- the gauge is a sampling surface, not a counter).
        global_metrics().gauge("serving.queue_depth").set(
            self._batcher.queue_depth())
        return outcomes

    def _execute(self, videos: list[Video]) -> tuple[list[object], int]:
        """One batch through the executor, retrying transient
        per-request failures under the configured policy."""
        outcomes, unique = self.executor.run_batch(videos)
        policy = self.config.retry_policy
        if policy is None:
            return outcomes, unique
        delays = policy.delays_s(scope=f"batch:{self._stats.batches}")
        for attempt, delay_s in enumerate(delays, start=1):
            retry_idx = [i for i, outcome in enumerate(outcomes)
                         if isinstance(outcome, BaseException)
                         and is_retryable(outcome)]
            if not retry_idx:
                break
            self._stats.record_retries(len(retry_idx))
            # The worker thread sleeps the backoff; the whole queue
            # waits with it, which is the point -- a transient fault
            # needs breathing room, not a hot retry loop.
            if delay_s > 0:
                time.sleep(delay_s)
            retried, __ = self.executor.run_batch(
                [videos[i] for i in retry_idx])
            for i, outcome in zip(retry_idx, retried):
                outcomes[i] = outcome
        return outcomes, unique

    def _degraded_outcomes(self, videos: list[Video]) -> list[object]:
        """Breaker-open answers: cache-only hits when degraded mode is
        on, :class:`CircuitOpenError` otherwise."""
        outcomes: list[object] = []
        for video in videos:
            result = None
            if self.config.degraded_mode:
                try:
                    result = self.executor.run_cached(video)
                except Exception:  # noqa: BLE001 - cache fault -> miss
                    result = None
            if result is not None:
                self._stats.record_degraded()
                outcomes.append(result)
            else:
                outcomes.append(CircuitOpenError(
                    "circuit breaker is open and the request is not "
                    "fully cached; retry after the breaker's open window"))
        return outcomes

