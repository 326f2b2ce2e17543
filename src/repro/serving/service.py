"""The online stress-detection service.

:class:`StressService` is the deployment front of the library: it
accepts concurrent ``predict`` requests, answers those whose chain
result is cached inside ``submit``, coalesces the rest through the
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
- a chain-cache hit is answered in the caller's thread while the
  circuit breaker (if any) is closed: ``submit`` returns its future
  already resolved, so a warm clip never waits behind a batch;
- the queue is bounded -- misses submitted past ``max_queue_depth``
  raise :class:`~repro.errors.ServiceOverloadedError` instead of
  growing latency without bound (a hit takes no queue slot);
- a request whose ``deadline_ms`` expires while queued is shed with
  :class:`~repro.errors.DeadlineExceededError` *before* any model
  work is spent on it;
- a request that fails in the executor fails alone, with its own
  error, never its batch; sustained failure trips a circuit breaker
  that fails fast (or serves cache-only hits flagged
  ``degraded=True``) instead of hammering a broken executor;
- ``close()`` drains in-flight work before returning and reports
  whether the drain actually completed;
- the service only reads the pipeline's weights, so it may serve a
  pipeline other threads also read -- which must not be trained while
  it serves (DESIGN.md section 10).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass

from repro.errors import CircuitOpenError, ConfigError, ServiceClosedError
from repro.observability.metrics import global_metrics
from repro.reliability.breaker import CLOSED, BreakerConfig, CircuitBreaker
from repro.reliability.deadlines import Deadline
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

    Deadlines and the breaker default *off*, so the hot path runs
    neither unless a deployment opts in: ``default_deadline_ms``
    attaches a deadline to every submit that does not bring its own;
    ``breaker`` trips on sustained failure.  ``degraded_mode`` (on by
    default, and only read once a breaker is open) lets an open
    breaker serve cache-only hits (flagged ``degraded=True``) instead
    of failing everything fast.
    """

    max_batch_size: int = 32
    max_queue_depth: int = 256
    cache_capacity: int = 4096
    default_deadline_ms: float | None = None
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
        """Answer or enqueue one request; returns a
        ``Future[ChainResult]``.

        While the breaker is absent or closed, a chain-cache hit is
        answered here, in the caller's thread: the returned future is
        already resolved (with the hit's error if an injected
        ``serve.execute`` fault fails it).  Everything else -- a miss,
        a request whose key cannot be computed, any request while the
        breaker is open or half-open -- is enqueued for a batch.

        ``deadline_ms`` bounds how long the caller will wait: a request
        still queued when its deadline expires is shed with
        :class:`~repro.errors.DeadlineExceededError` before execution
        (falls back to ``config.default_deadline_ms`` when ``None``).
        A hit never queues, so it is never shed.

        Raises
        ------
        ServiceOverloadedError
            If the request must queue and the queue already holds
            ``max_queue_depth`` requests.
        ServiceClosedError
            If the service has been closed.
        """
        if deadline_ms is None:
            deadline_ms = self.config.default_deadline_ms
        deadline = (Deadline.after_ms(deadline_ms)
                    if deadline_ms is not None else None)
        # A closed breaker's allow() has no side effect, so a hit may
        # skip it; an open or half-open one decides in the batch.
        breaker = self._breaker
        if breaker is None or breaker.state == CLOSED:
            future = self._answer_hit(video)
            if future is not None:
                return future
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

    def _answer_hit(self, video: Video) -> Future | None:
        """A warm clip's already-resolved future, answered in the
        caller's thread, or ``None`` when the request needs a batch.

        It records what a batch records for a hit: the submit, one
        completion, and the breaker outcome (an injected
        ``serve.execute`` fault fails the future).  It takes no swap
        lock, which a whole miss batch holds: a swap clears the cache
        before :meth:`swap_pipeline` returns, so no hit after it
        answers from the old pipeline.
        """
        if self._batcher.closed:
            raise ServiceClosedError(
                "service is shut down; no new requests accepted")
        started = time.monotonic()
        try:
            outcome = self.executor.run_hit(video)
        except Exception as exc:  # noqa: BLE001 - fails this request alone
            outcome = exc
        if outcome is None:
            return None
        failed = isinstance(outcome, BaseException)
        if self._breaker is not None:
            self._breaker.record(not failed)
        self._stats.record_submitted()
        self._stats.record_completions([time.monotonic() - started],
                                       [failed])
        future: Future = Future()
        if failed:
            future.set_exception(outcome)
        else:
            future.set_result(outcome)
        return future

    def _process_batch(self, videos: list[Video]) -> list[object]:
        with self._swap_lock:
            if self._breaker is not None and not self._breaker.allow():
                outcomes: list[object] = self._degraded_outcomes(videos)
                unique = len(videos)
            else:
                outcomes, unique = self.executor.run_batch(videos)
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

    def _degraded_outcomes(self, videos: list[Video]) -> list[object]:
        """Breaker-open answers: cache-only hits when degraded mode is
        on, :class:`CircuitOpenError` otherwise."""
        outcomes: list[object] = []
        for video in videos:
            result = None
            if self.config.degraded_mode:
                try:
                    result = self.executor.run_cached(video)
                except Exception:  # noqa: BLE001 - per-request failure
                    # A request whose key cannot be computed (not a
                    # clip) gets the breaker's error, not its batch.
                    result = None
            if result is not None:
                self._stats.record_degraded()
                outcomes.append(result)
            else:
                outcomes.append(CircuitOpenError(
                    "circuit breaker is open and the request is not "
                    "fully cached; retry after the breaker's open window"))
        return outcomes

