"""The dynamic micro-batcher.

One daemon worker thread drains a bounded request queue in batches.
The batcher is work-conserving: as soon as the worker is free, it
takes whatever is queued, up to ``max_batch_size``, and runs it.  It
never waits for company -- a lone request on an idle worker starts at
once, and under load batches still fill because requests queue while
the previous batch executes.

The queue is bounded: a submit past ``max_queue_depth`` is rejected
immediately with :class:`~repro.errors.ServiceOverloadedError`
(backpressure -- callers see the overload instead of unbounded
latency).  :meth:`MicroBatcher.close` performs a graceful shutdown by
default: no new submits are accepted, queued work drains, then the
worker exits; with ``drain=False`` pending requests fail with
:class:`~repro.errors.ServiceClosedError` instead.  ``close`` returns
whether the worker actually finished within the timeout, so a caller
can tell a clean drain from a still-running worker whose pending
futures would otherwise hang silently.

Requests may carry a :class:`~repro.reliability.deadlines.Deadline`:
after a batch is collected -- before any executor work -- requests
whose deadline has already expired are *shed* with
:class:`~repro.errors.DeadlineExceededError`.  Shedding at
batch-collection time (rather than at submit or inside the executor)
is deliberate: it is the last instant before model time is spent, so
the single worker thread never burns a forward pass for a caller that
has stopped waiting (DESIGN.md section 12).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from typing import Any, Callable, Sequence

from repro.errors import (
    ConfigError,
    DeadlineExceededError,
    ServiceClosedError,
    ServiceOverloadedError,
)
from repro.observability.tracing import span
from repro.reliability.deadlines import Deadline
from repro.serving.stats import ServiceStats


class _Pending:
    __slots__ = ("item", "future", "enqueued_at", "deadline")

    def __init__(self, item: Any, deadline: Deadline | None = None):
        self.item = item
        self.future: Future = Future()
        self.enqueued_at = time.monotonic()
        self.deadline = deadline


class MicroBatcher:
    """Coalesces concurrent submissions into batches.

    The worker takes what is queued, up to ``max_batch_size``, the
    moment it is free; there is no batching timer.

    Parameters
    ----------
    on_batch:
        Callback receiving the list of batched items; must return one
        outcome per item, in order.  An outcome that is an exception
        instance fails that item's future; anything else resolves it.
    stats:
        The :class:`ServiceStats` fed with per-request latencies and
        rejection counts.
    max_batch_size / max_queue_depth:
        The largest batch the worker takes from the queue, and the
        backpressure limit, as described in the module docstring.
    """

    def __init__(self, on_batch: Callable[[list[Any]], Sequence[Any]],
                 stats: ServiceStats, max_batch_size: int = 32,
                 max_queue_depth: int = 256):
        if max_batch_size < 1:
            raise ConfigError(
                f"max_batch_size must be >= 1, got {max_batch_size}")
        if max_queue_depth < 1:
            raise ConfigError(
                f"max_queue_depth must be >= 1, got {max_queue_depth}")
        self._on_batch = on_batch
        self.max_batch_size = max_batch_size
        self.max_queue_depth = max_queue_depth
        self._stats = stats
        self._queue: deque[_Pending] = deque()
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._closed = False
        self._drain_on_close = True
        self._worker = threading.Thread(target=self._run,
                                        name="stress-service", daemon=True)
        self._worker.start()

    # ------------------------------------------------------------------

    def submit(self, item: Any, deadline: Deadline | None = None) -> Future:
        """Enqueue one item; returns the future of its outcome.

        ``deadline`` marks when the caller stops caring: if it expires
        while the request is still queued, the request is shed with
        :class:`DeadlineExceededError` instead of executed.
        """
        pending = _Pending(item, deadline)
        with self._lock:
            if self._closed:
                raise ServiceClosedError(
                    "service is shut down; no new requests accepted")
            if len(self._queue) >= self.max_queue_depth:
                self._stats.record_rejected()
                raise ServiceOverloadedError(
                    f"request queue is full ({self.max_queue_depth} pending); "
                    "retry later or raise max_queue_depth"
                )
            self._queue.append(pending)
            self._stats.record_submitted()
            self._wakeup.notify()
        return pending.future

    def queue_depth(self) -> int:
        with self._lock:
            return len(self._queue)

    def close(self, drain: bool = True, timeout: float | None = None) -> bool:
        """Stop the batcher.

        ``drain=True`` (graceful) processes everything already queued
        before the worker exits; ``drain=False`` fails pending futures
        with :class:`ServiceClosedError`.  Idempotent.

        Returns ``True`` when the worker has fully exited (drain
        complete, every pending future resolved) and ``False`` when it
        is still running at ``timeout`` -- in which case pending
        futures may still be unresolved and the caller should not
        assume the drain finished.
        """
        with self._lock:
            if not self._closed:
                self._closed = True
                self._drain_on_close = drain
            self._wakeup.notify_all()
        self._worker.join(timeout)
        return not self._worker.is_alive()

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    # ------------------------------------------------------------------

    def _collect_batch(self) -> list[_Pending]:
        """Block until work is queued (or the batcher is done), then
        take up to ``max_batch_size`` requests from the queue head.

        Returns an empty list when there is nothing to execute: closed
        with an empty queue, or closed with ``drain=False``, in which
        case every queued request is failed instead.
        """
        with self._lock:
            while not self._queue and not self._closed:
                self._wakeup.wait()
            if not self._closed or self._drain_on_close:
                size = min(len(self._queue), self.max_batch_size)
                return [self._queue.popleft() for __ in range(size)]
            abandoned = list(self._queue)
            self._queue.clear()
        # Failed outside the lock: set_exception runs done-callbacks
        # synchronously, and one that re-enters the batcher (submit,
        # queue_depth, closed) would otherwise deadlock the worker.
        for pending in abandoned:
            pending.future.set_exception(
                ServiceClosedError("service shut down before "
                                   "this request was processed"))
        return []

    def _shed_expired(self, batch: list[_Pending]) -> list[_Pending]:
        """Fail already-expired requests; return the still-live rest.

        Runs after collection and before ``on_batch`` -- the last
        moment before model time is spent -- and outside the queue
        lock, so a future callback can safely re-enter ``submit``.
        """
        now = time.monotonic()
        live: list[_Pending] = []
        for pending in batch:
            if pending.deadline is not None and pending.deadline.expired(now):
                self._stats.record_shed(now - pending.enqueued_at)
                pending.future.set_exception(DeadlineExceededError(
                    "deadline expired after "
                    f"{now - pending.enqueued_at:.3f}s in queue; request "
                    "shed before execution"))
            else:
                live.append(pending)
        return live

    def _run(self) -> None:
        while True:
            batch = self._collect_batch()
            if batch:
                batch = self._shed_expired(batch)
            if not batch:
                with self._lock:
                    if self._closed and not self._queue:
                        return
                continue
            started = time.monotonic()
            try:
                with span("serve.batch", size=len(batch)):
                    outcomes = self._on_batch([p.item for p in batch])
                if len(outcomes) != len(batch):  # pragma: no cover - guard
                    raise RuntimeError(
                        f"batch callback returned {len(outcomes)} outcomes "
                        f"for {len(batch)} items")
            except BaseException as exc:  # noqa: BLE001 - worker must survive
                outcomes = [exc] * len(batch)
            now = time.monotonic()
            failed = [isinstance(outcome, BaseException)
                      for outcome in outcomes]
            # Latency split: time each request sat queued before this
            # batch started vs the batch's execution time.
            self._stats.record_batch_split(
                [started - p.enqueued_at for p in batch], now - started)
            self._stats.record_completions(
                [now - p.enqueued_at for p in batch], failed)
            for pending, outcome, bad in zip(batch, outcomes, failed):
                if bad:
                    pending.future.set_exception(outcome)
                else:
                    pending.future.set_result(outcome)
