"""Micro-batcher shutdown edge cases.

The shutdown contract: ``close`` returns ``True`` iff the worker fully
exited (so every pending future is resolved), it is idempotent under
concurrent callers, ``drain=False`` fails queued-but-unstarted work
with :class:`ServiceClosedError` while letting the mid-flight batch
finish, and the worker survives a ``BaseException`` escaping the batch
callback instead of dying with futures still pending.
"""

import threading
import time

import pytest

from repro.errors import ServiceClosedError, ServiceOverloadedError
from repro.observability.metrics import MetricsRegistry
from repro.serving.batcher import MicroBatcher
from repro.serving.stats import ServiceStats


def _stats() -> ServiceStats:
    """Batcher counters over a private registry, off the global one."""
    return ServiceStats(registry=MetricsRegistry())


class BlockingBatch:
    """A batch callback that parks the worker until released."""

    def __init__(self):
        self.started = threading.Event()
        self.release = threading.Event()
        self.batches: list[list] = []

    def __call__(self, items):
        self.batches.append(list(items))
        self.started.set()
        assert self.release.wait(timeout=10), "test forgot to release worker"
        return [item * 2 for item in items]


class TestCloseReturnValue:
    def test_clean_drain_returns_true(self):
        batcher = MicroBatcher(lambda items: [i * 2 for i in items],
                               _stats())
        future = batcher.submit(21)
        assert batcher.close(timeout=5) is True
        assert future.result(timeout=0) == 42

    def test_timed_out_close_returns_false_then_true(self):
        blocker = BlockingBatch()
        batcher = MicroBatcher(blocker, _stats())
        future = batcher.submit(1)
        assert blocker.started.wait(timeout=5)
        # Worker is parked inside on_batch: a short-timeout close must
        # say so instead of pretending the drain finished.
        assert batcher.close(drain=True, timeout=0.05) is False
        assert not future.done()
        blocker.release.set()
        assert batcher.close(timeout=5) is True
        assert future.result(timeout=0) == 2

    def test_close_idempotent(self):
        batcher = MicroBatcher(lambda items: list(items), _stats())
        assert batcher.close(timeout=5) is True
        assert batcher.close(timeout=5) is True


class TestDrainFalseRace:
    def test_mid_flight_batch_finishes_queued_work_fails(self):
        blocker = BlockingBatch()
        batcher = MicroBatcher(blocker, _stats(), max_batch_size=1)
        in_flight = batcher.submit(1)
        assert blocker.started.wait(timeout=5)
        queued = [batcher.submit(2), batcher.submit(3)]

        closed = batcher.close(drain=False, timeout=0.05)
        assert closed is False  # worker still parked in the batch
        blocker.release.set()
        assert batcher.close(timeout=5) is True

        # The batch already handed to on_batch completed normally...
        assert in_flight.result(timeout=0) == 2
        # ...but the queued-not-started requests were failed fast.
        for future in queued:
            with pytest.raises(ServiceClosedError):
                future.result(timeout=0)
        # on_batch never saw the abandoned items.
        assert blocker.batches == [[1]]

    def test_reentrant_callback_on_failed_future(self):
        """A done-callback on an abandoned future may re-enter the
        batcher: the worker fails those futures outside its lock."""
        blocker = BlockingBatch()
        batcher = MicroBatcher(blocker, _stats(), max_batch_size=1)
        in_flight = batcher.submit(1)
        assert blocker.started.wait(timeout=5)
        queued = batcher.submit(2)
        seen = []
        queued.add_done_callback(
            lambda future: seen.append((batcher.queue_depth(),
                                        batcher.closed)))

        assert batcher.close(drain=False, timeout=0.05) is False
        blocker.release.set()
        assert batcher.close(drain=False, timeout=3) is True

        assert in_flight.result(timeout=0) == 2
        with pytest.raises(ServiceClosedError):
            queued.result(timeout=0)
        assert seen == [(0, True)]

    def test_submit_after_close_rejected(self):
        batcher = MicroBatcher(lambda items: list(items), _stats())
        batcher.close(timeout=5)
        with pytest.raises(ServiceClosedError):
            batcher.submit(1)


class TestConcurrentClose:
    def test_concurrent_submitters_and_closers(self):
        batcher = MicroBatcher(
            lambda items: [time.sleep(0.0005) or i * 2 for i in items],
            _stats(),
            max_batch_size=4, max_queue_depth=64)
        futures, futures_lock = [], threading.Lock()
        stop_submitting = threading.Event()

        def submitter(offset):
            for i in range(50):
                if stop_submitting.is_set():
                    return
                try:
                    future = batcher.submit(offset * 1000 + i)
                except (ServiceClosedError, ServiceOverloadedError):
                    continue
                with futures_lock:
                    futures.append((offset * 1000 + i, future))

        close_results = []

        def closer():
            time.sleep(0.01)
            close_results.append(batcher.close(drain=True, timeout=10))
            stop_submitting.set()

        threads = [threading.Thread(target=submitter, args=(n,))
                   for n in range(6)]
        threads += [threading.Thread(target=closer) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()

        # Both closes completed the drain; every accepted future
        # resolved to its result -- none hung, none was dropped.
        assert close_results == [True, True]
        assert futures  # the race actually admitted some work
        for item, future in futures:
            assert future.result(timeout=0) == item * 2


class TestWorkerSurvival:
    def test_base_exception_fails_batch_not_worker(self):
        calls = []

        def fragile(items):
            calls.append(list(items))
            if len(calls) == 1:
                raise KeyboardInterrupt("operator ctrl-C mid-batch")
            return [i * 2 for i in items]

        batcher = MicroBatcher(fragile, _stats(), max_batch_size=2)
        first = batcher.submit(1)
        assert isinstance(first.exception(timeout=5), KeyboardInterrupt)
        # The worker survived: the next request is served normally.
        second = batcher.submit(5)
        assert second.result(timeout=5) == 10
        assert batcher.close(timeout=5) is True

