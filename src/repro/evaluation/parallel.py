"""The fork map that training's SLIC prefetch fans out over.

:func:`parallel_map` deals items round-robin to forked children.
Children inherit the parent's memory image, so arbitrary closures run
without being picklable; only *results* cross the process boundary.
Results come back in item order, so the output equals the serial
loop's whatever the worker count.  With one worker, or without
``os.fork``, it is that loop.

Cross-validation folds do not come through here: ``cross_validate``
runs them one after another in the calling process.

Worker count resolution: an explicit ``num_workers`` argument wins,
then the ``REPRO_NUM_WORKERS`` environment variable (read through
:func:`repro.config.settings`), then the machine's CPU count.
"""

from __future__ import annotations

import os
import pickle
import signal
import tempfile
import traceback
from collections.abc import Callable, Sequence
from typing import Any, TypeVar

from repro.config import NUM_WORKERS_ENV, settings
from repro.errors import ConfigError
from repro.observability import tracing

T = TypeVar("T")

__all__ = [
    "NUM_WORKERS_ENV",
    "parallel_map",
    "resolve_num_workers",
]


def resolve_num_workers(num_workers: int | None = None) -> int:
    """Pick the worker count: explicit argument, then the
    ``REPRO_NUM_WORKERS`` environment variable, then the CPU count."""
    if num_workers is None:
        num_workers = settings().num_workers
        if num_workers is None:
            num_workers = os.cpu_count() or 1
    if num_workers < 1:
        raise ConfigError(f"num_workers must be positive, got {num_workers}")
    return num_workers


def parallel_map(
    fn: Callable[[Any], T],
    items: Sequence[Any],
    num_workers: int | None = None,
) -> list[T]:
    """Apply ``fn`` to every item, in forked children when there are
    at least two workers and ``os.fork`` exists, else in a loop.

    Results come back in item order regardless of completion order.
    A worker exception is re-raised in the caller (from a child, as a
    ``RuntimeError`` carrying the child's traceback).
    """
    items = list(items)
    if not items:
        return []
    workers = min(resolve_num_workers(num_workers), len(items))
    if workers == 1 or not hasattr(os, "fork"):
        return [fn(item) for item in items]
    return _fork_map(fn, items, workers)


def _fork_map(fn: Callable[[Any], T], items: list[Any],
              num_workers: int) -> list[T]:
    """Fork-based process map.

    Items are dealt round-robin to ``num_workers`` forked children.
    Each child inherits the full parent image (so ``fn`` may be any
    closure), computes its share, and pickles the results to a
    temporary file the parent reads back after ``waitpid``.  Files
    rather than pipes, so result size never deadlocks on a pipe
    buffer.
    """
    shares = [list(range(w, len(items), num_workers))
              for w in range(num_workers)]
    paths: list[str] = []
    workers: list[tuple[int, str, list[int]]] = []
    reaped: set[int] = set()
    try:
        for share in shares:
            fd, path = tempfile.mkstemp(prefix="repro-fork-", suffix=".pkl")
            os.close(fd)
            paths.append(path)
            pid = os.fork()
            if pid == 0:  # child
                status = 1
                try:
                    payload: tuple[bool, Any]
                    try:
                        payload = (True, [fn(items[i]) for i in share])
                        status = 0
                    except BaseException:
                        payload = (False, traceback.format_exc())
                    with open(path, "wb") as handle:
                        pickle.dump(payload, handle)
                finally:
                    # Never run parent cleanup (atexit, finally blocks
                    # up-stack) inside the child; write out its spans,
                    # which only the skipped atexit close would.
                    tracing.flush()
                    os._exit(status)
            workers.append((pid, path, share))

        results: list[T | None] = [None] * len(items)
        failures: list[str] = []
        for pid, path, share in workers:
            __, status = os.waitpid(pid, 0)
            reaped.add(pid)
            try:
                with open(path, "rb") as handle:
                    ok, payload = pickle.load(handle)
            except (EOFError, pickle.UnpicklingError):
                failures.append(
                    f"worker {pid} died without writing results "
                    f"(exit status {status})"
                )
                continue
            if ok:
                for index, result in zip(share, payload):
                    results[index] = result
            else:
                failures.append(payload)
        if failures:
            raise RuntimeError(
                "parallel worker failed:\n" + "\n".join(failures)
            )
        return results  # type: ignore[return-value]
    finally:
        # A later fork failed or the wait was interrupted: stop and reap
        # every child still running, so none is left behind or writes
        # its file after the unlink below.
        for pid, __, __ in workers:
            if pid not in reaped:
                try:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                except OSError:  # already gone
                    pass
        for path in paths:
            try:
                os.unlink(path)
            except OSError:
                pass
