"""Lightweight tracing: spans, a thread-local span stack, exporters.

``span("stage.name", **attrs)`` is the single instrumentation
primitive used across the repo -- the chain stages, the training
stages, the serving hot path, cross-validation folds, and the
experiment runner all wrap their work in one::

    with span("chain.describe", cached=False) as sp:
        ...
        sp.add("model.embed")          # per-span work counter
        sp.set("num_aus", len(ids))    # late attribute

Design constraints (DESIGN.md section 11):

- **Zero cost when disabled.**  Tracing is off unless an exporter is
  installed; ``span(...)`` then returns a shared no-op object without
  allocating a span, touching the clock, or formatting anything.
  Hot-path callers (``Linear.forward``) guard on :func:`enabled`
  instead, which is a single module-global check.
- **No RNG interaction.**  Spans read only monotonic clocks
  (``time.perf_counter``); they never draw randomness, so enabling
  tracing cannot perturb any seeded stream -- the golden chain
  fixtures stay bitwise identical under ``REPRO_TRACE``.
- **Thread-local nesting.**  Each thread keeps its own span stack, so
  the micro-batcher worker, client threads, and forked children all
  trace independently; a span's ``parent`` is whatever span was open
  on the *same* thread.

Exporters are pluggable: :class:`JsonlExporter` appends one JSON
object per finished span (enabled automatically when the
``REPRO_TRACE`` environment variable names a path); tests install a
:class:`ListExporter`.  ``install_exporter`` / ``uninstall_exporter``
swap the active exporter at runtime.
"""

from __future__ import annotations

import atexit
import json
import os
import threading
import time
from typing import Any

from repro.config import TRACE_ENV, env_value

_local = threading.local()

#: The active exporter; ``None`` means tracing is disabled.
_exporter: "SpanExporter | None" = None


def enabled() -> bool:
    """Whether an exporter is installed (the tracing fast-path guard)."""
    return _exporter is not None


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------


class SpanExporter:
    """Receives one plain-dict record per finished span."""

    def export(self, record: dict[str, Any]) -> None:  # pragma: no cover
        raise NotImplementedError

    def flush(self) -> None:
        """Write out anything buffered; default is a no-op."""

    def close(self) -> None:
        """Release any resources; default is a no-op."""


class ListExporter(SpanExporter):
    """Collects span records in memory (tests, ad-hoc inspection)."""

    def __init__(self) -> None:
        self.records: list[dict[str, Any]] = []
        self._lock = threading.Lock()

    def export(self, record: dict[str, Any]) -> None:
        with self._lock:
            self.records.append(record)


class JsonlExporter(SpanExporter):
    """Appends one JSON line per span to a file.

    Lines are buffered and written every ``FLUSH_EVERY`` records as a
    single ``write`` call on an unbuffered append-mode handle, so
    concurrent writers (threads, or forked children inheriting the
    handle) never split a line.  Readers of a live trace may lag by up
    to a flush interval; :meth:`flush` or :meth:`close` drains the
    buffer, and a fork drains it first (see :func:`_before_fork`).
    """

    FLUSH_EVERY: int = 128

    def __init__(self, path: str):
        self.path = path
        self._handle = open(path, "ab", buffering=0)
        self._lock = threading.Lock()
        self._pending: list[str] = []

    def export(self, record: dict[str, Any]) -> None:
        line = json.dumps(record, separators=(",", ":"), default=str) + "\n"
        with self._lock:
            self._pending.append(line)
            if len(self._pending) >= self.FLUSH_EVERY:
                self._write_pending()

    def _write_pending(self) -> None:
        """Write the buffered lines; the caller holds the lock."""
        if self._pending and not self._handle.closed:
            self._handle.write("".join(self._pending).encode("utf-8"))
        self._pending.clear()

    def flush(self) -> None:
        with self._lock:
            self._write_pending()

    def close(self) -> None:
        with self._lock:
            self._write_pending()
            self._handle.close()


def install_exporter(exporter: SpanExporter) -> SpanExporter | None:
    """Install ``exporter`` as the process-wide span sink; returns the
    previously installed exporter (not closed), or ``None``."""
    global _exporter
    previous = _exporter
    _exporter = exporter
    return previous


def uninstall_exporter() -> SpanExporter | None:
    """Disable tracing; returns the removed exporter (not closed)."""
    global _exporter
    previous = _exporter
    _exporter = None
    return previous


def configure_from_env() -> bool:
    """Install a :class:`JsonlExporter` when ``REPRO_TRACE`` names a
    path; returns whether tracing ended up enabled.

    The exporter buffers; an ``atexit`` hook closes it so the trace
    file is complete when the process exits normally.
    """
    path = env_value(TRACE_ENV)
    if path:
        exporter = JsonlExporter(path)
        install_exporter(exporter)
        atexit.register(exporter.close)
    return enabled()


def flush() -> None:
    """Write out the active exporter's buffer.  A forked child calls
    this before ``os._exit``, which skips the ``atexit`` close."""
    exporter = _exporter
    if exporter is not None:
        exporter.flush()


#: The JSONL exporter whose lock a fork in progress holds.
_held_across_fork: JsonlExporter | None = None


def _before_fork() -> None:
    """Drain the active JSONL exporter and hold its lock across the
    fork: the child then inherits neither buffered parent spans (it
    would write them again) nor a lock another thread held."""
    global _held_across_fork
    exporter = _exporter
    if isinstance(exporter, JsonlExporter):
        exporter._lock.acquire()
        exporter._write_pending()
        _held_across_fork = exporter


def _after_fork() -> None:
    global _held_across_fork
    if _held_across_fork is not None:
        _held_across_fork._lock.release()
        _held_across_fork = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(before=_before_fork, after_in_parent=_after_fork,
                        after_in_child=_after_fork)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


class _NoopSpan:
    """The shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def set(self, key: str, value: Any) -> None:
        pass

    def add(self, key: str, amount: int = 1) -> None:
        pass


_NOOP = _NoopSpan()


class Span:
    """One live timed region.  Use via :func:`span`, not directly."""

    __slots__ = ("name", "attrs", "counters", "start", "_parent_name")

    def __init__(self, name: str, attrs: dict[str, Any]):
        self.name = name
        self.attrs = attrs
        self.counters: dict[str, int] = {}
        self.start = 0.0
        self._parent_name: str | None = None

    def __enter__(self) -> "Span":
        stack = _stack()
        self._parent_name = stack[-1].name if stack else None
        stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = time.perf_counter() - self.start
        stack = _stack()
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:  # pragma: no cover - exiting out of order
            stack.remove(self)
        exporter = _exporter
        if exporter is not None:
            record: dict[str, Any] = {
                "name": self.name,
                "duration_s": duration,
                "thread": threading.current_thread().name,
                "depth": len(stack),
            }
            if self._parent_name is not None:
                record["parent"] = self._parent_name
            if self.attrs:
                record["attrs"] = self.attrs
            if self.counters:
                record["counters"] = self.counters
            if exc_type is not None:
                record["error"] = exc_type.__name__
            exporter.export(record)
        return False

    def set(self, key: str, value: Any) -> None:
        """Attach (or overwrite) one attribute."""
        self.attrs[key] = value

    def add(self, key: str, amount: int = 1) -> None:
        """Bump one per-span work counter."""
        self.counters[key] = self.counters.get(key, 0) + amount


def _stack() -> list[Span]:
    stack = getattr(_local, "spans", None)
    if stack is None:
        stack = _local.spans = []
    return stack


def span(name: str, **attrs: Any) -> Span | _NoopSpan:
    """Open a timed span (use as a context manager).

    When tracing is disabled this returns a shared no-op object; the
    only cost at the call site is the keyword-dict construction, so
    callers on hot paths should pass no attrs (or guard on
    :func:`enabled` before computing any)."""
    if _exporter is None:
        return _NOOP
    return Span(name, attrs)


def current_span() -> Span | None:
    """The innermost open span on this thread, or ``None``."""
    stack = getattr(_local, "spans", None)
    return stack[-1] if stack else None


# Pick up REPRO_TRACE at import so `REPRO_TRACE=t.jsonl python ...`
# traces without any code change.
configure_from_env()
