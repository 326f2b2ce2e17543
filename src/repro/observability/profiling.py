"""Profiling hooks: model-level work counters attached to spans.

The model and cache layers call :func:`count` at their unit-of-work
sites -- one trunk GEMM, one video embedding, one chain-cache hit --
and the count lands on the innermost open span of the calling thread.
A finished span's record then carries, e.g.::

    {"name": "chain.assess", "duration_s": ..., "counters":
     {"nn.gemm": 1, "model.embed": 1}}

which is how an operator attributes FLOPs and cache behaviour to
pipeline stages without a sampling profiler.

Cost discipline: when tracing is disabled :func:`count` is a single
module-global check and an immediate return -- no span lookup, no
allocation -- so the hooks can sit on the hottest paths
(``Linear.forward`` runs hundreds of thousands of times per training
run).  Counter *names* are interned literals at every call site; no
string is built per call.
"""

from __future__ import annotations

from repro.observability import tracing

#: Canonical counter names (call sites use the literals; listed here
#: so dashboards and tests have one vocabulary to key on).
GEMM = "nn.gemm"
EMBED = "model.embed"
FEATURE_CACHE_HIT = "model.feature_cache_hit"
FEATURE_CACHE_MISS = "model.feature_cache_miss"
STAGE_CACHE_HIT = "serve.stage_cache_hit"
STAGE_CACHE_MISS = "serve.stage_cache_miss"


def enabled() -> bool:
    """Profiling piggybacks on tracing: counts flow only into spans."""
    return tracing.enabled()


def count(name: str, amount: int = 1) -> None:
    """Add ``amount`` units of ``name`` work to the current span.

    No-op (one global check) when tracing is disabled or no span is
    open on this thread.
    """
    if tracing._exporter is None:
        return
    span = tracing.current_span()
    if span is not None:
        span.add(name, amount)
