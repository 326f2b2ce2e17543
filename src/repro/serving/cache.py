"""The serving layer's one cache: whole chain results by request key.

Serving traffic is heavily repetitive -- the same clip arrives from
many clients -- and under greedy decoding the paper's Describe ->
Assess -> Highlight chain gives the same answer for the same request
every time.  So the service keeps one bounded LRU of chain results
(:class:`StageCaches`), and a repeat costs one lookup instead of a
chain run.  Every cached value was produced by the one chain core that
serial :meth:`~repro.cot.chain.StressChainPipeline.predict` also runs,
so replaying it is bitwise-identical to recomputing it.

The key of a request (:meth:`StageCaches.content_key`) names every
input the chain's answer depends on besides the weights:

- the serving model's
  :meth:`~repro.model.foundation.FoundationModel.output_identity` of
  the video: its content hash, plus the video id for a model whose
  outputs also read the id (the off-the-shelf proxies seed their
  per-query noise from it);
- the video id again when the pipeline's own streams read it: test-time
  refinement seeds its reflection draws from the id, and a retriever
  its example draw.

The content hash digests the :class:`~repro.video.frame.VideoSpec`
rather than rendered pixels: rendering is fully deterministic given
the spec (including its render seed), so the spec *is* the content in
latent form, and hashing ~1 KB of latent state instead of ~150 KB of
pixels keeps the hit path far cheaper than a model call.  The
:class:`~repro.video.frame.Video` computes it once
(:attr:`~repro.video.frame.Video.content_hash`), so the router, the
chain cache and the frame working set all read one digest.

A cache holds the answers of one pipeline, so it belongs to the
executor that fills it: a :class:`~repro.serving.executor
.ChainBatchExecutor` builds its own from a capacity, never hands it
out, and clears it when its pipeline is swapped.  A forked pool
replica's executor keeps it in the parent process too, so a hit never
crosses the pipe and only misses reach the child.  Entries are frozen
and carry their dialogue turns already rendered, so a hit builds no
text and requests can share an entry.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable

from repro.errors import ConfigError
from repro.observability import profiling
from repro.reliability.faults import fault_point
# video_content_hash stays importable from here: perfbench's ledger
# wraps it under this module's name.  Keys read Video.content_hash.
from repro.video.frame import Video, video_content_hash  # noqa: F401


@dataclass(frozen=True, slots=True)
class CacheStats:
    """Counters of the chain cache."""

    hits: int
    misses: int
    evictions: int
    size: int
    capacity: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class StageCaches:
    """The chain cache: a thread-safe bounded LRU of chain cores by
    request key, owned by one executor.

    ``capacity=0`` disables the cache (every ``get`` misses, ``put``
    is a no-op), which is how the service runs in cache-off mode.
    Each lookup passes the ``cache.get`` fault site, and its hit or
    miss is also counted on the current span (the
    ``serve.stage_cache_*`` profiling counters).
    """

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ConfigError(f"cache capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def content_key(self, video: Video, pipeline) -> Hashable:
        """The key of a request for ``video`` to ``pipeline``: the
        serving model's :meth:`~repro.model.foundation.FoundationModel
        .output_identity` of it (``video.content_hash`` unless the
        model's outputs also depend on the video id), paired with the
        id when the pipeline's own streams read it (test-time
        refinement, retrieval).  In-flight dedup groups on it too."""
        identity = pipeline.model.output_identity(video)
        if pipeline.test_time_refine or pipeline.retriever is not None:
            return (identity, video.video_id)
        return identity

    def get(self, key: Hashable) -> Any | None:
        """The cached value, or ``None`` on a miss (values are never
        ``None``)."""
        fault_point("cache.get")
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                self._misses += 1
                value = None
            else:
                self._data.move_to_end(key)
                self._hits += 1
        profiling.count(profiling.STAGE_CACHE_MISS if value is None
                        else profiling.STAGE_CACHE_HIT)
        return value

    def put(self, key: Hashable, value: Any) -> None:
        if self.capacity == 0:
            return
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)
                self._evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def stats(self) -> dict[str, CacheStats]:
        with self._lock:
            return {"chain": CacheStats(
                hits=self._hits, misses=self._misses,
                evictions=self._evictions, size=len(self._data),
                capacity=self.capacity)}
