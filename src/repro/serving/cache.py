"""Content-addressed LRU caches for the serving layer.

Serving traffic is heavily repetitive -- the same clip arrives from
many clients, and the ``use_chain``/retriever pipeline variants share
their Describe work -- so the service keeps one bounded LRU cache per
chain stage, keyed by a *content hash* of the video:

- the **describe cache** stores the greedy description and its
  rendered text (and, when test-time refinement is on, the refined
  description under a key that includes the video id);
- the **assess cache** stores the final assessment ``(logit, prob,
  label)`` per ``(content, description)`` pair;
- the **highlight cache** stores the rationale ordering and its
  rendered text per ``(content, description, label)``.

Every cached value was produced by the one chain core that serial
:meth:`~repro.cot.chain.StressChainPipeline.predict` also runs (over
:data:`NULL_CACHES`, which hold nothing), and all three steps are
deterministic under greedy decoding, so replaying a cached value is
bitwise-identical to recomputing it.

The content hash digests the :class:`~repro.video.frame.VideoSpec`
rather than rendered pixels: rendering is fully deterministic given
the spec (including its render seed), so the spec *is* the content in
latent form, and hashing ~1 KB of latent state instead of ~150 KB of
pixels keeps the cache-hit path far cheaper than a model call.  The
:class:`~repro.video.frame.Video` computes it once
(:attr:`~repro.video.frame.Video.content_hash`), so the router, the
stage caches and the model's feature cache all read one digest.  The
stage keys start from the serving model's
:meth:`~repro.model.foundation.FoundationModel.output_identity` of the
video: the content hash, plus the video id for a model whose outputs
also depend on the id.

Entries are frozen and carry their dialogue turns already rendered,
so a cache hit builds no text and requests can share an entry.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable

from repro.cot.rationale import Rationale
from repro.errors import ConfigError
from repro.facs.descriptions import FacialDescription
from repro.model.session import Turn
from repro.observability import profiling
from repro.reliability.faults import fault_point
# video_content_hash stays importable from here: perfbench's ledger
# wraps it under this module's name.  Keys read Video.content_hash.
from repro.video.frame import Video, video_content_hash  # noqa: F401


@dataclass(frozen=True, slots=True)
class CacheStats:
    """Counters of one LRU cache."""

    hits: int
    misses: int
    evictions: int
    size: int
    capacity: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class LRUCache:
    """A thread-safe bounded LRU map.

    ``capacity=0`` disables the cache (every ``get`` misses, ``put``
    is a no-op), which is how the service runs in cache-off mode.
    """

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ConfigError(f"cache capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._data: OrderedDict[Any, Any] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get(self, key: Any) -> Any | None:
        """The cached value, or ``None`` on a miss (values are never
        ``None``)."""
        fault_point("cache.get")
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                self._misses += 1
                return None
            self._data.move_to_end(key)
            self._hits += 1
            return value

    def put(self, key: Any, value: Any) -> None:
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

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(hits=self._hits, misses=self._misses,
                              evictions=self._evictions,
                              size=len(self._data), capacity=self.capacity)


class _StageCache(LRUCache):
    """A chain-stage LRU cache: each lookup's hit or miss is also
    counted on the current span (the ``serve.stage_cache_*`` profiling
    counters)."""

    def get(self, key: Any) -> Any | None:
        value = super().get(key)
        profiling.count(profiling.STAGE_CACHE_MISS if value is None
                        else profiling.STAGE_CACHE_HIT)
        return value


class _NullCache:
    """A stage cache that holds nothing: every ``get`` misses and
    ``put`` drops the value -- no lock, no counter, no fault site."""

    __slots__ = ()

    def get(self, key: Any) -> None:
        return None

    def put(self, key: Any, value: Any) -> None:
        return None


class _NullStageCaches:
    __slots__ = ()
    describe = assess = highlight = _NullCache()


#: The stage caches of serial ``predict``: the chain core runs over
#: these without a content key, so it hashes and looks up nothing.
NULL_CACHES = _NullStageCaches()


@dataclass(frozen=True, slots=True)
class DescribeEntry:
    """Cached output of the Describe stage for one video content.

    ``description`` is the greedy draw; ``turn`` is the I1 exchange
    the chain records in the dialogue session, its text rendered once.
    """

    description: FacialDescription
    turn: Turn


@dataclass(frozen=True, slots=True)
class AssessEntry:
    """Cached output of the Assess stage: the final (post in-context
    shift) logit and the prob/label floats derived from it."""

    logit: float
    prob: float
    label: int


@dataclass(frozen=True, slots=True)
class HighlightEntry:
    """Cached output of the Highlight stage: the rationale, and the I3
    turn (``None`` when the description names no action unit, which
    records no turn)."""

    rationale: Rationale
    turn: Turn | None


class StageCaches:
    """The per-stage caches one service (or ``predict_many`` call)
    owns."""

    def __init__(self, describe_capacity: int = 2048,
                 assess_capacity: int = 4096,
                 highlight_capacity: int = 4096):
        self.describe = _StageCache(describe_capacity)
        self.assess = _StageCache(assess_capacity)
        self.highlight = _StageCache(highlight_capacity)

    def content_key(self, video: Video, model) -> Hashable:
        """The key every stage-cache entry of ``video`` starts from:
        the serving ``model``'s :meth:`~repro.model.foundation
        .FoundationModel.output_identity` of it, which is
        ``video.content_hash`` unless the model's outputs also depend
        on the video id."""
        return model.output_identity(video)

    def clear(self) -> None:
        self.describe.clear()
        self.assess.clear()
        self.highlight.clear()

    def stats(self) -> dict[str, CacheStats]:
        return {
            "describe": self.describe.stats(),
            "assess": self.assess.stats(),
            "highlight": self.highlight.stats(),
        }
