"""The per-layer ledger of a traced benchmark run.

A :class:`Ledger` is installed around a workload's timed phase only.
It does two things, both from this directory, without editing the
program:

- it installs a span exporter that tallies the program's own spans
  (``serve.*``, ``chain.*``, ``train.*``, ``eval.fold``) and the work
  counters the profiling hooks attach to them;
- it replaces a few public callables with timing wrappers that record
  calls and *self* time: the calling thread's CPU time over the call,
  minus that of the wrapped callables it called.  Self times of nested
  layers therefore add up instead of double counting (the trunk embed
  excludes feature extraction, which excludes rendering), and a thread
  waiting for the interpreter lock is not charged for the wait.

:meth:`Ledger.remove` puts every original back.  End-to-end numbers
never come from a run with a ledger installed.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict

from repro.model.foundation import FoundationModel
from repro.model.session import DialogueSession
from repro.observability import profiling
from repro.observability.tracing import (
    SpanExporter,
    install_exporter,
    uninstall_exporter,
)
from repro.serving import cache as serving_cache
from repro.serving import pool as serving_pool
from repro.serving.cache import StageCaches
from repro.serving.pool import ReplicaPool
from repro.training import self_refine
from repro.video.frame import Video

#: (owner, attribute, timer name, timed).  Counting-only wrappers skip
#: the clock: they guard call counts that must repeat exactly.
WRAPPED = (
    (ReplicaPool, "route", "route", True),
    (ReplicaPool, "submit", "submit", True),
    (serving_pool, "video_content_hash", "content_hash", True),
    (serving_cache, "video_content_hash", "content_hash", True),
    (StageCaches, "content_key", "content_key", True),
    (DialogueSession, "record", "session_record", True),
    (Video, "frame", "frame", True),
    (Video, "segmentation", "segmentation", True),
    (FoundationModel, "features", "features", True),
    (FoundationModel, "embed_video", "embed", True),
    (FoundationModel, "assess", "assess", False),
    (FoundationModel, "au_logits", "au_logits", False),
    (FoundationModel, "chain_prob_from_frames", "chain_prob", False),
    (self_refine, "rationale_flip_count", "flip_count", True),
    (self_refine, "verification_score", "verification", True),
    (self_refine, "helpfulness_score", "helpfulness", True),
)

#: Spans whose individual durations are kept (the rest are totals).
KEEP_DURATIONS = ("eval.fold",)


class _SpanTally(SpanExporter):
    """Aggregates span records as they finish, so a long traced run
    holds one entry per span *name*, not one per span."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.total_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        self.durations: dict[str, list[float]] = defaultdict(list)

    def export(self, record: dict) -> None:
        name = record["name"]
        with self._lock:
            self.total_s[name] += record["duration_s"]
            for key, amount in record.get("counters", {}).items():
                self.counters[key] += amount
            if name in KEEP_DURATIONS:
                self.durations[name].append(record["duration_s"])


class _Timers:
    """Calls and self time per wrapper name, with a per-thread stack
    of open wrapper frames (``[child_seconds]`` lists)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)

    def wrap(self, name: str, fn, timed: bool):
        calls = self.calls
        lock = self._lock
        if not timed:
            def counted(*args, **kwargs):
                with lock:
                    calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        local = self._local
        self_s = self.self_s
        clock = time.thread_time

        def timed_call(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                with lock:
                    calls[name] += 1
                    self_s[name] += elapsed - frame[0]
        return timed_call

    def per_call(self, name: str, scale: float) -> float:
        calls = self.calls.get(name, 0)
        return self.self_s.get(name, 0.0) / calls * scale if calls else 0.0


class Ledger:
    """Span tally plus wrapper timers for one traced timed phase."""

    def __init__(self) -> None:
        self.spans = _SpanTally()
        self.timers = _Timers()
        self._originals: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for owner, attr, name, timed in WRAPPED:
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self.timers.wrap(name, original, timed))
        install_exporter(self.spans)

    def remove(self) -> None:
        uninstall_exporter()
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def metrics(self, pool_delta: dict | None, lag_p99_ms: float) -> dict:
        """Every per-layer metric; 0 where the workload never reached
        the layer.  ``pool_delta`` holds the serving counters of the
        timed phase (``None`` off the serving path)."""
        timers, spans = self.timers, self.spans
        features_hit = spans.counters.get(profiling.FEATURE_CACHE_HIT, 0)
        features_miss = spans.counters.get(profiling.FEATURE_CACHE_MISS, 0)
        folds = spans.durations.get("eval.fold", [])
        fold_mean = sum(folds) / len(folds) if folds else 0.0
        pool = pool_delta or {}
        out = {
            "serving.route_us": timers.per_call("route", 1e6),
            "serving.submit_us": timers.per_call("submit", 1e6),
            "serving.content_hash_us": timers.per_call("content_hash", 1e6),
            "serving.content_key_us": timers.per_call("content_key", 1e6),
            "serving.execute_p50_ms": pool.get("execute_p50_ms", 0.0),
            "serving.batch_occupancy": pool.get("batch_occupancy", 0.0),
            "serving.dedup_frac": pool.get("dedup_frac", 0.0),
            "serving.queue_wait_p50_ms": pool.get("queue_wait_p50_ms", 0.0),
            "serving.stage_cache_hit_frac": pool.get(
                "stage_cache_hit_frac", 0.0),
            "cot.session_build_us": timers.per_call("session_record", 1e6),
            "video.render_ms": timers.per_call("frame", 1e3),
            "video.render_calls": timers.calls.get("frame", 0),
            "video.segmentation_ms": timers.per_call("segmentation", 1e3),
            "video.segmentation_calls": timers.calls.get("segmentation", 0),
            "model.features_ms": timers.per_call("features", 1e3),
            "model.feature_cache_hit_frac": (
                features_hit / (features_hit + features_miss)
                if features_hit + features_miss else 0.0),
            "model.embed_us": timers.per_call("embed", 1e6),
            "model.embed_calls": timers.calls.get("embed", 0),
            "model.assess_calls": timers.calls.get("assess", 0),
            "model.au_logits_calls": timers.calls.get("au_logits", 0),
            "model.chain_prob_from_frames_calls": timers.calls.get(
                "chain_prob", 0),
            "train.flip_count_calls": timers.calls.get("flip_count", 0),
            "train.flip_count_ms": timers.per_call("flip_count", 1e3),
            "train.verification_ms": timers.per_call("verification", 1e3),
            "train.helpfulness_ms": timers.per_call("helpfulness", 1e3),
            "eval.fold_s": fold_mean,
            "eval.fold_imbalance": max(folds) / fold_mean if folds else 0.0,
            "harness.generator_lag_p99_ms": lag_p99_ms,
        }
        for stage in ("describe_tuning", "assess_tuning",
                      "description_refinement", "rationale_refinement"):
            out[f"train.{stage}_s"] = spans.total_s.get(f"train.{stage}", 0.0)
        return out
