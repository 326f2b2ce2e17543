"""Unit tests for the serving layer's building blocks.

Covers the LRU caches (bounds, eviction, counters, disable mode), the
content hash, the micro-batcher's flush/backpressure/shutdown
behaviour, config validation, and the service stats surface.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.cot.chain import StressChainPipeline
from repro.errors import (
    ConfigError,
    ServiceClosedError,
    ServiceOverloadedError,
)
from repro.model.foundation import FoundationModel
from repro.reliability.deadlines import Deadline
from repro.rng import make_rng
from repro.serving import (
    LRUCache,
    MicroBatcher,
    ServiceConfig,
    ServiceStats,
    StageCaches,
    StressService,
    video_content_hash,
)
from repro.video.frame import Video, VideoSpec


def _video(tag: str, seed: int, noise: float = 0.02) -> Video:
    rng = np.random.default_rng(seed)
    curves = np.clip(rng.random((12, 12)), 0, 1)
    return Video(VideoSpec(
        video_id=f"svc-{tag}", subject_id=f"svc-subj-{tag}",
        au_intensities=curves, identity=rng.standard_normal(8),
        noise_scale=noise, seed=seed,
    ))


@pytest.fixture(scope="module")
def pipeline():
    return StressChainPipeline(FoundationModel(make_rng(9, "serving-unit")))


class TestLRUCache:
    def test_basic_round_trip_and_counters(self):
        cache = LRUCache(capacity=2)
        assert cache.get("a") is None
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.size) == (1, 1, 2)
        assert stats.hit_rate == 0.5

    def test_lru_eviction_order(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # refresh "a"; "b" is now least recent
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.stats().evictions == 1

    def test_zero_capacity_disables(self):
        cache = LRUCache(capacity=0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ConfigError):
            LRUCache(capacity=-1)


class TestContentHash:
    def test_same_content_same_key(self):
        assert video_content_hash(_video("x", 1)) == \
            video_content_hash(_video("x", 1))

    def test_content_changes_change_key(self):
        base = video_content_hash(_video("x", 1))
        assert video_content_hash(_video("x", 2)) != base          # seed
        assert video_content_hash(_video("x", 1, noise=0.1)) != base

    def test_memoized_key_matches_direct_hash(self, pipeline):
        caches = StageCaches()
        video = _video("memo", 3)
        model = pipeline.model
        assert caches.content_key(video, model) == video_content_hash(video)
        assert caches.content_key(video, model) == video_content_hash(video)


class TestMicroBatcher:
    def test_flush_on_batch_size(self):
        """Work queued behind a busy worker leaves in FIFO batches of
        at most ``max_batch_size``: 40 items at size 32 are 32 then 8."""
        seen = []
        busy, release = threading.Event(), threading.Event()

        def on_batch(items):
            seen.append(list(items))
            busy.set()
            release.wait(5)
            return items

        batcher = MicroBatcher(on_batch, max_batch_size=32,
                               max_queue_depth=64)
        held = batcher.submit("held")
        assert busy.wait(5)                 # batch 1 holds the worker
        futures = [batcher.submit(i) for i in range(40)]
        release.set()
        assert held.result(5) == "held"
        assert [f.result(5) for f in futures] == list(range(40))
        assert seen == [["held"], list(range(32)), list(range(32, 40))]
        batcher.close()

    def test_lone_request_starts_at_once(self):
        """An idle worker takes a lone request immediately: there is
        no batching timer to wait out for company."""
        stats = ServiceStats()
        batcher = MicroBatcher(lambda items: items, max_batch_size=64,
                               stats=stats)
        for i in range(20):
            assert batcher.submit(i).result(5) == i
        assert batcher.close(timeout=5) is True
        assert stats.snapshot().queue_wait_p50_s < 1e-3

    def test_backpressure_rejects_past_queue_depth(self):
        release = threading.Event()
        started = threading.Event()

        def on_batch(items):
            started.set()
            release.wait(5)
            return items

        batcher = MicroBatcher(on_batch, max_batch_size=1,
                               max_queue_depth=2)
        first = batcher.submit("busy")     # worker picks this up...
        assert started.wait(5)
        queued = [batcher.submit(i) for i in range(2)]  # ...queue fills
        with pytest.raises(ServiceOverloadedError):
            batcher.submit("overflow")
        release.set()
        assert first.result(5) == "busy"
        assert [f.result(5) for f in queued] == [0, 1]
        batcher.close()

    def test_graceful_close_drains(self):
        processed = []

        def on_batch(items):
            time.sleep(0.002)
            processed.extend(items)
            return items

        batcher = MicroBatcher(on_batch, max_batch_size=2,
                               max_queue_depth=64)
        futures = [batcher.submit(i) for i in range(10)]
        batcher.close(drain=True)
        assert sorted(f.result(0) for f in futures) == list(range(10))
        assert sorted(processed) == list(range(10))
        with pytest.raises(ServiceClosedError):
            batcher.submit("late")

    def test_abrupt_close_fails_pending(self):
        release = threading.Event()
        started = threading.Event()

        def on_batch(items):
            started.set()
            release.wait(5)
            return items

        batcher = MicroBatcher(on_batch, max_batch_size=1,
                               max_queue_depth=8)
        running = batcher.submit("running")
        assert started.wait(5)
        pending = batcher.submit("pending")
        release.set()
        batcher.close(drain=False)
        assert running.result(5) == "running"
        with pytest.raises(ServiceClosedError):
            pending.result(5)

    def test_callback_exception_fails_the_batch(self):
        def on_batch(items):
            raise RuntimeError("executor blew up")

        batcher = MicroBatcher(on_batch, max_batch_size=4,
                               max_queue_depth=8)
        future = batcher.submit("doomed")
        with pytest.raises(RuntimeError, match="blew up"):
            future.result(5)
        # the worker survived the exception and still serves requests
        def ok_batch(items):
            return items
        batcher._on_batch = ok_batch
        assert batcher.submit("alive").result(5) == "alive"
        batcher.close()

    def test_config_validation(self):
        for kwargs in ({"max_batch_size": 0}, {"max_queue_depth": 0}):
            with pytest.raises(ConfigError):
                MicroBatcher(lambda items: items, **kwargs)


class TestServiceConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            ServiceConfig(max_batch_size=0)
        with pytest.raises(ConfigError):
            ServiceConfig(max_queue_depth=0)
        with pytest.raises(ConfigError):
            ServiceConfig(assess_cache_capacity=-1)

    def test_nan_default_deadline_rejected(self):
        # nan <= 0 is False: the check must be one that NaN fails.
        with pytest.raises(ConfigError, match="default_deadline_ms"):
            ServiceConfig(default_deadline_ms=float("nan"))
        assert ServiceConfig(
            default_deadline_ms=float("inf")).default_deadline_ms == \
            float("inf")


class TestDeadline:
    @pytest.mark.parametrize("budget_ms", [float("nan"), -1.0])
    def test_bad_budget_rejected(self, budget_ms):
        with pytest.raises(ConfigError, match="deadline budget"):
            Deadline.after_ms(budget_ms, now=0.0)

    def test_infinite_budget_never_expires(self):
        deadline = Deadline.after_ms(float("inf"), now=0.0)
        assert not deadline.expired(now=1e12)
        assert Deadline.after_ms(0.0, now=5.0).expired(now=5.0)

    def test_submit_rejects_nan_budget(self, pipeline):
        with StressService(pipeline) as svc:
            with pytest.raises(ConfigError):
                svc.submit(_video("nan-deadline", 41),
                           deadline_ms=float("nan"))
            assert svc.stats().requests == 0


class TestStressService:
    def test_predict_and_stats_counters(self, pipeline):
        videos = [_video("stats-a", 21), _video("stats-b", 22)]
        with StressService(pipeline) as svc:
            for __ in range(3):
                for video in videos:
                    result = svc.predict(video, timeout=30)
                    assert result.label in (0, 1)
            stats = svc.stats()
        assert stats.requests == 6
        assert stats.completed == 6
        assert stats.failed == 0
        assert stats.rejected == 0
        assert stats.batches >= 1
        assert stats.mean_batch_occupancy >= 1.0
        assert stats.latency_p95_s >= stats.latency_p50_s >= 0.0
        # repeats of the same two contents must hit every stage cache
        assert stats.cache["describe"].hits >= 4
        assert stats.cache["assess"].hits >= 4
        assert stats.cache["highlight"].hits >= 4
        assert 0.0 < stats.cache_hit_rate <= 1.0

    def test_in_flight_duplicates_deduplicated(self, pipeline):
        video = _video("dup", 31)
        config = ServiceConfig(max_batch_size=8,
                               describe_cache_capacity=0,
                               assess_cache_capacity=0,
                               highlight_cache_capacity=0)
        with StressService(pipeline, config) as svc:
            # Hold the worker on a first request so the eight copies
            # queue behind it and leave together as one batch.
            busy, release = threading.Event(), threading.Event()
            real_run_batch = svc.executor.run_batch

            def gated_run_batch(videos):
                busy.set()
                release.wait(30)
                return real_run_batch(videos)

            svc.executor.run_batch = gated_run_batch
            held = svc.submit(_video("dup-held", 32))
            assert busy.wait(30)
            futures = [svc.submit(video) for __ in range(8)]
            release.set()
            held.result(30)
            results = [f.result(30) for f in futures]
            stats = svc.stats()
        reference = pipeline.predict(video)
        for result in results:
            assert result.prob_stressed == reference.prob_stressed
            assert result.session is not results[0].session or \
                result is results[0]
        # the batch of eight copies computed the content once
        assert stats.batches == 2
        assert stats.deduplicated == 7

    def test_submit_after_close_raises(self, pipeline):
        svc = StressService(pipeline)
        svc.close()
        assert svc.closed
        with pytest.raises(ServiceClosedError):
            svc.submit(_video("late", 41))

    def test_close_is_idempotent(self, pipeline):
        svc = StressService(pipeline)
        svc.close()
        svc.close()

    def test_caches_disabled_still_correct(self, pipeline):
        video = _video("nocache", 51)
        config = ServiceConfig(describe_cache_capacity=0,
                               assess_cache_capacity=0,
                               highlight_cache_capacity=0)
        reference = pipeline.predict(video)
        with StressService(pipeline, config) as svc:
            for __ in range(3):
                result = svc.predict(video, timeout=30)
                assert result.prob_stressed == reference.prob_stressed
            stats = svc.stats()
        assert stats.cache["describe"].hits == 0

    def test_predict_many_reuses_service_caches(self, pipeline):
        videos = [_video("rm-a", 61), _video("rm-b", 62)]
        serial = [pipeline.predict(v) for v in videos]
        with StressService(pipeline) as svc:
            for video in videos:
                svc.predict(video, timeout=30)
            results = pipeline.predict_many(videos * 2, caches=svc.caches)
        for want, got in zip(serial * 2, results):
            assert got.prob_stressed == want.prob_stressed
            assert got.session.transcript() == want.session.transcript()
