"""Unit tests for the serving layer's building blocks.

Covers the chain cache's LRU (bounds, eviction, counters, disable mode), the
content hash, the micro-batcher's flush/backpressure/shutdown
behaviour, config validation, the service stats surface, and the hit
path that answers a warm clip inside ``submit``.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cot.chain import StressChainPipeline
from repro.errors import (
    CircuitOpenError,
    ConfigError,
    FaultInjectedError,
    ServiceClosedError,
    ServiceOverloadedError,
)
from repro.model.foundation import FoundationModel
from repro.cot.chain import ChainResult
from repro.observability.metrics import MetricsRegistry
from repro.reliability.breaker import OPEN, BreakerConfig
from repro.reliability.deadlines import Deadline
from repro.reliability import faults
from repro.reliability.faults import (
    FAULT_SITES,
    FaultPlan,
    FaultSpec,
    SiteCounts,
    fault_point,
    injected,
)
from repro.rng import make_rng
from repro.serving import (
    ChainBatchExecutor,
    MicroBatcher,
    ServiceConfig,
    ServiceStats,
    StageCaches,
    StressService,
    video_content_hash,
)
from repro.video.face_synth import default_renderer
from repro.video.frame import Video, VideoSpec


def _video(tag: str, seed: int, noise: float = 0.02) -> Video:
    rng = np.random.default_rng(seed)
    curves = np.clip(rng.random((12, 12)), 0, 1)
    return Video(VideoSpec(
        video_id=f"svc-{tag}", subject_id=f"svc-subj-{tag}",
        au_intensities=curves, identity=rng.standard_normal(8),
        noise_scale=noise, seed=seed,
    ))


def _stats() -> ServiceStats:
    """Batcher counters over a private registry, off the global one."""
    return ServiceStats(registry=MetricsRegistry())


@pytest.fixture(scope="module")
def pipeline():
    return StressChainPipeline(FoundationModel(make_rng(9, "serving-unit")))


class TestLRUCache:
    """The LRU behaviour of the chain cache (:class:`StageCaches`)."""

    def test_basic_round_trip_and_counters(self):
        cache = StageCaches(capacity=2)
        assert cache.get("a") is None
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1
        stats = cache.stats()["chain"]
        assert (stats.hits, stats.misses, stats.size) == (1, 1, 2)
        assert stats.hit_rate == 0.5

    def test_lru_eviction_order(self):
        cache = StageCaches(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # refresh "a"; "b" is now least recent
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.stats()["chain"].evictions == 1

    def test_zero_capacity_disables(self):
        cache = StageCaches(capacity=0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ConfigError):
            StageCaches(capacity=-1)


class TestContentHash:
    def test_same_content_same_key(self):
        assert video_content_hash(_video("x", 1)) == \
            video_content_hash(_video("x", 1))

    def test_content_changes_change_key(self):
        """Changing any one spec field, or the frame size, changes the
        hash: a field added to ``VideoSpec`` but not hashed fails here."""
        video = _video("x", 1)
        base = video_content_hash(video)
        for field in fields(VideoSpec):
            value = getattr(video.spec, field.name)
            changed = replace(video.spec, **{field.name: _changed(value)})
            assert video_content_hash(Video(changed)) != base, field.name
        smaller = Video(video.spec, default_renderer(64))
        assert video_content_hash(smaller) != base

    def test_memoized_key_matches_direct_hash(self):
        caches = StageCaches(capacity=1)
        video = _video("memo", 3)
        assert caches.content_key(video) == video_content_hash(video)
        assert caches.content_key(video) == video_content_hash(video)


def _changed(value):
    """A valid ``VideoSpec`` field value other than ``value``."""
    if isinstance(value, str):
        return value + "-changed"
    if isinstance(value, np.ndarray):
        changed = value.copy()
        changed.flat[0] = 0.25 if changed.flat[0] == 0.5 else 0.5
        return changed
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return 0.25 if value == 0.5 else 0.5
    raise TypeError(f"no change rule for {type(value).__name__}")


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

        batcher = MicroBatcher(on_batch, _stats(), max_batch_size=32,
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
        stats = _stats()
        batcher = MicroBatcher(lambda items: items, stats,
                               max_batch_size=64)
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

        batcher = MicroBatcher(on_batch, _stats(), max_batch_size=1,
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

        batcher = MicroBatcher(on_batch, _stats(), max_batch_size=2,
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

        batcher = MicroBatcher(on_batch, _stats(), max_batch_size=1,
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

        batcher = MicroBatcher(on_batch, _stats(), max_batch_size=4,
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
                MicroBatcher(lambda items: items, _stats(), **kwargs)


class TestServiceConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            ServiceConfig(max_batch_size=0)
        with pytest.raises(ConfigError):
            ServiceConfig(max_queue_depth=0)
        with pytest.raises(ConfigError):
            ServiceConfig(cache_capacity=-1)

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

    def test_never_expiring_deadline_is_checked_once_per_request(
            self, pipeline, monkeypatch):
        """A deadline that never expires costs one ``expired`` check
        per queued request, at batch collection, however the queue
        batches: 17 cold requests with an hour's budget, 16 of them
        queued behind a held batch of one, make 17 checks.  A warm
        clip is answered at submit and makes none."""
        warm = [_video(f"deadline-cost-{i}", 90 + i) for i in range(4)]
        cold = [_video(f"deadline-cold-{i}", 95 + i) for i in range(5)]
        checks = []
        expired = Deadline.expired

        def counted(deadline, now=None):
            checks.append(deadline)
            return expired(deadline, now)

        monkeypatch.setattr(Deadline, "expired", counted)
        hour_ms = 3_600_000.0
        with StressService(pipeline,
                           ServiceConfig(max_batch_size=4)) as svc:
            for video in warm:
                svc.predict(video, timeout=30)
            assert checks == []
            busy, release = threading.Event(), threading.Event()
            run_batch = svc.executor.run_batch

            def gated(batch):
                busy.set()
                release.wait(30)
                return run_batch(batch)

            svc.executor.run_batch = gated
            futures = [svc.submit(cold[4], deadline_ms=hour_ms)]
            assert busy.wait(30)
            futures += [svc.submit(cold[i % 4], deadline_ms=hour_ms)
                        for i in range(16)]
            hits = [svc.submit(video, deadline_ms=hour_ms) for video in warm]
            assert all(future.done() for future in hits)
            release.set()
            results = [future.result(30) for future in futures + hits]
        assert all(isinstance(result, ChainResult) for result in results)
        assert len(checks) == len(futures)


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
        # repeats of the same two contents must hit the chain cache
        assert stats.cache["chain"].hits >= 4
        assert 0.0 < stats.cache["chain"].hit_rate <= 1.0

    def test_in_flight_duplicates_deduplicated(self, pipeline):
        video = _video("dup", 31)
        config = ServiceConfig(max_batch_size=8, cache_capacity=0)
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
        config = ServiceConfig(cache_capacity=0)
        reference = pipeline.predict(video)
        with StressService(pipeline, config) as svc:
            for __ in range(3):
                result = svc.predict(video, timeout=30)
                assert result.prob_stressed == reference.prob_stressed
            stats = svc.stats()
        assert stats.cache["chain"].hits == 0

    def test_predict_many_answers_with_its_own_weights(self, pipeline):
        """A warm service over one pipeline lends nothing to another
        pipeline's ``predict_many``: a cache lives in its executor."""
        other = StressChainPipeline(
            FoundationModel(make_rng(10, "serving-unit-v2")))
        videos = [_video(f"own-{i}", 600 + i) for i in range(20)]
        with StressService(pipeline) as svc:
            for video in videos:
                svc.predict(video, timeout=30)
            results = other.predict_many(videos)
        assert [_signature(r) for r in results] == \
            [_signature(other.predict(v)) for v in videos]


class TestPerRequestFailure:
    """A request whose key cannot be computed (not a clip) fails
    alone: the clip batched with it is answered whether the breaker is
    closed (the executor runs the batch) or open (degraded mode
    answers from cache)."""

    @pytest.mark.parametrize("breaker_open", [False, True])
    def test_bad_request_fails_alone(self, pipeline, breaker_open):
        video = _video("alone", 91)
        config = ServiceConfig(breaker=BreakerConfig(
            window=8, min_volume=8, open_duration_s=60.0))
        with StressService(pipeline, config) as svc:
            want = svc.predict(video, timeout=30)  # warms the cache
            if breaker_open:
                svc.breaker.record_many([False] * 8)
                assert svc.breaker.state == OPEN
                held_clip, clip = video, video
            else:
                # A closed breaker answers a warm clip at submit, so
                # the held and the queued clip are cold ones.
                held_clip, clip = _video("alone-held", 92), _video(
                    "alone-cold", 93)
                want = pipeline.predict(clip)
            # Hold the worker in a first batch so the clip and the bad
            # request queue behind it and leave together.
            with svc._swap_lock:
                held = svc.submit(held_clip)
                while svc.queue_depth():
                    time.sleep(0.001)
                good, bad = svc.submit(clip), svc.submit(object())
                warm = svc.submit(video)
                # A warm clip waits behind the held batch only when
                # the breaker decides in the batch.
                assert warm.done() is not breaker_open
            held.result(30)
            got = good.result(30)
            error = bad.exception(30)
            warm.result(30)
            stats = svc.stats()
        assert isinstance(error, CircuitOpenError if breaker_open
                          else AttributeError)
        assert got.degraded is breaker_open
        assert _signature(got)[:-1] == _signature(want)[:-1]
        assert (stats.batches, stats.failed) == (3, 1)


def _signature(result) -> tuple:
    return (result.prob_stressed, result.label, result.rationale.au_ids,
            result.session.transcript(), result.degraded)


class TestChainCacheHitPath:
    """A repeat is one lookup in the chain cache and no model work."""

    def _counting_pipeline(self, **kwargs):
        pipeline = StressChainPipeline(
            FoundationModel(make_rng(9, "serving-unit")), **kwargs)
        calls = []
        embed_video = pipeline.model.embed_video

        def counted(video):
            calls.append(video.video_id)
            return embed_video(video)

        pipeline.model.embed_video = counted
        return pipeline, calls

    def test_warm_hit_is_one_lookup_and_no_model_call(self):
        pipeline, calls = self._counting_pipeline()
        video = _video("hit", 71)
        with StressService(pipeline) as svc:
            cold = svc.predict(video, timeout=30)
            before, embeds = svc.stats().cache["chain"], len(calls)
            warm = svc.predict(Video(video.spec), timeout=30)
            after = svc.stats().cache["chain"]
        assert embeds == 1
        assert len(calls) == embeds
        assert (after.hits - before.hits, after.misses - before.misses) \
            == (1, 0)
        assert _signature(warm) == _signature(cold) == \
            _signature(pipeline.predict(video))

    def test_disarmed_fault_point_calls_nothing(self):
        """With no plan armed, a fault site is a global read and a
        ``None`` check: it calls no other function."""
        calls = []

        def profile(frame, event, arg):
            if event == "call":
                calls.append(frame.f_code.co_name)
            elif event == "c_call" and arg is not sys.setprofile:
                calls.append(arg.__name__)

        sys.setprofile(profile)
        try:
            fault_point("serve.execute")
        finally:
            sys.setprofile(None)
        assert calls == ["fault_point"]

    def test_warm_hit_passes_each_serving_site_once_per_key(self):
        """A warm batch passes ``serve.execute`` once per unique key
        and reaches no model stage: four requests over two warm clips
        make two hits there and none elsewhere."""
        pipeline, calls = self._counting_pipeline()
        first, second = _video("sites-a", 76), _video("sites-b", 77)
        executor = ChainBatchExecutor(pipeline)
        executor.run_batch([first, second])
        embeds = len(calls)
        plan = FaultPlan([FaultSpec(site=site, rate=0.0)
                          for site in FAULT_SITES])
        with injected(plan):
            outcomes, unique = executor.run_batch(
                [first, Video(second.spec), Video(first.spec), first])
        assert unique == 2
        assert all(isinstance(outcome, ChainResult) for outcome in outcomes)
        assert len(calls) == embeds
        hits = {site: counts.hits for site, counts in plan.counts().items()}
        assert hits == {site: 0 for site in FAULT_SITES} | {
            "serve.execute": 2}

    def test_zero_capacity_serves_bitwise_serial(self, pipeline):
        videos = [_video("cap0-a", 72), _video("cap0-b", 73)]
        serial = [pipeline.predict(video) for video in videos]
        with StressService(pipeline, ServiceConfig(cache_capacity=0)) as svc:
            for __ in range(2):
                for video, want in zip(videos, serial):
                    assert _signature(svc.predict(video, timeout=30)) == \
                        _signature(want)
            stats = svc.stats().cache["chain"]
        assert (stats.hits, stats.misses, stats.size) == (0, 4, 0)

    def test_degraded_refine_answer_equals_serial(self):
        verification = [_video(f"ttr-pool-{i}", 80 + i) for i in range(3)]
        pipeline, calls = self._counting_pipeline(
            test_time_refine=True, verification_pool=verification,
            refine_rounds=2, num_verify_trials=2, seed=17)
        video = _video("ttr", 74)
        executor = ChainBatchExecutor(pipeline)
        assert executor.run_cached(video) is None
        executor.run_batch([video])
        embeds = len(calls)
        degraded = executor.run_cached(Video(video.spec))
        assert len(calls) == embeds
        assert degraded.degraded is True
        want = pipeline.predict(video)
        assert _signature(degraded)[:-1] == _signature(want)[:-1]
        # A twin id is another request under refinement: not cached.
        twin = Video(replace(video.spec, video_id="svc-ttr-twin"))
        assert executor.run_cached(twin) is None

    def test_swap_pipeline_clears_the_chain_cache(self, pipeline):
        video = _video("swap", 75)
        other = StressChainPipeline(
            FoundationModel(make_rng(10, "serving-unit-v2")))
        with StressService(pipeline) as svc:
            svc.predict(video, timeout=30)
            assert svc.stats().cache["chain"].size == 1
            svc.swap_pipeline(other)
            assert svc.stats().cache["chain"].size == 0
            before = svc.stats().cache["chain"].misses
            got = svc.predict(video, timeout=30)
            assert svc.stats().cache["chain"].misses == before + 1
        assert _signature(got) == _signature(other.predict(video))


class TestSubmitHitPath:
    """A warm clip is answered inside ``submit`` while the breaker is
    closed: its future is resolved on return, it counts once, and it
    reaches no batch."""

    def _counts(self, svc) -> tuple[int, ...]:
        stats = svc.stats()
        chain = stats.cache["chain"]
        return (stats.requests, stats.completed, stats.failed,
                stats.batches, chain.hits, chain.misses)

    def test_warm_submit_counts_once_and_runs_no_batch(self, pipeline):
        video = _video("hit-count", 111)
        with StressService(pipeline) as svc:
            svc.predict(video, timeout=30)
            before = self._counts(svc)
            future = svc.submit(Video(video.spec))
            assert future.done()
            after = self._counts(svc)
        assert [b - a for a, b in zip(before, after)] == [1, 1, 0, 0, 1, 0]
        assert _signature(future.result()) == \
            _signature(pipeline.predict(video))

    def test_cold_submit_counts_one_miss(self, pipeline):
        video = _video("miss-count", 112)
        with StressService(pipeline) as svc:
            before = self._counts(svc)
            svc.predict(video, timeout=30)
            after = self._counts(svc)
        assert [b - a for a, b in zip(before, after)] == [1, 1, 0, 1, 0, 1]

    def test_closed_service_refuses_a_warm_clip(self, pipeline):
        video = _video("hit-closed", 113)
        svc = StressService(pipeline)
        svc.predict(video, timeout=30)
        svc.close()
        before = self._counts(svc)
        with pytest.raises(ServiceClosedError):
            svc.submit(video)
        assert self._counts(svc) == before

    def test_full_queue_still_answers_a_warm_clip(self, pipeline):
        """A hit takes no queue slot: with the worker held and the
        queue full, a miss is refused and a warm clip is answered."""
        warm, cold = _video("full-warm", 117), _video("full-cold", 118)
        config = ServiceConfig(max_batch_size=1, max_queue_depth=1)
        with StressService(pipeline, config) as svc:
            svc.predict(warm, timeout=30)
            with svc._swap_lock:
                held = svc.submit(cold)
                while svc.queue_depth():
                    time.sleep(0.001)
                queued = svc.submit(cold)
                with pytest.raises(ServiceOverloadedError):
                    svc.submit(cold)
                hit = svc.submit(warm)
                assert hit.done()
            for future in (held, queued):
                future.result(30)
            rejected = svc.stats().rejected
        assert rejected == 1
        assert _signature(hit.result()) == _signature(pipeline.predict(warm))

    def test_request_that_is_not_a_clip_fails_alone_in_a_batch(
            self, pipeline):
        with StressService(pipeline) as svc:
            before = self._counts(svc)
            error = svc.submit(object()).exception(30)
            after = self._counts(svc)
        assert isinstance(error, AttributeError)
        assert [b - a for a, b in zip(before, after)] == [1, 0, 1, 1, 0, 0]

    def test_injected_fault_fails_a_warm_submit_and_trips_the_breaker(
            self, pipeline):
        """At rate 1.0 the ``serve.execute`` site fails a hit at
        submit, and the breaker records it: after the warm-up success,
        one failure reaches the 0.5 threshold of a window of two."""
        video = _video("hit-fault", 114)
        config = ServiceConfig(breaker=BreakerConfig(
            window=2, failure_threshold=0.5, min_volume=2,
            open_duration_s=60.0))
        plan = FaultPlan([FaultSpec(site="serve.execute", rate=1.0)])
        with StressService(pipeline, config) as svc:
            svc.predict(video, timeout=30)
            before = self._counts(svc)
            with injected(plan):
                future = svc.submit(video)
            assert future.done()
            after = self._counts(svc)
            state = svc.breaker.state
        assert isinstance(future.exception(), FaultInjectedError)
        assert [b - a for a, b in zip(before, after)] == [1, 0, 1, 0, 1, 0]
        assert plan.counts()["serve.execute"] == SiteCounts(hits=1, faults=1)
        assert state == OPEN


class TestInjectedDelay:
    """``serve.execute:mode=delay`` delays a request where it passes
    the site: a warm hit in the submitting thread, a miss inside its
    batch on the worker.  Both still answer bitwise."""

    def test_delay_lands_where_each_request_passes_the_site(
            self, pipeline, monkeypatch):
        sleeps = []
        real_sleep = time.sleep

        def recorded_sleep(seconds):
            sleeps.append((threading.current_thread().name, seconds))
            real_sleep(seconds)

        monkeypatch.setattr(faults, "time",
                            SimpleNamespace(sleep=recorded_sleep))
        warm, cold = _video("delay-warm", 115), _video("delay-cold", 116)
        plan = FaultPlan.from_spec(
            "serve.execute:rate=1.0,mode=delay,delay_ms=20")
        with StressService(pipeline) as svc:
            svc.predict(warm, timeout=30)
            with injected(plan):
                started = time.perf_counter()
                hit = svc.submit(warm)
                hit_s = time.perf_counter() - started
                assert hit.done()
                miss = svc.predict(cold, timeout=30)
            failed = svc.stats().failed
        assert sleeps == [(threading.current_thread().name, 0.02),
                          ("stress-service", 0.02)]
        assert hit_s >= 0.02
        assert plan.counts()["serve.execute"] == SiteCounts(hits=2, faults=2)
        assert failed == 0
        assert _signature(hit.result()) == _signature(pipeline.predict(warm))
        assert _signature(miss) == _signature(pipeline.predict(cold))
