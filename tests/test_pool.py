"""The sharded replica pool: equivalence, routing, hot-swap, canary.

The load-bearing guarantees (DESIGN.md section 13):

- a one-replica pool returns results bitwise-identical to a plain
  :class:`StressService` (which is itself pinned bitwise to serial
  ``pipeline.predict`` by the golden and equivalence suites);
- routing is sticky on content -- repeats of a clip land on the same
  replica, so that replica's caches stay hot;
- a hot-swap deploy fails zero in-flight requests;
- a canary whose circuit breaker trips is rolled back and the deploy
  raises :class:`DeploymentError`.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.cot.chain import ChainResult, StressChainPipeline
from repro.errors import (
    CircuitOpenError,
    ConfigError,
    DeploymentError,
    PoolError,
    ServiceClosedError,
)
from repro.model.foundation import FoundationModel
from repro.model.registry import ModelRegistry
from repro.reliability.breaker import BreakerConfig
from repro.reliability.faults import FaultPlan, FaultSpec, injected
from repro.reliability.retry import RetryPolicy
from repro.rng import make_rng
from repro.serving import ServiceConfig, StressService
from repro.serving.pool import (
    DEFAULT_VNODES,
    ReplicaPool,
    _HashRing,
    clone_pipeline,
    resolve_pool_backend,
    resolve_pool_replicas,
)
from repro.video.frame import Video, VideoSpec

GOLDEN_PATH = Path(__file__).parent / "golden" / "chain_golden.json"


def _golden_videos() -> list[Video]:
    """The four pinned clips of ``tests/golden/chain_golden.json``
    (same construction as ``test_golden_chain._golden_videos``)."""
    videos = []
    for index, (name, scale) in enumerate([
        ("calm", 0.15), ("ramp", 0.6), ("intense", 0.95), ("noisy", 0.5),
    ]):
        rng = np.random.default_rng(900 + index)
        curves = np.zeros((12, 12))
        curves[:, index % 12] = np.linspace(0.05, scale, 12)
        curves[:, (index + 3) % 12] = scale * 0.7
        if name == "noisy":
            curves = np.clip(curves + rng.random((12, 12)) * 0.3, 0, 1)
        videos.append(Video(VideoSpec(
            video_id=f"golden-{name}", subject_id=f"golden-subj-{index}",
            au_intensities=curves, identity=rng.standard_normal(8),
            noise_scale=0.02, seed=7_000 + index,
        )))
    return videos


def _pipeline(seed: int = 123, scope: str = "golden-model"):
    return StressChainPipeline(FoundationModel(make_rng(seed, scope)))


def _videos(count: int, offset: int = 0) -> list[Video]:
    videos = []
    for index in range(count):
        rng = np.random.default_rng(1_500 + offset + index)
        videos.append(Video(VideoSpec(
            video_id=f"pool-{offset + index}",
            subject_id=f"pool-subj-{offset + index}",
            au_intensities=np.clip(rng.random((12, 12)), 0, 1),
            identity=rng.standard_normal(8),
            seed=11_000 + offset + index,
        )))
    return videos


def _assert_same_result(got: ChainResult, want: ChainResult) -> None:
    assert got.label == want.label
    assert got.prob_stressed == want.prob_stressed
    assert tuple(got.rationale) == tuple(want.rationale)
    assert got.session.transcript() == want.session.transcript()


def _open_breaker(pool: ReplicaPool, index: int = 0) -> None:
    breaker = pool._replicas[index].breaker
    for __ in range(breaker.config.window):
        breaker.record(False)


# ----------------------------------------------------------------------
# Equivalence
# ----------------------------------------------------------------------


class TestEquivalence:
    def test_single_replica_matches_golden_fixtures(self):
        """``ReplicaPool(num_replicas=1)`` reproduces the pinned golden
        chain outputs bitwise -- the same fixtures the serial and
        served paths are pinned to."""
        recorded = {case["case"]: case
                    for case in json.loads(GOLDEN_PATH.read_text())}
        with ReplicaPool(_pipeline(), num_replicas=1) as pool:
            for video in _golden_videos():
                result = pool.predict(video, timeout=30)
                want = recorded[f"chain/{video.video_id}"]
                assert result.label == want["label"]
                assert result.prob_stressed == want["prob_stressed"]
                assert list(result.rationale) == want["rationale_aus"]
                transcript = result.session.transcript()
                assert hashlib.sha1(transcript.encode()).hexdigest() == \
                    want["transcript_sha1"]

    def test_single_replica_matches_stress_service(self):
        videos = _videos(6)
        with StressService(_pipeline()) as service:
            reference = [service.predict(v, timeout=30) for v in videos]
        with ReplicaPool(_pipeline(), num_replicas=1) as pool:
            for video, want in zip(videos, reference):
                _assert_same_result(pool.predict(video, timeout=30), want)

    def test_multi_replica_thread_matches_serial(self):
        videos = _videos(8)
        reference = [_pipeline().predict(v) for v in videos]
        with ReplicaPool(_pipeline(), num_replicas=4,
                         backend="thread") as pool:
            for video, want in zip(videos, reference):
                _assert_same_result(pool.predict(video, timeout=30), want)
            assert sum(pool.stats().routed) == len(videos)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_multi_replica_process_matches_serial(self):
        videos = _videos(6)
        reference = [_pipeline().predict(v) for v in videos]
        with ReplicaPool(_pipeline(), num_replicas=2,
                         backend="process") as pool:
            for video, want in zip(videos, reference):
                _assert_same_result(pool.predict(video, timeout=60), want)

    def test_clone_pipeline_is_independent_and_identical(self):
        pipeline = _pipeline()
        clone = clone_pipeline(pipeline)
        assert clone is not pipeline
        assert clone.model is not pipeline.model
        assert clone.model.fingerprint() == pipeline.model.fingerprint()
        video = _videos(1)[0]
        _assert_same_result(clone.predict(video), pipeline.predict(video))


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------


class TestRouting:
    def test_repeats_land_on_the_same_replica(self):
        videos = _videos(10)
        with ReplicaPool(_pipeline(), num_replicas=4) as pool:
            first = [pool.route(v) for v in videos]
            again = [pool.route(v) for v in videos]
        assert first == again

    def test_ring_is_stable_under_scale_out(self):
        """Growing the pool only *moves* keys to the new replica --
        no key changes hands between surviving replicas."""
        small, large = _HashRing(3), _HashRing(4)
        keys = [f"content-{i}" for i in range(500)]
        moved = sum(1 for k in keys if small.route(k) != large.route(k))
        stolen = [k for k in keys
                  if small.route(k) != large.route(k) and large.route(k) != 3]
        assert stolen == []
        assert 0 < moved < len(keys)

    def test_ring_spreads_keys(self):
        ring = _HashRing(4, vnodes=DEFAULT_VNODES)
        counts = Counter(ring.route(f"key-{i}") for i in range(4_000))
        assert set(counts) == {0, 1, 2, 3}
        assert min(counts.values()) > 4_000 // 4 // 3

    def test_routed_counters_track_submissions(self):
        videos = _videos(9)
        with ReplicaPool(_pipeline(), num_replicas=3) as pool:
            for video in videos:
                pool.predict(video, timeout=30)
            snapshot = pool.stats()
        assert sum(snapshot.routed) == len(videos)
        assert snapshot.requests == len(videos)
        assert snapshot.num_replicas == 3
        assert len(snapshot.replicas) == 3

    def test_duplicate_content_keeps_one_replica_cache_hot(self):
        video = _videos(1)[0]
        with ReplicaPool(_pipeline(), num_replicas=4) as pool:
            index = pool.route(video)
            for __ in range(5):
                pool.predict(video, timeout=30)
            snapshot = pool.stats()
        assert snapshot.routed[index] == 5
        assert sum(count for i, count in enumerate(snapshot.routed)
                   if i != index) == 0


# ----------------------------------------------------------------------
# Concurrency
# ----------------------------------------------------------------------


class TestConcurrency:
    def test_concurrent_clients_get_correct_results(self):
        videos = _videos(8)
        reference = {v.video_id: _pipeline().predict(v) for v in videos}
        failures: list[BaseException] = []

        def client(pool: ReplicaPool, worklist: list[Video]) -> None:
            try:
                for video in worklist:
                    result = pool.predict(video, timeout=60)
                    _assert_same_result(result, reference[video.video_id])
            except BaseException as exc:  # noqa: BLE001 - collected
                failures.append(exc)

        with ReplicaPool(_pipeline(), num_replicas=4) as pool:
            threads = [
                threading.Thread(target=client,
                                 args=(pool, videos[i::4] + videos[:2]))
                for i in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert failures == []


# ----------------------------------------------------------------------
# Hot-swap deploys
# ----------------------------------------------------------------------


@pytest.fixture()
def registry(tmp_path):
    registry = ModelRegistry(tmp_path / "registry")
    registry.publish("v1", _pipeline())
    registry.publish("v2", _pipeline(seed=77, scope="pool-v2"))
    return registry


class TestDeploy:
    def test_full_deploy_swaps_every_replica(self, registry):
        want = registry.load("v2").model.fingerprint()
        with ReplicaPool.from_registry(registry, "v1",
                                       num_replicas=2) as pool:
            deployment = pool.deploy("v2")
            assert deployment.state == "complete"
            assert pool.version == "v2"
            assert set(pool.fingerprints()) == {want}

    def test_swap_serves_new_model_results(self, registry):
        video = _videos(1)[0]
        v2_result = registry.load("v2").predict(video)
        with ReplicaPool.from_registry(registry, "v1",
                                       num_replicas=1) as pool:
            pool.predict(video, timeout=30)
            pool.deploy("v2")
            _assert_same_result(pool.predict(video, timeout=30), v2_result)

    def test_hot_swap_fails_zero_in_flight_requests(self, registry):
        """Deploy mid-load: every already-submitted and every
        subsequent request resolves; none fails."""
        videos = _videos(24)
        with ReplicaPool.from_registry(registry, "v1", num_replicas=2,
                                       config=ServiceConfig(
                                           max_wait_ms=5.0)) as pool:
            first = [pool.submit(video) for video in videos]
            deployment = pool.deploy("v2")
            second = [pool.submit(video) for video in videos]
            results = [f.result(timeout=60) for f in first + second]
        assert deployment.state == "complete"
        assert all(isinstance(r, ChainResult) for r in results)

    def test_canary_then_promote(self, registry):
        v1 = registry.load("v1").model.fingerprint()
        v2 = registry.load("v2").model.fingerprint()
        with ReplicaPool.from_registry(registry, "v1",
                                       num_replicas=4) as pool:
            deployment = pool.deploy("v2", canary_fraction=0.5)
            assert deployment.state == "canary"
            assert deployment.canaries == (0, 1)
            fingerprints = pool.fingerprints()
            assert fingerprints.count(v2) == 2
            assert fingerprints.count(v1) == 2
            deployment.promote()
            assert deployment.state == "complete"
            assert set(pool.fingerprints()) == {v2}
            assert pool.version == "v2"

    def test_canary_breaker_trip_rolls_back(self, registry):
        v1 = registry.load("v1").model.fingerprint()
        with ReplicaPool.from_registry(registry, "v1",
                                       num_replicas=4) as pool:
            deployment = pool.deploy("v2", canary_fraction=0.25)
            breaker = pool._replicas[0].breaker
            assert breaker is not None
            for __ in range(breaker.config.window):
                breaker.record(False)
            with pytest.raises(DeploymentError, match="rolled back"):
                deployment.promote()
            assert deployment.state == "rolled_back"
            assert set(pool.fingerprints()) == {v1}
            assert pool.version == "v1"

    def test_promote_on_complete_deployment_is_a_noop(self, registry):
        """A full deploy auto-completes; an unconditional promote()
        after it must not raise (nothing failed)."""
        with ReplicaPool.from_registry(registry, "v1",
                                       num_replicas=2) as pool:
            deployment = pool.deploy("v2")
            assert deployment.state == "complete"
            deployment.promote()
            assert deployment.state == "complete"
            assert pool.version == "v2"

    def test_canary_covering_whole_pool_auto_completes(self, registry):
        """Any canary fraction on a one-replica pool covers the pool:
        the deployment completes immediately and promote() is a
        harmless no-op."""
        with ReplicaPool.from_registry(registry, "v1",
                                       num_replicas=1) as pool:
            deployment = pool.deploy("v2", canary_fraction=0.5)
            assert deployment.state == "complete"
            deployment.promote()
            assert pool.version == "v2"

    def test_promote_after_rollback_raises(self, registry):
        with ReplicaPool.from_registry(registry, "v1",
                                       num_replicas=4) as pool:
            deployment = pool.deploy("v2", canary_fraction=0.5)
            deployment.rollback()
            with pytest.raises(DeploymentError, match="rolled_back"):
                deployment.promote()

    def test_explicit_rollback_restores_previous(self, registry):
        v1 = registry.load("v1").model.fingerprint()
        with ReplicaPool.from_registry(registry, "v1",
                                       num_replicas=2) as pool:
            deployment = pool.deploy("v2")
            deployment.rollback()
            assert set(pool.fingerprints()) == {v1}
            assert pool.version == "v1"

    def test_rollback_keeps_thread_replica_pipelines_distinct(self, registry):
        """A thread pool seeded from a bare pipeline rolls each replica
        back to its OWN clone.  A shared payload would install one
        mutable pipeline into every replica, and the concurrent workers
        would then race on its forward/feature cache."""
        with ReplicaPool(_pipeline(), num_replicas=3, backend="thread",
                         registry=registry) as pool:
            before = [id(r.service.pipeline) for r in pool._replicas]
            assert len(set(before)) == 3
            deployment = pool.deploy("v2")
            deployment.rollback()
            after = [id(r.service.pipeline) for r in pool._replicas]
            assert after == before
            # And the restored pool still computes correct results.
            video = _videos(1)[0]
            _assert_same_result(pool.predict(video, timeout=30),
                                _pipeline().predict(video))

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_process_pool_deploy_and_rollback(self, registry):
        v1 = registry.load("v1").model.fingerprint()
        v2 = registry.load("v2").model.fingerprint()
        video = _videos(1)[0]
        with ReplicaPool.from_registry(registry, "v1", num_replicas=2,
                                       backend="process") as pool:
            deployment = pool.deploy("v2")
            assert set(pool.fingerprints()) == {v2}
            assert isinstance(pool.predict(video, timeout=60), ChainResult)
            deployment.rollback()
            assert set(pool.fingerprints()) == {v1}

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_process_replica_counts_breaker_shed_batches(self):
        """Batches failed fast on an open breaker still show up in the
        replica's stats snapshot, matching the thread path."""
        config = ServiceConfig(breaker=BreakerConfig(), max_wait_ms=200.0)
        with ReplicaPool(_pipeline(), num_replicas=1, backend="process",
                         config=config) as pool:
            _open_breaker(pool)
            futures = [pool.submit(video) for video in _videos(3)]
            for future in futures:
                assert isinstance(future.exception(timeout=60),
                                  CircuitOpenError)
            snapshot = pool.stats().replicas[0]
        assert snapshot.batches == 1
        assert snapshot.mean_batch_occupancy == 3.0

    def test_deploy_needs_a_registry(self):
        with ReplicaPool(_pipeline(), num_replicas=1) as pool:
            with pytest.raises(DeploymentError, match="needs a ModelRegistry"):
                pool.deploy("v2")

    def test_bad_canary_fraction(self, registry):
        with ReplicaPool.from_registry(registry, "v1",
                                       num_replicas=1) as pool:
            with pytest.raises(ConfigError, match="canary_fraction"):
                pool.deploy("v2", canary_fraction=0.0)


# ----------------------------------------------------------------------
# Configuration and lifecycle
# ----------------------------------------------------------------------


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
class TestProcessBackend:
    """A process replica is a StressService over a pipe executor, so it
    has the thread backend's degraded mode, cache stats and retry."""

    def test_open_breaker_serves_cached_clip_degraded(self):
        video = _videos(1)[0]
        want = _pipeline().predict(video)
        with ReplicaPool(_pipeline(), num_replicas=1,
                         backend="process") as pool:
            pool.predict(video, timeout=60)  # fills the child's caches
            _open_breaker(pool)
            got = pool.predict(video, timeout=60)
            assert got.degraded is True
            _assert_same_result(got, want)
            with pytest.raises(CircuitOpenError):
                pool.predict(_videos(1, offset=50)[0], timeout=60)
            assert pool.stats().replicas[0].degraded == 1

    def test_stats_report_the_child_stage_caches(self):
        videos = _videos(3)
        with ReplicaPool(_pipeline(), num_replicas=1,
                         backend="process") as pool:
            for video in videos + videos:
                pool.predict(video, timeout=60)
            cache = pool.stats().replicas[0].cache
        assert set(cache) == {"describe", "assess", "highlight"}
        assert cache["describe"].size == 3
        for stage in cache.values():
            assert stage.hits >= 3 and stage.misses >= 3

    def test_retry_policy_retries_a_transient_execute_fault(self):
        video = _videos(1)[0]
        want = _pipeline().predict(video)
        config = ServiceConfig(retry_policy=RetryPolicy(
            max_attempts=2, base_delay_ms=0.1, max_delay_ms=0.5))
        # Armed before the pool forks, so the child inherits the plan:
        # its first serve.execute faults and the retry succeeds.
        plan = FaultPlan([FaultSpec(site="serve.execute", rate=1.0,
                                    max_faults=1)], seed=1)
        with injected(plan), ReplicaPool(_pipeline(), num_replicas=1,
                                         backend="process",
                                         config=config) as pool:
            got = pool.predict(video, timeout=60)
            snapshot = pool.stats().replicas[0]
        _assert_same_result(got, want)
        assert snapshot.retries == 1
        assert snapshot.failed == 0


class TestConfig:
    def test_replica_count_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_POOL_REPLICAS", "3")
        assert resolve_pool_replicas() == 3
        assert resolve_pool_replicas(2) == 2

    def test_backend_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_POOL_BACKEND", "process")
        assert resolve_pool_backend() in ("process", "thread")
        monkeypatch.delenv("REPRO_POOL_BACKEND")
        assert resolve_pool_backend() == "thread"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError, match="unknown pool backend"):
            resolve_pool_backend("gpu")

    def test_bad_replica_count_rejected(self):
        with pytest.raises(PoolError, match="num_replicas"):
            resolve_pool_replicas(0)

    def test_submit_after_close_raises(self):
        pool = ReplicaPool(_pipeline(), num_replicas=1)
        pool.close()
        with pytest.raises(ServiceClosedError):
            pool.submit(_videos(1)[0])

    def test_from_registry_empty_registry(self, tmp_path):
        with pytest.raises(PoolError, match="no versions"):
            ReplicaPool.from_registry(ModelRegistry(tmp_path / "empty"))


class TestServiceSwap:
    def test_swap_pipeline_clears_caches_and_serves_new_weights(self):
        video = _videos(1)[0]
        new_pipeline = _pipeline(seed=77, scope="pool-v2")
        want = new_pipeline.predict(video)
        with StressService(_pipeline()) as service:
            service.predict(video, timeout=30)
            assert len(service.caches.describe) > 0
            service.swap_pipeline(new_pipeline)
            assert len(service.caches.describe) == 0
            _assert_same_result(service.predict(video, timeout=30), want)

    def test_swap_rejects_non_pipeline(self):
        with StressService(_pipeline()) as service:
            with pytest.raises(TypeError, match="StressChainPipeline"):
                service.swap_pipeline(object())
