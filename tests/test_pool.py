"""The sharded replica pool: equivalence, routing, hot-swap, canary.

The load-bearing guarantees (DESIGN.md section 13):

- a one-replica pool is one in-process :class:`StressService` and
  returns results bitwise-identical to a plain one (which is itself
  pinned bitwise to serial ``pipeline.predict`` by the golden and
  equivalence suites); a pool of more replicas forks one child per
  replica and needs ``os.fork``;
- routing is sticky on content -- repeats of a clip land on the same
  replica, so that replica's caches stay hot;
- a hot-swap deploy fails zero in-flight requests, and a deploy that
  fails part-way leaves every replica on its previous version;
- a canary whose circuit breaker trips is rolled back and the deploy
  raises :class:`DeploymentError`.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.config import ENV_VARS, env_value
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
from repro.serving import pool as pool_module
from repro.serving.pool import (
    ReplicaPool,
    _HashRing,
    resolve_pool_replicas,
)
from repro.video.frame import Video, VideoSpec

GOLDEN_PATH = Path(__file__).parent / "golden" / "chain_golden.json"

#: Marks a test that builds a pool of more than one replica: each
#: replica is a forked child process.
needs_fork = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="replicas beyond one fork")


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


def _routed_to(pool: ReplicaPool, index: int, count: int,
               offset: int = 0) -> list[Video]:
    """``count`` distinct clips that ``pool`` routes to replica
    ``index``."""
    videos = [video for video in _videos(40 * count, offset)
              if pool.route(video) == index]
    assert len(videos) >= count
    return videos[:count]


def _kill_replica(pool: ReplicaPool, index: int) -> None:
    """SIGKILL replica ``index``'s child process and reap it."""
    process = pool._replicas[index].executor._process
    os.kill(process.pid, signal.SIGKILL)
    process.join(30)
    assert not process.is_alive()


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

    @needs_fork
    def test_multi_replica_process_matches_serial(self):
        videos = _videos(6)
        reference = [_pipeline().predict(v) for v in videos]
        with ReplicaPool(_pipeline(), num_replicas=2) as pool:
            for video, want in zip(videos, reference):
                _assert_same_result(pool.predict(video, timeout=60), want)
            assert sum(pool.stats().routed) == len(videos)

    def test_single_replica_serves_the_callers_pipeline(self):
        """A one-replica pool serves the caller's pipeline object in
        process, and concurrent clients over cold clips (each one a
        feature-cache miss) still match serial ``predict`` on a
        separately built pipeline."""
        videos = _videos(64, offset=200)
        reference = _pipeline()
        want = {v.video_id: reference.predict(v) for v in videos}
        pipeline = _pipeline()
        failures: list[BaseException] = []

        def client(pool: ReplicaPool, worklist: list[Video]) -> None:
            try:
                for video in worklist:
                    _assert_same_result(pool.predict(video, timeout=60),
                                        want[video.video_id])
            except BaseException as exc:  # noqa: BLE001 - collected
                failures.append(exc)

        with ReplicaPool(pipeline, num_replicas=1) as pool:
            assert pool._replicas[0].executor.pipeline is pipeline
            threads = [threading.Thread(target=client,
                                        args=(pool, videos[i::8]))
                       for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            routed = pool.stats().routed
        assert failures == []
        assert routed == (len(videos),)


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------


class TestRouting:
    @needs_fork
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
        ring = _HashRing(4)
        counts = Counter(ring.route(f"key-{i}") for i in range(4_000))
        assert set(counts) == {0, 1, 2, 3}
        assert min(counts.values()) > 4_000 // 4 // 3

    @needs_fork
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

    @needs_fork
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
    @needs_fork
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

    @needs_fork
    def test_sharded_caches_miss_each_clip_once(self):
        """16 clients each request all 16 clips, in their own order,
        from 4 replicas: routing on content sends every repeat of a
        clip to the replica that already holds it, so the pool misses
        each clip exactly once -- as one service's cache would."""
        num_clients = 16
        videos = _videos(16, offset=300)
        reference = {v.video_id: _pipeline().predict(v) for v in videos}
        failures: list[BaseException] = []

        def client(pool: ReplicaPool, seed: int) -> None:
            order = np.random.default_rng(seed).permutation(len(videos))
            try:
                for index in order:
                    video = videos[index]
                    result = pool.predict(video, timeout=60)
                    _assert_same_result(result, reference[video.video_id])
            except BaseException as exc:  # noqa: BLE001 - collected
                failures.append(exc)

        with ReplicaPool(_pipeline(), num_replicas=4) as pool:
            threads = [threading.Thread(target=client, args=(pool, seed))
                       for seed in range(num_clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
            assert not any(thread.is_alive() for thread in threads)
            snapshot = pool.stats()
        assert failures == []
        assert snapshot.requests == num_clients * len(videos)
        assert sum(replica.cache["chain"].misses
                   for replica in snapshot.replicas) == len(videos)


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
    @needs_fork
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

    @needs_fork
    def test_hot_swap_fails_zero_in_flight_requests(self, registry):
        """Deploy mid-load: every already-submitted and every
        subsequent request resolves, none fails, and every request
        submitted after the deploy returned gets v2's answer."""
        videos = _videos(24)
        with ReplicaPool.from_registry(registry, "v1",
                                       num_replicas=2) as pool:
            first = [pool.submit(video) for video in videos]
            deployment = pool.deploy("v2")
            second = [pool.submit(video) for video in videos]
            results = [f.result(timeout=60) for f in first + second]
        assert deployment.state == "complete"
        assert all(isinstance(r, ChainResult) for r in results)
        v2 = registry.load("v2")
        for video, got in zip(videos, results[len(videos):]):
            _assert_same_result(got, v2.predict(video))

    @needs_fork
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

    @needs_fork
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

    @needs_fork
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

    @needs_fork
    def test_promote_after_rollback_raises(self, registry):
        with ReplicaPool.from_registry(registry, "v1",
                                       num_replicas=4) as pool:
            deployment = pool.deploy("v2", canary_fraction=0.5)
            deployment.rollback()
            with pytest.raises(DeploymentError, match="rolled_back"):
                deployment.promote()

    @needs_fork
    def test_explicit_rollback_restores_previous(self, registry):
        v1 = registry.load("v1").model.fingerprint()
        with ReplicaPool.from_registry(registry, "v1",
                                       num_replicas=2) as pool:
            deployment = pool.deploy("v2")
            deployment.rollback()
            assert set(pool.fingerprints()) == {v1}
            assert pool.version == "v1"

    def test_rollback_restores_the_callers_pipeline(self, registry):
        """A one-replica pool seeded from a bare pipeline serves the
        deployed version, and a rollback puts the caller's pipeline
        object back, computing correct results."""
        pipeline = _pipeline()
        videos = _videos(3)
        with ReplicaPool(pipeline, num_replicas=1,
                         registry=registry) as pool:
            deployment = pool.deploy("v2")
            assert pool._replicas[0].executor.pipeline is not pipeline
            v2 = registry.load("v2")
            for video in videos:
                _assert_same_result(pool.predict(video, timeout=30),
                                    v2.predict(video))
            deployment.rollback()
            assert pool._replicas[0].executor.pipeline is pipeline
            assert pool.version is None
            for video in videos:
                _assert_same_result(pool.predict(video, timeout=30),
                                    _pipeline().predict(video))

    @needs_fork
    def test_process_pool_deploy_and_rollback(self, registry):
        v1 = registry.load("v1").model.fingerprint()
        v2 = registry.load("v2").model.fingerprint()
        video = _videos(1)[0]
        with ReplicaPool.from_registry(registry, "v1",
                                       num_replicas=2) as pool:
            deployment = pool.deploy("v2")
            assert set(pool.fingerprints()) == {v2}
            assert isinstance(pool.predict(video, timeout=60), ChainResult)
            deployment.rollback()
            assert set(pool.fingerprints()) == {v1}

    @needs_fork
    def test_process_replica_counts_breaker_shed_batches(self):
        """Batches failed fast on an open breaker still show up in a
        forked replica's stats snapshot, as in process."""
        config = ServiceConfig(breaker=BreakerConfig())
        with ReplicaPool(_pipeline(), num_replicas=2,
                         config=config) as pool:
            _open_breaker(pool, 1)
            # Hold the worker on a first batch so the next three
            # requests queue behind it and leave as one batch.
            batcher = pool._replicas[1]._batcher
            process_batch = batcher._on_batch
            busy, release = threading.Event(), threading.Event()

            def gated(items):
                busy.set()
                release.wait(60)
                return process_batch(items)

            batcher._on_batch = gated
            videos = _routed_to(pool, 1, 4)
            futures = [pool.submit(videos[0])]
            assert busy.wait(60)
            futures += [pool.submit(video) for video in videos[1:]]
            release.set()
            for future in futures:
                assert isinstance(future.exception(timeout=60),
                                  CircuitOpenError)
            snapshot = pool.stats().replicas[1]
        assert snapshot.batches == 2
        assert snapshot.mean_batch_occupancy == 2.0

    def test_deploy_needs_a_registry(self):
        with ReplicaPool(_pipeline(), num_replicas=1) as pool:
            with pytest.raises(DeploymentError, match="needs a ModelRegistry"):
                pool.deploy("v2")

    def test_bad_canary_fraction(self, registry):
        with ReplicaPool.from_registry(registry, "v1",
                                       num_replicas=1) as pool:
            with pytest.raises(ConfigError, match="canary_fraction"):
                pool.deploy("v2", canary_fraction=0.0)

    @needs_fork
    def test_deploy_loads_the_artifact_once(self, registry, monkeypatch):
        """A deploy to 4 forked replicas loads v2 once in the parent
        and every replica's parent side keys on that one pipeline (each
        child still loads the path and vouches for its fingerprint); a
        rollback re-installs what the replicas served, loading
        nothing."""
        from repro.model import persistence

        loads = []
        load = persistence.load_pipeline

        def counting_load(path):
            loads.append(path)
            return load(path)

        with ReplicaPool.from_registry(registry, "v1",
                                       num_replicas=4) as pool:
            before = pool._replicas[0].executor.pipeline
            monkeypatch.setattr(persistence, "load_pipeline", counting_load)
            deployment = pool.deploy("v2")
            assert len(loads) == 1
            served = {id(service.executor.pipeline)
                      for service in pool._replicas}
            assert len(served) == 1
            assert set(pool.fingerprints()) == {
                load(registry.verified_artifact("v2")).model.fingerprint()}
            deployment.rollback()
            assert len(loads) == 1
            assert all(service.executor.pipeline is before
                       for service in pool._replicas)

    @needs_fork
    def test_failed_deploy_swaps_done_replicas_back(self, registry):
        """A deploy whose second swap fails (that replica's child is
        dead) swaps the first replica back before it raises: the pool
        serves v1 everywhere and still says so."""
        v1 = registry.load("v1").model.fingerprint()
        with ReplicaPool.from_registry(registry, "v1",
                                       num_replicas=2) as pool:
            _kill_replica(pool, 1)
            with pytest.raises(PoolError, match="exited"):
                pool.deploy("v2")
            assert pool._replicas[0].executor.fingerprint() == v1
            # The dead replica's parent side kept v1 too: its swap
            # raised before the parent's copy changed.
            assert pool._replicas[1].executor.fingerprint() == v1
            assert pool.version == "v1"
            video = _routed_to(pool, 0, 1)[0]
            _assert_same_result(pool.predict(video, timeout=60),
                                registry.load("v1").predict(video))

    @needs_fork
    def test_failed_promote_swaps_rolled_forward_replicas_back(self,
                                                               registry):
        """A promote whose last swap fails swaps the replicas it had
        rolled forward back: only the canary serves v2, and the
        deployment is still a canary."""
        v1 = registry.load("v1").model.fingerprint()
        v2 = registry.load("v2").model.fingerprint()
        with ReplicaPool.from_registry(registry, "v1",
                                       num_replicas=3) as pool:
            deployment = pool.deploy("v2", canary_fraction=0.34)
            assert deployment.canaries == (0,)
            _kill_replica(pool, 2)
            with pytest.raises(PoolError, match="exited"):
                deployment.promote()
            assert deployment.state == "canary"
            assert pool.version == "v1"
            assert [pool._replicas[i].executor.fingerprint()
                    for i in (0, 1)] == [v2, v1]
            deployment.rollback()
            assert pool._replicas[0].executor.fingerprint() == v1

    @needs_fork
    def test_forked_swap_clears_the_parent_cache(self, registry):
        """The chain cache of a forked replica lives in the parent, and
        a deploy clears it there: the warmed clip misses again and
        gets v2's answer."""
        v2 = registry.load("v2")
        with ReplicaPool.from_registry(registry, "v1",
                                       num_replicas=2) as pool:
            video = _routed_to(pool, 1, 1)[0]
            pool.predict(video, timeout=60)
            assert pool.stats().replicas[1].cache["chain"].size == 1
            pool.deploy("v2")
            assert pool.stats().replicas[1].cache["chain"].size == 0
            _assert_same_result(pool.predict(video, timeout=60),
                                v2.predict(video))
            assert pool._replicas[1].executor.fingerprint() == \
                v2.model.fingerprint()

    @needs_fork
    def test_forked_swap_refuses_a_fingerprint_mismatch(self, registry,
                                                        monkeypatch):
        """The child's swap reply is its fingerprint; one that differs
        from the parent's copy raises, and the parent keeps its
        pipeline and its cache."""
        with ReplicaPool.from_registry(registry, "v1",
                                       num_replicas=2) as pool:
            executor = pool._replicas[1].executor
            served = executor.pipeline
            pool.predict(_routed_to(pool, 1, 1)[0], timeout=60)
            other = _pipeline(seed=5, scope="pool-other")
            monkeypatch.setattr(pool_module, "_as_pipeline",
                                lambda source: other)
            with pytest.raises(PoolError, match="fingerprint"):
                pool._replicas[1].swap_pipeline(
                    registry.verified_artifact("v2"))
            assert executor.pipeline is served
            assert pool.stats().replicas[1].cache["chain"].size == 1

    @pytest.mark.parametrize("num_replicas", [
        1, pytest.param(2, marks=needs_fork)])
    def test_deploy_on_closed_pool_raises(self, registry, num_replicas):
        """Nothing serves a closed pool, so a deploy is refused up
        front, as a submit is, and the version does not move."""
        pool = ReplicaPool.from_registry(registry, "v1",
                                         num_replicas=num_replicas)
        pool.close()
        with pytest.raises(ServiceClosedError):
            pool.deploy("v2")
        assert pool.version == "v1"


# ----------------------------------------------------------------------
# Configuration and lifecycle
# ----------------------------------------------------------------------


@needs_fork
class TestDeadChild:
    """A forked replica's chain cache lives in the parent, so a replica
    whose child was killed still answers the clips it cached; only
    misses need the child."""

    def _warm_then_kill(self, pool: ReplicaPool) -> tuple[Video, Video]:
        warm, cold = _routed_to(pool, 1, 2)
        pool.predict(warm, timeout=60)
        _kill_replica(pool, 1)
        return warm, cold

    def test_closed_breaker_answers_warm_clip_and_fails_cold(self):
        with ReplicaPool(_pipeline(), num_replicas=2) as pool:
            warm, cold = self._warm_then_kill(pool)
            got = pool.predict(warm, timeout=60)
            assert got.degraded is False
            _assert_same_result(got, _pipeline().predict(warm))
            with pytest.raises(PoolError, match="exited"):
                pool.predict(cold, timeout=60)

    def test_open_breaker_answers_warm_clip_degraded(self):
        with ReplicaPool(_pipeline(), num_replicas=2) as pool:
            warm, cold = self._warm_then_kill(pool)
            _open_breaker(pool, 1)
            got = pool.predict(warm, timeout=60)
            assert got.degraded is True
            _assert_same_result(got, _pipeline().predict(warm))
            with pytest.raises(CircuitOpenError):
                pool.predict(cold, timeout=60)

    def test_cache_stats_outlive_the_child(self):
        with ReplicaPool(_pipeline(), num_replicas=2) as pool:
            self._warm_then_kill(pool)
            cache = pool.stats().replicas[1].cache
        assert set(cache) == {"chain"}
        assert (cache["chain"].size, cache["chain"].misses) == (1, 1)


@needs_fork
class TestProcessBackend:
    """A forked replica is a StressService over a pipe executor, so it
    has the in-process service's degraded mode, cache stats and
    retry."""

    def test_open_breaker_serves_cached_clip_degraded(self):
        with ReplicaPool(_pipeline(), num_replicas=2) as pool:
            video, other = _routed_to(pool, 1, 2)
            want = _pipeline().predict(video)
            pool.predict(video, timeout=60)  # fills the child's caches
            _open_breaker(pool, 1)
            got = pool.predict(video, timeout=60)
            assert got.degraded is True
            _assert_same_result(got, want)
            with pytest.raises(CircuitOpenError):
                pool.predict(other, timeout=60)
            assert pool.stats().replicas[1].degraded == 1

    def test_stats_report_the_child_stage_caches(self):
        """The chain cache of a forked replica is counted where it
        lives, in the parent: one miss and one hit per clip."""
        with ReplicaPool(_pipeline(), num_replicas=2) as pool:
            videos = _routed_to(pool, 1, 3)
            for video in videos + videos:
                pool.predict(video, timeout=60)
            cache = pool.stats().replicas[1].cache
        assert set(cache) == {"chain"}
        assert cache["chain"].size == 3
        assert cache["chain"].hits == 3 and cache["chain"].misses == 3

    def test_retry_policy_retries_a_transient_execute_fault(self):
        video = _videos(1)[0]
        want = _pipeline().predict(video)
        config = ServiceConfig(retry_policy=RetryPolicy(
            max_attempts=2, base_delay_ms=0.1, max_delay_ms=0.5))
        # serve.execute fires in the parent, before the cache lookup:
        # its first hit faults and the retry succeeds.
        plan = FaultPlan([FaultSpec(site="serve.execute", rate=1.0,
                                    max_faults=1)], seed=1)
        with injected(plan), ReplicaPool(_pipeline(), num_replicas=2,
                                         config=config) as pool:
            got = pool.predict(video, timeout=60)
            snapshot = pool.stats().replicas[pool.route(video)]
        _assert_same_result(got, want)
        assert snapshot.retries == 1
        assert snapshot.failed == 0


class TestReplicaServiceSurface:
    @pytest.mark.parametrize("num_replicas", [
        1, pytest.param(2, marks=needs_fork)])
    def test_public_surface_reads_in_and_out_of_process(self,
                                                         num_replicas):
        """A replica's service has one surface whether its executor
        runs in process or in a forked child: nothing public reaches
        past the executor interface."""
        videos = _videos(4)
        with ReplicaPool(_pipeline(), num_replicas=num_replicas) as pool:
            for video in videos + videos:
                pool.predict(video, timeout=60)
            caches = []
            for service in pool._replicas:
                for name in dir(service):
                    if not name.startswith("_"):
                        getattr(service, name)
                caches.append(service.stats().cache["chain"])
        assert sum(cache.size for cache in caches) == len(videos)
        assert sum(cache.hits for cache in caches) == len(videos)
        assert sum(cache.misses for cache in caches) == len(videos)


class TestConfig:
    def test_replica_count_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_POOL_REPLICAS", "3")
        assert resolve_pool_replicas() == 3
        assert resolve_pool_replicas(2) == 2

    def test_backend_from_env(self, monkeypatch):
        """``REPRO_POOL_BACKEND`` is gone: the replica count alone sets
        a pool's shape, so the variable is not read, even set."""
        monkeypatch.setenv("REPRO_POOL_BACKEND", "thread")
        assert "REPRO_POOL_BACKEND" not in ENV_VARS
        with pytest.raises(ConfigError, match="unknown configuration"):
            env_value("REPRO_POOL_BACKEND")

    def test_unknown_backend_rejected(self):
        """Every backend is unknown now: ``backend=`` is not a
        parameter, so no caller can ask for in-process replicas."""
        with pytest.raises(TypeError, match="backend"):
            ReplicaPool(_pipeline(), num_replicas=1, backend="thread")

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

    def test_multi_replica_without_fork_raises(self, monkeypatch):
        """Replicas beyond one are forked processes: without
        ``os.fork`` the pool refuses to build instead of serving
        something else, while one in-process replica still builds."""
        monkeypatch.delattr(os, "fork", raising=False)
        with pytest.raises(PoolError, match="os.fork"):
            ReplicaPool(_pipeline(), num_replicas=2)
        with ReplicaPool(_pipeline(), num_replicas=1) as pool:
            video = _videos(1)[0]
            _assert_same_result(pool.predict(video, timeout=30),
                                _pipeline().predict(video))


class TestFailedBuild:
    """A pool whose construction raises leaves nothing running: every
    replica it had already started is closed before the error
    propagates."""

    @needs_fork
    def test_process_build_failure_closes_started_replicas(self,
                                                           monkeypatch):
        real = pool_module._PipeExecutor
        built = []

        def second_fails(*args, **kwargs):
            if built:
                raise OSError("no more pipes")
            built.append(real(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(pool_module, "_PipeExecutor", second_fails)
        threads_before = set(threading.enumerate())
        with pytest.raises(OSError, match="no more pipes"):
            ReplicaPool(_pipeline(), num_replicas=3)
        assert len(built) == 1
        assert not built[0]._process.is_alive()
        assert not [t for t in threading.enumerate()
                    if t not in threads_before and t.is_alive()]


class TestServiceSwap:
    def test_swap_pipeline_clears_caches_and_serves_new_weights(self):
        video = _videos(1)[0]
        new_pipeline = _pipeline(seed=77, scope="pool-v2")
        want = new_pipeline.predict(video)
        with StressService(_pipeline()) as service:
            service.predict(video, timeout=30)
            assert service.stats().cache["chain"].size > 0
            service.swap_pipeline(new_pipeline)
            assert service.stats().cache["chain"].size == 0
            _assert_same_result(service.predict(video, timeout=30), want)

    def test_swap_rejects_non_pipeline(self):
        with StressService(_pipeline()) as service:
            with pytest.raises(TypeError, match="StressChainPipeline"):
                service.swap_pipeline(object())
