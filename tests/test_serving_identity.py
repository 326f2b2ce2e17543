"""One content identity: what the serving caches and the router key on.

- Clips that share ``video_id`` and render seed but differ in content
  each get their own answer, bitwise equal to their own serial
  ``predict``, through a service and through one- and two-replica
  pools (the two replicas are forked children); the pool routes on
  the content hash alone.
- Ids that share content each get their own answer from a model whose
  outputs depend on the id (the off-the-shelf proxies seed their
  per-query noise from it), and from a pipeline whose own streams read
  the id (test-time refinement, retrieval), also when the twins leave
  in one batch.
- The model's feature cache stays bounded under many distinct clips.
- Every served request gets its own dialogue session, also when the
  answer was deduplicated in a batch or replayed from the caches.
"""

from __future__ import annotations

import os
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.cot.chain import StressChainPipeline
from repro.datasets.base import Sample
from repro.model.foundation import FoundationModel
from repro.model.instructions import DESCRIBE_INSTRUCTION
from repro.model.pretrained import load_offtheshelf
from repro.retrieval.retriever import RandomRetriever
from repro.rng import make_rng
from repro.serving import ServiceConfig, StressService
from repro.serving.executor import ChainBatchExecutor
from repro.serving.pool import ReplicaPool, _HashRing
from repro.video.frame import Video, VideoSpec

#: Marks a test that builds a pool of more than one replica: each
#: replica is a forked child process.
needs_fork = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="replicas beyond one fork")


def _spec(index: int, video_id: str = "shared-id",
          seed: int = 4242) -> VideoSpec:
    """Clip ``index``: its own AU curves and identity, under the given
    id and render seed."""
    rng = np.random.default_rng([77, index])
    return VideoSpec(
        video_id=video_id, subject_id=f"identity-subj-{index % 4}",
        au_intensities=np.clip(rng.random((12, 12)), 0, 1),
        identity=rng.standard_normal(8), noise_scale=0.02, seed=seed,
    )


def _signature(result) -> tuple:
    return (result.prob_stressed, result.label, result.rationale.au_ids,
            result.session.transcript())


def _pipeline() -> StressChainPipeline:
    return StressChainPipeline(FoundationModel(make_rng(31, "identity")))


def _mismatches(serve, pipeline, specs) -> int:
    """How many of ``specs`` served through ``serve`` (which submits a
    list of videos and returns their results) differ from serial
    ``predict`` of the same clip."""
    served = serve([Video(spec) for spec in specs])
    serial = [pipeline.predict(Video(spec)) for spec in specs]
    return sum(_signature(a) != _signature(b)
               for a, b in zip(served, serial))


def _through(front):
    def serve(videos):
        futures = [front.submit(video) for video in videos]
        return [future.result(timeout=60) for future in futures]
    return serve


# ----------------------------------------------------------------------
# Same id and render seed, different content
# ----------------------------------------------------------------------


class TestSameIdDifferentContent:
    SPECS = [_spec(index) for index in range(40)]

    def test_contents_differ(self):
        hashes = {Video(spec).content_hash for spec in self.SPECS}
        assert len(hashes) == len(self.SPECS)

    def test_service_answers_each_content(self):
        pipeline = _pipeline()
        with StressService(pipeline) as service:
            assert _mismatches(_through(service), pipeline,
                               self.SPECS) == 0

    @pytest.mark.parametrize("num_replicas", [
        1, pytest.param(2, marks=needs_fork)])
    def test_pool_answers_each_content(self, num_replicas):
        pipeline = _pipeline()
        with ReplicaPool(pipeline, num_replicas=num_replicas) as pool:
            assert _mismatches(_through(pool), pipeline, self.SPECS) == 0

    def test_predict_many_answers_each_content(self):
        pipeline = _pipeline()
        assert _mismatches(pipeline.predict_many, pipeline,
                           self.SPECS) == 0

    @needs_fork
    def test_route_is_a_function_of_content_hash(self):
        ring = _HashRing(2)
        with ReplicaPool(_pipeline(), num_replicas=2) as pool:
            routes = [pool.route(Video(spec)) for spec in self.SPECS]
            # Same content under another id routes the same way.
            renamed = [pool.route(Video(replace(spec, video_id="other")))
                       for spec in self.SPECS]
        expected = [ring.route(Video(spec).content_hash)
                    for spec in self.SPECS]
        assert routes == expected
        assert renamed == expected
        assert set(routes) == {0, 1}

    def test_one_replica_routes_everything_to_zero(self):
        with ReplicaPool(_pipeline(), num_replicas=1) as pool:
            assert {pool.route(Video(spec)) for spec in self.SPECS} == {0}


# ----------------------------------------------------------------------
# Same content, different ids, on a model whose outputs read the id
# ----------------------------------------------------------------------


class TestOffTheShelfTwinIds:
    """``OffTheShelfModel`` seeds its per-query noise from the video id,
    so two ids with equal content are two different queries."""

    SPECS = [replace(_spec(index, seed=500 + index), video_id=f"twin-{tag}")
             for index in range(20) for tag in (f"{index}a", f"{index}b")]

    @pytest.fixture(scope="class")
    def gpt4o(self):
        return load_offtheshelf("gpt-4o")

    def test_twins_share_content(self):
        first, second = Video(self.SPECS[0]), Video(self.SPECS[1])
        assert first.content_hash == second.content_hash
        assert first.video_id != second.video_id

    def test_output_identity_adds_the_id(self, gpt4o):
        first, second = Video(self.SPECS[0]), Video(self.SPECS[1])
        assert gpt4o.output_identity(first) != gpt4o.output_identity(second)
        plain = FoundationModel(make_rng(3, "identity-plain"))
        assert plain.output_identity(first) == first.content_hash
        assert plain.output_identity(second) == first.content_hash

    @pytest.mark.parametrize("use_chain", [True, False])
    def test_service_answers_each_id(self, gpt4o, use_chain):
        pipeline = StressChainPipeline(gpt4o, use_chain=use_chain)
        with StressService(pipeline) as service:
            assert _mismatches(_through(service), pipeline,
                               self.SPECS) == 0

    @needs_fork
    def test_pool_answers_each_id(self, gpt4o):
        """Each twin crosses into its forked replica with its own id,
        so the proxy's per-query noise reads the same id there."""
        pipeline = StressChainPipeline(gpt4o)
        with ReplicaPool(pipeline, num_replicas=2) as pool:
            assert _mismatches(_through(pool), pipeline, self.SPECS) == 0

    @needs_fork
    def test_twins_still_route_together(self, gpt4o):
        with ReplicaPool(StressChainPipeline(gpt4o),
                         num_replicas=2) as pool:
            routes = [pool.route(Video(spec)) for spec in self.SPECS]
        assert routes[0::2] == routes[1::2]


def _in_one_batch(service: StressService, videos: list[Video]) -> list:
    """Serve ``videos`` as one batch: the worker is held on a first
    request until all of them are queued behind it."""
    busy, release = threading.Event(), threading.Event()
    real_run_batch = service.executor.run_batch

    def gated_run_batch(batch):
        busy.set()
        release.wait(60)
        return real_run_batch(batch)

    service.executor.run_batch = gated_run_batch
    held = service.submit(Video(_spec(999, video_id="held")))
    assert busy.wait(60)
    futures = [service.submit(video) for video in videos]
    release.set()
    held.result(timeout=60)
    return [future.result(timeout=60) for future in futures]


class TestPipelineTwinIds:
    """Test-time refinement seeds its reflection draws from the video
    id, and a retriever its example draw, so under either two ids with
    equal content are two requests even on a model that cannot tell
    them apart -- also when both leave in one batch."""

    PAIRS = 12
    SPECS = [replace(_spec(index, seed=700 + index), video_id=f"pair-{tag}")
             for index in range(PAIRS)
             for tag in (f"{index}a", f"{index}b")]

    @pytest.fixture(scope="class")
    def examples(self):
        return [Sample(video=Video(_spec(50 + index,
                                         video_id=f"example-{index}",
                                         seed=900 + index)),
                       label=index % 2, true_aus=np.zeros(12))
                for index in range(4)]

    def _pipeline(self, variant: str, examples) -> StressChainPipeline:
        model = FoundationModel(make_rng(31, "identity"))
        if variant == "refine":
            return StressChainPipeline(
                model, test_time_refine=True,
                verification_pool=[sample.video for sample in examples],
                refine_rounds=2, num_verify_trials=2, seed=17)
        return StressChainPipeline(
            model, retriever=RandomRetriever(model, examples,
                                             num_examples=2, seed=3))

    @pytest.mark.parametrize("variant", ["refine", "retriever"])
    def test_twins_in_one_batch_answer_each_id(self, examples, variant):
        pipeline = self._pipeline(variant, examples)
        videos = [Video(spec) for spec in self.SPECS]
        with StressService(pipeline, ServiceConfig(
                max_batch_size=len(videos))) as service:
            served = _in_one_batch(service, videos)
            stats = service.stats()
        serial = [pipeline.predict(video) for video in videos]
        wrong = sum(_signature(a) != _signature(b)
                    for a, b in zip(served, serial))
        assert wrong == 0
        # The twins really left together, and none was folded into
        # its twin: every id was computed.
        assert stats.batches == 2
        assert stats.deduplicated == 0


# ----------------------------------------------------------------------
# Bounded feature cache
# ----------------------------------------------------------------------


class TestFeatureCacheBound:
    CAPACITY = 8

    def test_soak_stays_within_capacity(self, monkeypatch):
        monkeypatch.setattr(FoundationModel, "FEATURE_CACHE_CAPACITY",
                            self.CAPACITY)
        pipeline = _pipeline()
        model = pipeline.model
        config = ServiceConfig(cache_capacity=4)
        specs = [_spec(index, video_id=f"soak-{index}", seed=index)
                 for index in range(5 * self.CAPACITY)]
        sizes = []
        with StressService(pipeline, config) as service:
            for begin in range(0, len(specs), 4):
                for spec in specs[begin:begin + 4]:
                    service.predict(Video(spec), timeout=60)
                sizes.append(len(model._feature_cache))
            cache_stats = service.stats().cache
        assert max(sizes) <= self.CAPACITY
        assert sizes[-1] == self.CAPACITY
        for stats in cache_stats.values():
            assert stats.size <= stats.capacity == 4
            assert stats.evictions > 0
        # Evicted features are recomputed, bitwise the same.
        for spec in specs[:3]:
            again = pipeline.predict(Video(spec))
            fresh = _pipeline().predict(Video(spec))
            assert _signature(again) == _signature(fresh)

    def test_lru_keeps_recent_entries(self, monkeypatch):
        monkeypatch.setattr(FoundationModel, "FEATURE_CACHE_CAPACITY", 2)
        model = FoundationModel(make_rng(31, "identity"))
        first, second, third = (Video(_spec(i, video_id=f"lru-{i}"))
                                for i in range(3))
        kept = model.features(first)
        model.features(second)
        assert model.features(first) is kept   # refresh: second is oldest
        model.features(third)
        assert len(model._feature_cache) == 2
        assert model.features(first) is kept

    def test_threads_share_the_bounded_cache(self, monkeypatch):
        """Eight threads over twelve clips and four slots: the bound
        holds and every caller gets the clip's own features."""
        monkeypatch.setattr(FoundationModel, "FEATURE_CACHE_CAPACITY", 4)
        model = FoundationModel(make_rng(31, "identity"))
        videos = [Video(_spec(i, video_id=f"race-{i}")) for i in range(12)]
        reference = [FoundationModel(make_rng(31, "identity")).features(v)
                     for v in videos]
        start = threading.Barrier(8)
        wrong, sizes = [], []

        def hammer(offset: int) -> None:
            start.wait(10)
            for step in range(60):
                index = (offset + step * 5) % len(videos)
                if not np.array_equal(model.features(videos[index]),
                                      reference[index]):
                    wrong.append(index)
                sizes.append(len(model._feature_cache))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(offset,))
                       for offset in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert len(sizes) == 8 * 60
        assert max(sizes) <= 4

    def test_clone_copies_the_bounded_cache(self, monkeypatch):
        monkeypatch.setattr(FoundationModel, "FEATURE_CACHE_CAPACITY", 2)
        model = FoundationModel(make_rng(31, "identity"))
        video = Video(_spec(0, video_id="clone"))
        features = model.features(video)
        clone = model.clone()
        assert clone.features(video) is features
        clone.clear_feature_cache()
        assert len(model._feature_cache) == 1


# ----------------------------------------------------------------------
# Sessions are per request
# ----------------------------------------------------------------------


class TestSessionsPerRequest:
    def _assert_independent(self, results) -> None:
        sessions = [result.session for result in results]
        assert len({id(session) for session in sessions}) == len(sessions)
        assert len({id(session.turns) for session in sessions}) == \
            len(sessions)
        before = [session.transcript() for session in sessions]
        sessions[0].record(DESCRIBE_INSTRUCTION, "appended")
        assert sessions[0].transcript() != before[0]
        assert [s.transcript() for s in sessions[1:]] == before[1:]

    def test_duplicates_and_repeats_in_the_executor(self):
        pipeline = _pipeline()
        executor = ChainBatchExecutor(pipeline)
        video = Video(_spec(0, video_id="dup"))
        first, unique = executor.run_batch([video, video, video])
        assert unique == 1
        again, __ = executor.run_batch([Video(video.spec), video])
        results = first + again
        assert len({_signature(result) for result in results}) == 1
        assert executor.cache_stats()["chain"].hits > 0
        self._assert_independent(results)

    def test_served_repeats(self):
        pipeline = _pipeline()
        video = Video(_spec(1, video_id="served-dup"))
        with StressService(pipeline) as service:
            results = [future.result(timeout=60) for future in
                       [service.submit(video) for __ in range(6)]]
            results.append(service.predict(video, timeout=60))
        results.append(pipeline.predict(video))
        self._assert_independent(results)

    def test_degraded_answers_get_their_own_sessions(self):
        pipeline = _pipeline()
        executor = ChainBatchExecutor(pipeline)
        video = Video(_spec(2, video_id="degraded"))
        executor.run_batch([video])
        cached = [executor.run_cached(video) for __ in range(3)]
        assert all(result.degraded for result in cached)
        self._assert_independent(cached)
