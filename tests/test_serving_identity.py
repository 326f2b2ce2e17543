"""One content identity: what the serving caches, the router and the
training memos key on.

``Video.content_hash`` digests every ``VideoSpec`` field and the frame
size, so it is the one key every consumer needs:

- Clips that share ``video_id`` and render seed but differ in content
  each get their own answer, bitwise equal to their own serial
  ``predict``, through a service and through one- and two-replica
  pools (the two replicas are forked children); the pool routes on
  the content hash alone.
- Twins -- one spec under two ids -- are two clips: the renderer seeds
  each frame's capture noise from the id.  Each twin gets its own
  answer from a plain model, from an off-the-shelf proxy (which also
  seeds its per-query noise from the id) and from a pipeline whose
  own streams read the id (test-time refinement, retrieval), also when
  the twins leave in one batch; and its own SLIC map and AU logits
  from the training memos.
- A clip that differs from an earlier one only in its subject gets its
  own answer under test-time refinement, which draws its verification
  negatives from the other subjects' clips.
- Serving many distinct clips grows neither the model nor the frame
  working set, and no served clip keeps a frame.
- Every served request gets its own dialogue session, also when the
  answer was deduplicated in a batch or replayed from the caches.
"""

from __future__ import annotations

import os
import pickle
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.config import NUM_WORKERS_ENV
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
from repro.training.self_refine import _prefetch_segmentations
from repro.training.verification import VerificationPool
from repro.video import frame as frame_module
from repro.video.frame import (
    FRAME_WORKING_SET,
    Video,
    VideoSpec,
    clear_frame_working_set,
)
from tests.test_video_frame import CountingRenderer, retained_arrays

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
            # A renamed clip is another clip: it routes by its own hash.
            renamed_videos = [Video(replace(spec, video_id="other"))
                              for spec in self.SPECS]
            renamed = [pool.route(video) for video in renamed_videos]
        expected = [ring.route(Video(spec).content_hash)
                    for spec in self.SPECS]
        assert routes == expected
        assert renamed == [ring.route(video.content_hash)
                           for video in renamed_videos]
        assert set(routes) == {0, 1}

    def test_one_replica_routes_everything_to_zero(self):
        with ReplicaPool(_pipeline(), num_replicas=1) as pool:
            assert {pool.route(Video(spec)) for spec in self.SPECS} == {0}


# ----------------------------------------------------------------------
# One spec under two ids
# ----------------------------------------------------------------------


class TestPlainModelTwinIds:
    """The renderer seeds each frame's capture noise from the video id,
    so twins differ in pixels even to a model whose outputs read
    nothing else: each gets its own answer, SLIC map and AU logits."""

    SPECS = [replace(_spec(index, seed=600 + index), video_id=f"plain-{tag}")
             for index in range(10) for tag in (f"{index}a", f"{index}b")]

    def test_service_answers_each_twin(self):
        pipeline = _pipeline()
        with StressService(pipeline) as service:
            assert _mismatches(_through(service), pipeline,
                               self.SPECS) == 0

    @pytest.mark.parametrize("num_replicas", [
        1, pytest.param(2, marks=needs_fork)])
    def test_pool_answers_each_twin(self, num_replicas):
        pipeline = _pipeline()
        with ReplicaPool(pipeline, num_replicas=num_replicas) as pool:
            assert _mismatches(_through(pool), pipeline, self.SPECS) == 0

    def test_predict_many_answers_each_twin(self):
        pipeline = _pipeline()
        assert _mismatches(pipeline.predict_many, pipeline,
                           self.SPECS) == 0

    def test_verification_pool_logits_are_each_twins_own(self):
        model = _pipeline().model
        videos = [Video(spec) for spec in self.SPECS]
        pool = VerificationPool(model, videos)
        for video in videos:
            assert np.array_equal(pool.au_logits(video),
                                  model.au_logits(video))

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_prefetched_segmentations_are_each_twins_own(self, monkeypatch):
        assert threading.active_count() == 1, "a thread leaked into the test"
        monkeypatch.setenv(NUM_WORKERS_ENV, "2")
        videos = [Video(spec) for spec in self.SPECS]
        assert _prefetch_segmentations(videos) == len(videos)
        for video in videos:
            assert np.array_equal(video.segmentation(),
                                  Video(video.spec).segmentation())


class TestOffTheShelfTwinIds:
    """``OffTheShelfModel`` also seeds its per-query noise from the
    video id, so twins are two different queries."""

    SPECS = [replace(_spec(index, seed=500 + index), video_id=f"twin-{tag}")
             for index in range(20) for tag in (f"{index}a", f"{index}b")]

    @pytest.fixture(scope="class")
    def gpt4o(self):
        return load_offtheshelf("gpt-4o")

    def test_twins_differ_in_content(self):
        first, second = Video(self.SPECS[0]), Video(self.SPECS[1])
        assert first.content_hash != second.content_hash
        assert first.video_id != second.video_id

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
    id, and a retriever its example draw: each twin gets its own
    answer under either, also when both leave in one batch."""

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

    def test_subject_twin_served_after_its_twin(self, examples):
        """Test-time refinement draws its verification negatives from
        the other subjects' clips, so a clip that differs from an
        earlier one only in its subject is another request (this pair's
        label flips with the subject)."""
        pipeline = self._pipeline("refine", examples)
        first = replace(_spec(18, video_id="subject-twin-18", seed=818),
                        subject_id="identity-subj-0")
        second = replace(first, subject_id="identity-subj-2")
        serial = [pipeline.predict(Video(spec)) for spec in (first, second)]
        assert _signature(serial[0]) != _signature(serial[1])
        with StressService(pipeline) as service:
            served = [service.predict(Video(spec), timeout=60)
                      for spec in (first, second)]
        assert [_signature(result) for result in served] == \
            [_signature(result) for result in serial]


# ----------------------------------------------------------------------
# Bounded per-clip state
# ----------------------------------------------------------------------


class TestFeatureCacheBound:
    """Features live on the clip and frames in one bounded working set,
    so serving ever-new clips grows neither the model nor the process."""

    def test_soak_stays_within_capacity(self):
        """40 distinct clips (10x the chain cache) through a one-replica
        pool: the chain cache and the frame working set stay within
        their capacities, the model gains no per-clip state, and no
        served clip keeps a frame."""
        pipeline = _pipeline()
        model = pipeline.model
        # One run first: the layers keep their last activation, whose
        # size does not depend on how many clips came before.
        pipeline.predict(Video(_spec(99, video_id="soak-warm")))
        model_bytes = len(pickle.dumps(model))
        config = ServiceConfig(cache_capacity=4)
        specs = [_spec(index, video_id=f"soak-{index}", seed=index)
                 for index in range(40)]
        chain_sizes, frame_sizes, served = [], [], []
        with ReplicaPool(pipeline, num_replicas=1, config=config) as pool:
            for begin in range(0, len(specs), 4):
                videos = [Video(spec) for spec in specs[begin:begin + 4]]
                for video in videos:
                    pool.predict(video, timeout=60)
                served.extend(videos)
                chain_sizes.append(pool.stats().replicas[0].cache["chain"].size)
                frame_sizes.append(len(frame_module._frames))
            chain = pool.stats().replicas[0].cache["chain"]
        assert max(chain_sizes) <= chain.capacity == 4
        assert chain.evictions > 0
        assert max(frame_sizes) <= FRAME_WORKING_SET
        assert len(pickle.dumps(model)) == model_bytes
        for video in served:
            assert not any(array.shape == (96, 96)
                           for array in retained_arrays(video))
        # Evicted answers are recomputed, bitwise the same.
        for spec in specs[:3]:
            again = pipeline.predict(Video(spec))
            fresh = _pipeline().predict(Video(spec))
            assert _signature(again) == _signature(fresh)

    def test_lru_keeps_recent_entries(self, monkeypatch):
        monkeypatch.setattr(frame_module, "FRAME_WORKING_SET", 2)
        clear_frame_working_set()
        renderer = CountingRenderer()
        first, second, third = (Video(_spec(i, video_id=f"lru-{i}"),
                                      renderer) for i in range(3))
        kept = first.frame(0)
        second.frame(0)
        assert first.frame(0) is kept   # refresh: second is oldest
        third.frame(0)
        assert len(frame_module._frames) == 2
        assert first.frame(0) is kept
        assert renderer.renders == [("lru-0", 0), ("lru-1", 0), ("lru-2", 0)]
        second.frame(0)                 # evicted: rendered again
        assert renderer.renders[3:] == [("lru-1", 0)]

    def test_threads_share_the_bounded_cache(self, monkeypatch):
        """Eight threads over twelve clips and four frame slots: the
        bound holds, every caller gets the clip's own frames and
        features, and all callers of one clip get one feature array."""
        monkeypatch.setattr(frame_module, "FRAME_WORKING_SET", 4)
        clear_frame_working_set()
        model = FoundationModel(make_rng(31, "identity"))
        specs = [_spec(i, video_id=f"race-{i}") for i in range(12)]
        reference = [model.features(Video(spec)) for spec in specs]
        frames = [Video(spec).frame(5) for spec in specs]
        videos = [Video(spec) for spec in specs]
        start = threading.Barrier(8)
        wrong, sizes, seen = [], [], [set() for _ in videos]

        def hammer(offset: int) -> None:
            start.wait(10)
            for step in range(60):
                index = (offset + step * 5) % len(videos)
                features = model.features(videos[index])
                seen[index].add(id(features))
                if not (np.array_equal(features, reference[index])
                        and np.array_equal(videos[index].frame(5),
                                           frames[index])):
                    wrong.append(index)
                sizes.append(len(frame_module._frames))

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
        assert all(len(ids) == 1 for ids in seen)

    def test_clone_copies_the_bounded_cache(self):
        """A clone reads the features its source filled: they are on
        the clip, so neither model holds a copy."""
        model = FoundationModel(make_rng(31, "identity"))
        model_bytes = len(pickle.dumps(model))
        video = Video(_spec(0, video_id="clone"))
        features = model.features(video)
        clone = model.clone()
        assert clone.features(video) is features
        assert len(pickle.dumps(model)) == model_bytes
        assert len(pickle.dumps(clone)) == model_bytes


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
