"""Concurrency stress for the serving layer.

N client threads fire M requests each with randomized (seeded) delays
against one :class:`StressService`.  The suite asserts the full
contract under contention: no deadlocks (everything joins within a
timeout), no dropped or duplicated responses, every response bitwise
identical to a serial run, and backpressure errors raised *only* when
the queue genuinely exceeded ``max_queue_depth``.

Also the model-level contract serving promises when several threads
read one pipeline (executors over it, or callers of its own
``predict``): unlocked concurrent ``pipeline.predict`` calls on one
shared pipeline return bitwise-serial results, because inference only
reads weights (the feature cache fills through an atomic
``setdefault``, and the input a ``Linear`` layer keeps is read only by
training's backward pass).
Every response also gets its own dialogue session.

Requests that queue together leave in one batch, and a warmed clip is
answered at submit: it costs no model work and never waits for a
batch.
"""

from __future__ import annotations

import random
import threading
import time

import numpy as np
import pytest

from repro.cot.chain import StressChainPipeline
from repro.errors import ServiceOverloadedError
from repro.model.foundation import FoundationModel
from repro.model.session import DialogueSession
from repro.rng import make_rng
from repro.serving import ServiceConfig, StressService
from repro.video.frame import Video, VideoSpec

JOIN_TIMEOUT_S = 120.0  # deadlock guard: generous, never hit when healthy
QUEUE_TIMEOUT_S = 10.0  # how long 32 started clients get to queue up


def _videos(count: int, base_seed: int) -> list[Video]:
    videos = []
    for index in range(count):
        rng = np.random.default_rng(base_seed + index)
        curves = np.clip(rng.random((12, 12)) * rng.uniform(0.3, 1.0), 0, 1)
        videos.append(Video(VideoSpec(
            video_id=f"conc-{base_seed}-{index}",
            subject_id=f"conc-subj-{index % 4}",
            au_intensities=curves, identity=rng.standard_normal(8),
            noise_scale=0.02, seed=base_seed * 10 + index,
        )))
    return videos


@pytest.fixture(scope="module")
def pipeline():
    return StressChainPipeline(
        FoundationModel(make_rng(47, "serving-concurrency")))


def test_stress_no_drops_no_duplicates_serial_identical(pipeline):
    num_threads, requests_per_thread = 6, 8
    videos = _videos(5, base_seed=200)
    serial = {v.video_id: pipeline.predict(v) for v in videos}

    results: dict[tuple[int, int], object] = {}
    errors: list[BaseException] = []
    results_lock = threading.Lock()
    start_barrier = threading.Barrier(num_threads)

    def client(thread_id: int) -> None:
        rng = random.Random(1000 + thread_id)
        start_barrier.wait()
        for request_id in range(requests_per_thread):
            time.sleep(rng.uniform(0, 0.003))
            video = videos[rng.randrange(len(videos))]
            try:
                result = service.predict(video, timeout=JOIN_TIMEOUT_S)
            except BaseException as exc:  # noqa: BLE001 - collected below
                with results_lock:
                    errors.append(exc)
                continue
            with results_lock:
                key = (thread_id, request_id)
                assert key not in results, "duplicated response delivery"
                results[key] = (video.video_id, result)

    config = ServiceConfig(max_batch_size=8, max_queue_depth=256)
    with StressService(pipeline, config) as service:
        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(num_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(JOIN_TIMEOUT_S)
            assert not thread.is_alive(), "client thread deadlocked"
        stats = service.stats()

    # queue_depth=256 > total requests, so nothing may have been rejected
    assert not errors, f"unexpected request failures: {errors[:3]}"
    # no drops: every (thread, request) pair produced exactly one result
    assert len(results) == num_threads * requests_per_thread
    assert stats.completed == num_threads * requests_per_thread
    assert stats.failed == 0
    assert stats.rejected == 0
    # bitwise serial equivalence under contention
    for video_id, result in results.values():
        want = serial[video_id]
        assert result.label == want.label
        assert result.prob_stressed == want.prob_stressed
        assert tuple(result.rationale) == tuple(want.rationale)
        assert result.session.transcript() == want.session.transcript()
    # distinct session objects per response, even for identical content
    sessions = [id(result.session) for __, result in results.values()]
    assert len(set(sessions)) == len(sessions)


def test_backpressure_only_past_queue_depth(pipeline):
    """Rejections happen iff the queue is genuinely full: a gated
    executor holds the worker so the queue depth is deterministic."""
    video = _videos(1, base_seed=300)[0]
    release = threading.Event()
    worker_busy = threading.Event()

    config = ServiceConfig(max_batch_size=1, max_queue_depth=3)
    service = StressService(pipeline, config)
    real_run_batch = service.executor.run_batch

    def gated_run_batch(videos):
        worker_busy.set()
        release.wait(JOIN_TIMEOUT_S)
        return real_run_batch(videos)

    service.executor.run_batch = gated_run_batch
    try:
        in_flight = service.submit(video)      # occupies the worker
        assert worker_busy.wait(JOIN_TIMEOUT_S)
        queued = [service.submit(video) for __ in range(3)]  # fills queue
        # depth == max_queue_depth: the next submit must be rejected
        with pytest.raises(ServiceOverloadedError):
            service.submit(video)
        release.set()
        # every accepted request still completes (none were dropped)
        accepted = [in_flight, *queued]
        probs = {f.result(JOIN_TIMEOUT_S).prob_stressed for f in accepted}
        assert len(probs) == 1
        stats = service.stats()
        assert stats.rejected == 1
        assert stats.completed == len(accepted)
    finally:
        release.set()
        service.close()


def test_concurrent_requests_do_not_interleave_sessions(pipeline):
    """Mutable-state regression: with concurrent clients, every
    response's session contains exactly its own chain's turns -- no
    cross-request turn leakage and no shared session objects."""
    videos = _videos(4, base_seed=400)
    expected_turns = {v.video_id: len(pipeline.predict(v).session)
                      for v in videos}

    collected = []
    lock = threading.Lock()

    def client(thread_id: int) -> None:
        rng = random.Random(thread_id)
        for __ in range(6):
            video = videos[rng.randrange(len(videos))]
            result = service.predict(video, timeout=JOIN_TIMEOUT_S)
            with lock:
                collected.append((video.video_id, result.session))

    with StressService(pipeline) as service:
        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(5)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(JOIN_TIMEOUT_S)
            assert not thread.is_alive(), "client thread deadlocked"

    assert len(collected) == 30
    for video_id, session in collected:
        assert isinstance(session, DialogueSession)
        assert len(session) == expected_turns[video_id], (
            f"{video_id}: session gained or lost turns under concurrency")
    assert len({id(session) for __, session in collected}) == len(collected)


def _counted_embeds(pipeline) -> list[str]:
    """Record the id of every clip ``pipeline``'s trunk embeds."""
    embeds: list[str] = []
    embed_video = pipeline.model.embed_video

    def counted_embed(video):
        embeds.append(video.video_id)
        return embed_video(video)

    pipeline.model.embed_video = counted_embed
    return embeds


def _hold_worker(service):
    """Gate ``service``'s executor: the next batch holds the worker
    until the returned ``release`` event is set; ``busy`` is set once
    it does."""
    busy, release = threading.Event(), threading.Event()
    run_batch = service.executor.run_batch

    def gated_run_batch(batch):
        busy.set()
        release.wait(JOIN_TIMEOUT_S)
        return run_batch(batch)

    service.executor.run_batch = gated_run_batch
    return busy, release


def test_concurrent_hot_load_is_answered_without_model_work():
    """32 clients over 8 warmed clips are all answered while a cold
    clip's batch holds the worker: a chain-cache hit is answered at
    submit, so it never waits behind a batch.  No client runs a trunk
    pass or a batch, and each gets serial ``predict``'s answer bitwise.

    A hit that queued behind the held batch would keep its client
    waiting; such clients fail the join check after
    ``QUEUE_TIMEOUT_S`` instead of hanging the test.
    """
    num_clients = 32
    pipeline = StressChainPipeline(
        FoundationModel(make_rng(47, "serving-concurrency")))
    videos = _videos(8, base_seed=700)
    cold = _videos(1, base_seed=710)[0]
    serial = {v.video_id: pipeline.predict(v) for v in videos}
    embeds = _counted_embeds(pipeline)
    results: list[object] = [None] * num_clients

    def client(index: int) -> None:
        results[index] = service.predict(videos[index % len(videos)],
                                         timeout=JOIN_TIMEOUT_S)

    with StressService(pipeline) as service:
        for video in videos:
            service.predict(video, timeout=JOIN_TIMEOUT_S)
        warm_embeds = len(embeds)
        busy, release = _hold_worker(service)
        held = service.submit(cold)
        assert busy.wait(JOIN_TIMEOUT_S)
        before = service.stats()
        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(num_clients)]
        for thread in threads:
            thread.start()
        try:
            give_up = time.monotonic() + QUEUE_TIMEOUT_S
            for thread in threads:
                thread.join(max(0.0, give_up - time.monotonic()))
            answered = sum(not thread.is_alive() for thread in threads)
            held_pending = not held.done()
            during, queued = service.stats(), service.queue_depth()
            held_embeds = len(embeds)
        finally:
            release.set()
            held.result(JOIN_TIMEOUT_S)
            for thread in threads:
                thread.join(JOIN_TIMEOUT_S)
        assert not any(thread.is_alive() for thread in threads), \
            "client thread deadlocked"

    assert answered == num_clients, "warm clips waited behind the batch"
    assert held_pending and queued == 0
    assert during.batches == before.batches
    assert during.requests - before.requests == num_clients
    assert during.completed - before.completed == num_clients
    assert (during.cache["chain"].hits - before.cache["chain"].hits
            == num_clients)
    assert warm_embeds == len(videos)
    assert held_embeds == warm_embeds
    for index, result in enumerate(results):
        want = serial[videos[index % len(videos)].video_id]
        assert result.label == want.label
        assert result.prob_stressed == want.prob_stressed
        assert tuple(result.rationale) == tuple(want.rationale)
        assert result.session.transcript() == want.session.transcript()
        assert result.degraded is False


def test_concurrent_queued_load_is_coalesced():
    """With the chain cache off every request queues: 32 clients over
    8 clips, queued behind a held batch, leave in at most two batches,
    each of which runs one chain per distinct clip, and each client
    gets serial ``predict``'s answer bitwise.

    Clients that cannot all reach the queue at once -- for example
    because something serializes ``predict`` -- fail the queue-depth
    check after ``QUEUE_TIMEOUT_S`` instead of hanging the test.
    """
    num_clients = 32
    pipeline = StressChainPipeline(
        FoundationModel(make_rng(47, "serving-concurrency")))
    videos = _videos(8, base_seed=720)
    serial = {v.video_id: pipeline.predict(v) for v in videos}
    embeds = _counted_embeds(pipeline)
    results: list[object] = [None] * num_clients

    def client(index: int) -> None:
        results[index] = service.predict(videos[index % len(videos)],
                                         timeout=JOIN_TIMEOUT_S)

    with StressService(pipeline, ServiceConfig(cache_capacity=0)) as service:
        busy, release = _hold_worker(service)
        held = service.submit(videos[0])
        assert busy.wait(JOIN_TIMEOUT_S)
        batches_before = service.stats().batches
        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(num_clients)]
        for thread in threads:
            thread.start()
        try:
            give_up = time.monotonic() + QUEUE_TIMEOUT_S
            while (service.queue_depth() < num_clients
                   and time.monotonic() < give_up):
                time.sleep(0.001)
            queued = service.queue_depth()
        finally:
            release.set()
            held.result(JOIN_TIMEOUT_S)
            for thread in threads:
                thread.join(JOIN_TIMEOUT_S)
        assert not any(thread.is_alive() for thread in threads), \
            "client thread deadlocked"
        stats = service.stats()

    assert queued == num_clients, "clients did not reach the queue together"
    # The held batch, then the queued requests in at most two more.
    queued_batches = stats.batches - batches_before - 1
    assert queued_batches <= 2
    # One trunk pass for the held clip, then one per distinct clip of
    # each queued batch: the 32 requests are deduplicated in flight.
    assert len(embeds) <= 1 + queued_batches * len(videos)
    for index, result in enumerate(results):
        want = serial[videos[index % len(videos)].video_id]
        assert result.prob_stressed == want.prob_stressed
        assert result.session.transcript() == want.session.transcript()


def test_unlocked_concurrent_predict_on_one_pipeline_is_serial_identical():
    """8 threads call ``predict`` on one fresh pipeline with no lock;
    every result is bitwise-equal to a serial run on a separately
    built pipeline (the shared model's feature cache starts empty, so
    threads race on its misses too)."""
    videos = _videos(24, base_seed=600)
    reference = StressChainPipeline(
        FoundationModel(make_rng(47, "serving-concurrency")))
    serial = {v.video_id: reference.predict(v) for v in videos}
    shared = StressChainPipeline(
        FoundationModel(make_rng(47, "serving-concurrency")))
    num_threads = 8
    start_barrier = threading.Barrier(num_threads)
    mismatches: list[str] = []
    errors: list[BaseException] = []
    lock = threading.Lock()

    def client(thread_id: int) -> None:
        rng = random.Random(thread_id)
        start_barrier.wait()
        try:
            for video in rng.sample(videos, len(videos)):
                result = shared.predict(video)
                want = serial[video.video_id]
                if (result.label != want.label
                        or result.prob_stressed != want.prob_stressed
                        or tuple(result.rationale) != tuple(want.rationale)
                        or result.session.transcript()
                        != want.session.transcript()):
                    with lock:
                        mismatches.append(video.video_id)
        except BaseException as exc:  # noqa: BLE001 - collected below
            with lock:
                errors.append(exc)

    threads = [threading.Thread(target=client, args=(i,))
               for i in range(num_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(JOIN_TIMEOUT_S)
        assert not thread.is_alive(), "client thread deadlocked"
    assert not errors, f"unexpected predict failures: {errors[:3]}"
    assert not mismatches
