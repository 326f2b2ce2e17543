"""Bitwise service <-> serial equivalence.

The serving layer's core guarantee: every response from
:class:`StressService` is *bitwise identical* to what a serial
``pipeline.predict`` call would have returned for the same request --
same label, same float64 probability (``==``, no tolerance), same
description and rationale cues, and the same dialogue transcript.

The suite covers all four inference protocols (plain chain, direct
assessment, retrieval-augmented, test-time refine), cold and warm
caches, duplicate-heavy request mixes, and the ``run_many`` batch
entry point.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cot.chain import StressChainPipeline
from repro.datasets.base import Sample
from repro.model.foundation import FoundationModel
from repro.retrieval.retriever import RandomRetriever
from repro.rng import make_rng
from repro.serving import ServiceConfig, StressService
from repro.video.frame import Video, VideoSpec

VARIANTS = ("chain", "no_chain", "retriever", "refine")


def _videos(count: int, base_seed: int) -> list[Video]:
    videos = []
    for index in range(count):
        rng = np.random.default_rng(base_seed + index)
        curves = np.clip(rng.random((12, 12)) * rng.uniform(0.2, 1.0), 0, 1)
        videos.append(Video(VideoSpec(
            video_id=f"eq-{base_seed}-{index}",
            subject_id=f"eq-subj-{index % 3}",
            au_intensities=curves, identity=rng.standard_normal(8),
            noise_scale=0.02, seed=base_seed * 100 + index,
        )))
    return videos


@pytest.fixture(scope="module")
def model():
    return FoundationModel(make_rng(31, "serving-equivalence"))


@pytest.fixture(scope="module")
def pool():
    rng = np.random.default_rng(88)
    samples = []
    for index in range(4):
        curves = np.clip(rng.random((12, 12)) * 0.5, 0, 1)
        video = Video(VideoSpec(
            video_id=f"eq-pool-{index}", subject_id=f"eq-pool-subj-{index}",
            au_intensities=curves, identity=rng.standard_normal(8),
            seed=6_500 + index,
        ))
        samples.append(Sample(video=video, label=index % 2,
                              true_aus=np.zeros(12)))
    return samples


def _make_pipeline(variant: str, model, pool) -> StressChainPipeline:
    if variant == "chain":
        return StressChainPipeline(model)
    if variant == "no_chain":
        return StressChainPipeline(model, use_chain=False)
    if variant == "retriever":
        return StressChainPipeline(
            model,
            retriever=RandomRetriever(model, pool, num_examples=2, seed=3),
        )
    return StressChainPipeline(
        model, test_time_refine=True,
        verification_pool=[s.video for s in pool],
        refine_rounds=2, num_verify_trials=2, seed=17,
    )


def assert_results_identical(served, serial, context: str = "") -> None:
    assert served.label == serial.label, context
    # float64 bitwise: == with no tolerance is the whole point
    assert served.prob_stressed == serial.prob_stressed, context
    if serial.description is None:
        assert served.description is None, context
    else:
        assert served.description is not None, context
        assert served.description.au_ids == serial.description.au_ids, context
    assert tuple(served.rationale) == tuple(serial.rationale), context
    assert served.session.transcript() == serial.session.transcript(), context
    assert len(served.session) == len(serial.session), context


@pytest.mark.parametrize("variant", VARIANTS)
def test_served_matches_serial_per_variant(variant, model, pool):
    pipeline = _make_pipeline(variant, model, pool)
    videos = _videos(5, base_seed=40)
    serial = [pipeline.predict(video) for video in videos]
    with StressService(pipeline, ServiceConfig()) as service:
        # cold caches, then a warm second pass over the same contents
        for pass_name in ("cold", "warm"):
            for video, want in zip(videos, serial):
                got = service.predict(video, timeout=60)
                assert_results_identical(
                    got, want, f"{variant}/{pass_name}/{video.video_id}")


@pytest.mark.parametrize("variant", ["chain", "refine"])
def test_duplicate_heavy_mix(variant, model, pool):
    """Request mixes that repeat contents within one batch resolve to
    the identical serial result for every copy."""
    pipeline = _make_pipeline(variant, model, pool)
    videos = _videos(3, base_seed=55)
    serial = {v.video_id: pipeline.predict(v) for v in videos}
    mix = [videos[i] for i in (0, 1, 0, 2, 1, 0, 2, 2, 1, 0)]
    with StressService(
        pipeline, ServiceConfig(max_batch_size=16),
    ) as service:
        futures = [service.submit(video) for video in mix]
        for video, future in zip(mix, futures):
            assert_results_identical(
                future.result(60), serial[video.video_id],
                f"{variant}/{video.video_id}")
        stats = service.stats()
    assert stats.completed == len(mix)
    assert stats.deduplicated + stats.cache["chain"].hits > 0


def test_sessions_are_per_request(model, pool):
    """Two requests for the same content get distinct sessions -- a
    caller mutating one transcript cannot corrupt another response."""
    pipeline = _make_pipeline("chain", model, pool)
    video = _videos(1, base_seed=70)[0]
    with StressService(pipeline) as service:
        first = service.predict(video, timeout=60)
        second = service.predict(video, timeout=60)
    assert first.session is not second.session
    assert first.session.transcript() == second.session.transcript()


def test_predict_many_matches_serial(model, pool):
    for variant in VARIANTS:
        pipeline = _make_pipeline(variant, model, pool)
        videos = _videos(4, base_seed=80)
        serial = [pipeline.predict(video) for video in videos]
        batched = pipeline.predict_many(videos, batch_size=3)
        assert len(batched) == len(serial)
        for want, got in zip(serial, batched):
            assert_results_identical(got, want, variant)
