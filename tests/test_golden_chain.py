"""Golden regression fixtures for seeded chain outputs.

A small fixed video set runs through every inference protocol of
:class:`StressChainPipeline` with an untrained (seed-deterministic)
foundation model; the resulting labels, probabilities, description and
rationale cue ids, and dialogue transcripts are pinned in
``tests/golden/chain_golden.json``.  Any numerical or behavioural
drift in the chain -- a refactor that changes an op order, a sampling
change, a session-recording change -- fails here with a field-level
diff.

Regenerating after an *intentional* change::

    PYTHONPATH=src python -m pytest tests/test_golden_chain.py --update-golden

then review the fixture diff like any other code change.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.cot.chain import StressChainPipeline
from repro.datasets.base import Sample
from repro.model.foundation import FoundationModel
from repro.retrieval.retriever import RandomRetriever
from repro.rng import make_rng
from repro.video.frame import Video, VideoSpec

GOLDEN_PATH = Path(__file__).parent / "golden" / "chain_golden.json"


def _golden_videos() -> list[Video]:
    """Four fixed clips spanning calm, ramping, saturated, and noisy
    expressive regimes.  Everything is derived from hard-coded seeds."""
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


def _pool() -> list[Sample]:
    rng = np.random.default_rng(77)
    samples = []
    for index in range(4):
        curves = np.clip(rng.random((12, 12)) * (0.3 + 0.2 * index), 0, 1)
        video = Video(VideoSpec(
            video_id=f"golden-pool-{index}",
            subject_id=f"golden-pool-subj-{index}",
            au_intensities=curves, identity=rng.standard_normal(8),
            seed=7_100 + index,
        ))
        samples.append(Sample(video=video, label=index % 2,
                              true_aus=np.zeros(12)))
    return samples


def _pipelines(model: FoundationModel, pool: list[Sample]):
    pool_videos = [sample.video for sample in pool]
    return {
        "chain": StressChainPipeline(model),
        "no_chain": StressChainPipeline(model, use_chain=False),
        "retriever": StressChainPipeline(
            model,
            retriever=RandomRetriever(model, pool, num_examples=2, seed=5),
        ),
        "refine": StressChainPipeline(
            model, test_time_refine=True, verification_pool=pool_videos,
            refine_rounds=2, num_verify_trials=2, seed=11,
        ),
    }


def compute_golden_cases() -> list[dict]:
    """Deterministically regenerate every golden case."""
    model = FoundationModel(make_rng(123, "golden-model"))
    cases = []
    for variant, pipeline in _pipelines(model, _pool()).items():
        for video in _golden_videos():
            result = pipeline.predict(video)
            transcript = result.session.transcript()
            cases.append({
                "case": f"{variant}/{video.video_id}",
                "variant": variant,
                "video_id": video.video_id,
                "label": result.label,
                "prob_stressed": result.prob_stressed,
                "description_aus": (list(result.description.au_ids)
                                    if result.description is not None
                                    else None),
                "rationale_aus": list(result.rationale),
                "num_turns": len(result.session),
                "transcript_sha1": hashlib.sha1(
                    transcript.encode()).hexdigest(),
            })
    return cases


def test_chain_outputs_match_golden(update_golden):
    cases = compute_golden_cases()
    if update_golden:
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(cases, indent=2) + "\n")
        pytest.skip(f"golden fixtures regenerated at {GOLDEN_PATH}")
    assert GOLDEN_PATH.exists(), (
        "golden fixture missing; regenerate with "
        "`python -m pytest tests/test_golden_chain.py --update-golden`"
    )
    recorded = json.loads(GOLDEN_PATH.read_text())
    assert [c["case"] for c in recorded] == [c["case"] for c in cases], (
        "golden case set changed; regenerate with --update-golden and "
        "review the diff"
    )
    for want, got in zip(recorded, cases):
        for field in ("label", "description_aus", "rationale_aus",
                      "num_turns", "transcript_sha1"):
            assert got[field] == want[field], (
                f"{want['case']}: {field} drifted "
                f"({want[field]!r} -> {got[field]!r})"
            )
        # JSON round-trips float64 exactly, so equality is exact.
        assert got["prob_stressed"] == want["prob_stressed"], (
            f"{want['case']}: prob_stressed drifted "
            f"({want['prob_stressed']!r} -> {got['prob_stressed']!r})"
        )


def test_golden_covers_every_variant():
    recorded = json.loads(GOLDEN_PATH.read_text())
    assert {case["variant"] for case in recorded} == {
        "chain", "no_chain", "retriever", "refine",
    }
    assert len(recorded) == 16


def test_served_results_match_golden():
    """The serving layer reproduces the pinned fixtures exactly --
    golden drift detection covers the batched path too."""
    from repro.serving import ServiceConfig, StressService

    recorded = {case["case"]: case for case in
                json.loads(GOLDEN_PATH.read_text())}
    model = FoundationModel(make_rng(123, "golden-model"))
    videos = _golden_videos()
    for variant, pipeline in _pipelines(model, _pool()).items():
        with StressService(pipeline, ServiceConfig()) as service:
            for video in videos:
                result = service.predict(video, timeout=30)
                want = recorded[f"{variant}/{video.video_id}"]
                assert result.label == want["label"]
                assert result.prob_stressed == want["prob_stressed"]
                assert list(result.rationale) == want["rationale_aus"]
                transcript = result.session.transcript()
                assert hashlib.sha1(
                    transcript.encode()).hexdigest() == want["transcript_sha1"]
