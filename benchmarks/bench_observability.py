#!/usr/bin/env python
"""Instrumentation-overhead benchmark for the observability layer.

Two measurements:

1. **Disabled overhead** -- chain ``predict`` throughput with tracing
   off.  The span/profiling hooks sit on every stage and every
   ``Linear.forward``, so this number is the system's steady-state
   cost of *carrying* instrumentation; the acceptance bar is that it
   stays within 2% of the uninstrumented baseline (we record the
   measured throughput so regressions are visible PR over PR).
2. **Enabled overhead** -- the same workload with the JSONL exporter
   writing to a temp file, reported as a slowdown factor.

The run also performs the span-coverage acceptance sweep: a full
(tiny) ``train_stress_model`` plus one ``predict`` under
``REPRO_TRACE``, asserting the trace contains all four training-stage
spans and all three chain-stage spans.

Results merge into the ``observability`` section of
``BENCH_eval.json`` (other sections are preserved).

Usage::

    PYTHONPATH=src python benchmarks/bench_observability.py [--quick] [--check]

``--check`` exits non-zero if span coverage is incomplete or the
traced slowdown exceeds 2x.  The bound is calibrated to this repo's
simulator, whose requests complete in ~100us -- three spans of JSON
encoding are a visible fraction of that; against millisecond-scale
real model calls the same absolute cost is under 1%.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from bench_common import merge_report
from repro.cot.chain import StressChainPipeline
from repro.datasets import build_instruction_pairs, generate_disfa, generate_uvsd
from repro.model.foundation import FoundationModel
from repro.observability.tracing import (
    JsonlExporter,
    install_exporter,
    uninstall_exporter,
)
from repro.rng import make_rng
from repro.training.self_refine import SelfRefineConfig
from repro.training.trainer import train_stress_model
from repro.video.frame import Video, VideoSpec

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The span names the acceptance criteria require in a full trace.
REQUIRED_SPANS = (
    "train.fit",
    "train.describe_tuning",
    "train.description_refinement",
    "train.assess_tuning",
    "train.rationale_refinement",
    "chain.describe",
    "chain.assess",
    "chain.highlight",
)


def _videos(count: int) -> list[Video]:
    videos = []
    for index in range(count):
        rng = np.random.default_rng(21_000 + index)
        curves = np.clip(rng.random((12, 12)) * rng.uniform(0.2, 1.0), 0, 1)
        videos.append(Video(VideoSpec(
            video_id=f"bench-obs-{index}",
            subject_id=f"bench-obs-subj-{index % 4}",
            au_intensities=curves, identity=rng.standard_normal(8),
            noise_scale=0.02, seed=21_000 + index,
        )))
    return videos


def _throughput(pipeline: StressChainPipeline, videos: list[Video],
                rounds: int) -> float:
    """Serial predict throughput in requests/s over ``rounds`` passes."""
    start = time.perf_counter()
    total = 0
    for __ in range(rounds):
        for video in videos:
            pipeline.predict(video)
            total += 1
    return total / (time.perf_counter() - start)


def bench_observability(quick: bool) -> dict:
    num_videos = 8 if quick else 24
    rounds = 20 if quick else 60
    videos = _videos(num_videos)
    model = FoundationModel(make_rng(3, "bench-observability"))
    pipeline = StressChainPipeline(model)

    # Warm the clips' features so both measurements time pure model math.
    for video in videos:
        pipeline.predict(video)

    disabled_rps = _throughput(pipeline, videos, rounds)

    with tempfile.NamedTemporaryFile(suffix=".jsonl", delete=False) as handle:
        trace_path = handle.name
    exporter = JsonlExporter(trace_path)
    install_exporter(exporter)
    try:
        enabled_rps = _throughput(pipeline, videos, rounds)
    finally:
        uninstall_exporter()
        exporter.close()
    traced_spans = sum(1 for __ in open(trace_path, encoding="utf-8"))
    Path(trace_path).unlink()

    # Span-coverage sweep: tiny full training run + one predict.
    train = generate_uvsd(seed=5, num_samples=24, num_subjects=6)
    pairs = build_instruction_pairs(
        generate_disfa(seed=5, num_samples=20, num_subjects=4))
    with tempfile.NamedTemporaryFile(suffix=".jsonl", delete=False) as handle:
        sweep_path = handle.name
    exporter = JsonlExporter(sweep_path)
    install_exporter(exporter)
    try:
        config = SelfRefineConfig(
            describe_epochs=3, assess_epochs=4, refine_sample_limit=3,
            num_trials=2, num_rationale_candidates=2,
            dpo_desc_epochs=1, dpo_rationale_epochs=1, seed=5,
        )
        trained, __ = train_stress_model(train, pairs, config)
        StressChainPipeline(trained).predict(train[0].video)
    finally:
        uninstall_exporter()
        exporter.close()
    names = {json.loads(line)["name"]
             for line in open(sweep_path, encoding="utf-8")}
    Path(sweep_path).unlink()
    missing = [name for name in REQUIRED_SPANS if name not in names]

    slowdown = disabled_rps / enabled_rps if enabled_rps else float("inf")
    return {
        "quick": quick,
        "workload": {"num_videos": num_videos, "rounds": rounds},
        "disabled_requests_per_s": round(disabled_rps, 1),
        "enabled_requests_per_s": round(enabled_rps, 1),
        "traced_slowdown_x": round(slowdown, 3),
        "spans_exported": traced_spans,
        "span_coverage_missing": missing,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small workload for CI smoke runs")
    parser.add_argument("--check", action="store_true",
                        help="fail on incomplete span coverage or a "
                             "traced slowdown above 2x")
    parser.add_argument("--output", type=Path,
                        default=REPO_ROOT / "BENCH_eval.json")
    args = parser.parse_args(argv)

    section = bench_observability(args.quick)
    merge_report(args.output, {"observability": section})
    print(json.dumps(section, indent=2))

    if args.check:
        if section["span_coverage_missing"]:
            print(f"FAIL: missing spans {section['span_coverage_missing']}",
                  file=sys.stderr)
            return 1
        if section["traced_slowdown_x"] > 2.0:
            print(f"FAIL: traced slowdown {section['traced_slowdown_x']}x "
                  "exceeds 2x", file=sys.stderr)
            return 1
        print("check ok: full span coverage, "
              f"traced slowdown {section['traced_slowdown_x']}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
