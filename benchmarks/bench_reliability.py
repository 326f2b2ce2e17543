#!/usr/bin/env python
"""Overhead benchmark for the reliability layer.

The reliability machinery (fault sites compiled into the hot paths,
the per-request deadline plumbing) must cost ~nothing when disabled --
that is the contract that lets the sites live on the serving hot loop
at all.  This benchmark pins it:

- ``fault_point`` micro-cost: ns per call with no plan armed;
- executor hot loop (warm caches, the serving steady state) in three
  configurations: fault sites *stubbed out* (the pre-reliability
  baseline, reconstructed by patching the site call to a no-op), sites
  present but disarmed (the shipping default), and an armed zero-rate
  plan (the machinery fully engaged, never firing);
- service round-trip with and without a (never-expiring) deadline on
  every request, isolating the deadline-check cost in the batcher.

Results merge into the ``reliability`` section of ``BENCH_eval.json``
at the repository root (other sections are preserved).

Usage::

    PYTHONPATH=src python benchmarks/bench_reliability.py [--quick] [--check]

``--quick`` shrinks the workload for CI smoke runs; ``--check`` exits
non-zero when the disarmed path costs more than 25% of the stubbed
baseline's throughput (generous: the measured overhead is ~noise, but
CI machines jitter).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from bench_common import merge_report
from repro.cot.chain import StressChainPipeline
from repro.model.foundation import FoundationModel
from repro.reliability.faults import FAULT_SITES, FaultPlan, FaultSpec, injected
from repro.rng import make_rng
from repro.serving import ServiceConfig, StressService
from repro.serving.executor import ChainBatchExecutor
from repro.video.frame import Video, VideoSpec

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Modules whose hot paths call ``fault_point`` during serving; the
#: "stubbed" baseline patches the name in each to reconstruct the
#: pre-reliability code path for an honest A/B.
_SERVING_SITE_MODULES = (
    "repro.serving.executor",
    "repro.serving.cache",
    "repro.model.foundation",
)


def _pool(num_videos: int) -> list[Video]:
    videos = []
    for index in range(num_videos):
        rng = np.random.default_rng(11_000 + index)
        curves = np.clip(rng.random((12, 12)) * rng.uniform(0.2, 1.0), 0, 1)
        videos.append(Video(VideoSpec(
            video_id=f"bench-rel-{index}",
            subject_id=f"bench-rel-subj-{index % 4}",
            au_intensities=curves, identity=rng.standard_normal(8),
            noise_scale=0.02, seed=11_000 + index,
        )))
    return videos


def _best_of(repeats: int, fn) -> float:
    """Min elapsed seconds over ``repeats`` runs of ``fn``."""
    best = float("inf")
    for __ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _bench_fault_point_ns(iterations: int) -> float:
    from repro.reliability.faults import fault_point

    def loop():
        for __ in range(iterations):
            fault_point("serve.execute")

    return _best_of(3, loop) / iterations * 1e9


class _StubbedSites:
    """Context manager: replace ``fault_point`` with a bare no-op in
    every serving-hot-path module (the pre-reliability baseline)."""

    def __enter__(self):
        import importlib

        self._saved = []
        for name in _SERVING_SITE_MODULES:
            module = importlib.import_module(name)
            self._saved.append((module, module.fault_point))
            module.fault_point = lambda site: None
        return self

    def __exit__(self, *exc_info):
        for module, original in self._saved:
            module.fault_point = original


def _executor_loop(executor: ChainBatchExecutor, pool: list[Video],
                   iterations: int) -> None:
    for index in range(iterations):
        outcomes, __ = executor.run_batch([pool[index % len(pool)]])
        if isinstance(outcomes[0], BaseException):  # pragma: no cover
            raise outcomes[0]


def bench_executor(pool: list[Video], iterations: int) -> dict:
    model = FoundationModel(make_rng(0, "bench-reliability-model"))
    executor = ChainBatchExecutor(StressChainPipeline(model))
    _executor_loop(executor, pool, len(pool))  # warm every cache

    def timed() -> float:
        return _best_of(3, lambda: _executor_loop(executor, pool, iterations))

    with _StubbedSites():
        stubbed_s = timed()
    disabled_s = timed()
    zero_plan = FaultPlan(
        [FaultSpec(site=site, rate=0.0) for site in FAULT_SITES], seed=1)
    with injected(zero_plan):
        armed_s = timed()

    def rps(elapsed: float) -> float:
        return iterations / elapsed if elapsed else float("inf")

    return {
        "iterations": iterations,
        "stubbed_rps": rps(stubbed_s),
        "disabled_rps": rps(disabled_s),
        "armed_zero_rate_rps": rps(armed_s),
        # Positive = the reliability path is slower than the baseline.
        "disabled_overhead_pct": (disabled_s / stubbed_s - 1.0) * 100.0,
        "armed_overhead_pct": (armed_s / stubbed_s - 1.0) * 100.0,
    }


def bench_deadline(pool: list[Video], requests: int) -> dict:
    model = FoundationModel(make_rng(0, "bench-reliability-model"))
    pipeline = StressChainPipeline(model)

    def run(deadline_ms: float | None) -> float:
        service = StressService(pipeline,
                                ServiceConfig(max_batch_size=8))
        for video in pool:  # warm the chain cache
            service.predict(video)

        def loop():
            for index in range(requests):
                service.predict(pool[index % len(pool)],
                                deadline_ms=deadline_ms)

        elapsed = _best_of(3, loop)
        service.close()
        return elapsed

    without_s = run(None)
    # An hour of budget: the deadline plumbing runs on every request
    # (constructed at submit, checked at batch collection) but never
    # actually sheds.
    with_s = run(3_600_000.0)
    return {
        "requests": requests,
        "no_deadline_rps": requests / without_s if without_s else float("inf"),
        "with_deadline_rps": requests / with_s if with_s else float("inf"),
        "deadline_overhead_pct": (with_s / without_s - 1.0) * 100.0,
    }


def bench_reliability(quick: bool) -> dict:
    pool = _pool(4 if quick else 8)
    executor_iterations = 3_000 if quick else 20_000
    deadline_requests = 1_500 if quick else 8_000
    section = {
        "mode": "quick" if quick else "full",
        "fault_point_disabled_ns": _bench_fault_point_ns(
            200_000 if quick else 1_000_000),
        "executor": bench_executor(pool, executor_iterations),
        "deadline": bench_deadline(pool, deadline_requests),
    }
    ex, dl = section["executor"], section["deadline"]
    print(f"fault_point (disarmed): "
          f"{section['fault_point_disabled_ns']:.0f} ns/call")
    print(f"executor hot loop: stubbed {ex['stubbed_rps']:8.0f} req/s  "
          f"disabled {ex['disabled_rps']:8.0f} req/s "
          f"({ex['disabled_overhead_pct']:+.1f}%)  "
          f"armed-zero {ex['armed_zero_rate_rps']:8.0f} req/s "
          f"({ex['armed_overhead_pct']:+.1f}%)")
    print(f"service round-trip: no-deadline {dl['no_deadline_rps']:8.0f} "
          f"req/s  with-deadline {dl['with_deadline_rps']:8.0f} req/s "
          f"({dl['deadline_overhead_pct']:+.1f}%)")
    return section


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small workload for CI smoke runs")
    parser.add_argument("--check", action="store_true",
                        help="fail if the disabled reliability path costs "
                             ">25%% of baseline throughput")
    parser.add_argument("--output", type=Path,
                        default=REPO_ROOT / "BENCH_eval.json")
    args = parser.parse_args(argv)

    section = bench_reliability(args.quick)
    section["cpu_count"] = os.cpu_count()
    merge_report(args.output, {"reliability": section})
    print(json.dumps(section, indent=2))

    if args.check:
        failures = []
        if section["executor"]["disabled_overhead_pct"] > 25.0:
            failures.append(
                "disabled fault sites cost "
                f"{section['executor']['disabled_overhead_pct']:.1f}% "
                "of executor throughput (> 25%)")
        if section["deadline"]["deadline_overhead_pct"] > 25.0:
            failures.append(
                "deadline plumbing costs "
                f"{section['deadline']['deadline_overhead_pct']:.1f}% "
                "of service throughput (> 25%)")
        if failures:
            print("CHECK FAILED: " + "; ".join(failures), file=sys.stderr)
            return 1
        print("CHECK PASSED")
    return 0


if __name__ == "__main__":
    sys.exit(main())
