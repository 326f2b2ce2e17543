#!/usr/bin/env python
"""Throughput benchmark for the serving layer.

Measures :class:`~repro.serving.StressService` (dynamic micro-batching
+ the chain-result cache) against :class:`~repro.serving.SerialDispatcher`
(the pre-serving baseline: a global lock around ``pipeline.predict``)
under identical concurrent client load at 1, 8, and 32 clients.

Traffic is hot-content: each client draws from a shared pool of
repeated videos, the regime the serving layer is built for (dashboards
and review UIs re-requesting the same clips).  Every response is
checked bitwise against a serial reference run, so the benchmark
doubles as an equivalence check under load.

Results merge into the ``serving`` section of ``BENCH_eval.json`` at
the repository root (other sections are preserved).

Usage::

    PYTHONPATH=src python benchmarks/bench_serving.py [--quick] [--check]

``--quick`` shrinks the workload for CI smoke runs; ``--check`` exits
non-zero if any response mismatches the serial reference or the
speedup at 32 clients falls below 3x.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import threading
import time
from pathlib import Path

import numpy as np

from bench_common import merge_report
from repro.cot.chain import StressChainPipeline
from repro.model.foundation import FoundationModel
from repro.rng import make_rng
from repro.serving import SerialDispatcher, ServiceConfig, StressService
from repro.video.frame import Video, VideoSpec

REPO_ROOT = Path(__file__).resolve().parent.parent

CLIENT_LEVELS = (1, 8, 32)


def _pool(num_videos: int) -> list[Video]:
    videos = []
    for index in range(num_videos):
        rng = np.random.default_rng(9_000 + index)
        curves = np.clip(rng.random((12, 12)) * rng.uniform(0.2, 1.0), 0, 1)
        videos.append(Video(VideoSpec(
            video_id=f"bench-serving-{index}",
            subject_id=f"bench-serving-subj-{index % 8}",
            au_intensities=curves, identity=rng.standard_normal(8),
            noise_scale=0.02, seed=9_000 + index,
        )))
    return videos


def _drive(dispatcher, pool, num_clients: int, requests_per_client: int,
           reference: dict) -> tuple[float, int]:
    """Run the client load; returns (elapsed_s, num_mismatches)."""
    mismatches = [0]
    lock = threading.Lock()
    barrier = threading.Barrier(num_clients + 1)

    def client(client_id: int) -> None:
        rng = random.Random(17_000 + client_id)
        requests = [pool[rng.randrange(len(pool))]
                    for __ in range(requests_per_client)]
        barrier.wait()
        bad = 0
        for video in requests:
            result = dispatcher.predict(video)
            want = reference[video.video_id]
            if (result.prob_stressed != want.prob_stressed
                    or result.label != want.label
                    or result.session.transcript()
                    != want.session.transcript()):
                bad += 1
        with lock:
            mismatches[0] += bad

    threads = [threading.Thread(target=client, args=(i,))
               for i in range(num_clients)]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    return elapsed, mismatches[0]


def bench_serving(quick: bool) -> dict:
    requests_per_client = 60 if quick else 250
    pool = _pool(8 if quick else 16)
    model = FoundationModel(make_rng(0, "bench-serving-model"))
    pipeline = StressChainPipeline(model)

    # Serial reference + warm model-side caches (frame render, patch
    # features) shared by BOTH dispatchers, so the timed runs compare
    # dispatch strategies rather than first-touch rendering cost.
    reference = {video.video_id: pipeline.predict(video) for video in pool}

    levels = []
    for num_clients in CLIENT_LEVELS:
        total = num_clients * requests_per_client

        serial = SerialDispatcher(pipeline)
        serial_s, serial_bad = _drive(serial, pool, num_clients,
                                      requests_per_client, reference)
        serial.close()

        service = StressService(pipeline,
                                ServiceConfig(max_batch_size=64))
        # steady-state: one pass over the pool warms the chain cache
        for video in pool:
            service.predict(video)
        service_s, service_bad = _drive(service, pool, num_clients,
                                        requests_per_client, reference)
        stats = service.stats()
        service.close()

        level = {
            "clients": num_clients,
            "requests_per_client": requests_per_client,
            "total_requests": total,
            "serial_s": serial_s,
            "service_s": service_s,
            "serial_rps": total / serial_s if serial_s else float("inf"),
            "service_rps": total / service_s if service_s else float("inf"),
            "speedup": serial_s / service_s if service_s else float("inf"),
            "results_match": serial_bad == 0 and service_bad == 0,
            "mean_batch_occupancy": stats.mean_batch_occupancy,
            "cache_hit_rate": stats.cache_hit_rate,
            "latency_p50_ms": stats.latency_p50_s * 1e3,
            "latency_p95_ms": stats.latency_p95_s * 1e3,
        }
        levels.append(level)
        print(f"clients={num_clients:3d}  serial {level['serial_rps']:8.0f} "
              f"req/s  service {level['service_rps']:8.0f} req/s  "
              f"speedup {level['speedup']:.2f}x  "
              f"occupancy {level['mean_batch_occupancy']:.1f}  "
              f"hit-rate {level['cache_hit_rate']:.2f}")

    return {
        "mode": "quick" if quick else "full",
        "pool_size": len(pool),
        "pipeline": "chain",
        "levels": levels,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small workload for CI smoke runs")
    parser.add_argument("--check", action="store_true",
                        help="fail on mismatches or <3x speedup at 32 clients")
    parser.add_argument("--output", type=Path,
                        default=REPO_ROOT / "BENCH_eval.json")
    args = parser.parse_args(argv)

    section = bench_serving(args.quick)
    section["cpu_count"] = os.cpu_count()
    merge_report(args.output, {"serving": section})
    print(json.dumps(section, indent=2))

    if args.check:
        failures = []
        for level in section["levels"]:
            if not level["results_match"]:
                failures.append(
                    f"responses diverged from serial at "
                    f"{level['clients']} clients")
        top = section["levels"][-1]
        if top["speedup"] < 3.0:
            failures.append(
                f"speedup at {top['clients']} clients is "
                f"{top['speedup']:.2f}x (< 3x)")
        if failures:
            print("CHECK FAILED: " + "; ".join(failures), file=sys.stderr)
            return 1
        print("CHECK PASSED")
    return 0


if __name__ == "__main__":
    sys.exit(main())
