#!/usr/bin/env python
"""Throughput benchmark for the sharded replica pool.

Measures :class:`~repro.serving.ReplicaPool` at 1, 2, and 4 thread
replicas against :class:`~repro.serving.SerialDispatcher` (a global
lock around ``pipeline.predict`` -- the same baseline
``bench_serving.py`` uses) under identical concurrent hot-content
client load, plus a single :class:`~repro.serving.StressService` for
reference.  Every response is checked bitwise against a serial
reference run, so the benchmark doubles as an equivalence check under
load.

Consistent-hash routing is what the scaling story rests on: each clip
always lands on the same replica, so per-replica chain caches stay as
hot as one service's would -- sharding multiplies batcher workers
without multiplying cache misses.

Results merge into the ``pool`` section of ``BENCH_eval.json`` at the
repository root (other sections are preserved).

Usage::

    PYTHONPATH=src python benchmarks/bench_pool.py [--quick] [--check]

``--quick`` shrinks the workload for CI smoke runs; ``--check`` exits
non-zero if any response mismatches the serial reference or the
speedup at 4 replicas falls below 1.5x.
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
from repro.serving import (
    ReplicaPool,
    SerialDispatcher,
    ServiceConfig,
    StressService,
)
from repro.video.frame import Video, VideoSpec

REPO_ROOT = Path(__file__).resolve().parent.parent

REPLICA_LEVELS = (1, 2, 4)
NUM_CLIENTS = 16


def _content_pool(num_videos: int) -> list[Video]:
    videos = []
    for index in range(num_videos):
        rng = np.random.default_rng(21_000 + index)
        curves = np.clip(rng.random((12, 12)) * rng.uniform(0.2, 1.0), 0, 1)
        videos.append(Video(VideoSpec(
            video_id=f"bench-pool-{index}",
            subject_id=f"bench-pool-subj-{index % 8}",
            au_intensities=curves, identity=rng.standard_normal(8),
            noise_scale=0.02, seed=21_000 + index,
        )))
    return videos


def _drive(dispatcher, content, num_clients: int, requests_per_client: int,
           reference: dict) -> tuple[float, int]:
    """Run the client load; returns (elapsed_s, num_mismatches)."""
    mismatches = [0]
    lock = threading.Lock()
    barrier = threading.Barrier(num_clients + 1)

    def client(client_id: int) -> None:
        rng = random.Random(23_000 + client_id)
        requests = [content[rng.randrange(len(content))]
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


def bench_pool(quick: bool) -> dict:
    requests_per_client = 40 if quick else 150
    content = _content_pool(8 if quick else 16)
    pipeline = StressChainPipeline(
        FoundationModel(make_rng(0, "bench-pool-model")))
    config = ServiceConfig(max_batch_size=64)

    # Serial reference + warm model-side caches (frame render, patch
    # features), so the timed runs compare dispatch strategies rather
    # than first-touch rendering cost.
    reference = {video.video_id: pipeline.predict(video)
                 for video in content}
    total = NUM_CLIENTS * requests_per_client

    serial = SerialDispatcher(pipeline)
    serial_s, serial_bad = _drive(serial, content, NUM_CLIENTS,
                                  requests_per_client, reference)
    serial.close()

    service = StressService(pipeline, config)
    for video in content:
        service.predict(video)
    service_s, service_bad = _drive(service, content, NUM_CLIENTS,
                                    requests_per_client, reference)
    service.close()

    levels = []
    for num_replicas in REPLICA_LEVELS:
        pool = ReplicaPool(pipeline, num_replicas=num_replicas,
                           backend="thread", config=config)
        # steady-state: one pass over the content warms each routed
        # replica's chain cache
        for video in content:
            pool.predict(video)
        pool_s, pool_bad = _drive(pool, content, NUM_CLIENTS,
                                  requests_per_client, reference)
        snapshot = pool.stats()
        pool.close()

        level = {
            "replicas": num_replicas,
            "clients": NUM_CLIENTS,
            "requests_per_client": requests_per_client,
            "total_requests": total,
            "pool_s": pool_s,
            "pool_rps": total / pool_s if pool_s else float("inf"),
            "speedup_vs_serial": serial_s / pool_s if pool_s
            else float("inf"),
            "speedup_vs_service": service_s / pool_s if pool_s
            else float("inf"),
            "results_match": pool_bad == 0,
            "routed": list(snapshot.routed),
            "cache_hit_rate": (
                sum(r.cache["chain"].hits for r in snapshot.replicas)
                / max(1, sum(r.cache["chain"].hits + r.cache["chain"].misses
                             for r in snapshot.replicas))),
        }
        levels.append(level)
        print(f"replicas={num_replicas}  pool {level['pool_rps']:8.0f} "
              f"req/s  vs-serial {level['speedup_vs_serial']:.2f}x  "
              f"vs-service {level['speedup_vs_service']:.2f}x  "
              f"hit-rate {level['cache_hit_rate']:.2f}  "
              f"routed {level['routed']}")

    return {
        "mode": "quick" if quick else "full",
        "content_pool": len(content),
        "backend": "thread",
        "serial_s": serial_s,
        "serial_rps": total / serial_s if serial_s else float("inf"),
        "service_s": service_s,
        "service_rps": total / service_s if service_s else float("inf"),
        "baseline_results_match": serial_bad == 0 and service_bad == 0,
        "levels": levels,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small workload for CI smoke runs")
    parser.add_argument("--check", action="store_true",
                        help="fail on mismatches or <1.5x speedup at "
                             "4 replicas")
    parser.add_argument("--output", type=Path,
                        default=REPO_ROOT / "BENCH_eval.json")
    args = parser.parse_args(argv)

    section = bench_pool(args.quick)
    section["cpu_count"] = os.cpu_count()
    merge_report(args.output, {"pool": section})
    print(json.dumps(section, indent=2))

    if args.check:
        failures = []
        if not section["baseline_results_match"]:
            failures.append("baseline responses diverged from serial")
        for level in section["levels"]:
            if not level["results_match"]:
                failures.append(
                    f"responses diverged from serial at "
                    f"{level['replicas']} replicas")
        top = section["levels"][-1]
        if top["speedup_vs_serial"] < 1.5:
            failures.append(
                f"speedup at {top['replicas']} replicas is "
                f"{top['speedup_vs_serial']:.2f}x (< 1.5x)")
        if failures:
            print("CHECK FAILED: " + "; ".join(failures), file=sys.stderr)
            return 1
        print("CHECK PASSED")
    return 0


if __name__ == "__main__":
    sys.exit(main())
