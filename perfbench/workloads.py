"""One benchmark workload, run in a fresh process by ``run.py``.

Usage (``run.py`` builds this command and a clean environment)::

    python3 perfbench/workloads.py --workload hot_closed --seed 1 \
        --seconds 20 [--trace]

Prints one JSON object: the end-to-end metrics (or, with ``--trace``,
the per-layer ledger plus the run's own ``cpu_ms_per_op``), the op
counts, and the hardware the numbers came from.  See README.md for
what each workload exercises and why.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import queue
import resource
import sys
import time
import zlib
from functools import partial
from pathlib import Path

# setup_s starts here, before the program (and numpy) is imported.
_T0 = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from repro.cot.chain import StressChainPipeline  # noqa: E402
from repro.errors import ReproError  # noqa: E402
from repro.evaluation import protocol  # noqa: E402
from repro.experiments.common import (  # noqa: E402
    ExperimentOptions,
    clear_caches,
    load_dataset,
    load_instruction_pairs,
    refine_config,
)
from repro.model.foundation import FoundationModel  # noqa: E402
from repro.rng import make_rng  # noqa: E402
from repro.serving import ReplicaPool  # noqa: E402
from repro.video.frame import Video, VideoSpec  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

#: The served model is fixed; only the inputs follow ``--seed``.
MODEL_SEED = 0
#: Set-up is repeated and its median reported (the import runs once).
SETUP_REPEATS = 3
#: A request (or test-clip prediction) that takes longer misses.
SLO_MS = 50.0
#: The serving runs are cut into this many consecutive windows, and
#: latency (and hot_closed's wall and CPU) is the median over windows:
#: a few-ms preemption of a shared host then moves one window, not the
#: result.
WINDOWS = 10

HOT_CLIPS = 256
HOT_ZIPF_S = 1.1
#: Twice the default max_batch_size, so a full batch is always queued.
HOT_IN_FLIGHT = 64
#: Requests per ``--seconds``: fixed work, sized so a run takes about
#: ``--seconds`` on a 2-vCPU VM.
HOT_REQUESTS_PER_S = 12_000

#: About a third of what one replica sustains with its batch timer in
#: every batch.  At 200/s, a slow phase of a shared 2-vCPU VM once
#: pushed the queue past max_queue_depth and requests were refused.
COLD_RATE = 100.0
COLD_WARM_CLIPS = 32
#: 1 in this many cold requests is re-predicted by a fresh pipeline.
COLD_CHECK_EVERY = 8

#: train_cv runs Table I's quick-scale input, whose per-fold metrics
#: were recorded at the parent commit (``train_cv_reference.json``).
#: The input is fixed on purpose: a different dataset seed changes the
#: amount of training work (up to 9% of wall time between seeds 0-4),
#: which would read as run-to-run noise.
REFERENCE_FILE = Path(__file__).resolve().parent / "train_cv_reference.json"
TRAIN_DATA_SEED = 0
TRAIN_FOLDS = 3


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------


def _pipeline() -> StressChainPipeline:
    return StressChainPipeline(
        FoundationModel(make_rng(MODEL_SEED, "perfbench.model")))


def _clip_specs(prefix: str, seed: int, count: int) -> list[VideoSpec]:
    """``count`` clips with ids unique to ``(prefix, seed)``.  Render
    seeds are 62-bit draws, so two clip sets never share content (nor,
    therefore, a cache entry)."""
    rng = np.random.default_rng([seed, zlib.crc32(prefix.encode())])
    specs = []
    for index in range(count):
        curves = np.clip(rng.random((12, 12)) * rng.uniform(0.2, 1.0), 0, 1)
        specs.append(VideoSpec(
            video_id=f"{prefix}-{seed}-{index}",
            subject_id=f"{prefix}-subject-{index % 16}",
            au_intensities=curves,
            identity=rng.standard_normal(8),
            noise_scale=0.02,
            seed=int(rng.integers(1 << 62)),
        ))
    return specs


def _signature(result) -> tuple:
    """What must match bitwise: prob, label, rationale, transcript."""
    return (result.prob_stressed, result.label,
            result.rationale.au_ids, result.session.transcript())


def _cpu_s() -> float:
    """Process CPU seconds (all threads), reaped children included."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _peak_rss_mib() -> float:
    peak_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kib / 1024.0


def _quantile(values, q: float) -> float:
    """Nearest-rank quantile (the rank rounds up)."""
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    if ordered.size == 0:
        return 0.0
    rank = int(np.ceil(q * ordered.size))
    return float(ordered[min(max(rank, 1), ordered.size) - 1])


def _windowed_ms(latencies: np.ndarray, q: float, windows: int) -> float:
    """The median over ``windows`` consecutive slices of each slice's
    ``q`` quantile, in ms; failed ops (NaN samples) are left out."""
    slices = [part[~np.isnan(part)]
              for part in np.array_split(latencies, windows)]
    return float(np.median([_quantile(part, q) for part in slices])) * 1e3


def _latency_metrics(latencies_s, attempted: int,
                     windows: int = 1) -> tuple[dict, dict]:
    """(metrics, context) of one run's per-op latencies.

    The metrics are the windowed median and the SLO share of all
    attempted ops (a failure, a NaN sample, counts as a miss).  The
    tail percentiles go to the context only: on a shared 2-vCPU VM a
    run's p95 moved by up to 60% between identical runs, while the SLO
    share, the tail measure that is gated, stayed within 1%.
    """
    latencies = np.asarray(latencies_s, dtype=np.float64)
    ok = latencies[~np.isnan(latencies)]
    metrics = {
        "latency_p50_ms": _windowed_ms(latencies, 0.50, windows),
        "slo_attained_frac": float(
            np.count_nonzero(ok * 1e3 <= SLO_MS)) / attempted,
    }
    context = {
        "latency_p95_ms": _windowed_ms(latencies, 0.95, windows),
        "latency_p99_ms": _quantile(ok, 0.99) * 1e3,
        "latency_samples": int(ok.size),
    }
    return metrics, context


def _setup_median(build) -> tuple[float, object]:
    """Run ``build`` SETUP_REPEATS times; returns (median seconds plus
    the one-off import time, the last build's product).  Earlier
    products are closed when they have a ``close``."""
    times, product = [], None
    for repeat in range(SETUP_REPEATS):
        if product is not None and hasattr(product, "close"):
            product.close()
        # Free the previous product now, so peak RSS does not depend on
        # when the cyclic collector happens to run.
        product = None
        gc.collect()
        start = time.perf_counter()
        product = build()
        times.append(time.perf_counter() - start)
    gc.collect()
    return IMPORT_S + float(np.median(times)), product


def _pool_counters(pool) -> dict:
    snapshot = pool.stats()
    out = {"hits": 0, "misses": 0, "batches": 0, "executed": 0,
           "deduplicated": 0}
    for replica in snapshot.replicas:
        out["hits"] += sum(c.hits for c in replica.cache.values())
        out["misses"] += sum(c.misses for c in replica.cache.values())
        out["batches"] += replica.batches
        out["executed"] += round(replica.mean_batch_occupancy
                                 * replica.batches)
        out["deduplicated"] += replica.deduplicated
    # Windowed quantiles (the latest LATENCY_WINDOW samples), so they
    # describe the timed phase once it outnumbers the warm-up.
    out["queue_wait_p50_ms"] = max(
        r.queue_wait_p50_s for r in snapshot.replicas) * 1e3
    out["execute_p50_ms"] = max(
        r.execute_p50_s for r in snapshot.replicas) * 1e3
    return out


def _pool_delta(before: dict, after: dict) -> dict:
    d = {key: after[key] - before[key]
         for key in ("hits", "misses", "batches", "executed",
                     "deduplicated")}
    lookups = d["hits"] + d["misses"]
    return {
        "stage_cache_hit_frac": d["hits"] / lookups if lookups else 0.0,
        "batch_occupancy": (d["executed"] / d["batches"]
                            if d["batches"] else 0.0),
        "dedup_frac": (d["deduplicated"] / d["executed"]
                       if d["executed"] else 0.0),
        "queue_wait_p50_ms": after["queue_wait_p50_ms"],
        "execute_p50_ms": after["execute_p50_ms"],
    }


class _Phase:
    """The timed phase: wall and CPU clocks, and the ledger when the
    run is traced."""

    def __init__(self, traced: bool):
        self.ledger = None
        if traced:
            from ledger import Ledger

            self.ledger = Ledger()

    def __enter__(self) -> "_Phase":
        if self.ledger is not None:
            self.ledger.install()
        self.cpu = _cpu_s()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.wall_s = time.perf_counter() - self.start
        self.cpu_s = _cpu_s() - self.cpu
        if self.ledger is not None:
            self.ledger.remove()


# ----------------------------------------------------------------------
# hot_closed
# ----------------------------------------------------------------------


def _warm(pool, videos: list[Video]) -> None:
    """Serve ``videos`` once, in full batches, and wait for them."""
    for start in range(0, len(videos), HOT_IN_FLIGHT):
        futures = [pool.submit(video)
                   for video in videos[start:start + HOT_IN_FLIGHT]]
        for future in futures:
            future.result(timeout=60)


def hot_closed(seed: int, seconds: int, traced: bool) -> dict:
    total = seconds * HOT_REQUESTS_PER_S
    specs = _clip_specs("hot", seed, HOT_CLIPS)
    rng = np.random.default_rng([seed, 7])
    weights = 1.0 / np.arange(1, HOT_CLIPS + 1) ** HOT_ZIPF_S
    ranks = rng.permutation(HOT_CLIPS)
    draws = ranks[rng.choice(HOT_CLIPS, size=total, p=weights / weights.sum())]
    requests = [Video(spec) for spec in specs]
    reference_pipeline = _pipeline()
    reference = [_signature(reference_pipeline.predict(Video(spec)))
                 for spec in specs]
    del reference_pipeline

    def build():
        pool = ReplicaPool(_pipeline())
        _warm(pool, [Video(spec) for spec in specs])
        return pool

    setup_s, pool = _setup_median(build)
    done: queue.SimpleQueue = queue.SimpleQueue()
    on_done = (lambda future:
               done.put((future, time.perf_counter())))
    in_flight: dict = {}
    latencies = np.full(total, np.nan)
    window = total // WINDOWS
    marks = []  # (wall, cpu) at each window boundary
    succeeded = failed = mismatches = sent = finished = 0

    def send() -> None:
        nonlocal sent
        index = int(draws[sent])
        sent += 1
        try:
            future = pool.submit(requests[index])
        except ReproError:
            done.put((None, 0.0))  # refused: a failed op
            return
        in_flight[future] = (index, time.perf_counter())
        future.add_done_callback(on_done)

    before = _pool_counters(pool)
    with _Phase(traced) as phase:
        marks.append((phase.start, phase.cpu))
        while sent < min(HOT_IN_FLIGHT, total):
            send()
        while finished < total:
            future, done_at = done.get(timeout=60)
            index, sent_at = in_flight.pop(future, (None, None))
            if future is None or future.exception() is not None:
                failed += 1
            elif _signature(future.result()) != reference[index]:
                mismatches += 1
                failed += 1
            else:
                latencies[finished] = done_at - sent_at
                succeeded += 1
            finished += 1
            if finished % window == 0:
                marks.append((time.perf_counter(), _cpu_s()))
            if sent < total:
                send()
    pool_delta = _pool_delta(before, _pool_counters(pool))
    pool.close()
    marks = np.array(marks)
    window_wall = np.diff(marks[:, 0])
    window_cpu = np.diff(marks[:, 1])
    latency, context = _latency_metrics(latencies, total, WINDOWS)
    metrics = {
        **latency,
        # The fixed work's wall time, estimated as WINDOWS times the
        # median window so one preempted window cannot move it.
        "wall_s": float(np.median(window_wall)) * WINDOWS,
        "cpu_ms_per_op": float(np.median(window_cpu)) / window * 1e3,
        "peak_rss_mib": _peak_rss_mib(),
        "setup_s": setup_s,
    }
    info = {"requests": total, "in_flight": HOT_IN_FLIGHT,
            "clips": HOT_CLIPS, "zipf_s": HOT_ZIPF_S,
            "wall_s_total": phase.wall_s,
            "throughput_rps": total / phase.wall_s, **context}
    return _result(total, succeeded, failed, mismatches, metrics, info,
                   phase, pool_delta, 0.0)


# ----------------------------------------------------------------------
# cold_open
# ----------------------------------------------------------------------


def cold_open(seed: int, seconds: int, traced: bool) -> dict:
    total = int(seconds * COLD_RATE)
    specs = _clip_specs("cold", seed, total)
    warm_specs = _clip_specs("cold-warm", seed, COLD_WARM_CLIPS)
    rng = np.random.default_rng([seed, 11])
    # Poisson arrivals conditioned on ``total`` of them in ``seconds``:
    # sorted uniform times.  The schedule's span is then fixed, so the
    # seed changes when requests arrive, not how long the run is.
    due_offsets = np.sort(rng.uniform(0.0, seconds, size=total))
    checked = np.sort(rng.choice(total, size=total // COLD_CHECK_EVERY,
                                 replace=False))

    def build():
        pool = ReplicaPool(_pipeline())
        # First-touch costs only; these clips are never requested again.
        _warm(pool, [Video(spec) for spec in warm_specs])
        return pool

    setup_s, pool = _setup_median(build)
    futures: list = [None] * total
    done_at = np.zeros(total)
    lag = np.zeros(total)
    refused = 0
    # A future's waiters wake before its callbacks run, so the end of
    # the run is the last callback, not the last resolved future.
    callbacks: queue.SimpleQueue = queue.SimpleQueue()

    def on_done(index, future) -> None:
        done_at[index] = time.perf_counter()
        callbacks.put(index)

    before = _pool_counters(pool)
    with _Phase(traced) as phase:
        start = time.perf_counter() + 0.005
        for index in range(total):
            due = start + due_offsets[index]
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            # Built at send time and not kept: a rendered Video holds
            # its frames, which would charge the client's memory to
            # the program's peak RSS.
            video = Video(specs[index])
            lag[index] = time.perf_counter() - due
            try:
                future = pool.submit(video)
            except ReproError:
                refused += 1
                continue
            futures[index] = future
            future.add_done_callback(partial(on_done, index))
        del video
        for __ in range(total - refused):
            callbacks.get(timeout=60)
    pool_delta = _pool_delta(before, _pool_counters(pool))
    pool.close()

    ok = np.array([f is not None and f.exception() is None for f in futures])
    latencies = np.where(ok, done_at - (start + due_offsets), np.nan)
    failed = total - int(np.count_nonzero(ok))
    fresh = _pipeline()
    mismatches = 0
    for index in checked:
        if not ok[index]:
            continue
        want = _signature(fresh.predict(Video(specs[index])))
        if _signature(futures[index].result()) != want:
            mismatches += 1
    latency, context = _latency_metrics(latencies, total, WINDOWS)
    metrics = {
        **latency,
        # Floor is the arrival schedule (total / COLD_RATE): it moves
        # only when a backlog forms and drains late.
        "wall_s": phase.wall_s,
        "cpu_ms_per_op": phase.cpu_s / total * 1e3,
        "peak_rss_mib": _peak_rss_mib(),
        "setup_s": setup_s,
    }
    info = {"requests": total, "rate_rps": COLD_RATE, "refused": refused,
            "checked": int(len(checked)), **context,
            "generator_lag_p99_ms": _quantile(lag, 0.99) * 1e3}
    return _result(total, total - failed - mismatches, failed + mismatches,
                   mismatches, metrics, info, phase, pool_delta,
                   info["generator_lag_p99_ms"])


# ----------------------------------------------------------------------
# train_cv
# ----------------------------------------------------------------------


def _fold_record(metrics) -> list[str]:
    """Per-fold metrics as exact hex floats (bitwise comparison)."""
    return [float(metrics.accuracy).hex(), float(metrics.precision).hex(),
            float(metrics.recall).hex(), float(metrics.f1).hex(),
            str(metrics.support)]


def train_cv(seed: int, seconds: int, traced: bool) -> dict:
    """``seed`` and ``seconds`` are unused: the reproduction path is
    one fixed CV run over one fixed input (see TRAIN_DATA_SEED)."""
    options = ExperimentOptions.at("quick", TRAIN_DATA_SEED)

    def build():
        clear_caches()
        return (load_dataset("uvsd", options),
                load_instruction_pairs(options), refine_config(options))

    setup_s, (dataset, pairs, config) = _setup_median(build)

    # The per-fold metrics (evaluate_ours returns only their mean) and
    # the test-clip predictions' latencies are read at two seams; both
    # record and pass through.
    per_fold: list = []
    predict_s: list[float] = []
    cross_validate = protocol.cross_validate
    predict = StressChainPipeline.predict

    def capture_folds(*args, **kwargs):
        mean, folds = cross_validate(*args, **kwargs)
        per_fold.extend(folds)
        return mean, folds

    def timed_predict(self, *args, **kwargs):
        start = time.perf_counter()
        result = predict(self, *args, **kwargs)
        predict_s.append(time.perf_counter() - start)
        return result

    protocol.cross_validate = capture_folds
    StressChainPipeline.predict = timed_predict
    try:
        with _Phase(traced) as phase:
            protocol.evaluate_ours(dataset, pairs, "ours", TRAIN_FOLDS,
                                   TRAIN_DATA_SEED, config)
    finally:
        protocol.cross_validate = cross_validate
        StressChainPipeline.predict = predict

    got = [_fold_record(m) for m in per_fold]
    want = json.loads(REFERENCE_FILE.read_text())["folds"]
    mismatches = sum(1 for i in range(TRAIN_FOLDS)
                     if i >= len(got) or got[i] != want[i])
    latency, context = _latency_metrics(predict_s, len(predict_s) or 1)
    metrics = {
        **latency,
        "wall_s": phase.wall_s,
        "cpu_ms_per_op": phase.cpu_s / TRAIN_FOLDS * 1e3,
        "peak_rss_mib": _peak_rss_mib(),
        "setup_s": setup_s,
    }
    info = {"folds": TRAIN_FOLDS, "data_seed": TRAIN_DATA_SEED,
            "dataset_samples": len(dataset), **context,
            # What train_cv_reference.json must hold for this program.
            "fold_metrics": got}
    return _result(TRAIN_FOLDS, TRAIN_FOLDS - mismatches, mismatches,
                   mismatches, metrics, info, phase, None, 0.0)


# ----------------------------------------------------------------------


def _hardware() -> dict:
    blas = {}
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # older numpy: no dict mode
        pass
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _result(attempted, succeeded, failed, mismatches, metrics, info,
            phase, pool_delta, lag_p99_ms) -> dict:
    result = {
        "attempted": attempted,
        "succeeded": succeeded,
        "failed": failed,
        "mismatches": mismatches,
        "metrics": metrics,
        "info": {**info, "hardware": _hardware()},
    }
    if phase.ledger is not None:
        result["layers"] = phase.ledger.metrics(pool_delta, lag_p99_ms)
    return result


WORKLOADS = {
    "hot_closed": hot_closed,
    "cold_open": cold_open,
    "train_cv": train_cv,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    result = WORKLOADS[args.workload](args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
