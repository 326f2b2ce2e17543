"""The repository benchmark: one workload per call, in a fresh process.

Usage, from the repository root::

    python3 perfbench/run.py --workload hot_closed --seed 1 \
        --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run.
``--trace 1`` runs the workload twice, untraced and then traced, and
prints the per-layer ledger of the traced run plus
``tracing_overhead_frac`` (the traced run's CPU per op over the
untraced run's, minus one).  Metric names and units come from
``BENCHMARK.json``; README.md maps each metric to its layer and
workload.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
holds the run's context (hardware, sample counts).  The exit code is
non-zero when any output mismatched its reference or any op failed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("hot_closed", "cold_open", "train_cv")
#: Per child; two children (``--trace 1``) must end within 180 s.
CHILD_TIMEOUT_S = 85
#: Fixed for every child so a developer's shell cannot skew a run.
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def _child_env() -> dict[str, str]:
    """The parent's environment without any ``REPRO_*`` setting (a
    stray ``REPRO_TRACE`` or ``REPRO_FAULTS`` would change the run),
    with BLAS pinned to one thread: the 48-wide GEMMs gain nothing
    from threading."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env.update(CHILD_ENV)
    return env


def _run_child(workload: str, seed: int, seconds: int,
               traced: bool) -> dict:
    command = [sys.executable, str(HERE / "workloads.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds)]
    if traced:
        command.append("--trace")
    completed = subprocess.run(command, cwd=ROOT, env=_child_env(),
                               stdout=subprocess.PIPE, text=True,
                               timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _declared(names: list[dict], values: dict) -> dict:
    """``values`` keyed and ordered as BENCHMARK.json declares them;
    a missing or extra name is a benchmark bug, not a result."""
    if set(values) != {entry["name"] for entry in names}:
        raise SystemExit(
            f"metrics {sorted(values)} do not match BENCHMARK.json "
            f"{sorted(entry['name'] for entry in names)}")
    return {entry["name"]: {"value": values[entry["name"]],
                            "unit": entry["unit"]}
            for entry in names}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    runs = [_run_child(args.workload, args.seed, args.seconds, False)]
    if args.trace:
        runs.append(_run_child(args.workload, args.seed, args.seconds, True))
        layers = dict(runs[1]["layers"])
        layers["tracing_overhead_frac"] = (
            runs[1]["metrics"]["cpu_ms_per_op"]
            / runs[0]["metrics"]["cpu_ms_per_op"] - 1.0)
        metrics = _declared(spec["per_layer"], layers)
    else:
        metrics = _declared(spec["end_to_end"], runs[0]["metrics"])
    last = runs[-1]
    failed = max(run["failed"] for run in runs)
    correct = all(run["failed"] == 0 and run["mismatches"] == 0
                  for run in runs)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "succeeded": last["succeeded"],
                      "mismatches": last["mismatches"], **last["info"]}))
    print(json.dumps({"correct": correct, "attempted": last["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
