"""Shared helpers for the benchmark scripts.

Each bench script owns one top-level section of ``BENCH_eval.json``
(``bench_observability.py`` owns ``observability``).  ``merge_report``
updates only the caller's section, so it never clobbers the sections
no script writes any more (``deletion_metric``, ``parallel_cv``,
``serving``, ``pool`` and ``reliability`` are a frozen record).
"""

from __future__ import annotations

import json
from pathlib import Path


def merge_report(path: Path, updates: dict) -> dict:
    """Merge ``updates`` into the JSON report at ``path`` and return
    the full merged document.  Unknown/corrupt existing content is
    replaced rather than crashing the benchmark run."""
    report: dict = {}
    if path.exists():
        try:
            existing = json.loads(path.read_text())
            if isinstance(existing, dict):
                report = existing
        except (json.JSONDecodeError, OSError):
            pass
    report.update(updates)
    path.write_text(json.dumps(report, indent=2) + "\n")
    return report
