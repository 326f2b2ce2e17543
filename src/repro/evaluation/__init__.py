"""Cross-validation harness and per-method evaluation protocols."""

from repro.evaluation.cross_validation import cross_validate
from repro.evaluation.parallel import parallel_map, resolve_num_workers
from repro.evaluation.protocol import (
    evaluate_baseline,
    evaluate_offtheshelf,
    evaluate_ours,
)

__all__ = [
    "cross_validate",
    "evaluate_baseline",
    "evaluate_offtheshelf",
    "evaluate_ours",
    "parallel_map",
    "resolve_num_workers",
]
