"""Table V: impact of the self-refine learning scheme on detection.

Variants: "w/o Refine" (no refinement at all), "w/o Reflection"
(refinement candidates come from plain resampling instead of guided
reflection), and ours.  Reuses the Table III protocol.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentOptions
from repro.experiments.result import ExperimentResult
from repro.experiments.table3_chain_ablation import run as run_table3

VARIANTS = (("wo_refine", "w/o Refine"), ("wo_reflection", "w/o Reflection"),
            ("ours", "Ours"))


def run(options: ExperimentOptions | None = None) -> ExperimentResult:
    """Regenerate Table V."""
    return run_table3(
        options, variants=VARIANTS, experiment_id="table5",
        title="Table V: self-refine learning ablation (detection)",
        caption="Table V ({}): self-refine ablation",
    )
