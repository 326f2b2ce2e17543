"""Table III: impact of chain reasoning on detection performance.

Variants: "w/o Chain" (direct stress query, no Describe step),
"w/o learn des." (chain without Stage-1 instruction tuning), and ours.
"""

from __future__ import annotations

from repro.evaluation.protocol import evaluate_ours
from repro.experiments.common import (
    ExperimentOptions,
    load_dataset,
    load_instruction_pairs,
    refine_config,
)
from repro.experiments.result import ExperimentResult
from repro.metrics.reporting import format_table

COLUMNS = ("Acc.", "Prec.", "Rec.", "F1.")
VARIANTS = (("wo_chain", "w/o Chain"), ("wo_learn_des", "w/o learn des."),
            ("ours", "Ours"))


def run(options: ExperimentOptions | None = None,
        variants=VARIANTS, experiment_id: str = "table3",
        title: str = "Table III: chain reasoning ablation (detection)",
        caption: str = "Table III ({}): chain-reasoning ablation",
        ) -> ExperimentResult:
    """Regenerate Table III (also reused by Table V with different
    variants).  ``caption`` is formatted with the dataset name."""
    options = options or ExperimentOptions()
    folds = options.scale.num_folds
    data: dict[str, dict[str, dict[str, float]]] = {}
    blocks = []
    for dataset_name in ("uvsd", "rsl"):
        dataset = load_dataset(dataset_name, options)
        rows: dict[str, dict[str, float]] = {}
        for variant, label in variants:
            metrics = evaluate_ours(
                dataset, load_instruction_pairs(options), variant,
                folds, options.seed, refine_config(options, variant),
            )
            rows[label] = metrics.as_row()
        data[dataset_name] = rows
        blocks.append(format_table(
            f"{caption.format(dataset_name.upper())}, {folds}-fold CV, "
            f"scale={options.scale.name}",
            COLUMNS, rows,
        ))
    return ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        text="\n\n".join(blocks),
        data=data,
    )
