"""Table IV: impact of chain reasoning on rationale faithfulness.

The same variants as Table III, but each variant explains *itself*:
the accuracy drop after disturbing the top-k segments its own
rationale grounds to.
"""

from __future__ import annotations

from repro.cot.chain import StressChainPipeline
from repro.experiments.common import ExperimentOptions, eval_subset, trained_model
from repro.experiments.result import ExperimentResult
from repro.explainers import chain_predict_fn, deletion_metric, rationale_ranker
from repro.metrics.reporting import format_table

COLUMNS = ("Top-1", "Top-2", "Top-3")
VARIANTS = (("wo_chain", "w/o Chain"), ("wo_learn_des", "w/o learn des."),
            ("ours", "Ours"))


def run(options: ExperimentOptions | None = None,
        variants=VARIANTS, experiment_id: str = "table4",
        title: str = "Table IV: chain ablation (faithfulness)",
        ) -> ExperimentResult:
    """Regenerate Table IV (also reused by Table VI with different
    variants)."""
    options = options or ExperimentOptions()
    data: dict[str, dict[str, dict[str, float]]] = {}
    blocks = []
    for dataset_name in ("uvsd", "rsl"):
        rows: dict[str, dict[str, float]] = {}
        for variant, label in variants:
            model, __, test = trained_model(dataset_name, options, variant)
            pipeline = StressChainPipeline(
                model, use_chain=(variant != "wo_chain"), seed=options.seed
            )
            samples = eval_subset(test, options.scale.eval_samples)
            factory = lambda s: chain_predict_fn(pipeline, s)  # noqa: E731
            result = deletion_metric(
                samples, rationale_ranker(pipeline), factory,
                seed=options.seed,
            )
            rows[label] = {f"Top-{k}": d for k, d in result.drops.items()}
        data[dataset_name] = rows
        blocks.append(format_table(
            f"{title.partition(':')[0]} ({dataset_name.upper()}): "
            f"accuracy drop of each variant's own rationale, "
            f"scale={options.scale.name}",
            COLUMNS, rows,
        ))
    return ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        text="\n\n".join(blocks),
        data=data,
    )
