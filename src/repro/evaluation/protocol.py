"""Per-method evaluation protocols for the paper's tables.

Three method families appear in Table I, each with its own protocol:

- *off-the-shelf LFMs* are frozen; they answer the direct stress query
  with no training (:func:`evaluate_offtheshelf`);
- *supervised baselines* are fitted per fold
  (:func:`evaluate_baseline`);
- *ours* runs the full Algorithm-1 training per fold and predicts
  through the reasoning chain (:func:`evaluate_ours`).
"""

from __future__ import annotations

from repro.baselines.zoo import make_baseline
from repro.cot.chain import StressChainPipeline
from repro.datasets.base import StressDataset
from repro.datasets.instruction import InstructionPair
from repro.evaluation.cross_validation import cross_validate
from repro.metrics.classification import ClassificationMetrics
from repro.model.pretrained import load_offtheshelf
from repro.rng import derive_seed
from repro.training.self_refine import SelfRefineConfig
from repro.training.trainer import train_stress_model, variant_config


def evaluate_offtheshelf(
    vendor: str,
    dataset: StressDataset,
    num_folds: int = 10,
    seed: int = 0,
    use_chain: bool = False,
    test_time_refine: bool = False,
) -> ClassificationMetrics:
    """Zero-shot LFM evaluation (Table I rows 1-3; Table VIII with
    ``use_chain`` / ``test_time_refine``).

    The proxy never trains, but the CV harness is reused so the test
    partitioning matches the supervised methods exactly.
    """
    model = load_offtheshelf(vendor, seed=derive_seed(seed, "offtheshelf"))

    def fit(train: StressDataset, fold_index: int):
        pool = [sample.video for sample in train] if test_time_refine else None
        pipeline = StressChainPipeline(
            model,
            use_chain=use_chain,
            test_time_refine=test_time_refine,
            verification_pool=pool,
            seed=derive_seed(seed, f"ots:{vendor}:{fold_index}"),
        )
        return lambda sample: pipeline.predict(sample.video).label

    mean, __ = cross_validate(fit, dataset, num_folds, seed)
    return mean


def evaluate_baseline(
    key: str,
    dataset: StressDataset,
    num_folds: int = 10,
    seed: int = 0,
) -> ClassificationMetrics:
    """Supervised-baseline evaluation (Table I middle block)."""

    def fit(train: StressDataset, fold_index: int):
        baseline = make_baseline(key)
        baseline.fit(train, seed=derive_seed(seed, f"{key}:{fold_index}"))
        return lambda sample: baseline.predict(sample.video)

    mean, __ = cross_validate(fit, dataset, num_folds, seed)
    return mean


def evaluate_ours(
    dataset: StressDataset,
    instruction_pairs: list[InstructionPair],
    variant: str = "ours",
    num_folds: int = 10,
    seed: int = 0,
    config: SelfRefineConfig | None = None,
) -> ClassificationMetrics:
    """Full-pipeline evaluation (Table I last row; Tables III/V
    variants via ``variant``)."""
    base_config = variant_config(variant, config)

    def fit(train: StressDataset, fold_index: int):
        fold_seed = derive_seed(seed, f"ours:{variant}:{fold_index}")
        model, __ = train_stress_model(
            train, instruction_pairs,
            config=base_config, seed=fold_seed,
        )
        pipeline = StressChainPipeline(
            model, use_chain=base_config.use_chain, seed=fold_seed
        )
        return lambda sample: pipeline.predict(sample.video).label

    mean, __ = cross_validate(fit, dataset, num_folds, seed)
    return mean
