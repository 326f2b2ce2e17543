"""Shared experiment infrastructure: scales, options, cached artifacts.

Every experiment accepts an :class:`ExperimentOptions` whose
:class:`Scale` controls dataset sizes, fold counts and evaluation
budgets.  ``full`` matches the paper's setup exactly (2092/706 samples,
10 folds, 1000-evaluation explainers); ``standard`` is the default for
EXPERIMENTS.md regeneration; ``quick`` keeps benchmarks and CI fast.

Trained models are cached per (dataset, variant, scale, seed) within
the process so a session that runs several experiments trains each
configuration once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.datasets import build_instruction_pairs, generate_disfa
from repro.datasets.base import StressDataset, kfold_splits
from repro.datasets.rsl import generate_rsl
from repro.datasets.uvsd import generate_uvsd
from repro.errors import ExperimentError
from repro.rng import derive_seed
from repro.training.self_refine import SelfRefineConfig
from repro.training.trainer import train_stress_model, variant_config
from repro.video.frame import clear_frame_working_set


@dataclass(frozen=True)
class Scale:
    """Size preset for one experiment run."""

    name: str
    uvsd_samples: int
    uvsd_subjects: int
    rsl_samples: int
    rsl_subjects: int
    disfa_samples: int
    num_folds: int
    refine_sample_limit: int | None
    eval_samples: int          # samples per dataset for interpretability evals
    explainer_budget: int      # LIME/SHAP evaluation budget
    sobol_designs: int


SCALES: dict[str, Scale] = {
    "quick": Scale("quick", 320, 32, 240, 24, 200, 3, 120, 24, 200, 4),
    "standard": Scale("standard", 900, 70, 450, 45, 400, 3, 350, 60, 600, 8),
    "full": Scale("full", 2092, 112, 706, 60, 645, 10, None, 120, 1000, 16),
}


@dataclass(frozen=True)
class ExperimentOptions:
    """Options common to every experiment runner."""

    scale: Scale = field(default_factory=lambda: SCALES["quick"])
    seed: int = 0

    @classmethod
    def at(cls, scale_name: str, seed: int = 0) -> "ExperimentOptions":
        if scale_name not in SCALES:
            raise ExperimentError(
                f"unknown scale {scale_name!r}; known: {sorted(SCALES)}"
            )
        return cls(scale=SCALES[scale_name], seed=seed)


# ----------------------------------------------------------------------
# Cached artifact store
# ----------------------------------------------------------------------

_DATASET_CACHE: dict[tuple, StressDataset] = {}
_PAIRS_CACHE: dict[tuple, list] = {}
_MODEL_CACHE: dict[tuple, tuple] = {}


def load_dataset(name: str, options: ExperimentOptions) -> StressDataset:
    """UVSD or RSL at the option's scale (cached)."""
    scale = options.scale
    key = (name, scale.name, options.seed)
    if key not in _DATASET_CACHE:
        if name == "uvsd":
            _DATASET_CACHE[key] = generate_uvsd(
                options.seed, scale.uvsd_samples, scale.uvsd_subjects
            )
        elif name == "rsl":
            _DATASET_CACHE[key] = generate_rsl(
                options.seed, scale.rsl_samples, scale.rsl_subjects
            )
        else:
            raise ExperimentError(f"unknown dataset {name!r}")
    return _DATASET_CACHE[key]


def load_instruction_pairs(options: ExperimentOptions) -> list:
    """DISFA+ instruction pairs at the option's scale (cached)."""
    key = (options.scale.name, options.seed)
    if key not in _PAIRS_CACHE:
        disfa = generate_disfa(
            options.seed, options.scale.disfa_samples,
            num_subjects=max(10, options.scale.disfa_samples // 24),
        )
        _PAIRS_CACHE[key] = build_instruction_pairs(disfa)
    return _PAIRS_CACHE[key]


def refine_config(options: ExperimentOptions,
                  variant: str = "ours") -> SelfRefineConfig:
    """The variant's training config at the option's scale."""
    base = SelfRefineConfig(
        refine_sample_limit=options.scale.refine_sample_limit,
        seed=options.seed,
    )
    return variant_config(variant, base)


def trained_model(dataset_name: str, options: ExperimentOptions,
                  variant: str = "ours"):
    """A model trained on the first CV fold's training split (cached).

    Interpretability experiments (Tables II/IV/VI, Figs 6-8) evaluate
    one trained model on held-out samples; using the first fold's
    split keeps them consistent with the detection experiments.

    Returns ``(model, train_split, test_split)``.
    """
    key = (dataset_name, options.scale.name, options.seed, variant)
    if key not in _MODEL_CACHE:
        dataset = load_dataset(dataset_name, options)
        train_idx, test_idx = kfold_splits(
            dataset, options.scale.num_folds, options.seed
        )[0]
        train = dataset.subset(train_idx, f"{dataset_name}-train")
        test = dataset.subset(test_idx, f"{dataset_name}-test")
        model, __ = train_stress_model(
            train, load_instruction_pairs(options),
            config=refine_config(options, variant),
            seed=derive_seed(options.seed, f"exp:{dataset_name}:{variant}"),
        )
        _MODEL_CACHE[key] = (model, train, test)
    return _MODEL_CACHE[key]


def eval_subset(dataset: StressDataset, count: int, seed: int = 0) -> list:
    """A deterministic, class-mixed evaluation subset."""
    if count >= len(dataset):
        return list(dataset)
    # Interleave classes to keep the subset balanced like the source.
    stressed = [s for s in dataset if s.label == 1]
    unstressed = [s for s in dataset if s.label == 0]
    picked: list = []
    ratio = len(stressed) / max(1, len(dataset))
    num_stressed = max(1, int(round(count * ratio)))
    picked.extend(stressed[:num_stressed])
    picked.extend(unstressed[: count - len(picked)])
    return picked[:count]


def clear_caches() -> None:
    """Drop all cached datasets/models and the frame working set
    (tests use this)."""
    _DATASET_CACHE.clear()
    _PAIRS_CACHE.clear()
    _MODEL_CACHE.clear()
    clear_frame_working_set()
