"""Interpretable video-based stress detection with self-refine chain
reasoning.

A full reproduction of the ICDE 2025 paper on a synthetic substrate
(see DESIGN.md): the Describe -> Assess -> Highlight reasoning chain
over a trainable vision-language foundation-model simulator, the
self-refine DPO learning scheme, eight supervised baselines, three
post-hoc explainers, and a harness regenerating every table and figure
of the paper's evaluation.

Quickstart::

    from repro import (
        generate_uvsd, generate_disfa, build_instruction_pairs,
        train_test_split, train_stress_model, StressPipeline,
    )

    dataset = generate_uvsd(num_samples=400, num_subjects=40)
    train, test = train_test_split(dataset)
    pairs = build_instruction_pairs(generate_disfa(num_samples=300))
    model, report = train_stress_model(train, pairs)
    pipeline = StressPipeline(model)
    result = pipeline.predict(test[0].video)
    print(result.label, result.rationale.render())

Every error the library raises derives from :class:`ReproError`; every
``REPRO_*`` environment variable is read through
:func:`~repro.config.settings` (see the README's configuration table).
"""

from repro.config import ENV_VARS, Settings, settings
from repro.cot.chain import (
    ChainResult,
    StressChainPipeline,
    StressPipeline,
)
from repro.cot.rationale import Rationale
from repro.datasets import (
    build_instruction_pairs,
    generate_disfa,
    generate_rsl,
    generate_uvsd,
    kfold_splits,
    train_test_split,
)
from repro.errors import (
    CheckpointError,
    CircuitOpenError,
    ConfigError,
    DatasetError,
    DeadlineExceededError,
    DeploymentError,
    ExperimentError,
    ExplainerError,
    FaultInjectedError,
    GenerationError,
    ModelError,
    PoolError,
    RegistryError,
    ReproError,
    ServiceClosedError,
    ServiceOverloadedError,
    ServingError,
    TrainingError,
)
from repro.facs.descriptions import FacialDescription
from repro.metrics.classification import evaluate_predictions
from repro.model.foundation import FoundationModel
from repro.model.pretrained import available_vendors, load_offtheshelf
from repro.model.registry import ModelRegistry
from repro.observability import (
    MetricsRegistry,
    global_metrics,
    install_exporter,
    span,
)
from repro.reliability import (
    BreakerConfig,
    Deadline,
    FaultPlan,
    injected,
)
from repro.serving import (
    Deployment,
    PoolStatsSnapshot,
    ReplicaPool,
    ServiceConfig,
    StressService,
)
from repro.training.self_refine import SelfRefineConfig
from repro.training.trainer import train_stress_model, variant_config

__version__ = "1.1.0"

__all__ = [
    "BreakerConfig",
    "ChainResult",
    "CheckpointError",
    "CircuitOpenError",
    "ConfigError",
    "DatasetError",
    "Deadline",
    "DeadlineExceededError",
    "Deployment",
    "DeploymentError",
    "ENV_VARS",
    "ExperimentError",
    "ExplainerError",
    "FacialDescription",
    "FaultInjectedError",
    "FaultPlan",
    "FoundationModel",
    "GenerationError",
    "MetricsRegistry",
    "ModelError",
    "ModelRegistry",
    "PoolError",
    "PoolStatsSnapshot",
    "Rationale",
    "RegistryError",
    "ReplicaPool",
    "ReproError",
    "SelfRefineConfig",
    "ServiceClosedError",
    "ServiceConfig",
    "ServiceOverloadedError",
    "ServingError",
    "Settings",
    "StressChainPipeline",
    "StressPipeline",
    "StressService",
    "TrainingError",
    "available_vendors",
    "build_instruction_pairs",
    "evaluate_predictions",
    "generate_disfa",
    "generate_rsl",
    "generate_uvsd",
    "global_metrics",
    "injected",
    "install_exporter",
    "kfold_splits",
    "load_offtheshelf",
    "settings",
    "span",
    "train_stress_model",
    "train_test_split",
    "variant_config",
]
