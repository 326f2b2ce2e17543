"""Exception hierarchy for the ``repro`` library.

Every error raised intentionally by the library derives from
:class:`ReproError`, so callers can catch library failures without
masking programming errors such as :class:`TypeError`.
"""

from __future__ import annotations

__all__ = [
    "CheckpointError",
    "CircuitOpenError",
    "ConfigError",
    "DatasetError",
    "DeadlineExceededError",
    "DeploymentError",
    "ExperimentError",
    "ExplainerError",
    "FaultInjectedError",
    "GenerationError",
    "ModelError",
    "PoolError",
    "RegistryError",
    "ReproError",
    "ServiceClosedError",
    "ServiceOverloadedError",
    "ServingError",
    "TrainingError",
]


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigError(ReproError):
    """An invalid configuration value was supplied."""


class DatasetError(ReproError):
    """A dataset could not be generated, loaded, or split as requested."""


class ModelError(ReproError):
    """A model was used in an unsupported way (e.g. before training)."""


class GenerationError(ModelError):
    """Text/description generation failed or produced an unparsable output."""


class TrainingError(ReproError):
    """A training stage could not run (bad stage ordering, empty data, ...)."""


class ExplainerError(ReproError):
    """An explainer received inputs it cannot attribute."""


class ExperimentError(ReproError):
    """An experiment runner was invoked with an unknown id or bad options."""


class ServingError(ReproError):
    """The serving layer was used in an unsupported way."""


class ServiceClosedError(ServingError):
    """A request was submitted to a service that has shut down."""


class ServiceOverloadedError(ServingError):
    """Backpressure: the request queue is at ``max_queue_depth``."""


class FaultInjectedError(ReproError):
    """Raised by an armed :class:`~repro.reliability.faults.FaultPlan`
    at a named fault site.  It fails the operation that passed the
    site, as the real failure the site stands for would."""


class DeadlineExceededError(ServingError):
    """The request's deadline expired while it was still queued; it was
    shed before any executor work was spent on it."""


class CircuitOpenError(ServingError):
    """The serving circuit breaker is open and the request could not be
    served from cache (degraded mode off or cache miss)."""


class CheckpointError(ReproError):
    """A training checkpoint is missing, corrupt, or belongs to a
    different (config, dataset) fingerprint than the resuming run."""


class PoolError(ServingError):
    """The replica pool cannot serve as asked: a replica count below
    1, a count above 1 without ``os.fork``, a replica whose child
    process has exited, a child serving another fingerprint after a
    swap, or a registry with no versions."""


class RegistryError(ModelError):
    """A model-registry artifact is missing, corrupt, or fails its
    recorded integrity digest."""


class DeploymentError(PoolError):
    """A versioned deploy could not complete -- the canary's circuit
    breaker tripped (the canaries were rolled back), or the requested
    version is not loadable on every replica."""
