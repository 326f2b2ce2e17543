"""Reliability: fault injection, deadlines, the breaker, checkpoints.

Nothing in a production service is allowed to fail *unpredictably*:
this package gives every failure mode in the stack a deterministic,
testable shape (DESIGN.md section 12):

- :mod:`repro.reliability.faults` -- named fault sites compiled into
  the hot paths, driven by a seeded :class:`FaultPlan` (programmatic
  or via the ``REPRO_FAULTS`` env spec); zero-cost no-op when no plan
  is armed.
- :mod:`repro.reliability.deadlines` -- monotonic-clock
  :class:`Deadline` objects; the micro-batcher sheds expired requests
  before any executor work.
- :mod:`repro.reliability.breaker` -- sliding-window
  :class:`CircuitBreaker` with half-open probing; the service can run
  cache-only degraded mode while open.
- :mod:`repro.reliability.checkpoint` -- stage-boundary
  :class:`TrainingCheckpointer` making ``SelfRefineTrainer.fit``
  resumable with bitwise-identical results.

Importing this package arms a fault plan from ``REPRO_FAULTS`` when
the variable is set (mirroring ``REPRO_TRACE``).
"""

from repro.errors import (
    CheckpointError,
    CircuitOpenError,
    DeadlineExceededError,
    FaultInjectedError,
)
from repro.reliability.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerConfig,
    CircuitBreaker,
)
from repro.reliability.checkpoint import (
    CHECKPOINT_VERSION,
    STAGE_NAMES,
    TrainingCheckpointer,
    training_fingerprint,
)
from repro.reliability.deadlines import Deadline
from repro.reliability.faults import (
    FAULT_SITES,
    FaultPlan,
    FaultSpec,
    SiteCounts,
    active_plan,
    configure_from_env,
    fault_point,
    injected,
    install_plan,
    uninstall_plan,
)

configure_from_env()

__all__ = [
    "BreakerConfig",
    "CHECKPOINT_VERSION",
    "CLOSED",
    "CheckpointError",
    "CircuitBreaker",
    "CircuitOpenError",
    "Deadline",
    "DeadlineExceededError",
    "FAULT_SITES",
    "FaultInjectedError",
    "FaultPlan",
    "FaultSpec",
    "HALF_OPEN",
    "OPEN",
    "STAGE_NAMES",
    "SiteCounts",
    "TrainingCheckpointer",
    "active_plan",
    "configure_from_env",
    "fault_point",
    "injected",
    "install_plan",
    "training_fingerprint",
    "uninstall_plan",
]
