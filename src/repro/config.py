"""Central reader for every ``REPRO_*`` environment variable.

The library's runtime knobs used to be read ad hoc -- worker counts in
:mod:`repro.evaluation.parallel`, the trace path in
:mod:`repro.observability.tracing`, the fault spec in
:mod:`repro.reliability.faults` -- each module parsing ``os.environ``
with its own conventions.  :class:`Settings` is the single reader they
all share now: one dataclass, one variable registry (:data:`ENV_VARS`,
which the README's configuration table mirrors), one place validation
and defaults live.

``settings()`` reads the environment *fresh on every call*.  That is
deliberate: tests monkeypatch variables mid-process, and caching a
snapshot at import time would silently ignore them.  The read is a
handful of dict lookups -- nothing here belongs on a per-request hot
path anyway (callers resolve once per pool/run/exporter, not per
prediction).

======================== =====================================================
variable                 meaning
======================== =====================================================
``REPRO_NUM_WORKERS``    worker count of training's forked SLIC pass
``REPRO_TRACE``          path: install the JSONL span exporter at import
``REPRO_FAULTS``         fault-plan spec: arm deterministic fault injection
``REPRO_POOL_REPLICAS``  default replica count for ``ReplicaPool``
``REPRO_HYPOTHESIS_PROFILE`` hypothesis profile for the property suites
======================== =====================================================
"""

from __future__ import annotations

import os
from collections.abc import Mapping
from dataclasses import dataclass

from repro.errors import ConfigError

__all__ = [
    "ENV_VARS",
    "FAULTS_ENV",
    "HYPOTHESIS_PROFILE_ENV",
    "NUM_WORKERS_ENV",
    "POOL_REPLICAS_ENV",
    "Settings",
    "TRACE_ENV",
    "env_value",
    "settings",
]

#: Environment variable naming the worker count of training's forked
#: SLIC pass.
NUM_WORKERS_ENV = "REPRO_NUM_WORKERS"

#: Environment variable naming the JSONL trace output path.
TRACE_ENV = "REPRO_TRACE"

#: Environment variable holding the fault-injection plan spec.
FAULTS_ENV = "REPRO_FAULTS"

#: Environment variable naming the default replica-pool size.
POOL_REPLICAS_ENV = "REPRO_POOL_REPLICAS"

#: Environment variable selecting the hypothesis settings profile.
HYPOTHESIS_PROFILE_ENV = "REPRO_HYPOTHESIS_PROFILE"

#: Every recognised variable: name -> (one-line meaning, default shown
#: in docs).  ``tests/test_config.py`` asserts this registry and the
#: :class:`Settings` fields stay in sync.
ENV_VARS: dict[str, tuple[str, str]] = {
    NUM_WORKERS_ENV: (
        "worker count of training's forked SLIC pass (1 keeps it in "
        "process)", "cpu count"),
    TRACE_ENV: (
        "path of the JSONL span trace (installs the exporter at import)",
        "unset (tracing off)"),
    FAULTS_ENV: (
        "fault-plan spec armed at repro.reliability import",
        "unset (no faults)"),
    POOL_REPLICAS_ENV: (
        "default ReplicaPool size (more than 1 forks one process per "
        "replica)", "1"),
    HYPOTHESIS_PROFILE_ENV: (
        "hypothesis profile for the property suites: fast | ci", "fast"),
}


def env_value(name: str,
              environ: Mapping[str, str] | None = None) -> str | None:
    """Raw value of one registered variable; ``None`` when unset or empty.

    The import-time hooks (the trace exporter, the fault-plan arm) read
    through this instead of :func:`settings` so a malformed *unrelated*
    variable -- say ``REPRO_POOL_REPLICAS=abc`` -- cannot break
    ``import repro``; it fails where that variable is actually consumed.
    """
    if name not in ENV_VARS:
        raise ConfigError(
            f"unknown configuration variable {name!r}; "
            f"known: {sorted(ENV_VARS)}")
    env = os.environ if environ is None else environ
    return env.get(name) or None


def _parse_positive_int(name: str, raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(
            f"{name} must be an integer, got {raw!r}") from None
    if value < 1:
        raise ConfigError(f"{name} must be positive, got {value}")
    return value


@dataclass(frozen=True, slots=True)
class Settings:
    """One immutable snapshot of every ``REPRO_*`` variable.

    ``None`` means the variable is unset and the consuming layer should
    apply its own default (CPU count, one replica, tracing off, ...).
    """

    num_workers: int | None = None
    trace_path: str | None = None
    faults_spec: str | None = None
    pool_replicas: int | None = None
    hypothesis_profile: str = "fast"

    @classmethod
    def from_env(cls, environ: Mapping[str, str] | None = None) -> "Settings":
        """Read (and validate the numeric fields of) one snapshot.

        Raises
        ------
        ConfigError
            When a count variable is not a positive integer.
        """
        env = os.environ if environ is None else environ
        num_workers = env.get(NUM_WORKERS_ENV) or None
        pool_replicas = env.get(POOL_REPLICAS_ENV) or None
        return cls(
            num_workers=(_parse_positive_int(NUM_WORKERS_ENV, num_workers)
                         if num_workers is not None else None),
            trace_path=env.get(TRACE_ENV) or None,
            faults_spec=env.get(FAULTS_ENV) or None,
            pool_replicas=(_parse_positive_int(POOL_REPLICAS_ENV,
                                               pool_replicas)
                           if pool_replicas is not None else None),
            hypothesis_profile=env.get(HYPOTHESIS_PROFILE_ENV) or "fast",
        )


def settings(environ: Mapping[str, str] | None = None) -> Settings:
    """The current environment's :class:`Settings` (read fresh -- see
    the module docstring for why there is no cache)."""
    return Settings.from_env(environ)
