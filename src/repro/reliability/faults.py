"""Deterministic fault injection at named sites.

A handful of *fault sites* are compiled into the library's hot paths:

========================  ====================================================
site                      where it fires
========================  ====================================================
``model.forward``         :meth:`FoundationModel.embed_video` (the trunk pass
                          of every chain run)
``serve.execute``         :meth:`ChainBatchExecutor.run_batch`, once per
                          unique request key before its cache lookup;
                          and once per chain-cache hit answered at
                          submit (:meth:`ChainBatchExecutor.run_hit`)
``persistence.io``        :func:`save_model` / :func:`load_model` (and the
                          training checkpointer built on them)
``cv.fold``               each cross-validation fold, before its fit
========================  ====================================================

When no :class:`FaultPlan` is installed every site is a no-op costing
one global read and a ``None`` check, calling nothing (pinned by
``tests/test_serving_service.py``).  When a plan is armed,
each site draws from its *own* seeded RNG stream -- derived from
``(plan seed, site name)`` exactly like every other stream in the repo
(see :mod:`repro.rng`) -- so a failure schedule is a pure function of
the plan: replaying the same seed against the same call sequence
injects the same faults at the same hit indices, which is what lets
the chaos suite assert exact invariants under chaos.

Plans come from code (tests) or from the environment::

    REPRO_FAULTS="serve.execute:rate=0.25;model.forward:rate=0.1,mode=delay,delay_ms=2"

Spec grammar: ``site:key=value[,key=value...]`` joined by ``;``.  Keys:
``rate`` (fault probability per hit, required), ``mode`` (``error`` |
``delay``, default ``error``), ``delay_ms`` (for ``delay`` mode) and
``max`` (stop injecting after N faults at this site).  An optional
leading ``seed=N;`` entry seeds the plan (default 0).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro.config import FAULTS_ENV, env_value
from repro.errors import ConfigError, FaultInjectedError
from repro.rng import make_rng

#: Every fault site compiled into the library.
FAULT_SITES: tuple[str, ...] = (
    "model.forward",
    "serve.execute",
    "persistence.io",
    "cv.fold",
)

_MODES = ("error", "delay")


@dataclass(frozen=True, slots=True)
class FaultSpec:
    """One site's injection schedule inside a :class:`FaultPlan`."""

    site: str
    rate: float
    mode: str = "error"
    delay_ms: float = 0.0
    max_faults: int | None = None

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ConfigError(
                f"unknown fault site {self.site!r}; known: {FAULT_SITES}")
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigError(f"fault rate must be in [0, 1], got {self.rate}")
        if self.mode not in _MODES:
            raise ConfigError(
                f"fault mode must be one of {_MODES}, got {self.mode!r}")
        if self.delay_ms < 0:
            raise ConfigError(
                f"delay_ms must be >= 0, got {self.delay_ms}")
        if self.max_faults is not None and self.max_faults < 0:
            raise ConfigError(
                f"max must be >= 0, got {self.max_faults}")


@dataclass(frozen=True, slots=True)
class SiteCounts:
    """Observed traffic of one site under an armed plan."""

    hits: int
    faults: int


class _SiteState:
    __slots__ = ("spec", "rng", "hits", "faults")

    def __init__(self, spec: FaultSpec, plan_seed: int):
        self.spec = spec
        self.rng = make_rng(plan_seed, f"faults:{spec.site}")
        self.hits = 0
        self.faults = 0


class FaultPlan:
    """A seeded, deterministic schedule of faults across sites.

    Thread-safe: serving drives fault sites from several threads, and
    each site's draw sequence is serialized under the plan lock, so the
    *number* of faults per site is deterministic for a given number of
    hits even when the hit order across threads is not.
    """

    def __init__(self, specs: list[FaultSpec] | tuple[FaultSpec, ...] = (),
                 seed: int = 0):
        sites = [spec.site for spec in specs]
        if len(sites) != len(set(sites)):
            raise ConfigError(f"duplicate fault site in plan: {sites}")
        self.seed = seed
        self._lock = threading.Lock()
        self._sites = {
            spec.site: _SiteState(spec, seed) for spec in specs
        }

    # ------------------------------------------------------------------

    @classmethod
    def from_spec(cls, text: str) -> "FaultPlan":
        """Parse the ``REPRO_FAULTS`` grammar (module docstring)."""
        seed = 0
        specs: list[FaultSpec] = []
        for entry in text.split(";"):
            entry = entry.strip()
            if not entry:
                continue
            if entry.startswith("seed="):
                seed = int(entry[len("seed="):])
                continue
            site, __, options = entry.partition(":")
            site = site.strip()
            fields: dict[str, object] = {}
            for option in options.split(","):
                option = option.strip()
                if not option:
                    continue
                key, sep, value = option.partition("=")
                if not sep:
                    raise ConfigError(
                        f"bad fault option {option!r} in {entry!r} "
                        "(expected key=value)")
                key = key.strip()
                value = value.strip()
                if key == "rate":
                    fields["rate"] = float(value)
                elif key == "mode":
                    fields["mode"] = value
                elif key == "delay_ms":
                    fields["delay_ms"] = float(value)
                elif key == "max":
                    fields["max_faults"] = int(value)
                else:
                    raise ConfigError(
                        f"unknown fault option {key!r} in {entry!r}")
            if "rate" not in fields:
                raise ConfigError(f"fault spec {entry!r} is missing rate=")
            specs.append(FaultSpec(site=site, **fields))  # type: ignore[arg-type]
        return cls(specs, seed=seed)

    # ------------------------------------------------------------------

    def check(self, site: str) -> None:
        """One hit at ``site``: raise/delay per the schedule, else pass."""
        state = self._sites.get(site)
        if state is None:
            return
        with self._lock:
            state.hits += 1
            spec = state.spec
            if spec.max_faults is not None and state.faults >= spec.max_faults:
                return
            if spec.rate <= 0.0 or state.rng.random() >= spec.rate:
                return
            state.faults += 1
            fault_index = state.faults
        if spec.mode == "delay":
            time.sleep(spec.delay_ms / 1000.0)
            return
        raise FaultInjectedError(
            f"injected fault #{fault_index} at site {site!r} "
            f"(plan seed {self.seed}, rate {spec.rate})")

    def counts(self) -> dict[str, SiteCounts]:
        """Hits and injected faults per configured site."""
        with self._lock:
            return {
                site: SiteCounts(hits=state.hits, faults=state.faults)
                for site, state in self._sites.items()
            }

    @property
    def sites(self) -> tuple[str, ...]:
        return tuple(self._sites)


# ----------------------------------------------------------------------
# The process-wide armed plan
# ----------------------------------------------------------------------

_ACTIVE: FaultPlan | None = None


def active_plan() -> FaultPlan | None:
    """The currently armed plan, or ``None``."""
    return _ACTIVE


def install_plan(plan: FaultPlan) -> None:
    """Arm ``plan`` process-wide (replaces any previous plan)."""
    global _ACTIVE
    _ACTIVE = plan


def uninstall_plan() -> None:
    """Disarm fault injection; every site returns to the no-op path."""
    global _ACTIVE
    _ACTIVE = None


@contextmanager
def injected(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Arm ``plan`` for the duration of a ``with`` block (tests)."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = plan
    try:
        yield plan
    finally:
        _ACTIVE = previous


def fault_point(site: str) -> None:
    """The call compiled into each site.

    The disabled path is one module-global read and a ``None`` check;
    sites may sit on hot loops (``model.forward`` runs per request).
    """
    plan = _ACTIVE
    if plan is not None:
        plan.check(site)


def configure_from_env() -> FaultPlan | None:
    """Arm a plan from ``REPRO_FAULTS`` if the variable is set.

    Called once at :mod:`repro.reliability` import, mirroring how
    ``REPRO_TRACE`` auto-installs the JSONL exporter.  Returns the
    installed plan (or ``None``).
    """
    spec = env_value(FAULTS_ENV)
    if not spec:
        return None
    plan = FaultPlan.from_spec(spec)
    install_plan(plan)
    return plan
