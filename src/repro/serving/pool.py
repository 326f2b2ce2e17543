"""The sharded replica pool: serving scaled across worker replicas.

One :class:`~repro.serving.service.StressService` serializes all model
work on a single batcher thread (DESIGN.md section 10).  A
:class:`ReplicaPool` serves through ``num_replicas`` replicas, each a
:class:`StressService` with its own micro-batch worker, chain cache,
and circuit breaker:

- **One replica runs in process; more replicas fork.**
  ``num_replicas=1`` is one in-process service over the caller's
  pipeline.  Beyond one, each replica's chain cache stays in the
  parent and only its batches' misses run in a forked child (POSIX
  only: without ``os.fork`` such a pool raises
  :class:`~repro.errors.PoolError`), so a cache hit never crosses the
  pipe and a dead child takes no cached answer with it.  Forking pays
  off on cold, compute-bound traffic, where each child runs the chain
  on its own core.  The default count comes from
  ``REPRO_POOL_REPLICAS`` via :func:`repro.config.settings`.
- **Routing is consistent-hash on content.**  Every request is routed
  by its video's :attr:`~repro.video.frame.Video.content_hash` (the
  one digest the chain cache keys on and the frame working set also
  reads) over a vnode hash ring, so one clip's repeats always land on
  the same replica and that replica's LRU cache stays hot -- random
  routing would shred the hit rate across replicas.  Adding or
  removing a replica remaps only the ring arcs it owns, not the whole
  keyspace.
- **Versioned hot-swap.**  :meth:`ReplicaPool.deploy` loads a
  :class:`~repro.model.registry.ModelRegistry` version's verified
  artifact once, hands its path (each forked child loads it) and that
  one loaded copy (against which each child's fingerprint is checked)
  to a canary subset first, and
  :meth:`Deployment.promote` rolls the rest forward or, if a canary's
  circuit breaker tripped, rolls the canaries back.
"""

from __future__ import annotations

import bisect
import hashlib
import multiprocessing
import os
import threading
from dataclasses import dataclass

from repro.config import POOL_REPLICAS_ENV, settings
from repro.errors import (
    ConfigError,
    DeploymentError,
    PoolError,
    ServiceClosedError,
)
from repro.observability import tracing
from repro.observability.metrics import global_metrics
from repro.observability.tracing import span
from repro.reliability.breaker import OPEN, BreakerConfig
# video_content_hash stays importable from here: perfbench's ledger
# wraps it under this module's name.  Routes read Video.content_hash.
from repro.serving.cache import video_content_hash  # noqa: F401
from repro.serving.executor import ChainBatchExecutor, _as_pipeline
from repro.serving.service import ServiceConfig, StressService
from repro.serving.stats import ServiceStatsSnapshot
from repro.video.frame import Video

__all__ = [
    "Deployment",
    "PoolStatsSnapshot",
    "ReplicaPool",
    "resolve_pool_replicas",
]

#: Virtual nodes per replica on the hash ring.  Enough that the
#: keyspace split between replicas stays near-even, small enough that
#: building the ring is trivial.
DEFAULT_VNODES = 64


def resolve_pool_replicas(num_replicas: int | None = None) -> int:
    """Pick the replica count: explicit argument, then the
    ``REPRO_POOL_REPLICAS`` environment variable, then one."""
    if num_replicas is None:
        num_replicas = settings().pool_replicas
        if num_replicas is None:
            num_replicas = 1
    if num_replicas < 1:
        raise PoolError(
            f"num_replicas must be >= 1, got {num_replicas} "
            f"(set {POOL_REPLICAS_ENV} or pass num_replicas)")
    return num_replicas


class _HashRing:
    """A consistent-hash ring over replica indices.

    Each replica owns :data:`DEFAULT_VNODES` points on a SHA-1 ring; a
    key routes to the first point at or after its own hash (wrapping).
    The map is stable: repeats of one key always land on the same
    replica, and resizing the pool moves only the arcs the changed
    replica owned.  A one-replica ring owns every arc, so it routes
    without hashing.
    """

    def __init__(self, num_replicas: int):
        self._single = num_replicas == 1
        points: list[tuple[int, int]] = []
        for replica in range(num_replicas):
            for vnode in range(DEFAULT_VNODES):
                digest = hashlib.sha1(
                    f"replica-{replica}:vnode-{vnode}".encode()).digest()
                points.append((int.from_bytes(digest[:8], "big"), replica))
        points.sort()
        self._hashes = [point for point, __ in points]
        self._replicas = [replica for __, replica in points]

    def route(self, key: str) -> int:
        if self._single:
            return 0
        digest = hashlib.sha1(key.encode()).digest()
        point = int.from_bytes(digest[:8], "big")
        index = bisect.bisect_right(self._hashes, point)
        if index == len(self._hashes):
            index = 0
        return self._replicas[index]


# ----------------------------------------------------------------------
# Forked replicas
# ----------------------------------------------------------------------


class _PipeExecutor(ChainBatchExecutor):
    """A forked replica's executor: the in-process one, whose batch
    misses run in a child that inherits the pipeline through fork.
    Everything else runs in the parent.  The pipe carries three calls
    -- run misses, swap, close -- strictly request/response under a
    lock, so calls never interleave."""

    def __init__(self, pipeline, cache_capacity: int, name: str):
        super().__init__(pipeline, cache_capacity)
        context = multiprocessing.get_context("fork")
        self._conn, child_conn = context.Pipe()
        self._lock = threading.Lock()
        self._process = context.Process(
            target=_process_replica_worker,
            args=(child_conn, self.pipeline),
            name=name,
            daemon=True,
        )
        self._process.start()
        child_conn.close()

    def _call(self, method: str, *args):
        with self._lock:
            if not self._process.is_alive():
                raise PoolError(
                    f"{self._process.name} worker process has exited")
            self._conn.send((method, args))
            status, payload = self._conn.recv()
        if status == "error":
            raise payload
        return payload

    def _run_misses(self, videos: list[Video]) -> list[object]:
        try:
            return self._call("run_misses", videos)
        except Exception as exc:  # noqa: BLE001 - fail the misses
            return [exc] * len(videos)

    def swap(self, source, loaded=None) -> None:
        """Swap the child to ``source``, then the parent's copy that
        keys read (``loaded``, or ``source`` loaded here); a child
        serving another fingerprint raises :class:`PoolError` and
        leaves the parent's pipeline and cache as they were."""
        pipeline = loaded if loaded is not None else _as_pipeline(source)
        served = self._call("swap", source)
        if served != pipeline.model.fingerprint():
            raise PoolError(
                f"{self._process.name} serves fingerprint {served}, "
                f"not the swapped-in {pipeline.model.fingerprint()}")
        super().swap(pipeline)

    def close(self) -> None:
        try:
            self._call("close")
        except (PoolError, OSError, EOFError):
            pass
        self._process.join(5.0)
        if self._process.is_alive():  # pragma: no cover - hung child
            self._process.terminate()
        self._conn.close()


def _process_replica_worker(conn, pipeline) -> None:
    """Child-process loop of one forked replica: answers
    ``("ok", result)`` / ``("error", exc)`` per call until ``close``;
    a swap replies with the fingerprint it now serves."""
    executor = ChainBatchExecutor(pipeline, cache_capacity=0)

    def swap(source) -> str:
        executor.swap(source)
        return executor.fingerprint()

    calls = {"run_misses": executor._run_misses, "swap": swap,
             "close": lambda: None}
    try:
        while True:
            try:
                method, args = conn.recv()
            except EOFError:
                return
            try:
                conn.send(("ok", calls[method](*args)))
            except Exception as exc:  # noqa: BLE001 - child must survive
                conn.send(("error", exc))
            if method == "close":
                return
    finally:
        # The child leaves through os._exit, which skips the atexit
        # close that would write out its last spans.
        tracing.flush()


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class PoolStatsSnapshot:
    """A point-in-time view of the whole pool: each replica's own
    :class:`ServiceStatsSnapshot`, and the totals derived from them."""

    num_replicas: int
    version: str | None
    replicas: tuple[ServiceStatsSnapshot, ...]

    @property
    def routed(self) -> tuple[int, ...]:
        """Requests accepted per replica: the routing histogram the
        consistent-hash ring produced."""
        return tuple(replica.requests for replica in self.replicas)

    @property
    def requests(self) -> int:
        return sum(self.routed)


class ReplicaPool:
    """Shards serving across replicas with consistent-hash routing.

    Parameters
    ----------
    pipeline:
        The pipeline every replica starts from.  One replica serves
        this object in process; forked replicas inherit it.  It must
        not be trained while the pool serves it.
    num_replicas:
        Replica count (default: ``REPRO_POOL_REPLICAS``, then 1).  One
        replica is an in-process :class:`StressService`; more fork one
        child process each, and raise :class:`PoolError` where
        ``os.fork`` is missing.
    config:
        Per-replica :class:`ServiceConfig`.  The default attaches a
        :class:`~repro.reliability.breaker.BreakerConfig` so every
        replica gets its own circuit breaker (canary promotion reads
        them); pass an explicit config to override.
    registry:
        Optional :class:`~repro.model.registry.ModelRegistry` that
        :meth:`deploy` resolves versions against.
    version:
        Optional name of the version ``pipeline`` was loaded from
        (reported in stats; lets a rollback re-install it by artifact
        path instead of pickling weights).
    """

    def __init__(self, pipeline, *, num_replicas: int | None = None,
                 config: ServiceConfig | None = None,
                 registry=None, version: str | None = None):
        self.num_replicas = resolve_pool_replicas(num_replicas)
        if self.num_replicas > 1 and not hasattr(os, "fork"):
            raise PoolError(
                f"num_replicas={self.num_replicas} forks one process per "
                "replica, and this platform has no os.fork; serve one "
                "replica in process instead")
        self.config = (config if config is not None
                       else ServiceConfig(breaker=BreakerConfig()))
        self.registry = registry
        self.version = version
        self._ring = _HashRing(self.num_replicas)
        self._deploy_lock = threading.Lock()
        self._closed = False
        initial = (pipeline, version, pipeline)
        if registry is not None and version is not None:
            initial = (registry.verified_artifact(version), version,
                       pipeline)
        # Each replica's service, and the ``(source, version,
        # pipeline)`` deploy payload its current weights came from
        # (what a rollback re-installs).
        self._replicas: list[StressService] = []
        self._payloads: list[tuple] = [initial] * self.num_replicas
        try:
            for index in range(self.num_replicas):
                executor = (
                    ChainBatchExecutor(pipeline, self.config.cache_capacity)
                    if self.num_replicas == 1
                    else _PipeExecutor(pipeline, self.config.cache_capacity,
                                       f"pool-replica-{index}"))
                self._replicas.append(
                    StressService._over(executor, self.config))
        except BaseException:
            # A failed build stops the batcher threads and children of
            # the replicas it already started.
            self.close(drain=False)
            raise
        metrics = global_metrics()
        metrics.gauge("pool.replicas").set(self.num_replicas)
        self._m_deploys = metrics.counter("pool.deploys")
        self._m_rollbacks = metrics.counter("pool.rollbacks")

    @classmethod
    def from_registry(cls, registry, version: str | None = None,
                      **kwargs) -> "ReplicaPool":
        """A pool serving ``version`` (default: the registry's latest)
        loaded through the persistence layer."""
        if version is None:
            version = registry.latest()
        if version is None:
            raise PoolError(f"registry {registry.root} holds no versions")
        pipeline = registry.load(version)
        return cls(pipeline, registry=registry, version=version, **kwargs)

    @staticmethod
    def _payload(registry, version: str) -> tuple:
        """The ``(source, version, pipeline)`` payload that serves
        ``version``: its verified artifact path, which each forked
        child loads itself, so weights never cross a pipe, and that
        path loaded once here, which every replica's parent side
        shares (each child's fingerprint is checked against it)."""
        path = registry.verified_artifact(version)
        return (path, version, _as_pipeline(path))

    # -- the hot path --------------------------------------------------

    def route(self, video: Video) -> int:
        """The replica index ``video`` shards to: a function of its
        content hash alone, so repeats of a clip always land on the
        same replica."""
        return self._ring.route(video.content_hash)

    def submit(self, video: Video, deadline_ms: float | None = None):
        """Route and enqueue one request; returns a
        ``Future[ChainResult]``.  Raises the same backpressure and
        closed-state errors as :meth:`StressService.submit`."""
        if self._closed:
            raise ServiceClosedError(
                "replica pool is shut down; no new requests accepted")
        index = self.route(video)
        with span("pool.route", replica=index):
            return self._replicas[index].submit(video,
                                                deadline_ms=deadline_ms)

    def predict(self, video: Video, timeout: float | None = None,
                deadline_ms: float | None = None):
        """Blocking predict: route, submit, and wait for the result."""
        return self.submit(video, deadline_ms=deadline_ms).result(timeout)

    # -- introspection -------------------------------------------------

    def fingerprints(self) -> list[str]:
        """Each replica's model fingerprint (asserts which weights a
        replica actually serves -- equal fingerprints imply bitwise-
        equal forward passes)."""
        return [service.executor.fingerprint() for service in self._replicas]

    def stats(self) -> PoolStatsSnapshot:
        return PoolStatsSnapshot(
            num_replicas=self.num_replicas,
            version=self.version,
            replicas=tuple(service.stats() for service in self._replicas),
        )

    # -- deploys -------------------------------------------------------

    def deploy(self, version: str, *, canary_fraction: float = 1.0,
               registry=None) -> "Deployment":
        """Hot-swap every replica to ``version`` from the registry.

        With ``canary_fraction < 1`` only the first
        ``max(1, round(fraction * n))`` replicas swap now; the
        returned :class:`Deployment` stays in its canary state until
        :meth:`Deployment.promote` checks the canaries' circuit
        breakers and either rolls the rest of the pool forward or
        rolls the canaries back (raising
        :class:`~repro.errors.DeploymentError`).  When the computed
        canary set covers every replica (e.g. any fraction on a
        one-replica pool), the deployment completes immediately and a
        subsequent :meth:`Deployment.promote` is a no-op.  Each
        replica drains its in-flight batch before its weights change,
        so zero in-flight requests fail during a swap.  If a swap
        fails, the replicas already swapped are swapped back before
        the error propagates, so the pool still serves its previous
        version everywhere.
        """
        self._check_open()
        registry = registry if registry is not None else self.registry
        if registry is None:
            raise DeploymentError(
                "deploy needs a ModelRegistry (pass registry= here or to "
                "the pool constructor)")
        if not 0.0 < canary_fraction <= 1.0:
            raise ConfigError(
                f"canary_fraction must be in (0, 1], got {canary_fraction}")
        payload = self._payload(registry, version)
        if canary_fraction >= 1.0:
            canary_count = self.num_replicas
        else:
            canary_count = min(self.num_replicas,
                               max(1, round(canary_fraction
                                            * self.num_replicas)))
        with self._deploy_lock:
            canaries = tuple(range(canary_count))
            previous = self._swap_in(canaries, payload)
            self._m_deploys.inc()
            deployment = Deployment(self, version, payload, canaries,
                                    previous)
            if canary_count == self.num_replicas:
                deployment._complete()
        return deployment

    def _swap_in(self, indices, payload: tuple) -> dict[int, tuple]:
        """Swap ``payload`` into the replicas at ``indices``, all or
        none: returns the payloads they served before, and if a swap
        raises, swaps the replicas already changed back first.  The
        caller holds the deploy lock."""
        previous: dict[int, tuple] = {}
        try:
            for index in indices:
                with span("pool.swap", replica=index, version=payload[1]):
                    self._replicas[index].swap_pipeline(payload[0],
                                                        payload[2])
                previous[index] = self._payloads[index]
                self._payloads[index] = payload
        except BaseException:
            self._restore(previous)
            raise
        return previous

    def _restore(self, previous: dict[int, tuple]) -> None:
        """Swap each replica in ``previous`` back to its payload there."""
        for index, payload in previous.items():
            with span("pool.swap", replica=index, rollback=True):
                self._replicas[index].swap_pipeline(payload[0], payload[2])
            self._payloads[index] = payload

    # -- lifecycle -----------------------------------------------------

    def _check_open(self) -> None:
        """Refuse a deploy up front, as :meth:`submit` refuses a
        request: nothing serves a closed pool."""
        if self._closed:
            raise ServiceClosedError(
                "replica pool is shut down; nothing to deploy to")

    def close(self, drain: bool = True, timeout: float | None = None) -> bool:
        """Shut every replica down; ``True`` iff all drained fully."""
        self._closed = True
        drained = True
        for service in self._replicas:
            drained = service.close(drain=drain, timeout=timeout) and drained
        return drained

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "ReplicaPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class Deployment:
    """One in-progress (or finished) versioned rollout.

    States: ``"canary"`` (a subset serves the new version) ->
    ``"complete"`` (:meth:`promote` rolled every replica forward) or
    ``"rolled_back"`` (:meth:`rollback`, or a canary breaker trip
    during :meth:`promote`).
    """

    def __init__(self, pool: ReplicaPool, version: str, payload,
                 canaries: tuple[int, ...], previous: dict):
        self.pool = pool
        self.version = version
        self._payload = payload
        self.canaries = canaries
        self._previous = previous
        self.state = "canary"

    def _complete(self) -> None:
        self.state = "complete"
        self.pool.version = self.version

    def tripped_canaries(self) -> list[int]:
        """Canary replicas whose circuit breaker is currently open."""
        tripped = []
        for index in self.canaries:
            breaker = self.pool._replicas[index].breaker
            if breaker is not None and breaker.state == OPEN:
                tripped.append(index)
        return tripped

    def promote(self) -> None:
        """Roll the remaining replicas forward -- unless a canary's
        breaker tripped, in which case the canaries are rolled back
        and :class:`~repro.errors.DeploymentError` is raised.

        A no-op on an already-``"complete"`` deployment: ``deploy()``
        auto-completes when the canary set covers the whole pool (for
        example, any fraction on a one-replica pool), and an
        unconditional ``promote()`` after that is not an error.
        Promoting a rolled-back deployment still raises.  If a swap
        fails while rolling forward, the replicas this call already
        swapped are swapped back, and the deployment stays in its
        canary state.
        """
        if self.state == "complete":
            return
        if self.state != "canary":
            raise DeploymentError(
                f"deployment of {self.version!r} is {self.state}; only a "
                "canary-state deployment can be promoted")
        self.pool._check_open()
        tripped = self.tripped_canaries()
        if tripped:
            self.rollback()
            raise DeploymentError(
                f"canary breaker open on replica(s) {tripped} while baking "
                f"{self.version!r}; canaries rolled back")
        with self.pool._deploy_lock:
            rest = [index for index in range(self.pool.num_replicas)
                    if index not in self._previous]
            self._previous.update(self.pool._swap_in(rest, self._payload))
        self._complete()

    def rollback(self) -> None:
        """Restore every swapped replica to its pre-deploy weights."""
        if self.state == "rolled_back":
            return
        with self.pool._deploy_lock:
            self.pool._restore(self._previous)
        self.pool._m_rollbacks.inc()
        previous_versions = {payload[1]
                             for payload in self._previous.values()}
        if len(previous_versions) == 1:
            self.pool.version = next(iter(previous_versions))
        self.state = "rolled_back"
