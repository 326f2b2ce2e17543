"""The sharded replica pool: serving scaled across worker replicas.

One :class:`~repro.serving.service.StressService` serializes all model
work on a single batcher thread (DESIGN.md section 10).  A
:class:`ReplicaPool` shards that hot path across ``num_replicas``
independent replicas, each owning its *own* pipeline copy, micro-batch
worker, stage caches, and circuit breaker:

- **Routing is consistent-hash on content.**  Every request is routed
  by its video content hash over a vnode hash ring, so one clip's
  repeats always land on the same replica and that replica's LRU
  caches stay hot -- random routing would shred the hit rate across
  replicas.  Adding or removing a replica remaps only the ring arcs it
  owns, not the whole keyspace.
- **Two replica backends, one batch path.**  Every replica is a
  :class:`StressService`.  A ``"thread"`` replica's service runs its
  executor in process over a per-replica pipeline clone; a
  ``"process"`` replica's service runs over a pipe executor that
  forwards each executor call to a forked child owning the real
  executor and stage caches (POSIX only -- mirrors
  :mod:`repro.evaluation.parallel`'s fork backend, and falls back to
  threads the same way).  Retry, degraded mode, and cache stats are
  therefore the same on both backends.  Defaults come from
  ``REPRO_POOL_REPLICAS`` / ``REPRO_POOL_BACKEND`` via
  :func:`repro.config.settings`.
- **Versioned hot-swap.**  :meth:`ReplicaPool.deploy` loads a version
  from a :class:`~repro.model.registry.ModelRegistry`, swaps a canary
  subset first (each replica drains its in-flight batch before its
  weights change, so zero in-flight requests fail), and
  :meth:`Deployment.promote` rolls the canaries back and raises
  :class:`~repro.errors.DeploymentError` if any canary's circuit
  breaker tripped during the bake.
- **Single-replica equivalence.**  ``ReplicaPool(num_replicas=1)``
  returns bitwise-identical :class:`~repro.cot.chain.ChainResult`
  objects to a plain :class:`StressService` (the pool equivalence
  suite pins this): routing picks a replica, never changes the math.
"""

from __future__ import annotations

import bisect
import hashlib
import multiprocessing
import os
import threading
from dataclasses import dataclass

from repro.config import POOL_BACKEND_ENV, POOL_REPLICAS_ENV, settings
from repro.errors import (
    ConfigError,
    DeploymentError,
    PoolError,
    ServiceClosedError,
)
from repro.observability.metrics import global_metrics
from repro.observability.tracing import span
from repro.reliability.breaker import OPEN, BreakerConfig, CircuitBreaker
# video_content_hash stays importable from here: perfbench's ledger
# times the router's hashing under this module's name.
from repro.serving.cache import (  # noqa: F401
    ContentKeyMemo,
    video_content_hash,
)
from repro.serving.executor import ChainBatchExecutor
from repro.serving.service import ServiceConfig, StressService, _stage_caches
from repro.serving.stats import ServiceStatsSnapshot
from repro.video.frame import Video

__all__ = [
    "POOL_BACKENDS",
    "Deployment",
    "PoolStatsSnapshot",
    "ReplicaPool",
    "clone_pipeline",
    "resolve_pool_backend",
    "resolve_pool_replicas",
]

#: Recognised replica backends (named after the evaluation backends).
POOL_BACKENDS = ("thread", "process")

#: Virtual nodes per replica on the hash ring.  Enough that the
#: keyspace split between replicas stays near-even, small enough that
#: building the ring is trivial.
DEFAULT_VNODES = 64


def resolve_pool_backend(backend: str | None = None) -> str:
    """Pick the replica backend: explicit argument, then the
    ``REPRO_POOL_BACKEND`` environment variable, then threads."""
    if backend is None:
        backend = settings().pool_backend or "thread"
    if backend not in POOL_BACKENDS:
        raise ConfigError(
            f"unknown pool backend {backend!r} "
            f"({POOL_BACKEND_ENV}); known: {POOL_BACKENDS}")
    if backend == "process" and not hasattr(os, "fork"):
        # Same honest fallback as repro.evaluation.parallel: fork is
        # what lets an arbitrary pipeline cross into the child.
        return "thread"
    return backend


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


def clone_pipeline(pipeline):
    """An independent copy of ``pipeline`` computing bitwise-identical
    results.

    Each thread replica needs its *own* pipeline object: the
    foundation model caches forward activations during a pass, so two
    replica workers sharing one model would race on that state.  The
    clone deep-copies the model (weights and feature cache) and
    rebinds a shallow-copied retriever to it; the verification pool is
    shared read-only.
    """
    import copy

    from repro.cot.chain import StressChainPipeline

    model = pipeline.model.clone()
    retriever = pipeline.retriever
    if retriever is not None:
        retriever = copy.copy(retriever)
        if hasattr(retriever, "model"):
            retriever.model = model
    return StressChainPipeline(
        model,
        use_chain=pipeline.use_chain,
        retriever=retriever,
        test_time_refine=pipeline.test_time_refine,
        verification_pool=list(pipeline.verification_pool) or None,
        refine_rounds=pipeline.refine_rounds,
        num_verify_trials=pipeline.num_verify_trials,
        seed=pipeline.seed,
    )


class _HashRing:
    """A consistent-hash ring over replica indices.

    Each replica owns ``vnodes`` points on a SHA-1 ring; a key routes
    to the first point at or after its own hash (wrapping).  The map
    is stable: repeats of one key always land on the same replica, and
    resizing the pool moves only the arcs the changed replica owned.
    """

    def __init__(self, num_replicas: int, vnodes: int = DEFAULT_VNODES):
        points: list[tuple[int, int]] = []
        for replica in range(num_replicas):
            for vnode in range(vnodes):
                digest = hashlib.sha1(
                    f"replica-{replica}:vnode-{vnode}".encode()).digest()
                points.append((int.from_bytes(digest[:8], "big"), replica))
        points.sort()
        self._hashes = [point for point, __ in points]
        self._replicas = [replica for __, replica in points]

    def route(self, key: str) -> int:
        digest = hashlib.sha1(key.encode()).digest()
        point = int.from_bytes(digest[:8], "big")
        index = bisect.bisect_right(self._hashes, point)
        if index == len(self._hashes):
            index = 0
        return self._replicas[index]


# ----------------------------------------------------------------------
# Replicas
# ----------------------------------------------------------------------


class _Replica:
    """One replica: a :class:`StressService` plus the deploy payload
    its current weights came from (what a rollback re-installs).

    Both backends are the same service -- one batch path with retry,
    degraded mode, and cache stats.  A ``"process"`` replica's service
    runs over a :class:`_PipeExecutor` instead of an in-process
    :class:`~repro.serving.executor.ChainBatchExecutor`.
    """

    def __init__(self, service: StressService, payload):
        self.service = service
        self.payload = payload

    @property
    def breaker(self) -> CircuitBreaker | None:
        return self.service.breaker

    def swap(self, payload) -> None:
        """Install ``payload``'s weights: a registry artifact path (a
        process replica's child loads it itself) or a pipeline."""
        __, source, __ = payload
        self.service.swap_pipeline(source)
        self.payload = payload


class _PipeExecutor:
    """The executor interface of a :class:`StressService`, forwarded
    over a pipe to a forked child.

    The child inherits ``pipeline`` through fork (nothing is pickled on
    the way in) and owns the real executor and stage caches; the
    parent's service keeps the request plumbing -- micro-batcher,
    retry, circuit breaker, stats.  The pipe is strictly
    request/response and guarded by a lock, so calls never interleave.
    """

    def __init__(self, pipeline, config: ServiceConfig, name: str):
        context = multiprocessing.get_context("fork")
        self._conn, child_conn = context.Pipe()
        self._lock = threading.Lock()
        self._process = context.Process(
            target=_process_replica_worker,
            args=(child_conn, pipeline, config),
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

    def run_batch(self, videos: list[Video]) -> tuple[list[object], int]:
        try:
            return self._call("run_batch", videos)
        except Exception as exc:  # noqa: BLE001 - fail the batch
            return [exc] * len(videos), len(videos)

    def run_cached(self, video: Video):
        return self._call("run_cached", video)

    def swap(self, source) -> None:
        self._call("swap", source)

    def cache_stats(self) -> dict:
        """The child's stage-cache stats; empty once it has exited."""
        try:
            return self._call("cache_stats")
        except PoolError:
            return {}

    def fingerprint(self) -> str:
        return self._call("fingerprint")

    def close(self, timeout: float = 5.0) -> None:
        try:
            self._call("close")
        except (PoolError, OSError, EOFError):
            pass
        self._process.join(timeout)
        if self._process.is_alive():  # pragma: no cover - hung child
            self._process.terminate()
        self._conn.close()


def _process_replica_worker(conn, pipeline, config: ServiceConfig) -> None:
    """Child-process loop of one ``"process"`` replica: a dispatcher
    over a :class:`ChainBatchExecutor`'s methods, answering
    ``("ok", result)`` / ``("error", exc)`` per call until ``close``."""
    executor = ChainBatchExecutor(pipeline, _stage_caches(config))
    while True:
        try:
            method, args = conn.recv()
        except EOFError:
            return
        try:
            conn.send(("ok", getattr(executor, method)(*args)))
        except Exception as exc:  # noqa: BLE001 - child must survive
            conn.send(("error", exc))
        if method == "close":
            return


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class PoolStatsSnapshot:
    """A point-in-time view of the whole pool.

    ``routed`` counts requests per replica (the routing histogram the
    consistent-hash ring produced); ``replicas`` holds each replica's
    own :class:`ServiceStatsSnapshot`.
    """

    num_replicas: int
    backend: str
    version: str | None
    routed: tuple[int, ...]
    replicas: tuple[ServiceStatsSnapshot, ...]

    @property
    def requests(self) -> int:
        return sum(self.routed)


class ReplicaPool:
    """Shards serving across replicas with consistent-hash routing.

    Parameters
    ----------
    pipeline:
        The pipeline every replica starts from.  Thread replicas each
        receive an independent :func:`clone_pipeline` copy; process
        replicas inherit the object through fork.
    num_replicas:
        Replica count (default: ``REPRO_POOL_REPLICAS``, then 1).
    backend:
        ``"thread"`` or ``"process"`` (default: ``REPRO_POOL_BACKEND``,
        then threads).
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
        (reported in stats; lets a process pool roll back by artifact
        path instead of pickling weights).
    """

    def __init__(self, pipeline, *, num_replicas: int | None = None,
                 backend: str | None = None,
                 config: ServiceConfig | None = None,
                 registry=None, version: str | None = None,
                 vnodes: int = DEFAULT_VNODES):
        self.num_replicas = resolve_pool_replicas(num_replicas)
        self.backend = resolve_pool_backend(backend)
        self.config = (config if config is not None
                       else ServiceConfig(breaker=BreakerConfig()))
        self.registry = registry
        self.version = version
        self._ring = _HashRing(self.num_replicas, vnodes=vnodes)
        self._content_key = ContentKeyMemo()
        self._routed = [0] * self.num_replicas
        self._routed_lock = threading.Lock()
        self._deploy_lock = threading.Lock()
        self._closed = False
        initial = self._initial_payload(registry, version)
        self._replicas: list[_Replica] = []
        for index in range(self.num_replicas):
            if self.backend == "process":
                source = pipeline
                service = StressService._over(
                    _PipeExecutor(pipeline, self.config,
                                  f"pool-replica-{index}"),
                    self.config)
            else:
                source = pipeline if index == 0 else clone_pipeline(pipeline)
                service = StressService(source, self.config)
            # Without a versioned artifact the replica's payload is its
            # OWN pipeline copy.  One shared payload here would make a
            # later rollback install the same mutable pipeline into
            # every thread replica -- exactly the forward-state race
            # clone_pipeline() exists to prevent.
            self._replicas.append(
                _Replica(service, initial or ("pipeline", source, None)))
        metrics = global_metrics()
        metrics.gauge("pool.replicas").set(self.num_replicas)
        self._m_requests = metrics.counter("pool.requests")
        self._m_routed = [metrics.counter(f"pool.replica.{i}.requests")
                          for i in range(self.num_replicas)]
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
    def _initial_payload(registry, version):
        """The shared versioned-artifact payload, or ``None`` for a
        bare-pipeline pool (each replica then keeps its per-replica
        pipeline payload)."""
        if registry is not None and version is not None:
            return ("path", registry.verified_artifact(version), version)
        return None

    # -- the hot path --------------------------------------------------

    def route(self, video: Video) -> int:
        """The replica index ``video`` shards to (pure function of its
        content hash -- repeats always land on the same replica)."""
        return self._ring.route(self._content_key(video))

    def submit(self, video: Video, deadline_ms: float | None = None):
        """Route and enqueue one request; returns a
        ``Future[ChainResult]``.  Raises the same backpressure and
        closed-state errors as :meth:`StressService.submit`."""
        if self._closed:
            raise ServiceClosedError(
                "replica pool is shut down; no new requests accepted")
        index = self.route(video)
        with span("pool.route", replica=index, backend=self.backend):
            future = self._replicas[index].service.submit(
                video, deadline_ms=deadline_ms)
        with self._routed_lock:
            self._routed[index] += 1
        self._m_requests.inc()
        self._m_routed[index].inc()
        return future

    def predict(self, video: Video, timeout: float | None = None,
                deadline_ms: float | None = None):
        """Blocking predict: route, submit, and wait for the result."""
        return self.submit(video, deadline_ms=deadline_ms).result(timeout)

    # -- introspection -------------------------------------------------

    def fingerprints(self) -> list[str]:
        """Each replica's model fingerprint (asserts which weights a
        replica actually serves -- equal fingerprints imply bitwise-
        equal forward passes)."""
        return [replica.service.executor.fingerprint()
                for replica in self._replicas]

    def stats(self) -> PoolStatsSnapshot:
        with self._routed_lock:
            routed = tuple(self._routed)
        return PoolStatsSnapshot(
            num_replicas=self.num_replicas,
            backend=self.backend,
            version=self.version,
            routed=routed,
            replicas=tuple(r.service.stats() for r in self._replicas),
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
        so zero in-flight requests fail during a swap.
        """
        registry = registry if registry is not None else self.registry
        if registry is None:
            raise DeploymentError(
                "deploy needs a ModelRegistry (pass registry= here or to "
                "the pool constructor)")
        if not 0.0 < canary_fraction <= 1.0:
            raise ConfigError(
                f"canary_fraction must be in (0, 1], got {canary_fraction}")
        artifact = registry.verified_artifact(version)
        payload = ("path", artifact, version)
        if canary_fraction >= 1.0:
            canary_count = self.num_replicas
        else:
            canary_count = min(self.num_replicas,
                               max(1, round(canary_fraction
                                            * self.num_replicas)))
        with self._deploy_lock:
            canaries = tuple(range(canary_count))
            previous = {i: self._replicas[i].payload for i in canaries}
            for index in canaries:
                with span("pool.swap", replica=index, version=version):
                    self._replicas[index].swap(payload)
            self._m_deploys.inc()
            deployment = Deployment(self, version, payload, canaries,
                                    previous)
            if canary_count == self.num_replicas:
                deployment._complete()
        return deployment

    # -- lifecycle -----------------------------------------------------

    def close(self, drain: bool = True, timeout: float | None = None) -> bool:
        """Shut every replica down; ``True`` iff all drained fully."""
        self._closed = True
        drained = True
        for replica in self._replicas:
            drained = (replica.service.close(drain=drain, timeout=timeout)
                       and drained)
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
        Promoting a rolled-back deployment still raises.
        """
        if self.state == "complete":
            return
        if self.state != "canary":
            raise DeploymentError(
                f"deployment of {self.version!r} is {self.state}; only a "
                "canary-state deployment can be promoted")
        tripped = self.tripped_canaries()
        if tripped:
            self.rollback()
            raise DeploymentError(
                f"canary breaker open on replica(s) {tripped} while baking "
                f"{self.version!r}; canaries rolled back")
        with self.pool._deploy_lock:
            for index in range(self.pool.num_replicas):
                if index in self._previous:
                    continue
                self._previous[index] = self.pool._replicas[index].payload
                with span("pool.swap", replica=index, version=self.version):
                    self.pool._replicas[index].swap(self._payload)
        self._complete()

    def rollback(self) -> None:
        """Restore every swapped replica to its pre-deploy weights."""
        if self.state == "rolled_back":
            return
        with self.pool._deploy_lock:
            for index, payload in self._previous.items():
                with span("pool.swap", replica=index, rollback=True):
                    self.pool._replicas[index].swap(payload)
        self.pool._m_rollbacks.inc()
        previous_versions = {payload[2]
                             for payload in self._previous.values()}
        if len(previous_versions) == 1:
            self.pool.version = next(iter(previous_versions))
        self.state = "rolled_back"
