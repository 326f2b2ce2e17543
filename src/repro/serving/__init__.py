"""The online serving layer: dynamic micro-batching over the chain.

Public surface:

- :class:`StressService` / :class:`ServiceConfig` -- the concurrent
  predict front-end with micro-batching, per-stage LRU caches,
  bounded-queue backpressure, graceful shutdown, and counters;
- :class:`SerialDispatcher` -- the global-lock baseline;
- :class:`MicroBatcher` -- the reusable batching primitive;
- :class:`ChainBatchExecutor` -- batch execution over the one chain
  core that serial :meth:`StressChainPipeline.predict` also runs (also
  behind :meth:`StressChainPipeline.predict_many`);
- :class:`StageCaches` / :class:`LRUCache` and
  :func:`video_content_hash` -- the content-addressed caches;
- :class:`ServiceStats` / :class:`ServiceStatsSnapshot`;
- :class:`ReplicaPool` / :class:`Deployment` /
  :class:`PoolStatsSnapshot` -- the sharded replica pool with
  consistent-hash routing and versioned hot-swap deploys.
"""

from repro.serving.batcher import MicroBatcher
from repro.serving.cache import (
    CacheStats,
    LRUCache,
    StageCaches,
    video_content_hash,
)
from repro.serving.executor import ChainBatchExecutor
from repro.serving.pool import (
    Deployment,
    PoolStatsSnapshot,
    ReplicaPool,
    clone_pipeline,
    resolve_pool_backend,
    resolve_pool_replicas,
)
from repro.serving.service import (
    SerialDispatcher,
    ServiceConfig,
    StressService,
)
from repro.serving.stats import ServiceStats, ServiceStatsSnapshot

__all__ = [
    "CacheStats",
    "ChainBatchExecutor",
    "Deployment",
    "LRUCache",
    "MicroBatcher",
    "PoolStatsSnapshot",
    "ReplicaPool",
    "SerialDispatcher",
    "ServiceConfig",
    "ServiceStats",
    "ServiceStatsSnapshot",
    "StageCaches",
    "StressService",
    "clone_pipeline",
    "resolve_pool_backend",
    "resolve_pool_replicas",
    "video_content_hash",
]
