"""The online serving layer: dynamic micro-batching over the chain.

Public surface:

- :class:`StressService` / :class:`ServiceConfig` -- the concurrent
  predict front-end with micro-batching, an LRU cache of whole chain
  results, bounded-queue backpressure, graceful shutdown, and
  counters;
- :class:`MicroBatcher` -- the batching worker under each service;
- :class:`ChainBatchExecutor` -- batch execution over the one chain
  core that serial :meth:`StressChainPipeline.predict` also runs (also
  behind :meth:`StressChainPipeline.predict_many`); it owns its chain
  cache, built from a capacity;
- :class:`StageCaches` / :class:`CacheStats` and
  :func:`video_content_hash` -- the chain-result LRU an executor owns,
  its counters, and the content digest that is its request key;
- :class:`ServiceStats` / :class:`ServiceStatsSnapshot`;
- :class:`ReplicaPool` / :class:`Deployment` /
  :class:`PoolStatsSnapshot` -- the sharded replica pool (one
  in-process service, or N forked replicas) with consistent-hash
  routing and versioned hot-swap deploys.
"""

from repro.serving.batcher import MicroBatcher
from repro.serving.cache import (
    CacheStats,
    StageCaches,
    video_content_hash,
)
from repro.serving.executor import ChainBatchExecutor
from repro.serving.pool import (
    Deployment,
    PoolStatsSnapshot,
    ReplicaPool,
    resolve_pool_replicas,
)
from repro.serving.service import (
    ServiceConfig,
    StressService,
)
from repro.serving.stats import ServiceStats, ServiceStatsSnapshot

__all__ = [
    "CacheStats",
    "ChainBatchExecutor",
    "Deployment",
    "MicroBatcher",
    "PoolStatsSnapshot",
    "ReplicaPool",
    "ServiceConfig",
    "ServiceStats",
    "ServiceStatsSnapshot",
    "StageCaches",
    "StressService",
    "resolve_pool_replicas",
    "video_content_hash",
]
