"""Cluster subsystem: release sharding across processes and machines.

The engine solves one release's MaxEnt program on one in-process path;
this package scales out by *release sharding* instead — a
:class:`~repro.cluster.router.ShardRouter` (rendezvous hashing on
release content digests) partitions registered releases across
long-lived engine workers, and the
:class:`~repro.cluster.frontend.ShardedFrontend` (``repro serve
--shards N``) keeps one client-facing address while each worker owns
its releases' compiled systems and solve caches.

Workers (:class:`~repro.cluster.worker.ShardWorker`, ``repro
shard-worker``) are ordinary privacy services with a stable identity;
they speak a versioned JSON membership protocol
(:mod:`repro.cluster.protocol`) over the same stdlib HTTP stack as the
service.  The :class:`~repro.cluster.coordinator.ClusterCoordinator`
tracks the fleet — membership, health probes, aggregated per-shard
telemetry — and the front-end fails a dead worker's releases over to
their replicas.  See ``README.md`` here for the architecture notes and
failure semantics.
"""

from repro.cluster.coordinator import ClusterCoordinator, WorkerHandle
from repro.cluster.frontend import ShardedFrontend
from repro.cluster.membership import (
    HeartbeatSender,
    MembershipConfig,
    load_or_create_identity,
    new_worker_id,
    parse_worker_address,
)
from repro.cluster.protocol import SHARD_PROTOCOL, ShardClient
from repro.cluster.retry import RetryPolicy
from repro.cluster.router import ClusterError, ShardRouter
from repro.cluster.worker import ShardWorker

__all__ = [
    "SHARD_PROTOCOL",
    "ClusterCoordinator",
    "ClusterError",
    "HeartbeatSender",
    "MembershipConfig",
    "RetryPolicy",
    "ShardClient",
    "ShardRouter",
    "ShardWorker",
    "ShardedFrontend",
    "WorkerHandle",
    "load_or_create_identity",
    "new_worker_id",
    "parse_worker_address",
]
