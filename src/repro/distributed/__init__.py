"""A TH*-style distributed shard layer over trie-hashing files.

TH* (arXiv:1205.0439) and LH*TH (arXiv:1412.4353) turn trie hashing into
a Scalable Distributed Data Structure: the file spreads over server
shards, clients route with a *possibly outdated trie image*, servers
forward misaddressed operations, and Image Adjustment Messages patch
client images so the miss rate converges to zero. This package
reproduces that design over simulated in-process servers:

* :mod:`~repro.distributed.messages` — the op/reply vocabulary and IAMs;
* :mod:`~repro.distributed.transport` — the transport seam clients
  are written against;
* :mod:`~repro.distributed.router` — :class:`InProcessTransport`, the
  counted in-process message fabric;
* :mod:`~repro.distributed.server` — one shard: a
  :class:`~repro.core.file.THFile` (optionally a durable session) plus
  forwarding;
* :mod:`~repro.distributed.coordinator` — the authoritative partition,
  shard-split scale-out, and the :class:`Cluster` assembly;
* :mod:`~repro.distributed.client` — :class:`DistributedFile`, the
  THFile-compatible client handle with retries and exactly-once
  mutating operations;
* :mod:`~repro.distributed.errors` — the typed error hierarchy
  (transient :class:`RetryableError` subtypes vs. hard failures);
* :mod:`~repro.distributed.faults` — fault injection:
  :class:`FaultPlan` schedules, the :class:`FaultyTransport` wrapper
  that replays them over any transport, :class:`RetryPolicy`;
* :mod:`~repro.distributed.replication` — primary/backup WAL shipping,
  the failure detector behind automatic failover, and live shard
  migration (:class:`ReplicationPolicy`, :class:`Replicator`,
  :class:`Migration`);
* :mod:`~repro.distributed.chaos` — randomized fault schedules run
  against the differential oracle;
* :mod:`~repro.distributed.report` — the convergence experiment table.

Quickstart::

    from repro.distributed import Cluster, ShardPolicy

    cluster = Cluster(shards=4, shard_policy=ShardPolicy(128))
    f = cluster.client()
    for word in words:
        f.insert(word)
    print(f.convergence(), cluster.shard_count())

See ``docs/DISTRIBUTED.md`` for the protocol and the convergence metric.
"""

from .chaos import ChaosReport, run_chaos
from .client import DistributedFile
from .coordinator import Cluster, Coordinator, ShardPolicy
from .errors import (
    DistributedError,
    FailoverError,
    MessageLostError,
    OpTimeoutError,
    ProtocolError,
    ReplicaStaleError,
    ReplicationError,
    RetryableError,
    ServerDownError,
    ShardUnavailableError,
    UnknownShardError,
)
from .faults import FaultPlan, FaultyTransport, RetryPolicy
from .messages import Op, Reply
from .replication import (
    FailureDetector,
    Migration,
    ReplicationPolicy,
    Replicator,
)
from .router import InProcessTransport
from .server import ShardServer

__all__ = [
    "ChaosReport",
    "Cluster",
    "Coordinator",
    "DistributedError",
    "DistributedFile",
    "FailoverError",
    "FailureDetector",
    "FaultPlan",
    "FaultyTransport",
    "InProcessTransport",
    "MessageLostError",
    "Migration",
    "Op",
    "OpTimeoutError",
    "ProtocolError",
    "Reply",
    "ReplicaStaleError",
    "ReplicationError",
    "ReplicationPolicy",
    "Replicator",
    "RetryPolicy",
    "RetryableError",
    "ServerDownError",
    "ShardPolicy",
    "ShardServer",
    "ShardUnavailableError",
    "UnknownShardError",
    "run_chaos",
]
