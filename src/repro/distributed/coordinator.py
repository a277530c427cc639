"""The coordinator: authoritative partition, scale-out, and the cluster.

The coordinator owns the one true :class:`~repro.core.image.TrieImage`
— the partition of the key space into shard regions — and the shard
registry. Everything else in the layer works off possibly-stale copies:
clients route with their image, servers consult the coordinator to
detect misaddressing and to build Image Adjustment Messages.

Scale-out is the TH* file expansion: when a shard's load crosses the
:class:`ShardPolicy` threshold, the coordinator cuts the shard's region
at the split string of its two median records (Algorithm A2's step 1,
applied at the shard level), moves the upper half of the records to a
freshly created server, and refines the partition. Both halves are born
holding their records and the parent's dedup window
(:meth:`~repro.distributed.server.ShardServer.refill`), so a durable
split logs nothing. Clients discover the new shard lazily, through IAMs.

:class:`Cluster` is the assembly: it wires a coordinator, the
in-process fabric (wrapped in a
:class:`~repro.distributed.faults.FaultyTransport` when given a fault
plan) and the initial servers together, seeds an optional static
pre-partition, and hands out client handles.
"""

from __future__ import annotations

from collections.abc import Callable
from contextlib import nullcontext
from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # import cycle: client builds on the coordinator
    from .client import DistributedFile

from ..core.alphabet import DEFAULT_ALPHABET, Alphabet
from ..core.compact import DEFAULT_TRIE_BACKEND
from ..core.file import THFile
from ..core.image import IAMEntry, TrieImage
from ..core.keys import prefix_gt, prefix_le, split_string
from ..core.policies import SplitPolicy
from ..obs.flight import FLIGHT
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import TRACER
from ..storage.dedup import DedupWindow
from ..storage.recovery import DurableFile
from ..storage.wal import StableStore
from .errors import ConfigurationError, FailoverError
from .faults import FaultPlan, FaultyTransport, RetryPolicy
from .messages import Op
from .replication import (
    FailureDetector,
    Migration,
    ReplicaState,
    ReplicationPolicy,
    Replicator,
)
from .router import InProcessTransport
from .server import ShardServer

__all__ = ["ShardPolicy", "Coordinator", "Cluster"]


class ShardPolicy:
    """When a shard scales out.

    A shard's *load factor* is ``records / shard_capacity``; the shard
    splits when it crosses ``split_threshold``. The defaults keep
    simulated shards small enough that a few thousand records exercise
    several generations of splits.
    """

    __slots__ = ("shard_capacity", "split_threshold")

    def __init__(self, shard_capacity: int = 256, split_threshold: float = 0.8):
        if shard_capacity < 2:
            raise ConfigurationError("shard capacity must be at least 2")
        if not 0.0 < split_threshold <= 1.0:
            raise ConfigurationError("split threshold must be in (0, 1]")
        self.shard_capacity = shard_capacity
        self.split_threshold = split_threshold

    def load_factor(self, records: int) -> float:
        """The shard-level load ``records / capacity``."""
        return records / self.shard_capacity

    def should_split(self, records: int) -> bool:
        """True when a shard holding ``records`` must scale out."""
        return records >= 2 and self.load_factor(records) > self.split_threshold


class Coordinator:
    """Authoritative partition state and the scale-out machinery."""

    def __init__(
        self,
        alphabet: Alphabet,
        registry: MetricsRegistry,
        shard_policy: ShardPolicy,
        router: Any,
        file_factory: Callable[..., object],
        replication: Optional[ReplicationPolicy] = None,
    ):
        self.alphabet = alphabet
        self.registry = registry
        self.shard_policy = shard_policy
        self.router = router
        self.file_factory = file_factory
        self.replication = replication
        self._next_shard = 0
        self.servers: dict[int, ShardServer] = {}
        #: Primary shard id -> its backup server.
        self.replicas: dict[int, ShardServer] = {}
        #: Every id ever rebound to a promoted backup (the dead ids a
        #: remote client must stop treating as down).
        self.promoted_ids: set[int] = set()
        #: One entry per completed failover (MTTR accounting).
        self.failover_log: list[dict] = []
        #: Source shard id -> in-flight :class:`Migration`.
        self.migrations: dict[int, Migration] = {}
        self.migrations_done = 0
        self.detector = (
            FailureDetector(replication) if replication is not None else None
        )
        first = self._new_server()
        self.model = TrieImage(alphabet, (), (first.shard_id,))
        registry.gauge("dist_shards").set(1)
        if replication is not None:
            self.ensure_backup(first)

    def _new_server(self) -> ShardServer:
        server = self.spawn_detached_server()
        self.servers[server.shard_id] = server
        return server

    def spawn_detached_server(self, role: str = "primary") -> ShardServer:
        """A fresh empty server outside the partition (a migration target, a backup)."""
        shard_id = self._next_shard
        self._next_shard += 1
        return ShardServer(shard_id, self, self.router, role=role)

    # ------------------------------------------------------------------
    # Authoritative addressing (what servers consult)
    # ------------------------------------------------------------------
    def owner_of(self, key: str) -> int:
        """The shard that owns ``key`` right now."""
        return self.model.shard_for_key(key)

    def shard_of_gap(self, gap: int) -> int:
        return self.model.shards[gap]

    def region_of_gap(self, gap: int) -> tuple[Optional[str], Optional[str]]:
        return self.model.region(gap)

    def gap_of_shard(self, shard_id: int) -> int:
        return self.model.shards.index(shard_id)

    def scan_gap(self, op: Op) -> int:
        """The gap a scan leg's remaining range starts in."""
        if op.after is not None:
            return self.model.gap_above(op.after)
        if op.low is not None:
            return self.model.locate(op.low)[0]
        return 0

    def iam_for_key(self, key: str) -> list[IAMEntry]:
        """The Image Adjustment entry for the region holding ``key``."""
        gap, shard = self.model.locate(key)
        low, high = self.model.region(gap)
        return [(low, high, shard)]

    def total_records(self) -> int:
        """Records across all shards (authoritative metadata)."""
        return sum(len(s) for s in self.servers.values())

    # ------------------------------------------------------------------
    # Availability bookkeeping
    # ------------------------------------------------------------------
    def _is_backup(self, shard_id: int) -> bool:
        return any(b.shard_id == shard_id for b in self.replicas.values())

    def mark_down(self, shard_id: int) -> None:
        """Note that ``shard_id`` crashed (availability gauges only).

        The partition is untouched: the region still belongs to the
        crashed shard, and operations for it fail fast with
        :class:`~repro.distributed.errors.ServerDownError` until the
        server recovers — or, with replication on, until the failure
        detector deposes it and promotes its backup. Ids belonging to
        neither the partition nor a tracked backup (retired migration
        sources, already-deposed primaries) are ignored.
        """
        if shard_id in self.servers:
            self.registry.gauge("dist_shards_down").inc(1)
        elif self._is_backup(shard_id):
            self.registry.gauge("dist_replicas_down").inc(1)

    def mark_up(self, shard_id: int) -> None:
        """Note that ``shard_id`` recovered and rejoined."""
        if shard_id in self.servers:
            self.registry.gauge("dist_shards_down").inc(-1)
        elif self._is_backup(shard_id):
            self.registry.gauge("dist_replicas_down").inc(-1)

    def down_shards(self) -> list[int]:
        """The shard ids currently refusing deliveries."""
        return sorted(s for s, srv in self.servers.items() if srv.down)

    # ------------------------------------------------------------------
    # Replication: backups, failover, migration
    # ------------------------------------------------------------------
    def replica_of(self, shard_id: int) -> Optional[int]:
        """The live backup id shadowing primary ``shard_id`` (or None)."""
        backup = self.replicas.get(shard_id)
        if backup is None or backup.down:
            return None
        return backup.shard_id

    def ensure_backup(self, primary: ShardServer) -> None:
        """Give ``primary`` an in-sync backup (create or reseed)."""
        if self.replication is None or primary.role != "primary":
            return
        if primary.shard_id not in self.replicas:
            self._new_backup(primary)
        else:
            self._seed_backup(primary)

    def _new_backup(self, primary: ShardServer) -> ShardServer:
        backup = self.spawn_detached_server(role="backup")
        backup.replica_of = primary.shard_id
        self.replicas[primary.shard_id] = backup
        primary.replicator = Replicator(primary, backup, self.replication)
        primary.wire_replication()
        self._seed_backup(primary)
        self.registry.gauge("dist_replicas").set(len(self.replicas))
        return backup

    def _seed_backup(self, primary: ShardServer) -> None:
        """Direct-copy the primary onto its backup and fence the stream.

        The in-process equivalent of a full resync, used where both
        ends are already in the coordinator's hands (initial creation,
        split rebuilds, post-promotion respawns). A crashed backup is
        left alone — it will request a resync over the wire when it
        comes back and sees an unknown epoch.
        """
        backup = self.replicas[primary.shard_id]
        rep = primary.replicator
        rep.seed_direct()
        if backup.down:
            rep.degraded = True
            return
        backup.refill(primary.items(), primary.dedup)
        wal = getattr(primary.file, "wal", None)
        backup.replica_state = ReplicaState(
            epoch=rep.epoch,
            applied_seq=0,
            last_lsn=wal.last_lsn if wal is not None else 0,
        )

    def tick(self, now: float) -> list[int]:
        """Run one health-probe sweep on the caller's clock.

        Wired to the simulated clock of a
        :class:`~repro.distributed.faults.FaultyTransport` — directly in
        simulation, through the ``tick`` control frame over a wire — and
        to a wall-clock asyncio loop in the serving tier. Without
        replication it does nothing. Returns the shard ids deposed by
        this sweep.
        """
        if self.detector is None:
            return []
        return self.detector.poll(self, now)

    def failover(self, shard_id: int, now: Optional[float] = None) -> bool:
        """Depose the down primary ``shard_id``; promote its backup.

        Refuses (returns False) unless the primary is actually down and
        its backup is up and was never degraded — a degraded backup may
        be missing acked writes, and losing those silently would be
        worse than staying unavailable. The deposed server's ids are
        rebound to the promoted backup on the router, so stale clients
        still reach data and converge through ordinary IAM patching;
        the dead object itself becomes unreachable and is never
        restarted.
        """
        dead = self.servers.get(shard_id)
        backup = self.replicas.get(shard_id)
        if dead is None or not dead.down:
            return False
        if backup is None or backup.down:
            return False
        rep = dead.replicator
        if rep is not None and rep.degraded:
            return False
        span = (
            TRACER.span("failover", shard=shard_id, backup=backup.shard_id)
            if TRACER.enabled
            else nullcontext()
        )
        with span:
            migration = self.migrations.pop(shard_id, None)
            if migration is not None:
                migration.abort()
            self.replicas.pop(shard_id)
            self.servers.pop(shard_id)
            gap = self.gap_of_shard(shard_id)
            self.model.reassign(gap, backup.shard_id)
            backup.promote()
            self.servers[backup.shard_id] = backup
            rebound = self.router.rebind(dead, backup)
            self.promoted_ids.update(rebound)
            self.failover_log.append(
                {
                    "shard": shard_id,
                    "promoted": backup.shard_id,
                    "at": now,
                }
            )
            self.registry.counter("dist_failovers_total").inc()
            self.registry.gauge("dist_shards_down").inc(-1)
            self.registry.gauge("dist_replicas").set(len(self.replicas))
            if TRACER.enabled:
                TRACER.emit(
                    "failover",
                    shard=shard_id,
                    promoted=backup.shard_id,
                    rebound=rebound,
                )
                TRACER.emit(
                    "promote", shard=backup.shard_id, records=len(backup)
                )
            # Black-box dump: the event window leading into the
            # promotion (a no-op unless forensics are configured).
            FLIGHT.dump(f"promote-shard-{backup.shard_id}")
            if self.replication is not None:
                self.ensure_backup(backup)
        return True

    def start_migration(self, shard_id: int, chunk_size: int = 64) -> Migration:
        """Begin moving ``shard_id``'s region to a fresh server."""
        if shard_id not in self.servers:
            raise FailoverError(f"shard {shard_id} is not in the partition")
        if shard_id in self.migrations:
            raise FailoverError(f"shard {shard_id} is already migrating")
        if self.servers[shard_id].down:
            raise FailoverError(f"cannot migrate down shard {shard_id}")
        migration = Migration(self, shard_id, chunk_size=chunk_size)
        self.migrations[shard_id] = migration
        return migration

    def step_migration(self, shard_id: int) -> bool:
        """Copy one chunk; True while the migration wants more steps."""
        migration = self.migrations.get(shard_id)
        if migration is None:
            return False
        return migration.step()

    def finish_migration(self, shard_id: int) -> Optional[int]:
        """Run the cutover barrier; returns the new owner id (or None)."""
        migration = self.migrations.get(shard_id)
        if migration is None:
            return None
        result = migration.finish()
        if result is None:
            self.migrations.pop(shard_id, None)
        return result

    def cutover_migration(self, migration: Migration, replayed: int) -> None:
        """Commit a finished migration into the partition (barrier tail)."""
        source = migration.source
        target = migration.target
        gap = self.gap_of_shard(migration.source_id)
        self.model.reassign(gap, target.shard_id)
        self.servers.pop(migration.source_id)
        self.servers[target.shard_id] = target
        self.migrations.pop(migration.source_id, None)
        self.migrations_done += 1
        # Retire the source as a forwarding stub: it stays registered
        # (stale clients still reach it and get forwarded + IAM'd) but
        # owns nothing and keeps no data.
        source.replicator = None
        retired_backup = self.replicas.pop(migration.source_id, None)
        if retired_backup is not None:
            retired_backup.replica_state = None
        source.refill()
        self.registry.counter("dist_migrations_total").inc()
        self.registry.gauge("dist_replicas").set(len(self.replicas))
        if TRACER.enabled:
            TRACER.emit(
                "migration_cutover",
                shard=migration.source_id,
                target=target.shard_id,
                records=len(target),
                replayed=replayed,
            )
        if self.replication is not None:
            self.ensure_backup(target)
        self.maybe_split(target.shard_id)

    # ------------------------------------------------------------------
    # Scale-out
    # ------------------------------------------------------------------
    def maybe_split(self, shard_id: int) -> bool:
        """Scale ``shard_id`` out while it exceeds the load policy.

        True when the partition changed (at least one split ran).
        """
        if shard_id in self.migrations:
            # The region is mid-move; recutting it would invalidate the
            # migration snapshot. The target splits after cutover.
            return False
        split = False
        while self.shard_policy.should_split(len(self.servers[shard_id])):
            if not self.split_shard(shard_id):
                break
            split = True
        return split

    def split_shard(self, shard_id: int) -> bool:
        """Cut the shard's region at its median records' split string."""
        server = self.servers[shard_id]
        items = server.items()
        if len(items) < 2:
            return False
        mid = len(items) // 2
        cut = split_string(items[mid - 1][0], items[mid][0], self.alphabet)
        new_id = self.split_gap_at(self.gap_of_shard(shard_id), cut)
        # The new half may itself still exceed the policy (bulk arrival).
        self.maybe_split(new_id)
        return True

    def split_gap_at(self, gap: int, cut: str) -> int:
        """Split gap ``gap`` at boundary ``cut``; returns the new shard id.

        Records above the cut move to a freshly created server; both
        halves are born holding their records and the parent's dedup
        window (:meth:`ShardServer.refill`). Works on empty regions too
        (static pre-partitioning).

        With tracing on, the whole move runs in a ``shard_split`` span:
        triggered by a mutation it nests under that op's shard span, so
        the causal tree shows which client op paid for the scale-out.
        """
        span = (
            TRACER.span("shard_split", shard=self.model.shards[gap], cut=cut)
            if TRACER.enabled
            else nullcontext()
        )
        with span:
            return self._split_gap_at(gap, cut)

    def _split_gap_at(self, gap: int, cut: str) -> int:
        shard_id = self.model.shards[gap]
        server = self.servers[shard_id]
        old_dedup = server.dedup
        items = server.items()
        keep = [(k, v) for k, v in items if prefix_le(k, cut, self.alphabet)]
        move = items[len(keep):]
        # Both halves inherit the full dedup window: a retried mutation
        # may land on either side of the fresh cut, and surplus entries
        # are harmless (a hit only short-circuits an op that did apply).
        new_server = self._new_server()
        new_server.refill(move, old_dedup)
        server.refill(keep, old_dedup)
        self.model.split_region(gap, cut, new_server.shard_id)
        # Both halves changed contents wholesale; their backups restart
        # from fresh direct copies (and fresh shipping epochs).
        if self.replication is not None:
            self.ensure_backup(server)
            self.ensure_backup(new_server)
        self.registry.counter("dist_shard_splits_total").inc()
        self.registry.gauge("dist_shards").set(len(self.servers))
        if TRACER.enabled:
            TRACER.emit(
                "shard_split",
                shard=shard_id,
                new_shard=new_server.shard_id,
                boundary=cut,
                moved=len(move),
                stayed=len(keep),
            )
        return new_server.shard_id

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def check(self) -> None:
        """Verify the global invariants of the distributed file.

        The partition must be a well-formed image, each shard id must
        own exactly one region, every server's records must lie inside
        its region, and each shard's single-node file must satisfy its
        own structural invariants.
        """
        self.model.check()
        if sorted(self.model.shards) != sorted(self.servers):
            raise AssertionError(
                f"partition shards {sorted(self.model.shards)} != "
                f"servers {sorted(self.servers)}"
            )
        for gap, shard_id in enumerate(self.model.shards):
            low, high = self.model.region(gap)
            server = self.servers[shard_id]
            for key, _ in server.items():
                if low is not None and not prefix_gt(key, low, self.alphabet):
                    raise AssertionError(
                        f"key {key!r} on shard {shard_id} below its region"
                    )
                if high is not None and not prefix_le(key, high, self.alphabet):
                    raise AssertionError(
                        f"key {key!r} on shard {shard_id} above its region"
                    )
            server.engine.check()
        # Replicated pairs that claim to be in sync must actually be:
        # a semisync backup whose stream is fully confirmed holds the
        # byte-identical record set. Skipped while either end is down,
        # degraded, or has unconfirmed ships in flight (async lag).
        for primary_id, backup in self.replicas.items():
            primary = self.servers.get(primary_id)
            if primary is None or primary.down or backup.down:
                continue
            rep = primary.replicator
            if rep is None or rep.degraded or rep.confirmed != rep.seq:
                continue
            if backup.items() != primary.items():
                raise AssertionError(
                    f"backup {backup.shard_id} diverged from "
                    f"primary {primary_id}"
                )
            backup.engine.check()


class Cluster:
    """A complete simulated TH* deployment.

    Parameters
    ----------
    shards:
        Initial shard count; regions are pre-cut at evenly spaced
        single-digit boundaries (or at ``seed_boundaries``). Scale-out
        grows the count further as records arrive.
    bucket_capacity / policy / alphabet / trie_backend:
        Per-shard :class:`~repro.core.file.THFile` parameters (every
        shard runs on the flat columns of :mod:`repro.core.compact`
        unless ``trie_backend="cells"``).
    shard_policy:
        The scale-out :class:`ShardPolicy`.
    durable:
        Wrap every shard in a :class:`~repro.storage.recovery.DurableFile`
        over its own in-memory stable store (values must then be ``str``
        or ``None``).
    registry:
        A shared :class:`~repro.obs.metrics.MetricsRegistry`; a private
        one is created when omitted.
    faults:
        A :class:`~repro.distributed.faults.FaultPlan`; when given the
        in-process fabric is wrapped in a
        :class:`~repro.distributed.faults.FaultyTransport` driving
        message drops, duplicates, delays and server crashes off the
        plan's seeded schedule on every edge.
    retry:
        The default :class:`~repro.distributed.faults.RetryPolicy`
        handed to clients (each :meth:`client` call may override it).
    """

    def __init__(
        self,
        shards: int = 1,
        bucket_capacity: int = 8,
        policy: Optional[SplitPolicy] = None,
        shard_policy: Optional[ShardPolicy] = None,
        alphabet: Alphabet = DEFAULT_ALPHABET,
        durable: bool = False,
        registry: Optional[MetricsRegistry] = None,
        seed_boundaries: Optional[list[str]] = None,
        faults: Optional[FaultPlan] = None,
        retry: Optional[RetryPolicy] = None,
        trie_backend: str = DEFAULT_TRIE_BACKEND,
        replication: Optional[object] = None,
    ):
        if shards < 1:
            raise ConfigurationError("a cluster needs at least one shard")
        self.alphabet = alphabet
        self.bucket_capacity = bucket_capacity
        self.policy = policy
        self.durable = durable
        self.trie_backend = trie_backend
        self.registry = registry if registry is not None else MetricsRegistry()
        self.retry = retry
        if isinstance(replication, str):
            replication = ReplicationPolicy(mode=replication)
        if replication is not None and not isinstance(
            replication, ReplicationPolicy
        ):
            raise ConfigurationError(
                "replication must be a ReplicationPolicy, "
                "'semisync'/'async', or None"
            )
        fabric = InProcessTransport(self.registry)
        #: What servers and clients send through: the in-process fabric,
        #: or a fault-injecting wrapper around it.
        self.router: Any = (
            fabric if faults is None else FaultyTransport(fabric, faults)
        )
        self.coordinator = Coordinator(
            alphabet,
            self.registry,
            shard_policy if shard_policy is not None else ShardPolicy(),
            self.router,
            self._make_file,
            replication=replication,
        )
        if replication is not None:
            # Failure detection rides the fabric clock: every tick of a
            # clock-bearing transport runs one health-probe sweep.
            fabric.on_tick = self.coordinator.tick
        self._clients = 0
        if seed_boundaries is None:
            seed_boundaries = self._even_boundaries(shards)
        for boundary in seed_boundaries:
            gap = self.coordinator.model.gap_above(boundary)
            self.coordinator.split_gap_at(gap, boundary)

    def _even_boundaries(self, shards: int) -> list[str]:
        """Evenly spaced single-digit cuts for a static pre-partition."""
        digits = self.alphabet.digits[1:]  # the min digit cannot cut
        if shards - 1 > len(digits):
            raise ConfigurationError(
                f"cannot pre-cut {shards} shards from {len(digits)} digits"
            )
        cuts = []
        for i in range(1, shards):
            cuts.append(digits[(i * len(digits)) // shards])
        return sorted(set(cuts))

    def _make_file(self, items=(), window: Optional[DedupWindow] = None):
        """A fresh shard file born holding ``items`` (in key order) and,
        when durable, ``window``: its genesis checkpoint is their first
        durable copy (an in-memory shard's window stays on its server)."""
        if self.durable:
            return DurableFile.open(
                StableStore(),
                engine="th",
                records=items,
                dedup=window,
                capacity=self.bucket_capacity,
                policy=self.policy,
                alphabet=self.alphabet,
                trie_backend=self.trie_backend,
            )
        file = THFile(
            bucket_capacity=self.bucket_capacity,
            policy=self.policy,
            alphabet=self.alphabet,
            trie_backend=self.trie_backend,
        )
        file.put_many(items)
        return file

    # ------------------------------------------------------------------
    def client(
        self,
        warm: bool = False,
        retry: Optional[RetryPolicy] = None,
        read_preference: str = "primary",
    ) -> DistributedFile:
        """A new client handle.

        A cold client (the default) starts with a one-region image
        pointing at shard 0 — the TH* initial image — and learns the
        partition through IAMs. A warm client snapshots the current
        authoritative partition. ``retry`` overrides the cluster's
        default :class:`~repro.distributed.faults.RetryPolicy`.
        ``read_preference="replica"`` routes scan legs to backups when
        one is in sync (falling back to the primary per leg).
        """
        from .client import DistributedFile

        self._clients += 1
        image = self.coordinator.model.copy() if warm else None
        return DistributedFile(
            self,
            image=image,
            client_id=self._clients,
            retry=retry if retry is not None else self.retry,
            read_preference=read_preference,
        )

    def shard_count(self) -> int:
        """Number of live shards."""
        return len(self.coordinator.servers)

    def __len__(self) -> int:
        return self.coordinator.total_records()

    def check(self) -> None:
        """Verify all global invariants (see :meth:`Coordinator.check`)."""
        self.coordinator.check()

    def load_report(self) -> list[dict]:
        """Per-shard load rows (for tables and benchmarks)."""
        rows = []
        for gap, shard_id in enumerate(self.coordinator.model.shards):
            server = self.coordinator.servers[shard_id]
            low, high = self.coordinator.model.region(gap)
            rows.append(
                {
                    "shard": shard_id,
                    "region": f"({low or ''}..{high or ''}]",
                    "records": len(server),
                    "load": round(
                        self.coordinator.shard_policy.load_factor(len(server)), 3
                    ),
                    "buckets": server.engine.bucket_count(),
                }
            )
        return rows
