"""Primary/backup shard replication, failover and live migration.

This module gives the TH* shard layer an availability story. Three
mechanisms compose, all built on machinery the layer already has — the
WAL, the dedup window, the Transport seam and IAM convergence:

* **WAL shipping** (:class:`Replicator`). Every durable primary's
  :class:`~repro.storage.wal.WALWriter` exposes commit-time *taps*: the
  operation records made durable by one fsync arrive as a batch, and
  the replicator ships them to a backup :class:`ShardServer` over the
  router's ``replicate`` edge. The backup replays them through the same
  code path crash recovery uses — including the request ids inside the
  records, so its dedup window tracks the primary's and a retry
  arriving *after* a promotion still short-circuits. Under the
  ``semisync`` :class:`ReplicationPolicy` the ship happens inside the
  primary's commit path, before the client's ack is released: an acked
  write is on the backup, which is what makes failover lossless. Under
  ``async`` the ship is fire-and-forget and gaps are repaired by the
  sequence protocol below.

* **Failover** (:class:`FailureDetector` + ``Coordinator.failover``).
  Health probes run on whatever clock the deployment has — the
  simulated fabric clock in-process, a wall-clock asyncio loop in the
  serving tier. A primary that stays down past ``failover_after`` is
  deposed: its backup is promoted in place, the authoritative partition
  repoints the region, and the router rebinds the dead id so stale
  clients reach the promoted server and converge through ordinary IAM
  patching. The deposed primary is never restarted.

* **Live migration** (:class:`Migration`). A region moves to a freshly
  built server under load: a materialized snapshot is copied in chunks
  while a tap on the source buffers every concurrently committed
  record; the cutover barrier drains the remainder, replays the buffer,
  merges the source's dedup window and repoints the partition. The
  retired source stays registered and forwards stragglers, so stale
  clients converge exactly as they do after a split.

**Sequencing.** A ship carries ``(epoch, seq)``: ``seq`` increments per
shipped batch, ``epoch`` increments whenever the backup is rebuilt from
a snapshot (resync, split, promotion). The backup applies ``seq ==
applied + 1`` batches, ignores replays (fabric duplicates, sender
retries), and answers anything else with a *resync request* carrying
its position. The primary repairs a gap by streaming the missed
segment records (:func:`~repro.storage.wal.stream_ops`) when the
backup's position is still inside the current WAL segment, and by a
full snapshot transfer — items, dedup window and WAL position —
otherwise.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Any, Optional

from ..obs.tracer import TRACER
from ..storage.dedup import DedupWindow
from ..storage.recovery import DurableFile, apply_op, group_commit
from ..storage.wal import WALRecord, stream_ops
from .errors import (
    ConfigurationError,
    MessageLostError,
    ServerDownError,
    UnknownShardError,
)
from .messages import Op

__all__ = [
    "ReplicationPolicy",
    "ReplicaState",
    "Replicator",
    "FailureDetector",
    "Migration",
    "apply_records",
    "wire_records",
]


class ReplicationPolicy:
    """How a cluster replicates and when it fails over.

    Parameters
    ----------
    mode:
        ``"semisync"`` ships every committed WAL batch inside the
        primary's commit path and retries transient losses before the
        ack is released — an acked write is on the backup. ``"async"``
        ships fire-and-forget; a lost batch leaves the backup behind
        until the next ship triggers the resync protocol.
    heartbeat_interval:
        Minimum spacing between health-probe sweeps (detector polls are
        driven opportunistically by clock ticks, this rate-limits them).
    failover_after:
        How long a primary must stay down before its backup is
        promoted. Must exceed the expected transient-outage time, or
        routine crash/recovery cycles get needlessly deposed.
    ship_retries:
        Transient-loss retries per semisync ship before the primary
        marks itself *degraded* (keeps serving, refuses failover).
    staleness_bound:
        How many shipped batches a read replica may be known to lag
        before it refuses scans with
        :class:`~repro.distributed.errors.ReplicaStaleError`.
    """

    __slots__ = (
        "mode",
        "heartbeat_interval",
        "failover_after",
        "ship_retries",
        "staleness_bound",
    )

    def __init__(
        self,
        mode: str = "semisync",
        heartbeat_interval: float = 0.02,
        failover_after: float = 0.3,
        ship_retries: int = 8,
        staleness_bound: int = 0,
    ):
        if mode not in ("semisync", "async"):
            raise ConfigurationError(
                f"replication mode must be 'semisync' or 'async', got {mode!r}"
            )
        if heartbeat_interval <= 0:
            raise ConfigurationError("heartbeat interval must be positive")
        if failover_after <= 0:
            raise ConfigurationError("failover_after must be positive")
        if ship_retries < 0:
            raise ConfigurationError("ship_retries cannot be negative")
        if staleness_bound < 0:
            raise ConfigurationError("staleness bound cannot be negative")
        self.mode = mode
        self.heartbeat_interval = heartbeat_interval
        self.failover_after = failover_after
        self.ship_retries = ship_retries
        self.staleness_bound = staleness_bound

    @property
    def semisync(self) -> bool:
        """True when acks are gated on the backup having the batch."""
        return self.mode == "semisync"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReplicationPolicy({self.mode}, "
            f"failover_after={self.failover_after})"
        )


class ReplicaState:
    """A backup's position in its primary's shipping stream.

    ``last_lsn`` is in the *primary's* LSN coordinates — the highest
    primary WAL record this backup has applied — which is what makes
    segment catch-up possible. ``lag`` is the backup's best knowledge of
    how many batches it is behind (0 while in sync; set on gap
    detection, cleared by the repair). Volatile by design: a backup that
    crashes comes back with no state and forces a full resync.
    """

    __slots__ = ("epoch", "applied_seq", "last_lsn", "lag")

    def __init__(self, epoch: int, applied_seq: int, last_lsn: int):
        self.epoch = epoch
        self.applied_seq = applied_seq
        self.last_lsn = last_lsn
        self.lag = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReplicaState(epoch={self.epoch}, seq={self.applied_seq}, "
            f"lsn={self.last_lsn}, lag={self.lag})"
        )


def wire_records(wal_records: Iterable[WALRecord]) -> list[list]:
    """WAL op records in shipping form ``[lsn, type, key, value, rid]``."""
    return [
        [record.lsn, record.type, record.key, record.value, record.rid]
        for record in wal_records
    ]


def apply_records(file: Any, dedup: DedupWindow, recs: Iterable[list]) -> None:
    """Replay shipped op records into ``file`` the way recovery would.

    Durable files take the request id themselves — it travels inside
    the logged record and reaches the dedup window after the fsync, so
    the backup's own WAL is a faithful log and survives *its* crashes.
    One group commit per batch: the backup acks a batch only once it is
    durable locally. In-memory files apply directly and record the id
    with the op's result in the caller's window.

    The primary only ever logs *successful* operations, so replay on an
    in-sync copy cannot raise; an exception here (including the
    :class:`~repro.core.errors.StorageError` of an unknown record type)
    means the copy has diverged and the caller must fall back to resync.
    """
    durable = isinstance(file, DurableFile)
    with group_commit():
        for _lsn, rec_type, key, value, rid in recs:
            rid_t = (int(rid[0]), int(rid[1])) if rid is not None else None
            if durable:
                file.apply(rec_type, key, value, rid=rid_t)
            else:
                dedup.record(rid_t, apply_op(file, rec_type, key, value))


class Replicator:
    """The primary-side half of one primary/backup pair.

    Its server feeds it every committed batch (from the WAL commit tap
    on durable shards, right after the apply on in-memory ones) and it
    ships each batch to the backup. Keeps the ``(epoch, seq)`` shipping
    stream and runs the repair ladder when the backup reports a gap:
    segment catch-up first, full snapshot resync as the last resort.
    """

    __slots__ = (
        "server",
        "backup_id",
        "policy",
        "epoch",
        "seq",
        "confirmed",
        "degraded",
        "ships",
        "catchups",
        "resyncs",
    )

    def __init__(self, server, backup, policy: ReplicationPolicy):
        self.server = server
        self.backup_id = backup.shard_id
        self.policy = policy
        self.epoch = 0
        self.seq = 0
        self.confirmed = 0
        #: True when the backup could not be reached (or repaired): the
        #: primary keeps serving alone, but refuses failover — a
        #: degraded backup may be missing acked writes.
        self.degraded = False
        self.ships = 0
        self.catchups = 0
        self.resyncs = 0

    # -- wiring --------------------------------------------------------
    def seed_direct(self) -> None:
        """Start a fresh epoch after a direct (in-process) copy.

        Split rebuilds, migration cutovers and post-promotion respawns
        copy the backup's contents without going through the wire; the
        epoch bump fences any ship from the pre-copy stream.
        """
        self.epoch += 1
        self.seq = 0
        self.confirmed = 0
        self.degraded = False

    # -- shipping ------------------------------------------------------
    @property
    def behind(self) -> int:
        """Batches shipped but not yet confirmed by the backup."""
        return max(0, self.seq - self.confirmed)

    def _gauge(self) -> None:
        self.server.registry.gauge(
            "dist_replicas_behind", {"shard": self.server.shard_id}
        ).set(self.behind)

    def ship(self, recs: list[list]) -> None:
        """Ship one committed batch; repair or degrade on failure."""
        self.seq += 1
        self.ships += 1
        payload = {"epoch": self.epoch, "seq": self.seq, "recs": recs}
        reply = self._send(Op.replicate(payload))
        if reply is None:
            if self.policy.semisync:
                self._degrade("unreachable")
            self._gauge()
            return
        status = reply.value if isinstance(reply.value, dict) else {}
        if status.get("resync"):
            self._repair(int(status.get("lsn", -1)))
        else:
            self.confirmed = self.seq
            self.degraded = False
        self._gauge()

    def _send(self, op: Op):
        """One ship with the policy's transient-loss retry budget."""
        attempts = 1 + (self.policy.ship_retries if self.policy.semisync else 0)
        router = self.server.router
        for attempt in range(attempts):
            try:
                return router.replicate(
                    self.server.shard_id, self.backup_id, op
                )
            except MessageLostError:
                if attempt + 1 < attempts:
                    router.sleep(0.002)
            except (ServerDownError, UnknownShardError):
                return None
        return None

    def _send_hard(self, op: Op):
        """A repair transfer: retried hard in both modes.

        Resync is the mechanism that makes async mode eventually
        consistent — giving up on it would leave the backup behind
        forever — so the retry budget applies regardless of mode.
        """
        router = self.server.router
        for attempt in range(1 + max(1, self.policy.ship_retries)):
            try:
                return router.replicate(
                    self.server.shard_id, self.backup_id, op
                )
            except MessageLostError:
                router.sleep(0.002)
            except (ServerDownError, UnknownShardError):
                return None
        return None

    def _degrade(self, reason: str) -> None:
        if not self.degraded:
            self.degraded = True
            self.server.registry.counter(
                "dist_replication_degraded_total",
                {"shard": self.server.shard_id},
            ).inc()
            if TRACER.enabled:
                TRACER.emit(
                    "replication_degraded",
                    shard=self.server.shard_id,
                    backup=self.backup_id,
                    reason=reason,
                )

    # -- repair ladder -------------------------------------------------
    def _repair(self, backup_lsn: int) -> None:
        """Close a reported gap: segment catch-up, else full resync."""
        file = self.server.file
        wal = getattr(file, "wal", None)
        manifest = getattr(file, "manifest", None)
        if (
            wal is not None
            and manifest is not None
            and backup_lsn >= int(manifest.get("lsn", 0))
        ):
            recs = wire_records(
                stream_ops(wal.store, wal.name, after_lsn=backup_lsn)
            )
            payload = {
                "epoch": self.epoch,
                "seq": self.seq,
                "recs": recs,
                "catchup": True,
                "from_lsn": backup_lsn,
            }
            reply = self._send_hard(Op.replicate(payload))
            if reply is not None:
                status = reply.value if isinstance(reply.value, dict) else {}
                if not status.get("resync"):
                    self.catchups += 1
                    self.confirmed = self.seq
                    self.degraded = False
                    self.server.registry.counter(
                        "dist_replica_catchups_total",
                        {"shard": self.server.shard_id},
                    ).inc()
                    if TRACER.enabled:
                        TRACER.emit(
                            "replica_catchup",
                            shard=self.server.shard_id,
                            backup=self.backup_id,
                            records=len(recs),
                        )
                    return
        self.resync()

    def resync(self) -> None:
        """Rebuild the backup from a full snapshot transfer."""
        file = self.server.file
        wal = getattr(file, "wal", None)
        self.epoch += 1
        self.resyncs += 1
        payload = {
            "epoch": self.epoch,
            "seq": self.seq,
            "lsn": wal.last_lsn if wal is not None else 0,
            "items": self.server.items(),  # tuples: one record block
            "dedup": self.server.dedup.to_spec(),
        }
        self.server.registry.counter(
            "dist_replica_resyncs_total", {"shard": self.server.shard_id}
        ).inc()
        if TRACER.enabled:
            TRACER.emit(
                "replica_resync",
                shard=self.server.shard_id,
                backup=self.backup_id,
                records=len(payload["items"]),
            )
        reply = self._send_hard(Op.resync(payload))
        if reply is None:
            self._degrade("resync failed")
            return
        status = reply.value if isinstance(reply.value, dict) else {}
        if status.get("resync"):
            self._degrade("resync rejected")
            return
        self.confirmed = self.seq
        self.degraded = False
        self._gauge()


class FailureDetector:
    """Missed-heartbeat detection on an injected clock.

    ``poll`` sweeps the primaries: a server seen down starts (or
    continues) a suspicion window; one that stays down past the
    policy's ``failover_after`` is handed to ``coordinator.failover``.
    Sweeps are rate-limited to the heartbeat interval, so callers can
    invoke it from every clock tick.
    """

    __slots__ = ("policy", "suspects", "last_poll", "probes")

    def __init__(self, policy: ReplicationPolicy):
        self.policy = policy
        self.suspects: dict[int, float] = {}
        self.last_poll: Optional[float] = None
        self.probes = 0

    def poll(self, coordinator: Any, now: float) -> list[int]:
        """Probe once per heartbeat; returns the shard ids deposed."""
        if (
            self.last_poll is not None
            and now - self.last_poll < self.policy.heartbeat_interval
        ):
            return []
        self.last_poll = now
        deposed: list[int] = []
        for shard_id, server in list(coordinator.servers.items()):
            self.probes += 1
            if not server.down:
                self.suspects.pop(shard_id, None)
                continue
            since = self.suspects.setdefault(shard_id, now)
            if now - since >= self.policy.failover_after:
                if coordinator.failover(shard_id, now=now):
                    deposed.append(shard_id)
                    self.suspects.pop(shard_id, None)
        return deposed


class Migration:
    """One live region move: snapshot chunks + tap catch-up + barrier.

    Construction materializes the source's snapshot, registers a
    catch-up tap on the source server and spins up the (off-partition)
    target. :meth:`step` copies one chunk — callers interleave steps
    with live traffic. :meth:`finish` is the cutover barrier: drain the
    remaining chunks, replay the buffered concurrent records, merge the
    source's dedup window, repoint the partition and retire the source
    as a forwarding stub.
    """

    __slots__ = (
        "coordinator",
        "source_id",
        "source",
        "target",
        "chunk_size",
        "snapshot",
        "cursor",
        "buffer",
        "done",
        "aborted",
    )

    def __init__(self, coordinator, source_id: int, chunk_size: int = 64):
        if chunk_size < 1:
            raise ConfigurationError("migration chunk size must be positive")
        self.coordinator = coordinator
        self.source_id = source_id
        self.source = coordinator.servers[source_id]
        self.target = coordinator.spawn_detached_server()
        self.chunk_size = chunk_size
        self.snapshot = self.source.items()
        self.cursor = 0
        #: Records the source committed after the snapshot was cut, in
        #: commit order — the WAL catch-up stream of this move.
        self.buffer: list[list] = []
        self.done = False
        self.aborted = False
        self.source.taps.append(self._tap)
        self.source.wire_replication()
        coordinator.registry.counter("dist_migrations_started_total").inc()
        if TRACER.enabled:
            TRACER.emit(
                "migration_start",
                shard=source_id,
                target=self.target.shard_id,
                records=len(self.snapshot),
            )

    def _tap(self, recs: list[list]) -> None:
        self.buffer.extend(recs)

    @property
    def active(self) -> bool:
        return not (self.done or self.aborted)

    def pending_chunks(self) -> bool:
        """True while snapshot chunks remain to be copied."""
        return self.cursor < len(self.snapshot)

    def step(self) -> bool:
        """Copy one snapshot chunk; True while more remain."""
        if not self.active:
            return False
        chunk = self.snapshot[self.cursor : self.cursor + self.chunk_size]
        self.cursor += len(chunk)
        if chunk:
            self.target.file.put_many(chunk)
        return self.pending_chunks()

    def finish(self) -> Optional[int]:
        """The cutover barrier; returns the new owner's shard id.

        Refuses (aborts, returns ``None``) when the source is down —
        its unreplayed tail cannot be trusted; the region stays where
        it is and the ordinary recovery/failover paths apply.
        """
        if not self.active:
            return None
        if self.source.down:
            self.abort()
            return None
        while self.step():
            pass
        # Catch-up: records committed on the source since the snapshot.
        replayed = len(self.buffer)
        if self.buffer:
            apply_records(self.target.file, self.target.dedup, self.buffer)
            self.buffer = []
        self._detach()
        # Retries of pre-cutover mutations must short-circuit on the
        # new owner even when their record predates the snapshot.
        self.target.adopt_window(self.source.dedup)
        self.done = True
        self.coordinator.cutover_migration(self, replayed)
        return self.target.shard_id

    def abort(self) -> None:
        """Drop the move: detach the tap, discard the target."""
        if self.done or self.aborted:
            return
        self.aborted = True
        self._detach()
        self.coordinator.router.servers.pop(self.target.shard_id, None)
        if TRACER.enabled:
            TRACER.emit(
                "migration_abort",
                shard=self.source_id,
                target=self.target.shard_id,
            )

    def _detach(self) -> None:
        try:
            self.source.taps.remove(self._tap)
        except ValueError:
            pass
