"""One TH* shard server: a trie-hashing file plus forwarding logic.

A server owns one contiguous region of the key space (one gap of the
coordinator's authoritative partition) and stores exactly the records
whose keys fall in it, in a single-node :class:`~repro.core.file.THFile`
— or a crash-safe :class:`~repro.storage.recovery.DurableFile` wrapping
one. Servers never trust client routing: an operation addressed to the
wrong shard is forwarded to its owner through the router (one hop — the
coordinator's partition is authoritative). A reply carries an IAM
entry for a region the operation landed in only when that region's
owner is not the shard the client addressed (``Op.addressed``), so a
misaddressing client's image converges and a correct one pays nothing.
Image cuts are a subset of the authoritative cuts, so such a region lies
inside the image gap the client routed by; an entry naming the
addressed shard would only add cuts whose gaps keep that same shard,
and the client's routing is the same without it.

Fault tolerance adds two responsibilities:

* **Lifecycle** — :meth:`ShardServer.crash` marks the server down (the
  router then refuses deliveries with
  :class:`~repro.distributed.errors.ServerDownError`) and, for a
  durable shard, loses the stable store's volatile state exactly like a
  process kill. :meth:`ShardServer.restart` runs the full WAL +
  checkpoint recovery path and rejoins the cluster. A non-durable shard
  keeps its in-memory file across the outage — that models a process
  pause or network partition, not data loss.

* **Exactly-once retries** — a mutating op stamped with a request id is
  checked against the shard's dedup window before executing; a hit
  short-circuits to the recorded result (the op already applied on an
  earlier delivery whose reply was lost). For durable shards the window
  lives inside the :class:`~repro.storage.recovery.DurableFile` so it
  rides the WAL and checkpoints across crashes.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Any, Optional

from ..core.errors import TrieHashingError
from ..core.keys import prefix_le
from ..core.range_query import scan as local_scan
from ..obs.flight import FLIGHT
from ..obs.metrics import Counter
from ..obs.tracer import TRACER, TraceContext
from ..storage.dedup import DedupWindow
from ..storage.recovery import DurableFile
from ..storage.wal import REC_DELETE, REC_INSERT, REC_PUT
from .errors import ProtocolError, ReplicaStaleError
from .messages import (
    BATCH_OPS,
    CONTAINS,
    DELETE,
    GET,
    GET_MANY,
    INSERT,
    MUTATING_OPS,
    POINT_OPS,
    PUT,
    REPLICATE,
    RESYNC,
    SCAN,
    Op,
    Reply,
    rid_str,
)
from .replication import ReplicaState, apply_records, wire_records

__all__ = ["ShardServer"]


class ShardServer:
    """A single simulated server of the distributed file; every file it
    holds, its first (empty) one included, comes from :meth:`refill`."""

    def __init__(self, shard_id: int, coordinator, router, role: str = "primary"):
        self.shard_id = shard_id
        self.coordinator = coordinator
        self.router = router
        self.registry = coordinator.registry
        self.down = False
        self._local_dedup: Optional[DedupWindow] = None
        #: ``"primary"`` serves clients; ``"backup"`` only accepts the
        #: shipping legs (and read-replica scans) until promoted.
        self.role = role
        #: Primary side of a replicated pair (None when unreplicated).
        self.replicator = None
        #: Backup side: position in the primary's shipping stream.
        self.replica_state: Optional[ReplicaState] = None
        #: Backup side: the primary shard id this server shadows.
        self.replica_of: Optional[int] = None
        #: Commit-time subscribers beyond replication (migration
        #: catch-up buffers); each receives shipped-form record batches.
        self.taps: list = []
        self.file: Any = None
        #: ``dist_server_ops_total`` per op kind, bound on first use.
        self._op_counters: dict[str, Counter] = {}
        self.refill()
        router.register(self)

    # ------------------------------------------------------------------
    # Storage access (THFile and DurableFile duck-type alike)
    # ------------------------------------------------------------------
    @property
    def engine(self) -> Any:
        """The underlying THFile (unwraps a durable session)."""
        inner = getattr(self.file, "file", None)
        return inner if inner is not None else self.file

    @property
    def dedup(self) -> DedupWindow:
        """This shard's request-dedup window.

        A durable file owns its window (it must survive crashes with the
        data it guards); a plain in-memory shard keeps a local one.
        """
        window = getattr(self.file, "dedup", None)
        if window is not None:
            return window
        if self._local_dedup is None:
            self._local_dedup = DedupWindow()
        return self._local_dedup

    def __len__(self) -> int:
        return len(self.file)

    def items(self) -> list[tuple[str, object]]:
        """This shard's records in key order (a materialized snapshot)."""
        return list(self.file.items())

    def refill(self, items=(), window: Optional[DedupWindow] = None) -> None:
        """Swap in a fresh file born holding ``items`` and ``window``.

        The one way a shard file is filled. A durable file's genesis
        checkpoint already holds both, so the move logs nothing and a
        crash right behind it still dedups; an in-memory shard keeps
        the window itself. The retired file stops feeding replication:
        a commit it still owes (the op that split the shard inside a
        batch) is already in the new file and in its reseeded backup.
        """
        retired = getattr(self.file, "wal", None)
        if retired is not None and self._on_wal_commit in retired.taps:
            retired.taps.remove(self._on_wal_commit)
        self.file = self.coordinator.file_factory(items, window)
        self._local_dedup = None
        if window is not None and not isinstance(self.file, DurableFile):
            self.dedup.merge(window)
        self.wire_replication()

    def adopt_window(self, window: DedupWindow) -> None:
        """Merge a window that arrived outside the WAL (a migration
        cutover); a durable shard checkpoints it so no crash forgets it."""
        self.dedup.merge(window)
        if isinstance(self.file, DurableFile):
            self.file.checkpoint(full=True)

    # ------------------------------------------------------------------
    # Replication feed
    # ------------------------------------------------------------------
    def wire_replication(self) -> None:
        """(Re-)attach the WAL commit tap when anyone is listening.

        Durable files rotate their WAL at checkpoints in place (the
        writer object survives), but restarts and split rebuilds mint a
        *new* writer — this must run after every file swap. A no-op
        when nothing subscribes, so unreplicated clusters pay nothing.
        """
        if self.replicator is None and not self.taps:
            return
        wal = getattr(self.file, "wal", None)
        if wal is not None and self._on_wal_commit not in wal.taps:
            wal.taps.append(self._on_wal_commit)

    def _on_wal_commit(self, wal_records) -> None:
        self._publish(wire_records(wal_records))

    def _publish(self, recs: list) -> None:
        """Fan one committed record batch out to every subscriber.

        Durable shards feed this from the WAL tap (the batch is exactly
        what one fsync made durable); in-memory shards feed it directly
        after a successful apply. Migration buffers see the batch before
        the replicator ships it, so a cutover barrier never misses a
        record the backup already has.
        """
        if not recs:
            return
        for tap in list(self.taps):
            tap(recs)
        if self.replicator is not None:
            self.replicator.ship(recs)

    def promote(self) -> None:
        """Backup becomes primary — the failover cutover point."""
        self.role = "primary"
        self.replica_state = None
        self.replica_of = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Kill this server: refuse deliveries, lose volatile state."""
        if self.down:
            return
        self.down = True
        stable = getattr(self.file, "stable", None)
        if stable is not None:
            stable.lose_volatile()
        self.coordinator.mark_down(self.shard_id)
        self.registry.counter(
            "dist_server_crashes_total", {"shard": self.shard_id}
        ).inc()
        if TRACER.enabled:
            TRACER.emit(
                "server_crash", shard=self.shard_id, durable=stable is not None
            )
        # Black-box dump: the last window of events leading up to the
        # crash (a no-op unless a forensics directory is configured).
        FLIGHT.dump(f"server-crash-shard-{self.shard_id}")

    def restart(self) -> None:
        """Recover (durable shards replay WAL + checkpoints) and rejoin."""
        if not self.down:
            return
        stable = getattr(self.file, "stable", None)
        replayed = 0
        if stable is not None:
            # The WAL + checkpoint replay runs inside a server_restart
            # span, so the storage layer's recovery span (and its WAL
            # traffic) lands in the causal record of *this* shard's
            # outage rather than floating unattributed.
            span = (
                TRACER.span("server_restart", shard=self.shard_id)
                if TRACER.enabled
                else nullcontext()
            )
            with span:
                self.file = DurableFile.open(stable)
            if self.file.last_recovery is not None:
                replayed = self.file.last_recovery.replayed
            self.wire_replication()
        if self.role == "backup":
            # The shipping position is volatile by design: coming back
            # with unknown (epoch, seq) forces the primary to resync us.
            self.replica_state = None
        self.down = False
        self.coordinator.mark_up(self.shard_id)
        self.registry.counter(
            "dist_server_recoveries_total", {"shard": self.shard_id}
        ).inc()
        if TRACER.enabled:
            TRACER.emit("server_recover", shard=self.shard_id, replayed=replayed)

    # ------------------------------------------------------------------
    # Operation handling
    # ------------------------------------------------------------------
    def handle(self, op: Op) -> Reply:
        """Execute ``op`` if this server owns it, else forward it.

        With tracing on, the whole delivery runs inside a
        ``shard_<kind>`` span parented under the context the op carried
        in (the client's — or, on a forward, the previous server's —
        span), and the reply is stamped with the context of the span
        that actually executed the operation. Every redelivery of a
        duplicated or retried op opens its own span, so the causal tree
        shows each delivery separately while the rid ties them together.
        """
        counter = self._op_counters.get(op.kind)
        if counter is None:
            counter = self._op_counters[op.kind] = self.registry.counter(
                "dist_server_ops_total", {"shard": self.shard_id, "op": op.kind}
            )
        counter.inc()
        if not TRACER.enabled:
            return self._dispatch(op)
        fields: dict[str, object] = {"shard": self.shard_id}
        rid = rid_str(op.rid)
        if rid is not None:
            fields["rid"] = rid
        with TRACER.span(
            "shard_" + op.kind, ctx=TraceContext.from_wire(op.ctx), **fields
        ):
            reply = self._dispatch(op)
            if reply.ctx is None:
                # First stamp wins: on a forward chain the inner
                # (owning) server already named itself as executor.
                current = TRACER.current_context()
                if current is not None:
                    reply.ctx = current.to_wire()
            return reply

    def _dispatch(self, op: Op) -> Reply:
        if op.kind == REPLICATE:
            return self._handle_replicate(op)
        if op.kind == RESYNC:
            return self._handle_resync(op)
        if self.role == "backup":
            if op.kind == SCAN:
                return self._handle_replica_scan(op)
            raise ProtocolError(
                f"backup shard {self.shard_id} cannot serve {op.kind!r}"
            )
        if op.kind == SCAN:
            return self._handle_scan(op)
        if op.kind in BATCH_OPS:
            return self._handle_batch(op)
        return self._handle_point(op)

    def _forward(self, owner: int, op: Op) -> Reply:
        """Send a misaddressed op to its owner, carrying *our* context.

        Re-stamping ``op.ctx`` parents the owning server's span under
        this forwarding hop, which is how a forward chain shows up as a
        chain in the causal tree instead of two siblings.
        """
        if TRACER.enabled:
            current = TRACER.current_context()
            if current is not None:
                op.ctx = current.to_wire()
        return self.router.forward(self.shard_id, owner, op)

    def _handle_point(self, op: Op) -> Reply:
        if op.kind not in POINT_OPS:
            # A malformed request is a protocol bug, not a storage error:
            # raise (typed) instead of smuggling it into Reply.error.
            raise ProtocolError(f"unknown point op kind {op.kind!r}")
        model = self.coordinator.model
        gap, owner = model.locate(op.key)
        if owner != self.shard_id:
            return self._forward(owner, op)
        if op.kind in MUTATING_OPS and op.rid is not None:
            hit, stored = self.dedup.lookup(op.rid)
            if hit:
                # The op already applied on a delivery whose reply was
                # lost; replay the recorded result instead of re-executing.
                self.registry.counter(
                    "dist_dedup_hits_total", {"shard": self.shard_id}
                ).inc()
                if TRACER.enabled:
                    TRACER.emit(
                        "dedup_hit", shard=self.shard_id, rid=rid_str(op.rid)
                    )
                taught = owner != op.addressed
                return Reply(
                    value=stored,
                    iam=self.coordinator.iam_for_key(op.key) if taught else [],
                    owner=self.shard_id,
                    dedup=True,
                )
        error: Optional[Exception] = None
        value: object = None
        try:
            if op.kind == GET:
                value = self.file.get(op.key)
            elif op.kind == CONTAINS:
                value = self.file.contains(op.key)
            else:
                value = self._apply_mutation(op)
        except TrieHashingError as exc:
            error = exc
        if op.kind in MUTATING_OPS and error is None:
            self.router.note_apply(op.rid)
            # The op may have pushed this shard over its load policy;
            # scale out *before* building the IAM so a client the split
            # made wrong learns the fresh cut immediately. Only a split
            # moves the key's region, so only a split needs it located
            # again.
            if self.coordinator.maybe_split(self.shard_id):
                gap, owner = model.locate(op.key)
        if owner == op.addressed:
            return Reply(value=value, error=error, owner=owner)
        low, high = model.region(gap)
        return Reply(
            value=value, error=error, iam=[(low, high, owner)], owner=owner
        )

    def _apply_mutation(self, op: Op):
        """Execute a mutating op and record its request id as applied.

        Durable files take the id themselves — it must reach the dedup
        window only *after* the WAL fsync, and it travels inside the
        logged record so recovery rebuilds the window. In-memory shards
        record into the server's local window directly.
        """
        if isinstance(self.file, DurableFile):
            if op.kind == INSERT:
                return self.file.insert(op.key, op.value, rid=op.rid)
            if op.kind == PUT:
                return self.file.put(op.key, op.value, rid=op.rid)
            return self.file.delete(op.key, rid=op.rid)
        if op.kind == INSERT:
            result = self.file.insert(op.key, op.value)
            rec_type = REC_INSERT
        elif op.kind == PUT:
            result = self.file.put(op.key, op.value)
            rec_type = REC_PUT
        else:
            result = self.file.delete(op.key)
            rec_type = REC_DELETE
        self.dedup.record(op.rid, result)
        # In-memory shards have no WAL tap; feed replication directly.
        self._publish(
            [[0, rec_type, op.key, op.value if op.kind != DELETE else None,
              list(op.rid) if op.rid is not None else None]]
        )
        return result

    def _partition(
        self, keys: list, items: list, addressed: Optional[int]
    ) -> tuple[list, list, list]:
        """One pass of a batch leg over the partition.

        ``items[i]`` carries ``keys[i]``. Returns the items this shard
        owns, the leftovers, and the IAM entries of every distinct
        region the keys fall in whose owner is not the ``addressed``
        shard, in first-seen order: a batch leg teaches the client all
        the cuts it tripped over in one reply (a point op teaches at
        most one), which is why the leftover re-batching loop converges
        in a single extra round.
        """
        model = self.coordinator.model
        owned: list = []
        leftover: list = []
        iam: list = []
        seen: set[int] = set()
        for key, item in zip(keys, items):
            gap, shard = model.locate(key)
            (owned if shard == self.shard_id else leftover).append(item)
            if shard != addressed and gap not in seen:
                seen.add(gap)
                low, high = model.region(gap)
                iam.append((low, high, shard))
        return owned, leftover, iam

    def _handle_batch(self, op: Op) -> Reply:
        """Serve the owned slice of a batch; hand the rest back.

        Batches are never forwarded: the shard serves exactly the keys
        the authoritative partition assigns to it and returns the
        *leftovers* in ``Reply.records`` together with IAM entries for
        every region the batch touched that the addressed shard does not
        own, so the client re-batches the remainder straight to the true
        owners. A retried ``put_many`` leg short-circuits on the shard's
        dedup window exactly like a point mutation — shard splits copy
        the window to both halves, so the guarantee survives keys
        migrating between deliveries.
        """
        items = op.value
        keys = items if op.kind == GET_MANY else [key for key, _ in items]
        owned, leftover, iam = self._partition(keys, items, op.addressed)
        value: object = None
        error: Optional[Exception] = None
        if op.kind == GET_MANY:
            # The found records as pairs: they travel as one record
            # block, and the client merges them with ``dict.update``.
            value = list(self.file.get_many(owned).items()) if owned else []
        elif op.rid is not None and self.dedup.lookup(op.rid)[0]:
            # The owned slice already applied on an earlier delivery
            # (possibly on the shard this window was inherited from);
            # only the currently-unowned remainder goes back out.
            self.registry.counter(
                "dist_dedup_hits_total", {"shard": self.shard_id}
            ).inc()
            if TRACER.enabled:
                TRACER.emit(
                    "dedup_hit", shard=self.shard_id, rid=rid_str(op.rid)
                )
            return Reply(
                records=leftover, iam=iam, owner=self.shard_id, dedup=True
            )
        elif owned:
            try:
                if isinstance(self.file, DurableFile):
                    # The durable session records the id itself, after
                    # the batch's group fsync.
                    self.file.put_many(owned, rid=op.rid)
                else:
                    self.file.put_many(owned)
                    self.dedup.record(op.rid, None)
                    rid = list(op.rid) if op.rid is not None else None
                    self._publish(
                        [[0, REC_PUT, k, v, rid] for k, v in owned]
                    )
            except TrieHashingError as exc:
                error = exc
            if error is None:
                self.router.note_apply(op.rid)
                # Only a split moves regions, so only a split needs the
                # IAM built again.
                if self.coordinator.maybe_split(self.shard_id):
                    iam = self._partition(keys, items, op.addressed)[2]
        if TRACER.enabled:
            TRACER.emit(
                "batch_leg",
                shard=self.shard_id,
                op=op.kind,
                served=len(owned),
                leftover=len(leftover),
            )
        return Reply(
            value=value,
            error=error,
            records=leftover,
            iam=iam,
            owner=self.shard_id,
        )

    def _handle_scan(self, op: Op) -> Reply:
        gap = self.coordinator.scan_gap(op)
        owner = self.coordinator.shard_of_gap(gap)
        if owner != self.shard_id:
            return self._forward(owner, op)
        records = list(local_scan(self.engine, op.low, op.high))
        low_b, high_b = self.coordinator.region_of_gap(gap)
        done = high_b is None or (
            op.high is not None
            and prefix_le(op.high, high_b, self.coordinator.alphabet)
        )
        if TRACER.enabled:
            TRACER.emit(
                "scan_leg", shard=self.shard_id, records=len(records)
            )
        taught = op.addressed != self.shard_id
        return Reply(
            records=records,
            region_high=high_b,
            done=done,
            iam=[(low_b, high_b, self.shard_id)] if taught else [],
            owner=self.shard_id,
        )

    # ------------------------------------------------------------------
    # Replication (backup side)
    # ------------------------------------------------------------------
    def _replica_status(self) -> dict:
        state = self.replica_state
        if state is None:
            return {"resync": True, "epoch": -1, "applied": -1, "lsn": -1}
        return {
            "resync": False,
            "epoch": state.epoch,
            "applied": state.applied_seq,
            "lsn": state.last_lsn,
        }

    def _resync_request(self) -> Reply:
        """Tell the primary this backup needs repair, with its position."""
        state = self.replica_state
        status = self._replica_status()
        status["resync"] = True
        if state is not None:
            state.lag = max(state.lag, 1)
        return Reply(value=status, owner=self.shard_id)

    def _apply_shipped(self, recs: list) -> bool:
        """Replay one shipped batch; False when the copy has diverged."""
        try:
            apply_records(self.file, self.dedup, recs)
        except TrieHashingError:
            return False
        state = self.replica_state
        if state is not None:
            lsns = [rec[0] for rec in recs if rec[0]]
            if lsns:
                state.last_lsn = max(state.last_lsn, max(lsns))
        return True

    def _handle_replicate(self, op: Op) -> Reply:
        if self.role != "backup":
            raise ProtocolError(
                f"shard {self.shard_id} is not a backup (replicate refused)"
            )
        payload = op.value if isinstance(op.value, dict) else {}
        epoch = int(payload.get("epoch", -1))
        seq = int(payload.get("seq", -1))
        recs = payload.get("recs") or []
        state = self.replica_state
        if state is None or state.epoch != epoch:
            return self._resync_request()
        if payload.get("catchup"):
            # A segment catch-up slice: apply only what we don't have.
            recs = [rec for rec in recs if not rec[0] or rec[0] > state.last_lsn]
            if not self._apply_shipped(recs):
                return self._resync_request()
            state.applied_seq = seq
            state.lag = 0
            return Reply(value=self._replica_status(), owner=self.shard_id)
        if seq <= state.applied_seq:
            # A fabric duplicate or sender retry of a batch we already
            # hold — the sequence number absorbs it.
            self.registry.counter(
                "dist_replicate_dups_total", {"shard": self.shard_id}
            ).inc()
            return Reply(value=self._replica_status(), owner=self.shard_id)
        if seq > state.applied_seq + 1:
            # A gap: at least one ship was lost before this one.
            state.lag = seq - state.applied_seq
            return self._resync_request()
        if not self._apply_shipped(recs):
            return self._resync_request()
        state.applied_seq = seq
        state.lag = 0
        return Reply(value=self._replica_status(), owner=self.shard_id)

    def _handle_resync(self, op: Op) -> Reply:
        """Rebuild this backup from a full snapshot transfer."""
        if self.role != "backup":
            raise ProtocolError(
                f"shard {self.shard_id} is not a backup (resync refused)"
            )
        payload = op.value if isinstance(op.value, dict) else {}
        items = [(k, v) for k, v in payload.get("items") or []]
        self.refill(items, DedupWindow.from_spec(payload.get("dedup") or []))
        self.replica_state = ReplicaState(
            epoch=int(payload.get("epoch", 0)),
            applied_seq=int(payload.get("seq", 0)),
            last_lsn=int(payload.get("lsn", 0)),
        )
        self.registry.counter(
            "dist_replica_rebuilds_total", {"shard": self.shard_id}
        ).inc()
        if TRACER.enabled:
            TRACER.emit(
                "replica_rebuild", shard=self.shard_id, records=len(items)
            )
        return Reply(value=self._replica_status(), owner=self.shard_id)

    def _handle_replica_scan(self, op: Op) -> Reply:
        """Serve a scan leg from this backup, within staleness bounds.

        Refuses with :class:`ReplicaStaleError` — deliberately
        non-retryable, the client falls straight back to the primary —
        whenever the copy is not provably fresh enough: no shipping
        state, a known lag beyond the bound, or a leg whose range the
        shadowed primary does not own (only the primary path forwards).
        """
        policy = getattr(self.coordinator, "replication", None)
        state = self.replica_state
        if state is None or policy is None or self.replica_of is None:
            raise ReplicaStaleError(
                f"replica {self.shard_id} has no shipping state"
            )
        if state.lag > policy.staleness_bound:
            raise ReplicaStaleError(
                f"replica {self.shard_id} lags {state.lag} batches "
                f"(bound {policy.staleness_bound})"
            )
        gap = self.coordinator.scan_gap(op)
        owner = self.coordinator.shard_of_gap(gap)
        if owner != self.replica_of:
            raise ReplicaStaleError(
                f"replica {self.shard_id} shadows shard {self.replica_of}, "
                f"not range owner {owner}"
            )
        records = list(local_scan(self.engine, op.low, op.high))
        low_b, high_b = self.coordinator.region_of_gap(gap)
        done = high_b is None or (
            op.high is not None
            and prefix_le(op.high, high_b, self.coordinator.alphabet)
        )
        self.registry.counter(
            "dist_replica_reads_total", {"shard": self.shard_id}
        ).inc()
        if TRACER.enabled:
            TRACER.emit(
                "replica_scan_leg", shard=self.shard_id, records=len(records)
            )
        # The IAM names the *primary*: replica routing is a client-side
        # choice, the authoritative partition never points at backups,
        # so a client that addressed the backup is always taught.
        taught = op.addressed != self.replica_of
        return Reply(
            records=records,
            region_high=high_b,
            done=done,
            iam=[(low_b, high_b, self.replica_of)] if taught else [],
            owner=self.replica_of,
        )
