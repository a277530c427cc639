"""The client-side distributed file: THFile semantics over shards.

A :class:`DistributedFile` exposes the single-node
:class:`~repro.core.file.THFile` record API — ``insert`` / ``put`` /
``get`` / ``contains`` / ``delete`` / ``range_items`` — but routes every
operation through its cached :class:`~repro.core.image.TrieImage`. The
image may be arbitrarily stale (a cold client believes the whole key
space lives on shard 0); servers forward misaddressed operations, and
a reply to an op the image addressed wrongly carries the IAM that
refines it, so the miss rate decays as the client works — the TH*
convergence property, which :meth:`convergence` measures and reports
through :mod:`repro.obs`.

Under a faulty fabric the client is also the resilience layer. Every
delivery runs inside a retry loop governed by a
:class:`~repro.distributed.faults.RetryPolicy`: transient failures
(:class:`~repro.distributed.errors.RetryableError` — lost messages,
timeouts, a crashed server) are retried with capped exponential backoff
plus jitter, up to a bounded budget, after which the typed
:class:`~repro.distributed.errors.ShardUnavailableError` surfaces with
the last transport error chained. Retries are **exactly-once** for
mutating operations: each logical mutation is stamped once with a
per-client monotonic request id, every redelivery carries the same id,
and the owning server's dedup window short-circuits duplicates (see
:mod:`repro.storage.dedup`).
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterable, Iterator
from typing import Optional

from ..core.image import TrieImage
from ..obs.metrics import LATENCY_BUCKETS, Counter, Gauge, Histogram
from ..obs.tracer import TRACER
from .errors import (
    ConfigurationError,
    ReplicaStaleError,
    RetryableError,
    ShardUnavailableError,
)
from .faults import RetryPolicy
from .messages import MUTATING_OPS, Op, Reply, rid_str

__all__ = ["DistributedFile"]


class DistributedFile:
    """A client handle on a :class:`~repro.distributed.coordinator.Cluster`.

    Obtain one from :meth:`Cluster.client` — cold (blank image, the TH*
    initial state) or warm (a snapshot of the current partition).

    The client is written against the
    :class:`~repro.distributed.transport.Transport` seam: everything it
    needs from ``cluster`` is a transport (``cluster.router``), the
    alphabet, a metrics registry, and coordinator *metadata* (the first
    shard id for a cold image, the record total for ``len``). It never
    reaches into server objects, so the same class serves records over
    the in-process fabric and over a real socket — see
    :func:`repro.serving.connect`, which hands it a
    :class:`~repro.serving.client.RemoteTransport` bound to a live
    ``trie-hashing serve`` process instead.
    """

    def __init__(
        self,
        cluster,
        image: Optional[TrieImage] = None,
        client_id: int = 0,
        retry: Optional[RetryPolicy] = None,
        read_preference: str = "primary",
    ):
        if read_preference not in ("primary", "replica"):
            raise ConfigurationError(
                "read_preference must be 'primary' or 'replica', "
                f"got {read_preference!r}"
            )
        self.cluster = cluster
        self.router = cluster.router
        self.alphabet = cluster.alphabet
        self.client_id = client_id
        self.retry = retry if retry is not None else RetryPolicy()
        #: Scan-leg routing: ``"replica"`` tries the region owner's
        #: backup first and falls back to the primary on staleness.
        self.read_preference = read_preference
        self.replica_fallbacks = 0
        if image is None:
            # The TH* initial image: one region, assumed on the first shard.
            first = min(cluster.coordinator.servers)
            image = TrieImage(self.alphabet, (), (first,))
        self.image = image
        # Lifetime and windowed convergence counters: an op "resolves
        # without forwarding" when the image addressed the owner directly.
        self.ops_total = 0
        self.ops_forwarded = 0
        self.window_total = 0
        self.window_forwarded = 0
        self.iam_boundaries = 0
        self.retries_total = 0
        self._seq = 0
        self._rng = random.Random(client_id)
        # Per-op instruments, bound on first use: a bound instrument
        # costs one ``inc``/``set`` and no label sort, and a series the
        # client never touches is never created.
        self._routed: dict[str, Counter] = {}
        self._learned: Optional[Counter] = None
        self._convergence_gauge: Optional[Gauge] = None
        self._op_seconds: Optional[Histogram] = None

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _fresh_rid(self) -> tuple[int, int]:
        """The next request id — one per *logical* mutating operation."""
        self._seq += 1
        return (self.client_id, self._seq)

    def _send(self, op: Op, shard_for: Callable[[], int]) -> Reply:
        """Deliver ``op``, retrying transient faults within the policy.

        With tracing on, the whole delivery — every retry included —
        runs inside one ``client_<kind>`` span that roots the op's
        causal tree; each attempt stamps the span's context onto the op
        so every server-side span (including redeliveries the fabric
        duplicates) parents back under this root.

        ``shard_for`` re-derives the target from the (possibly patched)
        image on every attempt. Non-transient errors — routing bugs,
        protocol violations — propagate immediately; transient ones are
        retried until the budget is spent, then surface as
        :class:`ShardUnavailableError` with the last failure chained.
        """
        if not TRACER.enabled:
            return self._send_inner(op, shard_for)
        fields: dict[str, object] = {"client": self.client_id}
        if op.key is not None:
            fields["key"] = op.key
        rid = rid_str(op.rid)
        if rid is not None:
            fields["rid"] = rid
        with TRACER.span("client_" + op.kind, **fields):
            return self._send_inner(op, shard_for)

    def _send_inner(self, op: Op, shard_for: Callable[[], int]) -> Reply:
        policy = self.retry
        registry = self.cluster.registry
        start = getattr(self.router, "now", None)
        attempt = 0
        while True:
            if TRACER.enabled:
                # Stamp per attempt, not per op: a forward overwrites
                # the context with the forwarding server's span, and the
                # next retry must parent under the client root again.
                ctx = TRACER.current_context()
                if ctx is not None:
                    op.ctx = ctx.to_wire()
            try:
                reply = self.router.client_send(
                    shard_for(), op, timeout=policy.timeout
                )
            except RetryableError as exc:
                attempt += 1
                if attempt > policy.max_retries:
                    raise ShardUnavailableError(
                        f"{op.kind} gave up after {attempt} attempts: {exc}"
                    ) from exc
                reason = type(exc).__name__
                self.retries_total += 1
                registry.counter(
                    "dist_retries_total", {"op": op.kind, "reason": reason}
                ).inc()
                if TRACER.enabled:
                    TRACER.emit(
                        "op_retry",
                        client=self.client_id,
                        op=op.kind,
                        attempt=attempt,
                        reason=reason,
                    )
                self.router.sleep(policy.backoff(attempt, self._rng))
                continue
            if start is not None:
                histogram = self._op_seconds
                if histogram is None:
                    histogram = self._op_seconds = registry.histogram(
                        "dist_op_seconds", bounds=LATENCY_BUCKETS
                    )
                histogram.observe(self.router.now - start)
            return reply

    def _absorb(self, reply: Reply) -> None:
        """Learn from ``reply``'s IAM and count the op's routing.

        A reply carries an IAM only when the image addressed the wrong
        shard, so a client whose image was right patches nothing.
        """
        registry = self.cluster.registry
        # The IAM is authoritative whatever the outcome — a reply whose
        # operation failed (duplicate key, missing key) still teaches
        # the client the true region cuts.
        if reply.iam:
            learned = self.image.patch(reply.iam)
            self.iam_boundaries += learned
            if learned:
                if self._learned is None:
                    self._learned = registry.counter(
                        "dist_iam_boundaries_total", {"client": self.client_id}
                    )
                self._learned.inc(learned)
        if reply.error is not None:
            # Only resolved operations count toward convergence: an
            # errored reply measures the keyspace, not the routing.
            return
        self.ops_total += 1
        self.window_total += 1
        routed = "direct"
        if reply.forwards:
            self.ops_forwarded += 1
            self.window_forwarded += 1
            routed = "forwarded"
        counter = self._routed.get(routed)
        if counter is None:
            counter = self._routed[routed] = registry.counter(
                "dist_client_ops_total",
                {"client": self.client_id, "routed": routed},
            )
        counter.inc()
        gauge = self._convergence_gauge
        if gauge is None:
            gauge = self._convergence_gauge = registry.gauge(
                "dist_client_convergence", {"client": self.client_id}
            )
        gauge.set(self.convergence())

    def _point(self, op: Op) -> object:
        if op.kind in MUTATING_OPS:
            op.rid = self._fresh_rid()
        reply = self._send(op, lambda: self.image.shard_for_key(op.key))
        self._absorb(reply)
        if reply.error is not None:
            raise reply.error
        return reply.value

    # ------------------------------------------------------------------
    # The record API (THFile-compatible)
    # ------------------------------------------------------------------
    def insert(self, key: str, value: object = None) -> None:
        """Insert a new record; raises ``DuplicateKeyError`` if present."""
        self._point(Op.insert(self.alphabet.validate_key(key), value))

    def put(self, key: str, value: object = None) -> None:
        """Insert or overwrite the record under ``key``."""
        self._point(Op.put(self.alphabet.validate_key(key), value))

    def get(self, key: str) -> object:
        """Return the value stored under ``key``."""
        return self._point(Op.get(self.alphabet.validate_key(key)))

    def contains(self, key: str) -> bool:
        """True when ``key`` is stored in the file."""
        return bool(self._point(Op.contains(self.alphabet.validate_key(key))))

    def __contains__(self, key: str) -> bool:
        return self.contains(key)

    def delete(self, key: str) -> object:
        """Remove ``key``'s record and return its value."""
        return self._point(Op.delete(self.alphabet.validate_key(key)))

    def __len__(self) -> int:
        """Record count (authoritative metadata, not a routed op)."""
        return self.cluster.coordinator.total_records()

    # ------------------------------------------------------------------
    # Batched operations
    # ------------------------------------------------------------------
    def _batch_rounds(
        self, pending: list, send_round, resume_on_error: bool = False
    ) -> None:
        """Drive a batch to completion through leftover re-batching.

        Each round groups ``pending`` by the *image's* shard for the
        first element's key and sends one leg per shard; whatever a
        shard does not own comes back as leftovers alongside IAM entries
        for every region the leg touched, so the next round addresses
        the true owners. With an authoritative coordinator one extra
        round always suffices; the progress guard catches a wedged image
        (a round that shrinks nothing) and is defensive only.

        ``resume_on_error`` is for idempotent (read) batches: a leg that
        exhausts its retry budget parks its keys back in ``pending`` so
        the other legs still make progress, instead of abandoning the
        whole batch. Mutating batches must stay fail-fast — re-sending
        an exhausted leg would travel under a fresh request id, and
        "maybe applied, retry anyway" is exactly what the exactly-once
        protocol exists to rule out.

        When the guard does fire, the error carries a bounded sample of
        the unplaced keys and chains the last leg failure (if any) as
        ``__cause__``, so a wedged image is diagnosable from the
        exception alone.
        """
        rounds = 0
        last_error: Optional[ShardUnavailableError] = None
        while pending:
            rounds += 1
            groups: dict[int, list] = {}
            for entry in pending:
                key = entry[0] if isinstance(entry, tuple) else entry
                groups.setdefault(self.image.shard_for_key(key), []).append(entry)
            before = len(pending)
            pending = []
            for shard, batch in sorted(groups.items()):
                try:
                    pending.extend(send_round(batch))
                except ShardUnavailableError as exc:
                    if not resume_on_error:
                        raise
                    last_error = exc
                    pending.extend(batch)
            if pending and len(pending) >= before and rounds > len(self.image) + 2:
                sample = sorted(
                    entry[0] if isinstance(entry, tuple) else entry
                    for entry in pending[:8]
                )
                raise ShardUnavailableError(
                    f"batch made no routing progress after {rounds} rounds "
                    f"({len(pending)} keys unplaced; sample: {sample!r})"
                ) from last_error

    def get_many(self, keys: Iterable[str]) -> dict[str, object]:
        """Batched :meth:`get`: one routed leg per shard touched.

        Returns ``{key: value}`` for the keys that exist; absent keys
        are simply omitted (no :class:`KeyNotFoundError`), matching
        :meth:`THFile.get_many <repro.core.file.THFile.get_many>`.

        Reads are idempotent, so an unreachable shard only parks its
        own leg: the other legs complete, and the batch surfaces
        :class:`ShardUnavailableError` (with the leg failure chained)
        only once no round can make progress.
        """
        out: dict[str, object] = {}
        pending = sorted({self.alphabet.validate_key(k) for k in keys})

        def send_round(batch: list) -> list:
            op = Op.get_many(batch)
            reply = self._send(
                op, lambda: self.image.shard_for_key(batch[0])
            )
            self._absorb(reply)
            if reply.error is not None:  # pragma: no cover - defensive
                raise reply.error
            out.update(reply.value)
            return reply.records or []

        self._batch_rounds(pending, send_round, resume_on_error=True)
        return out

    def put_many(self, items: Iterable[tuple[str, object]]) -> None:
        """Batched :meth:`put`: per-shard legs, one request id per leg.

        Duplicate keys collapse last-wins before routing (the
        :meth:`THFile.put_many <repro.core.file.THFile.put_many>`
        contract). Every leg is stamped with its own fresh request id,
        so a retried leg short-circuits on the owner's dedup window
        while re-batched leftovers travel under new ids.
        """
        last_wins: dict[str, object] = {}
        for key, value in items:
            last_wins[self.alphabet.validate_key(key)] = value
        pending = sorted(last_wins.items())

        def send_round(batch: list) -> list:
            op = Op.put_many(batch)
            op.rid = self._fresh_rid()
            reply = self._send(
                op, lambda: self.image.shard_for_key(batch[0][0])
            )
            self._absorb(reply)
            if reply.error is not None:  # pragma: no cover - defensive
                raise reply.error
            return reply.records or []

        self._batch_rounds(pending, send_round)

    # ------------------------------------------------------------------
    # Ordered access
    # ------------------------------------------------------------------
    def range_items(
        self, low: Optional[str] = None, high: Optional[str] = None
    ) -> Iterator[tuple[str, object]]:
        """Records with ``low <= key <= high`` in key order.

        The scan walks the authoritative regions left to right, one
        routed leg per region; each leg is addressed with the client's
        image (and counted toward convergence), and its IAM teaches the
        client the region's true cuts. Legs retry like point ops; a leg
        that repeats after a lost reply re-reads its region, which is
        safe — scans mutate nothing.
        """
        if low is not None:
            low = self.alphabet.validate_key(low)
        if high is not None:
            high = self.alphabet.validate_key(high)
        if low is not None and high is not None and low > high:
            return
        after: Optional[str] = None
        first = True
        while True:
            if first:
                def shard_for() -> int:
                    return (
                        self.image.shard_for_key(low)
                        if low is not None
                        else self.image.shards[0]
                    )
            else:
                def shard_for(after=after) -> int:
                    return self.image.shards[self.image.gap_above(after)]
            op = Op.scan(low, high, after)
            if self.read_preference == "replica":
                reply = self._scan_leg_replica(op, shard_for)
            else:
                reply = self._send(op, shard_for)
            self._absorb(reply)
            if reply.error is not None:
                # An errored leg measured the keyspace, not the routing:
                # _absorb already excluded it from convergence; surface
                # it exactly as the shard raised it.
                raise reply.error
            yield from reply.records
            if reply.done:
                return
            after = reply.region_high
            first = False

    def _replica_for(self, shard_id: int) -> Optional[int]:
        """The live backup shadowing ``shard_id`` (None when unknown)."""
        resolve = getattr(self.cluster.coordinator, "replica_of", None)
        if resolve is None:
            return None
        return resolve(shard_id)

    def _scan_leg_replica(self, op: Op, shard_for: Callable[[], int]) -> Reply:
        """One scan leg with replica preference.

        Resolves the (image-guessed) region owner's backup and sends
        the leg there. A replica that cannot serve — stale beyond its
        bound, shadowing a different owner, crashed — falls back to the
        primary path for this leg only; the preference stands for the
        next leg.
        """
        replica = self._replica_for(shard_for())
        if replica is None:
            return self._send(op, shard_for)
        try:
            return self._send(op, lambda: replica)
        except (ReplicaStaleError, ShardUnavailableError):
            self.replica_fallbacks += 1
            self.cluster.registry.counter(
                "dist_replica_fallbacks_total"
            ).inc()
            return self._send(op, shard_for)

    def items(self) -> Iterator[tuple[str, object]]:
        """Iterate every record in key order."""
        return self.range_items()

    def keys(self) -> Iterator[str]:
        """Iterate every key in order."""
        for key, _ in self.range_items():
            yield key

    # ------------------------------------------------------------------
    # Convergence
    # ------------------------------------------------------------------
    def convergence(self, window: bool = False) -> float:
        """Fraction of ops the image addressed without a forward.

        ``window=True`` restricts to the ops since the last
        :meth:`reset_window` (how the warm-up criterion is measured).
        """
        total = self.window_total if window else self.ops_total
        missed = self.window_forwarded if window else self.ops_forwarded
        return 1.0 if total == 0 else 1.0 - missed / total

    def reset_window(self) -> None:
        """Start a fresh convergence measurement window."""
        self.window_total = 0
        self.window_forwarded = 0

    def stats(self) -> dict:
        """The client's routing counters as a plain dict."""
        return {
            "ops": self.ops_total,
            "forwarded": self.ops_forwarded,
            "iam_boundaries": self.iam_boundaries,
            "retries": self.retries_total,
            "convergence": round(self.convergence(), 4),
            "image_regions": len(self.image),
        }
