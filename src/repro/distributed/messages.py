"""The message vocabulary of the TH* shard layer.

Clients and servers exchange plain value objects — an :class:`Op` going
in, a :class:`Reply` coming back — through a
:class:`~repro.distributed.transport.Transport`. Every reply may carry Image
Adjustment Message entries (see :mod:`repro.core.image`): the
authoritative cut points around whatever the operation touched, which
the client grafts into its trie image. Errors travel as exception
*instances* (the same :class:`~repro.core.errors.DuplicateKeyError` /
:class:`~repro.core.errors.KeyNotFoundError` the single-node file
raises) so the distributed file is behaviorally indistinguishable from
a local :class:`~repro.core.file.THFile`.
"""

from __future__ import annotations

from typing import Optional

from ..core.image import IAMEntry

__all__ = [
    "GET",
    "CONTAINS",
    "INSERT",
    "PUT",
    "DELETE",
    "SCAN",
    "GET_MANY",
    "PUT_MANY",
    "REPLICATE",
    "RESYNC",
    "POINT_OPS",
    "MUTATING_OPS",
    "BATCH_OPS",
    "REPLICA_OPS",
    "Op",
    "Reply",
    "rid_str",
]

GET = "get"
CONTAINS = "contains"
INSERT = "insert"
PUT = "put"
DELETE = "delete"
SCAN = "scan"
GET_MANY = "get_many"
PUT_MANY = "put_many"
REPLICATE = "replicate"
RESYNC = "resync"

#: Single-key operations (everything but a scan leg).
POINT_OPS = frozenset({GET, CONTAINS, INSERT, PUT, DELETE})

#: Operations that modify a shard (and may trigger scale-out).
MUTATING_OPS = frozenset({INSERT, PUT, DELETE, PUT_MANY})

#: Multi-key operations. A batch leg carries its whole sub-batch in
#: ``value``; the receiving shard serves the keys it owns and returns
#: the rest in ``Reply.records`` for the client to re-batch (batches
#: are never forwarded — the leftovers plus IAM teach the client the
#: true owners in one round trip).
BATCH_OPS = frozenset({GET_MANY, PUT_MANY})

#: Primary-to-backup shipping legs (see
#: :mod:`repro.distributed.replication`). A ``REPLICATE`` op carries a
#: committed WAL batch (or a catch-up slice of one segment) in
#: ``value``; a ``RESYNC`` op carries a full snapshot — items, dedup
#: window and the primary's WAL position. Only backups accept them.
REPLICA_OPS = frozenset({REPLICATE, RESYNC})


class Op:
    """One client request.

    Point operations carry ``key`` (and ``value`` for insert/put). A
    scan leg carries the inclusive key bounds ``low``/``high`` (``None``
    = open) plus ``after``: the boundary the previous leg ended at, so
    the leg asks for the next authoritative region strictly above it.

    Mutating operations additionally carry ``rid``, the per-client
    monotonic request id ``(client_id, seq)`` that makes retries
    idempotent: the id is assigned once per *logical* operation, so
    every redelivery (client retry or a duplicated message) carries the
    same id and the owning server's dedup window can short-circuit it.

    ``ctx`` is the compact trace context ``(trace_id, span_id)`` of the
    sender's active span (see :class:`repro.obs.tracer.TraceContext`):
    the receiving hop opens its own span *under* that coordinate, which
    is what stitches client, router and shard spans into one causal
    tree. It is ``None`` whenever tracing is off and never affects
    execution — purely observational freight.
    """

    __slots__ = ("kind", "key", "value", "low", "high", "after", "rid", "ctx")

    def __init__(
        self,
        kind: str,
        key: Optional[str] = None,
        value: object = None,
        low: Optional[str] = None,
        high: Optional[str] = None,
        after: Optional[str] = None,
        rid: Optional[tuple[int, int]] = None,
        ctx: Optional[tuple[int, int]] = None,
    ):
        self.kind = kind
        self.key = key
        self.value = value
        self.low = low
        self.high = high
        self.after = after
        self.rid = rid
        self.ctx = ctx

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.kind == SCAN:
            return f"Op(scan, {self.low!r}..{self.high!r}, after={self.after!r})"
        return f"Op({self.kind}, {self.key!r})"

    # -- constructors --------------------------------------------------
    @classmethod
    def get(cls, key: str) -> Op:
        return cls(GET, key=key)

    @classmethod
    def contains(cls, key: str) -> Op:
        return cls(CONTAINS, key=key)

    @classmethod
    def insert(cls, key: str, value: object = None) -> Op:
        return cls(INSERT, key=key, value=value)

    @classmethod
    def put(cls, key: str, value: object = None) -> Op:
        return cls(PUT, key=key, value=value)

    @classmethod
    def delete(cls, key: str) -> Op:
        return cls(DELETE, key=key)

    @classmethod
    def scan(
        cls,
        low: Optional[str] = None,
        high: Optional[str] = None,
        after: Optional[str] = None,
    ) -> Op:
        return cls(SCAN, low=low, high=high, after=after)

    @classmethod
    def get_many(cls, keys: list[str]) -> Op:
        """A batched-read leg: ``keys`` (sorted) travel in ``value``."""
        return cls(GET_MANY, key=keys[0] if keys else None, value=keys)

    @classmethod
    def put_many(cls, items: list[tuple[str, object]]) -> Op:
        """A batched-upsert leg: the pairs (sorted by key) in ``value``."""
        return cls(PUT_MANY, key=items[0][0] if items else None, value=items)

    @classmethod
    def replicate(cls, payload: dict) -> Op:
        """A shipped WAL batch (``epoch``/``seq``/``recs`` payload)."""
        return cls(REPLICATE, value=payload)

    @classmethod
    def resync(cls, payload: dict) -> Op:
        """A full snapshot transfer (items + dedup window + LSN)."""
        return cls(RESYNC, value=payload)


class Reply:
    """One server response.

    ``error`` holds the exception the operation raised on the owning
    shard (re-raised client-side); ``forwards`` counts server-to-server
    hops the op needed (0 = the client's image addressed correctly);
    ``iam`` is the list of Image Adjustment entries to graft. Scan legs
    additionally fill ``records``, ``region_high`` (the boundary the
    served region ends at, the continuation point) and ``done``.
    ``dedup`` marks a reply served from the owner's dedup window — the
    operation had already applied on an earlier delivery and the stored
    result was replayed instead of re-executing. ``ctx`` is the trace
    context of the span that actually *executed* the operation (the
    owning shard after any forwards), mirroring ``Op.ctx`` on the way
    back so either end of the wire can name its causal peer.
    """

    __slots__ = (
        "value",
        "error",
        "iam",
        "forwards",
        "owner",
        "records",
        "region_high",
        "done",
        "dedup",
        "ctx",
    )

    def __init__(
        self,
        value: object = None,
        error: Optional[Exception] = None,
        iam: Optional[list[IAMEntry]] = None,
        forwards: int = 0,
        owner: int = -1,
        records: Optional[list[tuple[str, object]]] = None,
        region_high: Optional[str] = None,
        done: bool = True,
        dedup: bool = False,
        ctx: Optional[tuple[int, int]] = None,
    ):
        self.value = value
        self.error = error
        self.iam = iam if iam is not None else []
        self.forwards = forwards
        self.owner = owner
        self.records = records
        self.region_high = region_high
        self.done = done
        self.dedup = dedup
        self.ctx = ctx

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "err" if self.error is not None else "ok"
        return f"Reply({status}, owner={self.owner}, forwards={self.forwards})"


def rid_str(rid: Optional[tuple[int, int]]) -> Optional[str]:
    """A request id in its compact human form, ``"c<client>-<seq>"``.

    This is the spelling span fields, trace annotations and the
    ``trie-hashing trace report <rid>`` CLI all share, so a rid read off
    a causal tree pastes straight back into the report command.
    """
    if rid is None:
        return None
    return f"c{rid[0]}-{rid[1]}"
