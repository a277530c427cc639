"""The in-process implementation of the message fabric.

:class:`InProcessTransport` is the synchronous, same-process
implementation of the :class:`~repro.distributed.transport.Transport`
seam. What it adds over a function call is the *accounting* a
distributed design is judged by — messages per edge kind (client
request, reply, server-to-server forward, replication ship) and
per-shard-pair forward counts — surfaced both through a
:class:`~repro.obs.metrics.MetricsRegistry` and, when tracing is on,
as ``forward`` events on the :data:`~repro.obs.tracer.TRACER` bus.

Although no socket is involved, every delivery still crosses the wire
codec of :mod:`repro.distributed.codec`: the op is encoded and decoded
on its way in, the reply on its way out. That makes the in-process
fabric **byte-equivalent** to the real asyncio transport of
:mod:`repro.serving` — a message is a value, never a shared reference,
so a client mutating a ``get`` result (or a value it already sent)
cannot silently corrupt the shard's stored record, and anything that
is not wire-encodable fails identically in simulation and production.

Edge counts reflect messages **actually delivered**: a request is
counted once it reaches a live server, a reply only once the handler
returned one (a raising handler produced no reply, so none is counted),
and a forwarded op counts both the relayed reply from the owner back to
the forwarding server and the forwarding server's reply to the client.
:meth:`InProcessTransport.deliver` is that lookup → count → handle →
count sequence for one request; both :meth:`~InProcessTransport
.client_send` and the asyncio server's dispatcher
(:class:`~repro.serving.server.ServingServer`) run it.

This base transport is a perfect fabric — no losses, no delays, no
failures beyond an explicitly crashed server (which refuses connections
with :class:`~repro.distributed.errors.ServerDownError`). Faults come
from wrapping it in a :class:`~repro.distributed.faults.FaultyTransport`.
"""

from __future__ import annotations

from typing import Any, Optional

from ..obs.metrics import MetricsRegistry
from ..obs.tracer import TRACER
from .codec import roundtrip_op, roundtrip_reply
from .errors import ServerDownError, UnknownShardError
from .messages import Op, Reply

__all__ = ["InProcessTransport"]


class InProcessTransport:
    """Delivers operations to servers and counts every message."""

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.servers: dict[int, object] = {}
        self.messages = 0
        self.forwards = 0
        #: Audit trail: request id -> number of times it *applied*.
        #: Exactly-once holds iff every count is 1 (the chaos harness
        #: and the serving differential both assert this).
        self.apply_counts: dict[tuple[int, int], int] = {}
        #: Failure-detection hook: called with the fabric clock on every
        #: tick of a :class:`~repro.distributed.faults.FaultyTransport`
        #: wrapping this one (``Cluster`` wires it to ``Coordinator.tick``
        #: when replication is on). The perfect fabric has no clock, so
        #: it never fires it itself.
        self.on_tick = None

    def register(self, server: Any) -> None:
        """Attach a shard server under its id."""
        self.servers[server.shard_id] = server

    def rebind(self, dead: Any, promoted: Any) -> list[int]:
        """Repoint every id mapped to ``dead`` at ``promoted``.

        The routing half of failover: stale clients keep addressing the
        deposed primary's id, and the promoted server answers for it —
        its reply IAM then repoints their images at the new id. Every
        alias is remapped (a server that was itself promoted earlier may
        answer for several ids), and the dead object becomes
        unreachable, so no ``restart`` path can ever resurrect it.
        Returns the rebound ids.
        """
        rebound = [sid for sid, srv in self.servers.items() if srv is dead]
        for sid in rebound:
            self.servers[sid] = promoted
        return rebound

    def _count(self, edge: str) -> None:
        self.messages += 1
        self.registry.counter("dist_messages_total", {"edge": edge}).inc()

    def _lookup(self, shard_id: int, edge: str = "request"):
        """The live server for ``shard_id``; typed errors otherwise."""
        server = self.servers.get(shard_id)
        if server is None:
            raise UnknownShardError(f"no server has ever owned shard {shard_id}")
        if getattr(server, "down", False):
            raise ServerDownError(f"shard {shard_id} is down ({edge} refused)")
        return server

    def _count_leg(self, edge: str, source: int, target: int, op: Op) -> None:
        """Per-message accounting of a server-to-server leg.

        Runs once per leg that reaches its target — a duplicated
        delivery counts a second message on ``edge`` but not a second
        forward or ship.
        """
        if edge == "forward":
            self.forwards += 1
            name = "dist_forwards_total"
        else:
            name = "dist_replicate_total"
        self.registry.counter(name, {"src": source, "dst": target}).inc()
        if TRACER.enabled:
            TRACER.emit(edge, src=source, dst=target, op=op.kind)

    # ------------------------------------------------------------------
    # Fault-tolerance hooks (the clock never moves on the perfect fabric)
    # ------------------------------------------------------------------
    def sleep(self, seconds: float) -> None:
        """A client backing off between retries (advances no clock here)."""

    def note_apply(self, rid: Optional[tuple[int, int]]) -> None:
        """A mutating op with request id ``rid`` actually applied."""
        if rid is not None:
            self.apply_counts[rid] = self.apply_counts.get(rid, 0) + 1

    def duplicate_applies(self) -> int:
        """Request ids that applied more than once (must stay 0)."""
        return sum(1 for count in self.apply_counts.values() if count > 1)

    # ------------------------------------------------------------------
    def deliver(self, shard_id: int, op: Op) -> Reply:
        """One request reaching ``shard_id`` and the reply it produced.

        Lookup → count the request → handle → count the reply. ``op``
        must already be the server's own (decoded) copy; the reply is
        the handler's, not yet encoded.
        """
        server = self._lookup(shard_id, "request")
        self._count("request")
        reply = server.handle(op)
        self._count("reply")
        return reply

    def client_send(
        self, shard_id: int, op: Op, timeout: Optional[float] = None
    ) -> Reply:
        """A client request to ``shard_id`` plus its reply.

        ``timeout`` is the client's per-op deadline; the perfect fabric
        has no delays, so it can never be exceeded here.
        """
        # The wire boundary: the server sees a decoded copy of the op,
        # the client a decoded copy of the reply. No references cross.
        return roundtrip_reply(self.deliver(shard_id, roundtrip_op(op)))

    def forward(self, source: int, target: int, op: Op) -> Reply:
        """A server-to-server forward of a misaddressed operation."""
        server = self._lookup(target, "forward")
        self._count("forward")
        self._count_leg("forward", source, target, op)
        reply = server.handle(roundtrip_op(op))
        # The owner's reply relayed back to the forwarding server is a
        # delivered message too — and crosses the codec like one.
        self._count("reply")
        reply = roundtrip_reply(reply)
        reply.forwards += 1
        return reply

    def replicate(self, source: int, target: int, op: Op) -> Reply:
        """A primary-to-backup shipping leg (never forwarded)."""
        server = self._lookup(target, "replicate")
        self._count("replicate")
        self._count_leg("replicate", source, target, op)
        reply = server.handle(roundtrip_op(op))
        self._count("reply")
        return roundtrip_reply(reply)
