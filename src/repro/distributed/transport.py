"""The transport seam between clients and the shard layer.

A :class:`Transport` is whatever delivers an :class:`~repro.distributed
.messages.Op` to a shard and brings its :class:`~repro.distributed
.messages.Reply` back. :class:`~repro.distributed.client
.DistributedFile` is written against exactly this surface — it never
assumes the shards live in its process — so the same client code runs
over:

* :class:`~repro.distributed.router.InProcessTransport` — synchronous
  and in-process: a perfect fabric with no clock;
* :class:`~repro.serving.client.RemoteTransport` — a real TCP/UDS
  socket, driven blocking on the caller's thread, speaking the
  length-prefixed frame protocol of :mod:`repro.distributed.codec`, on
  wall-clock time;
* :class:`~repro.distributed.faults.FaultyTransport` — a decorator
  around either of the two that replays a seeded
  :class:`~repro.distributed.faults.FaultPlan` on a simulated clock.

Every implementation must preserve two semantic contracts:

* **Values, not references.** Whatever crosses ``client_send`` is
  codec-encoded at the boundary; mutating a value after sending it (or
  mutating a reply's value) must never reach the other side.
* **Transient failures are typed.** Delivery problems surface as
  :class:`~repro.distributed.errors.RetryableError` subclasses — lost
  message, per-op deadline exceeded, server down — which the client's
  retry loop absorbs. Anything else propagates as a protocol bug.
"""

from __future__ import annotations

from typing import Optional, Protocol, runtime_checkable

from .messages import Op, Reply

__all__ = ["Transport"]


@runtime_checkable
class Transport(Protocol):
    """What a client needs from the fabric, and nothing more."""

    #: The transport's clock, in seconds. Simulated fabrics advance it
    #: through injected delays and backoff sleeps; real transports
    #: report monotonic wall time. Clients only ever *subtract* two
    #: readings (latency histograms), never interpret the origin.
    now: float

    def client_send(
        self, shard_id: int, op: Op, timeout: Optional[float] = None
    ) -> Reply:
        """Deliver ``op`` to ``shard_id`` and return its reply.

        ``timeout`` is the per-op deadline in the transport's own
        seconds; a delivery that exceeds it raises
        :class:`~repro.distributed.errors.OpTimeoutError` whether or
        not the server executed the operation (the ambiguity request-id
        dedup exists to absorb).
        """
        ...  # pragma: no cover - protocol signature

    def sleep(self, seconds: float) -> None:
        """Block the client for ``seconds`` (retry backoff)."""
        ...  # pragma: no cover - protocol signature

    def note_apply(self, rid: Optional[tuple[int, int]]) -> None:
        """Audit hook: a mutation with ``rid`` actually applied."""
        ...  # pragma: no cover - protocol signature
