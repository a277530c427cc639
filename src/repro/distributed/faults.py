"""Fault injection for the TH* message fabric.

The distributed analogue of :class:`~repro.storage.faults.FaultyDisk`:
:class:`FaultyTransport` wraps a
:class:`~repro.distributed.transport.Transport` and runs every delivery
through one seeded deterministic :class:`FaultPlan`, which injects, per
edge kind (``request`` / ``reply`` / ``forward`` / ``replicate``) and
per shard:

* **drops** — the message never arrives; the sender sees
  :class:`~repro.distributed.errors.MessageLostError`. A dropped
  *reply* is the interesting case: the server **did** execute the op,
  so a naïve retry would double-apply — the fault that forces the
  request-id dedup protocol.
* **duplicates** — the message is delivered twice; the second delivery
  must be absorbed by the owner's dedup window (or, for a shipping leg,
  the backup's sequence numbers).
* **delays** — delivery takes simulated time on the wrapper's clock; a
  round trip whose total elapsed time (request, forward and reply
  delays alike) exceeds the client's per-op ``timeout`` surfaces as
  :class:`~repro.distributed.errors.OpTimeoutError` (with the same
  already-executed ambiguity as a lost reply). The client's
  ``RetryPolicy.timeout`` is enforced, not merely carried.
* **crashes** — the target server crashes (losing its volatile state;
  a durable shard recovers from WAL + checkpoints on restart) and
  refuses connections with
  :class:`~repro.distributed.errors.ServerDownError` until its
  scheduled restart time on the simulated clock.

One delivery skeleton, :meth:`FaultyTransport._deliver`, serves every
edge on both fabrics, drawing the plan's decisions in the same order,
so one seed replays the same schedule in simulation and over a socket:

* around an :class:`~repro.distributed.router.InProcessTransport`
  (``Cluster(faults=plan)``) every edge can fault. The shard servers
  send their ``forward`` and ``replicate`` legs through the wrapper
  too, so a slow forward leg counts against the client's deadline.
  Crashes act on the server objects directly.
* around a :class:`~repro.serving.client.RemoteTransport`
  (``ServingFixture.open_file(plan=...)``) only the client edge —
  ``request`` and ``reply`` — can fault. Forwards and shipping legs run
  inside the serving process on its plain in-process fabric, out of a
  client-side wrapper's reach. Crashes and restarts ride the ``crash``
  / ``restart`` / ``restore_all`` / ``tick`` control commands.

Time is simulated on both: the clock only advances through injected
delays and through clients sleeping out their retry backoff
(:meth:`FaultyTransport.sleep`) — never through a socket's real
latency — and that is also what brings crashed servers back: a client
backing off long enough rides out any finite downtime.

Every injected fault is counted in ``dist_faults_total{kind,edge}`` and
(tracing on) emitted as a ``net_fault`` event, so a chaos run can be
reconciled fault by fault.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from typing import Any, Optional

from ..obs.tracer import TRACER
from .codec import roundtrip_op, roundtrip_reply
from .errors import (
    ConfigurationError,
    MessageLostError,
    OpTimeoutError,
    ServerDownError,
    UnknownShardError,
)
from .messages import Op, Reply
from .router import InProcessTransport

__all__ = ["FaultPlan", "FaultDecision", "FaultyTransport", "RetryPolicy"]

#: The edge kinds a plan can schedule faults on.
EDGES = ("request", "reply", "forward", "replicate")


class FaultDecision:
    """What the plan decided for one delivery."""

    __slots__ = ("drop", "duplicate", "delay")

    def __init__(self, drop: bool = False, duplicate: bool = False, delay: float = 0.0):
        self.drop = drop
        self.duplicate = duplicate
        self.delay = delay


class RetryPolicy:
    """Client-side resilience knobs: deadline, budget, backoff shape.

    ``backoff(attempt, rng)`` is capped exponential
    (``base_delay * 2**(attempt-1)``, at most ``max_delay``) with
    multiplicative jitter: the full delay scaled by a uniform draw from
    ``[1 - jitter, 1]``, so retries de-synchronise without ever backing
    off *longer* than the cap.
    """

    __slots__ = ("max_retries", "base_delay", "max_delay", "timeout", "jitter")

    def __init__(
        self,
        max_retries: int = 10,
        base_delay: float = 0.005,
        max_delay: float = 0.5,
        timeout: float = 0.25,
        jitter: float = 0.5,
    ):
        if max_retries < 0:
            raise ConfigurationError("max_retries must be non-negative")
        if base_delay <= 0 or max_delay < base_delay:
            raise ConfigurationError("need 0 < base_delay <= max_delay")
        if not 0.0 <= jitter < 1.0:
            raise ConfigurationError("jitter must be in [0, 1)")
        self.max_retries = max_retries
        self.base_delay = base_delay
        self.max_delay = max_delay
        self.timeout = timeout
        self.jitter = jitter

    def backoff(self, attempt: int, rng: random.Random) -> float:
        """The sleep before retry number ``attempt`` (1-based)."""
        delay = min(self.max_delay, self.base_delay * (2 ** (attempt - 1)))
        return delay * (1.0 - self.jitter * rng.random())


class FaultPlan:
    """A seeded deterministic fault schedule.

    ``drop`` / ``duplicate`` / ``delay`` / ``crash`` are global
    per-delivery probabilities; ``edges`` and ``shards`` optionally
    override any rate for one edge kind or one shard id (shard override
    wins over edge override wins over global). All decisions come from
    one private :class:`random.Random`, so the same plan against the
    same workload injects the same faults.

    Scripted one-shot faults (for targeted tests) are queued with
    :meth:`force` and consumed before any random draw. :meth:`heal`
    stops all injection — decisions become "no fault" without consuming
    randomness — which is how a chaos run lets the cluster converge.
    """

    def __init__(
        self,
        seed: int = 0,
        drop: float = 0.0,
        duplicate: float = 0.0,
        delay: float = 0.0,
        delay_seconds: tuple[float, float] = (0.001, 0.05),
        crash: float = 0.0,
        downtime: tuple[float, float] = (0.05, 0.25),
        edges: Optional[dict[str, dict[str, float]]] = None,
        shards: Optional[dict[int, dict[str, float]]] = None,
    ):
        for name, rate in (("drop", drop), ("duplicate", duplicate),
                           ("delay", delay), ("crash", crash)):
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(f"{name} rate must be in [0, 1]")
        if edges is not None and set(edges) - set(EDGES):
            raise ConfigurationError(f"edge overrides must be among {EDGES}")
        self.rng = random.Random(seed)
        self.rates = {"drop": drop, "duplicate": duplicate,
                      "delay": delay, "crash": crash}
        self.delay_seconds = delay_seconds
        self.downtime = downtime
        self.edges = edges if edges is not None else {}
        self.shards = shards if shards is not None else {}
        self.active = True
        self._forced: dict[str, list[str]] = {}

    # ------------------------------------------------------------------
    def rate(self, kind: str, edge: str, shard: int) -> float:
        """The effective rate for fault ``kind`` on ``edge`` to ``shard``."""
        by_shard = self.shards.get(shard)
        if by_shard is not None and kind in by_shard:
            return by_shard[kind]
        by_edge = self.edges.get(edge)
        if by_edge is not None and kind in by_edge:
            return by_edge[kind]
        return self.rates[kind]

    def force(self, edge: str, kind: str, count: int = 1) -> None:
        """Queue ``count`` scripted faults on ``edge`` (consumed first).

        ``kind`` is ``"drop"``, ``"duplicate"`` or ``"delay"``.
        """
        if edge not in EDGES:
            raise ConfigurationError(f"edge must be one of {EDGES}")
        if kind not in ("drop", "duplicate", "delay"):
            raise ConfigurationError("forced kind must be drop, duplicate or delay")
        self._forced.setdefault(edge, []).extend([kind] * count)

    def heal(self) -> None:
        """Stop injecting: every later decision is 'no fault'."""
        self.active = False
        self._forced.clear()

    def resume(self) -> None:
        """Resume injection after :meth:`heal`."""
        self.active = True

    # ------------------------------------------------------------------
    def decide(self, edge: str, shard: int) -> FaultDecision:
        """The (deterministic) fate of one delivery on ``edge``."""
        if not self.active:
            return FaultDecision()
        queue = self._forced.get(edge)
        if queue:
            kind = queue.pop(0)
            if kind == "drop":
                return FaultDecision(drop=True)
            if kind == "duplicate":
                return FaultDecision(duplicate=True)
            return FaultDecision(delay=self.delay_seconds[1])
        decision = FaultDecision()
        if self.rng.random() < self.rate("drop", edge, shard):
            decision.drop = True
            return decision  # a dropped message can be nothing else
        if self.rng.random() < self.rate("duplicate", edge, shard):
            decision.duplicate = True
        if self.rng.random() < self.rate("delay", edge, shard):
            lo, hi = self.delay_seconds
            decision.delay = lo + (hi - lo) * self.rng.random()
        return decision

    def decide_crash(self, shard: int) -> Optional[float]:
        """Crash ``shard`` now? Returns a downtime, or ``None``."""
        if not self.active:
            return None
        if self.rng.random() < self.rate("crash", "request", shard):
            lo, hi = self.downtime
            return lo + (hi - lo) * self.rng.random()
        return None


class FaultyTransport:
    """A :class:`~repro.distributed.transport.Transport` decorator whose
    deliveries run under a :class:`FaultPlan`.

    ``inner`` is an
    :class:`~repro.distributed.router.InProcessTransport` or a
    :class:`~repro.serving.client.RemoteTransport`. Whatever the plan
    does not touch — the server map, message and forward counts, the
    apply audit, control commands — is read through to it.
    """

    def __init__(self, inner: Any, plan: Optional[FaultPlan] = None):
        self.inner = inner
        self.plan = plan if plan is not None else FaultPlan()
        #: The simulated clock (seconds); advances only through injected
        #: delays and client backoff sleeps.
        self.now = 0.0
        self.faults_injected = 0
        self._restart_at: dict[int, float] = {}
        self._servers: Any = (
            _LocalServers(inner)
            if isinstance(inner, InProcessTransport)
            else _RemoteServers(inner, self._fault)
        )

    def __getattr__(self, name: str) -> Any:
        return getattr(self.inner, name)

    # ------------------------------------------------------------------
    # Clock and lifecycle
    # ------------------------------------------------------------------
    def sleep(self, seconds: float) -> None:
        """Advance the simulated clock (client retry backoff)."""
        self.now += seconds
        self._tick()

    def _tick(self) -> None:
        """Restart due servers, then run the failure-detection hook."""
        due = [s for s, at in self._restart_at.items() if at <= self.now]
        for shard_id in due:
            del self._restart_at[shard_id]
            self._servers.restart(shard_id)
        self._servers.tick(self.now)

    def crash_server(
        self, shard_id: int, downtime: Optional[float] = None
    ) -> bool:
        """Crash ``shard_id``; auto-restart after ``downtime`` sim-seconds.

        With ``downtime=None`` the server stays down until someone
        restarts it. Returns False, changing nothing, when the shard is
        already down.
        """
        if not self._servers.crash(shard_id):
            return False
        if downtime is not None:
            self._restart_at[shard_id] = self.now + downtime
        return True

    def restore_all(self) -> None:
        """Restart every crashed server immediately (end of a chaos run)."""
        self._restart_at.clear()
        self._servers.restore_all()

    # ------------------------------------------------------------------
    # Delivery under faults
    # ------------------------------------------------------------------
    def _fault(self, kind: str, edge: str, shard: int) -> None:
        self.faults_injected += 1
        self.inner.registry.counter(
            "dist_faults_total", {"kind": kind, "edge": edge}
        ).inc()
        if TRACER.enabled:
            TRACER.emit("net_fault", kind=kind, edge=edge, shard=shard)

    def _reach(self, edge: str, shard_id: int) -> Any:
        """The delivery target; a down shard refuses before any dice roll."""
        try:
            return self._servers.reach(edge, shard_id)
        except ServerDownError:
            self._fault("server_down", edge, shard_id)
            raise

    def _deliver(
        self,
        edge: str,
        target: int,
        send: Callable[[bool], Reply],
        timeout: Optional[float] = None,
    ) -> Reply:
        """Run one message on ``edge`` through the plan.

        Drop, delay, deliver, duplicate — then, on the client edge, the
        reply's fate and the per-op deadline. ``send(again)`` delivers
        one copy and returns the handler's reply; ``again`` marks the
        duplicate, which repeats the delivery but not the per-message
        bookkeeping.
        """
        plan = self.plan
        decision = plan.decide(edge, target)
        if decision.drop:
            self._fault("drop", edge, target)
            raise MessageLostError(f"{edge} to shard {target} lost")
        # The per-op deadline is measured on the clock across the whole
        # delivery: request delay, any forward-leg delays the handler
        # incurs (they advance ``self.now`` inside the send), and the
        # reply delay all count against ``timeout``.
        sent_at = self.now
        if decision.delay:
            self._fault("delay", edge, target)
            self.now += decision.delay
        reply = send(False)
        if decision.duplicate:
            self._fault("duplicate", edge, target)
            reply = send(True)
        if edge != "request":
            return reply
        back = plan.decide("reply", target)
        if back.drop:
            # The op executed; the client just never hears about it.
            self._fault("drop", "reply", target)
            raise MessageLostError(f"reply from shard {target} lost")
        if back.delay:
            self._fault("delay", "reply", target)
            self.now += back.delay
        elapsed = self.now - sent_at
        if timeout is not None and elapsed > timeout:
            # The reply exists but arrived after the client gave up.
            self._fault("timeout", "reply", target)
            raise OpTimeoutError(
                f"shard {target} answered in {elapsed:.4f}s > {timeout:.4f}s"
            )
        return reply

    def client_send(
        self, shard_id: int, op: Op, timeout: Optional[float] = None
    ) -> Reply:
        self._tick()
        downtime = self.plan.decide_crash(shard_id)
        if downtime is not None and self.crash_server(shard_id, downtime):
            # Counted only when a server went down: a crash drawn for a
            # shard that is already down changes nothing.
            self._fault("crash", "request", shard_id)
        servers = self._servers
        target = self._reach("request", shard_id)
        reply = self._deliver(
            "request", shard_id, lambda again: servers.send(target, op), timeout
        )
        return servers.accept(reply)

    def forward(self, source: int, target: int, op: Op) -> Reply:
        self._tick()
        reply = self._leg("forward", source, target, op)
        reply.forwards += 1
        return reply

    def replicate(self, source: int, target: int, op: Op) -> Reply:
        """A shipping leg under faults (no tick: runs mid-delivery).

        A dropped ship surfaces as :class:`MessageLostError` for the
        primary's retry/repair ladder; a duplicated ship delivers the
        op twice and the backup's sequence numbers absorb the replay —
        the replication-protocol mirror of the client-edge dedup
        guarantee.
        """
        return self._leg("replicate", source, target, op)

    def _leg(self, edge: str, source: int, target: int, op: Op) -> Reply:
        """A server-to-server leg (only in-process servers send these)."""
        fabric = self.inner
        servers = self._servers
        reached = self._reach(edge, target)

        def send(again: bool) -> Reply:
            if not again:
                fabric._count_leg(edge, source, target, op)
            return servers.send(reached, op, edge)

        return servers.accept(self._deliver(edge, target, send))


class _LocalServers:
    """Shard servers in this process: crashed and reached directly.

    A reached target is the pair ``(server, shard_id)``: the server
    that answers for the id (a promoted backup, after a failover) and
    the id the sender addressed.
    """

    def __init__(self, fabric: InProcessTransport):
        self.fabric = fabric

    def reach(self, edge: str, shard_id: int) -> tuple[Any, int]:
        return self.fabric._lookup(shard_id, edge), shard_id

    def send(self, target: tuple[Any, int], op: Op, edge: str = "request") -> Reply:
        # Each copy is a fresh decode, exactly what a network duplicate
        # hands the server; a client request records what it addressed.
        server, shard_id = target
        if edge == "request":
            return self.fabric.hand(server, shard_id, roundtrip_op(op))
        self.fabric._count(edge)
        return server.handle(roundtrip_op(op))

    def accept(self, reply: Reply) -> Reply:
        self.fabric._count("reply")
        return roundtrip_reply(reply)

    def crash(self, shard_id: int) -> bool:
        server: Any = self.fabric.servers.get(shard_id)
        if server is None:
            raise UnknownShardError(f"no server for shard {shard_id}")
        if server.down:
            return False
        server.crash()
        return True

    def restart(self, shard_id: int) -> None:
        # The id may have been rebound to a promoted server in the
        # meantime; restart() leaves a live server alone, so the dead
        # one's leftover schedule cannot bounce it.
        server: Any = self.fabric.servers.get(shard_id)
        if server is not None:
            server.restart()

    def restore_all(self) -> None:
        for server in self.fabric.servers.values():
            server.restart()

    def tick(self, now: float) -> None:
        if self.fabric.on_tick is not None:
            self.fabric.on_tick(now)


class _RemoteServers:
    """Shard servers behind a serving socket: reached by frames,
    crashed and restarted by control commands.

    Which shards are down is the client's own record of the crashes it
    issued, so a known-down shard refuses before any dice are rolled —
    the same point at which the in-process lookup refuses.
    """

    def __init__(self, remote: Any, fault: Callable[[str, str, int], None]):
        self.remote = remote
        self.fault = fault
        self.down: set[int] = set()

    def reach(self, edge: str, shard_id: int) -> int:
        if shard_id in self.down:
            raise ServerDownError(f"shard {shard_id} is down ({edge} refused)")
        return shard_id

    def send(self, shard_id: int, op: Op, edge: str = "request") -> Reply:
        try:
            # No deadline but the transport's wall backstop: the per-op
            # deadline is enforced on the simulated clock.
            reply = self.remote.request(shard_id, op)
        except ServerDownError:
            # Refused server-side (it went down under an op queued
            # ahead of ours): the same fault as a client-side refusal.
            self.fault("server_down", edge, shard_id)
            raise
        self.remote.messages += 1
        return reply

    def accept(self, reply: Reply) -> Reply:
        self.remote.messages += 1
        return reply

    def crash(self, shard_id: int) -> bool:
        if shard_id in self.down:
            return False
        if not self.remote.control({"cmd": "crash", "shard": shard_id}):
            return False
        self.down.add(shard_id)
        return True

    def restart(self, shard_id: int) -> None:
        self.remote.control({"cmd": "restart", "shard": shard_id})
        self.down.discard(shard_id)

    def restore_all(self) -> None:
        self.down.clear()
        self.remote.control({"cmd": "restore_all"})

    def tick(self, now: float) -> None:
        if not self.down:
            return
        # Something is down: run the server-side failure detector on
        # our clock (a no-op unless the cluster replicates). Ids that a
        # promoted backup now answers for are no longer down to us.
        status = self.remote.control({"cmd": "tick", "now": now})
        self.down.difference_update(status["promoted"])
