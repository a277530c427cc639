"""The asyncio serving tier: a real server in front of the shard layer.

:class:`ServingServer` listens on a TCP port or a Unix-domain socket
and speaks the length-prefixed frame protocol of
:mod:`repro.distributed.codec`. Behind it sits an ordinary
:class:`~repro.distributed.coordinator.Cluster` — the same shard
servers, coordinator and exactly-once machinery the in-process fabric
drives — so everything proven over the simulated transport holds over
a real wire.

Architecture, and why it is shaped this way:

* **One reader task per connection** parses frames and feeds a single
  **bounded queue** (``max_queue``). The bound is the backpressure
  valve: when the dispatcher falls behind, ``queue.put`` blocks the
  reader coroutine, TCP/UDS flow control pushes back on the client,
  and memory stays bounded instead of buffering an unbounded burst.
* **One dispatcher task** drains the queue in micro-batches (up to
  ``batch_max`` frames). Single-threaded dispatch is what makes the
  shard layer's single-writer assumptions hold without locks — the
  asyncio loop serialises all op execution exactly like the in-process
  fabric does.
* **Group fsync.** If a micro-batch contains any mutation, the
  dispatcher opens :meth:`~repro.storage.recovery.DurableFile
  .group_commit` on every live durable shard for the duration of the
  batch: each op still appends its WAL record immediately, but the
  fsync barrier is paid **once per batch per touched file**, not once
  per op. Replies are withheld until the group closes, preserving the
  ack protocol — a client never sees an ack for an op whose WAL record
  could still be lost.
* **Controls are barriers.** Control commands (crash, restart, stats,
  ...) close the open group and flush pending replies before running,
  so a crash injected over the wire can never interleave with a
  half-committed batch.

Op and reply values cross the codec at this boundary (the op is decoded
from the frame, the reply encoded into one), so no Python reference is
ever shared between a client and a shard — the aliasing class of bugs
is structurally gone, exactly as over the in-process fabric.
"""

from __future__ import annotations

import asyncio
import struct
import time
from contextlib import ExitStack
from typing import Optional

from ..distributed.codec import (
    FRAME_CONTROL,
    FRAME_CONTROL_REPLY,
    FRAME_REQUEST,
    FRAME_RESPONSE,
    decode_op,
    decode_value,
    encode_reply,
    encode_value,
    pack_frame,
)
from ..distributed.errors import ProtocolError
from ..distributed.messages import MUTATING_OPS, Op
from .frames import DEFAULT_MAX_FRAME, read_frame

__all__ = ["ServingServer"]

_U32 = struct.Struct(">I")

#: Remote clients get ids from this base so their request ids can never
#: collide with in-process clients minted by ``Cluster.client()``.
_CLIENT_ID_BASE = 1000


class _Conn:
    """One accepted connection (its reader feeds the shared queue)."""

    __slots__ = ("reader", "writer", "alive")

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer
        self.alive = True


class ServingServer:
    """Serve a :class:`~repro.distributed.coordinator.Cluster` over asyncio.

    Parameters
    ----------
    cluster:
        The cluster to front. Its router should be the plain
        :class:`~repro.distributed.router.InProcessTransport` — fault
        injection belongs on the *client* side of a real wire (a
        :class:`~repro.distributed.faults.FaultyTransport` around the
        client's transport), where drops and delays are visible to the
        retry loop under test.
    max_queue:
        Bound of the shared op queue — the backpressure valve.
    batch_max:
        Most frames one dispatcher micro-batch will drain (and so the
        most WAL appends one group fsync can amortise).
    """

    def __init__(
        self,
        cluster,
        max_queue: int = 256,
        batch_max: int = 64,
        max_frame: int = DEFAULT_MAX_FRAME,
        health_interval: float = 0.0,
    ):
        self.cluster = cluster
        self.router = cluster.router
        self.max_queue = max_queue
        self.batch_max = batch_max
        self.max_frame = max_frame
        #: Wall-clock failure-detection period. When positive, a health
        #: task polls ``coordinator.tick(monotonic())`` at this rate, so
        #: a replicated deployment promotes backups on real time even
        #: with no simulated clock in sight. ``0`` disables the task
        #: (the chaos harness drives ticks through the control plane
        #: instead, keeping detection deterministic).
        self.health_interval = health_interval
        self._server: Optional[asyncio.AbstractServer] = None
        self._queue: Optional[asyncio.Queue] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._health: Optional[asyncio.Task] = None
        self._conns: set = set()
        self._next_client = _CLIENT_ID_BASE
        self._stall = 0.0
        self._busy = False
        self._draining = False
        #: Dispatcher-side counters (exposed by the ``stats`` control).
        self.batches = 0
        self.grouped_batches = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start_unix(self, path: str) -> str:
        """Listen on a Unix-domain socket at ``path``."""
        self._start_dispatcher()
        self._server = await asyncio.start_unix_server(self._on_conn, path=path)
        return path

    async def start_tcp(self, host: str = "127.0.0.1", port: int = 0) -> tuple:
        """Listen on TCP; returns the bound ``(host, port)``."""
        self._start_dispatcher()
        self._server = await asyncio.start_server(self._on_conn, host, port)
        return self._server.sockets[0].getsockname()[:2]

    def _start_dispatcher(self) -> None:
        # The queue binds to the running loop, so it is created here
        # rather than in __init__ (which may run on another thread).
        self._queue = asyncio.Queue(self.max_queue)
        self._dispatcher = asyncio.ensure_future(self._dispatch_loop())
        if self.health_interval > 0:
            self._health = asyncio.ensure_future(self._health_loop())

    async def _health_loop(self) -> None:
        """Drive the failure detector off wall time (see ``health_interval``)."""
        while True:
            await asyncio.sleep(self.health_interval)
            # Runs between dispatcher batches on the same loop, so a
            # promotion can never interleave with an open commit group.
            self.cluster.coordinator.tick(time.monotonic())

    async def stop(self) -> None:
        """Stop accepting, cancel the dispatcher, drop all connections."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in (self._dispatcher, self._health):
            if task is not None:
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass
        self._dispatcher = None
        self._health = None
        for conn in list(self._conns):
            self._drop(conn)

    async def shutdown(self, drain_timeout: float = 10.0) -> int:
        """Graceful stop: refuse new connections, drain, fsync, close.

        The sequence the ack protocol demands: first the listener
        closes (no new connections; ops already queued or still
        arriving on live connections keep flowing), then the dispatcher
        drains until the queue is empty and no batch is mid-flight (or
        ``drain_timeout`` wall-seconds pass — a client that never stops
        writing must not hold shutdown hostage forever), then every
        live durable shard takes a final WAL commit so any record
        appended outside a closed group is fsynced, and only then do
        connections drop. No acked write can be lost: every ack was
        preceded by its group fsync, and the final commit is a
        belt-and-braces barrier for anything later. Returns the number
        of batches dispatched during the drain.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        drained_from = self.batches
        deadline = time.monotonic() + drain_timeout
        while self._queue is not None and (
            not self._queue.empty() or self._busy
        ):
            if time.monotonic() >= deadline:
                break
            await asyncio.sleep(0.005)
        for server in self.cluster.coordinator.servers.values():
            wal = getattr(server.file, "wal", None)
            if (
                wal is not None
                and not server.down
                and wal.store.exists(wal.name)  # never-written shard: no segment yet
            ):
                wal.commit()
        drained = self.batches - drained_from
        await self.stop()
        return drained

    def _drop(self, conn: _Conn) -> None:
        conn.alive = False
        self._conns.discard(conn)
        try:
            conn.writer.close()
        except Exception:  # repro-lint: disable=TH002 -- teardown of a possibly half-dead socket must never raise
            pass

    # ------------------------------------------------------------------
    # Per-connection reader
    # ------------------------------------------------------------------
    async def _on_conn(self, reader, writer) -> None:
        conn = _Conn(reader, writer)
        self._conns.add(conn)
        try:
            while True:
                kind, corr_id, payload = await read_frame(
                    reader, self.max_frame
                )
                # The bounded put is the backpressure point: a slow
                # dispatcher blocks this reader, and the kernel socket
                # buffer then pushes back on the client.
                await self._queue.put((conn, kind, corr_id, payload))
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            pass  # client went away — normal teardown
        except ProtocolError:
            # Unknown version / oversized frame: the stream can no
            # longer be framed, so the only safe move is to hang up.
            pass
        finally:
            self._drop(conn)

    # ------------------------------------------------------------------
    # Dispatcher
    # ------------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        while True:
            item = await self._queue.get()
            # _busy spans from dequeue to reply flush: the graceful
            # drain uses it to tell "queue empty" from "batch still in
            # flight" (set without an await in between, so it can never
            # miss the item just taken).
            self._busy = True
            batch = [item]
            while len(batch) < self.batch_max:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            try:
                await self._process(batch)
            except asyncio.CancelledError:
                raise
            except Exception:  # repro-lint: disable=TH002 -- a dispatcher death would hang every pending client silently; dropping the connections surfaces it as MessageLostError instead
                for conn in list(self._conns):
                    self._drop(conn)
            finally:
                self._busy = False

    async def _process(self, batch: list) -> None:
        self.batches += 1
        pending: list[tuple[_Conn, bytes]] = []
        stack: Optional[ExitStack] = None
        try:
            for conn, kind, corr_id, payload in batch:
                if kind == FRAME_CONTROL:
                    # Controls are barriers: fsync the open group and
                    # release its acks before the control runs.
                    stack = self._close_group(stack)
                    await self._flush(pending)
                    pending = []
                    await self._handle_control(conn, corr_id, payload)
                    continue
                if kind != FRAME_REQUEST:
                    pending.append(self._raised(
                        conn, corr_id,
                        ProtocolError(f"unexpected frame kind {kind}"),
                    ))
                    continue
                if self._stall:
                    # Test hook: park the dispatcher mid-stream so that
                    # deadline and batching behaviour can be exercised
                    # deterministically over a real wire.
                    delay, self._stall = self._stall, 0.0
                    stack = self._close_group(stack)
                    await self._flush(pending)
                    pending = []
                    await asyncio.sleep(delay)
                try:
                    shard_id, op = self._decode_request(payload)
                except ProtocolError as exc:
                    pending.append(self._raised(conn, corr_id, exc))
                    continue
                if op.kind in MUTATING_OPS and stack is None:
                    stack = self._open_group()
                pending.append((conn, self._execute(shard_id, op, corr_id)))
        finally:
            # The fsync barrier: replies must not leave before it.
            stack = self._close_group(stack)
        await self._flush(pending)

    # ------------------------------------------------------------------
    # Request execution
    # ------------------------------------------------------------------
    @staticmethod
    def _decode_request(payload: bytes) -> tuple[int, Op]:
        if len(payload) < 4:
            raise ProtocolError("request payload is missing its shard id")
        (shard_id,) = _U32.unpack_from(payload)
        op = decode_op(payload[4:])
        if not isinstance(op.kind, str):
            # The dispatcher branches on the kind outside any handler's
            # error boundary, so a hostile one must fail typed here.
            raise ProtocolError("op kind is not a string")
        return shard_id, op

    @staticmethod
    def _raised(conn: _Conn, corr_id: int, exc: BaseException):
        return conn, pack_frame(
            FRAME_RESPONSE, corr_id, b"\x01" + encode_value(exc)
        )

    def _execute(self, shard_id: int, op: Op, corr_id: int) -> bytes:
        """Run one op; the response frame (Reply or raised outcome)."""
        try:
            body = b"\x00" + encode_reply(self.router.deliver(shard_id, op))
        except Exception as exc:  # repro-lint: disable=TH002 -- the wire boundary: every failure must become a typed error frame, not a dead dispatcher
            body = b"\x01" + encode_value(exc)
        return pack_frame(FRAME_RESPONSE, corr_id, body)

    def _open_group(self) -> ExitStack:
        """Enter ``group_commit`` on every live durable shard file."""
        self.grouped_batches += 1
        stack = ExitStack()
        for server in self.cluster.coordinator.servers.values():
            group = getattr(server.file, "group_commit", None)
            if group is not None and not server.down:
                stack.enter_context(group())
        return stack

    @staticmethod
    def _close_group(stack: Optional[ExitStack]) -> None:
        if stack is not None:
            stack.close()
        return None

    # ------------------------------------------------------------------
    # Replies
    # ------------------------------------------------------------------
    async def _flush(self, pending: list) -> None:
        for conn, frame in pending:
            if not conn.alive:
                continue
            try:
                conn.writer.write(frame)
                await conn.writer.drain()
            except (ConnectionError, OSError):
                self._drop(conn)

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------
    async def _handle_control(self, conn, corr_id, payload) -> None:
        try:
            command = decode_value(payload)
            if not isinstance(command, dict):
                raise ProtocolError("control payload must be a dict")
            result = self._run_control(command)
            body = b"\x00" + encode_value(result)
        except Exception as exc:  # repro-lint: disable=TH002 -- same wire boundary as _execute: a bad control must answer, not kill dispatch
            body = b"\x01" + encode_value(exc)
        await self._flush([(conn, pack_frame(FRAME_CONTROL_REPLY, corr_id, body))])

    def _run_control(self, command: dict):
        cmd = command.get("cmd")
        coordinator = self.cluster.coordinator
        if cmd == "hello":
            self._next_client += 1
            return {
                "alphabet": self.cluster.alphabet.digits,
                "first_shard": min(coordinator.servers),
                "shards": len(coordinator.servers),
                "client_id": self._next_client,
            }
        if cmd == "crash":
            # Looked up through the router so failover aliases resolve:
            # after a promotion the dead id addresses the promoted
            # server, exactly as over the in-process fabric.
            server = self.router.servers.get(command["shard"])
            if server is None or server.down:
                return False
            server.crash()
            return True
        if cmd == "restart":
            server = self.router.servers.get(command["shard"])
            # A rebound id must never bounce the live promoted server
            # answering for it.
            if server is None or not server.down:
                return False
            server.restart()
            return True
        if cmd == "restore_all":
            restored = 0
            backups = getattr(coordinator, "replicas", {})
            for server in [
                *coordinator.servers.values(),
                *backups.values(),
            ]:
                if server.down:
                    server.restart()
                    restored += 1
            return restored
        if cmd == "tick":
            # The chaos client's simulated clock, handed to the failure
            # detector; the reply tells the client which dead ids a
            # promoted server now answers for.
            coordinator.tick(float(command.get("now", 0.0)))
            return {
                "promoted": sorted(coordinator.promoted_ids),
                "down": sorted(
                    sid
                    for sid, server in coordinator.servers.items()
                    if server.down
                ),
            }
        if cmd == "replica_of":
            return coordinator.replica_of(command["shard"])
        if cmd == "failover_log":
            return [dict(entry) for entry in coordinator.failover_log]
        if cmd == "migrate_start":
            coordinator.start_migration(
                command["shard"], chunk_size=int(command.get("chunk", 64))
            )
            return True
        if cmd == "migrate_step":
            return coordinator.step_migration(command["shard"])
        if cmd == "migrate_finish":
            return coordinator.finish_migration(command["shard"])
        if cmd == "replication":
            return {
                "replicas": sorted(
                    backup.shard_id
                    for backup in getattr(coordinator, "replicas", {}).values()
                ),
                "promoted": sorted(coordinator.promoted_ids),
                "failovers": len(coordinator.failover_log),
                "migrations_done": coordinator.migrations_done,
                "migrating": sorted(coordinator.migrations),
            }
        if cmd == "total_records":
            return coordinator.total_records()
        if cmd == "duplicate_applies":
            return self.router.duplicate_applies()
        if cmd == "stall":
            self._stall = float(command["seconds"])
            return True
        if cmd == "stats":
            return {
                "shards": len(coordinator.servers),
                "records": coordinator.total_records(),
                "messages": self.router.messages,
                "forwards": self.router.forwards,
                "batches": self.batches,
                "grouped_batches": self.grouped_batches,
                "duplicate_applies": self.router.duplicate_applies(),
            }
        raise ProtocolError(f"unknown control command {cmd!r}")
