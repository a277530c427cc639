"""The asyncio serving tier: a real server in front of the shard layer.

:class:`ServingServer` listens on a TCP port or a Unix-domain socket
and speaks the length-prefixed frame protocol of
:mod:`repro.distributed.codec`. Behind it sits an ordinary
:class:`~repro.distributed.coordinator.Cluster` — the same shard
servers, coordinator and exactly-once machinery the in-process fabric
drives — so everything proven over the simulated transport holds over
a real wire.

Architecture — one callback path:

* **A protocol per connection.** Each connection is an
  :class:`asyncio.Protocol`; ``data_received`` splits the whole frames
  off its own buffer (:func:`~repro.serving.frames.frame_length` is the
  length check) into the server's pending batch, and hangs up on a
  stream that can no longer be framed (a foreign wire version, an empty
  or an oversized frame).
* **One batch callback.** The first frame of a loop iteration schedules
  one ``call_soon`` that runs every frame pending by then, so a batch
  reads each connection at most once. The loop runs one callback at a
  time, which is what makes the shard layer's single-writer assumptions
  hold without locks.
* **Group fsync.** A batch's first mutation opens one
  :class:`~repro.storage.recovery.group_commit`, which the batch holds
  for the rest of its frames; a durable file joins it on its first WAL
  append, so the fsync barrier is paid once per batch per written
  file. Replies are withheld until the group closes: a client never
  sees an ack for an op whose WAL record could still be lost.
* **Controls are barriers.** A control (crash, restart, stats, ...)
  closes the open group and releases its replies before it runs. The
  ``stall`` test hook pauses batch processing; the frames that arrive
  meanwhile join the next batch.
* **Replies are never awaited.** A reply leaves through
  ``transport.write``. A batch runs a connection's frames only until
  their replies pass its transport's low-water mark; the rest wait on
  the connection, its reading paused, and a later batch draws them
  from there in place. So one pipelining client cannot make a batch
  long for the others, and a held frame is handed to one more batch
  only. Once its unsent replies pass the high-water mark, a connection
  runs and reads nothing until they drain: a client that never reads
  holds back only itself, with at most one read of requests and the
  two water marks plus one reply of replies. There is no queue and no
  knob.

Op and reply values cross the codec at this boundary (the op is decoded
from the frame, the reply encoded into one), so no Python reference is
ever shared between a client and a shard — the aliasing class of bugs
is structurally gone, exactly as over the in-process fabric.
"""

from __future__ import annotations

import asyncio
import struct
import time
from collections import deque
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
    unpack_frame,
)
from ..distributed.errors import ProtocolError
from ..distributed.messages import MUTATING_OPS, Op
from ..storage.recovery import group_commit
from .frames import frame_length

__all__ = ["ServingServer"]

_U32 = struct.Struct(">I")

#: Remote clients get ids from this base so their request ids can never
#: collide with in-process clients minted by ``Cluster.client()``.
_CLIENT_ID_BASE = 1000


class _Conn(asyncio.Protocol):
    """One accepted connection: frames its bytes into the server's batch."""

    __slots__ = ("server", "transport", "buffer", "held", "blocked")

    def __init__(self, server: "ServingServer"):
        self.server = server
        self.transport: Optional[asyncio.Transport] = None
        self.buffer = bytearray()
        #: Frames a batch left for a later one to draw in place; its
        #: reading is paused.
        self.held: deque = deque()
        #: Its unsent replies are past the high-water mark.
        self.blocked = False

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.server._conns.add(self)

    def connection_lost(self, exc) -> None:
        self.server._conns.discard(self)
        self.held.clear()

    def data_received(self, data: bytes) -> None:
        buffer = self.buffer
        buffer += data
        start = 0
        try:
            while len(buffer) - start >= 4:
                end = start + 4 + frame_length(buffer[start:start + 4])
                if len(buffer) < end:
                    break
                frame = unpack_frame(bytes(buffer[start + 4:end]))
                start = end
                self.server._accept(self, frame)
        except ProtocolError:
            # A foreign version, an empty or an oversized frame: the
            # stream can no longer be framed, so hang up.
            self.transport.close()
        del buffer[:start]

    def pause_writing(self) -> None:
        # The client is not reading its replies: stop reading its
        # requests until they drain, so it holds back only itself.
        self.blocked = True
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.blocked = False
        self.server._release(self)


def _room(room: dict, conn: _Conn) -> int:
    """The reply bytes ``conn`` may still take in this batch.

    A batch runs a connection's frames until their replies pass its
    transport's low-water mark, and none while its unsent replies are
    past the high.
    """
    left = room.get(conn)
    if left is None:
        limits = conn.transport.get_write_buffer_limits()
        left = room[conn] = -1 if conn.blocked else limits[0]
    return left


def _frames(batch: list, room: dict):
    """``(index, frame)`` for each frame of ``batch``, in order.

    A connection in the batch gives its held frames in place while it
    has room; the rest stay on it for a later batch, so a held frame is
    handed to one more batch only.
    """
    for index, item in enumerate(batch):
        if item.__class__ is _Conn:
            held = item.held
            while held and _room(room, item) >= 0:
                yield index, held.popleft()
        else:
            yield index, item


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
    health_interval:
        Wall-clock failure-detection period. When positive, a loop
        timer calls ``coordinator.tick(monotonic())`` at this rate, so
        a replicated deployment promotes backups on real time even with
        no simulated clock in sight. ``0`` disables it (the chaos
        harness drives ticks through the control plane instead, keeping
        detection deterministic).
    """

    def __init__(self, cluster, health_interval: float = 0.0):
        self.cluster = cluster
        self.router = cluster.router
        self.health_interval = health_interval
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._health: Optional[asyncio.TimerHandle] = None
        self._conns: set = set()
        #: What the next batch runs, in order: frames received, as
        #: ``(conn, kind, corr_id, payload)``, and connections whose held
        #: frames it draws.
        self._pending: list = []
        #: The scheduled batch callback, or the timer ending a ``stall``;
        #: while it is set, arriving frames just join the pending batch.
        self._wakeup: Optional[asyncio.Handle] = None
        self._next_client = _CLIENT_ID_BASE
        #: Batch counters (exposed by the ``stats`` control).
        self.batches = 0
        self.grouped_batches = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start_unix(self, path: str) -> str:
        """Listen on a Unix-domain socket at ``path``."""
        loop = asyncio.get_running_loop()
        self._server = await loop.create_unix_server(lambda: _Conn(self), path=path)
        self._started(loop)
        return path

    async def start_tcp(self, host: str = "127.0.0.1", port: int = 0) -> tuple:
        """Listen on TCP; returns the bound ``(host, port)``."""
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(lambda: _Conn(self), host, port)
        self._started(loop)
        return self._server.sockets[0].getsockname()[:2]

    def _started(self, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop
        if self.health_interval > 0:
            self._health = loop.call_later(self.health_interval, self._health_tick)

    def _health_tick(self) -> None:
        # Runs between batches on the same loop, so a promotion can
        # never interleave with an open commit group.
        self.cluster.coordinator.tick(time.monotonic())
        self._health = self._loop.call_later(self.health_interval, self._health_tick)

    async def stop(self) -> None:
        """Stop accepting and drop every connection, with the frames and
        replies it had not run or sent."""
        if self._server is not None:
            self._server.close()
        for timer in (self._health, self._wakeup):
            if timer is not None:
                timer.cancel()
        self._health = self._wakeup = None
        self._pending = []
        for conn in list(self._conns):
            conn.transport.abort()
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None

    async def shutdown(self, drain_timeout: float = 10.0) -> int:
        """Graceful stop: refuse new connections, drain, fsync, close.

        The listener closes first; frames on live connections keep
        flowing until none is pending or held and every reply has left
        (or ``drain_timeout`` wall-seconds pass: a client that never
        stops writing, or never reads, must not hold shutdown hostage).
        Then every live durable shard takes a final WAL commit, so a
        record appended outside a closed group is fsynced too, and only
        then do connections drop. Returns the batches run while draining.
        """
        if self._server is not None:
            self._server.close()
        drained_from = self.batches
        deadline = time.monotonic() + drain_timeout
        while time.monotonic() < deadline and (
            self._pending
            or any(c.held or c.transport.get_write_buffer_size() for c in self._conns)
        ):
            await asyncio.sleep(0.005)
        for server in self.cluster.coordinator.servers.values():
            wal = getattr(server.file, "wal", None)
            # A never-written shard has no segment yet.
            if wal is not None and not server.down and wal.store.exists(wal.name):
                wal.commit()
        drained = self.batches - drained_from
        await self.stop()
        return drained

    # ------------------------------------------------------------------
    # Batches
    # ------------------------------------------------------------------
    def _accept(self, conn: _Conn, frame: tuple) -> None:
        """Add one frame to the pending batch; the first schedules it."""
        if self._wakeup is None:
            self._wakeup = self._loop.call_soon(self._run_batch)
        self._pending.append((conn, *frame))

    def _release(self, conn: _Conn) -> None:
        """Let the next batch draw ``conn``'s held frames, or read it again."""
        if not conn.held:
            conn.transport.resume_reading()
            return
        if self._wakeup is None:
            self._wakeup = self._loop.call_soon(self._run_batch)
        self._pending.append(conn)

    def _run_batch(self) -> None:
        self._wakeup = None
        batch, self._pending = self._pending, []
        if not batch:
            return  # a stall ended with nothing waiting
        try:
            self._process(batch)
        except Exception:  # repro-lint: disable=TH002 -- a failed batch (its group fsync raised) would leave its clients waiting silently for replies that never come; dropping the connections surfaces it as MessageLostError instead
            for conn in list(self._conns):
                conn.transport.close()

    def _process(self, batch: list) -> None:
        self.batches += 1
        replies: list[tuple[_Conn, bytes]] = []
        #: Reply bytes each connection may still take in this batch.
        room: dict = {}
        group: Optional[group_commit] = None
        try:
            for index, item in _frames(batch, room):
                conn, kind, corr_id, payload = item
                left = _room(room, conn)
                if left < 0:
                    # Its later frames wait for a later batch.
                    conn.held.append(item)
                    continue
                if kind == FRAME_CONTROL:
                    # Controls are barriers: fsync the open group and
                    # release its acks before the control runs.
                    group = self._close_group(group)
                    self._send(replies)
                    replies = []
                    reply = self._control(corr_id, payload)
                    self._send([(conn, reply)])
                    room[conn] = left - len(reply)
                    if self._wakeup is not None:
                        # A stall: the rest of the batch waits for it,
                        # each frame behind those its connection holds.
                        for rest in batch[index + 1:]:
                            if rest.__class__ is _Conn or not rest[0].held:
                                self._pending.append(rest)
                            else:
                                rest[0].held.append(rest)
                        break
                    continue
                try:
                    if kind != FRAME_REQUEST:
                        raise ProtocolError(f"unexpected frame kind {kind}")
                    shard_id, op = self._decode_request(payload)
                except ProtocolError as exc:
                    body = b"\x01" + encode_value(exc)
                    reply = pack_frame(FRAME_RESPONSE, corr_id, body)
                else:
                    if op.kind in MUTATING_OPS and group is None:
                        group = self._open_group()
                    reply = self._execute(shard_id, op, corr_id)
                replies.append((conn, reply))
                room[conn] = left - len(reply)
        finally:
            # The fsync barrier: replies must not leave before it.
            group = self._close_group(group)
        self._send(replies)
        for conn in room:
            if conn.held:
                conn.transport.pause_reading()
            if not conn.blocked:
                self._release(conn)

    @staticmethod
    def _send(replies: list) -> None:
        for conn, frame in replies:
            if not conn.transport.is_closing():
                conn.transport.write(frame)

    # ------------------------------------------------------------------
    # Request execution
    # ------------------------------------------------------------------
    @staticmethod
    def _decode_request(payload: bytes) -> tuple[int, Op]:
        if len(payload) < 4:
            raise ProtocolError("request payload is missing its shard id")
        (shard_id,) = _U32.unpack_from(payload)
        # The kind decodes from the op head as a string, so the batch
        # can branch on it outside any handler's error boundary.
        return shard_id, decode_op(payload[4:])

    def _execute(self, shard_id: int, op: Op, corr_id: int) -> bytes:
        """Run one op; the response frame (Reply or raised outcome)."""
        try:
            body = b"\x00" + encode_reply(self.router.deliver(shard_id, op))
        except Exception as exc:  # repro-lint: disable=TH002 -- the wire boundary: every failure must become a typed error frame, not a failed batch
            body = b"\x01" + encode_value(exc)
        return pack_frame(FRAME_RESPONSE, corr_id, body)

    def _open_group(self) -> group_commit:
        """Open the batch's fsync group; each file it writes joins it."""
        self.grouped_batches += 1
        return group_commit().__enter__()

    @staticmethod
    def _close_group(group: Optional[group_commit]) -> None:
        if group is not None:
            group.close()
        return None

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------
    def _control(self, corr_id: int, payload: bytes) -> bytes:
        """Run one control frame; its reply frame."""
        try:
            command = decode_value(payload)
            if not isinstance(command, dict):
                raise ProtocolError("control payload must be a dict")
            body = b"\x00" + encode_value(self._run_control(command))
        except Exception as exc:  # repro-lint: disable=TH002 -- same wire boundary as _execute: a bad control must answer, not fail the batch
            body = b"\x01" + encode_value(exc)
        return pack_frame(FRAME_CONTROL_REPLY, corr_id, body)

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
            # Test hook: pause batch processing, so deadlines and
            # batching can be exercised over a real wire; the rest of
            # this batch and what arrives meanwhile run when it ends.
            self._wakeup = self._loop.call_later(
                float(command["seconds"]), self._run_batch
            )
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
