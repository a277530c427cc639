"""Clients for the asyncio serving tier.

Two clients speak the same frames and codec:

* :class:`RemoteTransport` + :class:`RemoteCluster` — the synchronous
  :class:`~repro.distributed.transport.Transport` facade. It owns one
  blocking socket and drives it on the caller's thread: an op writes
  its request frame and reads frames until its own correlation id
  comes back, so no op crosses threads. It quacks exactly enough like
  a :class:`~repro.distributed.coordinator.Cluster` that an unmodified
  :class:`~repro.distributed.client.DistributedFile` — image routing,
  IAM patching, retry loop, rid minting and all — runs over a real
  socket. :func:`connect` bundles the stack into one context-managed
  session.
* :class:`AsyncClient` — one connection for asyncio callers. Requests
  are **pipelined**: each send is stamped with a correlation id and
  awaited on a future; a single reader task matches response frames
  back to their futures, so any number of requests can be in flight at
  once. :class:`LoopRunner` gives synchronous code a dedicated
  event-loop thread to drive it (and the server) with blocking calls.

Either way a per-op deadline surfaces as
:class:`~repro.distributed.errors.OpTimeoutError` — the retryable
ambiguity (the server may or may not have executed the op) that
request-id dedup exists to absorb.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import socket
import struct
import threading
import time
from contextlib import ExitStack
from typing import Any, Optional

from ..core.alphabet import Alphabet
from ..distributed.client import DistributedFile
from ..distributed.codec import (
    FRAME_CONTROL,
    FRAME_CONTROL_REPLY,
    FRAME_REQUEST,
    FRAME_RESPONSE,
    decode_reply,
    decode_value,
    encode_op,
    encode_value,
    pack_frame,
    unpack_frame,
)
from ..distributed.errors import (
    MessageLostError,
    OpTimeoutError,
    ProtocolError,
)
from ..distributed.faults import RetryPolicy
from ..distributed.messages import Op, Reply
from ..obs.metrics import MetricsRegistry
from .frames import DEFAULT_MAX_FRAME, frame_length, read_frame

__all__ = [
    "AsyncClient",
    "LoopRunner",
    "RemoteTransport",
    "RemoteCluster",
    "RemoteSession",
    "connect",
    "open_socket",
]

_U32 = struct.Struct(">I")

#: Wall-clock backstop for any single roundtrip a sync facade makes.
#: Orders of magnitude above any sane op; it exists so a hung server
#: cannot hang the calling thread forever, not as a tuning knob.
DEFAULT_WALL_TIMEOUT = 30.0

#: Most bytes one ``recv`` asks for; a reply is usually one read.
_RECV_SIZE = 64 * 1024


def _request_payload(shard_id: int, op: Op) -> bytes:
    return _U32.pack(shard_id) + encode_op(op)


def _reply_of(kind: int, body: bytes) -> Reply:
    """The :class:`Reply` a response frame carries, or raise its error.

    The error is the decoded typed exception the server's handler
    raised rather than answering (down shard, unknown shard, wire
    damage).
    """
    if kind != FRAME_RESPONSE or not body:
        raise ProtocolError(f"unexpected response frame kind {kind}")
    if body[0] == 0:
        return decode_reply(body[1:])
    raised = decode_value(body[1:])
    if not isinstance(raised, BaseException):
        raise ProtocolError("raised outcome did not decode to an error")
    raise raised


def _control_result(kind: int, body: bytes) -> Any:
    """The value a control reply frame carries, or raise its error."""
    if kind != FRAME_CONTROL_REPLY or not body:
        raise ProtocolError(f"unexpected control frame kind {kind}")
    result = decode_value(body[1:])
    if body[0] == 0:
        return result
    if not isinstance(result, BaseException):
        raise ProtocolError("control error did not decode to an error")
    raise result


class AsyncClient:
    """One pipelined connection to a :class:`~repro.serving.server.ServingServer`."""

    def __init__(self, reader, writer, max_frame: int = DEFAULT_MAX_FRAME):
        self._reader = reader
        self._writer = writer
        self._max_frame = max_frame
        self._pending: dict[int, asyncio.Future] = {}
        self._next_corr = 0
        self._closed = False
        self._reader_task = asyncio.ensure_future(self._read_loop())

    # ------------------------------------------------------------------
    @classmethod
    async def open_unix(cls, path: str, **kwargs) -> "AsyncClient":
        reader, writer = await asyncio.open_unix_connection(path)
        return cls(reader, writer, **kwargs)

    async def close(self) -> None:
        self._closed = True
        self._reader_task.cancel()
        try:
            await self._reader_task
        except asyncio.CancelledError:
            pass
        self._fail_pending(MessageLostError("connection closed"))
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    # ------------------------------------------------------------------
    async def _read_loop(self) -> None:
        try:
            while True:
                kind, corr_id, payload = await read_frame(
                    self._reader, self._max_frame
                )
                future = self._pending.pop(corr_id, None)
                # A missing future is a reply that outlived its
                # deadline — the op timed out client-side and the late
                # answer is dropped on the floor, like a real network.
                if future is not None and not future.done():
                    future.set_result((kind, payload))
        except asyncio.CancelledError:
            raise
        except (asyncio.IncompleteReadError, ConnectionError, OSError) as exc:
            self._fail_pending(MessageLostError(f"connection lost: {exc}"))
        except ProtocolError as exc:
            self._fail_pending(exc)

    def _fail_pending(self, exc: BaseException) -> None:
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(exc)

    async def _roundtrip(
        self, kind: int, payload: bytes, timeout: Optional[float]
    ) -> tuple[int, bytes]:
        if self._closed:
            raise MessageLostError("client is closed")
        corr_id = self._next_corr
        self._next_corr += 1
        future = asyncio.get_running_loop().create_future()
        self._pending[corr_id] = future
        try:
            try:
                self._writer.write(pack_frame(kind, corr_id, payload))
                await self._writer.drain()
            except (ConnectionError, OSError) as exc:
                raise MessageLostError(f"send failed: {exc}") from None
            if timeout is None:
                return await future
            try:
                return await asyncio.wait_for(future, timeout)
            except asyncio.TimeoutError:
                raise OpTimeoutError(
                    f"no reply within the {timeout:.4f}s deadline"
                ) from None
        finally:
            self._pending.pop(corr_id, None)

    # ------------------------------------------------------------------
    async def request(
        self, shard_id: int, op: Op, timeout: Optional[float] = None
    ) -> Reply:
        """Send one op to ``shard_id``; its decoded :class:`Reply`.

        Raises the decoded typed exception if the server's handler
        raised rather than answering (down shard, unknown shard, wire
        damage); raises :class:`OpTimeoutError` past the deadline.
        """
        return _reply_of(*await self._roundtrip(
            FRAME_REQUEST, _request_payload(shard_id, op), timeout
        ))

    async def control(
        self, command: dict, timeout: Optional[float] = DEFAULT_WALL_TIMEOUT
    ) -> Any:
        """Run one control command; its decoded result value."""
        return _control_result(*await self._roundtrip(
            FRAME_CONTROL, encode_value(command), timeout
        ))


class LoopRunner:
    """A dedicated asyncio loop on a daemon thread, driven synchronously."""

    def __init__(self):
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run, name="th-serving-loop", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.run_forever()

    def call(self, coro: Any, timeout: Optional[float] = None) -> Any:
        """Run ``coro`` on the loop thread; block for its result."""
        future = asyncio.run_coroutine_threadsafe(coro, self.loop)
        try:
            return future.result(timeout)
        except concurrent.futures.TimeoutError:
            future.cancel()
            raise OpTimeoutError(
                f"loop call exceeded the {timeout}s wall backstop"
            ) from None

    def stop(self) -> None:
        if self.loop.is_closed():
            return
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout=5)
        self.loop.close()


def open_socket(
    path: Optional[str] = None,
    host: Optional[str] = None,
    port: Optional[int] = None,
) -> socket.socket:
    """A connected socket to a serving endpoint: UDS (``path``) or TCP.

    TCP sockets get ``TCP_NODELAY`` (asyncio sets it on its own TCP
    transports): a request is one small write, and Nagle plus delayed
    ACK would hold it back.
    """
    if (path is None) == (host is None):
        raise ValueError("connect with either path= or host=/port=")
    if host is not None:
        sock = socket.create_connection(
            (host, int(port)), timeout=DEFAULT_WALL_TIMEOUT
        )
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        sock.settimeout(DEFAULT_WALL_TIMEOUT)
        sock.connect(path)
    except OSError:
        sock.close()
        raise
    return sock


class RemoteTransport:
    """The synchronous :class:`Transport` facade over one blocking socket.

    Every call runs on the caller's thread and has at most one op in
    flight: it writes a request frame, then reads frames until its own
    correlation id comes back. ``now`` is real monotonic time and
    ``sleep`` really blocks: over a real wire, retry backoff and latency
    measurement are wall-clock facts, not simulation state.

    Deadlines: ``timeout`` bounds the wait for a reply on one monotonic
    deadline across every ``recv`` (``None``: ``wall_timeout``, the
    hung-server backstop); past it, :class:`OpTimeoutError`. The
    connection survives a timeout — bytes of a half-read frame stay
    buffered for the next read, and the late reply is read and dropped
    when it arrives. A send is bounded by ``wall_timeout``.

    Failures: EOF or a socket error raises :class:`MessageLostError`; an
    oversized length prefix or a foreign wire version raises
    :class:`ProtocolError`. Either way the socket is closed, and every
    later call raises :class:`MessageLostError` at once.
    """

    def __init__(
        self,
        sock: socket.socket,
        registry: Optional[MetricsRegistry] = None,
        wall_timeout: float = DEFAULT_WALL_TIMEOUT,
    ):
        #: The owned socket; ``None`` once the connection is closed.
        self.sock: Optional[socket.socket] = sock
        self.registry = registry if registry is not None else MetricsRegistry()
        self.wall_timeout = wall_timeout
        #: Roundtrips completed through this transport (request+reply).
        self.messages = 0
        self._inbox = bytearray()
        self._next_corr = 0

    @property
    def now(self) -> float:
        return time.perf_counter()

    def sleep(self, seconds: float) -> None:
        time.sleep(seconds)

    def note_apply(self, rid: object) -> None:
        """The apply audit lives server-side over a real wire."""

    def duplicate_applies(self) -> int:
        return self.control({"cmd": "duplicate_applies"})

    def control(self, command: dict) -> Any:
        """Run one control command; its decoded result value."""
        return _control_result(
            *self._roundtrip(FRAME_CONTROL, encode_value(command), None)
        )

    def request(
        self, shard_id: int, op: Op, timeout: Optional[float] = None
    ) -> Reply:
        """Send one op to ``shard_id``; its decoded :class:`Reply`.

        Raises the decoded typed exception if the server's handler
        raised rather than answering, and :class:`OpTimeoutError` past
        the deadline.
        """
        return _reply_of(*self._roundtrip(
            FRAME_REQUEST, _request_payload(shard_id, op), timeout
        ))

    def client_send(
        self, shard_id: int, op: Op, timeout: Optional[float] = None
    ) -> Reply:
        reply = self.request(shard_id, op, timeout)
        self.messages += 2
        return reply

    def close(self) -> None:
        """Close the socket; every later call raises MessageLostError."""
        sock, self.sock = self.sock, None
        if sock is not None:
            sock.close()

    # ------------------------------------------------------------------
    def _roundtrip(
        self, kind: int, payload: bytes, timeout: Optional[float]
    ) -> tuple[int, bytes]:
        sock = self.sock
        if sock is None:
            raise MessageLostError("connection is closed")
        corr_id = self._next_corr
        self._next_corr += 1
        try:
            sock.settimeout(self.wall_timeout)
            sock.sendall(pack_frame(kind, corr_id, payload))
        except OSError as exc:
            # Possibly half a frame on the wire: the stream is lost.
            self.close()
            raise MessageLostError(f"send failed: {exc}") from None
        wait = self.wall_timeout if timeout is None else timeout
        deadline = time.monotonic() + wait
        while True:
            frame = self._take_frame()
            if frame is None:
                remaining = deadline - time.monotonic()
                chunk = self._recv(sock, remaining) if remaining > 0 else None
                if chunk is None:
                    raise OpTimeoutError(
                        f"no reply within the {wait:.4f}s deadline"
                    )
                self._inbox += chunk
            elif frame[1] == corr_id:
                return frame[0], frame[2]
            # Any other id answers an op that already timed out (one op
            # is in flight at a time): the late reply is dropped on the
            # floor, like a real network.

    def _take_frame(self) -> Optional[tuple[int, int, bytes]]:
        """The next whole frame in the inbox, or None if none is complete."""
        inbox = self._inbox
        if len(inbox) < 4:
            return None
        try:
            end = 4 + frame_length(inbox)
            if len(inbox) < end:
                return None
            frame = unpack_frame(bytes(inbox[4:end]))
        except ProtocolError:
            self.close()  # the stream can no longer be framed
            raise
        del inbox[:end]
        return frame

    def _recv(self, sock: socket.socket, timeout: float) -> Optional[bytes]:
        """The next bytes off the socket, or None once ``timeout`` passes."""
        try:
            sock.settimeout(timeout)
            chunk = sock.recv(_RECV_SIZE)
        except socket.timeout:
            return None
        except OSError as exc:
            self.close()
            raise MessageLostError(f"connection lost: {exc}") from None
        if not chunk:
            self.close()
            raise MessageLostError("connection closed by the server")
        return chunk


class _RemoteCoordinator:
    """The sliver of coordinator surface a remote client may touch.

    Everything here is metadata (never routed data): the cold-start
    shard and the authoritative record count behind ``len(file)``.
    """

    def __init__(self, transport: RemoteTransport, first_shard: int):
        self._transport = transport
        #: Only the keys are consulted (``min()`` for the cold image).
        self.servers = {first_shard: None}

    def total_records(self) -> int:
        return self._transport.control({"cmd": "total_records"})

    def replica_of(self, shard_id: int) -> Optional[int]:
        """The live read replica for ``shard_id`` (None when unreplicated).

        Asked per scan leg and never cached: a stale answer would route
        a scan at a promoted (now primary) or retired server.
        """
        return self._transport.control(
            {"cmd": "replica_of", "shard": shard_id}
        )


class RemoteCluster:
    """Quacks like a :class:`Cluster` for :class:`DistributedFile`."""

    def __init__(
        self, transport: RemoteTransport, alphabet: Alphabet, first_shard: int
    ):
        self.router = transport
        self.alphabet = alphabet
        self.registry = transport.registry
        self.coordinator = _RemoteCoordinator(transport, first_shard)


class RemoteSession:
    """One connected serving session: socket, transport, file facade.

    >>> with connect(path="/tmp/th.sock") as session:
    ...     session.file.insert("key", "value")

    The server's ``hello`` supplies the alphabet, the first shard id
    (the cold image's single region) and a server-minted client id, so
    request ids stay unique across every client of the deployment.

    A session belongs to the thread that uses it, as a
    :class:`DistributedFile` does: its transport drives one socket on
    the caller's thread, one op at a time, with no lock and no thread
    of its own. Give each client thread its own session.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        host: Optional[str] = None,
        port: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.transport = RemoteTransport(
            open_socket(path=path, host=host, port=port), registry
        )
        with ExitStack() as on_failure:
            # A hello that fails must not leak the socket.
            on_failure.callback(self.transport.close)
            hello = self.transport.control({"cmd": "hello"})
            on_failure.pop_all()
        self.cluster = RemoteCluster(
            self.transport,
            Alphabet(hello["alphabet"]),
            hello["first_shard"],
        )
        self.file = DistributedFile(
            self.cluster, client_id=hello["client_id"], retry=retry
        )

    def close(self) -> None:
        self.transport.close()

    def __enter__(self) -> "RemoteSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def connect(
    path: Optional[str] = None,
    host: Optional[str] = None,
    port: Optional[int] = None,
    retry: Optional[RetryPolicy] = None,
    registry: Optional[MetricsRegistry] = None,
) -> RemoteSession:
    """Open a :class:`RemoteSession` over UDS (``path``) or TCP."""
    return RemoteSession(
        path=path, host=host, port=port, retry=retry, registry=registry
    )
