"""One-call serving stacks for tests, benchmarks and the chaos harness.

:class:`ServingFixture` owns everything a test would otherwise plumb by
hand: a temp directory with a Unix-domain socket, a
:class:`~repro.serving.client.LoopRunner` thread running the
:class:`~repro.serving.server.ServingServer`, the blocking client
sockets of its sessions and files, and a loop thread per pipelined
:class:`~repro.serving.client.AsyncClient` connection. Closing the
fixture tears all of it down in reverse order, so a failing test never
leaks sockets or threads.

Clients never share the server's event loop: replies must traverse a
real kernel socket buffer between the server's scheduler and the
client, the same shape as a deployment — a shared loop would let
asyncio hand frames over in-process and hide exactly the transport
bugs this tier exists to surface.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from typing import Any, Optional

from ..core.alphabet import Alphabet
from ..distributed.client import DistributedFile
from ..distributed.faults import FaultPlan, FaultyTransport, RetryPolicy
from ..obs.metrics import MetricsRegistry
from .client import (
    DEFAULT_WALL_TIMEOUT,
    AsyncClient,
    LoopRunner,
    RemoteCluster,
    RemoteSession,
    RemoteTransport,
    open_socket,
)
from .server import ServingServer

__all__ = ["ServingFixture"]


class ServingFixture:
    """A live UDS serving stack around ``cluster``, torn down on close.

    >>> cluster = Cluster(shards=4)
    >>> with ServingFixture(cluster) as fx:
    ...     with fx.open_session() as session:
    ...         session.file.insert("key", "value")

    The cluster is the caller's: build it durable or not, with whatever
    shard policy the test needs. The fixture only serves it.
    """

    def __init__(self, cluster):
        self.cluster = cluster
        self.tmp = tempfile.mkdtemp(prefix="th-serving-")
        self.path = os.path.join(self.tmp, "th.sock")
        self.runner = LoopRunner()
        self.server = ServingServer(cluster)
        try:
            self.runner.call(
                self.server.start_unix(self.path), DEFAULT_WALL_TIMEOUT
            )
        except BaseException:  # repro-lint: disable=TH002 -- re-raised: a failed start must not leak the loop thread or the temp dir
            self.runner.stop()
            shutil.rmtree(self.tmp, ignore_errors=True)
            raise
        self._conns: list[tuple[LoopRunner, AsyncClient]] = []
        self._transports: list[RemoteTransport] = []

    # ------------------------------------------------------------------
    # Client construction
    # ------------------------------------------------------------------
    def open_conn(self) -> tuple[LoopRunner, AsyncClient]:
        """A raw pipelined connection on its own loop thread."""
        runner = LoopRunner()
        try:
            conn = runner.call(
                AsyncClient.open_unix(self.path), DEFAULT_WALL_TIMEOUT
            )
        except BaseException:  # repro-lint: disable=TH002 -- re-raised: only reclaims the just-started loop thread
            runner.stop()
            raise
        self._conns.append((runner, conn))
        return runner, conn

    def open_session(
        self,
        retry: Optional[RetryPolicy] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> RemoteSession:
        """A full :class:`RemoteSession` (own socket, transport and file)."""
        session = RemoteSession(
            path=self.path, retry=retry, registry=registry
        )
        self._transports.append(session.transport)
        return session

    def open_file(
        self,
        plan: Optional[FaultPlan] = None,
        retry: Optional[RetryPolicy] = None,
        registry: Optional[MetricsRegistry] = None,
        wall_timeout: float = DEFAULT_WALL_TIMEOUT,
    ) -> tuple:
        """A ``(DistributedFile, transport)`` pair over this server.

        The transport is a plain :class:`RemoteTransport`; with a
        ``plan`` it is wrapped in a
        :class:`~repro.distributed.faults.FaultyTransport`, which is how
        the chaos harness runs its schedules over a real socket. Passing
        the server-side cluster's registry makes client and server
        counters land in one place, which is what the chaos report reads.
        """
        remote = RemoteTransport(
            open_socket(path=self.path),
            registry=registry,
            wall_timeout=wall_timeout,
        )
        self._transports.append(remote)
        transport: Any = (
            remote if plan is None else FaultyTransport(remote, plan)
        )
        hello = transport.control({"cmd": "hello"})
        cluster = RemoteCluster(
            transport, Alphabet(hello["alphabet"]), hello["first_shard"]
        )
        file = DistributedFile(
            cluster, client_id=hello["client_id"], retry=retry
        )
        return file, transport

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def close(self) -> None:
        for transport in self._transports:
            transport.close()
        self._transports = []
        for runner, conn in self._conns:
            try:
                runner.call(conn.close(), DEFAULT_WALL_TIMEOUT)
            except Exception:  # repro-lint: disable=TH002 -- teardown must reach every layer: a dead connection must not keep its loop thread alive
                pass
            runner.stop()
        self._conns = []
        try:
            self.runner.call(self.server.stop(), DEFAULT_WALL_TIMEOUT)
        finally:
            self.runner.stop()
            shutil.rmtree(self.tmp, ignore_errors=True)

    def __enter__(self) -> "ServingFixture":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
