"""The asyncio serving tier: real sockets in front of the shard layer.

:mod:`repro.serving` turns the in-process distributed fabric into a
network service without changing a line of the protocol logic above
it: :class:`ServingServer` fronts an ordinary
:class:`~repro.distributed.coordinator.Cluster` over TCP or a
Unix-domain socket, and :class:`RemoteTransport` is a synchronous
:class:`~repro.distributed.transport.Transport` facade, so the same
:class:`~repro.distributed.client.DistributedFile` — image routing,
IAM patching, retries, request-id dedup — runs unmodified over a real
wire. Wrapped in a :class:`~repro.distributed.faults.FaultyTransport`,
a :class:`RemoteTransport` replays
:class:`~repro.distributed.faults.FaultPlan` schedules over that wire
(:meth:`ServingFixture.open_file`), so the chaos differential holds
against live sockets too.

See ``docs/SERVING.md`` for the frame format and protocol contract.
"""

from .client import (
    AsyncClient,
    LoopRunner,
    RemoteCluster,
    RemoteSession,
    RemoteTransport,
    connect,
)
from .frames import DEFAULT_MAX_FRAME, read_frame
from .server import ServingServer
from .testing import ServingFixture

__all__ = [
    "AsyncClient",
    "LoopRunner",
    "RemoteCluster",
    "RemoteSession",
    "RemoteTransport",
    "connect",
    "DEFAULT_MAX_FRAME",
    "read_frame",
    "ServingServer",
    "ServingFixture",
]
