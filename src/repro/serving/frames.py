"""Length-prefixed frame reading shared by the server and the clients.

A frame on the stream is ``u32 length | frame body``, where the body is
what :func:`~repro.distributed.codec.pack_frame` produced (version,
kind, correlation id, payload) and ``length`` counts the body alone.
Reading is the only shared concern — writing is one write of the frame,
since :func:`~repro.distributed.codec.pack_frame` already emits the
length prefix. :func:`frame_length` is the length-cap check every
reader runs: the server's per-connection protocol, the async
:func:`read_frame` of :class:`~repro.serving.client.AsyncClient` and the
blocking :class:`~repro.serving.client.RemoteTransport` alike.
"""

from __future__ import annotations

import asyncio
import struct

from ..distributed.codec import unpack_frame
from ..distributed.errors import ProtocolError

__all__ = ["DEFAULT_MAX_FRAME", "frame_length", "read_frame"]

_U32 = struct.Struct(">I")

#: A frame larger than this is wire damage, not a workload: the biggest
#: legitimate payloads are batched ``put_many`` legs, far below 8 MiB.
DEFAULT_MAX_FRAME = 8 * 1024 * 1024


def frame_length(prefix, max_frame: int = DEFAULT_MAX_FRAME) -> int:
    """The body length announced by the u32 prefix ``prefix`` starts with.

    Raises :class:`~repro.distributed.errors.ProtocolError` when it
    exceeds ``max_frame``.
    """
    (length,) = _U32.unpack_from(prefix)
    if length > max_frame:
        raise ProtocolError(
            f"frame of {length} bytes exceeds the {max_frame}-byte cap"
        )
    return length


async def read_frame(
    reader: asyncio.StreamReader, max_frame: int = DEFAULT_MAX_FRAME
) -> tuple[int, int, bytes]:
    """Read one frame; returns ``(kind, corr_id, payload)``.

    Raises :class:`~asyncio.IncompleteReadError` on EOF mid-frame and
    :class:`~repro.distributed.errors.ProtocolError` on an oversized
    length prefix or an incompatible wire version.
    """
    length = frame_length(await reader.readexactly(4), max_frame)
    body = await reader.readexactly(length)
    return unpack_frame(body)
