"""Whole-file persistence: save and load a file of any durable engine.

The simulated disk lives in memory; this module gives it a durable form
so a built file (say, a compact back-up created by a sorted load — the
paper's motivating use case) can be written out and reopened later.

The image is a *sealed full checkpoint*: the checkpoint codec of
:mod:`repro.storage.recovery` frames a JSON header (the engine and its
parameters, as a MANIFEST holds them, plus ``records``, ``live`` and
``max_address``), the engine's index and every live bucket, each in its
own CRC-guarded section, and a CRC32 of the whole image follows (the
seal). Loading checks the seal, decodes the checkpoint and runs the same
step recovery runs after its chain walk
(:func:`~repro.storage.recovery.restore_file`), so every engine a
durable file wraps — a TH or THCL file on either trie backend, an MLTH
file, the B+-tree — has one image format and one validator. An index
that does not decode takes the engine's recovery fallback; any other
damage raises :class:`~repro.core.errors.StorageError`. Values must be
strings or ``None`` (see :mod:`repro.storage.serializer`).

No pickle is involved, so loading a file cannot execute anything.
"""

from __future__ import annotations

import struct
import zlib
from typing import Any, BinaryIO, Union

from ..core.errors import RecoveryError, StorageError
from .recovery import (
    RecoveryReport,
    decode_checkpoint,
    encode_checkpoint,
    engine_named,
    engine_of,
    restore_file,
)
from .serializer import serialize_bucket

__all__ = ["save_file", "load_file", "dump_bytes", "load_bytes"]

_WHAT = "trie-hashing file image"


def _seal(body: bytes) -> bytes:
    """Append the image checksum (CRC32 of everything before it)."""
    return body + struct.pack(">I", zlib.crc32(body) & 0xFFFFFFFF)


def _unseal(data: bytes) -> bytes:
    """Verify and strip the image checksum; raise a clean StorageError."""
    if len(data) < 4:
        raise StorageError(f"not a {_WHAT}: image too short")
    body, (stored,) = data[:-4], struct.unpack(">I", data[-4:])
    if zlib.crc32(body) & 0xFFFFFFFF != stored:
        raise StorageError(
            f"corrupt {_WHAT}: checksum mismatch (truncated or altered image)"
        )
    return body


def dump_bytes(file: Any) -> bytes:
    """Serialise the whole file (index + every bucket) to a sealed image."""
    adapter = engine_of(file)
    store = file.store if adapter.uses_buckets else None
    live = store.live_addresses() if store is not None else []
    header = {
        "engine": adapter.kind,
        "params": adapter.params_of(file),
        "records": len(file),
        "live": live,
        "max_address": store.max_address() if store is not None else 0,
    }
    buckets = [(address, serialize_bucket(store.peek(address))) for address in live]
    return _seal(encode_checkpoint(header, adapter.index_bytes(file), buckets))


def load_bytes(data: bytes) -> Any:
    """Rebuild the file :func:`dump_bytes` wrote; damage raises StorageError."""
    body = _unseal(data)
    try:
        header, index, buckets = decode_checkpoint(body, "the image")
        adapter = engine_named(header.get("engine"))
        return restore_file(
            adapter, header.get("params"), header, index, buckets, RecoveryReport()
        )
    except RecoveryError as exc:
        raise StorageError(f"corrupt {_WHAT}: {exc}") from None


def save_file(file: Any, target: Union[str, BinaryIO]) -> None:
    """Write the file image to a path or binary stream."""
    data = dump_bytes(file)
    if isinstance(target, str):
        with open(target, "wb") as handle:
            handle.write(data)
    else:
        target.write(data)


def load_file(source: Union[str, BinaryIO]) -> Any:
    """Read a file image from a path or binary stream."""
    if isinstance(source, str):
        with open(source, "rb") as handle:
            return load_bytes(handle.read())
    return load_bytes(source.read())
