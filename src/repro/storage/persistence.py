"""Whole-file persistence: save and load a THFile.

The simulated disk lives in memory; this module gives it a durable form
so a built file (say, a compact back-up created by a sorted load — the
paper's motivating use case) can be written out and reopened later. The
format is a small JSON header (capacity, policy, record count) followed
by the binary trie (six bytes per cell) and length-prefixed binary
buckets; values must be strings or ``None`` (see
:mod:`repro.storage.serializer`).

No pickle is involved, so loading a file cannot execute anything.
"""

from __future__ import annotations

import dataclasses
import io
import json
import struct
import zlib
from contextlib import contextmanager
from typing import TYPE_CHECKING, BinaryIO, Union

if TYPE_CHECKING:  # runtime cycle: core.mlth pulls in storage
    from ..core.mlth import MLTHFile

from ..core.errors import StorageError
from ..core.file import THFile
from ..core.policies import SplitPolicy
from .buckets import Bucket, BucketStore
from .serializer import (
    deserialize_bucket,
    deserialize_trie,
    serialize_bucket,
    serialize_trie,
)

__all__ = [
    "save_file",
    "load_file",
    "dump_bytes",
    "load_bytes",
    "dump_mlth_bytes",
    "load_mlth_bytes",
]

_MAGIC = b"THCL1\n"
_MAGIC_MLTH = b"MLTH1\n"


def _seal(body: bytes) -> bytes:
    """Append the image checksum (CRC32 of everything before it)."""
    return body + struct.pack(">I", zlib.crc32(body) & 0xFFFFFFFF)


def _unseal(data: bytes, what: str) -> bytes:
    """Verify and strip the image checksum; raise a clean StorageError."""
    if len(data) < 4:
        raise StorageError(f"not a {what}: image too short")
    body, (stored,) = data[:-4], struct.unpack(">I", data[-4:])
    if zlib.crc32(body) & 0xFFFFFFFF != stored:
        raise StorageError(
            f"corrupt {what}: checksum mismatch (truncated or altered image)"
        )
    return body


@contextmanager
def _parsing(what: str):
    """Convert low-level decoding failures into a clean StorageError.

    Without this, a truncated, bit-flipped or resealed image surfaces as
    a raw ``struct.error``/``KeyError``/``TypeError``/... traceback from
    the codec or the constructors; callers should only see StorageError.
    """
    try:
        yield
    except StorageError:
        raise
    except (
        struct.error,
        UnicodeDecodeError,
        json.JSONDecodeError,
        KeyError,
        IndexError,
        ValueError,
        TypeError,
    ) as exc:
        raise StorageError(f"corrupt {what}: {exc}") from None


def _write_bucket_area(out: io.BytesIO, store: BucketStore) -> None:
    """Append every live bucket as ``address, length, payload``."""
    for address in store.live_addresses():
        bucket_bytes = serialize_bucket(store.peek(address))
        out.write(struct.pack(">II", address, len(bucket_bytes)))
        out.write(bucket_bytes)


def _load_bucket_area(stream: io.BytesIO, store: BucketStore, header: dict) -> int:
    """Parse the bucket area into ``store``; returns the records found.

    Rebuilds the image's address space (``max_address``, ``live``) so
    recycled addresses line up with the index's leaves (under
    :func:`_parsing`, like the rest of a load).
    """
    buckets: dict[int, Bucket] = {}
    while True:
        chunk = stream.read(8)
        if not chunk:
            break
        address, length = struct.unpack(">II", chunk)
        buckets[address] = deserialize_bucket(stream.read(length))
    store.restore(header["max_address"], header["live"], buckets)
    return sum(len(bucket) for bucket in buckets.values())


def dump_bytes(file: THFile) -> bytes:
    """Serialise the whole file (trie + every bucket) to bytes."""
    out = io.BytesIO()
    out.write(_MAGIC)
    header = {
        "capacity": file.capacity,
        "records": len(file),
        "policy": dataclasses.asdict(file.policy),
        "max_address": file.store.max_address(),
        "live": file.store.live_addresses(),
    }
    header_bytes = json.dumps(header, separators=(",", ":")).encode()
    out.write(struct.pack(">I", len(header_bytes)))
    out.write(header_bytes)
    trie_bytes = serialize_trie(file.trie)
    out.write(struct.pack(">I", len(trie_bytes)))
    out.write(trie_bytes)
    _write_bucket_area(out, file.store)
    return _seal(out.getvalue())


def load_bytes(data: bytes) -> THFile:
    """Rebuild a :class:`THFile` from :func:`dump_bytes` output."""
    what = "trie-hashing file image"
    stream = io.BytesIO(_unseal(data, what))
    if stream.read(len(_MAGIC)) != _MAGIC:
        raise StorageError("not a trie-hashing file image")
    with _parsing(what):
        (header_len,) = struct.unpack(">I", stream.read(4))
        header = json.loads(stream.read(header_len).decode("utf-8"))
        (trie_len,) = struct.unpack(">I", stream.read(4))
        trie = deserialize_trie(stream.read(trie_len))
        file = THFile(
            bucket_capacity=header["capacity"],
            policy=SplitPolicy(**header["policy"]),
            alphabet=trie.alphabet,
        )
        file.trie = trie
        total = _load_bucket_area(stream, file.store, header)
        if total != header["records"]:
            raise StorageError(
                f"image promised {header['records']} records, found {total}"
            )
    file._size = total
    return file


def dump_mlth_bytes(file: MLTHFile) -> bytes:
    """Serialise a :class:`~repro.core.mlth.MLTHFile` (pages + buckets).

    Pages are JSON-encodable (boundary strings, child ids, levels and
    chain links), so the whole hierarchy travels in the header; buckets
    use the binary record format.
    """
    out = io.BytesIO()
    out.write(_MAGIC_MLTH)
    pages = {
        str(pid): file.page_disk.peek(pid).to_spec()
        for pid in file._all_page_ids()
    }
    header = {
        "capacity": file.capacity,
        "page_capacity": file.page_capacity,
        "records": len(file),
        "policy": dataclasses.asdict(file.policy),
        "split_node_pick": file.split_node_pick,
        "pin_root": file.pin_root,
        "root": file.root_id,
        "pages": pages,
        "alphabet": file.alphabet.digits,
        "max_address": file.store.max_address(),
        "live": file.store.live_addresses(),
    }
    header_bytes = json.dumps(header, separators=(",", ":")).encode()
    out.write(struct.pack(">I", len(header_bytes)))
    out.write(header_bytes)
    _write_bucket_area(out, file.store)
    return _seal(out.getvalue())


def load_mlth_bytes(data: bytes) -> MLTHFile:
    """Rebuild an :class:`~repro.core.mlth.MLTHFile` from its image."""
    from ..core.alphabet import Alphabet
    from ..core.mlth import MLTHFile

    what = "multilevel trie-hashing file image"
    stream = io.BytesIO(_unseal(data, what))
    if stream.read(len(_MAGIC_MLTH)) != _MAGIC_MLTH:
        raise StorageError("not a multilevel trie-hashing file image")
    with _parsing(what):
        (header_len,) = struct.unpack(">I", stream.read(4))
        header = json.loads(stream.read(header_len).decode("utf-8"))
        file = MLTHFile(
            bucket_capacity=header["capacity"],
            page_capacity=header["page_capacity"],
            policy=SplitPolicy(**header["policy"]),
            alphabet=Alphabet(header["alphabet"]),
            pin_root=header["pin_root"],
            split_node_pick=header["split_node_pick"],
        )
        file.restore_pages(header["root"], header["pages"])
        total = _load_bucket_area(stream, file.store, header)
        if total != header["records"]:
            raise StorageError("record count mismatch in MLTH image")
    file._size = total
    return file


def save_file(file: THFile, target: Union[str, BinaryIO]) -> None:
    """Write the file image to a path or binary stream."""
    data = dump_bytes(file)
    if isinstance(target, str):
        with open(target, "wb") as handle:
            handle.write(data)
    else:
        target.write(data)


def load_file(source: Union[str, BinaryIO]) -> THFile:
    """Read a file image from a path or binary stream."""
    if isinstance(source, str):
        with open(source, "rb") as handle:
            return load_bytes(handle.read())
    return load_bytes(source.read())
