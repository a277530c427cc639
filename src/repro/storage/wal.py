"""Write-ahead logging over simulated stable storage.

The simulated disks of :mod:`repro.storage.disk` are *volatile*: they
model access counts, not survival. This module adds the missing
durability substrate in two layers:

* :class:`StableStore` — a named-object non-volatile byte store with the
  crash semantics of a POSIX filesystem: ``append`` buffers bytes that
  become durable only at ``fsync``; ``write_atomic`` models the
  temp-file + rename idiom (all-or-nothing replacement); a crash throws
  away every un-fsynced byte, except possibly a *torn* prefix of the
  unflushed tail (a partially written last block).

* The WAL itself — a stream of checksummed, LSN-stamped operation
  records (``insert``/``put``/``delete``), the REDO unit: a record's
  body is encoded before the in-memory apply, appended after the apply
  succeeds, and the operation is acknowledged only once the record is
  fsynced. Nothing else is logged. Re-executing the deterministic
  operations rebuilds the identical structure, and a lost trie is
  rebuilt from the bucket headers (Section 6, /TOR83/), so no reader
  needs a log of structure edits. LSNs count operation records:
  consecutive records carry consecutive LSNs.

Record wire format (see ``docs/DURABILITY.md``)::

    magic(2) | lsn(8) | type(1) | len(4) | body(len) | crc32(4)
    body := u8 flags | u16 key_len | u16 value_len | key | value
            | [i64 client | i64 seq]

The CRC covers lsn, type, length and body. A reader stops cleanly at
the first record whose magic, length or CRC does not check out — the
torn tail a crash may leave behind. Flag bit 0 marks a value, bit 1 a
request id; key and value are UTF-8 and at most
:data:`~repro.storage.serializer.MAX_STRING_BYTES` long, the bucket
format's own limit. :func:`encode_body` refuses what a body cannot
hold with :class:`StorageError` (:class:`InvalidKeyError` for a key
that is not a string); a body whose CRC checks but which does not
decode raises :class:`RecoveryError`.
"""

from __future__ import annotations

import struct
import zlib
from collections.abc import Iterator
from typing import Optional

from ..core.errors import InvalidKeyError, RecoveryError, StorageError
from ..obs.tracer import TRACER
from .dedup import RequestId
from .serializer import MAX_STRING_BYTES

__all__ = [
    "StableStore",
    "StableStats",
    "WALRecord",
    "WALWriter",
    "encode_body",
    "encode_record",
    "read_records",
    "stream_ops",
    "REC_INSERT",
    "REC_PUT",
    "REC_DELETE",
]

# ----------------------------------------------------------------------
# Record types
# ----------------------------------------------------------------------
#: Operation records — the REDO unit replayed by recovery, and the only
#: record types the log holds.
REC_INSERT = 1
REC_PUT = 2
REC_DELETE = 3

_REC_MAGIC = b"\xd7\x1e"  # two fixed marker bytes
_HEADER = struct.Struct(">QBI")  # lsn, type, body length
_CRC = struct.Struct(">I")
_BODY_HEAD = struct.Struct(">BHH")  # flags, key length, value length
_RID = struct.Struct(">qq")  # client, seq
_HAS_VALUE = 1
_HAS_RID = 2


# ----------------------------------------------------------------------
# Stable storage
# ----------------------------------------------------------------------
class StableStats:
    """Physical-write counters for one stable store."""

    __slots__ = ("appends", "fsyncs", "renames", "unlinks", "bytes_appended")

    def __init__(self) -> None:
        self.appends = 0
        self.fsyncs = 0
        self.renames = 0
        self.unlinks = 0
        self.bytes_appended = 0

    @property
    def write_ops(self) -> int:
        """Total physical write operations (the crash-point counter)."""
        return self.appends + self.fsyncs + self.renames + self.unlinks

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StableStats(appends={self.appends}, fsyncs={self.fsyncs}, "
            f"renames={self.renames}, unlinks={self.unlinks})"
        )


class _StableObject:
    """One named object: a byte run with a durable prefix."""

    __slots__ = ("data", "durable")

    def __init__(self, data: bytes = b"", durable: Optional[int] = None):
        self.data = bytearray(data)
        self.durable = len(data) if durable is None else durable


class StableStore:
    """Simulated non-volatile storage with filesystem crash semantics.

    Objects are named byte runs. ``append`` extends an object in the
    (volatile) page cache; ``fsync`` makes everything appended so far
    durable; ``write_atomic`` replaces an object all-or-nothing (the
    temp-file + rename protocol — the temp file itself is invisible to
    readers and to crashes). :meth:`lose_volatile` applies a crash: every
    object keeps only its durable prefix, except that the caller may ask
    for ``tear`` extra bytes of one object's unflushed tail to survive
    (a torn last block).

    Subclasses hook :meth:`_physical` (called *before* an operation takes
    effect) to count, record or crash on physical writes.
    """

    def __init__(self) -> None:
        self._objects: dict[str, _StableObject] = {}
        self.stats = StableStats()

    # -- hook ----------------------------------------------------------
    def _physical(self, kind: str, name: str, payload: bytes = b"") -> None:
        """Called before each physical write op (append/fsync/rename/unlink)."""

    # -- write path ----------------------------------------------------
    def append(self, name: str, data: bytes) -> None:
        """Append bytes to ``name`` (created empty if missing); volatile."""
        self._physical("append", name, bytes(data))
        self.stats.appends += 1
        self.stats.bytes_appended += len(data)
        obj = self._objects.get(name)
        if obj is None:
            obj = self._objects[name] = _StableObject(b"", durable=0)
        obj.data += data

    def fsync(self, name: str) -> None:
        """Make every appended byte of ``name`` durable."""
        self._physical("fsync", name)
        self.stats.fsyncs += 1
        obj = self._objects.get(name)
        if obj is None:
            raise StorageError(f"stable object {name!r} does not exist")
        obj.durable = len(obj.data)

    def write_atomic(self, name: str, data: bytes) -> None:
        """Replace ``name`` with ``data`` all-or-nothing (temp + rename)."""
        self._physical("rename", name, bytes(data))
        self.stats.renames += 1
        self._objects[name] = _StableObject(bytes(data))

    def delete(self, name: str) -> None:
        """Unlink ``name`` (durable immediately; missing names are fine)."""
        self._physical("unlink", name)
        self.stats.unlinks += 1
        self._objects.pop(name, None)

    # -- read path -----------------------------------------------------
    def exists(self, name: str) -> bool:
        """True when ``name`` exists (durable or not)."""
        return name in self._objects

    def read(self, name: str) -> bytes:
        """Current contents of ``name`` (including unflushed appends)."""
        obj = self._objects.get(name)
        if obj is None:
            raise StorageError(f"stable object {name!r} does not exist")
        return bytes(obj.data)

    def names(self) -> list[str]:
        """All object names, sorted."""
        return sorted(self._objects)

    def size(self, name: str) -> int:
        """Current length of ``name`` in bytes."""
        return len(self.read(name))

    # -- crash semantics ----------------------------------------------
    def lose_volatile(self, torn: Optional[tuple[str, int]] = None) -> None:
        """Apply a crash: truncate every object to its durable prefix.

        ``torn=(name, extra)`` lets ``extra`` bytes of one object's
        unflushed tail survive — the partially written last block of a
        torn write.
        """
        for name, obj in list(self._objects.items()):
            keep = obj.durable
            if torn is not None and torn[0] == name:
                keep = min(len(obj.data), obj.durable + max(0, torn[1]))
            del obj.data[keep:]
            obj.durable = len(obj.data)

    def snapshot_durable(self) -> dict[str, bytes]:
        """The durable image: what a crash right now would preserve."""
        return {
            name: bytes(obj.data[: obj.durable])
            for name, obj in self._objects.items()
        }

    @classmethod
    def from_snapshot(cls, image: dict[str, bytes]) -> StableStore:
        """A fresh store holding ``image`` (all of it durable)."""
        store = cls()
        for name, data in image.items():
            store._objects[name] = _StableObject(data)
        return store


# ----------------------------------------------------------------------
# Record codec
# ----------------------------------------------------------------------
class WALRecord:
    """One decoded operation record."""

    __slots__ = ("lsn", "type", "key", "value", "rid")

    def __init__(
        self,
        lsn: int,
        rec_type: int,
        key: str,
        value: Optional[str] = None,
        rid: Optional[RequestId] = None,
    ):
        self.lsn = lsn
        self.type = rec_type
        self.key = key
        self.value = value
        self.rid = rid

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WALRecord(lsn={self.lsn}, type={self.type}, key={self.key!r}, "
            f"value={self.value!r}, rid={self.rid!r})"
        )


def encode_body(
    key: str, value: Optional[str] = None, rid: Optional[RequestId] = None
) -> bytes:
    """The body of one operation record.

    Refuses, before anything is applied, what neither a record nor a
    bucket can hold: a key that is not a string
    (:class:`InvalidKeyError`), a value that is neither a string nor
    ``None``, a string that is not UTF-8 encodable (a lone surrogate),
    one longer than :data:`MAX_STRING_BYTES`, and a request id that is
    not two integers in the signed 64-bit range (all
    :class:`StorageError`).
    """
    try:
        raw_key = key.encode("utf-8")
        if value is None:
            flags, raw_value = 0, b""
        else:
            flags, raw_value = _HAS_VALUE, value.encode("utf-8")
        if rid is None:
            tail = b""
        else:
            flags |= _HAS_RID
            tail = _RID.pack(*rid)
        head = _BODY_HEAD.pack(flags, len(raw_key), len(raw_value))
    except (AttributeError, TypeError, UnicodeEncodeError, struct.error):
        raise _refusal(key, value, rid) from None
    return head + raw_key + raw_value + tail


def _refusal(key: object, value: object, rid: object) -> Exception:
    """Why :func:`encode_body` refused its fields (the error path only)."""
    if not isinstance(key, str):
        return InvalidKeyError(f"keys must be str, got {type(key).__name__}")
    if value is not None and not isinstance(value, str):
        return StorageError("durable files store str or None values only")
    for text in (key, value or ""):
        try:
            size = len(text.encode("utf-8"))
        except UnicodeEncodeError as exc:
            return StorageError(f"a key or value is not UTF-8 encodable: {exc}")
        if size > MAX_STRING_BYTES:
            return StorageError(
                f"a key or value of {size} UTF-8 bytes exceeds the "
                f"{MAX_STRING_BYTES}-byte limit of a record and a bucket"
            )
    return StorageError(f"request id {rid!r} is not two signed 64-bit integers")


def encode_record(lsn: int, rec_type: int, body: bytes) -> bytes:
    """Frame one record body (magic, header, body, CRC trailer)."""
    header = _HEADER.pack(lsn, rec_type, len(body))
    crc = zlib.crc32(body, zlib.crc32(header))
    return _REC_MAGIC + header + body + _CRC.pack(crc)


def _read_body(
    data: bytes, pos: int, end: int, lsn: int
) -> tuple[str, Optional[str], Optional[RequestId]]:
    """``(key, value, rid)`` of the body ``data[pos:end]``; a body that
    does not decode raises :class:`RecoveryError`."""
    try:
        if end - pos < _BODY_HEAD.size:
            raise ValueError("the body is shorter than its head")
        flags, key_len, value_len = _BODY_HEAD.unpack_from(data, pos)
        if flags & ~(_HAS_VALUE | _HAS_RID):
            raise ValueError(f"unknown flag bits {flags:#04x}")
        if value_len and not flags & _HAS_VALUE:
            raise ValueError("a value length without a value")
        key_at = pos + _BODY_HEAD.size
        value_at = key_at + key_len
        rid_at = value_at + value_len
        stop = rid_at + _RID.size if flags & _HAS_RID else rid_at
        if stop > end:
            raise ValueError("its lengths run past the body")
        if stop < end:
            raise ValueError(f"{end - stop} trailing bytes")
        key = data[key_at:value_at].decode("utf-8")
        value = data[value_at:rid_at].decode("utf-8") if flags & _HAS_VALUE else None
    except ValueError as exc:  # UnicodeDecodeError is one too
        raise RecoveryError(f"malformed operation record at LSN {lsn}: {exc}") from None
    return key, value, _RID.unpack_from(data, rid_at) if flags & _HAS_RID else None


def read_records(data: bytes) -> tuple[list[WALRecord], bool]:
    """Decode a log image; stop cleanly at a torn or corrupt tail.

    Returns ``(records, clean)`` where ``clean`` is False when trailing
    bytes had to be discarded (torn last record or trailing garbage). A
    record whose CRC checks but whose body does not decode raises
    :class:`RecoveryError`: no crash writes one.
    """
    records: list[WALRecord] = []
    offset = 0
    header_size = len(_REC_MAGIC) + _HEADER.size
    while offset < len(data):
        if (
            offset + header_size > len(data)
            or data[offset : offset + len(_REC_MAGIC)] != _REC_MAGIC
        ):
            return records, False
        lsn, rec_type, length = _HEADER.unpack_from(data, offset + len(_REC_MAGIC))
        body_at = offset + header_size
        crc_at = body_at + length
        if crc_at + _CRC.size > len(data):
            return records, False
        expected = zlib.crc32(data[offset + len(_REC_MAGIC) : crc_at])
        (stored,) = _CRC.unpack_from(data, crc_at)
        if stored != expected:
            return records, False
        key, value, rid = _read_body(data, body_at, crc_at, lsn)
        records.append(WALRecord(lsn, rec_type, key, value, rid))
        offset = crc_at + _CRC.size
    return records, True


def stream_ops(
    store: StableStore, name: str, after_lsn: int = 0
) -> Iterator[WALRecord]:
    """Records in segment ``name`` with ``lsn > after_lsn``.

    The catch-up primitive of replication: a backup that fell behind but
    still overlaps the primary's current segment (its last applied LSN is
    at or past the segment's truncation point) is repaired by streaming
    the records it missed, in LSN order. Reads the segment image as-is
    and stops at a torn tail, so callers should invoke it at a commit
    boundary.
    """
    if not store.exists(name):
        return
    records, _clean = read_records(store.read(name))
    for record in records:
        if record.lsn > after_lsn:
            yield record


# ----------------------------------------------------------------------
# Writer
# ----------------------------------------------------------------------
class WALWriter:
    """Appends operation records to one log segment on a :class:`StableStore`.

    Only :class:`~repro.storage.recovery.DurableFile` holds a writer; the
    engines it wraps never see the log. Recovery replays into the engine
    directly, so replayed operations are neither re-logged nor re-shipped.
    """

    def __init__(self, store: StableStore, name: str, next_lsn: int = 1):
        self.store = store
        self.name = name
        self.next_lsn = next_lsn
        #: Commit-time subscribers: each callable receives the list of
        #: operation records made durable by one :meth:`commit` — the
        #: shipping unit of primary/backup replication.
        self.taps: list = []
        self._pending_ops: list = []

    @property
    def last_lsn(self) -> int:
        """LSN of the most recently appended record (0 when none)."""
        return self.next_lsn - 1

    def append(
        self,
        rec_type: int,
        key: str,
        value: Optional[str],
        rid: Optional[RequestId],
        body: bytes,
    ) -> int:
        """Append one record (volatile until :meth:`commit`).

        ``body`` is ``encode_body(key, value, rid)``, which the caller
        encodes before its in-memory apply so that a write no record can
        hold is refused before anything changes.
        """
        lsn = self.next_lsn
        self.next_lsn += 1
        encoded = encode_record(lsn, rec_type, body)
        self.store.append(self.name, encoded)
        if self.taps:
            self._pending_ops.append(WALRecord(lsn, rec_type, key, value, rid))
        if TRACER.enabled:
            TRACER.emit("wal_append", lsn=lsn, type=rec_type, bytes=len(encoded))
        return lsn

    def commit(self) -> None:
        """fsync the segment: everything appended so far is now durable."""
        self.store.fsync(self.name)
        if TRACER.enabled:
            TRACER.emit("wal_fsync", lsn=self.last_lsn)
        if self._pending_ops:
            batch, self._pending_ops = self._pending_ops, []
            for tap in list(self.taps):
                tap(batch)
