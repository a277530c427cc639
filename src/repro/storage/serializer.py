"""Binary serialisation of the trie and buckets.

The paper's six-byte cell (one byte DV, one byte DN, two bytes per
pointer) is realised literally here, so the "6 Kbyte buffer addresses a
1000-bucket file" style of arithmetic in Section 3.1 can be checked
against actual encoded bytes. Buckets serialise to a simple
length-prefixed record format. Both round-trip losslessly, which the test
suite verifies property-based, and both decoders fail typed: bytes that
do not decode — short, overlong, or a trie whose edges are not one tree
over its cells — raise :class:`~repro.core.errors.StorageError`. They
guard every on-disk image the storage layer reads back (checkpoints and
whole-file images alike).

Pointer encoding in the 16-bit on-disk form (per pointer):

* ``0xFFFF``         — nil
* high bit set       — edge to cell ``value & 0x7FFF``
* otherwise          — leaf (bucket address)

This caps serialised tries at 32767 cells and files at 32767 buckets,
comparable to the paper's own two-byte pointers.
"""

from __future__ import annotations

import struct

from ..core.alphabet import Alphabet
from ..core.cells import NIL, edge_target, edge_to, is_edge, is_nil
from ..core.errors import StorageError
from ..core.trie import Trie
from .buckets import Bucket

__all__ = [
    "CELL_BYTES",
    "MAX_STRING_BYTES",
    "serialize_trie",
    "deserialize_trie",
    "serialize_bucket",
    "deserialize_bucket",
]

#: Size of one encoded cell — the paper's practical figure.
CELL_BYTES = 6

#: The longest key or value a bucket record holds, in UTF-8 bytes: the
#: ``u16`` lengths of the record layout, which the WAL record shares.
MAX_STRING_BYTES = 0xFFFF

_NIL16 = 0xFFFF
_EDGE_BIT = 0x8000


def _encode_ptr(ptr: int, cell_remap) -> int:
    if is_nil(ptr):
        return _NIL16
    if is_edge(ptr):
        target = cell_remap[edge_target(ptr)]
        if target >= 0x7FFF:
            raise StorageError("trie too large for 16-bit cell pointers")
        return _EDGE_BIT | target
    if ptr >= 0x7FFF:
        raise StorageError("bucket address too large for 16-bit pointers")
    return ptr


def _decode_ptr(raw: int) -> int:
    if raw == _NIL16:
        return NIL
    if raw & _EDGE_BIT:
        return edge_to(raw & 0x7FFF)
    return raw


def serialize_trie(trie: Trie) -> bytes:
    """Encode a trie into the standard 6-bytes-per-cell layout.

    Live cells are compacted (freed slots are not written); the root
    pointer and alphabet travel in a small header. A DV is one byte, so
    an alphabet with a digit beyond latin-1 raises :class:`StorageError`.
    """
    live = list(trie.cells.live_items())
    remap = {index: new for new, (index, _) in enumerate(live)}
    out = bytearray()
    try:
        alphabet_bytes = trie.alphabet.digits.encode("latin-1")
    except UnicodeEncodeError:
        raise StorageError(
            f"alphabet {trie.alphabet.digits!r} has digits beyond the one-byte DV"
        ) from None
    out += struct.pack(">HH", len(live), len(alphabet_bytes))
    out += alphabet_bytes
    out += struct.pack(">H", _encode_ptr(trie.root, remap))
    for _, cell in live:
        out += struct.pack(
            ">BBHH",
            ord(cell.dv),
            cell.dn,
            _encode_ptr(cell.lp, remap),
            _encode_ptr(cell.rp, remap),
        )
    return bytes(out)


def deserialize_trie(data: bytes, trie_class: type[Trie] = Trie) -> Trie:
    """Inverse of :func:`serialize_trie`, built straight into ``trie_class``
    (:class:`~repro.core.trie.Trie` or a backend subclass).

    Raises :class:`StorageError` on bytes that do not decode and on edges
    that are not one tree over the cells (an edge past the last cell, a
    cell with two parents, a cell the root never reaches): a crafted
    index must not send Algorithm A1 round a loop.
    """
    try:
        count, alpha_len = struct.unpack_from(">HH", data, 0)
        offset = 4 + alpha_len
        alphabet = Alphabet(data[4:offset].decode("latin-1"))
        (raw_root,) = struct.unpack_from(">H", data, offset)
        rows = list(struct.iter_unpack(">BBHH", data[offset + 2 :]))
    except (struct.error, ValueError) as exc:
        raise StorageError(f"corrupt trie image: {exc}") from None
    if len(rows) != count or not _one_tree(raw_root, rows):
        raise StorageError("corrupt trie image: its edges are not one tree")
    trie = trie_class(alphabet, root_ptr=_decode_ptr(raw_root))
    allocate = trie.cells.allocate
    for dv, dn, lp, rp in rows:
        allocate(chr(dv), dn, _decode_ptr(lp), _decode_ptr(rp))
    return trie


def _one_tree(raw_root: int, rows: list) -> bool:
    """Do the encoded edges reach every cell exactly once from the root?"""
    seen = bytearray(len(rows))
    stack = [raw_root]
    reached = 0
    while stack:
        raw = stack.pop()
        if raw & _EDGE_BIT and raw != _NIL16:
            cell = raw & 0x7FFF
            if cell >= len(rows) or seen[cell]:
                return False
            seen[cell] = 1
            reached += 1
            stack += rows[cell][2:]
    return reached == len(rows)


def serialize_bucket(bucket: Bucket) -> bytes:
    """Encode a bucket: header path, then length-prefixed key/value pairs.

    Values must be ``None`` or UTF-8 strings for the binary form (the
    in-memory simulation allows arbitrary payloads; persistence is only
    offered for string payloads, which all examples use), and no key or
    value may exceed :data:`MAX_STRING_BYTES`; anything else raises
    :class:`StorageError`.
    """
    out = bytearray()
    try:
        header = bucket.header_path.encode()
        out += struct.pack(">HH", len(header), len(bucket.keys))
        out += header
        for key, value in bucket.items():
            kb = key.encode()
            if value is None:
                vb = b""
                has_value = 0
            elif isinstance(value, str):
                vb = value.encode()
                has_value = 1
            else:
                raise StorageError("binary bucket format stores str/None values only")
            out += struct.pack(">HBH", len(kb), has_value, len(vb))
            out += kb
            out += vb
    except (struct.error, UnicodeEncodeError) as exc:
        raise StorageError(
            f"a record the bucket format cannot hold (UTF-8, at most "
            f"{MAX_STRING_BYTES} bytes a string): {exc}"
        ) from None
    return bytes(out)


def deserialize_bucket(data: bytes) -> Bucket:
    """Inverse of :func:`serialize_bucket`; bytes that do not decode
    (short, overlong, keys not strictly ascending) raise
    :class:`StorageError`."""
    bucket = Bucket()
    try:
        header_len, count = struct.unpack_from(">HH", data, 0)
        offset = 4 + header_len
        bucket.header_path = data[4:offset].decode("utf-8")
        for _ in range(count):
            klen, has_value, vlen = struct.unpack_from(">HBH", data, offset)
            offset += 5
            bucket.keys.append(data[offset : offset + klen].decode("utf-8"))
            offset += klen
            value = data[offset : offset + vlen].decode("utf-8") if has_value else None
            bucket.values.append(value)
            offset += vlen
    except (struct.error, ValueError) as exc:
        raise StorageError(f"corrupt bucket image: {exc}") from None
    keys = bucket.keys
    if offset != len(data) or any(a >= b for a, b in zip(keys, keys[1:])):
        raise StorageError("corrupt bucket image: trailing bytes or keys out of order")
    return bucket
