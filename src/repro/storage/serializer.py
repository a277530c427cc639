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

Each codec is one pass each way over precompiled ``struct`` layouts,
with one ``join`` per image: the trie encoder reads the cell store's
plain ``(dv, dn, lp, rp)`` rows (:meth:`~repro.core.cells.CellTable.rows`,
straight off the columns on the compact backend, with no cell view),
and the decoder loads them back in bulk
(:meth:`~repro.core.cells.CellTable.load_rows`); the bucket encoder
walks ``zip(keys, values)``. The bytes are those of the paper's layout
above, whichever backend wrote them.

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
from ..core.cells import NIL, edge_to
from ..core.errors import StorageError
from ..core.trie import Trie
from .buckets import Bucket

__all__ = [
    "CELL_BYTES",
    "MAX_STRING_BYTES",
    "POINTER_LIMIT",
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

#: The first bucket address, and the first cell position, that a 16-bit
#: pointer cannot hold: no index encodes either.
POINTER_LIMIT = 0x7FFF

_NIL16 = 0xFFFF
_EDGE_BIT = 0x8000

_HEAD = struct.Struct(">HH")  # trie: cells, alphabet length; bucket: header, records
_PTR = struct.Struct(">H")
_CELL = struct.Struct(">BBHH")  # DV, DN, LP, RP
_RECORD = struct.Struct(">HBH")  # key length, has value, value length


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
    an alphabet with a digit beyond latin-1 raises :class:`StorageError`;
    so does a trie of more than :data:`POINTER_LIMIT` cells or a leaf at
    a bucket address the pointers cannot hold.

    One pass over the cell store's ``(dv, dn, lp, rp)`` rows
    (:meth:`~repro.core.cells.CellTable.rows`, read straight off the
    columns on the compact backend), one packed row per live cell.
    """
    try:
        alphabet_bytes = trie.alphabet.digits.encode("latin-1")
    except UnicodeEncodeError:
        raise StorageError(
            f"alphabet {trie.alphabet.digits!r} has digits beyond the one-byte DV"
        ) from None
    rows = trie.cells.rows()
    # An edge to the cell in slot i is stored as -(i + 1), i.e. ~i; on
    # disk it names the cell's position among the live ones.
    edges = [~index for index, row in enumerate(rows) if row is not None]
    if len(edges) > POINTER_LIMIT:
        raise StorageError("trie too large for 16-bit cell pointers")
    codes = dict(zip(edges, range(_EDGE_BIT, _EDGE_BIT + len(edges))))
    codes[NIL] = _NIL16
    code = codes.get
    root = trie.root
    parts = [_HEAD.pack(len(edges), len(alphabet_bytes)), alphabet_bytes]
    parts.append(_PTR.pack(code(root, root)))
    pack = _CELL.pack
    top = root  # the largest pointer; only a leaf can reach POINTER_LIMIT
    for row in rows:
        if row is not None:
            dv, dn, lp, rp = row
            if lp > top or rp > top:
                top = max(lp, rp)
            parts.append(pack(dv, dn, code(lp, lp), code(rp, rp)))
    if top >= POINTER_LIMIT:
        raise StorageError("bucket address too large for 16-bit pointers")
    return b"".join(parts)


def deserialize_trie(data: bytes, trie_class: type[Trie] = Trie) -> Trie:
    """Inverse of :func:`serialize_trie`, built straight into ``trie_class``
    (:class:`~repro.core.trie.Trie` or a backend subclass) by one bulk
    load of its rows (:meth:`~repro.core.cells.CellTable.load_rows`).

    Raises :class:`StorageError` on bytes that do not decode and on edges
    that are not one tree over the cells (an edge past the last cell, a
    cell with two parents, a cell the root never reaches): a crafted
    index must not send Algorithm A1 round a loop.
    """
    try:
        count, alpha_len = _HEAD.unpack_from(data, 0)
        offset = 4 + alpha_len
        alphabet = Alphabet(data[4:offset].decode("latin-1"))
        (raw_root,) = _PTR.unpack_from(data, offset)
        rows = list(_CELL.iter_unpack(data[offset + 2 :]))
    except (struct.error, ValueError) as exc:
        raise StorageError(f"corrupt trie image: {exc}") from None
    if len(rows) != count or not _one_tree(raw_root, rows):
        raise StorageError("corrupt trie image: its edges are not one tree")
    trie = trie_class(alphabet, root_ptr=_decode_ptr(raw_root))
    # _decode_ptr inlined: a raw edge 0x8000 | i is edge_to(i) == 0x7FFF - raw.
    trie.cells.load_rows(
        [
            (
                dv,
                dn,
                lp if lp < _EDGE_BIT else NIL if lp == _NIL16 else 0x7FFF - lp,
                rp if rp < _EDGE_BIT else NIL if rp == _NIL16 else 0x7FFF - rp,
            )
            for dv, dn, lp, rp in rows
        ]
    )
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
    :class:`StorageError`. One pass over the records, one join.
    """
    try:
        header = bucket.header_path.encode()
        parts = [_HEAD.pack(len(header), len(bucket.keys)), header]
        pack = _RECORD.pack
        for key, value in zip(bucket.keys, bucket.values):
            kb = key.encode()
            if value is None:
                parts += (pack(len(kb), 0, 0), kb)
            elif isinstance(value, str):
                vb = value.encode()
                parts += (pack(len(kb), 1, len(vb)), kb, vb)
            else:
                raise StorageError("binary bucket format stores str/None values only")
    except (struct.error, UnicodeEncodeError) as exc:
        raise StorageError(
            f"a record the bucket format cannot hold (UTF-8, at most "
            f"{MAX_STRING_BYTES} bytes a string): {exc}"
        ) from None
    return b"".join(parts)


def deserialize_bucket(data: bytes) -> Bucket:
    """Inverse of :func:`serialize_bucket`; bytes that do not decode
    (short, overlong, keys not strictly ascending) raise
    :class:`StorageError`."""
    bucket = Bucket()
    keys = bucket.keys
    values = bucket.values
    unpack = _RECORD.unpack_from
    try:
        header_len, count = _HEAD.unpack_from(data, 0)
        offset = 4 + header_len
        bucket.header_path = data[4:offset].decode()
        for _ in range(count):
            klen, has_value, vlen = unpack(data, offset)
            start = offset + 5
            offset = start + klen
            keys.append(data[start:offset].decode())
            start = offset
            offset += vlen
            values.append(data[start:offset].decode() if has_value else None)
    except (struct.error, ValueError) as exc:
        raise StorageError(f"corrupt bucket image: {exc}") from None
    if offset != len(data) or any(a >= b for a, b in zip(keys, keys[1:])):
        raise StorageError("corrupt bucket image: trailing bytes or keys out of order")
    return bucket
