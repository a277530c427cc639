"""The versioned wire codec of the TH* serving tier.

Everything a client and a shard server exchange — operations, replies,
request ids, IAM entries, trace contexts and exception outcomes — is
encoded here into a self-describing binary form, so a message crossing
any transport (a real socket or the in-process fabric) is a *value*,
never a shared Python reference. Routing the in-process
:class:`~repro.distributed.router.InProcessTransport` through the same
codec is what structurally eliminates the aliasing bug where a client
mutating a ``get`` result (or a value it just ``put``) silently mutated
the shard's stored record.

Three layers:

* **Values** — a tagged union covering ``None``, booleans, integers
  (with a big-int escape), floats, strings, bytes, lists, tuples,
  dicts, sets and exception instances. Tuples and lists are *distinct*
  tags: request ids, trace contexts and scan records must come back as
  the tuples the rest of the layer pattern-matches on.
  An integer outside the signed 64-bit range travels as its signed
  big-endian bytes (``int.to_bytes``), so no size of integer meets the
  interpreter's cap on decimal conversion.
  A non-empty list of ``(str, str)`` tuples — scan replies,
  ``put_many`` legs and their leftovers, ``get_many`` results, resync
  snapshots — travels as one **record block** instead: the keys as one
  UTF-8 run and the values as another, each preceded by its strings'
  lengths in code points, so a run is decoded once and then sliced. A
  block decodes to exactly the list of tuples the generic list layout
  gives, so no caller knows which layout carried it; records with any
  other value keep the generic layout.
* **Messages** — :func:`encode_op` / :func:`decode_op` and
  :func:`encode_reply` / :func:`decode_reply` write an
  :class:`~repro.distributed.messages.Op` or a
  :class:`~repro.distributed.messages.Reply` as one fixed ``struct``
  head, then only the fields it sets, each in the value layout but for
  two with their own::

      op    := u8 flags | u8 n | kind (n bytes UTF-8) | set slots
      rid   := i64 client | i64 seq
      reply := u8 flags | u16 forwards | i32 owner | set fields
      iam   := u32 count | count × (u32 low_len | u32 high_len |
                                    i32 shard | low | high)

  An op's flags mark its set slots (key, value, low, high, after, rid,
  ctx); the kind travels as a string, so an unknown kind still reaches
  the server and fails typed there. The request id, set on every
  mutation, is two fixed-width integers; one that is not two integers
  in the signed 64-bit range fails at encode. A reply's flags mark its
  set fields (value, error, iam, records, region_high, ctx) and hold
  ``done`` and ``dedup``. The IAM is a count, then ``(low, high,
  shard)`` entries whose cut length ``0xFFFFFFFF`` stands for an open
  end. Unknown op flag bits, a cut head, an IAM count the payload
  cannot hold and trailing bytes raise :class:`ProtocolError`.
  ``Op.addressed`` is never encoded.
  Exceptions travel as a ``(code, message)`` pair through the
  :data:`ERROR_CODES` registry and come back as fresh instances of the
  same class, so ``raise reply.error`` behaves identically on either
  side of a wire.
* **Frames** — the length-prefixed envelope of the asyncio serving
  protocol (:mod:`repro.serving`)::

      u32 length | u8 version | u8 kind | u32 corr_id | payload

  ``length`` counts everything after itself. ``corr_id`` is the
  pipelining correlation id the client matches replies with. A version
  mismatch (an older version included: no decoder for one is kept) or
  malformed payload raises
  :class:`~repro.distributed.errors.ProtocolError` — wire damage is a
  protocol violation, never a silent misdecode.

The encoders fail typed too: a value of no wire type, a string that is
not UTF-8 encodable (a lone surrogate) and a head field out of range
raise :class:`ProtocolError`.
"""

from __future__ import annotations

import struct
from collections.abc import Callable
from itertools import accumulate
from typing import Optional

from ..check.framework import ParanoidAuditError
from ..core import errors as core_errors
from ..core.cursor import CursorInvalidError
from . import errors as dist_errors
from .errors import ProtocolError
from .messages import Op, Reply

__all__ = [
    "WIRE_VERSION",
    "FRAME_REQUEST",
    "FRAME_RESPONSE",
    "FRAME_CONTROL",
    "FRAME_CONTROL_REPLY",
    "ERROR_CODES",
    "encode_value",
    "decode_value",
    "encode_op",
    "decode_op",
    "encode_reply",
    "decode_reply",
    "roundtrip_op",
    "roundtrip_reply",
    "pack_frame",
    "unpack_frame",
]

#: Bump on any incompatible change to the value or message layout.
#: Version 2 added the record block and carries big ints as bytes;
#: version 3 sends each message as a fixed head plus the fields it sets;
#: version 4 carries an op's request id as two fixed-width integers.
WIRE_VERSION = 4

#: Frame kinds.
FRAME_REQUEST = 1  # payload: u32 shard_id | encoded Op
FRAME_RESPONSE = 2  # payload: u8 status (0=Reply, 1=raised) | body
FRAME_CONTROL = 3  # payload: encoded dict command
FRAME_CONTROL_REPLY = 4  # payload: u8 status | encoded value / error

_FRAME_HEAD = struct.Struct(">BBI")  # version, kind, corr_id
_U32 = struct.Struct(">I")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")
_U16 = struct.Struct(">H")

#: The typed exceptions that may travel in a reply or as a raised
#: outcome. Codes are wire contract — append only, never renumber.
ERROR_CODES: dict[int, type] = {
    1: core_errors.TrieHashingError,
    2: core_errors.InvalidKeyError,
    3: core_errors.DuplicateKeyError,
    4: core_errors.KeyNotFoundError,
    5: core_errors.CapacityError,
    6: core_errors.TrieCorruptionError,
    7: core_errors.StorageError,
    8: core_errors.RecoveryError,
    9: dist_errors.DistributedError,
    10: dist_errors.ConfigurationError,
    11: dist_errors.UnknownShardError,
    12: dist_errors.ProtocolError,
    13: dist_errors.RetryableError,
    14: dist_errors.MessageLostError,
    15: dist_errors.OpTimeoutError,
    16: dist_errors.ServerDownError,
    17: dist_errors.ShardUnavailableError,
    18: dist_errors.ReplicationError,
    19: dist_errors.ReplicaStaleError,
    20: dist_errors.FailoverError,
    # 21-23 registered by the TH011 exhaustiveness audit: each of these
    # is raisable from code reachable off the dispatch surface (a stale
    # scan cursor, an injected crash fault surfacing mid-op, a paranoid
    # audit tripping under a serving shard) and must survive the wire
    # with its type intact instead of degrading to the catch-all.
    21: CursorInvalidError,
    22: core_errors.CrashError,
    23: ParanoidAuditError,
}
_CODE_OF = {cls: code for code, cls in ERROR_CODES.items()}


def _error_code(exc: BaseException) -> int:
    """The registry code for ``exc`` (nearest registered ancestor)."""
    code = _CODE_OF.get(type(exc))
    if code is not None:
        return code
    for klass in type(exc).__mro__[1:]:
        code = _CODE_OF.get(klass)
        if code is not None:
            return code
    return 1  # the TrieHashingError catch-all


def _error_message(exc: BaseException) -> str:
    """The message to ship (unwraps KeyError's repr-quoting)."""
    if isinstance(exc, KeyError) and exc.args and isinstance(exc.args[0], str):
        return exc.args[0]
    return str(exc)


# ----------------------------------------------------------------------
# Value layer
# ----------------------------------------------------------------------
# Encoding appends parts (a tag and its fixed-size field pack in one
# call) and joins them once; decoding reads the one payload buffer by
# offset. Tags are compared as the byte values ``data[pos]`` yields.
_TAG_U32 = struct.Struct(">cI")  # string, bytes and container heads
_TAG_I64 = struct.Struct(">cq")
_TAG_F64 = struct.Struct(">cd")
_ERROR_HEAD = struct.Struct(">cHI")  # tag, error code, message length
_u32_at = _U32.unpack_from
_NONE, _TRUE, _FALSE, _INT, _BIG_INT, _FLOAT = b"NTFiIf"
_STR, _BYTES, _TUPLE, _LIST, _DICT, _SET, _ERROR, _RECORDS = b"sbtldSer"


def _write_value(write: Callable[[bytes], None], value: object) -> None:
    """Append ``value``'s encoding through ``write`` (a list's append).

    The type tests are mutually exclusive but for ``bool``, which must
    be seen before ``int``; the rest run in the order a message's
    values are most often met.
    """
    if value is None:
        write(b"N")
    elif isinstance(value, str):
        data = value.encode("utf-8")
        write(_TAG_U32.pack(b"s", len(data)))
        write(data)
    elif value is True:
        write(b"T")
    elif value is False:
        write(b"F")
    elif isinstance(value, int):
        if -(2**63) <= value < 2**63:
            write(_TAG_I64.pack(b"i", value))
        else:
            # Two's complement: one sign bit more than the magnitude
            # needs, rounded up to whole bytes.
            data = value.to_bytes((value.bit_length() + 8) // 8, "big", signed=True)
            write(_TAG_U32.pack(b"I", len(data)))
            write(data)
    elif isinstance(value, tuple):
        write(_TAG_U32.pack(b"t", len(value)))
        for item in value:
            _write_value(write, item)
    elif isinstance(value, list):
        # The first item decides whether the block is worth a walk: a
        # list of anything but pairs pays two cheap tests.
        first = value[0] if value else None
        if not (
            type(first) is tuple
            and len(first) == 2
            and type(first[0]) is str
            and type(first[1]) is str
            and _write_records(write, value)
        ):
            write(_TAG_U32.pack(b"l", len(value)))
            for item in value:
                _write_value(write, item)
    elif isinstance(value, dict):
        write(_TAG_U32.pack(b"d", len(value)))
        for key, item in value.items():
            _write_value(write, key)
            _write_value(write, item)
    elif isinstance(value, float):
        write(_TAG_F64.pack(b"f", value))
    elif isinstance(value, bytes):
        write(_TAG_U32.pack(b"b", len(value)))
        write(value)
    elif isinstance(value, (set, frozenset)):
        write(_TAG_U32.pack(b"S", len(value)))
        # Sorted for a canonical encoding (sets have no wire order).
        for item in sorted(value, key=repr):
            _write_value(write, item)
    elif isinstance(value, BaseException):
        data = _error_message(value).encode("utf-8")
        write(_ERROR_HEAD.pack(b"e", _error_code(value), len(data)))
        write(data)
    else:
        raise ProtocolError(
            f"value of type {type(value).__name__!r} is not wire-encodable"
        )


def _write_run(write: Callable[[bytes], None], strings: tuple) -> None:
    """Append ``strings`` as one run: their lengths, then their UTF-8."""
    data = "".join(strings).encode("utf-8")
    write(struct.pack(">%dI" % len(strings), *map(len, strings)))
    write(_U32.pack(len(data)))
    write(data)


def _write_records(write: Callable[[bytes], None], records: list) -> bool:
    """Append ``records`` as one record block, if they all fit it.

    Returns ``False``, having written nothing, when some item is not a
    2-tuple of ``str``; the caller then writes a generic list.
    """
    for item in records:
        if (
            type(item) is not tuple
            or len(item) != 2
            or type(item[0]) is not str
            or type(item[1]) is not str
        ):
            return False
    keys, values = zip(*records)
    write(_TAG_U32.pack(b"r", len(keys)))
    _write_run(write, keys)
    _write_run(write, values)
    return True


def encode_value(value: object) -> bytes:
    """Encode one value into the tagged-union wire form."""
    parts: list[bytes] = []
    try:
        _write_value(parts.append, value)
    except UnicodeEncodeError as exc:
        raise _unencodable(exc) from None
    return b"".join(parts)


def _unencodable(exc: UnicodeEncodeError) -> ProtocolError:
    """The one refusal of a string the wire cannot carry."""
    return ProtocolError(f"a string is not UTF-8 encodable: {exc}")


def _read_str(data: bytes, pos: int) -> tuple[str, int]:
    """The length-prefixed UTF-8 string at ``pos``, and the offset past it."""
    (length,) = _u32_at(data, pos)
    pos += 4
    end = pos + length
    if end > len(data):
        raise ProtocolError("truncated value payload")
    try:
        return data[pos:end].decode("utf-8"), end
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"malformed string payload: {exc}") from None


def _read_bytes(data: bytes, pos: int) -> tuple[bytes, int]:
    """The length-prefixed bytes at ``pos``, and the offset past them."""
    (length,) = _u32_at(data, pos)
    pos += 4
    end = pos + length
    if end > len(data):
        raise ProtocolError("truncated value payload")
    return bytes(data[pos:end]), end


def _read_run(data: bytes, pos: int, count: int) -> tuple[list[str], int]:
    """The ``count`` strings of the run at ``pos``, and the offset past it.

    The run is decoded once and sliced by its code-point lengths, which
    must add up to exactly the decoded run. The lengths are checked to
    fit the payload before they are read, so a forged count allocates
    nothing.
    """
    end = pos + 4 * count
    if end > len(data):
        raise ProtocolError(f"record count {count} exceeds its payload")
    lengths = struct.unpack_from(">%dI" % count, data, pos)
    text, pos = _read_str(data, end)
    strings: list[str] = []
    append = strings.append
    start = 0
    for stop in accumulate(lengths):
        append(text[start:stop])
        start = stop
    if start != len(text):
        raise ProtocolError("record lengths do not add up to their run")
    return strings, pos


def _read_records(data: bytes, pos: int) -> tuple[list, int]:
    """The record block at ``pos`` (past its tag) as a list of tuples."""
    (count,) = _u32_at(data, pos)
    keys, pos = _read_run(data, pos + 4, count)
    values, pos = _read_run(data, pos, count)
    return list(zip(keys, values)), pos


def _read_value(data: bytes, pos: int) -> tuple[object, int]:
    """The value encoded at ``pos``, and the offset just past it.

    Reading past the end raises ``IndexError`` (a missing tag) or
    ``struct.error`` (a short field); :func:`_decode` turns both into
    :class:`ProtocolError`.
    """
    tag = data[pos]
    pos += 1
    if tag == _STR:
        return _read_str(data, pos)
    if tag == _NONE:
        return None, pos
    if tag == _INT:
        return _I64.unpack_from(data, pos)[0], pos + 8
    if tag == _TUPLE or tag == _LIST:
        (count,) = _u32_at(data, pos)
        pos += 4
        items = []
        for _ in range(count):
            item, pos = _read_value(data, pos)
            items.append(item)
        return (tuple(items) if tag == _TUPLE else items), pos
    if tag == _TRUE:
        return True, pos
    if tag == _FALSE:
        return False, pos
    if tag == _RECORDS:
        return _read_records(data, pos)
    if tag == _DICT:
        (count,) = _u32_at(data, pos)
        pos += 4
        mapping = {}
        for _ in range(count):
            key, pos = _read_value(data, pos)
            mapping[key], pos = _read_value(data, pos)
        return mapping, pos
    if tag == _SET:
        (count,) = _u32_at(data, pos)
        pos += 4
        members = set()
        for _ in range(count):
            item, pos = _read_value(data, pos)
            members.add(item)
        return members, pos
    if tag == _FLOAT:
        return _F64.unpack_from(data, pos)[0], pos + 8
    if tag == _BIG_INT:
        raw, pos = _read_bytes(data, pos)
        return int.from_bytes(raw, "big", signed=True), pos
    if tag == _BYTES:
        return _read_bytes(data, pos)
    if tag == _ERROR:
        (code,) = _U16.unpack_from(data, pos)
        message, pos = _read_str(data, pos + 2)
        klass = ERROR_CODES.get(code)
        if klass is None:
            raise ProtocolError(f"unknown wire error code {code}")
        return klass(message), pos
    raise ProtocolError(f"unknown value tag {bytes([tag])!r}")


def _decode(read: Callable, data: bytes, what: str):
    """Run ``read`` over the whole of ``data``; the one typed boundary.

    Any bytes either decode or raise :class:`ProtocolError`. The
    readers reject what they can see; the rest surfaces from Python
    itself and is converted here, once per payload rather than per
    field: a read past the end (``IndexError``, ``struct.error``), an
    unhashable dict key or set member (``TypeError``), a bad UTF-8 run
    (``UnicodeDecodeError``), and nesting deeper than the interpreter
    stack (``RecursionError``).
    """
    try:
        decoded, end = read(data, 0)
    except (IndexError, struct.error):
        raise ProtocolError(f"truncated {what} payload") from None
    except (TypeError, UnicodeDecodeError, RecursionError) as exc:
        raise ProtocolError(
            f"malformed {what} payload ({type(exc).__name__})"
        ) from None
    if end != len(data):
        raise ProtocolError(f"trailing bytes after {what}")
    return decoded


def decode_value(data: bytes) -> object:
    """Decode one value; trailing bytes are a protocol violation."""
    return _decode(_read_value, data, "value")


# ----------------------------------------------------------------------
# Message layer
# ----------------------------------------------------------------------
# The layouts are drawn in the module docstring.
_OP_HEAD = struct.Struct(">BB")  # presence flags, kind length
_OP_FIELDS = 0x7F  # key, value, low, high, after, rid, ctx
_O_VALUE_SLOTS = 0x1F  # key, value, low, high, after: the value layout
_O_RID = 1 << 5
_O_CTX = 1 << 6
_RID = struct.Struct(">qq")  # client, seq
_REPLY_HEAD = struct.Struct(">BHi")  # flags, forwards, owner
# The reply flag bits, one per optional field, then done and dedup.
(_R_VALUE, _R_ERROR, _R_IAM, _R_RECORDS, _R_REGION_HIGH, _R_CTX, _R_DONE,
 _R_DEDUP) = (1 << bit for bit in range(8))
_IAM_ENTRY = struct.Struct(">IIi")  # low length, high length, shard
_OPEN = 0xFFFFFFFF


def encode_op(op: Op) -> bytes:
    """Serialise an :class:`Op`: its head, then the slots it sets."""
    parts = [b""]
    write = parts.append
    flags = 0
    bit = 1
    try:
        for field in (op.key, op.value, op.low, op.high, op.after):
            if field is not None:
                flags |= bit
                _write_value(write, field)
            bit <<= 1
        if op.rid is not None:
            flags |= _O_RID
            try:
                write(_RID.pack(*op.rid))
            except (TypeError, struct.error):
                raise ProtocolError(
                    f"request id {op.rid!r} is not two signed 64-bit integers"
                ) from None
        if op.ctx is not None:
            flags |= _O_CTX
            _write_value(write, op.ctx)
    except UnicodeEncodeError as exc:
        raise _unencodable(exc) from None
    try:
        kind = op.kind.encode("utf-8")
        parts[0] = _OP_HEAD.pack(flags, len(kind)) + kind
    except (AttributeError, UnicodeEncodeError, struct.error):
        raise ProtocolError(f"op kind {op.kind!r} is not wire-encodable") from None
    return b"".join(parts)


def _read_op(data: bytes, pos: int) -> tuple[Op, int]:
    flags, size = _OP_HEAD.unpack_from(data, pos)
    if flags & ~_OP_FIELDS:
        raise ProtocolError(f"unknown op flag bits {flags:#04x}")
    pos += _OP_HEAD.size
    end = pos + size
    if end > len(data):
        raise ProtocolError("truncated op kind")
    kind = data[pos:end].decode("utf-8")
    pos = end
    # The value slots travel in the constructor's positional order.
    fields = []
    slots = flags & _O_VALUE_SLOTS
    while slots:
        field = None
        if slots & 1:
            field, pos = _read_value(data, pos)
        fields.append(field)
        slots >>= 1
    op = Op(kind, *fields)
    if flags > _O_VALUE_SLOTS:  # a request id, a trace context or both
        if flags & _O_RID:
            op.rid = _RID.unpack_from(data, pos)
            pos += _RID.size
        if flags & _O_CTX:
            op.ctx, pos = _read_value(data, pos)
    return op, pos


def decode_op(data: bytes) -> Op:
    """Rebuild an :class:`Op` from :func:`encode_op` output."""
    return _decode(_read_op, data, "op")


def _write_iam(write: Callable[[bytes], None], iam: list) -> None:
    write(_U32.pack(len(iam)))
    for low, high, shard in iam:
        low_data = b"" if low is None else low.encode("utf-8")
        high_data = b"" if high is None else high.encode("utf-8")
        write(
            _IAM_ENTRY.pack(
                _OPEN if low is None else len(low_data),
                _OPEN if high is None else len(high_data),
                shard,
            )
        )
        write(low_data + high_data)


def _read_cut(data: bytes, pos: int, size: int) -> tuple[Optional[str], int]:
    if size == _OPEN:
        return None, pos
    end = pos + size
    if end > len(data):
        raise ProtocolError("truncated IAM entry")
    return data[pos:end].decode("utf-8"), end


def _read_iam(data: bytes, pos: int) -> tuple[list, int]:
    """The IAM list at ``pos``; a count the payload cannot hold is
    refused before anything is sized by it."""
    (count,) = _u32_at(data, pos)
    pos += 4
    if pos + count * _IAM_ENTRY.size > len(data):
        raise ProtocolError(f"IAM count {count} exceeds its payload")
    iam = []
    for _ in range(count):
        low_size, high_size, shard = _IAM_ENTRY.unpack_from(data, pos)
        low, pos = _read_cut(data, pos + _IAM_ENTRY.size, low_size)
        high, pos = _read_cut(data, pos, high_size)
        iam.append((low, high, shard))
    return iam, pos


def encode_reply(reply: Reply) -> bytes:
    """Serialise a :class:`Reply`: its head, then the fields it sets."""
    parts = [b""]
    write = parts.append
    flags = _R_DONE if reply.done else 0
    if reply.dedup:
        flags |= _R_DEDUP
    try:
        if reply.value is not None:
            flags |= _R_VALUE
            _write_value(write, reply.value)
        if reply.error is not None:
            flags |= _R_ERROR
            _write_value(write, reply.error)
        if reply.iam:
            flags |= _R_IAM
            try:
                _write_iam(write, reply.iam)
            except (AttributeError, TypeError, ValueError, struct.error):
                raise ProtocolError(
                    f"IAM {reply.iam!r} is not a list of (low, high, shard)"
                ) from None
        if reply.records is not None:
            flags |= _R_RECORDS
            _write_value(write, reply.records)
        if reply.region_high is not None:
            flags |= _R_REGION_HIGH
            _write_value(write, reply.region_high)
        if reply.ctx is not None:
            flags |= _R_CTX
            _write_value(write, reply.ctx)
    except UnicodeEncodeError as exc:
        raise _unencodable(exc) from None
    try:
        parts[0] = _REPLY_HEAD.pack(flags, reply.forwards, reply.owner)
    except struct.error:
        raise ProtocolError(
            f"reply head out of range (forwards {reply.forwards!r}, "
            f"owner {reply.owner!r})"
        ) from None
    return b"".join(parts)


def _read_reply(data: bytes, pos: int) -> tuple[Reply, int]:
    flags, forwards, owner = _REPLY_HEAD.unpack_from(data, pos)
    pos += _REPLY_HEAD.size
    value = error = records = region_high = ctx = None
    iam: list = []
    if flags & _R_VALUE:
        value, pos = _read_value(data, pos)
    if flags & _R_ERROR:
        error, pos = _read_value(data, pos)
        if not isinstance(error, BaseException):
            raise ProtocolError("reply error field does not decode to an exception")
    if flags & _R_IAM:
        iam, pos = _read_iam(data, pos)
    if flags & _R_RECORDS:
        records, pos = _read_value(data, pos)
    if flags & _R_REGION_HIGH:
        region_high, pos = _read_value(data, pos)
    if flags & _R_CTX:
        ctx, pos = _read_value(data, pos)
    reply = Reply(
        value,
        error,
        iam,
        forwards,
        owner,
        records,
        region_high,
        bool(flags & _R_DONE),
        bool(flags & _R_DEDUP),
        ctx,
    )
    return reply, pos


def decode_reply(data: bytes) -> Reply:
    """Rebuild a :class:`Reply` from :func:`encode_reply` output."""
    return _decode(_read_reply, data, "reply")


def roundtrip_op(op: Op) -> Op:
    """Encode + decode an op — the in-process wire boundary."""
    return decode_op(encode_op(op))


def roundtrip_reply(reply: Reply) -> Reply:
    """Encode + decode a reply — the in-process wire boundary."""
    return decode_reply(encode_reply(reply))


# ----------------------------------------------------------------------
# Frame layer
# ----------------------------------------------------------------------
def pack_frame(kind: int, corr_id: int, payload: bytes) -> bytes:
    """One length-prefixed frame ready for a stream transport."""
    head = _FRAME_HEAD.pack(WIRE_VERSION, kind, corr_id)
    return _U32.pack(len(head) + len(payload)) + head + payload


def unpack_frame(body: bytes) -> tuple[int, int, bytes]:
    """Split a frame body (everything after the length prefix).

    Returns ``(kind, corr_id, payload)``; rejects unknown versions.
    """
    if len(body) < _FRAME_HEAD.size:
        raise ProtocolError(f"frame body of {len(body)} bytes is too short")
    version, kind, corr_id = _FRAME_HEAD.unpack_from(body)
    if version != WIRE_VERSION:
        raise ProtocolError(
            f"wire version {version} is not the supported {WIRE_VERSION}"
        )
    return kind, corr_id, body[_FRAME_HEAD.size:]
