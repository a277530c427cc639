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
  tags: IAM entries, request ids, trace contexts and scan records must
  come back as the tuples the rest of the layer pattern-matches on.
* **Messages** — :func:`encode_op` / :func:`decode_op` and
  :func:`encode_reply` / :func:`decode_reply` serialise the slot tuples
  of :class:`~repro.distributed.messages.Op` and
  :class:`~repro.distributed.messages.Reply`. Exceptions travel as a
  ``(code, message)`` pair through the :data:`ERROR_CODES` registry and
  come back as fresh instances of the same class, so ``raise
  reply.error`` behaves identically on either side of a wire.
* **Frames** — the length-prefixed envelope of the asyncio serving
  protocol (:mod:`repro.serving`)::

      u32 length | u8 version | u8 kind | u32 corr_id | payload

  ``length`` counts everything after itself. ``corr_id`` is the
  pipelining correlation id the client matches replies with. A version
  mismatch or malformed payload raises
  :class:`~repro.distributed.errors.ProtocolError` — wire damage is a
  protocol violation, never a silent misdecode.
"""

from __future__ import annotations

import io
import struct
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
WIRE_VERSION = 1

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
def _write_str(out: io.BytesIO, text: str) -> None:
    data = text.encode("utf-8")
    out.write(_U32.pack(len(data)))
    out.write(data)


def _write_value(out: io.BytesIO, value: object) -> None:
    if value is None:
        out.write(b"N")
    elif value is True:
        out.write(b"T")
    elif value is False:
        out.write(b"F")
    elif isinstance(value, int):
        if -(2**63) <= value < 2**63:
            out.write(b"i")
            out.write(_I64.pack(value))
        else:
            out.write(b"I")
            _write_str(out, str(value))
    elif isinstance(value, float):
        out.write(b"f")
        out.write(_F64.pack(value))
    elif isinstance(value, str):
        out.write(b"s")
        _write_str(out, value)
    elif isinstance(value, bytes):
        out.write(b"b")
        out.write(_U32.pack(len(value)))
        out.write(value)
    elif isinstance(value, tuple):
        out.write(b"t")
        out.write(_U32.pack(len(value)))
        for item in value:
            _write_value(out, item)
    elif isinstance(value, list):
        out.write(b"l")
        out.write(_U32.pack(len(value)))
        for item in value:
            _write_value(out, item)
    elif isinstance(value, dict):
        out.write(b"d")
        out.write(_U32.pack(len(value)))
        for key, item in value.items():
            _write_value(out, key)
            _write_value(out, item)
    elif isinstance(value, (set, frozenset)):
        out.write(b"S")
        out.write(_U32.pack(len(value)))
        # Sorted for a canonical encoding (sets have no wire order).
        for item in sorted(value, key=repr):
            _write_value(out, item)
    elif isinstance(value, BaseException):
        out.write(b"e")
        out.write(_U16.pack(_error_code(value)))
        _write_str(out, _error_message(value))
    else:
        raise ProtocolError(
            f"value of type {type(value).__name__!r} is not wire-encodable"
        )


def encode_value(value: object) -> bytes:
    """Encode one value into the tagged-union wire form."""
    out = io.BytesIO()
    _write_value(out, value)
    return out.getvalue()


def _read_exactly(stream: io.BytesIO, count: int) -> bytes:
    data = stream.read(count)
    if len(data) < count:
        raise ProtocolError("truncated value payload")
    return data


def _read_str(stream: io.BytesIO) -> str:
    (length,) = _U32.unpack(_read_exactly(stream, 4))
    try:
        return _read_exactly(stream, length).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"malformed string payload: {exc}") from None


def _read_value(stream: io.BytesIO) -> object:
    tag = stream.read(1)
    if tag == b"N":
        return None
    if tag == b"T":
        return True
    if tag == b"F":
        return False
    if tag == b"i":
        return _I64.unpack(_read_exactly(stream, 8))[0]
    if tag == b"I":
        return int(_read_str(stream))
    if tag == b"f":
        return _F64.unpack(_read_exactly(stream, 8))[0]
    if tag == b"s":
        return _read_str(stream)
    if tag == b"b":
        (length,) = _U32.unpack(_read_exactly(stream, 4))
        return _read_exactly(stream, length)
    if tag == b"t":
        (count,) = _U32.unpack(_read_exactly(stream, 4))
        return tuple(_read_value(stream) for _ in range(count))
    if tag == b"l":
        (count,) = _U32.unpack(_read_exactly(stream, 4))
        return [_read_value(stream) for _ in range(count)]
    if tag == b"d":
        (count,) = _U32.unpack(_read_exactly(stream, 4))
        return {_read_value(stream): _read_value(stream) for _ in range(count)}
    if tag == b"S":
        (count,) = _U32.unpack(_read_exactly(stream, 4))
        return {_read_value(stream) for _ in range(count)}
    if tag == b"e":
        (code,) = _U16.unpack(_read_exactly(stream, 2))
        message = _read_str(stream)
        klass = ERROR_CODES.get(code)
        if klass is None:
            raise ProtocolError(f"unknown wire error code {code}")
        return klass(message)
    raise ProtocolError(f"unknown value tag {tag!r}")


def decode_value(data: bytes) -> object:
    """Decode one value; trailing bytes are a protocol violation.

    Any bytes either decode or raise :class:`ProtocolError`. The tag
    walk rejects what it can see; the rest surfaces from Python itself
    and is converted here, once per payload rather than per value: a
    big-int literal that is not a number (``ValueError``), an
    unhashable dict key or set member (``TypeError``), and nesting
    deeper than the interpreter stack (``RecursionError``).
    """
    stream = io.BytesIO(data)
    try:
        value = _read_value(stream)
    except (ValueError, TypeError, RecursionError) as exc:
        raise ProtocolError(
            f"malformed value payload ({type(exc).__name__})"
        ) from None
    if stream.read(1):
        raise ProtocolError("trailing bytes after value")
    return value


# ----------------------------------------------------------------------
# Message layer
# ----------------------------------------------------------------------
def encode_op(op: Op) -> bytes:
    """Serialise an :class:`Op` (its eight slots, as one tuple)."""
    return encode_value(
        (op.kind, op.key, op.value, op.low, op.high, op.after, op.rid, op.ctx)
    )


def decode_op(data: bytes) -> Op:
    """Rebuild an :class:`Op` from :func:`encode_op` output."""
    fields = decode_value(data)
    if not isinstance(fields, tuple) or len(fields) != 8:
        raise ProtocolError("malformed op payload")
    kind, key, value, low, high, after, rid, ctx = fields
    return Op(kind, key=key, value=value, low=low, high=high,
              after=after, rid=rid, ctx=ctx)


def encode_reply(reply: Reply) -> bytes:
    """Serialise a :class:`Reply` (its ten slots, as one tuple)."""
    return encode_value(
        (
            reply.value,
            reply.error,
            reply.iam,
            reply.forwards,
            reply.owner,
            reply.records,
            reply.region_high,
            reply.done,
            reply.dedup,
            reply.ctx,
        )
    )


def decode_reply(data: bytes) -> Reply:
    """Rebuild a :class:`Reply` from :func:`encode_reply` output."""
    fields = decode_value(data)
    if not isinstance(fields, tuple) or len(fields) != 10:
        raise ProtocolError("malformed reply payload")
    value, error, iam, forwards, owner, records, region_high, done, dedup, ctx = fields
    if error is not None and not isinstance(error, BaseException):
        raise ProtocolError("reply error field does not decode to an exception")
    return Reply(
        value=value,
        error=error,
        iam=iam,
        forwards=forwards,
        owner=owner,
        records=records,
        region_high=region_high,
        done=done,
        dedup=dedup,
        ctx=ctx,
    )


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
