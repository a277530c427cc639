"""The asyncio serving tier: codec, frames, server, clients, chaos.

Four layers of coverage, innermost first:

* the wire codec — every encodable value roundtrips to an equal value
  of the same type, exceptions come back as fresh typed instances, and
  any bytes either decode or raise :class:`ProtocolError` (Hypothesis
  properties over the tagged-union value space and damaged encodings);
* the frame envelope — version gating and the length cap;
* a live server over a Unix-domain socket — point ops, scans, batches,
  IAM convergence, typed errors, pipelining, group fsync amortisation,
  deadlines with dedup, crash controls, hostile frames, a client that
  never reads its replies, connections that never frame, and TCP, and
  the edges of the blocking transport a session drives
  (late replies, a deadline mid-frame, hang-ups, an oversized prefix,
  socket set-up, a failed hello);
* the acceptance bridge — the chaos differential schedule replayed
  over a real socket converges exactly like the simulated fabric, and
  one fault plan injects the same faults on both.
"""

import asyncio
import contextlib
import itertools
import logging
import os
import random
import socket
import struct
import threading
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Cluster,
    DuplicateKeyError,
    KeyNotFoundError,
    ShardPolicy,
    StorageError,
)
from repro.distributed import (
    FaultPlan,
    MessageLostError,
    OpTimeoutError,
    RetryPolicy,
    ServerDownError,
    ShardUnavailableError,
    UnknownShardError,
    run_chaos,
)
from repro.distributed.codec import (
    ERROR_CODES,
    FRAME_REQUEST,
    FRAME_RESPONSE,
    WIRE_VERSION,
    decode_op,
    decode_reply,
    decode_value,
    encode_op,
    encode_reply,
    encode_value,
    pack_frame,
    unpack_frame,
)
from repro.distributed.errors import ConfigurationError, ProtocolError
from repro.distributed.messages import Op, Reply
from repro.serving import (
    DEFAULT_MAX_FRAME,
    RemoteTransport,
    ServingFixture,
    connect,
    read_frame,
)
from repro.serving.client import DEFAULT_WALL_TIMEOUT, LoopRunner
from repro.serving.server import ServingServer, _Conn

_U32 = struct.Struct(">I")


def _counter_sum(registry, name):
    return sum(
        inst.value
        for inst in registry.instruments()
        if inst.name == name and not hasattr(inst, "set") and hasattr(inst, "value")
    )


_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _keys(count):
    """``count`` distinct alphabet-legal keys spread evenly, in order,
    over the three-letter keys ``aaa`` .. ``zzz``."""
    span = len(_LETTERS) ** 3
    assert count <= span
    keys = []
    for i in range(count):
        n = i * span // count  # strictly increasing: span >= count
        keys.append(_LETTERS[n // 676] + _LETTERS[n // 26 % 26] + _LETTERS[n % 26])
    return keys


@pytest.mark.parametrize("count", [26, 30, 40, 50, 60, 80, 1500])
def test_keys_are_distinct_for_every_size_the_tests_use(count):
    keys = _keys(count)
    assert len(set(keys)) == count
    assert keys == sorted(keys)
    assert keys[0] == "aaa" and keys[-1][0] == "z"


# The tagged-union value space. Sets decode as mutable ``set``, so set
# members and dict keys are drawn from scalars and tuples only;
# exceptions hash by identity and stay out of those positions too.
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),  # unbounded: exercises the big-int escape
    st.floats(allow_nan=False),
    st.text(),
    st.binary(),
)
_HASHABLES = st.recursive(
    _SCALARS, lambda inner: st.lists(inner, max_size=3).map(tuple), max_leaves=6
)
_EXCEPTIONS = st.builds(
    lambda klass, message: klass(message),
    st.sampled_from(sorted(ERROR_CODES.values(), key=repr)),
    st.text(),
)
# Record lists: all-``str`` pairs take the record block, pairs with any
# other value keep the generic list layout. Keys and values are drawn to
# hold non-ASCII code points, NUL and the empty string.
_RECORD_TEXT = st.text(alphabet=st.sampled_from("ab\x00é✓\U0001f600"), max_size=4)
_RECORDS = st.lists(
    st.tuples(_RECORD_TEXT, _RECORD_TEXT), min_size=1, max_size=6
) | st.lists(st.tuples(_RECORD_TEXT, _SCALARS), min_size=1, max_size=6)
_VALUES = st.recursive(
    _SCALARS | _EXCEPTIONS | _RECORDS,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(_HASHABLES, inner, max_size=4)
        | st.frozensets(_HASHABLES, max_size=4)
        | st.lists(st.tuples(_RECORD_TEXT, inner), min_size=1, max_size=4)
    ),
    max_leaves=12,
)
_TAGS = [bytes([tag]) for tag in b"NTFiIfsbtldSer"]
_BYTES = [bytes([byte]) for byte in range(256)]


_TEXT_OR_NONE = st.none() | st.text(max_size=8)
#: Request ids and trace contexts: two integers, over a rid's whole i64
#: range.
_I64 = st.integers(-(2**63), 2**63 - 1)
_WIRE_IDS = st.none() | st.tuples(_I64, _I64)
_OPS = st.builds(
    Op,
    st.text(max_size=12),  # any kind crosses; the server judges it
    _TEXT_OR_NONE,
    _VALUES,
    _TEXT_OR_NONE,
    _TEXT_OR_NONE,
    _TEXT_OR_NONE,
    _WIRE_IDS,
    _WIRE_IDS,
)
_IAMS = st.lists(
    st.tuples(_TEXT_OR_NONE, _TEXT_OR_NONE, st.integers(-(2**31), 2**31 - 1)),
    max_size=4,
)
_REPLIES = st.builds(
    Reply,
    _VALUES,
    st.none() | _EXCEPTIONS,
    _IAMS,
    st.integers(0, 0xFFFF),
    st.integers(-(2**31), 2**31 - 1),
    st.none() | st.just([]) | _RECORDS,
    _TEXT_OR_NONE,
    st.booleans(),
    st.booleans(),
    _WIRE_IDS,
)


def _op_slots(op):
    return _canon(
        (op.kind, op.key, op.value, op.low, op.high, op.after, op.rid, op.ctx)
    )


def _reply_slots(reply):
    return _canon(
        (
            reply.value, reply.error, reply.iam, reply.forwards, reply.owner,
            reply.records, reply.region_high, reply.done, reply.dedup,
            reply.ctx,
        )
    )


@st.composite
def _damaged_encodings(draw, encode=encode_value, values=_VALUES):
    """Arbitrary bytes, or a real encoding with a few bytes mangled."""
    if draw(st.booleans()):
        data = bytearray(draw(st.binary(max_size=64)))
    else:
        data = bytearray(encode(draw(values)))
    for _ in range(draw(st.integers(0, 4))):
        pos = draw(st.integers(0, len(data)))
        edit = draw(st.sampled_from(("byte", "retag", "tag", "cut")))
        if edit == "tag":
            data[pos:pos] = draw(st.sampled_from(_TAGS))
        elif edit == "cut":
            del data[pos:pos + draw(st.integers(1, 8))]
        elif pos < len(data):
            byte = draw(st.sampled_from(_TAGS if edit == "retag" else _BYTES))
            data[pos:pos + 1] = byte
    return bytes(data)


def _run(raw):
    """A record block run: its length, then its U+0000-joined UTF-8."""
    return _U32.pack(len(raw)) + raw


def _takes_the_block(value):
    """Whether ``value`` is a non-empty list of ``(str, str)`` tuples."""
    return (
        type(value) is list
        and len(value) > 0
        and all(
            type(item) is tuple
            and len(item) == 2
            and all(type(s) is str for s in item)
            for item in value
        )
    )


def _canon(value):
    """A type-exact, comparable view (exceptions compare by identity)."""
    if isinstance(value, BaseException):
        return (type(value), str(value))
    if isinstance(value, (list, tuple)):
        return (type(value), tuple(_canon(item) for item in value))
    if isinstance(value, dict):
        return (dict, frozenset((_canon(k), _canon(v)) for k, v in value.items()))
    if isinstance(value, (set, frozenset)):
        return (set, frozenset(_canon(item) for item in value))
    return (type(value), value)


def _drive_faulty(fabric, client, registry, ops):
    """A seeded point-op workload with two scripted crash cycles.

    Returns what the plan and the retry/dedup protocol did, so that two
    fabrics running the same plan can be compared.
    """
    rng = random.Random(3)
    outcomes = []
    for step in range(ops):
        if step in (ops // 3, 2 * ops // 3):
            fabric.crash_server(0, downtime=0.12)
        key = "".join(rng.choice("abcdefghij") for _ in range(rng.randint(1, 3)))
        action = rng.random()
        try:
            if action < 0.4:
                outcomes.append(client.insert(key, key.upper()))
            elif action < 0.6:
                outcomes.append(client.get(key))
            elif action < 0.8:
                outcomes.append(client.delete(key))
            else:
                outcomes.append(client.put(key, "v2"))
        except (DuplicateKeyError, KeyNotFoundError) as exc:
            outcomes.append(type(exc).__name__)
    fabric.plan.heal()
    fabric.restore_all()
    return {
        "faults_injected": fabric.faults_injected,
        "faults_by_label": {
            inst.labels: inst.value
            for inst in registry.instruments()
            if inst.name == "dist_faults_total"
        },
        "messages": fabric.messages,
        "retries": client.retries_total,
        "dedup_hits": _counter_sum(registry, "dist_dedup_hits_total"),
        "crashes": _counter_sum(registry, "dist_server_crashes_total"),
        "clock": fabric.now,
        "records": list(client.items()),
        "outcomes": outcomes,
        "duplicate_applies": fabric.duplicate_applies(),
    }


# ======================================================================
# The value codec
# ======================================================================
def _put_with_rid_and_ctx():
    op = Op.put("key", {"v": [1, 2.5]})
    op.rid = (7, 42)
    op.ctx = (123, 456)
    return op


#: Wire bytes pinned under ``WIRE_VERSION`` 5: (id, encode, decode,
#: make, hex). Version 3 re-pinned every op and reply (a fixed head,
#: then only the fields set; the IAM as a count and its entries); the
#: values kept their version-2 bytes. Version 4 re-pinned the op with a
#: request id, which is now two i64 (16 bytes, not a 23-byte tagged
#: tuple). Version 5 re-pinned the reply whose records take the block,
#: whose runs are now strings joined by U+0000 (40 bytes, not 54). A
#: change to any of them is a wire break, not a refactor.
_GOLDEN = [
    (
        "get-op",
        encode_op,
        decode_op,
        lambda: Op.get("abc"),
        "01036765747300000003616263",
    ),
    (
        "put-op-with-rid-and-ctx",
        encode_op,
        decode_op,
        _put_with_rid_and_ctx,
        "630370757473000000036b657964000000017300000001766c00000002690000"
        "0000000000016640040000000000000000000000000007000000000000002a74"
        "0000000269000000000000007b6900000000000001c8",
    ),
    (
        "reply-with-one-iam-entry",
        encode_reply,
        decode_reply,
        lambda: Reply(value="v", iam=[("g", "t", 5)], owner=5),
        "45000000000005730000000176000000010000000100000001000000056774",
    ),
    (
        # Records whose values are not all strings: the generic list.
        "scan-reply",
        encode_reply,
        decode_reply,
        lambda: Reply(
            records=[("aa", 1), ("ab", None)],
            region_high="t",
            done=False,
            iam=[(None, "t", 0)],
            owner=0,
        ),
        "1c00000000000000000001ffffffff0000000100000000746c00000002740000"
        "0002730000000261616900000000000000017400000002730000000261624e73"
        "0000000174",
    ),
    (
        # All values strings: two runs, each its strings joined by
        # U+0000 behind its length in UTF-8 bytes ("✓" is three).
        "str-scan-reply",
        encode_reply,
        decode_reply,
        lambda: Reply(
            records=[("apple", "crunchy"), ("mango", "ripe ✓")],
            done=True,
            iam=[("m", None, 1)],
            owner=1,
        ),
        "4c0000000000010000000100000001ffffffff000000016d7200000002000000"
        "0b6170706c65006d616e676f000000106372756e636879007269706520e29c93",
    ),
    (
        "errored-reply",
        encode_reply,
        decode_reply,
        lambda: Reply(
            error=KeyNotFoundError("missing"),
            iam=[("g", None, 2)],
            owner=2,
            forwards=1,
        ),
        "46000100000002650004000000076d697373696e670000000100000001ffffff"
        "ff0000000267",
    ),
    (
        "big-int",
        encode_value,
        decode_value,
        lambda: -(2**100),
        "490000000df0000000000000000000000000",
    ),
    (
        "set",
        encode_value,
        decode_value,
        lambda: {"b", "a", 10},
        "530000000373000000016173000000016269000000000000000a",
    ),
    (
        "control-dict",
        encode_value,
        decode_value,
        lambda: {
            "cmd": "crash", "shard": 3, "now": 1.5, "data": b"\x00\xff",
            "ok": True,
        },
        "64000000057300000003636d6473000000056372617368730000000573686172"
        "6469000000000000000373000000036e6f77663ff80000000000007300000004"
        "64617461620000000200ff73000000026f6b54",
    ),
]


class TestValueCodec:
    @pytest.mark.parametrize(
        "encode, decode, make, golden",
        [row[1:] for row in _GOLDEN],
        ids=[row[0] for row in _GOLDEN],
    )
    def test_wire_bytes_are_pinned(self, encode, decode, make, golden):
        data = bytes.fromhex(golden)
        assert WIRE_VERSION == 5
        assert encode(make()) == data
        # And the bytes decode to a message that encodes back to them.
        assert encode(decode(data)) == data

    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -1,
            2**62,
            2**100,          # the big-int escape
            -(2**100),
            1.5,
            -0.0,
            "",
            "héllo ünïcode ✓",
            b"",
            b"\x00\xff\x7f",
            [1, [2, [3, "x"]]],
            (1, (2, None)),
            {"k": (1, 2), "nested": {"a": [True]}},
            {1, 2, 3},
            frozenset(),
            [("iam", "entry", 3), ("rid",), {"mixed": b"\x01"}],
        ],
    )
    def test_roundtrip_is_equal_and_type_exact(self, value):
        back = decode_value(encode_value(value))
        assert back == value
        assert type(back) in (type(value), set)  # frozenset lands as set

    def test_tuples_and_lists_stay_distinct(self):
        # IAM entries, rids and scan records are pattern-matched as
        # tuples on the far side — a list coming back would be a bug.
        assert decode_value(encode_value((1, 2))) == (1, 2)
        assert isinstance(decode_value(encode_value((1, 2))), tuple)
        assert isinstance(decode_value(encode_value([1, 2])), list)

    @pytest.mark.parametrize("klass", sorted(ERROR_CODES.values(), key=repr))
    def test_every_registered_exception_roundtrips_typed(self, klass):
        back = decode_value(encode_value(klass("boom")))
        assert type(back) is klass
        assert "boom" in str(back)

    def test_unregistered_subclass_degrades_to_nearest_ancestor(self):
        class Exotic(KeyNotFoundError):
            pass

        back = decode_value(encode_value(Exotic("gone")))
        assert type(back) is KeyNotFoundError
        assert "gone" in str(back)

    def test_error_code_registry_is_injective(self):
        # Codes are wire contract: append-only, no aliases.
        assert len(set(ERROR_CODES)) == len(ERROR_CODES)
        assert len(set(ERROR_CODES.values())) == len(ERROR_CODES)

    def test_flow_lint_found_exceptions_are_registered(self):
        # TH011 (wire exhaustiveness) proved these escape the dispatch
        # surface: a scan cursor invalidated by a split, an injected
        # crash point, a paranoid audit tripping at a mutation site.
        # Before registration each one degraded to the code-1 catch-all
        # and came back as a bare TrieHashingError.
        from repro.check import ParanoidAuditError
        from repro.core.cursor import CursorInvalidError
        from repro.core.errors import CrashError

        assert ERROR_CODES[21] is CursorInvalidError
        assert ERROR_CODES[22] is CrashError
        assert ERROR_CODES[23] is ParanoidAuditError
        for klass in (CursorInvalidError, CrashError, ParanoidAuditError):
            back = decode_value(encode_value(klass("sliced")))
            assert type(back) is klass
            assert "sliced" in str(back)

    def test_paranoid_audit_error_accepts_a_plain_message(self):
        # The wire decoder rebuilds exceptions as klass(message); the
        # report-carrying constructor must tolerate that shape.
        from repro.check import ParanoidAuditError

        err = ParanoidAuditError("replayed off the wire")
        assert err.report is None
        assert "replayed off the wire" in str(err)

    def test_unencodable_type_rejected(self):
        # A type of no wire tag, and strings no UTF-8 holds (lone
        # surrogates), at any depth.
        for value in (object(), "x\ud800", ["ok", ("v\udfff",)], {"\udc80": 1}):
            with pytest.raises(ProtocolError):
                encode_value(value)

    def test_trailing_bytes_rejected(self):
        with pytest.raises(ProtocolError):
            decode_value(encode_value(1) + b"\x00")

    def test_truncated_payload_rejected(self):
        data = encode_value("hello world")
        with pytest.raises(ProtocolError):
            decode_value(data[:-3])

    def test_decoded_values_never_alias_the_input(self):
        value = {"deep": [1, {"x": 2}]}
        back = decode_value(encode_value(value))
        back["deep"][1]["x"] = 999
        assert value["deep"][1]["x"] == 2

    @given(value=_VALUES)
    @settings(max_examples=150)
    def test_every_value_roundtrips(self, value):
        data = encode_value(value)
        assert _canon(decode_value(data)) == _canon(value)
        # Records take the block exactly when no string holds U+0000,
        # the block's separator.
        if _takes_the_block(value):
            assert (data[:1] == b"r") == all(
                "\x00" not in s for item in value for s in item
            )

    @given(data=_damaged_encodings())
    @settings(max_examples=300)
    def test_any_bytes_decode_or_raise_protocol_error(self, data):
        try:
            decode_value(data)
        except ProtocolError:
            pass

    @pytest.mark.parametrize(
        "payload",
        [
            b"I" + _U32.pack(4) + b"xyz",
            b"d" + _U32.pack(1) + b"l" + _U32.pack(0) + b"N",
            b"S" + _U32.pack(1) + b"d" + _U32.pack(0),
            (b"l" + _U32.pack(1)) * 5000 + b"N",
        ],
        ids=["big-int-cut", "list-dict-key", "dict-set-member", "deep"],
    )
    def test_hostile_payloads_raise_protocol_error(self, payload):
        # Python itself raises IndexError / TypeError / RecursionError
        # on some of these; only ProtocolError is the server's typed
        # boundary.
        with pytest.raises(ProtocolError):
            decode_value(payload)

    @pytest.mark.parametrize("value", [10**5000, -(10**5000)], ids=["+", "-"])
    def test_big_ints_past_the_decimal_cap_roundtrip(self, value):
        # str(10**5000) raises ValueError on interpreters that cap
        # int/str conversion at 4 300 digits; the escape carries bytes.
        back = decode_value(encode_value(value))
        assert type(back) is int
        assert back == value

    def test_records_take_the_block_and_decode_as_the_list_does(self):
        # Empty, multi-byte and astral strings take the block; a string
        # holding U+0000, the block's separator, in a key or a value
        # takes the generic list layout. Both decode to the same tuples.
        for records, tag in (
            ([("ab", "é✓"), ("", ""), ("k", "\U0001f600")], b"r"),
            ([("", "")], b"r"),
            ([("", "x"), ("y", "")], b"r"),
            ([("a\x00b", "é✓"), ("", ""), ("k", "\U0001f600")], b"l"),
            ([("ab", "x"), ("k", "\x00")], b"l"),
            ([("\x00", "\x00")], b"l"),
        ):
            data = encode_value(records)
            assert data[:1] == tag
            back = decode_value(data)
            assert back == records
            assert all(type(item) is tuple for item in back)
        # Not every item a (str, str) pair: the generic list layout,
        # whether the first item or a later one is the odd one out.
        for mixed in (
            [("a", 1), ("b", "x")],
            [("a", "x"), ("b", 1)],
            [("a", "x"), ("b", "y", "z")],
            [("a", "x"), ["b", "y"]],
            [(1, "a")],
        ):
            data = encode_value(mixed)
            assert data[:1] == b"l"
            assert decode_value(data) == mixed

    @pytest.mark.parametrize(
        "payload",
        [
            b"r\x00\x00",
            b"r" + _U32.pack(2**32 - 1) + _run(b"a\x00b") + _run(b"c\x00d"),
            b"r" + _U32.pack(2) + _run(b"a\x00b")[:-1],
            b"r" + _U32.pack(2) + _run(b"a\x00b") + _run(b"c\x00d")[:-1],
            b"r" + _U32.pack(2) + _run(b"a\x00\xff") + _run(b"c\x00d"),
            b"r" + _U32.pack(3) + _run(b"a\x00b") + _run(b"c\x00d\x00e"),
            b"r" + _U32.pack(2) + _run(b"a\x00b") + _run(b"c\x00d\x00e"),
        ],
        ids=[
            "short-count",
            "count-beyond-payload",
            "cut-key-run",
            "cut-value-run",
            "bad-utf8",
            "fewer-pieces-than-count",
            "more-pieces-than-count",
        ],
    )
    def test_damaged_record_blocks_raise_protocol_error(self, payload):
        tracemalloc.start()
        try:
            with pytest.raises(ProtocolError):
                decode_value(payload)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A forged count fails before anything is sized by it.
        assert peak < 1 << 20


# ======================================================================
# The message codec
# ======================================================================
#: A reply head whose flags set ``done`` and the IAM, and one IAM entry
#: with both cuts open.
_HEAD_IAM = b"\x44\x00\x00\x00\x00\x00\x00"
_ENTRY_NONE = struct.pack(">IIi", 0xFFFFFFFF, 0xFFFFFFFF, 0)


class TestMessageCodec:
    def test_op_roundtrips_every_slot(self):
        op = Op.insert("key", {"v": [1, 2]})
        op.rid = (7, 42)
        op.ctx = (123, 456)
        back = decode_op(encode_op(op))
        assert (back.kind, back.key, back.value) == ("insert", "key", {"v": [1, 2]})
        assert back.rid == (7, 42)
        assert back.ctx == (123, 456)

    def test_scan_op_roundtrips_bounds(self):
        back = decode_op(encode_op(Op.scan("aa", "zz", after="mm")))
        assert (back.low, back.high, back.after) == ("aa", "zz", "mm")

    def test_reply_roundtrips_error_and_iam(self):
        reply = Reply(
            value=None,
            error=DuplicateKeyError("key exists"),
            iam=[("g", "t", 5)],
            forwards=2,
            owner=5,
            records=[("aa", 1), ("ab", 2)],
            region_high="t",
            done=False,
            dedup=True,
        )
        back = decode_reply(encode_reply(reply))
        assert type(back.error) is DuplicateKeyError
        assert back.iam == [("g", "t", 5)]
        assert isinstance(back.iam[0], tuple)
        assert back.records == [("aa", 1), ("ab", 2)]
        assert (back.forwards, back.owner, back.region_high) == (2, 5, "t")
        assert (back.done, back.dedup) == (False, True)

    def test_malformed_payloads_rejected(self):
        with pytest.raises(ProtocolError):
            decode_op(encode_value((1, 2, 3)))
        with pytest.raises(ProtocolError):
            decode_reply(encode_value("not a reply"))

    def test_unset_fields_take_no_bytes(self):
        # A head, the kind and the key; a head alone.
        assert len(encode_op(Op.get("abc"))) == 2 + 3 + 8
        assert len(encode_reply(Reply(owner=3))) == 7
        back = decode_reply(encode_reply(Reply(owner=3)))
        assert _reply_slots(back) == _reply_slots(Reply(owner=3))

    def test_addressed_never_crosses_the_wire(self):
        op = Op.get("abc")
        op.addressed = 4
        assert decode_op(encode_op(op)).addressed is None
        assert encode_op(op) == encode_op(Op.get("abc"))

    def test_unencodable_heads_fail_typed(self):
        with pytest.raises(ProtocolError):
            encode_op(Op("k" * 256, key="a"))
        with pytest.raises(ProtocolError):
            encode_op(Op(["get"], key="a"))
        with pytest.raises(ProtocolError):
            encode_op(Op("get\ud800", key="a"))
        with pytest.raises(ProtocolError):
            encode_reply(Reply(forwards=1 << 16))
        with pytest.raises(ProtocolError):
            encode_reply(Reply(iam=[("g", "t")]))
        with pytest.raises(ProtocolError):
            encode_reply(Reply(iam=[("g", "t", 1 << 40)]))

    @pytest.mark.parametrize(
        "op",
        [
            Op.put("abc", "v\udfff"),
            Op.get("x\ud800"),
            Op("scan", low="a", high="\udfff"),
            Op("put", key="abc", value="v", rid=(1, 2), ctx=("\ud800",)),
        ],
        ids=["value", "key", "scan-bound", "ctx"],
    )
    def test_lone_surrogates_in_an_op_fail_typed(self, op):
        with pytest.raises(ProtocolError, match="not UTF-8 encodable"):
            encode_op(op)

    @pytest.mark.parametrize(
        "reply",
        [
            Reply(value="v\udfff"),
            Reply(records=[("abc", "\ud800")]),
            Reply(region_high="\udfff"),
            Reply(error=KeyNotFoundError("\ud800")),
        ],
        ids=["value", "records", "region-high", "error-message"],
    )
    def test_lone_surrogates_in_a_reply_fail_typed(self, reply):
        with pytest.raises(ProtocolError, match="not UTF-8 encodable"):
            encode_reply(reply)

    @pytest.mark.parametrize(
        "rid",
        [(1,), (1, 2, 3), (1, 2**63), (-(2**63) - 1, 0), ("a", "b"), (1.0, 2), 5],
        ids=["one", "three", "past-i64", "below-i64", "strings", "float", "an-int"],
    )
    def test_a_rid_not_two_i64_fails_typed_at_encode(self, rid):
        with pytest.raises(ProtocolError, match="request id"):
            encode_op(Op("put", key="abc", value="v", rid=rid))

    @given(op=_OPS)
    @settings(max_examples=150)
    def test_every_op_roundtrips(self, op):
        assert _op_slots(decode_op(encode_op(op))) == _op_slots(op)

    @given(reply=_REPLIES)
    @settings(max_examples=150)
    def test_every_reply_roundtrips(self, reply):
        assert _reply_slots(decode_reply(encode_reply(reply))) == _reply_slots(
            reply
        )

    @given(data=_damaged_encodings(encode_op, _OPS))
    @settings(max_examples=300)
    def test_any_bytes_decode_as_an_op_or_raise_protocol_error(self, data):
        try:
            decode_op(data)
        except ProtocolError:
            pass

    @given(data=_damaged_encodings(encode_reply, _REPLIES))
    @settings(max_examples=300)
    def test_any_bytes_decode_as_a_reply_or_raise_protocol_error(self, data):
        try:
            decode_reply(data)
        except ProtocolError:
            pass

    @pytest.mark.parametrize(
        "decode, payload, match",
        [
            (decode_op, b"", "truncated"),
            (decode_op, b"\x01", "truncated"),
            (decode_op, b"\x80\x03get", "flag bits"),
            (decode_op, b"\x00\x0aget", "truncated op kind"),
            (decode_op, b"\x00\x02\xff\xfe", "UnicodeDecodeError"),
            (decode_op, b"\x01\x03get", "truncated"),
            (decode_op, b"\x00\x03getN", "trailing"),
            (decode_reply, b"\x40\x00\x00", "truncated"),
            (
                decode_reply,
                _HEAD_IAM + _U32.pack(2**32 - 1) + _ENTRY_NONE,
                "IAM count 4294967295 exceeds",
            ),
            (decode_reply, _HEAD_IAM + _U32.pack(1) + _ENTRY_NONE[:-1], "IAM count"),
            (
                decode_reply,
                _HEAD_IAM + _U32.pack(1) + struct.pack(">IIi", 9, 0, 1) + b"ab",
                "truncated IAM entry",
            ),
            (
                decode_reply,
                _HEAD_IAM + _U32.pack(1) + struct.pack(">IIi", 2, 0, 1) + b"\xff\xfe",
                "UnicodeDecodeError",
            ),
            (
                decode_reply,
                b"\x42\x00\x00\x00\x00\x00\x00" + encode_value("boom"),
                "exception",
            ),
            (decode_reply, b"\x41\x00\x00\x00\x00\x00\x00", "truncated"),
            (decode_reply, encode_reply(Reply()) + b"\x00", "trailing"),
        ],
        ids=[
            "op-empty",
            "op-head-cut",
            "op-unknown-flag",
            "op-kind-cut",
            "op-kind-bad-utf8",
            "op-field-missing",
            "op-trailing",
            "reply-head-cut",
            "iam-count-beyond-payload",
            "iam-entry-cut",
            "iam-cut-past-payload",
            "iam-cut-bad-utf8",
            "reply-error-not-an-exception",
            "reply-field-missing",
            "reply-trailing",
        ],
    )
    def test_hostile_heads_raise_protocol_error(self, decode, payload, match):
        tracemalloc.start()
        try:
            with pytest.raises(ProtocolError, match=match):
                decode(payload)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A forged count fails before anything is sized by it.
        assert peak < 1 << 20


# ======================================================================
# The frame envelope
# ======================================================================
class TestFrames:
    def test_pack_unpack_roundtrip(self):
        frame = pack_frame(FRAME_REQUEST, 77, b"payload")
        (length,) = _U32.unpack(frame[:4])
        assert length == len(frame) - 4
        assert unpack_frame(frame[4:]) == (FRAME_REQUEST, 77, b"payload")

    def test_foreign_wire_version_rejected(self):
        # Version 1 (no record block), version 2 (tagged-tuple messages),
        # version 3 (a tagged-tuple request id), version 4 (record runs
        # behind their lengths) and a future version alike.
        for version in (1, 2, 3, 4, WIRE_VERSION + 1):
            body = bytearray(pack_frame(FRAME_REQUEST, 0, b"x")[4:])
            body[0] = version
            with pytest.raises(ProtocolError, match=f"wire version {version}"):
                unpack_frame(bytes(body))

    def test_short_body_rejected(self):
        with pytest.raises(ProtocolError):
            unpack_frame(b"\x01\x01")

    def test_read_frame_enforces_the_length_cap(self):
        async def oversized():
            reader = asyncio.StreamReader()
            reader.feed_data(_U32.pack(10**9))
            with pytest.raises(ProtocolError, match="exceeds"):
                await read_frame(reader, max_frame=1024)

        asyncio.run(oversized())


# ======================================================================
# A live server over a Unix-domain socket
# ======================================================================
class TestServingEndToEnd:
    def test_point_ops_and_len(self):
        with ServingFixture(Cluster(shards=2)) as fx:
            with fx.open_session() as session:
                f = session.file
                f.insert("apple", "A")
                f.put("bird", {"weight": 12})
                assert f.get("apple") == "A"
                assert f.get("bird") == {"weight": 12}
                assert f.contains("apple")
                assert not f.contains("missing")
                assert len(f) == 2
                assert f.delete("apple") == "A"
                assert len(f) == 1

    def test_typed_errors_cross_the_wire(self):
        with ServingFixture(Cluster(shards=2)) as fx:
            with fx.open_session() as session:
                f = session.file
                f.insert("apple", "A")
                with pytest.raises(DuplicateKeyError):
                    f.insert("apple", "B")
                with pytest.raises(KeyNotFoundError):
                    f.get("missing")
                assert f.get("apple") == "A"

    def test_scans_and_batches(self):
        keys = sorted(set(_keys(50)))
        with ServingFixture(Cluster(shards=3)) as fx:
            with fx.open_session() as session:
                f = session.file
                f.put_many((k, k.upper()) for k in keys)
                assert [k for k, _ in f.items()] == keys
                low, high = keys[5], keys[-5]
                expected = [k for k in keys if low <= k <= high]
                assert [k for k, _ in f.range_items(low, high)] == expected
                got = f.get_many(keys[:10] + ["nosuchkey"])
                assert got == {k: k.upper() for k in keys[:10]}

    def test_cold_client_converges_via_iams(self):
        keys = sorted(set(_keys(40)))
        with ServingFixture(Cluster(shards=4)) as fx:
            with fx.open_session() as loader:
                for key in keys:
                    loader.file.insert(key, key.upper())
            with fx.open_session() as session:
                f = session.file
                for key in keys:
                    assert f.get(key) == key.upper()
                assert f.ops_forwarded > 0  # the cold start paid forwards
                assert len(f.image) == 4    # ...and learned the partition
                f.reset_window()
                for key in keys:
                    assert f.get(key) == key.upper()
                assert f.convergence(window=True) == 1.0

    def test_distinct_sessions_get_distinct_client_ids(self):
        with ServingFixture(Cluster(shards=1)) as fx:
            a = fx.open_session()
            b = fx.open_session()
            assert a.file.client_id != b.file.client_id
            a.file.insert("apple", "A")
            b.file.insert("bird", "B")
            assert fx.server.router.duplicate_applies() == 0

    def test_unknown_shard_refused_with_typed_error(self):
        with ServingFixture(Cluster(shards=1)) as fx:
            runner, conn = fx.open_conn()
            with pytest.raises(UnknownShardError):
                runner.call(conn.request(99, Op.get("a"), 5.0), 10.0)

    def test_crash_and_restart_controls(self):
        with ServingFixture(Cluster(shards=1, durable=True)) as fx:
            runner, conn = fx.open_conn()
            with fx.open_session() as session:
                session.file.insert("apple", "A")
                runner.call(conn.control({"cmd": "crash", "shard": 0}), 10.0)
                with pytest.raises(ServerDownError):
                    runner.call(conn.request(0, Op.get("apple"), 5.0), 10.0)
                runner.call(conn.control({"cmd": "restart", "shard": 0}), 10.0)
                assert session.file.get("apple") == "A"

    def test_an_unloggable_put_is_refused_and_the_shard_serves_on(self):
        # A value no WAL record or bucket can hold: refused before the
        # apply, as a StorageError that crosses the wire as itself; a
        # lone surrogate never leaves the client's encoder.
        with ServingFixture(Cluster(shards=1, durable=True)) as fx:
            runner, conn = fx.open_conn()
            with fx.open_session() as session:
                f = session.file
                f.put("abc", "kept")
                with pytest.raises(StorageError, match="65535"):
                    f.put("abc", "x" * 70_000)
                with pytest.raises(ProtocolError, match="not UTF-8 encodable"):
                    f.put("abc", "v\udfff")
                for i in range(70):  # past the next checkpoint
                    f.put("ab" + "bcdefghij"[i % 9] + "abcdefgh"[i // 9], str(i))
                runner.call(conn.control({"cmd": "crash", "shard": 0}), 10.0)
                runner.call(conn.control({"cmd": "restart", "shard": 0}), 10.0)
                assert f.get("abc") == "kept"
                assert len(list(f.items())) == 71

    def test_scale_out_behind_the_wire(self):
        keys = sorted(set(_keys(60)))
        cluster = Cluster(
            shards=1, durable=True, shard_policy=ShardPolicy(shard_capacity=16)
        )
        with ServingFixture(cluster) as fx:
            with fx.open_session() as session:
                f = session.file
                for key in keys:
                    f.insert(key, key.upper())
                stats = session.transport.control({"cmd": "stats"})
                assert stats["shards"] > 1
                assert stats["records"] == len(keys)
                assert stats["duplicate_applies"] == 0
                assert [k for k, _ in f.items()] == keys
        cluster.check()

    def test_tcp_roundtrip(self):
        cluster = Cluster(shards=2)
        runner = LoopRunner()
        server = ServingServer(cluster)
        try:
            host, port = runner.call(server.start_tcp(), DEFAULT_WALL_TIMEOUT)
            with connect(host=host, port=port) as session:
                session.file.insert("apple", "A")
                assert session.file.get("apple") == "A"
                assert len(session.file) == 1
        finally:
            runner.call(server.stop(), DEFAULT_WALL_TIMEOUT)
            runner.stop()


# ======================================================================
# Pipelining and group fsync
# ======================================================================
class TestPipelining:
    def test_gathered_burst_matches_replies_to_requests(self):
        keys = sorted(set(_keys(30)))
        with ServingFixture(Cluster(shards=3)) as fx:
            with fx.open_session() as loader:
                for key in keys:
                    loader.file.insert(key, key.upper())
            runner, conn = fx.open_conn()

            async def burst():
                return await asyncio.gather(
                    *[conn.request(0, Op.get(k), 10.0) for k in keys]
                )

            replies = runner.call(burst(), 30.0)
            # Correlation ids matched every reply to its request even
            # though all were in flight at once (and some forwarded).
            assert [r.value for r in replies] == [k.upper() for k in keys]
            assert all(r.error is None for r in replies)

    def test_pipelined_mutations_amortise_the_fsync_barrier(self):
        keys = sorted(set(_keys(40)))
        cluster = Cluster(shards=2, durable=True)
        servers = cluster.coordinator.servers

        def fsyncs():
            return sum(s.file.stable.stats.fsyncs for s in servers.values())

        with ServingFixture(cluster) as fx:
            runner, conn = fx.open_conn()
            before = fsyncs()
            grouped_before = fx.server.grouped_batches
            # Park the dispatcher so the whole burst queues up and
            # drains as few micro-batches, then fire it pipelined.
            runner.call(conn.control({"cmd": "stall", "seconds": 0.2}), 10.0)

            async def burst():
                ops = []
                for i, key in enumerate(keys):
                    op = Op.insert(key, key.upper())
                    op.rid = (999, i + 1)
                    ops.append(conn.request(0, op, 10.0))
                return await asyncio.gather(*ops)

            replies = runner.call(burst(), 30.0)
            assert all(r.error is None for r in replies)
            # Every insert is WAL-durable, but the fsync barrier was
            # paid per micro-batch per file — far fewer than one per op.
            delta = fsyncs() - before
            assert delta >= 1
            assert delta < len(keys)
            assert fx.server.grouped_batches > grouped_before
            with fx.open_session() as session:
                assert [k for k, _ in session.file.items()] == keys
            assert fx.server.router.duplicate_applies() == 0


# ======================================================================
# Deadlines over a real wire
# ======================================================================
class TestDeadlines:
    def test_stalled_server_times_out_then_retries_into_dedup(self):
        # The op deadline is a real asyncio timeout: the dispatcher is
        # parked past it, the client times out and retries, and the
        # duplicate delivery dies in the owner's dedup window once the
        # server wakes — the wire version of the ambiguous-ack story.
        cluster = Cluster(shards=1, durable=True)
        retry = RetryPolicy(
            timeout=0.15, max_retries=8, base_delay=0.05, max_delay=0.1
        )
        with ServingFixture(cluster) as fx:
            with fx.open_session(retry=retry) as session:
                session.transport.control({"cmd": "stall", "seconds": 0.6})
                session.file.insert("apple", "A")
                assert session.file.retries_total >= 1
                assert session.file.get("apple") == "A"
        assert _counter_sum(cluster.registry, "dist_dedup_hits_total") >= 1
        assert cluster.router.duplicate_applies() == 0

    def test_late_reply_is_dropped_on_the_floor(self):
        with ServingFixture(Cluster(shards=1)) as fx:
            with fx.open_session() as loader:
                loader.file.insert("apple", "A")
            runner, conn = fx.open_conn()
            runner.call(conn.control({"cmd": "stall", "seconds": 0.3}), 10.0)
            with pytest.raises(OpTimeoutError):
                runner.call(conn.request(0, Op.get("apple"), 0.05), 10.0)
            # The connection survives: the stale answer's correlation id
            # no longer has a waiter, and fresh requests are unaffected.
            reply = runner.call(conn.request(0, Op.get("apple"), 10.0), 20.0)
            assert reply.value == "A"


# ======================================================================
# The blocking transport a session drives on the caller's thread
# ======================================================================
def _response_frame(corr_id, value):
    """A RESPONSE frame answering ``corr_id`` with a plain value."""
    payload = b"\x00" + encode_reply(Reply(value=value))
    return pack_frame(FRAME_RESPONSE, corr_id, payload)


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


class TestBlockingTransport:
    def test_late_reply_is_read_and_dropped(self):
        with ServingFixture(Cluster(shards=1)) as fx:
            with fx.open_session() as loader:
                loader.file.insert("apple", "A")
            transport = fx.open_session().transport
            transport.control({"cmd": "stall", "seconds": 0.3})
            with pytest.raises(OpTimeoutError):
                transport.request(0, Op.get("apple"), 0.05)
            # The stale answer arrives ahead of the fresh one on the same
            # socket; its correlation id is not the one being awaited.
            reply = transport.request(0, Op.get("apple"), 10.0)
            assert reply.value == "A"

    def test_deadline_mid_frame_keeps_the_stream_framed(self):
        client, fake_server = socket.socketpair()
        transport = RemoteTransport(client)
        try:
            first = _response_frame(0, "first")
            half = len(first) // 2
            fake_server.sendall(first[:half])
            with pytest.raises(OpTimeoutError):
                transport.request(0, Op.get("apple"), 0.05)
            # The half frame stayed buffered: the next read finishes it,
            # drops it as a late reply, and then reads its own.
            fake_server.sendall(first[half:] + _response_frame(1, "second"))
            assert transport.request(0, Op.get("bird"), 5.0).value == "second"
        finally:
            transport.close()
            fake_server.close()

    def test_hang_up_fails_typed_and_later_calls_skip_the_socket(self, caplog):
        retry = RetryPolicy(base_delay=0.001, max_delay=0.002)
        with ServingFixture(Cluster(shards=1)) as fx:
            session = fx.open_session(retry=retry)
            session.file.insert("apple", "A")
            fx.runner.call(fx.server.stop(), DEFAULT_WALL_TIMEOUT)
            with caplog.at_level(logging.WARNING):
                with pytest.raises(ShardUnavailableError) as info:
                    session.file.get("apple")
                assert isinstance(info.value.__cause__, MessageLostError)
                transport = session.transport
                assert transport.sock is None
                with pytest.raises(MessageLostError):
                    transport.request(0, Op.get("apple"), 1.0)
        assert not [
            record for record in caplog.records
            if "socket.send() raised exception" in record.getMessage()
        ]

    def test_oversize_length_prefix_fails_typed_and_closes(self):
        client, fake_server = socket.socketpair()
        transport = RemoteTransport(client)
        try:
            fake_server.sendall(_U32.pack(DEFAULT_MAX_FRAME + 1))
            with pytest.raises(ProtocolError, match="exceeds"):
                transport.request(0, Op.get("apple"), 5.0)
            assert transport.sock is None
            assert client.fileno() == -1
            with pytest.raises(MessageLostError):
                transport.request(0, Op.get("apple"), 5.0)
        finally:
            fake_server.close()

    def test_version_1_reply_fails_typed_and_closes(self):
        client, fake_server = socket.socketpair()
        transport = RemoteTransport(client)
        try:
            frame = bytearray(_response_frame(0, "from a version-1 server"))
            frame[4] = 1  # bytes 0-3 are the length
            fake_server.sendall(bytes(frame))
            with pytest.raises(ProtocolError, match="wire version 1"):
                transport.request(0, Op.get("apple"), 5.0)
            assert transport.sock is None
            assert client.fileno() == -1
        finally:
            fake_server.close()

    def test_tcp_session_sets_nodelay_and_starts_no_thread(self):
        runner = LoopRunner()
        server = ServingServer(Cluster(shards=1))
        try:
            host, port = runner.call(server.start_tcp(), DEFAULT_WALL_TIMEOUT)
            threads = threading.active_count()
            with connect(host=host, port=port) as session:
                sock = session.transport.sock
                assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
                session.file.insert("apple", "A")
                assert session.file.get("apple") == "A"
                assert threading.active_count() == threads
        finally:
            runner.call(server.stop(), DEFAULT_WALL_TIMEOUT)
            runner.stop()

    def test_failed_hello_leaks_no_thread_and_no_fd(self, tmp_path):
        # A listener that accepts and hangs up: every connect() fails in
        # its hello, and must give back what it opened.
        path = str(tmp_path / "hang-up.sock")
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.settimeout(10.0)
        listener.bind(path)
        listener.listen()
        try:
            threads = threading.active_count()
            fds = _open_fds()
            for _ in range(3):
                hang_up = threading.Thread(
                    target=lambda: listener.accept()[0].close()
                )
                hang_up.start()
                with pytest.raises(MessageLostError):
                    connect(path=path)
                hang_up.join(10.0)
                assert not hang_up.is_alive()
            assert threading.active_count() == threads
            assert _open_fds() == fds
        finally:
            listener.close()


# ======================================================================
# Backpressure and wire damage
# ======================================================================
class TestTransportEdges:
    def test_pipelined_burst_is_answered_exactly(self):
        # The whole burst lands in a few reads of one connection: every
        # get is answered, and each answer finds its own request.
        keys = sorted(set(_keys(80)))
        with ServingFixture(Cluster(shards=2)) as fx:
            with fx.open_session() as loader:
                loader.file.put_many((k, k.upper()) for k in keys)
            runner, conn = fx.open_conn()

            async def burst():
                return await asyncio.gather(
                    *[conn.request(0, Op.get(k), 20.0) for k in keys]
                )

            replies = runner.call(burst(), 60.0)
            assert [r.value for r in replies] == [k.upper() for k in keys]

    def test_foreign_version_frame_hangs_up_the_connection(self):
        async def send_poison(conn, poison):
            conn._writer.write(poison)
            await conn._writer.drain()

        with ServingFixture(Cluster(shards=1)) as fx:
            # Version 1 (no record block), version 2 (tagged-tuple
            # messages), version 3 (a tagged-tuple request id), version
            # 4 (record runs behind their lengths) and a future version
            # alike.
            for version in (1, 2, 3, 4, WIRE_VERSION + 1):
                runner, conn = fx.open_conn()
                poison = bytearray(pack_frame(FRAME_REQUEST, 0, b""))
                poison[4] = version  # bytes 0-3 are the length
                runner.call(send_poison(conn, bytes(poison)), 10.0)
                # The stream can no longer be framed; the server hangs
                # up and every in-flight op surfaces as a lost message.
                with pytest.raises(MessageLostError):
                    runner.call(conn.request(0, Op.get("a"), 5.0), 10.0)

    @pytest.mark.parametrize(
        "op_payload",
        [
            b"I" + _U32.pack(4) + b"xyz",
            encode_value((["get"], "apple", None, None, None, None, None, None)),
        ],
        ids=["big-int-cut", "unhashable-op-kind"],
    )
    def test_hostile_request_fails_typed_and_spares_other_clients(
        self, op_payload
    ):
        # A framed request whose op cannot be decoded (or dispatched)
        # must earn its sender a typed error, not take down the
        # dispatcher and with it every client's connection.
        with ServingFixture(Cluster(shards=1)) as fx:
            with fx.open_session() as bystander:
                bystander.file.insert("apple", "A")
                runner, conn = fx.open_conn()
                kind, body = runner.call(
                    conn._roundtrip(FRAME_REQUEST, _U32.pack(0) + op_payload, 5.0),
                    10.0,
                )
                assert (kind, body[0]) == (FRAME_RESPONSE, 1)
                assert isinstance(decode_value(body[1:]), ProtocolError)
                reply = runner.call(conn.request(0, Op.get("apple"), 5.0), 10.0)
                assert reply.value == "A"
                assert bystander.file.get("apple") == "A"


# ======================================================================
# Clients that never read, and connections that never frame
# ======================================================================
def _raw_conn(fx):
    """A bare socket to the fixture's server: the test owns every byte."""
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(DEFAULT_WALL_TIMEOUT)
    sock.connect(fx.path)
    return sock


def _read_frames(sock, count):
    """The next ``count`` frames off a blocking socket."""
    frames = []
    inbox = bytearray()
    while len(frames) < count:
        chunk = sock.recv(1 << 16)
        assert chunk, "the server hung up"
        inbox += chunk
        while len(inbox) >= 4 and len(inbox) >= 4 + _U32.unpack_from(inbox)[0]:
            end = 4 + _U32.unpack_from(inbox)[0]
            frames.append(unpack_frame(bytes(inbox[4:end])))
            del inbox[:end]
    return frames


def _settled_conns(fx):
    """``(reading, unsent bytes, (low, high) water marks, frames held)``
    of every server-side connection, once no frame is waiting to run
    (sampled on the server's loop)."""

    async def probe():
        while fx.server._pending:
            await asyncio.sleep(0.005)
        return [
            (
                conn.transport.is_reading(),
                conn.transport.get_write_buffer_size(),
                conn.transport.get_write_buffer_limits(),
                len(conn.held),
            )
            for conn in fx.server._conns
        ]

    return fx.runner.call(probe(), DEFAULT_WALL_TIMEOUT)


def _paused_conn(fx):
    """``(unsent, limits, held)`` of the one server-side connection whose
    reading is paused."""
    ((_, *paused),) = [s for s in _settled_conns(fx) if not s[0]]
    return paused


def _scanned_shard():
    """A one-shard cluster's keys (400, each scan reply ~17 KB) and the
    request payload of a full scan of its shard."""
    letters = "abcdefghijklmnopqrstuvwxyz"
    keys = [
        "".join(p)
        for p in itertools.islice(
            itertools.product(letters, repeat=3), 0, 400 * 37, 37
        )
    ]
    cluster = Cluster(shards=1, shard_policy=ShardPolicy(shard_capacity=1024))
    scan = _U32.pack(min(cluster.coordinator.servers)) + encode_op(Op.scan())
    return cluster, keys, scan


class TestSlowAndHostileClients:
    def test_a_client_that_never_reads_holds_back_only_itself(self):
        cluster, keys, scan = _scanned_shard()
        retry = RetryPolicy(timeout=0.25, max_retries=2)
        with ServingFixture(cluster) as fx:
            with fx.open_session(retry=retry) as bystander:
                bystander.file.put_many((k, k * 8) for k in keys)
                slow = _raw_conn(fx)
                try:
                    # 64 full scans of ~17 KB each: far more than the
                    # kernel socket buffer and the transport's high-water
                    # mark hold, and this client reads none of them.
                    batches = fx.server.batches
                    slow.sendall(b"".join(
                        pack_frame(FRAME_REQUEST, i, scan) for i in range(64)
                    ))
                    deadline = time.monotonic() + DEFAULT_WALL_TIMEOUT
                    while fx.server.batches == batches:  # the flood is taken up
                        assert time.monotonic() < deadline, "flood never run"
                        time.sleep(0.001)
                    assert bystander.file.get(keys[7]) == keys[7] * 8
                    while all(s[0] for s in _settled_conns(fx)):
                        assert time.monotonic() < deadline, "never paused"
                        time.sleep(0.01)
                    unsent = _paused_conn(fx)[0]
                    assert unsent > 0
                    # The client keeps writing; the server reads none of
                    # it, so its unsent replies do not grow.
                    slow.setblocking(False)
                    sent = 64
                    with contextlib.suppress(BlockingIOError):
                        while sent < 128:
                            slow.sendall(pack_frame(FRAME_REQUEST, sent, scan))
                            sent += 1
                    time.sleep(0.2)
                    assert _paused_conn(fx)[0] <= unsent
                    assert bystander.file.get(keys[9]) == keys[9] * 8
                    # Once it reads, the server reads it again: every
                    # scan it sent is answered, none lost.
                    slow.setblocking(True)
                    replies = _read_frames(slow, sent)
                    assert sorted(corr for _, corr, _ in replies) == list(range(sent))
                    kind, _, payload = replies[-1]
                    assert (kind, payload[0]) == (FRAME_RESPONSE, 0)
                    assert len(decode_reply(payload[1:]).records) == len(keys)
                finally:
                    slow.close()

    def test_one_read_of_requests_runs_only_as_far_as_its_replies_drain(self):
        # One 256 KiB write, as much as asyncio takes in one read, is
        # ~7 400 full scans (~125 MB of replies). The server runs only
        # as many as the socket buffers and the transport's water marks
        # hold; the rest wait on the connection, and its reading pauses.
        cluster, keys, scan = _scanned_shard()
        frame_size = len(pack_frame(FRAME_REQUEST, 0, scan))
        count = (256 * 1024) // frame_size
        retry = RetryPolicy(timeout=0.25, max_retries=2)
        with ServingFixture(cluster) as fx:
            with fx.open_session(retry=retry) as bystander:
                bystander.file.put_many((k, k * 8) for k in keys)
                slow = _raw_conn(fx)
                try:
                    batches = fx.server.batches
                    slow.sendall(b"".join(
                        pack_frame(FRAME_REQUEST, i, scan) for i in range(count)
                    ))
                    deadline = time.monotonic() + DEFAULT_WALL_TIMEOUT
                    while fx.server.batches == batches:  # the flood is taken up
                        assert time.monotonic() < deadline, "flood never run"
                        time.sleep(0.001)
                    assert bystander.file.get(keys[7]) == keys[7] * 8
                    assert bystander.file.retries_total == 0
                    unsent, (low, high), held = _paused_conn(fx)
                    assert held > count // 2
                    kind, corr_id, payload = _read_frames(slow, 1)[0]
                    assert (kind, corr_id) == (FRAME_RESPONSE, 0)
                    reply_size = len(pack_frame(kind, corr_id, payload))
                    # A batch stops giving the connection frames once its
                    # replies pass the low-water mark; past the high-water
                    # mark it gets none.
                    assert unsent <= high + low + reply_size
                finally:
                    slow.close()
                assert bystander.file.get(keys[9]) == keys[9] * 8

    def test_a_pipelined_flood_is_answered_in_order(self):
        # Thousands of frames in one burst: each batch runs only a share
        # of them and the rest wait on the connection, yet every reply
        # comes back, in order, and each get sees the put before it.
        cluster = Cluster(shards=1, shard_policy=ShardPolicy(shard_capacity=8192))
        shard = _U32.pack(min(cluster.coordinator.servers))
        keys = _keys(1500)
        frames = []
        for i, key in enumerate(keys):
            frames.append(pack_frame(
                FRAME_REQUEST, 2 * i, shard + encode_op(Op.put(key, f"v{i}"))
            ))
            frames.append(pack_frame(
                FRAME_REQUEST, 2 * i + 1, shard + encode_op(Op.get(key))
            ))
        with ServingFixture(cluster) as fx:
            raw = _raw_conn(fx)
            try:
                batches = fx.server.batches
                raw.sendall(b"".join(frames))
                replies = _read_frames(raw, len(frames))
            finally:
                raw.close()
            assert fx.server.batches - batches > 1
        assert [corr for _, corr, _ in replies] == list(range(len(frames)))
        assert all(payload[0] == 0 for _, _, payload in replies)
        gets = [decode_reply(p[1:]).value for _, corr, p in replies if corr % 2]
        assert gets == [f"v{i}" for i in range(len(keys))]

    def test_a_held_frame_is_handed_to_one_more_batch_at_most(self):
        # 3 000 pipelined gets in one write: each batch runs a share of
        # them and leaves the rest on the connection, where the next
        # batch draws them in place. So a frame is handed to the batch
        # it arrives in and, if held there, to one more.
        cluster = Cluster(shards=1, shard_policy=ShardPolicy(shard_capacity=8192))
        shard = _U32.pack(min(cluster.coordinator.servers))
        keys = _keys(26)
        frames = [
            pack_frame(FRAME_REQUEST, i, shard + encode_op(Op.get(keys[i % 26])))
            for i in range(3000)
        ]
        handed = []
        with ServingFixture(cluster) as fx:
            with fx.open_session() as session:
                session.file.put_many((k, k.upper()) for k in keys)
            process = fx.server._process

            def counting(batch):
                # A frame in the batch, or one drawn from a connection's
                # held frames, is handed to it.
                drawn = [item for item in batch if isinstance(item, _Conn)]
                held = sum(len(conn.held) for conn in drawn)
                process(batch)
                left = sum(len(conn.held) for conn in drawn)
                handed.append(len(batch) - len(drawn) + held - left)

            fx.server._process = counting
            raw = _raw_conn(fx)
            try:
                raw.sendall(b"".join(frames))
                replies = _read_frames(raw, len(frames))
            finally:
                raw.close()
        assert [corr for _, corr, _ in replies] == list(range(len(frames)))
        assert len(handed) > 1
        assert sum(handed) <= 2 * len(frames)

    @pytest.mark.parametrize(
        "case",
        [
            "zero-prefix",
            "truncated-prefix",
            "oversize-prefix",
            "half-frame",
            "half-open",
        ],
    )
    def test_a_hostile_connection_spares_a_bystander(self, case):
        cluster = Cluster(shards=1)
        get = pack_frame(
            FRAME_REQUEST,
            5,
            _U32.pack(min(cluster.coordinator.servers)) + encode_op(Op.get("apple")),
        )
        half = len(get) // 2
        with ServingFixture(cluster) as fx:
            with fx.open_session() as bystander:
                bystander.file.insert("apple", "A")
                raw = _raw_conn(fx)
                try:
                    if case == "zero-prefix":
                        raw.sendall(_U32.pack(0))
                    elif case == "truncated-prefix":
                        raw.sendall(get[:2])
                        raw.close()
                    elif case == "oversize-prefix":
                        raw.sendall(_U32.pack(DEFAULT_MAX_FRAME + 1))
                    elif case == "half-frame":
                        raw.sendall(get[:half])
                    else:
                        raw.sendall(get)
                        raw.shutdown(socket.SHUT_WR)
                    assert bystander.file.get("apple") == "A"
                    assert bystander.file.retries_total == 0
                    if case in ("zero-prefix", "oversize-prefix"):
                        assert raw.recv(1) == b""  # hung up
                    elif case == "half-frame":
                        # No idle deadline: the half frame waits, whole
                        # once the rest arrives.
                        raw.sendall(get[half:])
                        ((kind, corr_id, payload),) = _read_frames(raw, 1)
                        assert (kind, corr_id) == (FRAME_RESPONSE, 5)
                        assert decode_reply(payload[1:]).value == "A"
                finally:
                    raw.close()


# ======================================================================
# The chaos schedule over a real socket
# ======================================================================
class TestServingChaos:
    def test_chaos_converges_over_uds(self):
        report = run_chaos(
            ops=400,
            shards=2,
            seed=9,
            durable=True,
            drop=0.02,
            duplicate=0.02,
            delay=0.02,
            crash_cycles=2,
            shard_capacity=64,
            scan_every=80,
            transport="uds",
        )
        assert report.converged
        assert report.duplicate_applies == 0
        assert report.faults > 0
        assert report.retries > 0
        assert report.crashes >= 2
        assert report.recoveries >= 2

    def test_one_plan_injects_the_same_faults_in_simulation_and_over_uds(self):
        # One shard with room for every op: each plan decision falls on
        # the client edge, the only edge a wrapper around the socket
        # sees (forward and shipping legs run server-side over UDS).
        # jitter=0 gives both clients the same backoff whatever their ids.
        ops = 400
        retry = RetryPolicy(max_retries=12, jitter=0.0)

        def plan():
            return FaultPlan(
                seed=0, drop=0.03, duplicate=0.03, delay=0.03, crash=0.03
            )

        def cluster(**kwargs):
            return Cluster(
                shards=1,
                durable=True,
                shard_policy=ShardPolicy(shard_capacity=2 * ops),
                retry=retry,
                **kwargs,
            )

        sim_cluster = cluster(faults=plan())
        sim = _drive_faulty(
            sim_cluster.router, sim_cluster.client(), sim_cluster.registry, ops
        )
        uds_cluster = cluster()
        with ServingFixture(uds_cluster) as fx:
            client, fabric = fx.open_file(
                plan=plan(), retry=retry, registry=uds_cluster.registry
            )
            uds = _drive_faulty(fabric, client, uds_cluster.registry, ops)
        assert sim["duplicate_applies"] == 0
        assert sim["retries"] > 0 and sim["dedup_hits"] > 0
        assert sim["crashes"] > 2  # plan crashes on top of the scripted two
        assert uds == sim

    def test_transport_argument_is_validated(self):
        with pytest.raises(ConfigurationError):
            run_chaos(ops=10, transport="carrier-pigeon")
        with pytest.raises(ConfigurationError):
            run_chaos(ops=10, transport="uds", trace_path="/tmp/x.jsonl")


# ======================================================================
# Group commit in isolation
# ======================================================================
class TestGroupCommit:
    def test_group_pays_one_fsync_and_nests(self):
        from repro.storage.recovery import DurableFile, group_commit
        from repro.storage.wal import StableStore

        f = DurableFile.open(StableStore(), engine="th", capacity=8)
        base = f.stable.stats.fsyncs
        with group_commit():
            with group_commit():
                f.insert("aa", "1")
                f.insert("ab", "2")
            # The inner exit is not the barrier — only the outermost is.
            assert f.stable.stats.fsyncs == base
            f.insert("ac", "3")
        assert f.stable.stats.fsyncs == base + 1
        f.insert("ad", "4")  # outside any group: per-op durability
        assert f.stable.stats.fsyncs == base + 2
        assert f.get("aa") == "1"

    def test_split_halves_born_mid_batch_join_the_group(self):
        # One shard, 6 inserts short of its split: a pipelined burst
        # splits it mid-batch, and the two halves born there must join
        # the batch's group like any other file the batch writes — one
        # fsync per batch each, not one per op.
        letters = "abcdefghijklmnopqrstuvwxyz"
        pool = sorted(a + b + c for a in letters for b in letters for c in "aeiou")
        keys = random.Random(5).sample(pool, 86)
        preload, burst_keys = keys[:46], keys[46:]
        cluster = Cluster(
            shards=1, durable=True, shard_policy=ShardPolicy(shard_capacity=64)
        )
        servers = cluster.coordinator.servers
        with ServingFixture(cluster) as fx:
            with fx.open_session() as loader:
                for key in preload:
                    loader.file.insert(key, "v")
            assert len(servers) == 1
            runner, conn = fx.open_conn()
            batches_before = fx.server.batches
            runner.call(conn.control({"cmd": "stall", "seconds": 0.2}), 10.0)

            async def burst():
                ops = []
                for i, key in enumerate(burst_keys):
                    op = Op.insert(key, "w")
                    op.rid = (998, i + 1)
                    ops.append(conn.request(0, op, 10.0))
                return await asyncio.gather(*ops)

            replies = runner.call(burst(), 30.0)
            assert all(r.error is None for r in replies)
            batches = fx.server.batches - batches_before
            assert len(servers) == 2
            # Both halves were born inside the burst, so every fsync
            # they logged was a batch barrier.
            for server in servers.values():
                assert 1 <= server.file.stable.stats.fsyncs <= batches
            assert cluster.coordinator.total_records() == len(keys)
            assert fx.server.router.duplicate_applies() == 0

    def test_split_mid_batch_ships_nothing_from_the_retired_file(self):
        # The insert that splits a replicated shard appends to the file
        # the split retires, and that file commits at the batch barrier.
        # Its WAL tap must not ship the record: the reseeded backups of
        # both halves already hold it, and the kept half's backup would
        # otherwise gain a key its primary moved to the new half.
        letters = "abcdefghijklmnopqrstuvwxyz"
        rng = random.Random(5)
        cluster = Cluster(
            shards=1,
            durable=True,
            shard_policy=ShardPolicy(shard_capacity=32),
            replication="semisync",
        )
        keys = []
        with ServingFixture(cluster) as fx:
            with fx.open_session() as session:
                while len(keys) < 200:
                    key = "".join(rng.choice(letters) for _ in range(3))
                    if key in keys:
                        continue
                    session.file.insert(key, key.upper())
                    keys.append(key)
                    cluster.coordinator.check()
        assert len(cluster.coordinator.servers) > 2
        assert cluster.coordinator.total_records() == len(keys)
        assert cluster.router.duplicate_applies() == 0

    def test_one_poisoned_shard_fails_alone_and_typed(self):
        # A device fault on one shard's WAL append poisons that shard's
        # file. Its ops must fail typed from then on, while every other
        # shard keeps acknowledging durable writes over the same wire.
        cluster = Cluster(shards=4, durable=True)
        coordinator = cluster.coordinator
        sick_id = coordinator.owner_of("apple")
        healthy_key = next(
            key for key in ("zebra", "mango", "kiwi", "fig")
            if coordinator.owner_of(key) != sick_id
        )
        healthy_id = coordinator.owner_of(healthy_key)
        stable = coordinator.servers[sick_id].file.stable

        def device_fault(kind, name, payload=b""):
            if kind == "append":
                raise StorageError("injected device fault")

        with ServingFixture(cluster) as fx:
            with fx.open_session() as session:
                stable._physical = device_fault
                with pytest.raises(StorageError):
                    session.file.put("apple", "A")
                del stable._physical  # the device heals; the session stays poisoned
                session.file.put(healthy_key, "H")
                with pytest.raises(StorageError):
                    session.file.put("apple", "B")
                control = session.transport.control
                assert control({"cmd": "crash", "shard": healthy_id})
                assert control({"cmd": "restart", "shard": healthy_id})
                assert session.file.get(healthy_key) == "H"
        assert cluster.router.duplicate_applies() == 0


# ======================================================================
# Graceful shutdown: drain, final fsync, no acked write lost
# ======================================================================
class TestGracefulShutdown:
    def test_acked_writes_survive_shutdown_and_crash(self):
        cluster = Cluster(shards=2, durable=True)
        fx = ServingFixture(cluster)
        try:
            with fx.open_session() as session:
                for i in range(40):
                    session.file.insert(f"k{chr(97 + i % 26)}{chr(97 + i // 26)}", "v")
            drained = fx.runner.call(fx.server.shutdown(), 30.0)
            assert drained >= 0
            # Every ack preceded its fsync: a crash right after the
            # graceful stop must lose nothing.
            for server in cluster.coordinator.servers.values():
                server.crash()
                server.restart()
            f = cluster.client(warm=True)
            for i in range(40):
                assert f.contains(f"k{chr(97 + i % 26)}{chr(97 + i // 26)}")
        finally:
            fx.close()  # stop() after shutdown() is a no-op

    def test_shutdown_refuses_new_connections(self):
        cluster = Cluster(shards=1)
        fx = ServingFixture(cluster)
        try:
            fx.runner.call(fx.server.shutdown(), 30.0)
            with pytest.raises((ConnectionError, OSError)):
                fx.open_conn()
        finally:
            fx.close()

    def test_sigterm_drains_and_exits_cleanly(self, tmp_path):
        import os
        import pathlib
        import signal
        import subprocess
        import sys
        import time

        root = pathlib.Path(__file__).resolve().parents[1]
        sock = tmp_path / "drain.sock"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--uds", str(sock), "--shards", "2", "--replicas", "semisync",
            ],
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            deadline = time.monotonic() + 15.0
            while not sock.exists():
                assert proc.poll() is None, "server died before listening"
                assert time.monotonic() < deadline, "socket never appeared"
                time.sleep(0.05)
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=15.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, out
        assert "draining" in out
        assert "shutdown complete" in out

    def test_sigterm_on_the_readiness_line_drains(self, tmp_path):
        # A supervisor may signal the moment the server says it is
        # ready: the handlers must already be in place by then.
        import os
        import pathlib
        import signal
        import subprocess
        import sys

        root = pathlib.Path(__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--uds", str(tmp_path / "ready.sock"), "--shards", "1",
            ],
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            ready = proc.stdout.readline()
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=15.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert ready.startswith("serving on"), ready + out
        assert proc.returncode == 0, ready + out
        assert "shutdown complete" in out
