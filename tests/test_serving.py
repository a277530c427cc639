"""The asyncio serving tier: codec, frames, server, clients, chaos.

Four layers of coverage, innermost first:

* the wire codec — every encodable value roundtrips to an equal value
  of the same type, exceptions come back as fresh typed instances, and
  any bytes either decode or raise :class:`ProtocolError` (Hypothesis
  properties over the tagged-union value space and damaged encodings);
* the frame envelope — version gating and the length cap;
* a live server over a Unix-domain socket — point ops, scans, batches,
  IAM convergence, typed errors, pipelining, group fsync amortisation,
  deadlines with dedup, backpressure, crash controls, hostile frames
  and TCP;
* the acceptance bridge — the chaos differential schedule replayed
  over a real socket converges exactly like the simulated fabric, and
  one fault plan injects the same faults on both.
"""

import asyncio
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Cluster,
    DuplicateKeyError,
    KeyNotFoundError,
    ShardPolicy,
)
from repro.distributed import (
    FaultPlan,
    MessageLostError,
    OpTimeoutError,
    RetryPolicy,
    ServerDownError,
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
from repro.serving import ServingFixture, connect, read_frame
from repro.serving.client import DEFAULT_WALL_TIMEOUT, LoopRunner
from repro.serving.server import ServingServer

_U32 = struct.Struct(">I")


def _counter_sum(registry, name):
    return sum(
        inst.value
        for inst in registry.instruments()
        if inst.name == name and not hasattr(inst, "set") and hasattr(inst, "value")
    )


def _keys(count):
    """Alphabet-legal distinct keys spread across the key space."""
    letters = "abcdefghijklmnopqrstuvwxyz"
    return [
        letters[i % 26] + letters[(i * 7) % 26] + letters[(i * 3) % 26]
        for i in range(count)
    ]


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
_VALUES = st.recursive(
    _SCALARS | _EXCEPTIONS,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(_HASHABLES, inner, max_size=4)
        | st.frozensets(_HASHABLES, max_size=4)
    ),
    max_leaves=12,
)
_TAGS = [bytes([tag]) for tag in b"NTFiIfsbtldSe"]
_BYTES = [bytes([byte]) for byte in range(256)]


@st.composite
def _damaged_encodings(draw):
    """Arbitrary bytes, or a real encoding with a few bytes mangled."""
    if draw(st.booleans()):
        data = bytearray(draw(st.binary(max_size=64)))
    else:
        data = bytearray(encode_value(draw(_VALUES)))
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
class TestValueCodec:
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
        with pytest.raises(ProtocolError):
            encode_value(object())

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
        assert _canon(decode_value(encode_value(value))) == _canon(value)

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
            b"I" + _U32.pack(3) + b"xyz",
            b"d" + _U32.pack(1) + b"l" + _U32.pack(0) + b"N",
            b"S" + _U32.pack(1) + b"d" + _U32.pack(0),
            (b"l" + _U32.pack(1)) * 5000 + b"N",
        ],
        ids=["big-int-not-a-number", "list-dict-key", "dict-set-member", "deep"],
    )
    def test_hostile_payloads_raise_protocol_error(self, payload):
        # Python itself raises ValueError / TypeError / RecursionError
        # on these; only ProtocolError is the server's typed boundary.
        with pytest.raises(ProtocolError):
            decode_value(payload)


# ======================================================================
# The message codec
# ======================================================================
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
        body = bytearray(pack_frame(FRAME_REQUEST, 0, b"x")[4:])
        body[0] = WIRE_VERSION + 1
        with pytest.raises(ProtocolError, match="wire version"):
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

        asyncio.new_event_loop().run_until_complete(oversized())


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
# Backpressure and wire damage
# ======================================================================
class TestTransportEdges:
    def test_tiny_queue_survives_a_pipelined_burst(self):
        # max_queue=2: the readers block on the bounded queue and the
        # kernel socket buffer absorbs the rest. Nothing is dropped;
        # the burst completes exactly.
        keys = sorted(set(_keys(80)))
        with ServingFixture(Cluster(shards=2), max_queue=2, batch_max=2) as fx:
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
        with ServingFixture(Cluster(shards=1)) as fx:
            runner, conn = fx.open_conn()
            poison = bytearray(pack_frame(FRAME_REQUEST, 0, b""))
            poison[4] = WIRE_VERSION + 1  # bytes 0-3 are the length

            async def send_poison():
                conn._writer.write(bytes(poison))
                await conn._writer.drain()

            runner.call(send_poison(), 10.0)
            # The stream can no longer be framed; the server hangs up
            # and every in-flight op surfaces as a lost message.
            with pytest.raises(MessageLostError):
                runner.call(conn.request(0, Op.get("a"), 5.0), 10.0)

    @pytest.mark.parametrize(
        "op_payload",
        [
            b"I" + _U32.pack(3) + b"xyz",
            encode_value((["get"], "apple", None, None, None, None, None, None)),
        ],
        ids=["big-int-not-a-number", "unhashable-op-kind"],
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
        from repro.storage.recovery import DurableFile
        from repro.storage.wal import StableStore

        f = DurableFile.open(StableStore(), engine="th", capacity=8)
        base = f.stable.stats.fsyncs
        with f.group_commit():
            with f.group_commit():
                f.insert("aa", "1")
                f.insert("ab", "2")
            # The inner exit is not the barrier — only the outermost is.
            assert f.stable.stats.fsyncs == base
            f.insert("ac", "3")
        assert f.stable.stats.fsyncs == base + 1
        f.insert("ad", "4")  # outside any group: per-op durability
        assert f.stable.stats.fsyncs == base + 2
        assert f.get("aa") == "1"


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
