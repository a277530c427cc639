"""Crash-point sweeps and recovery correctness for the durability stack.

The headline assertion, swept over every physical-write crash point of a
mixed workload (inserts, overwrites, deletes — driving splits, merges,
borrows, redistributions and page splits):

* opening the store after the crash recovers **every acknowledged
  operation** (an operation that returned before the crash is never
  lost);
* **no phantom keys**: the recovered state is exactly the model of the
  acknowledged operations, or of those plus the single in-flight
  operation (whose record may legitimately have reached the medium in a
  torn-but-complete last block);
* the recovered file passes its deep structural ``check()``.

The sweep uses :class:`RecordingStableStore`, which captures the durable
image at every crash opportunity during *one* workload run, so crashing
at every Nth write costs one run plus one recovery per point.
"""

from __future__ import annotations

import json
import random
import string
import struct
import tracemalloc

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.boundaries import gap_index
from repro.core.errors import CrashError, InvalidKeyError, RecoveryError, StorageError
from repro.core.policies import SplitPolicy
from repro.core.reconstruct import reconstruct_model
from repro.obs.tracer import trace
from repro.storage.crashpoints import CrashingStore, RecordingStableStore
from repro.storage.dedup import DedupWindow
from repro.storage.recovery import (
    DurableFile,
    decode_checkpoint,
    encode_checkpoint,
    group_commit,
)
from repro.storage.serializer import deserialize_bucket
from repro.storage.wal import (
    REC_DELETE,
    REC_INSERT,
    REC_PUT,
    StableStore,
    encode_body,
    encode_record,
    read_records,
)

# ----------------------------------------------------------------------
# Workload machinery
# ----------------------------------------------------------------------
SWEEP_CONFIGS = {
    "th": ("th", dict(capacity=4, policy=SplitPolicy(merge="rotations"))),
    "thcl": ("th", dict(capacity=4, policy=SplitPolicy.thcl_redistributing())),
    "mlth": (
        "mlth",
        dict(capacity=4, page_capacity=8, policy=SplitPolicy.thcl(merge="guaranteed")),
    ),
}


def _word(rng, lo=2, hi=8):
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(lo, hi)))


def mixed_ops(n, seed):
    """A deterministic op list: ~55% insert, ~25% delete, ~20% put."""
    rng = random.Random(seed)
    model = {}
    ops = []
    while len(ops) < n:
        r = rng.random()
        if model and r < 0.25:
            key = rng.choice(sorted(model))
            del model[key]
            ops.append(("delete", key, None))
        elif model and r < 0.45:
            key = rng.choice(sorted(model))
            value = _word(rng)
            model[key] = value
            ops.append(("put", key, value))
        else:
            key = _word(rng)
            if key in model:
                continue
            value = _word(rng)
            model[key] = value
            ops.append(("insert", key, value))
    return ops


#: The one client whose request ids stamp every op of a recorded run.
CLIENT = 1


def run_recorded(engine, params, ops, checkpoint_every=16):
    """Run ``ops`` on a RecordingStableStore; return (store, timeline).

    Op ``i`` carries the request id ``(CLIENT, i + 1)``.
    ``timeline[i] = (start, end, model_after, window_after)`` where
    start/end are the physical-write watermarks bracketing logical op
    ``i`` and ``window_after`` is the dedup window's spec after it.
    """
    store = RecordingStableStore()
    f = DurableFile.open(store, engine=engine, checkpoint_every=checkpoint_every, **params)
    model = {}
    timeline = []
    for seq, (kind, key, value) in enumerate(ops, start=1):
        start = store.stats.write_ops
        rid = (CLIENT, seq)
        if kind == "insert":
            f.insert(key, value, rid=rid)
            model[key] = value
        elif kind == "put":
            f.put(key, value, rid=rid)
            model[key] = value
        else:
            f.delete(key, rid=rid)
            del model[key]
        timeline.append((start, store.stats.write_ops, dict(model), f.dedup.to_spec()))
    return store, timeline


def allowed_states(timeline, index):
    """Recovered-state candidates ``(model, window)`` for a crash at
    physical write ``index``.

    The state after every acknowledged op, plus — when an op was in
    flight — the state including it (its record may have survived in a
    torn block).
    """
    acked = ({}, [])
    inflight = None
    for start, end, *after in timeline:
        if end <= index:
            acked = tuple(after)
        elif start <= index:
            inflight = tuple(after)
            break
        else:
            break
    states = [acked]
    if inflight is not None:
        states.append(inflight)
    return states


def allowed_models(timeline, index):
    """The file contents of :func:`allowed_states`."""
    return [model for model, _window in allowed_states(timeline, index)]


def assert_reconstruction_agrees(th_file):
    """Differential oracle: bucket headers alone reproduce the mapping."""
    model = reconstruct_model(th_file.store, th_file.alphabet)
    for key in th_file.keys():
        gap = gap_index(model.boundaries, key, th_file.alphabet)
        assert model.children[gap] == th_file.trie.search(key).bucket, key


class ListSink:
    def __init__(self):
        self.events = []

    def on_event(self, event):
        self.events.append(event)


# ----------------------------------------------------------------------
# The acceptance sweep: every crash point of a 500-op mixed workload
# ----------------------------------------------------------------------
SWEEP_SEEDS = {"th": 101, "thcl": 202, "mlth": 303}


@pytest.mark.parametrize("config", sorted(SWEEP_CONFIGS))
def test_crash_point_sweep_mixed_workload(config):
    engine, params = SWEEP_CONFIGS[config]
    ops = mixed_ops(500, seed=SWEEP_SEEDS[config])
    store, timeline = run_recorded(engine, params, ops, checkpoint_every=32)
    assert store.crash_points, "the run captured no crash points"
    checked = 0
    for point in store.crash_points:
        survivor = StableStore.from_snapshot(point.image)
        recovered = DurableFile.open(survivor, engine=engine, **params)
        got = dict(recovered.items())
        states = allowed_models(timeline, point.index)
        assert got in states, (
            f"{config}: crash {point!r} recovered {len(got)} keys, "
            f"expected one of {[len(s) for s in states]}"
        )
        recovered.check()
        checked += 1
    # The sweep must cover the interesting boundary kinds. (A crash *at*
    # an fsync leaves the identical durable image as a clean crash at the
    # preceding append, so dedup folds fsync points into those.)
    kinds = {p.kind for p in store.crash_points}
    assert kinds >= {"append", "rename"}
    assert checked == len(store.crash_points)


@pytest.mark.parametrize("config", sorted(SWEEP_CONFIGS))
def test_crash_point_sweep_recovers_the_dedup_window(config):
    # Checkpoints every 8 ops build chains of incrementals, each header
    # carrying only the ids recorded since the previous one; recovery
    # must fold them into exactly the window of an allowed state.
    engine, params = SWEEP_CONFIGS[config]
    ops = mixed_ops(160, seed=SWEEP_SEEDS[config] + 1)
    store, timeline = run_recorded(engine, params, ops, checkpoint_every=8)
    assert {p.variant for p in store.crash_points} == {"clean", "torn-half", "torn-full"}
    for point in store.crash_points:
        survivor = StableStore.from_snapshot(point.image)
        recovered = DurableFile.open(survivor, engine=engine, **params)
        window = recovered.dedup.to_spec()
        got = (dict(recovered.items()), window)
        assert got in allowed_states(timeline, point.index), point
        acked = sum(1 for _start, end, *_ in timeline if end <= point.index)
        for seq in range(1, acked + 1):
            assert recovered.dedup.lookup((CLIENT, seq))[0], (point, seq)
        # The end-of-recovery checkpoint carries the replayed ids: a
        # second crash right behind it recovers the same window.
        survivor.lose_volatile()
        assert DurableFile.open(survivor).dedup.to_spec() == window, point


def test_sweep_covers_torn_and_clean_variants():
    engine, params = SWEEP_CONFIGS["thcl"]
    ops = mixed_ops(60, seed=5)
    store, _ = run_recorded(engine, params, ops, checkpoint_every=8)
    variants = {p.variant for p in store.crash_points}
    assert variants == {"clean", "torn-half", "torn-full"}


def test_recovered_file_accepts_new_operations():
    engine, params = SWEEP_CONFIGS["thcl"]
    ops = mixed_ops(120, seed=11)
    store, timeline = run_recorded(engine, params, ops)
    # Sample a handful of points spread over the run.
    points = store.crash_points[:: max(1, len(store.crash_points) // 5)]
    for point in points:
        survivor = StableStore.from_snapshot(point.image)
        f = DurableFile.open(survivor, engine=engine, **params)
        before = len(f)
        f.insert("zzzcrashprobe", "x")
        assert f.get("zzzcrashprobe") == "x"
        assert len(f) == before + 1
        f.check()


# ----------------------------------------------------------------------
# Process-model crashes: CrashingStore
# ----------------------------------------------------------------------
def test_crashing_store_kills_and_poisons_session():
    store = CrashingStore(crash_at=40)
    f = DurableFile.open(store, engine="th", capacity=4)
    acked = {}
    crashed = False
    for kind, key, value in mixed_ops(200, seed=3):
        try:
            if kind == "insert":
                f.insert(key, value)
                acked[key] = value
            elif kind == "put":
                f.put(key, value)
                acked[key] = value
            else:
                f.delete(key)
                del acked[key]
        except CrashError:
            crashed = True
            break
    assert crashed, "the schedule never crashed"
    # The dead session refuses everything...
    with pytest.raises(StorageError):
        f.insert("after", "x")
    with pytest.raises(StorageError):
        f.get("after")
    # ...but reopening the surviving store recovers every acked op.
    g = DurableFile.open(store, engine="th", capacity=4)
    assert dict(g.items()) == acked
    g.check()


class CrashOnNextFsync(CrashingStore):
    """Crashes on the first fsync after :attr:`armed` is set."""

    def __init__(self):
        super().__init__()
        self.armed = False

    def _physical(self, kind, name, payload=b""):
        if self.armed and kind == "fsync" and self.crashes == 0:
            self.crash_at = self.stats.write_ops
        super()._physical(kind, name, payload)


class CrashOnAppendContaining(CrashingStore):
    """Crashes on the first append whose payload contains ``needle``."""

    def __init__(self, needle: bytes, torn_bytes: int):
        super().__init__(torn_bytes=torn_bytes)
        self.needle = needle

    def _physical(self, kind, name, payload=b""):
        if kind == "append" and self.crashes == 0 and self.needle in payload:
            self.crash_at = self.stats.write_ops
        super()._physical(kind, name, payload)


def test_crash_on_commit_fsync_loses_the_unacked_op():
    """Crash exactly at an op's commit fsync: the op never acked, never kept."""
    store = CrashOnNextFsync()
    f = DurableFile.open(store, engine="th", capacity=4, checkpoint_every=1000)
    acked = {}
    for key in ["apple", "beta", "cedar", "delta", "elm"]:
        f.insert(key, key[:1])
        acked[key] = key[:1]
    store.armed = True
    with pytest.raises(CrashError):
        f.insert("unacked", "u")
    g = DurableFile.open(store, engine="th", capacity=4)
    assert dict(g.items()) == acked  # clean cache loss: the op is gone
    g.check()


@pytest.mark.parametrize("sick_first", [True, False], ids=["sick-first", "sick-last"])
def test_group_barrier_commits_every_joined_file_past_a_failed_fsync(sick_first):
    """One group, two writers, one of whose fsyncs crashes: the failing
    file is poisoned and the error propagates, the other is committed
    (and its due checkpoint taken) anyway, and a file that never
    appended inside the group pays no fsync at all."""
    store = CrashOnNextFsync()
    sick = DurableFile.open(store, engine="th", capacity=4)
    well = DurableFile.open(StableStore(), engine="th", capacity=4, checkpoint_every=1)
    idle = DurableFile.open(StableStore(), engine="th", capacity=4)
    idle.insert("idle", "i")
    idle_fsyncs = idle.stable.stats.fsyncs
    well_ckpt = well.manifest["next_ckpt"]
    writers = [sick, well] if sick_first else [well, sick]
    store.armed = True
    with pytest.raises(CrashError):
        with group_commit():
            for f in writers:
                f.insert("apple", "a")
                f.insert("beta", "b")
            # Every fsync, and the due checkpoint, waits for the exit.
            assert well.stable.stats.fsyncs == 0
            assert well.manifest["next_ckpt"] == well_ckpt
    with pytest.raises(StorageError, match="poisoned"):
        sick.get("apple")
    assert well.get("apple") == "a"
    assert well.stable.stats.fsyncs == 1
    assert well.manifest["next_ckpt"] == well_ckpt + 1
    assert idle.stable.stats.fsyncs == idle_fsyncs
    well.stable.lose_volatile()
    assert dict(DurableFile.open(well.stable).items()) == {"apple": "a", "beta": "b"}
    assert dict(DurableFile.open(store).items()) == {}


@pytest.mark.parametrize("torn_bytes", [3, 10_000])
def test_torn_op_record_append(torn_bytes):
    """Crash mid-append of the op record itself.

    A small tear leaves a truncated record (discarded: the op was never
    acked); a tear past the record's end persists the whole record
    without its fsync, so the unacked op may legitimately reappear — but
    nothing else ever does.
    """
    store = CrashOnAppendContaining(b"unacked", torn_bytes=torn_bytes)
    f = DurableFile.open(store, engine="th", capacity=4, checkpoint_every=1000)
    acked = {}
    for key in ["apple", "beta", "cedar", "delta", "elm"]:
        f.insert(key, key[:1])
        acked[key] = key[:1]
    with pytest.raises(CrashError):
        f.insert("unacked", "u")
    g = DurableFile.open(store, engine="th", capacity=4)
    got = dict(g.items())
    if torn_bytes == 3:
        assert got == acked
    else:
        assert got == {**acked, "unacked": "u"}
    g.check()


# ----------------------------------------------------------------------
# Torn and corrupt log tails
# ----------------------------------------------------------------------
def test_torn_wal_tail_is_discarded():
    store = StableStore()
    f = DurableFile.open(store, engine="th", capacity=4, checkpoint_every=1000)
    for key in ["alpha", "bravo", "charlie", "dog"]:
        f.insert(key)
    wal_name = f.manifest["wal"]
    # A torn record: half of a valid frame beyond the durable tail.
    frame = encode_record(999, REC_INSERT, encode_body("ghost"))
    store.append(wal_name, frame[: len(frame) // 2])
    g = DurableFile.open(store, engine="th")
    assert sorted(g.keys()) == ["alpha", "bravo", "charlie", "dog"]
    assert "ghost" not in g
    assert g.last_recovery.torn_tail


def test_trailing_garbage_after_valid_records():
    store = StableStore()
    f = DurableFile.open(store, engine="th", capacity=4, checkpoint_every=1000)
    f.insert("alpha")
    f.insert("bravo")
    store.append(f.manifest["wal"], b"\xff\x00garbage-not-a-record")
    g = DurableFile.open(store, engine="th")
    assert sorted(g.keys()) == ["alpha", "bravo"]
    assert g.last_recovery.torn_tail


def test_wal_codec_roundtrip_and_tear_points():
    records = [
        encode_record(1, REC_INSERT, encode_body("a", "1")),
        encode_record(2, REC_INSERT, encode_body("b")),
        encode_record(3, REC_INSERT, encode_body("c", "3", (4, 5))),
    ]
    blob = b"".join(records)
    decoded, clean = read_records(blob)
    assert clean and [r.lsn for r in decoded] == [1, 2, 3]
    assert [(r.key, r.value, r.rid) for r in decoded] == [
        ("a", "1", None), ("b", None, None), ("c", "3", (4, 5))
    ]
    # Every proper prefix decodes to a clean-stopping prefix of records.
    for cut in range(len(blob)):
        decoded, clean = read_records(blob[:cut])
        whole = [r for r in records if blob.index(r) + len(r) <= cut]
        assert len(decoded) == len(whole)
        if cut != len(blob):
            boundary = cut in {sum(len(r) for r in records[:i]) for i in range(4)}
            assert clean == boundary
    # A flipped byte inside a record's payload breaks its CRC.
    broken = bytearray(blob)
    broken[len(records[0]) + 20] ^= 0xFF
    decoded, clean = read_records(bytes(broken))
    assert [r.lsn for r in decoded] == [1] and not clean


#: Operation records pinned byte for byte: (id, lsn, type, key, value,
#: rid, hex). The frame is magic, lsn, type, body length, body, CRC32;
#: the body is flags, key length, value length, key, value and, when
#: flagged, the request id as two i64. A change to any of them is a log
#: format break, not a refactor.
_WAL_GOLDEN = [
    (
        "insert-without-a-value",
        1, REC_INSERT, "apple", None, None,
        "d71e0000000000000001010000000a00000500006170706c65a0701f90",
    ),
    (
        # "✓" is one code point and three UTF-8 bytes: value_len is 7.
        "put-with-a-value-and-a-rid",
        2, REC_PUT, "apple", "red ✓", (7, 42),
        "d71e0000000000000002020000002103000500076170706c6572656420e29c93"
        "0000000000000007000000000000002a6b5a5302",
    ),
    (
        "delete",
        3, REC_DELETE, "apple", None, None,
        "d71e0000000000000003030000000a00000500006170706c658f568b62",
    ),
]


@pytest.mark.parametrize(
    "lsn, rec_type, key, value, rid, golden",
    [row[1:] for row in _WAL_GOLDEN],
    ids=[row[0] for row in _WAL_GOLDEN],
)
def test_wal_record_bytes_are_pinned(lsn, rec_type, key, value, rid, golden):
    data = bytes.fromhex(golden)
    assert encode_record(lsn, rec_type, encode_body(key, value, rid)) == data
    (record,), clean = read_records(data)
    assert clean
    assert (record.lsn, record.type, record.key, record.value, record.rid) == (
        lsn, rec_type, key, value, rid,
    )


_I64 = st.integers(-(2**63), 2**63 - 1)
#: The longest strings a record holds: 65 535 UTF-8 bytes, ASCII and
#: mostly non-BMP (four bytes a code point).
_LONGEST = ("k" * 65_535, "\U0001d11e" * 16_383 + "abc")


@given(
    key=st.text(),
    value=st.none() | st.text(),
    rid=st.none() | st.tuples(_I64, _I64),
    lsn=st.integers(1, 2**64 - 1),
    rec_type=st.sampled_from([REC_INSERT, REC_PUT, REC_DELETE]),
)
@example(key="", value="", rid=(-(2**63), 2**63 - 1), lsn=1, rec_type=REC_PUT)
@example(key=_LONGEST[0], value=_LONGEST[1], rid=None, lsn=2, rec_type=REC_PUT)
@example(key=_LONGEST[1], value=None, rid=(0, 0), lsn=3, rec_type=REC_DELETE)
def test_any_record_roundtrips(key, value, rid, lsn, rec_type):
    data = encode_record(lsn, rec_type, encode_body(key, value, rid))
    records, clean = read_records(data + data)  # back to back
    assert clean and len(records) == 2
    for record in records:
        assert (record.lsn, record.type, record.key, record.value, record.rid) == (
            lsn, rec_type, key, value, rid,
        )


@pytest.mark.parametrize(
    "key, value, rid, error, match",
    [
        ("k" * 65_536, None, None, StorageError, "65536 UTF-8 bytes exceeds"),
        ("apple", "\U0001d11e" * 16_384, None, StorageError, "65536 UTF-8 bytes exceeds"),
        ("apple", "v\udfff", None, StorageError, "not UTF-8 encodable"),
        ("x\ud800", None, None, StorageError, "not UTF-8 encodable"),
        ("apple", 5, None, StorageError, "str or None"),
        ("apple", b"v", None, StorageError, "str or None"),
        ("apple", None, (1, 2**63), StorageError, "signed 64-bit"),
        ("apple", None, ("a", "b"), StorageError, "signed 64-bit"),
        ("apple", None, (1, 2, 3), StorageError, "signed 64-bit"),
        ("apple", None, 5, StorageError, "signed 64-bit"),
        (5, "v", None, InvalidKeyError, "keys must be str"),
    ],
    ids=[
        "key-too-long", "value-too-long", "value-lone-surrogate",
        "key-lone-surrogate", "value-an-int", "value-bytes", "rid-past-i64",
        "rid-strings", "rid-of-three", "rid-an-int", "key-an-int",
    ],
)
def test_a_body_no_record_can_hold_is_refused_typed(key, value, rid, error, match):
    with pytest.raises(error, match=match):
        encode_body(key, value, rid)


# ----------------------------------------------------------------------
# Checkpoint-corruption fallbacks
# ----------------------------------------------------------------------
def _newest_checkpoint(store):
    manifest = json.loads(store.read("MANIFEST").decode("utf-8"))
    return manifest["chain"][-1]


def _corrupt_index_section(image: bytes) -> bytes:
    """Flip a byte inside the index (trie/pages) section of a checkpoint."""
    magic = 6
    hlen = struct.unpack_from(">I", image, magic)[0]
    index_at = magic + 8 + hlen
    ilen = struct.unpack_from(">I", image, index_at)[0]
    assert ilen > 0
    pos = index_at + 8 + ilen // 2
    return image[:pos] + bytes([image[pos] ^ 0xFF]) + image[pos + 1 :]


def test_corrupt_trie_section_falls_back_to_reconstruction():
    store = StableStore()
    f = DurableFile.open(
        store, engine="th", capacity=4, policy=SplitPolicy.thcl(), checkpoint_every=16
    )
    rng = random.Random(21)
    model = {}
    for _ in range(150):
        key = _word(rng)
        if key in model:
            continue
        f.insert(key, key[:2])
        model[key] = key[:2]
    f.checkpoint(full=True)  # quiescent point: nothing left to replay
    name = _newest_checkpoint(store)
    store.write_atomic(name, _corrupt_index_section(store.read(name)))

    sink = ListSink()
    with trace([sink]):
        g = DurableFile.open(store, engine="th")
    assert g.last_recovery.used_fallback == "reconstruct"
    assert dict(g.items()) == model
    g.check()
    # The rebuilt trie and the bucket headers agree key by key.
    assert_reconstruction_agrees(g.file)
    # Recovery is visible to observability: a closed `recovery` span.
    spans = [e for e in sink.events if e.name == "span_end"]
    assert any(e.fields.get("op") == "recovery" for e in spans)
    done = [e for e in sink.events if e.name == "recovery_done"]
    assert done and done[0].fields["fallback"] == "reconstruct"
    # The file keeps working after a fallback recovery (THCL splits
    # handle the reconstructed shared leaves natively).
    for _ in range(60):
        key = _word(rng)
        if key in model:
            continue
        g.insert(key, "x")
        model[key] = "x"
    assert dict(g.items()) == model
    g.check()


def test_corrupt_mlth_index_rebuilds_by_reinsert():
    store = StableStore()
    engine, params = SWEEP_CONFIGS["mlth"]
    f = DurableFile.open(store, engine=engine, checkpoint_every=16, **params)
    rng = random.Random(8)
    model = {}
    for _ in range(200):
        key = _word(rng)
        if key in model:
            continue
        f.insert(key, key[-1])
        model[key] = key[-1]
    f.checkpoint(full=True)
    name = _newest_checkpoint(store)
    store.write_atomic(name, _corrupt_index_section(store.read(name)))
    g = DurableFile.open(store, engine=engine)
    assert g.last_recovery.used_fallback == "reinsert"
    assert dict(g.items()) == model
    g.check()
    g.insert("aaaa", "v")
    assert g.get("aaaa") == "v"


def test_corrupt_btree_index_is_unrecoverable():
    store = StableStore()
    f = DurableFile.open(store, engine="btree", leaf_capacity=4)
    for key in ["ash", "birch", "cedar", "dogwood", "elm", "fir"]:
        f.insert(key, key[:1])
    f.checkpoint(full=True)
    name = _newest_checkpoint(store)
    store.write_atomic(name, _corrupt_index_section(store.read(name)))
    with pytest.raises(RecoveryError):
        DurableFile.open(store, engine="btree")


def test_corrupt_checkpoint_header_raises_recovery_error():
    store = StableStore()
    f = DurableFile.open(store, engine="th", capacity=4)
    f.insert("alpha")
    f.checkpoint()
    name = _newest_checkpoint(store)
    image = bytearray(store.read(name))
    image[10] ^= 0xFF  # inside the header section
    store.write_atomic(name, bytes(image))
    with pytest.raises(RecoveryError):
        DurableFile.open(store, engine="th")


def _cut_a_bucket(header, index, buckets):
    address = min(buckets)
    buckets[address] = buckets[address][:3]
    return index


def _drop_page_boundaries(header, index, buckets):
    spec = json.loads(index)
    del next(iter(spec["pages"].values()))["boundaries"]
    return json.dumps(spec).encode()


UNDECODABLE_SECTIONS = {
    # section edit, engine and params, the fallback it takes (None: it
    # must raise RecoveryError)
    "bucket-payload-cut": (_cut_a_bucket, ("th", dict(capacity=4)), None),
    "th-index-cut": (
        lambda h, index, b: index[:-3], ("th", dict(capacity=4)), "reconstruct"
    ),
    "mlth-page-without-boundaries": (
        _drop_page_boundaries, SWEEP_CONFIGS["mlth"], "reinsert"
    ),
    "btree-index-of-ints": (
        lambda h, i, b: b"[1, 2, 3]", ("btree", dict(leaf_capacity=4)), None
    ),
}


@pytest.mark.parametrize("case", sorted(UNDECODABLE_SECTIONS))
def test_section_that_does_not_decode_fails_typed_or_falls_back(case):
    # The rewritten section keeps a valid CRC, but its bytes do not
    # decode: recovery must raise RecoveryError or take the engine's
    # documented fallback, never leak a raw struct/Key/TypeError.
    edit, (engine, params), fallback = UNDECODABLE_SECTIONS[case]
    store = StableStore()
    f = DurableFile.open(store, engine=engine, checkpoint_every=1000, **params)
    rng = random.Random(4)
    model = {}
    while len(model) < 60:
        key = _word(rng)
        if key not in model:
            f.insert(key, key.upper())
            model[key] = key.upper()
    f.checkpoint(full=True)
    name = _newest_checkpoint(store)
    header, index, buckets = decode_checkpoint(store.read(name), name)
    index = edit(header, index, buckets)
    store.write_atomic(name, encode_checkpoint(header, index, sorted(buckets.items())))
    store.lose_volatile()
    if fallback is None:
        with pytest.raises(RecoveryError):
            DurableFile.open(store)
        return
    g = DurableFile.open(store)
    assert g.last_recovery.used_fallback == fallback
    assert dict(g.items()) == model
    g.check()


def test_missing_manifest_means_fresh_file():
    store = StableStore()
    f = DurableFile.open(store, engine="th", capacity=4)
    f.insert("alpha")
    store.delete("MANIFEST")
    g = DurableFile.open(store, engine="th", capacity=4)
    assert len(g) == 0  # no manifest, no file: a fresh one is created


# ----------------------------------------------------------------------
# Differential oracle: recovery vs Section-6 reconstruction
# ----------------------------------------------------------------------
@pytest.mark.parametrize("config", ["th", "thcl"])
def test_reconstruction_oracle_after_sweep_recoveries(config):
    engine, params = SWEEP_CONFIGS[config]
    ops = mixed_ops(150, seed=17)
    store, timeline = run_recorded(engine, params, ops)
    points = store.crash_points[:: max(1, len(store.crash_points) // 12)]
    for point in points:
        survivor = StableStore.from_snapshot(point.image)
        g = DurableFile.open(survivor, engine=engine, **params)
        assert_reconstruction_agrees(g.file)


# ----------------------------------------------------------------------
# B+-tree baseline durability
# ----------------------------------------------------------------------
def test_btree_durable_recovery_replays_log():
    store = StableStore()
    f = DurableFile.open(store, engine="btree", leaf_capacity=4, checkpoint_every=8)
    rng = random.Random(4)
    model = {}
    for _ in range(120):
        key = _word(rng)
        if rng.random() < 0.2 and model:
            victim = rng.choice(sorted(model))
            f.delete(victim)
            del model[victim]
        elif key not in model:
            f.insert(key, key[:1])
            model[key] = key[:1]
    img = store.snapshot_durable()
    g = DurableFile.open(StableStore.from_snapshot(img), engine="btree")
    assert dict(g.items()) == model
    g.check()


def test_btree_crash_sweep_small():
    ops = mixed_ops(80, seed=23)
    store, timeline = run_recorded("btree", dict(leaf_capacity=4), ops, checkpoint_every=8)
    for point in store.crash_points:
        survivor = StableStore.from_snapshot(point.image)
        g = DurableFile.open(survivor, engine="btree", leaf_capacity=4)
        assert dict(g.items()) in allowed_models(timeline, point.index)
        g.check()


# ----------------------------------------------------------------------
# Observability of the ack path
# ----------------------------------------------------------------------
def test_wal_appends_and_fsyncs_are_traced():
    store = StableStore()
    sink = ListSink()
    with trace([sink]):
        f = DurableFile.open(store, engine="th", capacity=4)
        f.insert("alpha", "a")
        f.insert("bravo", "b")
    names = [e.name for e in sink.events]
    assert names.count("wal_fsync") >= 2  # one commit per acked op
    appends = [e for e in sink.events if e.name == "wal_append"]
    assert len(appends) >= 2
    assert all(e.fields["bytes"] > 0 for e in appends)
    checkpoints = [e for e in sink.events if e.name == "checkpoint"]
    assert checkpoints and checkpoints[0].fields["full"] is True


def test_checkpoint_event_reports_incremental_bucket_count():
    store = StableStore()
    f = DurableFile.open(store, engine="th", capacity=4, checkpoint_every=1000)
    for key in ["alpha", "bravo", "chip", "dome", "echo", "fig", "gulf"]:
        f.insert(key)
    sink = ListSink()
    with trace([sink]):
        f.insert("hotel")
        f.checkpoint()  # incremental: only buckets dirtied since genesis
    events = [e for e in sink.events if e.name == "checkpoint"]
    assert events and events[0].fields["full"] is False
    live = len(f.file.store.live_addresses())
    assert 0 < events[0].fields["buckets"] <= live


# ----------------------------------------------------------------------
# Session semantics
# ----------------------------------------------------------------------
def test_values_must_be_strings():
    f = DurableFile.open(StableStore(), engine="th", capacity=4)
    with pytest.raises(StorageError):
        f.insert("key", 42)


def test_validation_errors_do_not_poison_or_log():
    store = StableStore()
    f = DurableFile.open(store, engine="th", capacity=4, checkpoint_every=1000)
    f.insert("alpha", "a")
    appended = store.stats.appends
    from repro.core.errors import DuplicateKeyError, KeyNotFoundError

    with pytest.raises(DuplicateKeyError):
        f.insert("alpha", "again")
    with pytest.raises(KeyNotFoundError):
        f.delete("missing")
    assert store.stats.appends == appended  # rejected ops leave no trace
    f.insert("bravo", "b")  # the session is still healthy
    assert sorted(f.keys()) == ["alpha", "bravo"]


def test_reopen_must_not_pass_conflicting_engine():
    store = StableStore()
    DurableFile.open(store, engine="th", capacity=4).insert("alpha")
    g = DurableFile.open(store, engine="btree")  # stored engine wins
    assert g.engine.kind == "th"
    assert "alpha" in g


# ----------------------------------------------------------------------
# Request-id durability (the distributed exactly-once contract)
# ----------------------------------------------------------------------
def test_rids_survive_wal_replay():
    stable = StableStore()
    f = DurableFile.open(stable, engine="th", capacity=4, checkpoint_every=1000)
    f.insert("apple", "A", rid=(1, 1))
    f.put("bird", "B", rid=(1, 2))
    assert f.delete("apple", rid=(1, 3)) == "A"
    stable.lose_volatile()  # crash: everything above lives only in the WAL

    recovered = DurableFile.open(stable)
    assert recovered.last_recovery.replayed == 3
    assert recovered.dedup.lookup((1, 1)) == (True, None)
    assert recovered.dedup.lookup((1, 2)) == (True, None)
    # Replay re-executes the delete, so the recorded result is rebuilt.
    assert recovered.dedup.lookup((1, 3)) == (True, "A")
    assert recovered.dedup.lookup((1, 4)) == (False, None)


def test_rids_survive_via_checkpoint_header():
    stable = StableStore()
    f = DurableFile.open(stable, engine="th", capacity=4, checkpoint_every=1000)
    f.insert("apple", "A", rid=(7, 1))
    f.checkpoint()  # embeds the window; truncates the WAL
    stable.lose_volatile()

    recovered = DurableFile.open(stable)
    assert recovered.last_recovery.replayed == 0  # nothing left to replay
    assert recovered.dedup.lookup((7, 1)) == (True, None)
    assert recovered.get("apple") == "A"


_RID = st.tuples(st.integers(0, 2), st.integers(0, 12))
_WINDOW_STEP = st.one_of(
    st.tuples(st.just("record"), _RID, st.one_of(st.none(), st.text(max_size=2))),
    st.tuples(st.just("merge"), st.lists(_RID, max_size=6)),
    st.tuples(st.just("take"), st.sampled_from([False, False, False, True])),
)


def _fold(specs, limit):
    """The window recovery rebuilds from a chain's header specs."""
    return DedupWindow.from_spec([e for spec in specs for e in spec], limit=limit)


@given(limit=st.integers(1, 16), steps=st.lists(_WINDOW_STEP, max_size=60))
def test_folded_checkpoint_deltas_rebuild_the_live_window(limit, steps):
    # A full spec followed by every later delta folds to the live window,
    # through evictions (small limits), repeated ids, merges and
    # full-checkpoint resets.
    window = DedupWindow(limit)
    chain = [window.take_spec(full=True)]
    for step in steps:
        if step[0] == "record":
            window.record(step[1], step[2])
        elif step[0] == "merge":
            other = DedupWindow(limit)
            for rid in step[1]:
                other.record(rid, "merged")
            window.merge(other)
        else:
            spec = window.take_spec(full=step[1])
            chain = [spec] if step[1] else chain + [spec]
            assert _fold(chain, limit).to_spec() == window.to_spec()
    chain.append(window.take_spec(full=False))
    assert _fold(chain, limit).to_spec() == window.to_spec()
    assert window.take_spec(full=False) == []  # nothing recorded since


@given(limit=st.integers(1, 16), steps=st.lists(_WINDOW_STEP, max_size=60))
def test_a_chain_of_whole_windows_folds_to_the_newest(limit, steps):
    # Headers written before the delta carried the whole window in every
    # chain entry; such a chain still reopens to its newest window.
    window = DedupWindow(limit)
    chain = [window.to_spec()]
    for step in steps:
        if step[0] == "record":
            window.record(step[1], step[2])
        elif step[0] == "merge":
            window.merge(DedupWindow.from_spec([[*rid, None] for rid in step[1]], limit))
        else:
            chain.append(window.to_spec())
    chain.append(window.to_spec())
    assert _fold(chain, limit).to_spec() == chain[-1]


class _HeaderLog(StableStore):
    """A store that keeps the header of every checkpoint it is given."""

    def __init__(self):
        super().__init__()
        self.headers = []

    def write_atomic(self, name, data):
        super().write_atomic(name, data)
        if name.startswith("ckpt-"):
            self.headers.append(decode_checkpoint(data, name)[0])


def test_incremental_headers_carry_only_the_ids_since_the_last_checkpoint():
    store = _HeaderLog()
    f = DurableFile.open(store, engine="th", capacity=8, checkpoint_every=64)
    rng = random.Random(29)
    for seq in range(1, 2001):
        f.put(_word(rng, 3, 6), str(seq), rid=(3, seq))
    assert len(f.dedup) == f.dedup.limit  # the window filled and evicted
    incremental = [h for h in store.headers if not h["full"]]
    full = [h for h in store.headers if h["full"]]
    assert len(incremental) > 20 and len(full) > 2
    assert max(len(h["dedup"]) for h in incremental) <= 64
    assert max(len(h["dedup"]) for h in full) == f.dedup.limit
    store.lose_volatile()
    g = DurableFile.open(store)
    assert g.dedup.to_spec() == f.dedup.to_spec()


def test_rids_without_stamp_are_not_tracked():
    stable = StableStore()
    f = DurableFile.open(stable, engine="th", capacity=4)
    f.insert("apple", "A")  # rid-less (single-node usage)
    assert len(f.dedup) == 0
    stable.lose_volatile()
    recovered = DurableFile.open(stable)
    assert len(recovered.dedup) == 0
    assert recovered.get("apple") == "A"


def test_rid_payloads_do_not_disturb_old_records():
    # Mixed stamped and unstamped records replay side by side.
    stable = StableStore()
    f = DurableFile.open(stable, engine="th", capacity=4, checkpoint_every=1000)
    f.insert("plain", "P")
    f.insert("stamped", "S", rid=(2, 5))
    stable.lose_volatile()
    recovered = DurableFile.open(stable)
    assert recovered.get("plain") == "P"
    assert recovered.get("stamped") == "S"
    assert (2, 5) in recovered.dedup
    recovered.check()


# ----------------------------------------------------------------------
# The log contract: operation records only
# ----------------------------------------------------------------------
CONTRACT_CONFIGS = {
    "th": ("th", dict(capacity=4)),
    "th-rotations": ("th", dict(capacity=4, policy=SplitPolicy(merge="rotations"))),
    "thcl": ("th", dict(capacity=4, policy=SplitPolicy.thcl_redistributing())),
    "mlth": SWEEP_CONFIGS["mlth"],
    "btree": ("btree", dict(leaf_capacity=4)),
}


@pytest.mark.parametrize("config", sorted(CONTRACT_CONFIGS))
def test_live_segment_holds_one_op_record_per_acked_mutation(config):
    engine, params = CONTRACT_CONFIGS[config]
    store = StableStore()
    f = DurableFile.open(store, engine=engine, checkpoint_every=37, **params)
    ops = mixed_ops(700, seed=5)
    batch_at = len(ops) // 2
    since_checkpoint = []  # (type, key) of every acked mutation
    for i, (kind, key, value) in enumerate(ops):
        generation = f.manifest["next_ckpt"]
        if i == batch_at:
            batch = [(_word(random.Random(j)), f"b{j}") for j in range(12)]
            f.put_many(batch)
            since_checkpoint += [(REC_PUT, k) for k in sorted(dict(batch))]
        if kind == "insert" and key not in f:
            f.insert(key, value)
            since_checkpoint.append((REC_INSERT, key))
        elif kind == "put":
            f.put(key, value)
            since_checkpoint.append((REC_PUT, key))
        elif kind == "delete" and key in f:
            f.delete(key)
            since_checkpoint.append((REC_DELETE, key))
        if f.manifest["next_ckpt"] != generation:
            since_checkpoint = []  # a checkpoint rotated the segment
    assert since_checkpoint, "the workload must end between checkpoints"
    records, clean = read_records(store.read(f.manifest["wal"]))
    assert clean
    assert [(r.type, r.key) for r in records] == since_checkpoint
    first = f.manifest["lsn"] + 1
    assert [r.lsn for r in records] == list(range(first, first + len(records)))


def test_freed_then_reallocated_bucket_reaches_the_next_checkpoint():
    # A merge frees an address and a split reuses it before the next
    # checkpoint: the incremental image must carry the bucket's new
    # contents, or recovery would resurrect the pre-merge bucket.
    store = StableStore()
    f = DurableFile.open(store, engine="th", capacity=4, checkpoint_every=10_000)
    buckets = f.file.store
    rng = random.Random(3)
    model = {}
    while buckets.allocated_count() < 6:
        key = _word(rng)
        if key not in model:
            f.insert(key, key)
            model[key] = key
    f.checkpoint()
    while buckets.allocated_count() == buckets.max_address() + 1:  # no hole yet
        key = rng.choice(sorted(model))
        f.delete(key)
        del model[key]
    assert f.file.stats.merges == 1  # the hole is a merged-away bucket
    holes = set(range(buckets.max_address() + 1)) - set(buckets.live_addresses())
    while not holes & set(buckets.live_addresses()):
        key = _word(rng)
        if key not in model:
            f.insert(key, key)
            model[key] = key
    (reused,) = holes & set(buckets.live_addresses())
    name = f.checkpoint()
    header, _index, sections = decode_checkpoint(store.read(name), name)
    assert not header["full"] and reused in sections
    assert deserialize_bucket(sections[reused]).keys == buckets.peek(reused).keys
    store.lose_volatile()
    g = DurableFile.open(store)
    assert dict(g.items()) == model
    g.check()


# ----------------------------------------------------------------------
# A fresh file born holding records and a dedup window
# ----------------------------------------------------------------------
def born_file(engine, params, records, window):
    """A fresh durable file whose genesis checkpoint holds ``records``
    and ``window``, on its own store."""
    store = StableStore()
    return store, DurableFile.open(
        store, engine=engine, records=records, dedup=window, **params
    )


@pytest.mark.parametrize("config", sorted(CONTRACT_CONFIGS))
def test_born_file_logs_nothing_and_survives_a_crash_behind_its_birth(config):
    engine, params = CONTRACT_CONFIGS[config]
    rng = random.Random(11)
    keys = sorted({_word(rng) for _ in range(40)})
    records = [(key, key.upper() if i % 3 else None) for i, key in enumerate(keys)]
    window = DedupWindow()
    window.record((4, 1), None)
    window.record((4, 2), "old")
    store, f = born_file(engine, params, records, window)
    assert (store.stats.appends, store.stats.fsyncs) == (0, 0)
    assert f.wal.last_lsn == 0
    store.lose_volatile()  # a crash right behind the birth
    g = DurableFile.open(store)
    assert g.last_recovery.replayed == 0
    assert list(g.items()) == records
    assert g.dedup.to_spec() == window.to_spec()
    g.check()


def test_born_file_refuses_bad_values_and_an_existing_manifest():
    with pytest.raises(StorageError, match="str or None"):
        born_file("th", {}, [("apple", 42)], None)
    store, _ = born_file("th", {}, [("apple", "A")], None)
    with pytest.raises(StorageError, match="fresh"):
        DurableFile.open(store, records=[("bird", "B")])
    with pytest.raises(StorageError, match="fresh"):
        DurableFile.open(store, dedup=DedupWindow())
    assert list(DurableFile.open(store).items()) == [("apple", "A")]


# ----------------------------------------------------------------------
# A write no record or bucket can hold is refused before it applies
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "value", ["x" * 70_000, "v\udfff"], ids=["oversized", "lone-surrogate"]
)
def test_an_unloggable_write_is_refused_and_the_file_lives_on(value):
    store = StableStore()
    f = DurableFile.open(store, engine="th", capacity=4, checkpoint_every=4)
    f.insert("abc", "a")
    appends = store.stats.appends
    with pytest.raises(StorageError):
        f.put("abc", value)
    with pytest.raises(StorageError):
        f.insert("abd", value)
    # Refused before the apply: nothing changed, nothing was logged.
    assert store.stats.appends == appends
    assert f.get("abc") == "a" and "abd" not in f
    for i in range(10):  # through two checkpoints
        f.put("ab" + "cdefghijkl"[i], str(i))
    store.lose_volatile()
    g = DurableFile.open(store)
    assert dict(g.items()) == dict(f.items())
    g.check()


def test_put_many_and_a_born_file_refuse_an_unloggable_pair_whole():
    store = StableStore()
    f = DurableFile.open(store, engine="th", capacity=4)
    with pytest.raises(StorageError):
        f.put_many([("abc", "ok"), ("abd", "x" * 70_000)])
    assert len(f) == 0 and store.stats.appends == 0
    f.put_many([("abc", "ok")])
    store.lose_volatile()
    assert dict(DurableFile.open(store).items()) == {"abc": "ok"}
    with pytest.raises(StorageError):
        born_file("th", {}, [("abc", "ok"), ("abd", "v\udfff")], None)


def test_an_alphabet_beyond_the_one_byte_dv_is_refused_typed():
    from repro.core.alphabet import Alphabet

    with pytest.raises(StorageError, match="one-byte DV"):
        DurableFile.open(StableStore(), engine="th", alphabet=Alphabet("abcαβ"))


# ----------------------------------------------------------------------
# Malformed durable input fails typed
# ----------------------------------------------------------------------
def _durable_image():
    """A TH store with a checkpoint chain and three logged operations."""
    store = StableStore()
    f = DurableFile.open(store, engine="th", capacity=4, checkpoint_every=1000)
    for key in ("alpha", "bravo", "charlie", "delta", "echo"):
        f.insert(key, key[0])
    f.checkpoint()
    f.put("foxtrot", "f", rid=(1, 1))
    f.delete("alpha")
    f.insert("golf")
    return store.snapshot_durable()


def _edit_manifest(edit):
    def apply(store):
        manifest = json.loads(store.read("MANIFEST"))
        store.write_atomic("MANIFEST", json.dumps(edit(manifest)).encode())

    return apply


def _without(key):
    return _edit_manifest(lambda m: {k: v for k, v in m.items() if k != key})


def _with(key, value):
    return _edit_manifest(lambda m: {**m, key: value})


def _edit_header(at=-1, **fields):
    """Rewrite fields of the header of chain entry ``at`` (the newest)."""

    def apply(store):
        name = json.loads(store.read("MANIFEST"))["chain"][at]
        header, index, buckets = decode_checkpoint(store.read(name), name)
        header.update(fields)
        image = encode_checkpoint(header, index, sorted(buckets.items()))
        store.write_atomic(name, image)

    return apply


def _logged(body, rec_type=REC_INSERT):
    """Append one record holding ``body`` under a valid frame and CRC."""

    def apply(store):
        manifest = json.loads(store.read("MANIFEST"))
        records, _clean = read_records(store.read(manifest["wal"]))
        frame = encode_record(records[-1].lsn + 1, rec_type, body)
        store.append(manifest["wal"], frame)
        store.fsync(manifest["wal"])

    return apply


_BODY_HEAD = struct.Struct(">BHH")  # flags, key length, value length


def _params_without(key):
    def edit(manifest):
        params = {k: v for k, v in manifest["params"].items() if k != key}
        return {**manifest, "params": params}

    return _edit_manifest(edit)


MALFORMED = {
    "manifest-without-lsn": _without("lsn"),
    "manifest-without-chain": _without("chain"),
    "manifest-without-wal": _without("wal"),
    "manifest-without-params": _without("params"),
    "manifest-is-a-list": lambda store: store.write_atomic("MANIFEST", b"[1, 2]"),
    "chain-is-an-int": _with("chain", 5),
    "chain-entry-is-a-list": _with("chain", [["ckpt-1"]]),
    "params-without-policy": _params_without("policy"),
    "params-policy-unknown-field": _edit_manifest(
        lambda m: {**m, "params": {**m["params"], "policy": {"bogus": 1}}}
    ),
    "header-live-not-a-list": _edit_header(live=7),
    "header-live-beyond-max-address": _edit_header(live=[0, 10_000]),
    "header-max-address-a-string": _edit_header(max_address="nine"),
    "header-dedup-an-int": _edit_header(dedup=5),
    "header-dedup-entry-short": _edit_header(dedup=[[1, 2]]),
    # Recovery folds every chain entry's window, the oldest one too.
    "header-dedup-an-int-oldest": _edit_header(0, dedup=5),
    "header-dedup-entry-short-oldest": _edit_header(0, dedup=[[1, 2]]),
    "header-dedup-rid-strings-oldest": _edit_header(0, dedup=[["a", "b", None]]),
    # The head promises a five-byte key that is not there.
    "op-without-key": _logged(_BODY_HEAD.pack(0, 5, 0)),
    "op-key-length-past-the-body": _logged(_BODY_HEAD.pack(0, 9, 0) + b"hotel"),
    "op-key-bad-utf8": _logged(_BODY_HEAD.pack(0, 2, 0) + b"\xff\xfe"),
    "op-value-bad-utf8": _logged(_BODY_HEAD.pack(1, 5, 2) + b"hotel\xc3\x28"),
    "op-value-length-without-a-value": _logged(_BODY_HEAD.pack(0, 5, 1) + b"hotelx"),
    # A flagged request id cut to one of its two integers.
    "op-rid-an-int": _logged(encode_body("hotel", None, (1, 2))[:-8]),
    "op-trailing-bytes": _logged(encode_body("hotel") + b"\x00"),
    "op-unknown-flag-bits": _logged(_BODY_HEAD.pack(4, 5, 0) + b"hotel"),
    "op-body-shorter-than-its-head": _logged(b"\x00\x00"),
    # The JSON list the record layout before this one would hold: its
    # first byte, "[", sets flag bits no body has.
    "op-payload-a-list": _logged(b'["hotel"]'),
    "op-type-unknown": _logged(encode_body("hotel"), rec_type=99),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_durable_input_raises_recovery_error(case):
    store = StableStore.from_snapshot(_durable_image())
    MALFORMED[case](store)
    with pytest.raises(RecoveryError):
        DurableFile.open(store)


@pytest.mark.parametrize("top", [0x7FFF, 300_000, 10**9])
def test_a_forged_max_address_is_refused_before_restore_allocates(top):
    # No TH index can point at bucket 0x7FFF or past it, so no TH file
    # that reached it could have checkpointed: a header naming such a
    # top is forged, and restoring it would allocate every address up
    # to it (10**9 of them exhaust memory).
    store = StableStore()
    f = DurableFile.open(store, engine="th", capacity=4)
    f.insert("alpha", "a")
    f.insert("bravo", "b")
    f.checkpoint(full=True)
    assert len(json.loads(store.read("MANIFEST"))["chain"]) == 1
    _edit_header(max_address=top)(store)
    tracemalloc.start()
    try:
        with pytest.raises(RecoveryError, match="max_address"):
            DurableFile.open(store)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


#: Manglings of a record body that leave nothing decodable.
_UNKNOWN_FLAGS = st.sampled_from([4, 8, 16, 32, 64, 128])


@given(
    value=st.none() | st.text(max_size=4),
    rid=st.none() | st.tuples(_I64, _I64),
    rec_type=st.sampled_from([REC_INSERT, REC_PUT, REC_DELETE]),
    how=st.sampled_from(["cut", "extend", "flag", "byte"]),
    data=st.data(),
)
def test_any_mangled_body_under_a_valid_crc_fails_typed(value, rid, rec_type, how, data):
    """A body whose CRC checks (so no tear) but which was mangled: the
    reopen raises RecoveryError, never another type. A cut, trailing
    bytes or an unknown flag bit never decode; one byte changed may
    still decode to a valid operation, which then replays."""
    body = encode_body("hotel", value, rid)
    if how == "cut":
        mangled = body[: data.draw(st.integers(0, len(body) - 1))]
    elif how == "extend":
        mangled = body + data.draw(st.binary(min_size=1, max_size=9))
    elif how == "flag":
        mangled = bytes([body[0] | data.draw(_UNKNOWN_FLAGS)]) + body[1:]
    else:
        at = data.draw(st.integers(0, len(body) - 1))
        mangled = body[:at] + bytes([data.draw(st.integers(0, 255))]) + body[at + 1:]
    store = StableStore.from_snapshot(_durable_image())
    _logged(mangled, rec_type)(store)
    try:
        g = DurableFile.open(store)
    except RecoveryError:
        return
    assert how == "byte", mangled
    g.check()


_DROP = object()
_MANIFEST_KEYS = ("engine", "params", "chain", "wal", "lsn", "next_ckpt")
_ANY_JSON = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 10),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=6),
    st.lists(st.one_of(st.integers(0, 3), st.text(max_size=6)), max_size=3),
    st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
)


@given(key=st.sampled_from(_MANIFEST_KEYS), value=st.one_of(st.just(_DROP), _ANY_JSON))
def test_manifest_key_dropped_or_retyped_opens_or_fails_typed(key, value):
    store = StableStore.from_snapshot(_durable_image())
    edit = _without(key) if value is _DROP else _with(key, value)
    edit(store)
    try:
        g = DurableFile.open(store)
    except RecoveryError:
        return
    g.check()
