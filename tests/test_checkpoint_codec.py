"""The checkpoint image codec: the same bytes, one pass each way.

Three kinds of assurance over :func:`~repro.storage.recovery.encode_checkpoint`,
:func:`~repro.storage.recovery.decode_checkpoint` and the two section
encoders of :mod:`repro.storage.serializer`:

* goldens: the SHA-256 of every checkpoint image a seeded durable file
  writes, pinned to the images of the earlier per-record encoders, so
  an encoder that moves one byte of the on-disk format fails here;
* properties: the row-reader ``serialize_trie`` equals the
  cell-by-cell encoding over the suite's file strategies, and an index
  read back into either trie backend re-serializes to the same bytes;
* damaged images: a cut, flipped or extended checkpoint reopens or
  raises :class:`~repro.core.errors.RecoveryError`, never another type.
"""

from __future__ import annotations

import hashlib
import json
import random
import string
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import SplitPolicy, THFile
from repro.core.alphabet import Alphabet
from repro.core.cells import edge_target, is_edge, is_nil
from repro.core.compact import CompactCellView, CompactTrie
from repro.core.errors import RecoveryError
from repro.core.trie import Trie
from repro.storage.recovery import DurableFile, decode_checkpoint, encode_checkpoint
from repro.storage.serializer import deserialize_trie, serialize_trie
from repro.storage.wal import StableStore

#: Latin-1 digits past ASCII: keys a one-byte DV still holds.
ACCENTED = Alphabet(" abcdefghéñóü")


class _CheckpointLog(StableStore):
    """A stable store that keeps every checkpoint image it is handed."""

    def __init__(self) -> None:
        super().__init__()
        self.images: list[bytes] = []

    def _physical(self, kind: str, name: str, payload: bytes = b"") -> None:
        if kind == "rename" and name.startswith("ckpt-"):
            self.images.append(payload)


def _ops(seed, count, digits, values):
    """A seeded op list over keys drawn from ``digits``: inserts, puts
    and deletes, ``values(rng)`` giving each written value."""
    rng = random.Random(seed)
    model = {}
    ops = []
    while len(ops) < count:
        r = rng.random()
        if model and r < 0.3:
            key = rng.choice(sorted(model))
            del model[key]
            ops.append(("delete", key, None))
        elif model and r < 0.45:
            key = rng.choice(sorted(model))
            model[key] = values(rng)
            ops.append(("put", key, model[key]))
        else:
            key = "".join(rng.choice(digits) for _ in range(rng.randint(1, 6)))
            if key in model:
                continue
            model[key] = values(rng)
            ops.append(("insert", key, model[key]))
    return ops


def _ascii_values(rng):
    return "".join(rng.choice(string.ascii_letters) for _ in range(rng.randint(0, 6)))


def _none_values(rng):
    return None if rng.random() < 0.5 else _ascii_values(rng)


def _wide_values(rng):
    pool = "aé€\U0001d11e中\x00"
    return "".join(rng.choice(pool) for _ in range(rng.randint(0, 5)))


#: name -> (engine, params, op seed, op count, key digits, values)
SCENARIOS = {
    "th-merges": (
        "th",
        dict(capacity=4, policy=SplitPolicy(merge="rotations")),
        3, 400, "abcdefgh", _ascii_values,
    ),
    "thcl-shared-leaves": (
        "th",
        dict(capacity=4, policy=SplitPolicy.thcl()),
        5, 400, "abcdefghij", _ascii_values,
    ),
    "basic-th-nil-leaves": (
        "th",
        dict(capacity=4, policy=SplitPolicy.basic_th()),
        7, 300, "abcdefghijklmnop", _none_values,
    ),
    "th-non-ascii": (
        "th",
        dict(capacity=5, policy=SplitPolicy.thcl(), alphabet=ACCENTED),
        11, 300, "abcéñóü", _wide_values,
    ),
    "mlth": (
        "mlth",
        dict(capacity=4, page_capacity=8, policy=SplitPolicy.thcl(merge="guaranteed")),
        13, 300, "abcdefgh", _none_values,
    ),
}

#: SHA-256 over every checkpoint image of a scenario, each prefixed by
#: its length, as written by the per-record encoders before the one-pass
#: codec. The index bytes, and so the images, are the same on both trie
#: backends.
GOLDENS = {
    "th-merges": "f68ac05f355c9ccbac48009f7834921a29f5a4ef4bf777d2a3cc0b8aff69964e",
    "thcl-shared-leaves": "3e9bad9443fd565ff475eec3f22628f2a082e48263c5e81aaaef1d4d5545c56c",
    "basic-th-nil-leaves": "e781fbe8d7c779ece5e28cc613465046b29c6129c9058ec43152d01d60fd7040",
    "th-non-ascii": "df72ca03b1c29996b67747cc5920e6386dcec8e4695535c33ae6dfc08ed5e9b1",
    "mlth": "c47890360d9f6a92529871247c481a8588b21fc0f07b572c3d1356aa63afeec3",
}


def _run(scenario, trie_backend=None):
    """The checkpoint images a scenario writes, and the final file."""
    engine, params, seed, count, digits, values = SCENARIOS[scenario]
    if trie_backend is not None:
        params = dict(params, trie_backend=trie_backend)
    store = _CheckpointLog()
    f = DurableFile.open(store, engine=engine, checkpoint_every=8, max_chain=4, **params)
    for seq, (kind, key, value) in enumerate(_ops(seed, count, digits, values), 1):
        rid = (seq % 3, seq) if seq % 2 else None
        if kind == "insert":
            f.insert(key, value, rid=rid)
        elif kind == "put":
            f.put(key, value, rid=rid)
        else:
            f.delete(key, rid=rid)
    f.checkpoint(full=True)
    store.images.append(b"")  # the reopen's checkpoint follows a marker
    DurableFile.open(store)
    return store.images, f


def _digest(images):
    sha = hashlib.sha256()
    for image in images:
        sha.update(struct.pack(">I", len(image)))
        sha.update(image)
    return sha.hexdigest()


def _trie_shape(trie):
    """``(freed cells, nil leaves, leaves sharing a bucket)`` of ``trie``."""
    leaves = [
        ptr
        for _, cell in trie.cells.live_items()
        for ptr in (cell.lp, cell.rp)
        if not is_edge(ptr)
    ]
    real = [ptr for ptr in leaves if not is_nil(ptr)]
    freed = len(trie.cells) - trie.cells.live_count()
    return freed, len(leaves) - len(real), len(real) - len(set(real))


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_checkpoint_images_are_the_pinned_bytes(scenario):
    engine = SCENARIOS[scenario][0]
    backends = ("compact", "cells") if engine == "th" else (None,)
    for backend in backends:
        images, f = _run(scenario, backend)
        assert _digest(images) == GOLDENS[scenario], (scenario, backend)
    if engine != "th":
        return
    freed, nil, shared = _trie_shape(f.file.trie)
    store = f.file.store
    values = [value for _, value in f.items()]
    # Each scenario holds the shape its name promises.
    covered = {
        "th-merges": freed > 0 and store.max_address() >= store.allocated_count(),
        "thcl-shared-leaves": shared > 0,
        "basic-th-nil-leaves": nil > 0 and None in values,
        "th-non-ascii": any(ord(c) > 0x7F for key, _ in f.items() for c in key)
        and any(ord(c) > 0xFFFF for value in values for c in value),
    }
    assert covered[scenario]


# ----------------------------------------------------------------------
# The row reader against the cell-by-cell encoding
# ----------------------------------------------------------------------
def _cell_by_cell(trie):
    """The index encoding read one cell object at a time (the layout of
    :func:`serialize_trie`, spelled out as Section 3.1 gives it)."""
    live = list(trie.cells.live_items())
    remap = {index: new for new, (index, _) in enumerate(live)}

    def ptr(raw):
        if is_nil(raw):
            return 0xFFFF
        if is_edge(raw):
            return 0x8000 | remap[edge_target(raw)]
        return raw

    digits = trie.alphabet.digits.encode("latin-1")
    out = struct.pack(">HH", len(live), len(digits)) + digits
    out += struct.pack(">H", ptr(trie.root))
    for _, cell in live:
        out += struct.pack(">BBHH", ord(cell.dv), cell.dn, ptr(cell.lp), ptr(cell.rp))
    return out


keys_st = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=8)
key_lists = st.lists(keys_st, min_size=1, max_size=120, unique=True)
policies = st.sampled_from(
    [
        SplitPolicy.basic_th(),
        SplitPolicy.basic_th(split_position=1),
        SplitPolicy(merge="rotations"),
        SplitPolicy.thcl(),
        SplitPolicy.thcl_ascending(2),
        SplitPolicy.thcl_descending(0),
        SplitPolicy.thcl_guaranteed_half(),
        SplitPolicy.thcl_redistributing(),
    ]
)


@given(keys=key_lists, policy=policies, drop=st.booleans(), data=st.data())
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_row_reader_encodes_the_cells_and_reloads_on_either_backend(
    keys, policy, drop, data
):
    files = [
        THFile(bucket_capacity=4, policy=policy, trie_backend=backend)
        for backend in ("cells", "compact")
    ]
    victims = data.draw(st.lists(st.sampled_from(keys), unique=True)) if drop else []
    for f in files:
        for key in keys:
            f.insert(key, key[:2])
        for key in victims:
            f.delete(key)
    encoded = [serialize_trie(f.trie) for f in files]
    assert encoded[0] == encoded[1] == _cell_by_cell(files[0].trie)
    assert encoded[1] == _cell_by_cell(files[1].trie)
    for backend in (Trie, CompactTrie):
        reloaded = deserialize_trie(encoded[0], backend)
        assert type(reloaded) is backend
        reloaded.check()
        assert serialize_trie(reloaded) == encoded[0]
        assert reloaded.to_model() == files[0].trie.to_model()


def test_the_row_reader_builds_no_cell_view(monkeypatch):
    f = THFile(bucket_capacity=4, trie_backend="compact")
    for key in ("ash", "birch", "cedar", "dogwood", "elm", "fir", "gum", "holly"):
        f.insert(key)
    f.delete("cedar")
    expected = _cell_by_cell(f.trie)

    def refuse(*args, **kwargs):
        raise AssertionError("the serializer built a cell view")

    monkeypatch.setattr(CompactCellView, "__init__", refuse)
    assert serialize_trie(f.trie) == expected


# ----------------------------------------------------------------------
# Damaged images fail typed
# ----------------------------------------------------------------------
def _durable_store():
    """A small TH store whose newest checkpoint is incremental."""
    store = StableStore()
    f = DurableFile.open(
        store, engine="th", capacity=4, policy=SplitPolicy.thcl(), checkpoint_every=8
    )
    rng = random.Random(17)
    for seq in range(1, 44):
        key = "".join(rng.choice("abcdefg") for _ in range(rng.randint(1, 4)))
        f.put(key, None if seq % 5 == 0 else key.upper(), rid=(1, seq))
    f.checkpoint()
    return store


_STORE = _durable_store().snapshot_durable()


def _newest(store):
    return json.loads(store.read("MANIFEST"))["chain"][-1]


@given(
    how=st.sampled_from(["cut", "flip", "extend"]),
    at=st.floats(0, 1, exclude_max=True),
    data=st.data(),
)
def test_any_damaged_checkpoint_reopens_or_fails_typed(how, at, data):
    store = StableStore.from_snapshot(_STORE)
    name = _newest(store)
    image = store.read(name)
    pos = int(at * len(image))
    if how == "cut":
        damaged = image[:pos]
    elif how == "flip":
        damaged = bytearray(image)
        damaged[pos] ^= data.draw(st.integers(1, 255))
        damaged = bytes(damaged)
    else:
        damaged = image + data.draw(st.binary(min_size=1, max_size=12))
    store.write_atomic(name, damaged)
    try:
        g = DurableFile.open(store)
    except RecoveryError:
        return
    g.check()


def test_the_offset_decoder_reads_what_the_encoder_wrote():
    store = StableStore.from_snapshot(_STORE)
    name = _newest(store)
    image = store.read(name)
    header, index, buckets = decode_checkpoint(image, name)
    assert header["full"] is False and buckets and index is not None
    assert encode_checkpoint(header, index, sorted(buckets.items())) == image
    for cut in (len(image) - 1, 7):
        with pytest.raises(RecoveryError):
            decode_checkpoint(image[:cut], name)
