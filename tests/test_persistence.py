"""Whole-file persistence round trips and corrupted-image handling.

An image is a sealed full checkpoint: the sections of recovery's
checkpoint codec plus a trailing CRC32 of the whole image.
"""

import io
import json
import random
import struct
import zlib

import pytest

from repro import MLTHFile, SplitPolicy, THFile
from repro.btree.btree import BPlusTree
from repro.core.compact import CompactTrie
from repro.core.errors import StorageError
from repro.core.overflow import OverflowTHFile
from repro.storage.persistence import dump_bytes, load_bytes, load_file, save_file
from repro.storage.recovery import decode_checkpoint, encode_checkpoint
from repro.storage.serializer import deserialize_bucket, serialize_bucket


def build(keys, policy=None, b=6):
    f = THFile(bucket_capacity=b, policy=policy)
    for k in keys:
        f.insert(k, k[::-1])
    return f


class TestRoundTrip:
    def test_bytes_roundtrip(self, small_keys):
        original = build(small_keys)
        restored = load_bytes(dump_bytes(original))
        restored.check()
        assert len(restored) == len(original)
        assert list(restored.items()) == list(original.items())

    def test_policy_travels(self, sorted_keys):
        original = build(sorted_keys, policy=SplitPolicy.thcl_ascending(2), b=10)
        restored = load_bytes(dump_bytes(original))
        assert restored.policy == original.policy
        assert restored.capacity == 10
        # And the restored file keeps behaving per the policy:
        restored.insert("zzzzzy")
        restored.check()

    def test_path_roundtrip(self, small_keys, tmp_path):
        original = build(small_keys)
        path = str(tmp_path / "file.thcl")
        save_file(original, path)
        restored = load_file(path)
        assert list(restored.keys()) == sorted(small_keys)

    def test_stream_roundtrip(self, small_keys):
        original = build(small_keys)
        buffer = io.BytesIO()
        save_file(original, buffer)
        buffer.seek(0)
        restored = load_file(buffer)
        assert list(restored.keys()) == sorted(small_keys)

    def test_file_with_holes_in_address_space(self, small_keys):
        # Deletions free buckets; recycled address layout must survive.
        original = build(small_keys, policy=SplitPolicy.thcl(), b=4)
        for k in sorted(small_keys)[:150]:
            original.delete(k)
        original.check()
        restored = load_bytes(dump_bytes(original))
        restored.check()
        assert list(restored.items()) == list(original.items())

    def test_restored_file_fully_operational(self, small_keys):
        restored = load_bytes(dump_bytes(build(small_keys)))
        restored.insert("zzzzzz", "tail")
        assert restored.get("zzzzzz") == "tail"
        restored.delete(sorted(small_keys)[0])
        restored.check()

    def test_nil_leaves_survive(self):
        f = THFile(bucket_capacity=4, policy=SplitPolicy(split_position=-1))
        for k in ("oaaa", "obbb", "osza", "oszc", "oszh"):
            f.insert(k, None)
        assert f.nil_leaf_fraction() > 0
        restored = load_bytes(dump_bytes(f))
        restored.check()
        assert restored.nil_leaf_fraction() == f.nil_leaf_fraction()


class TestMLTHRoundTrip:
    def build(self, small_keys, policy=None):
        f = MLTHFile(bucket_capacity=5, page_capacity=8, policy=policy)
        for i, k in enumerate(small_keys):
            f.insert(k, str(i))
        return f

    def test_roundtrip(self, small_keys):
        original = self.build(small_keys)
        restored = load_bytes(dump_bytes(original))
        restored.check()
        assert len(restored) == len(original)
        assert list(restored.items()) == list(original.items())
        assert restored.levels() == original.levels()

    def test_restored_searches_and_grows(self, small_keys):
        restored = load_bytes(dump_bytes(self.build(small_keys)))
        for k in small_keys[:30]:
            assert k in restored
        restored.insert("zzzzzzy")
        restored.check()

    def test_policy_and_pick_travel(self, sorted_keys):
        policy = SplitPolicy.thcl_ascending(0).with_(merge="none")
        original = self.build(sorted_keys, policy=policy)
        restored = load_bytes(dump_bytes(original))
        assert restored.policy == policy
        assert restored.load_factor() == original.load_factor()

    def test_magic_checked(self, small_keys):
        # The header names the engine; a name no adapter answers to is
        # refused before anything is built.
        data = dump_bytes(self.build(small_keys))
        with pytest.raises(StorageError, match="corrupt"):
            load_bytes(_reheader(data, lambda h: h.update(engine="nope")))


ENGINES = {
    "th-cells": lambda: THFile(bucket_capacity=4, trie_backend="cells"),
    "th-compact": lambda: THFile(bucket_capacity=4, trie_backend="compact"),
    "thcl": lambda: THFile(bucket_capacity=4, policy=SplitPolicy.thcl()),
    "mlth": lambda: MLTHFile(bucket_capacity=5, page_capacity=8),
    "btree": lambda: BPlusTree(leaf_capacity=4),
}


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_every_engine_round_trips_through_one_format(small_keys, engine):
    original = ENGINES[engine]()
    for i, k in enumerate(small_keys):
        original.insert(k, k.upper() if i % 3 else None)
    restored = load_bytes(dump_bytes(original))
    assert type(restored) is type(original)
    restored.check()
    assert list(restored.items()) == list(original.items())
    if isinstance(original, THFile):
        assert restored.trie_backend == original.trie_backend
        assert type(restored.trie) is type(original.trie)


def test_compact_backend_survives_a_round_trip():
    f = THFile(bucket_capacity=4, trie_backend="compact")
    for k in ("ant", "bee", "cat", "dog", "eel", "fox", "gnu", "hen", "ibis"):
        f.insert(k, k.upper())
    restored = load_bytes(dump_bytes(f))
    assert restored.trie_backend == "compact"
    assert isinstance(restored.trie, CompactTrie)
    restored.check()
    assert list(restored.items()) == list(f.items())


def test_overflow_file_is_refused_at_save():
    # Its overflow chains are invisible to the trie: an image of the trie
    # and the live buckets of this file would reload with len() == 300
    # but only 223 records reachable, and fail check().
    rng = random.Random(1)
    f = OverflowTHFile(bucket_capacity=4)
    while len(f) < 300:
        key = "".join(rng.choice("abcdefgh") for _ in range(5))
        if key not in f:
            f.insert(key, key)
    with pytest.raises(StorageError, match="OverflowTHFile"):
        dump_bytes(f)


class TestValidation:
    def test_bad_magic(self):
        with pytest.raises(StorageError):
            load_bytes(b"NOPE" + b"\x00" * 32)

    def test_truncation_detected(self, small_keys):
        data = dump_bytes(build(small_keys))
        with pytest.raises(StorageError):
            load_bytes(data[: len(data) // 2])

    def test_record_count_verified(self, small_keys):
        # Promise one record more than the buckets hold: the header
        # section is re-framed and the image resealed, so both CRCs pass
        # and the count check fires.
        data = dump_bytes(build(small_keys))
        with pytest.raises(StorageError):
            load_bytes(_reheader(data, lambda h: h.update(records=h["records"] + 1)))


def _reseal(data):
    """Recompute the trailing image CRC over a tampered body.

    Lets tests reach the parsing layers *behind* the checksum: without
    this every flipped byte is caught by the outer CRC and the inner
    decoding paths never run.
    """
    body = data[:-4]
    return body + struct.pack(">I", zlib.crc32(body) & 0xFFFFFFFF)


def _resection(data, edit):
    """Apply ``edit(header, index, buckets)`` to an image's decoded
    sections (``buckets`` maps address to payload; ``edit`` mutates the
    header and bucket map and returns the index), then re-frame every
    section (length and CRC) and reseal the image."""
    header, index, buckets = decode_checkpoint(data[:-4], "image")
    index = edit(header, index, buckets)
    return _reseal(encode_checkpoint(header, index, sorted(buckets.items())) + data[-4:])


def _reheader(data, edit):
    """Apply ``edit`` to an image's JSON header, re-frame the header
    section and reseal the image."""

    def apply(header, index, buckets):
        edit(header)
        return index

    return _resection(data, apply)


HEADER_EDITS = {
    "policy-not-a-mapping": lambda h: h["params"].update(policy=[]),
    "policy-unknown-field": lambda h: h["params"]["policy"].update(bogus=1),
    "capacity-not-an-int": lambda h: h["params"].update(capacity="x"),
    "capacity-too-small": lambda h: h["params"].update(capacity=1),
    "records-missing": lambda h: h.pop("records"),
}


@pytest.mark.parametrize("fmt", ["th", "mlth"])
@pytest.mark.parametrize("edit", sorted(HEADER_EDITS))
def test_resealed_header_that_builds_no_file_raises_storage_error(
    small_keys, fmt, edit
):
    if fmt == "th":
        data = dump_bytes(build(small_keys))
    else:
        f = MLTHFile(bucket_capacity=5, page_capacity=8)
        for k in small_keys[:60]:
            f.insert(k)
        data = dump_bytes(f)
    load_bytes(_reheader(data, lambda h: None))  # the untouched header loads
    with pytest.raises(StorageError, match="corrupt"):
        load_bytes(_reheader(data, HEADER_EDITS[edit]))


def _filled(engine, keys):
    f = ENGINES[engine]()
    for k in keys:
        f.insert(k, k[::-1])
    return f


def _cut_first_bucket(header, index, buckets):
    address = min(buckets)
    buckets[address] = buckets[address][:3]
    return index


def _drop_page_boundaries(header, index, buckets):
    spec = json.loads(index)
    del next(iter(spec["pages"].values()))["boundaries"]
    return json.dumps(spec).encode()


UNDECODABLE = {
    # section edit, engine, the fallback it takes (None: it must raise)
    "bucket-payload-cut": (_cut_first_bucket, "th-cells", None),
    "th-index-cut": (lambda h, index, b: index[:-3], "th-compact", "reconstruct"),
    "mlth-page-without-boundaries": (_drop_page_boundaries, "mlth", "reinsert"),
    "btree-index-of-ints": (lambda h, i, b: b"[1, 2, 3]", "btree", None),
}


@pytest.mark.parametrize("case", sorted(UNDECODABLE))
def test_section_that_does_not_decode_fails_typed_or_falls_back(small_keys, case):
    # Each section keeps a valid CRC, but its bytes do not decode.
    edit, engine, fallback = UNDECODABLE[case]
    original = _filled(engine, small_keys[:80])
    data = _resection(dump_bytes(original), edit)
    if fallback is None:
        with pytest.raises(StorageError, match="corrupt"):
            load_bytes(data)
        return
    restored = load_bytes(data)
    restored.check()
    assert list(restored.items()) == list(original.items())
    if fallback == "reconstruct":  # the rebuilt trie keeps the file's backend
        assert isinstance(restored.trie, CompactTrie)


def _drop_first_bucket(header, index, buckets):
    del buckets[min(buckets)]
    return index


def _add_a_stray_bucket(header, index, buckets):
    buckets[header["max_address"] + 1] = buckets[min(buckets)]
    return index


def _foreign_header_path(header, index, buckets):
    address = min(buckets)
    bucket = deserialize_bucket(buckets[address])
    bucket.header_path = "#"  # not a digit of the file's alphabet
    buckets[address] = serialize_bucket(bucket)
    return index[:-3]  # and force the Section-6 reconstruction to read it


MISFIT_BUCKETS = {
    "bucket-section-missing": _drop_first_bucket,
    "bucket-section-not-live": _add_a_stray_bucket,
    "header-path-outside-the-alphabet": _foreign_header_path,
}


@pytest.mark.parametrize("case", sorted(MISFIT_BUCKETS))
def test_buckets_that_do_not_fit_the_header_fail_typed(small_keys, case):
    edit = MISFIT_BUCKETS[case]
    data = _resection(dump_bytes(_filled("th-cells", small_keys[:80])), edit)
    with pytest.raises(StorageError, match="corrupt"):
        load_bytes(data)


class TestCorruption:
    """A damaged image must always surface as StorageError — never as a
    raw struct/json/unicode traceback from the codec internals."""

    def test_empty_image(self):
        with pytest.raises(StorageError, match="too short"):
            load_bytes(b"")

    def test_single_byte_image(self):
        with pytest.raises(StorageError):
            load_bytes(b"\x00")

    def test_flipped_checksum_byte(self, small_keys):
        data = bytearray(dump_bytes(build(small_keys)))
        data[-1] ^= 0xFF
        with pytest.raises(StorageError, match="checksum mismatch"):
            load_bytes(bytes(data))

    def test_flipped_body_byte_fails_checksum(self, small_keys):
        data = bytearray(dump_bytes(build(small_keys)))
        data[len(data) // 2] ^= 0x40
        with pytest.raises(StorageError, match="checksum mismatch"):
            load_bytes(bytes(data))

    def test_truncation_at_every_region(self, small_keys):
        # Cut the image inside the magic, the header, the trie and the
        # bucket area; every cut must fail cleanly.
        data = dump_bytes(build(small_keys))
        for cut in (3, 8, 40, len(data) // 3, len(data) - 2):
            with pytest.raises(StorageError):
                load_bytes(data[:cut])

    def test_resealed_garbage_header_is_clean(self, small_keys):
        # Valid checksums over a broken JSON header: the garbled header
        # section is re-framed (length and CRC) and the image resealed,
        # so the failure reaches the JSON parser, which must wrap it,
        # not leak json.JSONDecodeError.
        data = dump_bytes(build(small_keys))
        start = len(b"THCK1\n")  # the checkpoint magic, then the header frame
        (length,) = struct.unpack(">I", data[start : start + 4])
        header = bytearray(data[start + 8 : start + 8 + length])
        at = header.find(b'"capacity"')
        header[at : at + 10] = b"\xff" * 10
        frame = struct.pack(">II", length, zlib.crc32(header) & 0xFFFFFFFF)
        garbled = data[:start] + frame + bytes(header) + data[start + 8 + length :]
        with pytest.raises(StorageError, match="corrupt"):
            load_bytes(_reseal(garbled))

    def test_resealed_truncated_bucket_area_is_clean(self, small_keys):
        # Drop the tail of the bucket area but keep the CRC honest: the
        # record loop hits a short read and must report StorageError.
        data = dump_bytes(build(small_keys))
        with pytest.raises(StorageError):
            load_bytes(_reseal(data[: len(data) - 30] + data[-4:]))

    def test_mlth_empty_and_flipped(self, small_keys):
        with pytest.raises(StorageError):
            load_bytes(b"")
        f = MLTHFile(bucket_capacity=5, page_capacity=8)
        for k in small_keys[:60]:
            f.insert(k)
        data = bytearray(dump_bytes(f))
        data[len(data) // 2] ^= 0x01
        with pytest.raises(StorageError, match="checksum mismatch"):
            load_bytes(bytes(data))

    def test_mlth_truncation(self, small_keys):
        f = MLTHFile(bucket_capacity=5, page_capacity=8)
        for k in small_keys[:60]:
            f.insert(k)
        data = dump_bytes(f)
        for cut in (2, 10, len(data) // 2):
            with pytest.raises(StorageError):
                load_bytes(data[:cut])
