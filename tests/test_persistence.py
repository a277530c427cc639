"""Whole-file persistence round trips and corrupted-image handling."""

import io
import json
import struct
import zlib

import pytest

from repro import SplitPolicy, THFile
from repro.core.errors import StorageError
from repro.storage.persistence import dump_bytes, load_bytes, load_file, save_file


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
        from repro import MLTHFile

        f = MLTHFile(bucket_capacity=5, page_capacity=8, policy=policy)
        for i, k in enumerate(small_keys):
            f.insert(k, str(i))
        return f

    def test_roundtrip(self, small_keys):
        from repro.storage.persistence import dump_mlth_bytes, load_mlth_bytes

        original = self.build(small_keys)
        restored = load_mlth_bytes(dump_mlth_bytes(original))
        restored.check()
        assert len(restored) == len(original)
        assert list(restored.items()) == list(original.items())
        assert restored.levels() == original.levels()

    def test_restored_searches_and_grows(self, small_keys):
        from repro.storage.persistence import dump_mlth_bytes, load_mlth_bytes

        restored = load_mlth_bytes(dump_mlth_bytes(self.build(small_keys)))
        for k in small_keys[:30]:
            assert k in restored
        restored.insert("zzzzzzy")
        restored.check()

    def test_policy_and_pick_travel(self, sorted_keys):
        from repro import SplitPolicy
        from repro.storage.persistence import dump_mlth_bytes, load_mlth_bytes

        policy = SplitPolicy.thcl_ascending(0).with_(merge="none")
        original = self.build(sorted_keys, policy=policy)
        restored = load_mlth_bytes(dump_mlth_bytes(original))
        assert restored.policy == policy
        assert restored.load_factor() == original.load_factor()

    def test_magic_checked(self):
        from repro.storage.persistence import load_mlth_bytes

        with pytest.raises(StorageError):
            load_mlth_bytes(b"THCL1\n" + b"\x00" * 16)


class TestValidation:
    def test_bad_magic(self):
        with pytest.raises(StorageError):
            load_bytes(b"NOPE" + b"\x00" * 32)

    def test_truncation_detected(self, small_keys):
        data = dump_bytes(build(small_keys))
        with pytest.raises(StorageError):
            load_bytes(data[: len(data) // 2])

    def test_record_count_verified(self, small_keys):
        data = bytearray(dump_bytes(build(small_keys)))
        # Corrupt the declared record count in the JSON header, then
        # reseal so the image checksum passes and the count check fires.
        at = data.find(b'"records":')
        data[at + 10 : at + 11] = b"9"
        with pytest.raises(StorageError):
            load_bytes(_reseal(bytes(data)))


def _reseal(data):
    """Recompute the trailing image CRC over a tampered body.

    Lets tests reach the parsing layers *behind* the checksum: without
    this every flipped byte is caught by the outer CRC and the inner
    decoding paths never run.
    """
    body = data[:-4]
    return body + struct.pack(">I", zlib.crc32(body) & 0xFFFFFFFF)


def _reheader(data, magic, edit):
    """Apply ``edit`` to an image's JSON header and reseal the image."""
    body = data[:-4]
    at = len(magic)
    (length,) = struct.unpack(">I", body[at : at + 4])
    header = json.loads(body[at + 4 : at + 4 + length])
    edit(header)
    raw = json.dumps(header).encode()
    rest = body[at + 4 + length :]
    return _reseal(body[:at] + struct.pack(">I", len(raw)) + raw + rest + data[-4:])


HEADER_EDITS = {
    "policy-not-a-mapping": lambda h: h.update(policy=[]),
    "policy-unknown-field": lambda h: h["policy"].update(bogus=1),
    "capacity-not-an-int": lambda h: h.update(capacity="x"),
    "capacity-too-small": lambda h: h.update(capacity=1),
    "records-missing": lambda h: h.pop("records"),
}


@pytest.mark.parametrize("fmt", ["thcl1", "mlth1"])
@pytest.mark.parametrize("edit", sorted(HEADER_EDITS))
def test_resealed_header_that_builds_no_file_raises_storage_error(
    small_keys, fmt, edit
):
    from repro import MLTHFile
    from repro.storage.persistence import dump_mlth_bytes, load_mlth_bytes

    if fmt == "thcl1":
        data, magic, load = dump_bytes(build(small_keys)), b"THCL1\n", load_bytes
    else:
        f = MLTHFile(bucket_capacity=5, page_capacity=8)
        for k in small_keys[:60]:
            f.insert(k)
        data, magic, load = dump_mlth_bytes(f), b"MLTH1\n", load_mlth_bytes
    load(_reheader(data, magic, lambda h: None))  # the untouched header loads
    with pytest.raises(StorageError, match="corrupt"):
        load(_reheader(data, magic, HEADER_EDITS[edit]))


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
        # Valid checksum over a broken JSON header: the inner parser
        # must wrap the failure, not leak json.JSONDecodeError.
        data = bytearray(dump_bytes(build(small_keys)))
        at = data.find(b'"capacity"')
        data[at : at + 10] = b"\xff" * 10
        with pytest.raises(StorageError, match="corrupt"):
            load_bytes(_reseal(bytes(data)))

    def test_resealed_truncated_bucket_area_is_clean(self, small_keys):
        # Drop the tail of the bucket area but keep the CRC honest: the
        # record loop hits a short read and must report StorageError.
        data = dump_bytes(build(small_keys))
        with pytest.raises(StorageError):
            load_bytes(_reseal(data[: len(data) - 30] + data[-4:]))

    def test_mlth_empty_and_flipped(self, small_keys):
        from repro import MLTHFile
        from repro.storage.persistence import dump_mlth_bytes, load_mlth_bytes

        with pytest.raises(StorageError):
            load_mlth_bytes(b"")
        f = MLTHFile(bucket_capacity=5, page_capacity=8)
        for k in small_keys[:60]:
            f.insert(k)
        data = bytearray(dump_mlth_bytes(f))
        data[len(data) // 2] ^= 0x01
        with pytest.raises(StorageError, match="checksum mismatch"):
            load_mlth_bytes(bytes(data))

    def test_mlth_truncation(self, small_keys):
        from repro import MLTHFile
        from repro.storage.persistence import dump_mlth_bytes, load_mlth_bytes

        f = MLTHFile(bucket_capacity=5, page_capacity=8)
        for k in small_keys[:60]:
            f.insert(k)
        data = dump_mlth_bytes(f)
        for cut in (2, 10, len(data) // 2):
            with pytest.raises(StorageError):
                load_mlth_bytes(data[:cut])
