"""Binary serialisation tests: the paper's six-byte cell layout."""

import struct

import pytest

from repro import LOWERCASE, StorageError, THFile, Trie
from repro.core.cells import NIL, edge_to
from repro.storage.buckets import Bucket
from repro.storage.serializer import (
    CELL_BYTES,
    MAX_STRING_BYTES,
    deserialize_bucket,
    deserialize_trie,
    serialize_bucket,
    serialize_trie,
)


class TestTrieSerialization:
    def test_six_bytes_per_cell(self, fig1_file):
        data = serialize_trie(fig1_file.trie)
        header = 4 + len(fig1_file.alphabet.digits) + 2
        assert len(data) == header + CELL_BYTES * fig1_file.trie_size()

    def test_roundtrip_preserves_mapping(self, fig1_file, words):
        data = serialize_trie(fig1_file.trie)
        restored = deserialize_trie(data)
        restored.check()
        for w in words:
            assert (
                restored.search(w).bucket == fig1_file.trie.search(w).bucket
            )

    def test_roundtrip_with_nil_leaves(self):
        trie = Trie(LOWERCASE, root_ptr=0)
        index = trie.cells.allocate("h", 0, 0, NIL)
        trie.root = edge_to(index)
        restored = deserialize_trie(serialize_trie(trie))
        assert restored.search("z").bucket is None
        assert restored.search("a").bucket == 0

    def test_empty_trie(self):
        trie = Trie(LOWERCASE, root_ptr=0)
        restored = deserialize_trie(serialize_trie(trie))
        assert restored.root == 0
        assert restored.node_count == 0

    def test_freed_cells_compacted(self, fig1_file):
        trie = fig1_file.trie
        # Simulate a merge that freed a cell, then serialise.
        fig1_file.delete("i")  # nils a leaf (no cell freed) - force one:
        live_before = trie.node_count
        data = serialize_trie(trie)
        restored = deserialize_trie(data)
        assert restored.node_count == live_before

    def test_size_claim_1000_buckets(self, generator):
        # Section 3.1: a 6 Kbyte buffer addresses about a 1000-bucket
        # file. 1000 buckets ~ 1000 cells ~ 6000 bytes + small header.
        keys = generator.uniform(3000)
        f = THFile(bucket_capacity=4)
        for k in keys:
            f.insert(k)
        data = serialize_trie(f.trie)
        per_bucket = len(data) / f.bucket_count()
        assert per_bucket < 8  # ~6 bytes of cell per bucket plus header


class TestBucketSerialization:
    def test_roundtrip(self):
        b = Bucket()
        b.header_path = "ha"
        b.insert("had", "value1")
        b.insert("have", None)
        restored = deserialize_bucket(serialize_bucket(b))
        assert restored.header_path == "ha"
        assert list(restored.items()) == [("had", "value1"), ("have", None)]

    def test_empty_bucket(self):
        restored = deserialize_bucket(serialize_bucket(Bucket()))
        assert len(restored) == 0
        assert restored.header_path == ""

    def test_non_string_values_rejected(self):
        b = Bucket()
        b.insert("a", 42)
        with pytest.raises(StorageError):
            serialize_bucket(b)

    def test_none_vs_empty_string_distinguished(self):
        b = Bucket()
        b.insert("a", None)
        b.insert("b", "")
        restored = deserialize_bucket(serialize_bucket(b))
        assert restored.get("a") is None
        assert restored.get("b") == ""


def _trie_image(root, cells):
    """A hand-built trie image over LOWERCASE: ``cells`` are raw
    ``(dv, dn, lp, rp)`` rows in the 16-bit pointer encoding."""
    digits = LOWERCASE.digits.encode("latin-1")
    out = struct.pack(">HH", len(cells), len(digits)) + digits
    out += struct.pack(">H", root)
    for dv, dn, lp, rp in cells:
        out += struct.pack(">BBHH", ord(dv), dn, lp, rp)
    return out


EDGE = 0x8000  # high bit: an edge to cell ``value & 0x7FFF``

MALFORMED_TRIES = {
    "edge-past-the-last-cell": _trie_image(EDGE | 0, [("h", 0, EDGE | 1, 1)]),
    "cell-with-two-parents": _trie_image(
        EDGE | 0, [("h", 0, EDGE | 1, EDGE | 1), ("c", 0, 0, 1)]
    ),
    "cycle-through-the-root-cell": _trie_image(
        EDGE | 0, [("h", 0, EDGE | 1, 1), ("c", 0, EDGE | 0, 2)]
    ),
    "cell-the-root-never-reaches": _trie_image(
        EDGE | 0, [("h", 0, 0, 1), ("c", 0, 1, 2)]
    ),
    "unreachable-cycle": _trie_image(
        EDGE | 0, [("h", 0, 0, 1), ("c", 0, EDGE | 2, 1), ("e", 0, EDGE | 1, 2)]
    ),
}


class TestDecodersFailTyped:
    def test_well_formed_hand_built_image_decodes(self):
        trie = deserialize_trie(
            _trie_image(EDGE | 0, [("h", 0, EDGE | 1, 2), ("c", 0, 0, 1)])
        )
        trie.check()
        assert trie.search("a").bucket == 0 and trie.search("z").bucket == 2

    @pytest.mark.parametrize("case", sorted(MALFORMED_TRIES))
    def test_edges_that_are_not_one_tree_are_refused(self, case):
        with pytest.raises(StorageError, match="not one tree"):
            deserialize_trie(MALFORMED_TRIES[case])

    def test_short_and_overlong_trie_images_are_refused(self, fig1_file):
        data = serialize_trie(fig1_file.trie)
        for bad in (data[:3], data[:-3], data[:-6], data + b"\x00" * 6, data + b"\x00"):
            with pytest.raises(StorageError, match="corrupt trie image"):
                deserialize_trie(bad)

    def test_a_foreign_alphabet_is_refused(self):
        data = bytearray(_trie_image(0, []))
        data[4:6] = b"aa"  # a duplicate digit: no alphabet at all
        with pytest.raises(StorageError, match="corrupt trie image"):
            deserialize_trie(bytes(data))

    def test_short_overlong_and_unordered_buckets_are_refused(self):
        b = Bucket()
        b.header_path = "ha"
        b.insert("had", "value1")
        b.insert("have", None)
        data = serialize_bucket(b)
        for bad in (b"", data[:3], data[:-1], data + b"\x00"):
            with pytest.raises(StorageError, match="corrupt bucket image"):
                deserialize_bucket(bad)
        swapped = bytearray(data)
        at = swapped.find(b"had")
        swapped[at : at + 3] = b"hz\x7f"  # "hz\x7f" sorts after "have"
        with pytest.raises(StorageError, match="corrupt bucket image"):
            deserialize_bucket(bytes(swapped))

    def test_undecodable_text_is_refused(self):
        b = Bucket()
        b.insert("a", "v")
        data = bytearray(serialize_bucket(b))
        data[-1] = 0xFF  # not UTF-8
        with pytest.raises(StorageError, match="corrupt bucket image"):
            deserialize_bucket(bytes(data))


class TestEncodersFailTyped:
    def test_an_alphabet_beyond_the_one_byte_dv_is_refused(self):
        from repro.core.alphabet import Alphabet

        with pytest.raises(StorageError, match="one-byte DV"):
            serialize_trie(Trie(Alphabet("abcαβ"), root_ptr=0))

    @pytest.mark.parametrize(
        "key, value",
        [("a", "x" * (MAX_STRING_BYTES + 1)), ("a", "v\udfff"), ("a\ud800", None)],
        ids=["value-too-long", "value-lone-surrogate", "key-lone-surrogate"],
    )
    def test_a_record_the_bucket_cannot_hold_is_refused(self, key, value):
        b = Bucket()
        b.insert(key, value)
        with pytest.raises(StorageError, match="cannot hold"):
            serialize_bucket(b)

    def test_the_longest_strings_roundtrip(self):
        b = Bucket()
        b.insert("k" * MAX_STRING_BYTES, "\U0001d11e" * (MAX_STRING_BYTES // 4))
        assert list(deserialize_bucket(serialize_bucket(b)).items()) == list(b.items())
