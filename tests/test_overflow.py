"""Tests for the overflow-chaining (deferred splitting) variant."""

import pytest

from repro import DuplicateKeyError, KeyNotFoundError, SplitPolicy, THFile
from repro.core.errors import CapacityError
from repro.core.overflow import OverflowTHFile


def build(keys, b=4, policy=None):
    f = OverflowTHFile(bucket_capacity=b, policy=policy)
    for i, k in enumerate(keys):
        f.insert(k, i)
    return f


class TestBasics:
    def test_crud(self):
        f = OverflowTHFile(bucket_capacity=4)
        f.insert("aa", 1)
        assert f.get("aa") == 1
        assert "aa" in f
        with pytest.raises(DuplicateKeyError):
            f.insert("aa")
        f.put("aa", 2)
        assert f.get("aa") == 2
        assert f.delete("aa") == 2
        with pytest.raises(KeyNotFoundError):
            f.get("aa")

    def test_policy_restrictions(self):
        with pytest.raises(CapacityError):
            OverflowTHFile(policy=SplitPolicy.thcl())  # merge=guaranteed

    def test_overflow_defers_the_split(self):
        f = OverflowTHFile(bucket_capacity=4)
        for k in ("aa", "ab", "ac", "ad"):
            f.insert(k)
        assert f.bucket_count() == 1
        f.insert("ae")  # would split a plain THFile; chains instead
        assert f.stats.splits == 0
        assert f.bucket_count() == 2  # primary + its overflow
        assert f.chain_fraction() == 1.0
        f.check()

    def test_split_happens_when_chain_full(self):
        f = OverflowTHFile(bucket_capacity=2)
        for k in ("aa", "ab", "ac", "ad"):
            f.insert(k)  # primary 2 + chain 2
        assert f.stats.splits == 0
        f.insert("ae")  # 2b + 1 records: the real split
        assert f.stats.splits == 1
        f.check()
        assert sorted(f.keys()) == ["aa", "ab", "ac", "ad", "ae"]

    def test_search_costs(self, generator):
        keys = generator.uniform(200)
        f = build(keys, b=4)
        reads = 0
        before = f.store.disk.stats.reads
        for k in keys:
            f.get(k)
        reads = f.store.disk.stats.reads - before
        # Between 1 and 2 accesses per search.
        assert len(keys) <= reads <= 2 * len(keys)

    def test_everything_retrievable(self, small_keys):
        f = build(small_keys)
        f.check()
        for i, k in enumerate(small_keys):
            assert f.get(k) == i
        assert list(f.keys()) == sorted(small_keys)

    def test_range_items(self, small_keys):
        f = build(small_keys)
        s = sorted(small_keys)
        assert [k for k, _ in f.range_items(s[20], s[80])] == s[20:81]

    def test_get_many_reads_the_chains(self, small_keys):
        f = build(small_keys)
        assert f.chain_fraction() > 0
        expected = {k: i for i, k in enumerate(small_keys)}
        assert f.get_many(small_keys + ["zzzz"]) == expected


class TestLoadEffect:
    def test_higher_load_than_plain(self, generator):
        keys = generator.uniform(1500)
        plain = THFile(bucket_capacity=8)
        deferred = OverflowTHFile(bucket_capacity=8)
        for k in keys:
            plain.insert(k)
            deferred.insert(k)
        deferred.check()
        assert deferred.load_factor() > plain.load_factor()
        assert deferred.load_factor() > 0.72

    def test_fewer_trie_cells(self, generator):
        keys = generator.uniform(1500)
        plain = THFile(bucket_capacity=8)
        deferred = OverflowTHFile(bucket_capacity=8)
        for k in keys:
            plain.insert(k)
            deferred.insert(k)
        assert deferred.trie_size() < plain.trie_size()

    def test_thcl_policy_supported(self, generator):
        keys = sorted(generator.uniform(400))
        policy = SplitPolicy(
            split_position=-1, bounding_offset=None, nil_nodes=False, merge="none"
        )
        f = build(keys, b=6, policy=policy)
        f.check()
        assert list(f.keys()) == keys


class TestDeletes:
    def test_delete_from_chain_and_primary(self, generator):
        keys = generator.uniform(300)
        f = build(keys, b=4)
        for k in keys[:200]:
            f.delete(k)
            if hash(k) % 37 == 0:
                f.check()
        f.check()
        assert sorted(f.keys()) == sorted(keys[200:])

    def test_chain_freed_when_empty(self):
        f = OverflowTHFile(bucket_capacity=2)
        for k in ("aa", "ab", "ac"):
            f.insert(k)
        assert f.chain_fraction() > 0
        f.delete("ac")
        f.delete("ab")
        f.check()
        assert f.chain_fraction() == 0.0

    def test_delete_missing(self, generator):
        f = build(generator.uniform(50))
        with pytest.raises(KeyNotFoundError):
            f.delete("zzzzzzzz")
