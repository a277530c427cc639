"""Range query tests (order preservation, Section 2.2)."""

import random

import pytest

from repro import SplitPolicy, THFile
from repro.core.range_query import count_range


def build(keys, policy=None, b=6):
    f = THFile(bucket_capacity=b, policy=policy)
    for i, k in enumerate(keys):
        f.insert(k, i)
    return f


class TestBasicRanges:
    def test_full_scan(self, small_keys):
        f = build(small_keys)
        assert [k for k, _ in f.range_items()] == sorted(small_keys)

    def test_closed_range(self, small_keys):
        f = build(small_keys)
        s = sorted(small_keys)
        lo, hi = s[30], s[200]
        assert [k for k, _ in f.range_items(lo, hi)] == s[30:201]

    def test_bounds_inclusive(self, small_keys):
        f = build(small_keys)
        s = sorted(small_keys)
        out = [k for k, _ in f.range_items(s[5], s[5])]
        assert out == [s[5]]

    def test_open_low(self, small_keys):
        f = build(small_keys)
        s = sorted(small_keys)
        assert [k for k, _ in f.range_items(None, s[50])] == s[:51]

    def test_open_high(self, small_keys):
        f = build(small_keys)
        s = sorted(small_keys)
        assert [k for k, _ in f.range_items(s[250], None)] == s[250:]

    def test_bounds_need_not_be_stored(self, small_keys):
        f = build(small_keys)
        s = sorted(small_keys)
        lo = s[30] + "a"  # strictly between s[30] and its successor
        out = [k for k, _ in f.range_items(lo, s[200])]
        assert out == s[31:201]

    def test_empty_range(self, small_keys):
        f = build(small_keys)
        s = sorted(small_keys)
        assert list(f.range_items(s[10], s[5])) == []

    def test_values_travel_with_keys(self, small_keys):
        f = build(small_keys)
        lookup = {k: i for i, k in enumerate(small_keys)}
        for k, v in f.range_items():
            assert lookup[k] == v

    def test_count_range(self, small_keys):
        f = build(small_keys)
        s = sorted(small_keys)
        assert count_range(f, s[0], s[-1]) == len(s)
        assert count_range(f, s[10], s[19]) == 10


class TestAcrossPolicies:
    @pytest.mark.parametrize(
        "policy",
        [
            None,
            SplitPolicy.thcl(),
            SplitPolicy.thcl_ascending(0),
            SplitPolicy.thcl_redistributing(),
        ],
        ids=["basic", "thcl", "compact", "redistributing"],
    )
    def test_ranges_identical_across_policies(self, policy, sorted_keys):
        f = build(sorted_keys, policy=policy)
        s = sorted_keys
        assert [k for k, _ in f.range_items(s[17], s[170])] == s[17:171]

    def test_range_through_nil_leaves(self):
        # Basic m=b splits create nil leaves; ranges must skip them.
        f = build(
            ["oaaa", "obbb", "osza", "oszc", "oszh", "ota", "oza"],
            policy=SplitPolicy(split_position=-1),
            b=4,
        )
        assert f.nil_leaf_fraction() > 0
        out = [k for k, _ in f.range_items("oa", "ozz")]
        assert out == sorted(["oaaa", "obbb", "osza", "oszc", "oszh", "ota", "oza"])


class TestAccessCosts:
    def test_shared_leaf_buckets_read_once(self, sorted_keys):
        # THCL compact: several leaves share buckets; a scan still reads
        # each bucket exactly once.
        f = build(sorted_keys, policy=SplitPolicy.thcl_ascending(0), b=10)
        reads_before = f.store.disk.stats.reads
        list(f.range_items())
        reads = f.store.disk.stats.reads - reads_before
        assert reads == f.bucket_count()

    @pytest.mark.parametrize(
        "policy",
        [None, SplitPolicy.thcl(), SplitPolicy(split_position=-1)],
        ids=["th", "thcl", "th-nil"],
    )
    def test_bounded_scan_reads_exactly_its_buckets(self, generator, policy):
        # A bounded scan reads each distinct bucket between the leaves of
        # its bounds once (§4.1), skips nil leaves, and reads nothing
        # past the leaf of ``high``.
        keys = generator.uniform(1500)
        f = build(keys, policy=policy, b=8)
        s = sorted(keys)
        model = f.trie.to_model()
        rng = random.Random(5)
        for _ in range(100):
            i = rng.randrange(len(s) - 50)
            low, high = s[i], s[i + 49]
            first, last = model.locate(low)[0], model.locate(high)[0]
            span = {c for c in model.children[first : last + 1] if c is not None}
            before = f.store.disk.stats.reads
            assert [k for k, _ in f.range_items(low, high)] == s[i : i + 50]
            assert f.store.disk.stats.reads - before == len(span)

    def test_narrow_range_reads_few_buckets(self, sorted_keys):
        f = build(sorted_keys, b=10)
        s = sorted_keys
        reads_before = f.store.disk.stats.reads
        list(f.range_items(s[40], s[45]))
        assert f.store.disk.stats.reads - reads_before <= 3

    def test_compact_file_scans_fewer_buckets(self, sorted_keys):
        # The paper: high load improves range-query efficiency.
        half = build(sorted_keys, policy=SplitPolicy.thcl_guaranteed_half(), b=10)
        full = build(sorted_keys, policy=SplitPolicy.thcl_ascending(0), b=10)
        def scan_cost(f):
            before = f.store.disk.stats.reads
            list(f.range_items())
            return f.store.disk.stats.reads - before
        assert scan_cost(full) < scan_cost(half)


class TestScanStaleness:
    """Regression: a split/merge under a live scan must raise, not skip.

    ``scan`` snapshots ``structure_generation`` when iteration starts and
    raises the cursor's ``CursorInvalidError`` on the next step after any
    structural change (the old code silently skipped or duplicated
    records read through stale leaf pointers).
    """

    def test_split_mid_scan_raises(self, small_keys):
        from repro.core.cursor import CursorInvalidError

        f = build(small_keys)
        it = f.range_items()
        for _ in range(3):
            next(it)
        before = f.structure_generation
        i = 0
        extra = ["zzz" + c for c in "abcdefghijklmnop"]
        while f.structure_generation == before and i < len(extra):
            f.insert(extra[i])
            i += 1
        assert f.structure_generation > before
        with pytest.raises(CursorInvalidError):
            next(it)

    def test_merge_mid_scan_raises(self, small_keys):
        from repro.core.cursor import CursorInvalidError

        f = build(small_keys, policy=SplitPolicy.thcl(), b=4)
        it = f.range_items()
        next(it)
        before = f.structure_generation
        for k in sorted(small_keys, reverse=True):
            f.delete(k)
            if f.structure_generation > before:
                break
        assert f.structure_generation > before
        with pytest.raises(CursorInvalidError):
            next(it)

    def test_value_updates_keep_scan_alive(self, small_keys):
        f = build(small_keys)
        s = sorted(small_keys)
        it = f.range_items()
        next(it)
        f.put(s[-1], "rewritten")  # no structural change
        assert [k for k, _ in it] == s[1:]

    def test_structural_change_before_first_step_raises(self, small_keys):
        # The generation is snapshotted lazily at the first next(); a
        # change after that first step still invalidates the iterator.
        from repro.core.cursor import CursorInvalidError

        f = build(small_keys)
        it = f.range_items()
        next(it)
        before = f.structure_generation
        i = 0
        extra = ["zz" + c for c in "abcdefghijklmnopqrstuv"]
        while f.structure_generation == before and i < len(extra):
            f.insert(extra[i])
            i += 1
        with pytest.raises(CursorInvalidError):
            list(it)


class TestScanSnapshot:
    """Regression: a write landing in the bucket a live scan is reading.

    An insert or delete that does not split leaves the structure
    generation alone, so the scan must not read the bucket's live lists
    by position: each bucket is read as one snapshot when the walk
    reaches it.
    """

    @staticmethod
    def suspended(backend, mode):
        f = THFile(bucket_capacity=8, trie_backend=backend)
        for k in "bdfh":
            f.insert(k, k.upper())
        it = f.items() if mode == "items" else f.range_items("a", "z")
        out = [next(it), next(it)]
        return f, it, out

    @pytest.mark.parametrize("backend", ["compact", "cells"])
    def test_an_insert_before_the_position_repeats_nothing(self, backend):
        f, it, out = self.suspended(backend, "scan")
        f.insert("c", "C")
        out += list(it)
        assert out == [(k, k.upper()) for k in "bdfh"]
        assert [k for k, _ in f.range_items("a", "z")] == list("bcdfh")

    @pytest.mark.parametrize("backend", ["compact", "cells"])
    def test_a_delete_inside_the_bucket_drops_nothing(self, backend):
        f, it, out = self.suspended(backend, "scan")
        f.delete("b")
        out += list(it)
        assert out == [(k, k.upper()) for k in "bdfh"]

    @pytest.mark.parametrize("backend", ["compact", "cells"])
    def test_items_reads_each_bucket_as_one_snapshot(self, backend):
        f, it, out = self.suspended(backend, "items")
        f.insert("c", "C")
        out += list(it)
        assert out == [(k, k.upper()) for k in "bdfh"]

    def test_a_bounded_scan_still_stops_at_its_high_key(self):
        f, it, out = self.suspended("compact", "scan")
        assert [k for k, _ in f.range_items("c", "f")] == ["d", "f"]
        assert [k for k, _ in f.range_items("c", "e")] == ["d"]
        assert list(f.range_items("i", "z")) == []
