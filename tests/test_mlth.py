"""Multilevel trie hashing tests (Section 2.5)."""

import random

import pytest

from repro import CapacityError, DuplicateKeyError, KeyNotFoundError, MLTHFile, SplitPolicy


def build(keys, b=5, bp=8, policy=None, pick="balanced"):
    f = MLTHFile(
        bucket_capacity=b, page_capacity=bp, policy=policy, split_node_pick=pick
    )
    for i, k in enumerate(keys):
        f.insert(k, i)
    return f


class TestBasicOperation:
    def test_crud(self):
        f = MLTHFile(bucket_capacity=4, page_capacity=8)
        f.insert("hello", 1)
        assert f.get("hello") == 1
        assert "hello" in f
        assert "nope" not in f
        with pytest.raises(DuplicateKeyError):
            f.insert("hello")
        assert f.delete("hello") == 1
        with pytest.raises(KeyNotFoundError):
            f.get("hello")

    def test_everything_retrievable(self, small_keys):
        f = build(small_keys)
        f.check()
        for i, k in enumerate(small_keys):
            assert f.get(k) == i

    def test_items_sorted(self, small_keys):
        f = build(small_keys)
        assert [k for k, _ in f.items()] == sorted(small_keys)

    def test_range_items(self, small_keys):
        f = build(small_keys)
        s = sorted(small_keys)
        assert [k for k, _ in f.range_items(s[20], s[120])] == s[20:121]
        assert [k for k, _ in f.range_items(None, s[10])] == s[:11]
        assert [k for k, _ in f.range_items(s[280], None)] == s[280:]

    def test_validation_constraints(self):
        with pytest.raises(CapacityError):
            MLTHFile(bucket_capacity=1)
        with pytest.raises(CapacityError):
            MLTHFile(page_capacity=2)
        with pytest.raises(CapacityError):
            MLTHFile(policy=SplitPolicy(merge="siblings"))
        with pytest.raises(CapacityError):
            MLTHFile(policy=SplitPolicy.thcl_redistributing())
        MLTHFile(policy=SplitPolicy.thcl())  # guaranteed merges: allowed


class TestPaging:
    def test_levels_grow_with_file(self, generator):
        f = MLTHFile(bucket_capacity=4, page_capacity=6)
        keys = generator.uniform(400)
        levels_seen = set()
        for k in keys:
            f.insert(k)
            levels_seen.add(f.levels())
        assert 1 in levels_seen and f.levels() >= 3
        f.check()

    def test_page_capacity_respected(self, small_keys):
        f = build(small_keys, bp=8)
        for pid in f._all_page_ids():
            page = f.page_disk.peek(pid)
            if pid != f.root_id:
                assert page.cell_count <= 8

    def test_flat_model_matches_single_level_file(self, small_keys):
        # MLTH and THFile with identical policy produce identical
        # key->bucket maps (page splits never change the mapping).
        from repro import THFile

        flat = THFile(bucket_capacity=5)
        for k in small_keys:
            flat.insert(k)
        paged = build(small_keys, b=5, bp=8)
        flat_model = flat.trie.to_model()
        paged_model = paged.flat_model()
        assert flat_model.boundaries == paged_model.boundaries
        assert flat_model.children == paged_model.children

    def test_two_accesses_claim(self, generator):
        # With the root pinned and two page levels: 2 page reads + 1
        # bucket read per search.
        keys = generator.uniform(800)
        f = build(keys, b=4, bp=16)
        assert f.levels() == 3  # root + 1 intermediate + file level
        for key in keys[:20]:
            pages, buckets = f.search_cost(key)
            assert pages == 2
            assert buckets == 1

    def test_bounded_scans_read_their_range(self, generator):
        # One descent to the low bound, then the file-page chain: a
        # 50-record scan reads a page or two past the descent, and at
        # most the one bucket that holds the first key above ``high``.
        keys = generator.uniform(6000)
        f = build(keys, b=8, bp=16)
        assert f.levels() == 3
        s = sorted(keys)
        model = f.flat_model()
        rng = random.Random(3)
        for _ in range(100):
            i = rng.randrange(len(s) - 50)
            low, high = s[i], s[i + 49]
            first, last = model.locate(low)[0], model.locate(high)[0]
            span = {c for c in model.children[first : last + 1] if c is not None}
            pages, buckets = f.page_disk.stats.reads, f.store.stats.reads
            assert [k for k, _ in f.range_items(low, high)] == s[i : i + 50]
            assert f.page_disk.stats.reads - pages <= f.levels() + 2
            assert f.store.stats.reads - buckets <= len(span) + 1

    def test_unpinned_root_costs_one_more(self, generator):
        keys = generator.uniform(200)
        f = MLTHFile(bucket_capacity=5, page_capacity=16, pin_root=False)
        for k in keys:
            f.insert(k)
        pages, buckets = f.search_cost(keys[0])
        assert pages == f.levels()

    def test_split_node_conditions(self, small_keys):
        # Every page's span admits its own root: the chosen split node's
        # logical parent is outside the page (condition (ii)).
        f = build(small_keys, bp=8)
        for pid in f._all_page_ids():
            page = f.page_disk.peek(pid)
            if page.cell_count >= 2:
                candidates = page.split_candidates()
                assert candidates
                span = set(page.boundaries)
                for i in candidates:
                    s = page.boundaries[i]
                    assert len(s) == 1 or s[:-1] not in span

    def test_ordered_insertions_with_shifted_split_node(self, sorted_keys):
        balanced = build(sorted_keys, pick="balanced")
        shifted = build(sorted_keys, pick="last")
        balanced.check()
        shifted.check()
        # The shift may only help page load for ascending insertions.
        assert shifted.page_load_factor() >= balanced.page_load_factor() - 0.02


class TestPolicies:
    def test_thcl_policy(self, sorted_keys):
        policy = SplitPolicy.thcl_ascending(0).with_(merge="none")
        f = build(sorted_keys, b=10, bp=16, policy=policy, pick="last")
        f.check()
        assert f.load_factor() > 0.95

    def test_descending_compact(self, sorted_keys):
        policy = SplitPolicy.thcl_descending(0).with_(merge="none")
        f = build(list(reversed(sorted_keys)), b=10, bp=16, policy=policy, pick="first")
        f.check()
        assert f.load_factor() > 0.95

    def test_basic_nil_allocation(self):
        f = MLTHFile(bucket_capacity=4, page_capacity=8,
                     policy=SplitPolicy(split_position=-1, merge="none"))
        for k in ("oaaa", "obbb", "osza", "oszc", "oszh"):
            f.insert(k)
        nil_before = f.stats.nil_allocations
        f.insert("ota")
        assert f.stats.nil_allocations == nil_before + 1
        f.check()

    def test_deletes_only_records(self, small_keys):
        f = build(small_keys)
        pages = f.page_count()
        for k in sorted(small_keys)[:150]:
            f.delete(k)
        assert f.page_count() == pages  # no page merging, per scope
        f.check()
        assert len(f) == len(small_keys) - 150

    def test_guaranteed_floor_under_deletes(self, small_keys):
        policy = SplitPolicy.thcl()
        f = MLTHFile(bucket_capacity=6, page_capacity=10, policy=policy)
        for i, k in enumerate(small_keys):
            f.insert(k, i)
        import random

        victims = list(small_keys)
        random.Random(4).shuffle(victims)
        for i, k in enumerate(victims[:240]):
            f.delete(k)
            if i % 40 == 0:
                f.check()
        f.check()
        sizes = [len(f.store.peek(a)) for a in f.store.live_addresses()]
        if len(sizes) > 1:
            assert min(sizes) >= 3
        remaining = sorted(set(small_keys) - set(victims[:240]))
        assert [k for k, _ in f.items()] == remaining

    def test_guaranteed_ordered_deletes(self, small_keys):
        policy = SplitPolicy.thcl()
        f = MLTHFile(bucket_capacity=6, page_capacity=10, policy=policy)
        for k in small_keys:
            f.insert(k)
        for k in sorted(small_keys)[:250]:  # ascending deletions
            f.delete(k)
        f.check()
        sizes = [len(f.store.peek(a)) for a in f.store.live_addresses()]
        if len(sizes) > 1:
            assert min(sizes) >= 3


class TestMetrics:
    def test_trie_size_counts_all_cells(self, small_keys):
        from repro import THFile

        flat = THFile(bucket_capacity=5)
        for k in small_keys:
            flat.insert(k)
        paged = build(small_keys, b=5, bp=8)
        assert paged.trie_size() == flat.trie_size()

    def test_page_load_between_zero_and_one(self, small_keys):
        f = build(small_keys, bp=8)
        assert 0.2 < f.page_load_factor() <= 1.0

    def test_bucket_load_similar_to_flat(self, small_keys):
        from repro import THFile

        flat = THFile(bucket_capacity=5)
        for k in small_keys:
            flat.insert(k)
        paged = build(small_keys, b=5, bp=8)
        assert paged.load_factor() == pytest.approx(flat.load_factor())
