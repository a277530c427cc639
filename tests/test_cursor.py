"""Cursor tests: positioned, bidirectional traversal."""

import pytest

from repro import SplitPolicy, THFile
from repro.core.cursor import Cursor, CursorInvalidError


def build(keys, policy=None, b=6):
    f = THFile(bucket_capacity=b, policy=policy)
    for i, k in enumerate(keys):
        f.insert(k, i)
    return f


class TestPositioning:
    def test_first_and_last(self, small_keys):
        f = build(small_keys)
        s = sorted(small_keys)
        cur = Cursor(f)
        assert cur.first()
        assert cur.key() == s[0]
        assert cur.last()
        assert cur.key() == s[-1]

    def test_seek_exact(self, small_keys):
        f = build(small_keys)
        s = sorted(small_keys)
        cur = Cursor(f)
        assert cur.seek(s[42])
        assert cur.key() == s[42]

    def test_seek_between_keys(self, small_keys):
        f = build(small_keys)
        s = sorted(small_keys)
        cur = Cursor(f)
        probe = s[10] + "a"  # strictly between s[10] and its successor
        assert cur.seek(probe)
        assert cur.key() == s[11]

    def test_seek_before_everything(self, small_keys):
        f = build(small_keys)
        cur = Cursor(f)
        assert cur.seek("a")
        assert cur.key() == sorted(small_keys)[0]

    def test_seek_past_everything(self, small_keys):
        f = build(small_keys)
        cur = Cursor(f)
        assert not cur.seek("zzzzzzzzz")
        assert not cur.valid

    def test_empty_file(self):
        f = THFile()
        cur = Cursor(f)
        assert not cur.first()
        assert not cur.last()
        assert not cur.valid
        with pytest.raises(CursorInvalidError):
            cur.key()


class TestStepping:
    def test_forward_scan_matches_items(self, small_keys):
        f = build(small_keys)
        cur = Cursor(f)
        cur.first()
        seen = [cur.item()]
        while cur.next():
            seen.append(cur.item())
        assert seen == list(f.items())

    def test_backward_scan(self, small_keys):
        f = build(small_keys)
        cur = Cursor(f)
        cur.last()
        seen = [cur.key()]
        while cur.prev():
            seen.append(cur.key())
        assert seen == sorted(small_keys, reverse=True)

    def test_zigzag(self, small_keys):
        f = build(small_keys)
        s = sorted(small_keys)
        cur = Cursor(f)
        cur.seek(s[100])
        assert cur.next() and cur.key() == s[101]
        assert cur.prev() and cur.key() == s[100]
        assert cur.prev() and cur.key() == s[99]

    def test_walk_off_both_ends(self, small_keys):
        f = build(small_keys)
        cur = Cursor(f)
        cur.first()
        assert not cur.prev()
        assert not cur.valid
        cur.last()
        assert not cur.next()
        assert not cur.valid

    def test_across_bucket_borders(self, small_keys):
        # With b=2 nearly every step crosses a bucket.
        f = build(small_keys[:60], b=2)
        cur = Cursor(f)
        cur.first()
        count = 1
        while cur.next():
            count += 1
        assert count == 60


class TestPolicies:
    @pytest.mark.parametrize(
        "policy",
        [None, SplitPolicy.thcl(), SplitPolicy.thcl_ascending(0)],
        ids=["basic", "thcl", "compact"],
    )
    def test_cursor_over_every_policy(self, policy, sorted_keys):
        f = build(sorted_keys, policy=policy)
        cur = Cursor(f)
        cur.first()
        n = 1
        while cur.next():
            n += 1
        assert n == len(sorted_keys)

    def test_cursor_skips_nil_leaves(self):
        f = build(
            ["oaaa", "obbb", "osza", "oszc", "oszh", "ota"],
            policy=SplitPolicy(split_position=-1),
            b=4,
        )
        assert f.nil_leaf_fraction() > 0
        cur = Cursor(f)
        cur.first()
        keys = [cur.key()]
        while cur.next():
            keys.append(cur.key())
        assert keys == sorted(["oaaa", "obbb", "osza", "oszc", "oszh", "ota"])

    def test_seek_into_nil_region(self):
        # Two-phase construction: a 'pzzz' bucket above, then a chain
        # split leaving a *reachable* nil gap (os, o] below it.
        f = build(
            ["oaaa", "obbb", "osza", "oszc", "pzzz", "oszh"],
            policy=SplitPolicy(split_position=-1),
            b=4,
        )
        cur = Cursor(f)
        # 'ota' maps to a nil leaf; seek finds the next real record.
        assert f.trie.search("ota").bucket is None
        assert cur.seek("ota")
        assert cur.key() == "pzzz"


class TestInvalidation:
    def test_value_updates_do_not_invalidate(self, small_keys):
        f = build(small_keys)
        cur = Cursor(f)
        cur.first()
        f.put(small_keys[0], "new value")  # no structural change
        assert cur.next()

    def test_split_invalidates(self, small_keys):
        f = build(small_keys)
        cur = Cursor(f)
        cur.first()
        splits_before = f.stats.splits
        i = 0
        extra = ["zzz" + c for c in "abcdefghijklmnop"]
        while f.stats.splits == splits_before and i < len(extra):
            f.insert(extra[i])
            i += 1
        assert f.stats.splits > splits_before
        with pytest.raises(CursorInvalidError):
            cur.next()

    def test_merge_invalidates(self, small_keys):
        f = build(small_keys, policy=SplitPolicy.thcl(), b=4)
        cur = Cursor(f)
        cur.first()
        merges_before = f.stats.merges + f.stats.borrows
        for k in sorted(small_keys):
            f.delete(k)
            if f.stats.merges + f.stats.borrows > merges_before:
                break
        with pytest.raises(CursorInvalidError):
            cur.seek("m")


class TestSeekIndexing:
    """Regression: ordered access must never re-walk the trie's leaves.

    A seek is one A1 descent and every step moves the search trail to
    the next leaf, so no ordered surface lists the whole trie.
    """

    def test_seek_never_rewalks_the_trie(self, small_keys, monkeypatch):
        f = build(small_keys)
        cur = Cursor(f)

        def boom(self):  # pragma: no cover - failure path
            raise AssertionError("seek re-walked the trie leaves")

        monkeypatch.setattr(type(f.trie), "leaves_in_order", boom)
        s = sorted(small_keys)
        for probe in s[::17] + [k + "a" for k in s[::29]]:
            cur.seek(probe)
            assert cur.key() == min(k for k in s if k >= probe)

    def test_nil_leaf_seek_uses_snapshot(self, monkeypatch):
        # Basic TH leaves nil leaves behind; a seek through one must not
        # re-walk the trie either (the old `_first_bucket_at_or_after`).
        import itertools

        words = ["hamlet", "hold", "home", "hose", "house", "rose", "ruse"]
        f = build(words, b=2)
        candidates = [
            "".join(t) for t in itertools.product("ahmorsz", repeat=2)
        ]
        nil_probes = [
            c for c in candidates if f.trie.search(c).bucket is None
        ]
        assert nil_probes, "expected at least one nil leaf in a basic-TH file"
        cur = Cursor(f)
        monkeypatch.setattr(
            type(f.trie),
            "leaves_in_order",
            lambda self: (_ for _ in ()).throw(AssertionError("trie re-walk")),
        )
        s = sorted(words)
        for probe in nil_probes:
            expected = [k for k in s if k >= probe]
            if expected:
                assert cur.seek(probe)
                assert cur.key() == expected[0]
            else:
                assert not cur.seek(probe)

    @pytest.mark.parametrize(
        "policy",
        [None, SplitPolicy.thcl(), SplitPolicy(split_position=-1)],
        ids=["th", "thcl", "th-nil"],
    )
    def test_seek_and_first_descend_by_the_trail_alone(
        self, small_keys, monkeypatch, policy
    ):
        from repro.core.compact import CompactTrie

        files = {}
        for backend in ("cells", "compact"):
            f = THFile(bucket_capacity=4, policy=policy, trie_backend=backend)
            for i, k in enumerate(small_keys):
                f.insert(k, i)
            files[backend] = f

        def boom(self, *args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("a min-padded cursor start ran a full A1 search")

        monkeypatch.setattr(CompactTrie, "search", boom)
        s = sorted(small_keys)
        probes = ["a"] + s[::23] + [k + "a" for k in s[::31]] + [s[-1] + "z"]

        def walk(f):
            cur = Cursor(f)
            seen = [cur.next() and cur.key(), cur.first() and cur.key()]
            for probe in probes:
                seen.append(cur.seek(probe) and cur.key())
                seen += [cur.next() and cur.key() for _ in range(3)]
                seen += [cur.prev() and cur.key() for _ in range(5)]
            return seen

        seen = walk(files["compact"])
        assert seen == walk(files["cells"])
        assert seen[:2] == [s[0], s[0]]

    @pytest.mark.parametrize("backend", ["cells", "compact"])
    @pytest.mark.parametrize(
        "policy",
        [None, SplitPolicy.thcl(), SplitPolicy(split_position=-1)],
        ids=["th", "thcl", "th-nil"],
    )
    def test_ordered_access_never_lists_the_trie(
        self, small_keys, monkeypatch, policy, backend
    ):
        from repro.core.trie import Trie

        f = THFile(bucket_capacity=4, policy=policy, trie_backend=backend)
        for i, k in enumerate(small_keys):
            f.insert(k, i)
        s = sorted(small_keys)
        expected = sorted((k, i) for i, k in enumerate(small_keys))

        def boom(self):  # pragma: no cover - failure path
            raise AssertionError("ordered access walked the whole trie")

        monkeypatch.setattr(Trie, "inorder", boom)
        assert list(f.items()) == expected
        assert list(f.range_items()) == expected
        assert list(f.range_items(s[40], s[90])) == expected[40:91]
        cur = Cursor(f)
        assert cur.next() and cur.key() == s[0]
        assert cur.last() and cur.key() == s[-1]
        assert cur.prev() and cur.key() == s[-2]
        assert not cur.seek(s[-1] + "z")
        assert cur.prev() and cur.key() == s[-1]
        assert cur.seek(s[7] + "a") and cur.key() == s[8]
        for k in s[9:60]:
            assert cur.next() and cur.key() == k
        for k in reversed(s[:59]):
            assert cur.prev() and cur.key() == k
        assert not cur.prev() and not cur.valid
        assert cur.first() and cur.key() == s[0]
