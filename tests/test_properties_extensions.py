"""Property-based tests for the extension subsystems.

Cursor traversal vs ordered items, overflow files vs a dict model,
multikey rectangle queries vs brute force, and the lock manager's
mutual-exclusion invariant under random request streams.
"""

import string

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import SplitPolicy, THFile
from repro.concurrency import LockManager, LockMode
from repro.core.cursor import Cursor
from repro.core.overflow import OverflowTHFile
from repro.multikey import Interleaver, MultikeyTHFile

keys_st = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=8)
key_lists = st.lists(keys_st, min_size=1, max_size=80, unique=True)

slow = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestCursorProperties:
    @given(key_lists, st.sampled_from([None, "thcl", "compact"]))
    @slow
    def test_forward_traversal_equals_items(self, keys, which):
        policy = {
            None: None,
            "thcl": SplitPolicy.thcl(),
            "compact": SplitPolicy.thcl_ascending(0),
        }[which]
        f = THFile(bucket_capacity=3, policy=policy)
        for k in sorted(keys) if which == "compact" else keys:
            f.insert(k)
        cursor = Cursor(f)
        out = []
        if cursor.first():
            out.append(cursor.key())
            while cursor.next():
                out.append(cursor.key())
        assert out == sorted(keys)

    @given(key_lists, keys_st)
    @slow
    def test_seek_is_lower_bound(self, keys, probe):
        f = THFile(bucket_capacity=3)
        for k in keys:
            f.insert(k)
        cursor = Cursor(f)
        expected = sorted(k for k in keys if k >= probe)
        if expected:
            assert cursor.seek(probe)
            assert cursor.key() == expected[0]
        else:
            assert not cursor.seek(probe)

    @given(key_lists)
    @slow
    def test_backward_equals_reversed(self, keys):
        f = THFile(bucket_capacity=3)
        for k in keys:
            f.insert(k)
        cursor = Cursor(f)
        out = []
        if cursor.last():
            out.append(cursor.key())
            while cursor.prev():
                out.append(cursor.key())
        assert out == sorted(keys, reverse=True)


class TestOverflowProperties:
    @given(key_lists, st.data())
    @slow
    def test_dict_equivalence_with_deletes(self, keys, data):
        f = OverflowTHFile(bucket_capacity=3)
        model = {}
        for i, k in enumerate(keys):
            f.insert(k, i)
            model[k] = i
        victims = data.draw(
            st.lists(st.sampled_from(keys), unique=True, max_size=len(keys))
        )
        for k in victims:
            f.delete(k)
            del model[k]
        f.check()
        assert dict(f.items()) == model

    @given(key_lists)
    # When a deferred split kept 7 of its 9 records, this sequence split
    # 4 times against plain splitting's 3.
    @example(list("cejk") + ["ha", "aaa"] + list("ghiabdf") + ["aa"])
    @slow
    def test_matches_plain_file_contents(self, keys):
        plain = THFile(bucket_capacity=4, policy=SplitPolicy(merge="none"))
        deferred = OverflowTHFile(bucket_capacity=4)
        for k in keys:
            plain.insert(k)
            deferred.insert(k)
        deferred.check()
        assert list(deferred.keys()) == list(plain.keys())
        # Deferral splits at most as often as plain splitting.
        assert deferred.stats.splits <= plain.stats.splits


class TestMultikeyProperties:
    pairs = st.lists(
        st.tuples(
            st.text(alphabet="abcd", min_size=1, max_size=3),
            st.text(alphabet="abcd", min_size=1, max_size=3),
        ),
        min_size=1,
        max_size=60,
        unique=True,
    )

    @given(pairs)
    @slow
    def test_compose_decompose_roundtrip(self, points):
        inter = Interleaver((3, 3))
        for p in points:
            assert inter.decompose(inter.compose(p)) == p

    @given(pairs)
    @slow
    def test_z_order_monotone_per_axis(self, points):
        inter = Interleaver((3, 3))
        composed = sorted(inter.compose(p) for p in points)
        assert composed == sorted(set(composed))  # unique points stay unique

    @given(pairs, st.data())
    @slow
    def test_rectangle_equals_bruteforce(self, points, data):
        f = MultikeyTHFile((3, 3), bucket_capacity=3)
        for p in points:
            f.insert(p)
        lo0 = data.draw(st.sampled_from("abcd"))
        hi0 = data.draw(st.sampled_from("abcd"))
        lo1 = data.draw(st.sampled_from("abcd"))
        hi1 = data.draw(st.sampled_from("abcd"))

        def le_bound(v, hi):  # trie prefix semantics: 'b?' <= 'b'
            return v[: len(hi)].ljust(len(hi), " ") <= hi

        expected = {
            p
            for p in points
            if p[0] >= lo0 and le_bound(p[0], hi0)
            and p[1] >= lo1 and le_bound(p[1], hi1)
        }
        got = {v for v, _ in f.rectangle((lo0, lo1), (hi0, hi1))}
        assert got == expected


class TestLockManagerProperties:
    requests = st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4),  # owner
            st.sampled_from(["a", "b", "c"]),       # resource
            st.sampled_from([LockMode.SHARED, LockMode.EXCLUSIVE]),
            st.booleans(),                            # release_all after?
        ),
        max_size=60,
    )

    @given(requests)
    @slow
    def test_mutual_exclusion_invariant(self, stream):
        manager = LockManager()
        for owner, resource, mode, release in stream:
            manager.try_acquire(owner, resource, mode)
            if release:
                manager.release_all(owner)
            # Invariant: an X holder is alone on its resource.
            for _res, held in manager._held.items():
                owners = {o for o, _ in held}
                exclusive = {o for o, m in held if m is LockMode.EXCLUSIVE}
                if exclusive:
                    assert len(owners) == 1

    @given(requests)
    @slow
    def test_release_all_clears_owner(self, stream):
        manager = LockManager()
        for owner, resource, mode, _ in stream:
            manager.try_acquire(owner, resource, mode)
        # Releases promote queued requests (possibly of already-released
        # owners), so sweep until quiescent.
        for _ in range(10):
            for owner in range(5):
                manager.release_all(owner)
        for held in manager._held.values():
            assert not held
