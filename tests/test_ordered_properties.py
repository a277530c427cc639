"""Ordered access versus a sorted-dict oracle, under random churn.

Hypothesis drives random insert/delete histories into a trie-hashing
file and a plain ``dict`` side by side, then checks every ordered-access
surface — :class:`~repro.core.cursor.Cursor` walks in both directions,
``seek`` landings, ``range_items`` / ``scan`` windows, ``items()`` and
``get_many`` — against the sorted oracle. The same properties run over
basic TH (``th``), THCL (``thcl``: shared leaves, guaranteed-load
merges), basic TH on the compact backend (``th-compact``), basic TH
splitting at the last record (``th-nil``: more nil leaves), basic TH
with rotation merges (``th-rotations``), overflow chaining
(``overflow``: records outside the trie's buckets) and MLTH (scans
only: the multilevel file has no cursor support).

Two more properties check the pieces a scan is built from under random
churn: the leaf walk (``THFile._buckets``) against the leaves
``Trie.leaves_in_order`` lists, and the running structure generation
against the sum of the structural counters it stands for.
"""

import bisect

import pytest
from hypothesis import given, strategies as st

from repro import MLTHFile, SplitPolicy, THFile
from repro.core.cells import NIL
from repro.core.cursor import Cursor
from repro.core.errors import DuplicateKeyError, KeyNotFoundError
from repro.core.overflow import OverflowTHFile
from repro.core.range_query import scan
from repro.core.trie import ROOT_LOCATION, Location

# Letters only (no trailing-space canonicalisation surprises); a tiny
# alphabet and short keys maximise duplicate churn and bucket reuse.
KEYS = st.text(alphabet="abcdefg", min_size=1, max_size=5)

#: One churn history: insert (op=True) / delete (op=False) requests.
HISTORIES = st.lists(st.tuples(st.booleans(), KEYS), max_size=120)

ENGINES = {
    "th": lambda: THFile(bucket_capacity=4, trie_backend="cells"),
    "thcl": lambda: THFile(bucket_capacity=4, policy=SplitPolicy.thcl()),
    "th-compact": lambda: THFile(bucket_capacity=4, trie_backend="compact"),
    "th-nil": lambda: THFile(
        bucket_capacity=4, policy=SplitPolicy(split_position=-1)
    ),
    "th-rotations": lambda: THFile(
        bucket_capacity=4, policy=SplitPolicy(merge="rotations")
    ),
    "overflow": lambda: OverflowTHFile(bucket_capacity=4),
}


def churn(f, history):
    """Apply a history to ``f`` and return the surviving oracle dict."""
    oracle = {}
    for is_insert, key in history:
        if is_insert:
            if key not in oracle:
                f.insert(key, key.upper())
                oracle[key] = key.upper()
        elif key in oracle:
            assert f.delete(key) == oracle.pop(key)
    assert len(f) == len(oracle)
    return oracle


@pytest.mark.parametrize("engine", sorted(ENGINES))
class TestCursorAgainstOracle:
    @given(history=HISTORIES)
    def test_forward_walk_is_sorted_oracle(self, engine, history):
        f = ENGINES[engine]()
        oracle = churn(f, history)
        cur = Cursor(f)
        got = []
        ok = cur.first()
        assert ok == bool(oracle)
        while cur.valid:
            got.append(cur.item())
            cur.next()
        assert got == sorted(oracle.items())

    @given(history=HISTORIES)
    def test_backward_walk_is_reversed_oracle(self, engine, history):
        f = ENGINES[engine]()
        oracle = churn(f, history)
        cur = Cursor(f)
        got = []
        ok = cur.last()
        assert ok == bool(oracle)
        while cur.valid:
            got.append(cur.item())
            cur.prev()
        assert got == sorted(oracle.items(), reverse=True)

    @given(history=HISTORIES, probe=KEYS)
    def test_seek_lands_on_first_key_at_or_after(self, engine, history, probe):
        f = ENGINES[engine]()
        oracle = churn(f, history)
        ordered = sorted(oracle)
        cur = Cursor(f)
        found = cur.seek(probe)
        at = bisect.bisect_left(ordered, probe)
        if at == len(ordered):
            assert not found and not cur.valid
        else:
            assert found
            assert cur.key() == ordered[at]
            # The walk from a seek landing covers exactly the tail.
            tail = []
            while cur.valid:
                tail.append(cur.key())
                cur.next()
            assert tail == ordered[at:]

    @given(history=HISTORIES, probe=KEYS)
    def test_seek_then_prev_steps_below_probe(self, engine, history, probe):
        f = ENGINES[engine]()
        oracle = churn(f, history)
        ordered = sorted(oracle)
        cur = Cursor(f)
        at = bisect.bisect_left(ordered, probe)
        cur.seek(probe)  # a failed seek stands past the end
        went_back = cur.prev()
        if at == 0:
            assert not went_back and not cur.valid
        else:
            assert went_back and cur.key() == ordered[at - 1]

    @given(history=HISTORIES, window=st.tuples(KEYS, KEYS))
    def test_scan_window_matches_oracle_slice(self, engine, history, window):
        f = ENGINES[engine]()
        oracle = churn(f, history)
        low, high = sorted(window)
        expected = [
            (k, v) for k, v in sorted(oracle.items()) if low <= k <= high
        ]
        assert list(scan(f, low, high)) == expected
        assert list(f.range_items(low, high)) == expected
        assert list(f.items()) == sorted(oracle.items())
        probes = list(oracle) + [low, high]
        assert f.get_many(probes) == {k: oracle[k] for k in probes if k in oracle}


class TestMLTHScansAgainstOracle:
    # MLTH has no cursor; its ordered surface is range_items.
    @given(history=HISTORIES, window=st.tuples(KEYS, KEYS))
    def test_range_items_matches_oracle_slice(self, history, window):
        f = MLTHFile(bucket_capacity=4, page_capacity=8)
        oracle = churn(f, history)
        low, high = sorted(window)
        expected = [
            (k, v) for k, v in sorted(oracle.items()) if low <= k <= high
        ]
        assert list(f.range_items(low, high)) == expected
        assert list(f.range_items()) == sorted(oracle.items())


def leaf_trails(trie):
    """The A1 trail of every leaf, left to right (one step per leaf)."""
    trail = trie.trail("")
    trails = [list(trail)]
    while trie.step(trail) is not None:
        trails.append(list(trail))
    return trails


def leaf_location(trail):
    return Location(*trail[-1]) if trail else ROOT_LOCATION


#: Histories long enough to split a file into many leaves: most THCL
#: files they build hold leaves sharing a bucket.
WALK_HISTORIES = st.lists(st.tuples(st.booleans(), KEYS), min_size=40, max_size=160)


# Leaf shapes the walk must skip: nil leaves (basic TH, and more of them
# splitting at the last record) and leaves sharing a bucket (THCL).
@pytest.mark.parametrize(
    "policy",
    [None, SplitPolicy(split_position=-1), SplitPolicy.thcl()],
    ids=["th", "th-nil", "thcl"],
)
@pytest.mark.parametrize("backend", ["cells", "compact"])
class TestLeafWalkAgainstLeaves:
    """From any leaf, either way, to a stop leaf or the end, the walk
    yields the distinct buckets of the leaves it passes, in order."""

    @given(history=WALK_HISTORIES, data=st.data())
    def test_walk_yields_the_distinct_buckets_of_its_leaves(
        self, policy, backend, history, data
    ):
        f = THFile(bucket_capacity=4, policy=policy, trie_backend=backend)
        churn(f, history)
        leaves = f.trie.leaves_in_order()
        trails = leaf_trails(f.trie)
        assert [leaf_location(t) for t in trails] == [
            location for location, _, _ in leaves
        ]
        ptrs = [ptr for _, ptr, _ in leaves]
        start = data.draw(st.integers(0, len(leaves) - 1), label="start")
        forward = data.draw(st.booleans(), label="forward")
        if data.draw(st.booleans(), label="stopped"):
            end = data.draw(
                st.integers(start, len(leaves) - 1)
                if forward
                else st.integers(0, start),
                label="end",
            )
            stop = trails[end][-1] if trails[end] else None
        else:
            end = len(leaves) - 1 if forward else 0
            stop = None
        span = ptrs[start:end + 1] if forward else ptrs[end:start + 1][::-1]
        expected = list(dict.fromkeys(p for p in span if p != NIL))
        trail = list(trails[start])
        got = []
        for address in f._buckets(trail, forward, stop):
            # The walk moves the trail in place onto a leaf of the
            # yielded bucket: cursors resume from it.
            assert f.trie.get_ptr(leaf_location(trail)) == address
            got.append(address)
        assert got == expected


#: One churn history of inserts, puts and deletes.
MUTATIONS = st.lists(
    st.tuples(st.sampled_from(("insert", "put", "delete")), KEYS), max_size=120
)

STRUCTURAL = (
    "splits",
    "nil_allocations",
    "nil_reversions",
    "redistributions",
    "merges",
    "borrows",
    "nodes_collapsed",
)

GENERATION_FILES = {
    f"{name}-{backend}": (
        lambda policy=policy, backend=backend: THFile(
            bucket_capacity=4, policy=policy, trie_backend=backend
        )
    )
    for name, policy in (
        ("th", SplitPolicy.basic_th()),
        ("thcl", SplitPolicy.thcl()),
        (
            "redistribution",
            SplitPolicy.thcl_redistributing().with_(collapse_equal_leaves=True),
        ),
    )
    for backend in ("cells", "compact")
}
GENERATION_FILES["overflow"] = lambda: OverflowTHFile(bucket_capacity=4)


@pytest.mark.parametrize("engine", sorted(GENERATION_FILES))
class TestStructureGeneration:
    """The running generation a scan compares after every record is the
    sum of the seven structural counters, whatever changed them."""

    @given(mutations=MUTATIONS)
    def test_generation_is_the_sum_of_the_structural_counters(
        self, engine, mutations
    ):
        f = GENERATION_FILES[engine]()
        for kind, key in mutations:
            try:
                if kind == "delete":
                    f.delete(key)
                else:
                    getattr(f, kind)(key, key.upper())
            except (DuplicateKeyError, KeyNotFoundError):
                pass
            stats = f.stats
            assert f.structure_generation == sum(
                getattr(stats, name) for name in STRUCTURAL
            )
        # The counters keep their report names and order.
        assert list(f.stats.as_dict()) == [
            "inserts",
            "deletes",
            "searches",
            "splits",
            "nil_allocations",
            "nil_reversions",
            "redistributions",
            "merges",
            "borrows",
            "nodes_added",
            "leaves_repointed",
            "nodes_collapsed",
        ]
