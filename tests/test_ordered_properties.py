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
"""

import bisect

import pytest
from hypothesis import given, strategies as st

from repro import MLTHFile, SplitPolicy, THFile
from repro.core.cursor import Cursor
from repro.core.overflow import OverflowTHFile
from repro.core.range_query import scan

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
