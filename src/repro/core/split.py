"""Bucket splitting — Algorithm A2 of the basic method.

A split has two halves: a *plan* (pure computation on the ordered key
sequence ``B``: find the split string, decide which records stay and which
move) and the *trie expansion* (graft the new internal nodes). The plan is
shared by every variant — basic TH, THCL, redistribution — because THCL's
split control only changes which key bounds the split string (Section
4.2). The expansion differs: the basic method's rare case creates nil
leaves (step 3.3 of A2), THCL's never does (see
:mod:`repro.core.thcl_split`).
"""

from __future__ import annotations

from typing import NamedTuple

from .alphabet import Alphabet
from .cells import NIL
from .errors import TrieCorruptionError
from .keys import common_prefix_length, prefix_gt, split_string
from .trie import Location, Trie

__all__ = ["SplitPlan", "plan_split", "expand_basic"]

Record = tuple[str, object]


class SplitPlan(NamedTuple):
    """The outcome of planning a bucket split."""

    #: The split string ``(c')_i`` — the new boundary cut into key space.
    boundary: str
    #: Records that stay in the overflowing bucket (keys <= boundary).
    stay: list[Record]
    #: Records that move to the target bucket (keys > boundary).
    move: list[Record]
    #: The split key ``c'`` (stays; anchors the trie expansion).
    split_key: str


def plan_split(
    records: list[Record],
    split_index: int,
    bounding_index: int,
    alphabet: Alphabet,
) -> SplitPlan:
    """Plan the split of the ordered sequence ``B`` (steps 1–2 of A2).

    Parameters
    ----------
    records:
        The ``b + 1`` records to split, sorted by key (bucket contents
        plus the incoming record).
    split_index:
        1-based position ``m`` of the split key ``c'``.
    bounding_index:
        1-based position of the bounding key: ``b + 1`` reproduces the
        basic method (bounding key = last key ``c''``); ``m + 1`` makes
        the split deterministic (THCL split control).

    Both resulting sides are guaranteed non-empty: the split key stays,
    the bounding key moves.
    """
    if not 1 <= split_index < bounding_index <= len(records):
        raise TrieCorruptionError(
            f"split position {split_index} and bounding position "
            f"{bounding_index} invalid for {len(records)} records"
        )
    split_key = records[split_index - 1][0]
    bounding_key = records[bounding_index - 1][0]
    boundary = split_string(split_key, bounding_key, alphabet)
    stay: list[Record] = []
    move: list[Record] = []
    for record in records:
        if prefix_gt(record[0], boundary, alphabet):
            move.append(record)
        else:
            stay.append(record)
    if not stay or not move:
        raise TrieCorruptionError("split produced an empty side")
    return SplitPlan(boundary, stay, move, split_key)


def expand_basic(
    trie: Trie,
    leaf_location: Location,
    leaf_path: str,
    boundary: str,
    bucket_a: int,
    bucket_n: int,
) -> int:
    """Step 3 of Algorithm A2 — expand the trie after a basic-TH split.

    ``leaf_location``/``leaf_path`` identify the overflowing bucket's
    (unique) leaf and its logical path ``C``, as returned by the search
    that hit the overflow. The digits of the split string already present
    in ``C`` are cut (step 3.1); the usual case grafts a single node
    (step 3.2); the rare case grafts a left-descending chain whose
    intermediate right children are *nil* leaves (step 3.3).

    Returns the number of internal nodes added.
    """
    shared = common_prefix_length(boundary, leaf_path)
    new_digits = boundary[shared:]
    if not new_digits:
        raise TrieCorruptionError(
            f"split string {boundary!r} already fully on the logical path "
            f"{leaf_path!r}: impossible in the basic method"
        )
    chain, _ = trie.build_left_chain(
        new_digits,
        first_position=shared,
        bottom_left=bucket_a,
        right_fill=NIL,
        bottom_right=bucket_n,
    )
    trie.set_ptr(leaf_location, chain)
    return len(new_digits)
