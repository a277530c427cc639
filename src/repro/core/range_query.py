"""Range queries over a trie-hashing file.

Trie hashing preserves key order (the logical paths partition the key
space order-preservingly, Section 2.2), so a range query is a position
search followed by a walk over successive leaves: the A1 descent finds
the leaf of the low bound (keeping only its trail, :meth:`Trie.trail
<repro.core.trie.Trie.trail>`), and :meth:`THFile._buckets
<repro.core.file.THFile._buckets>` steps the trail on through the leaf
of the high bound. A scan
therefore costs in proportion to its range, not to the file. THCL's
shared leaves even make some scans cheaper: consecutive leaves carrying
the same bucket cost a single access (Section 4.1).
"""

from __future__ import annotations

import bisect
from collections.abc import Iterator
from typing import Optional, TYPE_CHECKING

from .cursor import CursorInvalidError
from .trie import ROOT_LOCATION, Location

if TYPE_CHECKING:  # pragma: no cover
    from .file import THFile

__all__ = ["scan", "count_range"]


def scan(
    file: THFile, low: Optional[str] = None, high: Optional[str] = None
) -> Iterator[tuple[str, object]]:
    """Yield records with ``low <= key <= high`` in key order.

    Bounds are inclusive; ``None`` means open. Buckets are read through
    the metered store, so the caller can measure the paper's range-query
    access costs directly: a bounded scan reads exactly the distinct
    buckets between the leaves of ``low`` and ``high``.

    Each bucket is read as one snapshot: its in-range records are
    sliced out when the walk reaches it, so an insert, delete or update
    that lands in that bucket while the scan is suspended neither
    repeats nor drops a record of it (the scan yields the bucket as it
    was when reached). The scan also snapshots the file's structure
    generation when iteration starts; a split or merge under a live
    scan raises :class:`~repro.core.cursor.CursorInvalidError` (the
    cursor's contract) at the next record instead of silently skipping
    or duplicating records.
    """
    alphabet = file.alphabet
    if low is not None:
        low = alphabet.validate_key(low)
    if high is not None:
        high = alphabet.validate_key(high)
    if low is not None and high is not None and low > high:
        return

    generation = file.structure_generation
    trie = file.trie
    # The empty key pads to all min digits: A1 maps it to the first leaf.
    trail = trie.trail("" if low is None else low)
    stop = None
    if high is not None:
        # The walk stops at the high bound's leaf: its last trail step.
        last = trie.trail(high)
        stop = Location(*last[-1]) if last else ROOT_LOCATION
    for address in file._buckets(trail, stop=stop):
        keys, values = file._records(address)
        size = len(keys)
        begin = 0 if low is None else bisect.bisect_left(keys, low)
        end = size if high is None else bisect.bisect_right(keys, high)
        # One snapshot of the bucket's in-range records: a write that
        # lands in it while the scan is suspended shifts the live lists.
        for record in zip(keys[begin:end], values[begin:end]):
            yield record
            # Resumed: a stale trail may name a freed cell, so check
            # before the next record and before the walk steps on.
            if file.structure_generation != generation:
                raise CursorInvalidError(
                    "the file split or merged buckets during this scan"
                )
        if end < size:
            return  # a key past ``high``: the range ends in this bucket


def count_range(
    file: THFile, low: Optional[str] = None, high: Optional[str] = None
) -> int:
    """Number of records in the (inclusive) key range."""
    return sum(1 for _ in scan(file, low, high))
