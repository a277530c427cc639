"""Redistribution — filling a neighbour before appending a bucket.

Section 4.4 of the paper: instead of always allocating a new bucket, an
overflowing bucket ``O`` may push records into its inorder successor
``S`` (choosing the split key high enough that the spill fits ``S``'s
free room) or pull its lowest records into its predecessor ``P``. THCL's
shared leaves make this possible in a trie — the leaves of the moved
region are simply repointed — and deterministic split control makes the
moved count exact.

Redistribution may even *shrink* the trie: when the cut lands on a
boundary already present (step 3.4), a node can end up pointing at the
same bucket through both edges (Fig 9); the optional
:func:`~repro.core.thcl_split.collapse_equal_leaf_nodes` pass removes
such nodes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .alphabet import Alphabet
from .keys import split_string
from .merge import _neighbor_after, _neighbor_before
from .policies import SplitPolicy
from .thcl_split import insert_boundary
from .trie import SearchResult, Trie

if TYPE_CHECKING:  # runtime cycle: storage imports core
    from ..storage.buckets import BucketStore

__all__ = ["RedistributionOutcome", "try_redistribute"]

Record = tuple[str, object]


class RedistributionOutcome:
    """What a successful redistribution did."""

    __slots__ = ("direction", "moved", "nodes_added", "leaves_repointed")

    def __init__(self, direction: str, moved: int, nodes_added: int, repointed: int):
        self.direction = direction
        self.moved = moved
        self.nodes_added = nodes_added
        self.leaves_repointed = repointed


def _moved_count(room: int, spill: int, neighbour_load: int, target: str) -> int:
    """How many records to move given the policy's redistribution target.

    ``'compact'`` moves the bare minimum (1 record: the overflowing
    bucket stays 100% full, Fig 9); ``'even'`` balances the pair like a
    B-tree redistribution.
    """
    if target == "compact":
        return 1
    even = max(1, (spill - neighbour_load) // 2)
    return min(room, even)


def try_redistribute(
    trie: Trie,
    store: BucketStore,
    result: SearchResult,
    records: list[Record],
    capacity: int,
    policy: SplitPolicy,
    alphabet: Alphabet,
) -> Optional[RedistributionOutcome]:
    """Attempt redistribution for an overflowing bucket.

    ``records`` is the ordered sequence ``B`` of ``b + 1`` records
    (bucket contents plus the incoming one); ``result`` is the search
    that hit the overflow. On success the records are re-spread over the
    two buckets, the trie is re-cut, and an outcome is returned; on
    failure (no neighbour, or no free room) returns ``None`` and the
    caller falls back to a normal split.
    """
    overflowing = result.bucket
    directions = {
        "successor": ("successor",),
        "predecessor": ("predecessor",),
        "both": ("successor", "predecessor"),
    }[policy.redistribution]

    for direction in directions:
        if direction == "successor":
            neighbour = _neighbor_after(trie, result.trail, overflowing)
        else:
            neighbour = _neighbor_before(trie, result.trail, overflowing)
        if neighbour is None:
            continue
        n_bucket = store.read(neighbour)
        room = capacity - len(n_bucket)
        if room < 1:
            continue
        moved = min(
            room,
            _moved_count(
                room, len(records), len(n_bucket), policy.redistribution_target
            ),
        )
        if direction == "successor":
            cut_at = len(records) - moved  # records[cut_at:] move up to S
        else:
            cut_at = moved  # records[:cut_at] move down to P
        anchor, bound = records[cut_at - 1][0], records[cut_at][0]
        boundary = split_string(anchor, bound, alphabet)
        if direction == "successor":
            insertion = insert_boundary(
                trie, anchor, boundary, overflowing, neighbour, overflowing
            )
            moving = records[cut_at:]
            staying = records[:cut_at]
        else:
            insertion = insert_boundary(
                trie, anchor, boundary, neighbour, overflowing, overflowing
            )
            moving = records[:cut_at]
            staying = records[cut_at:]
        n_bucket.extend(moving)
        bucket = store.peek(overflowing)
        bucket.keys[:] = [k for k, _ in staying]
        bucket.values[:] = [v for _, v in staying]
        # Keep the /TOR83/ right-cut headers truthful: the re-cut
        # boundary is the right cut of whichever bucket sits below it.
        if direction == "successor":
            bucket.header_path = boundary
        else:
            n_bucket.header_path = boundary
        store.write(overflowing, bucket)
        store.write(neighbour, n_bucket)
        return RedistributionOutcome(
            direction, len(moving), insertion.nodes_added, insertion.leaves_repointed
        )
    return None
