"""THCL trie expansion — splitting without nil nodes (Section 4.1).

The conceptual change of THCL is that *several trie leaves may point to
the same bucket* and nil leaves disappear. All structure changes of the
refined method — bucket splits, redistribution to a neighbour (Section
4.4), and the borrow step of guaranteed-load deletions (Section 4.3) —
reduce to one primitive implemented here: **insert a boundary** ``s``
into the trie and repoint the leaves around it so that keys at or below
``s`` in the affected region map to one bucket and keys above it to
another.

The primitive follows the paper's modified step 3 exactly:

* step 3.0 — locate the leaf the split key is mapped to (Algorithm A1);
* step 3.1 — cut the digits of the split string already on that leaf's
  logical path;
* step 3.2/3.3 — graft a single node or a left-descending chain whose
  right leaves all carry the right-hand bucket (no nils);
* step 3.4 — when *all* digits were already on the path, no node is
  added: only the neighbouring leaf pointers change;
* step 3.5 — walk the following (or preceding) leaves and repoint those
  still carrying the old bucket.
"""

from __future__ import annotations

from typing import NamedTuple

from .cells import edge_target, is_edge, is_leaf
from .errors import TrieCorruptionError
from .keys import common_prefix_length
from .trie import Location, Trie

__all__ = ["BoundaryInsertion", "insert_boundary", "collapse_equal_leaf_nodes"]


class BoundaryInsertion(NamedTuple):
    """What an :func:`insert_boundary` call did to the trie."""

    #: Number of internal nodes added (0 for the pure step-3.4 case).
    nodes_added: int
    #: Leaves repointed by the step-3.5 walks (both directions).
    leaves_repointed: int


def insert_boundary(
    trie: Trie,
    anchor_key: str,
    boundary: str,
    left_bucket: int,
    right_bucket: int,
    old_bucket: int,
) -> BoundaryInsertion:
    """Install boundary ``s`` so the old bucket's region is re-cut.

    ``anchor_key`` must currently map to ``old_bucket`` and satisfy
    ``(anchor)_i <= s`` — in a bucket split it is the split key ``c'``;
    in redistribution it is the highest key that ends up on the left of
    the cut. After the call, within the run of leaves that carried
    ``old_bucket``, those covering keys at or below ``s`` carry
    ``left_bucket`` and those above carry ``right_bucket``.

    The function performs no record movement — that is the caller's job —
    and never creates nil leaves.
    """
    result = trie.search(anchor_key)
    if result.bucket != old_bucket:
        raise TrieCorruptionError(
            f"anchor key {anchor_key!r} maps to bucket {result.bucket}, "
            f"expected {old_bucket}"
        )
    shared = common_prefix_length(boundary, result.path)  # step 3.1
    new_digits = boundary[shared:]
    repointed = 0

    if new_digits:  # steps 3.2 / 3.3: graft one node or a chain
        chain_ptr, chain_cells = trie.build_left_chain(
            new_digits,
            first_position=shared,
            bottom_left=left_bucket,
            right_fill=right_bucket,
            bottom_right=right_bucket,
        )
        trie.set_ptr(result.location, chain_ptr)
        base_trail = list(result.trail)
        left_trail = base_trail + [(c, "L") for c in chain_cells]
        right_trail = base_trail + [(c, "L") for c in chain_cells[:-1]]
        right_trail.append((chain_cells[-1], "R"))
    else:
        # Step 3.4: every digit of s is already on the path, which by
        # prefix closure means s is an existing boundary. Re-anchor at
        # the leaf immediately *left of* that boundary (a virtual search
        # with max-digit padding finds it): it covers keys up to s, and
        # the leaves on its two sides split between the buckets. The
        # anchor's own leaf may lie several boundaries below s.
        edge = trie.search(boundary, pad="max")
        if edge.bucket == old_bucket:
            trie.set_ptr(edge.location, left_bucket)
        left_trail = list(edge.trail)
        right_trail = list(edge.trail)

    # Step 3.5, rightward: leaves after the cut still carrying the old
    # bucket now belong to the right side. Leaves already carrying the
    # right bucket (the grafted chain's own right leaves) are skipped.
    if right_bucket != old_bucket:
        for location, ptr in trie.successor_leaves(right_trail):
            if ptr == right_bucket:
                continue
            if is_leaf(ptr) and ptr == old_bucket:
                trie.set_ptr(location, right_bucket)
                repointed += 1
            else:
                break
    # Mirror walk for the redistribution-to-predecessor case: leaves
    # before the cut still carrying the old bucket belong to the left.
    if left_bucket != old_bucket:
        for location, ptr in trie.predecessor_leaves(left_trail):
            if ptr == left_bucket:
                continue
            if is_leaf(ptr) and ptr == old_bucket:
                trie.set_ptr(location, left_bucket)
                repointed += 1
            else:
                break
    return BoundaryInsertion(len(new_digits), repointed)


def collapse_equal_leaf_nodes(trie: Trie) -> int:
    """Remove nodes whose two children are the same leaf (Fig 9 shrink).

    Redistribution can leave a node pointing to the same bucket through
    both edges; the paper notes one "may leave this node as is or may
    replace it and its leaves by a single leaf". This pass performs the
    replacement bottom-up over the whole trie and returns the number of
    cells freed. It never changes the key-to-bucket mapping.
    """
    freed = 0
    # Iterative post-order: simplify children before testing a node.
    stack: list[tuple[Location, bool]] = [(Location(None, "R"), False)]
    while stack:
        location, expanded = stack.pop()
        ptr = trie.get_ptr(location)
        if not is_edge(ptr):
            continue
        index = edge_target(ptr)
        cell = trie.cells[index]
        if not expanded:
            stack.append((location, True))
            stack.append((Location(index, "L"), False))
            stack.append((Location(index, "R"), False))
            continue
        if (
            not is_edge(cell.lp)
            and not is_edge(cell.rp)
            and cell.lp == cell.rp
        ):
            trie.set_ptr(location, cell.lp)
            trie.cells.free(index)
            freed += 1
    return freed
