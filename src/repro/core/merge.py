"""Deletions: bucket merging and load guarantees.

Two regimes from the paper:

* **Basic TH (Section 2.4, 3.3)** — only *sibling* leaves (two leaves
  under the same cell) may merge, and an emptied bucket whose leaf has no
  sibling leaf becomes a nil leaf. This cannot guarantee a minimum load —
  the paper counts only 4 of the 10 successive-bucket couples of the
  example file as mergeable.

* **THCL guaranteed load (Section 4.3)** — successive buckets always
  merge by pointing all their leaves at the surviving bucket, and when a
  merge does not fit, keys are *borrowed* across the boundary (the same
  :func:`~repro.core.thcl_split.insert_boundary` primitive as splits).
  Every bucket then keeps at least ``b // 2`` records, as in a B-tree.

The module also provides :func:`mergeable_couples`, the analysis behind
the paper's 4-of-10 vs 8-of-10 rotation discussion (Section 3.3).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .alphabet import Alphabet
from .cells import NIL, is_edge, is_leaf, is_nil
from .keys import split_string
from .thcl_split import insert_boundary
from .trie import Location, ROOT_LOCATION, SearchResult, Trie

if TYPE_CHECKING:  # import cycles: storage <-> core at runtime
    from ..storage.buckets import BucketStore
    from .file import THFile

__all__ = [
    "basic_delete_maintenance",
    "guaranteed_delete_maintenance",
    "mergeable_couples",
]


def _parent_location(trail: tuple[tuple[int, str], ...]) -> Location:
    """Location of the slot holding the last cell of ``trail``."""
    if len(trail) >= 2:
        return Location(*trail[-2])
    return ROOT_LOCATION


def basic_delete_maintenance(
    trie: Trie,
    store: BucketStore,
    result: SearchResult,
    capacity: int,
) -> Optional[str]:
    """Post-delete maintenance of the basic method.

    ``result`` is the search that located the deleted key. Merges the
    bucket with its sibling leaf when their records fit together, or
    turns an emptied sibling-less leaf into a nil leaf. Returns a short
    action string for statistics (``None`` when nothing was done).
    """
    address = result.bucket
    bucket = store.peek(address)
    if not result.trail:
        return None  # single-bucket file: the root leaf stays
    cell_index, side = result.trail[-1]
    cell = trie.cells[cell_index]
    other_side = "R" if side == "L" else "L"
    sibling_ptr = cell.child(other_side)

    if is_edge(sibling_ptr):
        # No sibling leaf; an empty bucket becomes a nil leaf (freed).
        if len(bucket) == 0:
            trie.set_ptr(Location(cell_index, side), NIL)
            store.free(address)
            return "nil"
        return None

    if is_nil(sibling_ptr):
        # Empty bucket with an (empty) nil sibling: the whole node goes.
        if len(bucket) == 0:
            trie.set_ptr(_parent_location(result.trail), NIL)
            trie.cells.free(cell_index)
            store.free(address)
            return "nil"
        return None

    sibling_addr = sibling_ptr
    sibling = store.read(sibling_addr)
    if len(bucket) + len(sibling) > capacity:
        return None
    # Merge: the left leaf's bucket survives (inverse of a split).
    if side == "L":
        survivor_addr, survivor, victim_addr, victim = (
            address,
            bucket,
            sibling_addr,
            sibling,
        )
    else:
        survivor_addr, survivor, victim_addr, victim = (
            sibling_addr,
            sibling,
            address,
            bucket,
        )
    survivor.extend(list(victim.items()))
    # The union's right cut is the right-hand (victim) bucket's cut, so
    # the /TOR83/ reconstruction headers stay truthful across merges.
    survivor.header_path = victim.header_path
    trie.set_ptr(_parent_location(result.trail), survivor_addr)
    trie.cells.free(cell_index)
    store.write(survivor_addr, survivor)
    store.free(victim_addr)
    return "merge"


def rotation_delete_maintenance(file: THFile, result: SearchResult) -> Optional[str]:
    """Basic-method merging extended with valid rotations (Section 3.3).

    Two successive leaves that are not siblings can still merge when
    *some* equivalent trie makes them siblings — possible exactly when
    the boundary between them is not the logical parent of any other
    boundary. Instead of performing the rotation sequence node by node,
    the merge is realised canonically: drop the boundary from the
    equivalent model and rebuild (the /TOR83/ balancing machinery),
    which is what the chain of valid rotations amounts to.

    Falls back to the plain sibling merge when that already applies.
    Returns an action string or ``None``.
    """
    action = basic_delete_maintenance(file.trie, file.store, result, file.capacity)
    if action is not None:
        return action

    trie = file.trie
    address = result.bucket
    bucket = file.store.peek(address)
    model = trie.to_model()
    prefixes = set()
    for s in model.boundaries:
        for l in range(1, len(s)):
            prefixes.add(s[:l])

    def try_merge(own_cut: str, survivor_first: bool, other: int) -> bool:
        if own_cut == "" or own_cut in prefixes:
            return False  # boundary absent or pinned by a logical child
        other_bucket = file.store.read(other)
        if len(bucket) + len(other_bucket) > file.capacity:
            return False
        model.remove_boundary(
            own_cut, keep="left" if survivor_first else "right"
        )
        if survivor_first:
            survivor, victim = address, other
            bucket.extend(list(other_bucket.items()))
            bucket.header_path = other_bucket.header_path
            file.store.write(address, bucket)
        else:
            survivor, victim = other, address
            other_bucket.extend(list(bucket.items()))
            other_bucket.header_path = bucket.header_path
            file.store.write(other, other_bucket)
        # Point the merged gap at the survivor, then rebuild.
        for j, child in enumerate(model.children):
            if child == victim:
                model.set_child(j, survivor)
        file.store.free(victim)
        file.trie = type(file.trie).from_model(model)
        return True

    # Try the successor first: the boundary between is our leaf's path.
    for _, ptr in trie.successor_leaves(list(result.trail)):
        if is_leaf(ptr) and ptr != address:
            if try_merge(result.path, True, ptr):
                return "rotation-merge"
        break
    # Then the predecessor: the boundary is *its* path (its right cut).
    for _location, ptr in trie.predecessor_leaves(list(result.trail)):
        if is_leaf(ptr) and ptr != address:
            index = model.children.index(address)
            if index > 0 and try_merge(model.boundaries[index - 1], False, ptr):
                return "rotation-merge"
        break
    return None


def _neighbor_after(trie: Trie, trail, address: int) -> Optional[int]:
    """Bucket address of the inorder successor bucket, if any."""
    for _, ptr in trie.successor_leaves(list(trail)):
        if is_leaf(ptr) and ptr != address:
            return ptr
        if is_nil(ptr):
            continue
    return None


def _neighbor_before(trie: Trie, trail, address: int) -> Optional[int]:
    """Bucket address of the inorder predecessor bucket, if any."""
    for _, ptr in trie.predecessor_leaves(list(trail)):
        if is_leaf(ptr) and ptr != address:
            return ptr
        if is_nil(ptr):
            continue
    return None


def _repoint_run(trie: Trie, trail, old: int, new: int, start_loc: Location):
    """Repoint the contiguous leaf run of bucket ``old`` to ``new``.

    The run is located around ``trail`` (a search trail ending inside the
    run). Also repoints the trail's own leaf.
    """
    if trie.get_ptr(start_loc) == old:
        trie.set_ptr(start_loc, new)
    for location, ptr in trie.successor_leaves(list(trail)):
        if is_leaf(ptr) and ptr == old:
            trie.set_ptr(location, new)
        else:
            break
    for location, ptr in trie.predecessor_leaves(list(trail)):
        if is_leaf(ptr) and ptr == old:
            trie.set_ptr(location, new)
        else:
            break


def guaranteed_delete_maintenance(
    trie: Trie,
    store: BucketStore,
    result: SearchResult,
    capacity: int,
    alphabet: Alphabet,
) -> Optional[str]:
    """THCL post-delete maintenance guaranteeing >= ``b // 2`` records.

    Merges the underfull bucket with a neighbour when their contents fit
    in one bucket, otherwise borrows keys across the boundary by
    re-cutting it in the middle (Section 4.3). Returns an action string
    or ``None``.
    """
    address = result.bucket
    min_load = capacity // 2
    bucket = store.peek(address)
    if len(bucket) >= min_load:
        return None

    successor = _neighbor_after(trie, result.trail, address)
    predecessor = _neighbor_before(trie, result.trail, address)

    # --- Merge with the successor: survivor is this (left) bucket.
    if successor is not None:
        s_bucket = store.read(successor)
        if len(bucket) + len(s_bucket) <= capacity:
            bucket.extend(list(s_bucket.items()))
            bucket.header_path = s_bucket.header_path
            for location, ptr in trie.successor_leaves(list(result.trail)):
                if is_leaf(ptr) and ptr in (address, successor):
                    if ptr == successor:
                        trie.set_ptr(location, address)
                else:
                    break
            store.write(address, bucket)
            store.free(successor)
            return "merge"

    # --- Merge with the predecessor: survivor is the (left) predecessor.
    if predecessor is not None:
        p_bucket = store.read(predecessor)
        if len(bucket) + len(p_bucket) <= capacity:
            p_bucket.extend(list(bucket.items()))
            p_bucket.header_path = bucket.header_path
            _repoint_run(trie, result.trail, address, predecessor, result.location)
            store.write(predecessor, p_bucket)
            store.free(address)
            return "merge"

    # --- Borrow from the successor: move its lowest keys down.
    if successor is not None:
        s_bucket = store.read(successor)
        combined = list(bucket.items()) + list(s_bucket.items())
        keep = len(combined) // 2
        if keep > len(bucket):  # at least one record moves
            anchor = combined[keep - 1][0]
            bound = combined[keep][0]
            cut = split_string(anchor, bound, alphabet)
            insert_boundary(trie, anchor, cut, address, successor, successor)
            moved = combined[len(bucket) : keep]
            for key, _ in moved:
                s_bucket.remove(key)
            bucket.extend(moved)
            bucket.header_path = cut  # the re-cut boundary is our right cut
            store.write(address, bucket)
            store.write(successor, s_bucket)
            return "borrow"

    # --- Borrow from the predecessor: move its highest keys up.
    if predecessor is not None:
        p_bucket = store.read(predecessor)
        combined = list(p_bucket.items()) + list(bucket.items())
        keep_left = (len(combined) + 1) // 2
        if keep_left < len(p_bucket):  # at least one record moves
            anchor = combined[keep_left - 1][0]
            bound = combined[keep_left][0]
            cut = split_string(anchor, bound, alphabet)
            insert_boundary(trie, anchor, cut, predecessor, address, predecessor)
            moved = combined[keep_left : len(p_bucket)]
            for key, _ in moved:
                p_bucket.remove(key)
            bucket.extend(moved)
            p_bucket.header_path = cut  # predecessor's new right cut
            store.write(address, bucket)
            store.write(predecessor, p_bucket)
            return "borrow"

    return None


def mergeable_couples(trie: Trie) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Which successive bucket couples could merge (Section 3.3 analysis).

    Returns ``(as_siblings, with_rotations)``:

    * ``as_siblings`` — couples whose leaves already share a cell, the
      only merges the basic algorithm performs;
    * ``with_rotations`` — couples that *some* equivalent trie makes
      siblings: the boundary between them must not be the logical parent
      (a proper prefix) of any other boundary, otherwise that descendant
      can never be moved from under it.

    On the paper's 31-word example file these come out 4 and 8 of the 10
    couples, with the couples around buckets (9,4) and (2,3) impossible
    even with rotations — exactly the figures of Section 3.3.
    """
    as_siblings: list[tuple[int, int]] = []
    with_rotations: list[tuple[int, int]] = []
    events = list(trie.inorder())
    boundaries = [e[2] for e in events if e[0] == "node"]
    prefixes = set()
    for s in boundaries:
        for l in range(1, len(s)):
            prefixes.add(s[:l])
    leaf_events = [e for e in events if e[0] == "leaf"]
    node_events = [e for e in events if e[0] == "node"]
    for j, node in enumerate(node_events):
        left_leaf = leaf_events[j]
        right_leaf = leaf_events[j + 1]
        if not (is_leaf(left_leaf[2]) and is_leaf(right_leaf[2])):
            continue
        couple = (left_leaf[2], right_leaf[2])
        boundary = node[2]
        left_loc, right_loc = left_leaf[1], right_leaf[1]
        if (
            left_loc.cell == right_loc.cell
            and left_loc.side == "L"
            and right_loc.side == "R"
        ):
            as_siblings.append(couple)
        if boundary not in prefixes:
            with_rotations.append(couple)
    return as_siblings, with_rotations
