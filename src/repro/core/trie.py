"""The TH-trie: binary digit-discrimination tree over a cell table.

This is the access structure of trie hashing (Section 2 of the paper). An
internal node carries a digit value and digit number ``(d, i)``; a leaf
carries a bucket address or (basic method only) *nil*. The embedded M-ary
"logical structure" is never materialised — it exists through the *logical
paths* that the search algorithm maintains.

The class exposes exactly the primitives the paper's algorithms need:

* :meth:`Trie.search` — Algorithm A1, returning the leaf, the logical path
  ``C`` to it, and the descent *trail* (needed by splits and as the
  start of every ordered walk);
* :meth:`Trie.build_left_chain` — the subtrie a rare-case split grafts in
  (step 3.3 of A2 / THCL);
* :meth:`Trie.step` — moves a trail to the next or previous leaf: range
  queries and cursors seek with A1 and then step, and
  :meth:`Trie.successor_leaves` / :meth:`Trie.predecessor_leaves` loop
  over it for merging and leaf repointing (THCL step 3.5);
* :meth:`Trie.inorder` — the full in-order traversal behind the boundary
  export, the metrics and :meth:`Trie.check`;
* :meth:`Trie.to_model` / :meth:`Trie.from_model` — conversion to and from
  the canonical boundary set (balancing §2.6, reconstruction /TOR83/,
  MLTH pages §2.5);
* :meth:`Trie.check` — the structural axioms of /TOR83/, used liberally in
  the test suite.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from typing import NamedTuple, Optional

from .alphabet import Alphabet
from .boundaries import BoundaryModel, boundary_sort_key
from .cells import (
    NIL,
    CellTable,
    edge_target,
    edge_to,
    is_edge,
    is_nil,
)
from .errors import TrieCorruptionError

__all__ = ["Location", "ROOT_LOCATION", "SearchResult", "Trie"]


class Location(NamedTuple):
    """Where a pointer lives: cell ``cell``'s side ``side``, or the root.

    ``cell is None`` designates the trie's root pointer slot (``side`` is
    then ignored by convention).
    """

    cell: Optional[int]
    side: str


#: The root pointer slot of the trie.
ROOT_LOCATION = Location(None, "R")


class SearchResult(NamedTuple):
    """Outcome of Algorithm A1 for one key."""

    #: Raw leaf pointer: a bucket address, or the nil sentinel.
    ptr: int
    #: Bucket address, or ``None`` when the leaf is nil.
    bucket: Optional[int]
    #: The logical path ``C`` to the leaf (the paper's second return value).
    path: str
    #: Where the leaf pointer lives (for in-place replacement by splits).
    location: Location
    #: Descent steps ``(cell, side)`` from the root down to the leaf.
    trail: tuple[tuple[int, str], ...]
    #: Number of internal nodes visited (in-memory search cost metric).
    nodes_visited: int
    #: Final value of the digit cursor ``j`` (for resuming the search in
    #: a lower page of a multilevel trie).
    matched: int


class Trie:
    """A TH-trie addressing buckets by primary key.

    Parameters
    ----------
    alphabet:
        The key alphabet.
    root_ptr:
        Initial root pointer; defaults to leaf 0 (a file whose only bucket
        is bucket 0), matching the paper's initial file state.
    """

    __slots__ = ("alphabet", "cells", "root")

    def __init__(self, alphabet: Alphabet, root_ptr: int = 0):
        self.alphabet = alphabet
        self.cells = CellTable()
        self.root = root_ptr

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def node_count(self) -> int:
        """Number of internal nodes — the trie size ``M`` of Figs 10-11."""
        return self.cells.live_count()

    def get_ptr(self, location: Location) -> int:
        """Read the pointer stored at ``location``."""
        if location.cell is None:
            return self.root
        return self.cells[location.cell].child(location.side)

    def set_ptr(self, location: Location, ptr: int) -> None:
        """Overwrite the pointer stored at ``location``."""
        if location.cell is None:
            self.root = ptr
        else:
            self.cells[location.cell].set_child(location.side, ptr)

    # ------------------------------------------------------------------
    # Algorithm A1 — key search
    # ------------------------------------------------------------------
    def search(
        self,
        key: str,
        pad: str = "min",
        start_matched: int = 0,
        start_path: str = "",
    ) -> SearchResult:
        """Map ``key`` to its leaf (Algorithm A1).

        Returns the leaf pointer, the logical path ``C`` used by the
        splitting algorithms, the leaf's location and the descent trail.
        The key must be canonical (see ``Alphabet.validate_key``).

        ``pad`` selects the implicit right-padding of the key: ``'min'``
        (space digits — a real key) or ``'max'`` (largest digits — a
        *virtual* key used to locate the leaf immediately left of a
        boundary, needed by THCL's step 3.4).

        ``start_matched``/``start_path`` resume the search mid-descent —
        multilevel trie hashing carries the ``(j, C)`` state from page to
        page (Section 2.5).
        """
        if pad == "min":
            digit_at = self.alphabet.digit_at
        else:
            max_digit = self.alphabet.max_digit

            def digit_at(k: str, j: int) -> str:
                return k[j] if j < len(k) else max_digit
        n = self.root
        location = ROOT_LOCATION
        trail: list[tuple[int, str]] = []
        path = start_path
        j = start_matched
        visited = 0
        while is_edge(n):
            visited += 1
            index = edge_target(n)
            cell = self.cells[index]
            d, i = cell.dv, cell.dn
            if j == i:
                cj = digit_at(key, j)
                if cj <= d:
                    path = self._extend_path(path, d, i)
                    trail.append((index, "L"))
                    location = Location(index, "L")
                    n = cell.lp
                    if cj == d:
                        j += 1
                else:
                    trail.append((index, "R"))
                    location = Location(index, "R")
                    n = cell.rp
            elif j < i:
                path = self._extend_path(path, d, i)
                trail.append((index, "L"))
                location = Location(index, "L")
                n = cell.lp
            else:  # j > i: digit j was already matched above this node
                trail.append((index, "R"))
                location = Location(index, "R")
                n = cell.rp
        bucket = None if is_nil(n) else n
        return SearchResult(n, bucket, path, location, tuple(trail), visited, j)

    def lookup(self, key: str) -> int:
        """Map ``key`` to its raw leaf pointer (descent only).

        The read paths of :class:`repro.core.file.THFile` only need the
        leaf, not the logical path / trail Algorithm A1 also maintains.
        Backends may override this with a cheaper loop (the compact
        backend does); the default simply projects :meth:`search`.
        """
        return self.search(key).ptr

    def trail(self, key: str) -> list[tuple[int, str]]:
        """The descent steps ``(cell, side)`` Algorithm A1 takes for ``key``.

        Equal to ``list(search(key).trail)``: the start of a leaf walk
        (:meth:`step`), whose leaf location is ``Location(*trail[-1])``
        (the root slot for an empty trail). Backends may override it
        with a loop that keeps the trail alone, as the compact backend
        does; the default projects :meth:`search`.
        """
        return list(self.search(key).trail)

    @staticmethod
    def _extend_path(path: str, d: str, i: int) -> str:
        """``C <- (C)_{i-1} · d`` with a gap check (valid tries never gap)."""
        if len(path) < i:
            raise TrieCorruptionError(
                f"logical path {path!r} too short for digit number {i}"
            )
        return path[:i] + d

    # ------------------------------------------------------------------
    # Structure surgery (used by the splitting algorithms)
    # ------------------------------------------------------------------
    def build_left_chain(
        self,
        digits: str,
        first_position: int,
        bottom_left: int,
        right_fill: int,
        bottom_right: int,
    ) -> tuple[int, list[int]]:
        """Create the left-descending chain grafted in by a split.

        ``digits`` are the new digits of the split string, occupying digit
        numbers ``first_position, first_position+1, ...``. Every
        intermediate node's right child is ``right_fill`` (nil in the
        basic method, the new bucket in THCL); the bottom node's children
        are ``bottom_left`` and ``bottom_right``. Returns an edge pointer
        to the chain's root cell and the chain's cell indices from top to
        bottom (the splitting algorithms extend search trails with them).
        """
        if not digits:
            raise TrieCorruptionError("cannot build an empty chain")
        position = first_position + len(digits) - 1
        child_ptr = None
        indices: list[int] = []
        for d in reversed(digits):
            if child_ptr is None:
                index = self.cells.allocate(d, position, bottom_left, bottom_right)
            else:
                index = self.cells.allocate(d, position, child_ptr, right_fill)
            indices.append(index)
            child_ptr = edge_to(index)
            position -= 1
        indices.reverse()
        return child_ptr, indices

    def collapse_node(self, location: Location) -> None:
        """Replace the node at ``location`` by one of its equal leaves.

        Only valid when both children of the node are leaves carrying the
        same pointer (the situation redistribution can create, Section
        4.4); the node's cell is freed.
        """
        ptr = self.get_ptr(location)
        if not is_edge(ptr):
            raise TrieCorruptionError("collapse target is not an internal node")
        index = edge_target(ptr)
        cell = self.cells[index]
        if is_edge(cell.lp) or is_edge(cell.rp) or cell.lp != cell.rp:
            raise TrieCorruptionError(
                "collapse requires two identical leaf children"
            )
        self.set_ptr(location, cell.lp)
        self.cells.free(index)

    # ------------------------------------------------------------------
    # Ordered traversal
    # ------------------------------------------------------------------
    def inorder(self) -> Iterator[tuple[str, object, object, object]]:
        """Iterate the trie in order.

        Yields ``('leaf', location, ptr, logical_path)`` for leaves and
        ``('node', cell_index, boundary, digit_number)`` for internal
        nodes, interleaved in inorder: leaf, node, leaf, node, ..., leaf.
        The boundary of a node is its logical path through its left edge,
        which is the canonical cut point it represents.
        """
        stack: list[tuple[int, str, str]] = []  # (cell index, boundary, ctx)
        ptr = self.root
        location = ROOT_LOCATION
        path = ""
        while True:
            while is_edge(ptr):
                index = edge_target(ptr)
                cell = self.cells[index]
                boundary = self._extend_path(path, cell.dv, cell.dn)
                stack.append((index, boundary, path))
                path = boundary
                location = Location(index, "L")
                ptr = cell.lp
            yield ("leaf", location, ptr, path)
            if not stack:
                return
            index, boundary, parent_path = stack.pop()
            yield ("node", index, boundary, self.cells[index].dn)
            path = parent_path
            location = Location(index, "R")
            ptr = self.cells[index].rp

    def leaves_in_order(self) -> list[tuple[Location, int, str]]:
        """All leaves left to right as ``(location, ptr, logical_path)``."""
        return [
            (location, ptr, path)
            for kind, location, ptr, path in self.inorder()
            if kind == "leaf"
        ]

    def boundaries(self) -> list[str]:
        """All boundaries (internal-node cut points) in increasing order."""
        return [event[2] for event in self.inorder() if event[0] == "node"]

    def step(
        self, trail: list[tuple[int, str]], forward: bool = True
    ) -> Optional[int]:
        """Move an A1 search ``trail`` in place to the next (or previous) leaf.

        Returns the new leaf's pointer, or ``None`` — leaving ``trail``
        as it was — when the trail's leaf is the last (first) one. The
        leaf's location is ``Location(*trail[-1])``. This is the walk
        over successive leaves of a range query (Section 2.2).
        """
        turn, other = ("L", "R") if forward else ("R", "L")
        depth = len(trail) - 1
        while depth >= 0 and trail[depth][1] != turn:
            depth -= 1
        if depth < 0:
            return None
        index = trail[depth][0]
        del trail[depth:]
        trail.append((index, other))
        ptr = self.cells[index].child(other)
        while is_edge(ptr):
            index = edge_target(ptr)
            trail.append((index, turn))
            ptr = self.cells[index].child(turn)
        return ptr

    def successor_leaves(
        self, trail: Sequence[tuple[int, str]]
    ) -> Iterator[tuple[Location, int]]:
        """Leaves strictly after the leaf reached by ``trail``, in order.

        Yields ``(location, ptr)`` pairs. The caller may overwrite the
        yielded leaf pointer between steps (THCL step 3.5 does); structural
        mutation of the trie during iteration is not supported.
        """
        t = list(trail)
        while (ptr := self.step(t)) is not None:
            yield Location(*t[-1]), ptr

    def predecessor_leaves(
        self, trail: Sequence[tuple[int, str]]
    ) -> Iterator[tuple[Location, int]]:
        """Mirror of :meth:`successor_leaves`: leaves before the trail's leaf."""
        t = list(trail)
        while (ptr := self.step(t, forward=False)) is not None:
            yield Location(*t[-1]), ptr

    def depth(self) -> int:
        """Maximum number of internal nodes on a root-to-leaf path."""
        best = 0
        stack = [(self.root, 0)]
        while stack:
            ptr, d = stack.pop()
            if is_edge(ptr):
                index = edge_target(ptr)
                cell = self.cells[index]
                stack.append((cell.lp, d + 1))
                stack.append((cell.rp, d + 1))
            else:
                best = max(best, d)
        return best

    # ------------------------------------------------------------------
    # Canonical model conversion
    # ------------------------------------------------------------------
    def to_model(self) -> BoundaryModel:
        """Export the equivalent :class:`BoundaryModel` (shape erased)."""
        boundaries: list[str] = []
        children: list[Optional[int]] = []
        for event in self.inorder():
            if event[0] == "leaf":
                ptr = event[2]
                children.append(None if is_nil(ptr) else ptr)
            else:
                boundaries.append(event[2])
        return BoundaryModel(self.alphabet, boundaries, children)

    @classmethod
    def from_model(cls, model: BoundaryModel, pick: str = "balanced") -> Trie:
        """Build a valid trie realising ``model``.

        The construction recursively roots each boundary span at a
        *candidate* boundary — one whose logical parent lies outside the
        span — choosing the candidate nearest the span's middle
        (``pick='balanced'``, the /TOR83/ canonical balancing) or the
        first/last candidate (``pick='first'``/``'last'``). The result maps
        every key to the same child as the model.
        """
        trie = cls(model.alphabet, root_ptr=NIL)
        boundaries = model.boundaries
        children = model.children

        def child_ptr(j: int) -> int:
            c = children[j]
            return NIL if c is None else c

        # Iterative build: tasks are (lo, hi, slot) meaning "realise the
        # span boundaries[lo:hi] (with children[lo:hi+1]) into slot".
        tasks: list[tuple[int, int, Location]] = [
            (0, len(boundaries), ROOT_LOCATION)
        ]
        while tasks:
            lo, hi, slot = tasks.pop()
            if lo == hi:
                trie.set_ptr(slot, child_ptr(lo))
                continue
            k = _choose_root(boundaries, lo, hi, pick)
            s = boundaries[k]
            index = trie.cells.allocate(s[-1], len(s) - 1, NIL, NIL)
            trie.set_ptr(slot, edge_to(index))
            tasks.append((lo, k, Location(index, "L")))
            tasks.append((k + 1, hi, Location(index, "R")))
        return trie

    def rebalanced(self, pick: str = "balanced") -> Trie:
        """Return an equivalent trie rebuilt in canonical balanced form.

        Implements the trie balancing of Section 2.6: disk behaviour, load
        factor and trie size are unchanged; only the in-memory node search
        gets shorter. The rebuilt trie keeps the receiver's backend
        (``type(self)``), so compact tries rebalance into compact tries.
        """
        return type(self).from_model(self.to_model(), pick=pick)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def check(self, expect_no_nil: bool = False) -> None:
        """Verify the structural axioms of a TH-trie.

        Checks: every live cell is reachable exactly once; digit numbers
        never create logical-path gaps; the boundary sequence is strictly
        increasing in boundary order; the boundary set is prefix-closed
        (logical parents exist); and, when ``expect_no_nil`` (THCL), that
        no leaf is nil and equal-bucket leaves are contiguous.
        """
        seen: list[int] = []
        boundaries: list[str] = []
        leaf_ptrs: list[int] = []
        for event in self.inorder():  # raises on path gaps
            if event[0] == "node":
                seen.append(event[1])
                boundaries.append(event[2])
            else:
                leaf_ptrs.append(event[2])
        if len(seen) != self.cells.live_count():
            raise TrieCorruptionError(
                f"{self.cells.live_count()} live cells but {len(seen)} reachable"
            )
        if len(set(seen)) != len(seen):
            raise TrieCorruptionError("a cell is reachable twice (cycle/share)")
        keys = [boundary_sort_key(s, self.alphabet) for s in boundaries]
        for a, b in zip(keys, keys[1:]):
            if not a < b:
                raise TrieCorruptionError("boundaries not strictly increasing")
        present = set(boundaries)
        for s in boundaries:
            for l in range(1, len(s)):
                if s[:l] not in present:
                    raise TrieCorruptionError(
                        f"boundary {s!r} lacks logical parent {s[:l]!r}"
                    )
        if expect_no_nil:
            if any(is_nil(p) for p in leaf_ptrs):
                raise TrieCorruptionError("nil leaf in a THCL trie")
            seen_buckets = set()
            previous: Optional[int] = None
            for p in leaf_ptrs:
                if p != previous and p in seen_buckets:
                    raise TrieCorruptionError(
                        f"leaves of bucket {p} are not contiguous"
                    )
                if p != previous:
                    seen_buckets.add(p)
                previous = p


def _choose_root(boundaries: Sequence[str], lo: int, hi: int, pick: str) -> int:
    """Pick the root boundary for the span ``[lo, hi)``.

    Candidates are boundaries whose logical parent (their one-digit-shorter
    prefix) is outside the span — the validity condition for standing above
    the rest of the span (same condition as the MLTH split node, §2.5).
    """
    if hi - lo == 1:
        return lo
    span = set(boundaries[lo:hi])
    candidates = [
        j
        for j in range(lo, hi)
        if len(boundaries[j]) == 1 or boundaries[j][:-1] not in span
    ]
    if not candidates:  # impossible for prefix-closed sets
        raise TrieCorruptionError("span has no valid subtrie root")
    if pick == "first":
        return candidates[0]
    if pick == "last":
        return candidates[-1]
    middle = (lo + hi - 1) / 2
    return min(candidates, key=lambda j: (abs(j - middle), j))
