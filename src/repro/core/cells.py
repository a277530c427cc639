"""The standard (cell list) representation of a TH-trie.

Following /LIT81/ and Section 2.1 of the paper, the trie is stored as a
table of *cells*. A cell holds one internal node: the digit value ``DV``,
the digit number ``DN``, and two pointers ``LP`` and ``RP`` for the left
and right children. A pointer either designates a *leaf* (a bucket
address), an *edge* to another cell, or the *nil* value of the basic
method.

Pointer encoding
----------------
The paper encodes an edge to cell ``A`` as the negative value ``-A``; cell
0 is always the root so nothing ever points at it and the sign carries the
tag. In this implementation the root can be any cell (cells are recycled
through a free list after merges), so edges are encoded as ``-(index+1)``
and ``NIL`` is a dedicated sentinel. Leaves remain non-negative bucket
addresses. The on-disk serialiser (:mod:`repro.storage.serializer`) packs a
cell into the paper's six bytes: one for DV, one for DN, two per pointer.

This module is deliberately dumb — just the table and the pointer algebra.
All tree logic lives in :mod:`repro.core.trie`.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import Optional

from .errors import TrieCorruptionError

__all__ = [
    "NIL",
    "is_nil",
    "is_leaf",
    "is_edge",
    "edge_to",
    "edge_target",
    "leaf_bucket",
    "Cell",
    "CellTable",
    "Row",
]

#: The nil pointer of the basic method (no bucket allocated yet).
NIL: int = -(1 << 60)

#: One cell as plain values, ``(dv, dn, lp, rp)`` with the digit as its
#: code point: what both cell stores read out and load in bulk.
Row = tuple[int, int, int, int]


def is_nil(ptr: int) -> bool:
    """True when ``ptr`` is the nil leaf value."""
    return ptr == NIL


def is_leaf(ptr: int) -> bool:
    """True when ``ptr`` designates a bucket address (a leaf)."""
    return ptr >= 0


def is_edge(ptr: int) -> bool:
    """True when ``ptr`` designates an edge to another cell."""
    return ptr < 0 and ptr != NIL


def edge_to(cell_index: int) -> int:
    """Encode an edge pointing at cell ``cell_index``."""
    return -(cell_index + 1)


def edge_target(ptr: int) -> int:
    """Decode the cell index an edge pointer designates."""
    if not is_edge(ptr):
        raise TrieCorruptionError(f"pointer {ptr} is not an edge")
    return -ptr - 1


def leaf_bucket(ptr: int) -> int:
    """Decode the bucket address a leaf pointer designates."""
    if not is_leaf(ptr):
        raise TrieCorruptionError(f"pointer {ptr} is not a leaf")
    return ptr


class Cell:
    """One internal node: ``(DV, DN)`` plus the two child pointers."""

    __slots__ = ("dv", "dn", "lp", "rp")

    def __init__(self, dv: str, dn: int, lp: int, rp: int):
        self.dv = dv
        self.dn = dn
        self.lp = lp
        self.rp = rp

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        def show(ptr: int) -> str:
            if is_nil(ptr):
                return "nil"
            if is_leaf(ptr):
                return str(ptr)
            return f"->{edge_target(ptr)}"

        return f"Cell(({self.dv!r},{self.dn}), L={show(self.lp)}, R={show(self.rp)})"

    def child(self, side: str) -> int:
        """The pointer on ``side`` (``'L'`` or ``'R'``)."""
        return self.lp if side == "L" else self.rp

    def set_child(self, side: str, ptr: int) -> None:
        """Replace the pointer on ``side``."""
        if side == "L":
            self.lp = ptr
        else:
            self.rp = ptr


class CellTable:
    """A growable table of cells with free-list recycling.

    The paper appends new cells at the end of the table (which is what
    makes its concurrency argument work — a split never moves existing
    cells) and either compacts on deletion or merely marks cells deleted.
    We keep a free list and reuse slots, with :meth:`live_count` exposing
    the number of live cells (the trie size ``M`` of Figures 10–11).
    """

    __slots__ = ("_cells", "_free")

    def __init__(self) -> None:
        self._cells: list[Cell] = []
        self._free: list[int] = []

    def __len__(self) -> int:
        """Physical table length (including freed slots)."""
        return len(self._cells)

    def live_count(self) -> int:
        """Number of live (non-freed) cells — the trie size ``M``."""
        return len(self._cells) - len(self._free)

    def __getitem__(self, index: int) -> Cell:
        cell = self._cells[index]
        if cell is None:
            raise TrieCorruptionError(f"cell {index} was freed")
        return cell

    def allocate(self, dv: str, dn: int, lp: int, rp: int) -> int:
        """Create a cell, reusing a freed slot when available."""
        if self._free:
            index = self._free.pop()
            self._cells[index] = Cell(dv, dn, lp, rp)
            return index
        self._cells.append(Cell(dv, dn, lp, rp))
        return len(self._cells) - 1

    def free(self, index: int) -> None:
        """Release a cell back to the free list."""
        if self._cells[index] is None:
            raise TrieCorruptionError(f"cell {index} freed twice")
        self._cells[index] = None
        self._free.append(index)

    def live_items(self) -> Iterator[tuple[int, Cell]]:
        """Iterate ``(index, cell)`` over live cells, table order."""
        for index, cell in enumerate(self._cells):
            if cell is not None:
                yield index, cell

    def rows(self) -> list[Optional[Row]]:
        """Every slot as a ``(dv, dn, lp, rp)`` row (``dv`` as its code
        point), or ``None`` for a freed slot, in table order."""
        return [
            None if cell is None else (ord(cell.dv), cell.dn, cell.lp, cell.rp)
            for cell in self._cells
        ]

    def load_rows(self, rows: list[Row]) -> None:
        """Replace the table with ``rows``, live cells in table order and
        no freed slot: the bulk form of :meth:`allocate`, and the inverse
        of :meth:`rows` on a table with no freed slot."""
        self._cells = [Cell(chr(dv), dn, lp, rp) for dv, dn, lp, rp in rows]
        self._free = []
