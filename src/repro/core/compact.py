"""The compact (coordinate/column) representation of a TH-trie.

The standard backend (:mod:`repro.core.cells`) stores one Python object
per internal node. That is faithful to the paper but pays the full
CPython object tax on the hottest loop in the library — the per-key
descent of Algorithm A1. This module provides the alternative *compact*
backend in the spirit of the coordinate hash trie (arXiv:2302.03690):
every node attribute lives in one flat parallel column indexed by the
cell number, so a descent touches four preallocated columns instead of
chasing heap objects.

Layout
------
:class:`CompactCells` keeps four parallel columns, one row per cell:

* ``dv`` — the digit value, stored as its ``ord`` in an ``array('I')``
  (digit order coincides with ``ord`` order by the alphabet contract,
  so comparisons stay native integer compares);
* ``dn`` — the digit number in an ``array('i')``; the value ``-1``
  marks a freed row (digit numbers are never negative in a live cell);
* ``lp`` / ``rp`` — the child pointers, kept as plain Python ``int``
  lists: pointers share the cell encoding of :mod:`repro.core.cells`
  (leaf = bucket address ``>= 0``, edge to cell ``i`` = ``-(i+1)``,
  plus the ``NIL`` sentinel), and CPython list reads are the fastest
  row access available. :meth:`CompactCells.columns` exposes the two
  numeric columns as read-only ``memoryview`` objects for audits,
  serialisation experiments and zero-copy inspection.
* ``md`` — the fused *(node, digit)* coordinate of the hash-trie
  scheme: ``dn << 21 | dv`` packed into one plain ``int`` list (21 bits
  covers every Unicode ``ord``; ``-1`` marks a freed row). The descent
  loops read only this column plus ``lp``/``rp``, halving the row
  accesses per visited node; ``dv``/``dn`` stay authoritative for views
  and serialisation, and :meth:`CompactCells.check` (via
  :meth:`CompactTrie.check_columns`) re-derives ``md`` to prove the two
  encodings never drift.

:class:`CompactCells` mirrors the :class:`~repro.core.cells.CellTable`
surface exactly — same allocate/free free-list (LIFO) discipline, same
``live_count`` / ``live_items`` / ``len`` semantics, same corruption
errors on freed-slot access — so the splitting, merging, redistribution
and serialisation code runs unchanged over either backend and, crucially,
so the *structural evolution* of a compact-backed file is byte-identical
to a cells-backed one under the same operation sequence (the property
the differential test suite in ``tests/test_compact.py`` pins down).
Both stores also read their live cells out as plain ``(dv, dn, lp,
rp)`` rows and load such rows in bulk (``rows`` / ``load_rows``), so a
checkpoint or whole-file image is written straight off the columns
and read straight back into them: one build per column, no row
view and no per-cell :meth:`~CompactCells.allocate`
(:func:`~repro.storage.serializer.serialize_trie` and
:func:`~repro.storage.serializer.deserialize_trie`).

:class:`CompactTrie` subclasses :class:`~repro.core.trie.Trie`, swaps
the cell table for the columns, and overrides the hot entry points with
loops that read the columns directly instead of going through row
views: the descents (:meth:`CompactTrie.search` and
:meth:`CompactTrie.lookup`) and the leaf walk of scans and cursors
(:meth:`CompactTrie.step` and :meth:`CompactTrie.get_ptr`). Everything
else — model conversion, traversal, surgery, checking — is inherited
and operates through :class:`CompactCellView` proxies.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator
from typing import Optional

from .alphabet import Alphabet
from .cells import NIL, Row, is_edge, is_leaf
from .errors import TrieCorruptionError
from .trie import ROOT_LOCATION, Location, SearchResult, Trie

__all__ = [
    "DEFAULT_TRIE_BACKEND",
    "TRIE_BACKENDS",
    "CompactCellView",
    "CompactCells",
    "CompactTrie",
]

#: The trie representations a file can be built on: the paper's
#: Section 2.1 cell table (one object per node) and these columns.
TRIE_BACKENDS = ("cells", "compact")

#: The backend every file, shard and experiment is built on unless a
#: caller names the other one.
DEFAULT_TRIE_BACKEND = "compact"

#: ``dn`` column marker for freed rows (live digit numbers are >= 0).
_FREED = -1

#: Bits reserved for the digit value inside a packed ``md`` coordinate
#: (``max(ord) == 0x10FFFF`` needs 21; digit numbers get the rest).
_DV_BITS = 21
_DV_MASK = (1 << _DV_BITS) - 1


class CompactCellView:
    """A cell-shaped window onto one row of the parallel columns.

    Quacks exactly like :class:`~repro.core.cells.Cell` (``dv`` / ``dn``
    / ``lp`` / ``rp`` attributes, ``child`` / ``set_child``), but reads
    and writes go straight to the owning table's columns — the view
    holds no state of its own, so it is always coherent and may be kept
    across mutations of the same row.
    """

    __slots__ = ("_table", "_index")

    def __init__(self, table: "CompactCells", index: int):
        self._table = table
        self._index = index

    @property
    def dv(self) -> str:
        """The digit value, as the single character the trie compares."""
        return chr(self._table._dv[self._index])

    @dv.setter
    def dv(self, value: str) -> None:
        table = self._table
        index = self._index
        o = ord(value)
        table._dv[index] = o
        table._md[index] = (table._dn[index] << _DV_BITS) | o

    @property
    def dn(self) -> int:
        """The digit number."""
        return self._table._dn[self._index]

    @dn.setter
    def dn(self, value: int) -> None:
        if value < 0:
            raise TrieCorruptionError("digit numbers must be non-negative")
        table = self._table
        index = self._index
        table._dn[index] = value
        table._md[index] = (value << _DV_BITS) | table._dv[index]

    @property
    def lp(self) -> int:
        """The left child pointer."""
        return self._table._lp[self._index]

    @lp.setter
    def lp(self, value: int) -> None:
        self._table._lp[self._index] = value

    @property
    def rp(self) -> int:
        """The right child pointer."""
        return self._table._rp[self._index]

    @rp.setter
    def rp(self, value: int) -> None:
        self._table._rp[self._index] = value

    def child(self, side: str) -> int:
        """The pointer on ``side`` (``'L'`` or ``'R'``)."""
        if side == "L":
            return self._table._lp[self._index]
        return self._table._rp[self._index]

    def set_child(self, side: str, ptr: int) -> None:
        """Replace the pointer on ``side``."""
        if side == "L":
            self._table._lp[self._index] = ptr
        else:
            self._table._rp[self._index] = ptr

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompactCellView(#{self._index}: ({self.dv!r},{self.dn}), "
            f"L={self.lp}, R={self.rp})"
        )


class CompactCells:
    """Parallel-column cell storage with CellTable-identical semantics.

    The free list is LIFO, slot indices are stable, freed slots raise
    the same :class:`~repro.core.errors.TrieCorruptionError` messages as
    :class:`~repro.core.cells.CellTable`, and ``live_items`` yields in
    table order — every behaviour the structural algorithms (and the
    differential tests) can observe is preserved; only the storage
    layout changes.
    """

    __slots__ = ("_dv", "_dn", "_md", "_lp", "_rp", "_free")

    def __init__(self) -> None:
        self._dv: array = array("I")
        self._dn: array = array("i")
        self._md: list[int] = []
        self._lp: list[int] = []
        self._rp: list[int] = []
        self._free: list[int] = []

    def __len__(self) -> int:
        """Physical table length (including freed slots)."""
        return len(self._dn)

    def live_count(self) -> int:
        """Number of live (non-freed) cells — the trie size ``M``."""
        return len(self._dn) - len(self._free)

    def __getitem__(self, index: int) -> CompactCellView:
        if self._dn[index] == _FREED:
            raise TrieCorruptionError(f"cell {index} was freed")
        return CompactCellView(self, index)

    def allocate(self, dv: str, dn: int, lp: int, rp: int) -> int:
        """Create a cell, reusing a freed slot when available."""
        if dn < 0:
            raise TrieCorruptionError("digit numbers must be non-negative")
        o = ord(dv)
        if self._free:
            index = self._free.pop()
            self._dv[index] = o
            self._dn[index] = dn
            self._md[index] = (dn << _DV_BITS) | o
            self._lp[index] = lp
            self._rp[index] = rp
            return index
        self._dv.append(o)
        self._dn.append(dn)
        self._md.append((dn << _DV_BITS) | o)
        self._lp.append(lp)
        self._rp.append(rp)
        return len(self._dn) - 1

    def free(self, index: int) -> None:
        """Release a cell back to the free list."""
        if self._dn[index] == _FREED:
            raise TrieCorruptionError(f"cell {index} freed twice")
        self._dn[index] = _FREED
        self._md[index] = _FREED
        self._free.append(index)

    def live_items(self) -> Iterator[tuple[int, CompactCellView]]:
        """Iterate ``(index, cell)`` over live cells, table order."""
        dn = self._dn
        for index in range(len(dn)):
            if dn[index] != _FREED:
                yield index, CompactCellView(self, index)

    def rows(self) -> list[Optional[Row]]:
        """:meth:`CellTable.rows <repro.core.cells.CellTable.rows>` read
        straight off the columns: no row view is built."""
        rows: list[Optional[Row]] = list(zip(self._dv, self._dn, self._lp, self._rp))
        for index in self._free:
            rows[index] = None
        return rows

    def load_rows(self, rows: list[Row]) -> None:
        """:meth:`CellTable.load_rows <repro.core.cells.CellTable.load_rows>`
        as one build per column."""
        dv, dn, lp, rp = zip(*rows) if rows else ((), (), (), ())
        if min(dn, default=0) < 0:
            raise TrieCorruptionError("digit numbers must be non-negative")
        self._dv = array("I", dv)
        self._dn = array("i", dn)
        self._md = [(n << _DV_BITS) | v for v, n in zip(dv, dn)]
        self._lp = list(lp)
        self._rp = list(rp)
        self._free = []

    def columns(self) -> dict[str, memoryview]:
        """Read-only memoryviews over the numeric coordinate columns."""
        return {
            "dv": memoryview(self._dv).toreadonly(),
            "dn": memoryview(self._dn).toreadonly(),
        }


class CompactTrie(Trie):
    """A TH-trie over :class:`CompactCells` with column-direct hot paths.

    Drop-in for :class:`~repro.core.trie.Trie`: the full API (search,
    surgery, traversal, model conversion, checking) behaves identically;
    :meth:`search`, :meth:`lookup`, :meth:`trail`, :meth:`step` and
    :meth:`get_ptr` are reimplemented over the raw columns for speed. It is the default
    backend of :class:`~repro.core.file.THFile`
    (:data:`DEFAULT_TRIE_BACKEND`).
    """

    __slots__ = ("_min_ord", "_max_ord")

    def __init__(self, alphabet: Alphabet, root_ptr: int = 0):
        super().__init__(alphabet, root_ptr)
        self.cells = CompactCells()
        self._min_ord = ord(alphabet.min_digit)
        self._max_ord = ord(alphabet.max_digit)

    def get_ptr(self, location: Location) -> int:
        """The pointer stored at ``location``, read off the columns."""
        index = location.cell
        if index is None:
            return self.root
        cells = self.cells
        if cells._dn[index] == _FREED:
            raise TrieCorruptionError(f"cell {index} was freed")
        return (cells._lp if location.side == "L" else cells._rp)[index]

    def step(
        self, trail: list[tuple[int, str]], forward: bool = True
    ) -> Optional[int]:
        """:meth:`Trie.step` over the columns: the leaf walk of a scan.

        Moves ``trail`` in place to the next (previous) leaf and returns
        its pointer, or returns ``None`` at the last (first) leaf.
        """
        cells = self.cells
        dn = cells._dn
        if forward:
            turn, other, down, across = "L", "R", cells._lp, cells._rp
        else:
            turn, other, down, across = "R", "L", cells._rp, cells._lp
        depth = len(trail) - 1
        while depth >= 0 and trail[depth][1] != turn:
            depth -= 1
        if depth < 0:
            return None
        index = trail[depth][0]
        del trail[depth:]
        trail.append((index, other))
        if dn[index] == _FREED:
            raise TrieCorruptionError(f"cell {index} was freed")
        ptr = across[index]
        while ptr < 0 and ptr != NIL:
            index = ~ptr  # the edge encoding -(i + 1)
            trail.append((index, turn))
            if dn[index] == _FREED:
                raise TrieCorruptionError(f"cell {index} was freed")
            ptr = down[index]
        return ptr

    def lookup(self, key: str) -> int:
        """Map ``key`` to its raw leaf pointer — the descent alone.

        The batched and point read paths only need the leaf; skipping
        the logical path / trail / location bookkeeping of Algorithm A1
        roughly halves the per-key cost again on top of the column
        layout. Semantically identical to ``search(key).ptr``.
        """
        # Keys are compared digit-by-digit as ords; encoding the key once
        # turns every per-node ``ord(key[j])`` into a C-level bytes index.
        # Latin-1 covers ords 0..255 — keys beyond that (exotic alphabets)
        # take the always-correct full search instead.
        try:
            kb = key.encode("latin-1")
        except UnicodeEncodeError:
            return self.search(key).ptr
        cells = self.cells
        md = cells._md
        lp = cells._lp
        rp = cells._rp
        min_ord = self._min_ord
        n = self.root
        j = 0
        klen = len(kb)
        # ``~n`` decodes the edge encoding ``-(i + 1)`` in one op, and the
        # NIL sentinel's pseudo-index (``(1 << 60) - 1``) can never be a
        # real row, so the (free on 3.11+) IndexError handler doubles as
        # the NIL check without a per-node comparison. A freed row packs
        # ``md == -1``, so ``i`` decodes to ``-1`` and the descent takes
        # the same right-pointer step the ``dn``-column walk would.
        while n < 0:
            index = ~n
            try:
                m = md[index]
            except IndexError:
                return NIL
            i = m >> _DV_BITS
            if j == i:
                cj = kb[j] if j < klen else min_ord
                d = m & _DV_MASK
                if cj <= d:
                    n = lp[index]
                    if cj == d:
                        j += 1
                else:
                    n = rp[index]
            elif j < i:
                n = lp[index]
            else:
                n = rp[index]
        return n

    def trail(self, key: str) -> list[tuple[int, str]]:
        """The A1 descent trail of ``key`` read off the columns.

        The descent of :meth:`lookup`, keeping each ``(cell, side)``
        step and nothing else: no logical path and no location, which a
        scan's two bounds and a full walk never read. Equal to
        ``list(search(key).trail)``.
        """
        try:
            kb = key.encode("latin-1")
        except UnicodeEncodeError:
            return list(self.search(key).trail)
        cells = self.cells
        md = cells._md
        lp = cells._lp
        rp = cells._rp
        min_ord = self._min_ord
        trail: list[tuple[int, str]] = []
        append = trail.append
        n = self.root
        j = 0
        klen = len(kb)
        while n < 0:
            index = ~n
            try:
                m = md[index]
            except IndexError:  # the NIL sentinel, as in lookup
                return trail
            i = m >> _DV_BITS
            if j == i:
                cj = kb[j] if j < klen else min_ord
                d = m & _DV_MASK
                if cj <= d:
                    append((index, "L"))
                    n = lp[index]
                    if cj == d:
                        j += 1
                else:
                    append((index, "R"))
                    n = rp[index]
            elif j < i:
                append((index, "L"))
                n = lp[index]
            else:
                append((index, "R"))
                n = rp[index]
        return trail

    def search(
        self,
        key: str,
        pad: str = "min",
        start_matched: int = 0,
        start_path: str = "",
    ) -> SearchResult:
        """Algorithm A1 over the flat columns (see :meth:`Trie.search`)."""
        cells = self.cells
        dv = cells._dv
        dn = cells._dn
        lp = cells._lp
        rp = cells._rp
        pad_ord = self._min_ord if pad == "min" else self._max_ord
        n = self.root
        location = ROOT_LOCATION
        trail: list[tuple[int, str]] = []
        path = start_path
        j = start_matched
        visited = 0
        klen = len(key)
        while n < 0 and n != NIL:
            visited += 1
            index = -n - 1
            i = dn[index]
            if j == i:
                cj = ord(key[j]) if j < klen else pad_ord
                d = dv[index]
                if cj <= d:
                    if len(path) < i:
                        raise TrieCorruptionError(
                            f"logical path {path!r} too short for digit "
                            f"number {i}"
                        )
                    path = path[:i] + chr(d)
                    trail.append((index, "L"))
                    location = Location(index, "L")
                    n = lp[index]
                    if cj == d:
                        j += 1
                else:
                    trail.append((index, "R"))
                    location = Location(index, "R")
                    n = rp[index]
            elif j < i:
                if len(path) < i:
                    raise TrieCorruptionError(
                        f"logical path {path!r} too short for digit number {i}"
                    )
                path = path[:i] + chr(dv[index])
                trail.append((index, "L"))
                location = Location(index, "L")
                n = lp[index]
            else:
                trail.append((index, "R"))
                location = Location(index, "R")
                n = rp[index]
        bucket = None if n == NIL else n
        return SearchResult(n, bucket, path, location, tuple(trail), visited, j)

    def check_columns(self) -> None:
        """Verify the column invariants specific to the compact layout.

        Checks column length agreement, freed-row marking consistency
        with the free list, and pointer well-formedness of live rows.
        The generic trie axioms are covered by :meth:`Trie.check`.
        """
        cells = self.cells
        n = len(cells._dn)
        if not (
            len(cells._dv) == n == len(cells._md)
            and len(cells._lp) == n == len(cells._rp)
        ):
            raise TrieCorruptionError("compact columns disagree on length")
        for index in range(n):
            dn = cells._dn[index]
            want = _FREED if dn == _FREED else (dn << _DV_BITS) | cells._dv[index]
            if cells._md[index] != want:
                raise TrieCorruptionError(
                    f"cell {index}: packed coordinate {cells._md[index]} "
                    f"drifted from dv/dn columns ({want})"
                )
        freed = {i for i in range(n) if cells._dn[i] == _FREED}
        if freed != set(cells._free):
            raise TrieCorruptionError(
                f"freed rows {sorted(freed)} != free list {sorted(cells._free)}"
            )
        if len(set(cells._free)) != len(cells._free):
            raise TrieCorruptionError("free list holds a duplicate slot")
        for index in range(n):
            if cells._dn[index] == _FREED:
                continue
            for ptr in (cells._lp[index], cells._rp[index]):
                if is_edge(ptr):
                    target = -ptr - 1
                    if target >= n or cells._dn[target] == _FREED:
                        raise TrieCorruptionError(
                            f"cell {index} points at dead cell {target}"
                        )
                elif not (is_leaf(ptr) or ptr == NIL):
                    raise TrieCorruptionError(
                        f"cell {index} holds malformed pointer {ptr}"
                    )
