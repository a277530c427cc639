"""A miniature grid file directory, for the Section 6 comparison.

The grid file (/NIE84/) partitions k-space by split lines per dimension;
its directory is the **cross product** of the dimension scales, with one
entry per grid cell. Under skewed data a split line needed by one hot
cell slices through the entire orthogonal slab, so the directory grows
multiplicatively — the "exponential growth" the paper expects tries to
avoid.

This model keeps the essence and nothing else: points in k attribute
space, per-dimension sorted split lines, bucket-capacity overflow
handling by adding the median split line of the overflowing cell in a
round-robin dimension. ``directory_size`` is the entry count a real grid
directory would allocate.
"""

from __future__ import annotations

import bisect
from collections import Counter
from collections.abc import Sequence

__all__ = ["GridDirectoryModel"]


class GridDirectoryModel:
    """Grid-file directory growth under a point stream."""

    def __init__(self, dimensions: int, bucket_capacity: int = 20):
        if dimensions < 1:
            raise ValueError("need at least one dimension")
        self.dimensions = dimensions
        self.capacity = bucket_capacity
        #: Sorted split lines per dimension.
        self.lines: list[list[str]] = [[] for _ in range(dimensions)]
        self._points: list[tuple[str, ...]] = []
        #: Points per occupied cell: bumped on insert, recounted after a
        #: split (a new line renumbers every cell of its slab).
        self._counts: Counter = Counter()
        self._next_dim = 0
        self.splits = 0

    # ------------------------------------------------------------------
    def _cell_of(self, point: Sequence[str]) -> tuple[int, ...]:
        return tuple(
            bisect.bisect_right(self.lines[d], point[d])
            for d in range(self.dimensions)
        )

    def insert(self, point: Sequence[str]) -> None:
        """Add a point; split the grid while any cell overflows."""
        point = tuple(point)
        if len(point) != self.dimensions:
            raise ValueError("point dimensionality mismatch")
        self._points.append(point)
        cell = self._cell_of(point)
        self._counts[cell] += 1
        guard = 0
        while self._counts[cell] > self.capacity:
            self._split_cell(cell)
            self.splits += 1
            cell = self._cell_of(point)
            self._counts = Counter(self._cell_of(p) for p in self._points)
            guard += 1
            if guard > 64:  # duplicate-heavy corner: give up splitting
                break

    def _split_cell(self, cell: tuple[int, ...]) -> None:
        members = [p for p in self._points if self._cell_of(p) == cell]
        # Round-robin dimension choice, skipping dimensions whose cell
        # interval cannot be split (all members share the coordinate).
        for attempt in range(self.dimensions):
            dim = (self._next_dim + attempt) % self.dimensions
            coords = sorted(p[dim] for p in members)
            median = coords[len(coords) // 2]
            if median > coords[0] and median not in self.lines[dim]:
                bisect.insort(self.lines[dim], median)
                self._next_dim = (dim + 1) % self.dimensions
                return
        # Fully degenerate cell: add a line anyway to make progress.
        dim = self._next_dim
        self._next_dim = (dim + 1) % self.dimensions
        coords = sorted(p[dim] for p in members)
        candidate = coords[len(coords) // 2] + "a"
        if candidate not in self.lines[dim]:
            bisect.insort(self.lines[dim], candidate)

    # ------------------------------------------------------------------
    def directory_size(self) -> int:
        """Entries of the grid directory: the scales' cross product."""
        size = 1
        for lines in self.lines:
            size *= len(lines) + 1
        return size

    def scale_sizes(self) -> list[int]:
        """Number of intervals per dimension."""
        return [len(lines) + 1 for lines in self.lines]

    def occupied_cells(self) -> int:
        """Cells actually holding data (directory entries minus empties)."""
        return len(self._counts)

    def __len__(self) -> int:
        return len(self._points)
