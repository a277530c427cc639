"""Trie pages for multilevel trie hashing (Section 2.5).

When the trie outgrows main memory it is split into *pages*, each holding
one subtrie of at most ``b'`` cells. Pages form levels of equal depth; all
bucket-pointing leaves live in *file-level* pages (level 0) and upper
levels hold the separator nodes moved up by page splits.

A page is represented by its boundary span plus one child per gap —
exactly one cell per boundary, so the paper's page-capacity arithmetic
(``b'`` cells of six bytes) holds. The binary subtrie a page ships to
disk is materialised on demand from the span (see
:meth:`TriePage.subtrie`), with leaves encoding gap indices; search runs
the real Algorithm A1 inside each page, carrying the ``(j, C)`` state
across page hops.
"""

from __future__ import annotations

from typing import Optional

from .alphabet import Alphabet
from .boundaries import BoundaryModel, gap_index
from .errors import TrieCorruptionError
from .trie import Trie

__all__ = ["TriePage"]


class TriePage:
    """One page of a multilevel trie.

    Parameters
    ----------
    level:
        0 for file-level pages (children are bucket addresses or ``None``
        for nil leaves); higher levels hold page ids as children.
    boundaries / children:
        The page's boundary span and its ``len(boundaries) + 1`` children.
    """

    __slots__ = (
        "level",
        "boundaries",
        "children",
        "next_page",
        "prev_page",
        "_subtrie",
    )

    def __init__(
        self,
        level: int,
        boundaries: list[str],
        children: list[Optional[int]],
        next_page: Optional[int] = None,
        prev_page: Optional[int] = None,
    ):
        self.level = level
        self.boundaries = boundaries
        self.children = children
        self.next_page = next_page
        self.prev_page = prev_page
        self._subtrie: Optional[Trie] = None

    # ------------------------------------------------------------------
    @property
    def cell_count(self) -> int:
        """Internal nodes in the page — the unit of page capacity."""
        return len(self.boundaries)

    def subtrie(self, alphabet: Alphabet, pick: str = "balanced") -> Trie:
        """The page's binary subtrie (leaves are local gap indices)."""
        if self._subtrie is None:
            model = BoundaryModel(
                alphabet, self.boundaries, list(range(len(self.boundaries) + 1))
            )
            self._subtrie = Trie.from_model(model, pick=pick)
        return self._subtrie

    def invalidate(self) -> None:
        """Drop the cached subtrie after a structural change."""
        self._subtrie = None

    def gap_of(self, key: str, alphabet: Alphabet) -> int:
        """Gap index of ``key`` within this page (model-level lookup)."""
        return gap_index(self.boundaries, key, alphabet)

    def splice(
        self,
        gap: int,
        new_boundaries: list[str],
        new_children: list[Optional[int]],
    ) -> None:
        """Replace gap ``gap`` by a run of boundaries and children.

        ``new_children`` must have exactly ``len(new_boundaries) + 1``
        entries; the old child of the gap is discarded.
        """
        if len(new_children) != len(new_boundaries) + 1:
            raise TrieCorruptionError(
                f"splice needs len(children) == len(boundaries) + 1, got "
                f"{len(new_children)} and {len(new_boundaries)}"
            )
        self.boundaries[gap:gap] = new_boundaries
        self.children[gap : gap + 1] = new_children
        self.invalidate()

    def to_spec(self) -> dict:
        """A JSON-encodable description (for snapshots and checkpoints)."""
        return {
            "level": self.level,
            "boundaries": list(self.boundaries),
            "children": list(self.children),
            "next": self.next_page,
            "prev": self.prev_page,
        }

    @classmethod
    def from_spec(cls, spec: dict) -> TriePage:
        """Inverse of :meth:`to_spec`."""
        return cls(
            level=spec["level"],
            boundaries=list(spec["boundaries"]),
            children=list(spec["children"]),
            next_page=spec["next"],
            prev_page=spec["prev"],
        )

    def split_candidates(self) -> list[int]:
        """Boundary indices eligible as the split node (condition (ii)).

        A node may move up only when its logical parent — the boundary
        one digit shorter — is not inside this page's own span.
        """
        span = set(self.boundaries)
        return [
            i
            for i, s in enumerate(self.boundaries)
            if len(s) == 1 or s[:-1] not in span
        ]

    def choose_split_index(self, pick: str = "balanced") -> int:
        """Pick the split node (condition (i): closest to the middle).

        ``pick='last'``/``'first'`` shift the node toward the span's end,
        the Section 3.2 refinement for expected ordered insertions.
        """
        candidates = self.split_candidates()
        if pick == "first":
            return candidates[0]
        if pick == "last":
            return candidates[-1]
        middle = (len(self.boundaries) - 1) / 2
        return min(candidates, key=lambda i: (abs(i - middle), i))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TriePage(level={self.level}, cells={self.cell_count}, "
            f"span={self.boundaries[:2]}..{self.boundaries[-2:]})"
        )
