"""Trie images: the client-side addressing state of the TH* layer.

TH* (the Scalable Distributed Data Structure built on trie hashing)
lets every client keep a *possibly outdated* copy of the key-space
partition — the **trie image** — and route operations with it. Servers
never trust a client's routing: a misaddressed operation is forwarded to
the correct shard, and the reply carries an **Image Adjustment Message**
(IAM) with the authoritative cut points around the addressed key, which
the client grafts into its image. Images therefore converge toward the
true partition without any global refresh protocol.

A :class:`TrieImage` is the shape-free form of that partition: a list of
*boundaries* sorted in boundary order (see
:mod:`repro.core.boundaries`), plus one shard id per gap — exactly a
:class:`~repro.core.boundaries.BoundaryModel` whose children are shard
ids instead of bucket addresses. Beside the boundaries it keeps their
*cuts*: each boundary followed by a sentinel character just above the
alphabet's largest digit. Native string order on cuts is boundary
order, and a key falls at or below a boundary exactly when it sorts
below the boundary's cut (a key never holds the sentinel), so the gap
of a key is one C-level ``bisect`` over the cuts. The coordinator holds
the authoritative instance; clients hold stale copies. Because shard
splits only ever *add* boundaries (there is no shard merge), a client
image's boundary set is always a subset of the authoritative one, and
patching is pure refinement: insert the missing cuts, repoint the
covered gaps.

IAM entries are triples ``(low, high, shard)``: the authoritative fact
that every key strictly above boundary ``low`` and at or below boundary
``high`` (``None`` meaning the open ends of the key space) lives on
``shard``.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Sequence
from typing import Optional

from ..check.hook import maybe_audit
from .alphabet import Alphabet
from .errors import InvalidKeyError, TrieCorruptionError

__all__ = ["IAMEntry", "TrieImage"]

#: One Image Adjustment Message entry: keys in ``(low, high]`` -> shard.
IAMEntry = tuple[Optional[str], Optional[str], int]


class TrieImage:
    """A (possibly stale) map from keys to shard ids.

    Parameters
    ----------
    alphabet:
        The key alphabet (boundary order depends on it).
    boundaries:
        Cut points, sorted in boundary order.
    shards:
        One shard id per gap: ``len(boundaries) + 1`` entries;
        ``shards[j]`` owns the keys between ``boundaries[j-1]``
        (exclusive) and ``boundaries[j]`` (inclusive).

    An alphabet whose largest digit is ``U+10FFFF`` leaves no character
    for the sentinel and raises :class:`InvalidKeyError`.
    """

    __slots__ = ("alphabet", "boundaries", "shards", "_cuts", "_sentinel")

    def __init__(
        self,
        alphabet: Alphabet,
        boundaries: Iterable[str] = (),
        shards: Iterable[int] = (0,),
    ):
        self.alphabet = alphabet
        self.boundaries: list[str] = list(boundaries)
        self.shards: list[int] = list(shards)
        if len(self.shards) != len(self.boundaries) + 1:
            raise TrieCorruptionError(
                f"{len(self.boundaries)} boundaries need "
                f"{len(self.boundaries) + 1} shards, got {len(self.shards)}"
            )
        top = ord(alphabet.max_digit)
        if top >= sys.maxunicode:
            raise InvalidKeyError(
                "an image needs a character above the alphabet's largest "
                f"digit, and U+{top:04X} has none"
            )
        self._sentinel = chr(top + 1)
        self._cuts = [self._cut(s) for s in self.boundaries]
        self.check()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of regions (gaps) the image distinguishes."""
        return len(self.shards)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TrieImage({self.boundaries!r}, {self.shards!r})"

    def copy(self) -> TrieImage:
        """An independent snapshot (clients fork the coordinator's)."""
        return TrieImage(self.alphabet, self.boundaries, self.shards)

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------
    def _cut(self, boundary: str) -> str:
        """``boundary`` followed by the sentinel; refuses foreign digits."""
        for digit in boundary:
            self.alphabet.index(digit)
        return boundary + self._sentinel

    def locate(self, key: str) -> tuple[int, int]:
        """The ``(gap, shard)`` this image maps ``key`` to."""
        gap = bisect_left(self._cuts, key)
        return gap, self.shards[gap]

    def shard_for_key(self, key: str) -> int:
        """The shard id this image routes ``key`` to."""
        return self.shards[bisect_left(self._cuts, key)]

    def region(self, gap: int) -> tuple[Optional[str], Optional[str]]:
        """Gap ``gap``'s bounding boundaries ``(low, high)``.

        ``None`` stands for the open ends of the key space.
        """
        low = self.boundaries[gap - 1] if gap > 0 else None
        high = self.boundaries[gap] if gap < len(self.boundaries) else None
        return low, high

    def gap_above(self, boundary: str) -> int:
        """Index of the first gap strictly above ``boundary``."""
        return bisect_right(self._cuts, self._cut(boundary))

    # ------------------------------------------------------------------
    # Refinement
    # ------------------------------------------------------------------
    def split_region(self, gap: int, boundary: str, new_shard: int) -> None:
        """Cut gap ``gap`` at ``boundary``; the upper part goes to
        ``new_shard`` (the coordinator's scale-out primitive)."""
        position = self._insert_boundary(boundary)
        if position != gap:
            raise TrieCorruptionError(
                f"boundary {boundary!r} does not cut gap {gap}"
            )
        self.shards[gap + 1] = new_shard

    def reassign(self, gap: int, shard: int) -> None:
        """Repoint gap ``gap`` at ``shard``, keeping the cut points.

        The ownership-transfer primitive of failover (a promoted backup
        takes over its dead primary's region) and migration cutover (a
        region moves wholesale to a freshly built server). Stale images
        converge through the ordinary IAM ``patch`` path — the entries
        a server emits for the gap simply carry the new shard id.
        """
        self.shards[gap] = shard

    def _insert_boundary(self, boundary: str) -> int:
        """Insert ``boundary`` (both sub-gaps keep the old shard).

        Returns the insertion index, or ``-(index + 1)`` when the
        boundary was already present at ``index``.
        """
        cut = self._cut(boundary)
        cuts = self._cuts
        position = bisect_left(cuts, cut)
        if position < len(cuts) and cuts[position] == cut:
            return -(position + 1)
        self.boundaries.insert(position, boundary)
        cuts.insert(position, cut)
        self.shards.insert(position, self.shards[position])
        return position

    def patch(self, entries: Sequence[IAMEntry]) -> int:
        """Graft IAM ``entries`` into the image; returns boundaries learned.

        Each entry ``(low, high, shard)`` refines the image: the missing
        cut points are inserted (sub-gaps first inherit the stale shard
        guess) and every gap covered by ``(low, high]`` is repointed at
        ``shard``. Entries from any server are safe to apply in any
        order — they are facts about the authoritative partition, which
        only ever grows.
        """
        learned = 0
        for low, high, shard in entries:
            if low is not None:
                if self._insert_boundary(low) >= 0:
                    learned += 1
                first = self.gap_above(low)
            else:
                first = 0
            if high is not None:
                position = self._insert_boundary(high)
                if position >= 0:
                    learned += 1
                    last = position
                else:
                    last = -position - 1
            else:
                last = len(self.shards) - 1
            for gap in range(first, last + 1):
                self.shards[gap] = shard
        maybe_audit(self, "TrieImage.patch(%d entries)", len(entries))
        return learned

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def check(self) -> None:
        """Verify the image invariants (sorted cuts, aligned shards)."""
        if len(self.shards) != len(self.boundaries) + 1:
            raise TrieCorruptionError("boundary/shard arity mismatch")
        for a, b in zip(self._cuts, self._cuts[1:]):
            if not a < b:
                raise TrieCorruptionError("image boundaries not increasing")
