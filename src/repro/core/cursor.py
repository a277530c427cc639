"""A bidirectional cursor over a trie-hashing file.

Range iteration (:mod:`repro.core.range_query`) is forward-only and
stateless; database clients usually want a *cursor*: position at a key
(or the first key at/after it), then step forward or backward record by
record, re-reading buckets only at bucket borders. The order-preserving
partition of trie hashing makes this natural — successive buckets hold
successive key ranges.

The cursor holds the A1 search trail of the bucket it has loaded: a seek
is one trie descent, and a step across a bucket border moves the trail to
the next distinct bucket (:meth:`THFile._buckets
<repro.core.file.THFile._buckets>`), so nothing is listed up front.
Structural file modifications (splits, merges) invalidate the trail,
which the cursor detects through the file's structure generation.
"""

from __future__ import annotations

import bisect
from typing import Optional

from .errors import TrieHashingError
from .file import THFile

__all__ = ["Cursor", "CursorInvalidError"]


class CursorInvalidError(TrieHashingError, RuntimeError):
    """The file changed structurally under an open cursor."""


class Cursor:
    """Positioned access to a :class:`THFile` in key order.

    Typical use::

        cur = Cursor(f)
        cur.seek("lit")        # first key >= 'lit'
        while cur.valid and cur.key().startswith("lit"):
            handle(cur.key(), cur.value())
            cur.next()
    """

    def __init__(self, file: THFile):
        self._file = file
        self._generation = file.structure_generation
        # The trail of a leaf of the loaded bucket (None before the
        # first positioning), the bucket's address and its records.
        self._trail: Optional[list[tuple[int, str]]] = None
        self._address: Optional[int] = None
        self._record_index = -1
        self._keys: list[str] = []
        self._values: list[object] = []

    # ------------------------------------------------------------------
    def _check_generation(self) -> None:
        if self._file.structure_generation != self._generation:
            raise CursorInvalidError(
                "the file split or merged buckets since this cursor opened"
            )

    def _start(self, key: str, pad: str = "min") -> None:
        """Stand before the bucket of ``key``'s leaf (one A1 descent).

        A min-padded key needs only the descent trail, which
        :meth:`~repro.core.trie.Trie.trail` keeps alone; a max-padded
        one takes the full search.
        """
        trie = self._file.trie
        if pad == "min":
            self._trail = trie.trail(key)
        else:
            self._trail = list(trie.search(key, pad=pad).trail)
        self._address = None
        self._keys, self._values = [], []

    def _walk(self, forward: bool, key: Optional[str] = None) -> bool:
        """Load the next bucket holding a record in the walk direction.

        Skips the loaded bucket, and (forward) every bucket holding only
        keys below ``key``. Stands on the first (last) such record, or
        past the end (before the start) when there is none.
        """
        for address in self._file._buckets(self._trail, forward):
            if address == self._address:
                continue
            keys, values = self._file._records(address)
            self._address = address
            self._keys, self._values = list(keys), list(values)
            if forward:
                at = 0 if key is None else bisect.bisect_left(self._keys, key)
            else:
                at = len(self._keys) - 1
            if 0 <= at < len(self._keys):
                self._record_index = at
                return True
        self._record_index = len(self._keys) if forward else -1
        return False

    @property
    def valid(self) -> bool:
        """True when the cursor points at a record."""
        return 0 <= self._record_index < len(self._keys)

    def key(self) -> str:
        """The current record's key."""
        if not self.valid:
            raise CursorInvalidError("cursor is not positioned on a record")
        return self._keys[self._record_index]

    def value(self) -> object:
        """The current record's value."""
        if not self.valid:
            raise CursorInvalidError("cursor is not positioned on a record")
        return self._values[self._record_index]

    def item(self) -> tuple[str, object]:
        """The current ``(key, value)`` pair."""
        return self.key(), self.value()

    # ------------------------------------------------------------------
    # Positioning
    # ------------------------------------------------------------------
    def first(self) -> bool:
        """Move to the smallest record; False when the file is empty."""
        self._check_generation()
        # The empty key pads to all min digits: A1 maps it to the first leaf.
        self._start("")
        return self._walk(True)

    def last(self) -> bool:
        """Move to the largest record; False when the file is empty."""
        self._check_generation()
        # Max-padded, the empty key sorts after every key: A1 maps it to
        # the last leaf whose range can hold a record.
        self._start("", pad="max")
        return self._walk(False)

    def seek(self, key: str) -> bool:
        """Position at the first record with key >= ``key``.

        Returns True when such a record exists; otherwise the cursor
        stands past the end, so :meth:`prev` reaches the largest key.
        Costs one trie descent plus a walk past buckets holding only
        smaller keys.
        """
        self._check_generation()
        key = self._file.alphabet.validate_key(key)
        self._start(key)
        return self._walk(True, key)

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def next(self) -> bool:
        """Advance one record; False (and invalid) past the end."""
        self._check_generation()
        if self._trail is None:
            return self.first()
        if self._record_index + 1 < len(self._keys):
            self._record_index += 1
            return True
        return self._walk(True)

    def prev(self) -> bool:
        """Step back one record; False (and invalid) before the start."""
        self._check_generation()
        if self._record_index > 0:
            self._record_index -= 1
            return True
        if self._trail is None:
            return False
        return self._walk(False)
