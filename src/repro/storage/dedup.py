"""The server-side request-dedup window (exactly-once retries).

A retried mutating operation whose first reply was lost must not apply
twice. The TH* client stamps every mutating op with a per-client
monotonic request id ``(client_id, seq)``; the server that *applies* the
op records the id and its result here, and a later delivery of the same
id short-circuits to the recorded result instead of re-executing.

The window is bounded (FIFO eviction) because retries are prompt: a
request id only needs to survive the retry horizon of one logical
operation, not forever. For durable shards the window rides the
existing crash-safety machinery — request ids travel inside the WAL
operation records, and each checkpoint header carries the window: a
full checkpoint the whole of it, an incremental one the entries recorded
since the chain's previous checkpoint — so a server crash between
applying an op and the client's retry cannot forget that the op already
happened (see :mod:`repro.storage.recovery`).
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable
from itertools import islice
from typing import Optional

from ..check.hook import maybe_audit

__all__ = ["DedupWindow", "DEFAULT_WINDOW"]

#: One request id: (client id, per-client monotonic sequence number).
RequestId = tuple[int, int]

#: Default window size — generous against the retry horizon (a retried
#: op is re-delivered within a handful of messages, not thousands).
DEFAULT_WINDOW = 1024

_MISSING = object()


class DedupWindow:
    """A bounded map from request id to the applied op's result.

    The window also counts the :meth:`record` calls since a checkpoint
    last took it (:meth:`take_spec`). Each record moves its id to the
    end, so every entry recorded since then lies in the window's last
    ``min(count, len)`` entries, and an incremental checkpoint writes
    only that suffix. The count overshoots when an id is recorded twice
    or a :meth:`merge` re-records ids already present; the surplus
    entries are then the newest of the untouched ones, so folding the
    suffix onto the previous checkpoint's window still rebuilds this one.
    """

    __slots__ = ("limit", "_entries", "_fresh")

    def __init__(self, limit: int = DEFAULT_WINDOW):
        if limit < 1:
            raise ValueError("dedup window must hold at least one entry")
        self.limit = limit
        self._entries: OrderedDict[RequestId, object] = OrderedDict()
        self._fresh = 0  # record calls since the last take_spec

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, rid: RequestId) -> bool:
        return rid in self._entries

    def lookup(self, rid: RequestId) -> tuple[bool, object]:
        """``(hit, result)`` for ``rid`` (results may be ``None``)."""
        value = self._entries.get(rid, _MISSING)
        if value is _MISSING:
            return False, None
        return True, value

    def record(self, rid: Optional[RequestId], result: object) -> None:
        """Remember that ``rid`` applied with ``result`` (None rid: no-op)."""
        if rid is None:
            return
        self._entries[rid] = result
        self._entries.move_to_end(rid)
        self._fresh += 1
        while len(self._entries) > self.limit:
            self._entries.popitem(last=False)
        maybe_audit(self, "DedupWindow.record")

    def merge(self, other: DedupWindow) -> None:
        """Absorb every entry of ``other`` (a shard handover: split
        halves, seeded and resynced backups, a migration target).

        Extra entries are harmless — a dedup hit only ever short-circuits
        an op that *did* already apply — so a handover copies the whole
        window rather than filtering by moved region.
        """
        for rid, result in other._entries.items():
            self.record(rid, result)
        maybe_audit(self, "DedupWindow.merge")

    # -- checkpoint codec ----------------------------------------------
    def to_spec(self) -> list[list]:
        """JSON-ready form: ``[[client, seq, result], ...]`` oldest first."""
        return [[c, s, v] for (c, s), v in self._entries.items()]

    def take_spec(self, full: bool) -> list[list]:
        """What a checkpoint header carries, then zero the record count.

        The whole window when ``full``; otherwise its last
        ``min(count, len)`` entries, oldest first — a delta that
        :meth:`from_spec` folds onto the previous checkpoint's window.
        """
        if full:
            spec = self.to_spec()
        else:
            tail = list(islice(reversed(self._entries.items()), self._fresh))
            spec = [[c, s, v] for (c, s), v in reversed(tail)]
        self._fresh = 0
        return spec

    @classmethod
    def from_spec(
        cls, spec: Iterable[list], limit: int = DEFAULT_WINDOW
    ) -> DedupWindow:
        """Rebuild a window from :meth:`to_spec` output, or fold a chain:
        a full spec followed by each later :meth:`take_spec` delta.

        The rebuilt window counts no records: the spec is its checkpoint.
        """
        window = cls(limit)
        for client, seq, result in spec:
            window.record((int(client), int(seq)), result)
        window._fresh = 0
        return window
