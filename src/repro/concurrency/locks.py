"""A shared/exclusive lock manager with FIFO fairness and accounting.

Resources are identified by hashable ids (``('bucket', 7)``,
``('page', 3)``, ``'N'`` ...). Grants follow strict FIFO order: a
request waits if an incompatible lock is held *or* an earlier request is
already waiting (no starvation of writers). The manager records every
conflict and the time spent waiting, which is what the concurrency
benches report.
"""

from __future__ import annotations

import enum
from collections import deque
from collections.abc import Hashable

__all__ = ["LockMode", "LockManager"]


class LockMode(enum.Enum):
    """Shared (readers) or exclusive (writers)."""

    SHARED = "S"
    EXCLUSIVE = "X"


def _compatible(held: set[tuple[int, LockMode]], owner: int, mode: LockMode) -> bool:
    """Can ``owner`` acquire ``mode`` given the current holders?"""
    for held_owner, held_mode in held:
        if held_owner == owner:
            continue
        if mode is LockMode.EXCLUSIVE or held_mode is LockMode.EXCLUSIVE:
            return False
    return True


class LockManager:
    """Grant/queue/release S and X locks; count conflicts and waits."""

    def __init__(self) -> None:
        #: resource -> set of (owner, mode) currently holding it.
        self._held: dict[Hashable, set[tuple[int, LockMode]]] = {}
        #: resource -> FIFO of (owner, mode) waiting; only non-empty
        #: queues are kept, so a release promotes in O(waiting resources).
        self._queues: dict[Hashable, deque[tuple[int, LockMode]]] = {}
        #: owner -> the resources it holds, in grant order (an ordered
        #: set), so ``release_all`` visits only the owner's own locks.
        self._owned: dict[int, dict[Hashable, None]] = {}
        self.conflicts = 0
        self.grants = 0

    def _grant(self, owner: int, resource: Hashable, mode: LockMode) -> None:
        self._held.setdefault(resource, set()).add((owner, mode))
        self._owned.setdefault(owner, {})[resource] = None
        self.grants += 1

    def _enqueue(self, owner: int, resource: Hashable, mode: LockMode) -> None:
        self.conflicts += 1
        self._queues.setdefault(resource, deque()).append((owner, mode))

    # ------------------------------------------------------------------
    def try_acquire(self, owner: int, resource: Hashable, mode: LockMode) -> bool:
        """Acquire immediately or join the queue; True when granted.

        Re-acquiring a held resource upgrades S->X when possible (only
        holder) and is a no-op otherwise.
        """
        held = self._held.get(resource, ())
        queue = self._queues.get(resource, ())

        mine = [(o, m) for o, m in held if o == owner]
        if mine:
            if mode is LockMode.SHARED or (owner, LockMode.EXCLUSIVE) in held:
                return True
            # Upgrade request: possible only when alone.
            if len(held) == len(mine):
                held.discard((owner, LockMode.SHARED))
                self._grant(owner, resource, LockMode.EXCLUSIVE)
                return True
            self._enqueue(owner, resource, mode)
            return False

        already_queued = any(o == owner for o, _ in queue)
        if not already_queued and not queue and _compatible(held, owner, mode):
            self._grant(owner, resource, mode)
            return True
        if not already_queued:
            self._enqueue(owner, resource, mode)
        return False

    def release(self, owner: int, resource: Hashable) -> None:
        """Drop ``owner``'s lock on one resource (lock coupling)."""
        held = self._held.get(resource)
        if held:
            held.difference_update({(owner, m) for m in LockMode})
        self._owned.get(owner, {}).pop(resource, None)
        self._promote()

    def release_all(self, owner: int) -> list[Hashable]:
        """Drop every lock ``owner`` holds; return the resources released,
        in the order they were granted."""
        released = list(self._owned.pop(owner, ()))
        locks = {(owner, m) for m in LockMode}
        for resource in released:
            self._held[resource].difference_update(locks)
        self._promote()
        return released

    def holds(self, owner: int, resource: Hashable) -> bool:
        """True when ``owner`` holds ``resource`` in any mode."""
        return any(o == owner for o, _ in self._held.get(resource, ()))

    def waiting(self, owner: int) -> bool:
        """True when ``owner`` is queued anywhere."""
        return any(
            any(o == owner for o, _ in queue) for queue in self._queues.values()
        )

    def _promote(self) -> None:
        """Grant queued requests that became compatible, FIFO per resource."""
        for resource, queue in list(self._queues.items()):
            held = self._held.setdefault(resource, set())
            while queue:
                owner, mode = queue[0]
                if not _compatible(held, owner, mode):
                    break
                queue.popleft()
                self._grant(owner, resource, mode)
            if not queue:
                del self._queues[resource]

    def poll(self, owner: int) -> bool:
        """After some release, has ``owner``'s queued request been granted?

        (Grants happen inside :meth:`_promote`; this just checks.)
        """
        return not self.waiting(owner)
