"""Buckets and the bucket store.

A bucket is the unit of transfer between the file and main memory: up to
``b`` records identified by primary key, kept sorted so that range scans
and split planning are sequential. Each bucket also carries a small
*header* with the logical path that last addressed it — the hook /TOR83/
uses to reconstruct a destroyed trie (see
:mod:`repro.core.reconstruct`).

:class:`BucketStore` allocates bucket addresses ``0, 1, 2, ...`` (the
paper's ``N`` counter), recycles freed addresses, and funnels every access
through a buffer pool so the benchmark harness sees exact disk-access
counts. A durable session gives the store a :attr:`~BucketStore.dirty`
set: every allocated or written address lands in it, and the
incremental checkpointer drains it.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterable, Iterator
from typing import Optional

from ..core.errors import DuplicateKeyError, KeyNotFoundError, StorageError
from .buffer import BufferPool
from .disk import DiskStats, SimulatedDisk

__all__ = ["Bucket", "BucketStore"]


class Bucket:
    """A sorted run of ``(key, value)`` records plus a small header.

    The bucket does not enforce the capacity ``b`` itself — overflow
    handling is the access method's job (a split happens *instead of*
    storing ``b + 1`` records) — but it exposes ``len(bucket)`` so the
    caller can decide.
    """

    __slots__ = ("keys", "values", "header_path")

    def __init__(self) -> None:
        self.keys: list[str] = []
        self.values: list[object] = []
        #: Logical path recorded at the last split that touched the bucket
        #: (the /TOR83/ reconstruction header).
        self.header_path: str = ""

    def __len__(self) -> int:
        return len(self.keys)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Bucket({self.keys!r})"

    def find(self, key: str) -> int:
        """Index of ``key`` or -1 when absent."""
        i = bisect.bisect_left(self.keys, key)
        if i < len(self.keys) and self.keys[i] == key:
            return i
        return -1

    def contains(self, key: str) -> bool:
        """True when the bucket stores ``key``."""
        return self.find(key) >= 0

    def get(self, key: str) -> object:
        """Value stored under ``key``; raises :class:`KeyNotFoundError`."""
        i = self.find(key)
        if i < 0:
            raise KeyNotFoundError(key)
        return self.values[i]

    def insert(self, key: str, value: object) -> None:
        """Insert a record, keeping order; duplicates are rejected."""
        i = bisect.bisect_left(self.keys, key)
        if i < len(self.keys) and self.keys[i] == key:
            raise DuplicateKeyError(key)
        self.keys.insert(i, key)
        self.values.insert(i, value)

    def replace(self, key: str, value: object) -> None:
        """Overwrite the value of an existing record."""
        i = self.find(key)
        if i < 0:
            raise KeyNotFoundError(key)
        self.values[i] = value

    def remove(self, key: str) -> object:
        """Delete a record and return its value."""
        i = self.find(key)
        if i < 0:
            raise KeyNotFoundError(key)
        del self.keys[i]
        return self.values.pop(i)

    def pop_range(self, lo: int, hi: int) -> list[tuple[str, object]]:
        """Remove and return records with indices ``[lo, hi)``."""
        taken = list(zip(self.keys[lo:hi], self.values[lo:hi]))
        del self.keys[lo:hi]
        del self.values[lo:hi]
        return taken

    def extend(self, records: list[tuple[str, object]]) -> None:
        """Bulk-insert records (caller guarantees disjoint key ranges)."""
        keys = self.keys
        if records and (not keys or keys[-1] < records[0][0]):
            new_keys = [k for k, _ in records]
            if all(a < b for a, b in zip(new_keys, new_keys[1:])):
                # Strictly ascending records that sit past the current
                # tail (the split path's "move" half always does): no
                # duplicate is possible, so append in two C-level bulks.
                keys.extend(new_keys)
                self.values.extend(v for _, v in records)
                return
        for key, value in records:
            self.insert(key, value)

    def items(self) -> Iterator[tuple[str, object]]:
        """Iterate the records in key order."""
        return iter(zip(self.keys, self.values))


class BucketStore:
    """Allocates and serves buckets through the metered storage stack.

    Parameters
    ----------
    disk:
        The backing device (a fresh unmetered one is created by default).
    buffer_capacity:
        LRU buffer size in buckets; 0 reproduces the paper's accounting
        where every bucket access is a disk access.
    """

    def __init__(
        self, disk: Optional[SimulatedDisk] = None, buffer_capacity: int = 0
    ):
        self.disk = disk if disk is not None else SimulatedDisk(name="buckets")
        self.pool = BufferPool(self.disk, buffer_capacity)
        self._blocks: list[Optional[int]] = []  # bucket address -> block id
        self._free: list[int] = []
        #: Addresses allocated or written since the last checkpoint, or
        #: ``None`` when no durable session tracks this store. Freed
        #: addresses stay in the set: a checkpoint keeps only the ones
        #: still in :meth:`live_addresses`.
        self.dirty: Optional[set[int]] = None

    @property
    def stats(self) -> DiskStats:
        """The device's :class:`~repro.storage.disk.DiskStats`."""
        return self.disk.stats

    def allocated_count(self) -> int:
        """Number of live buckets (the paper's ``N + 1``)."""
        return len(self._blocks) - len(self._free)

    def max_address(self) -> int:
        """Largest address ever allocated (the paper's ``N``)."""
        return len(self._blocks) - 1

    def allocate(self) -> int:
        """Create an empty bucket and return its address."""
        bucket = Bucket()
        if self._free:
            address = self._free.pop()
            self._blocks[address] = self.pool.allocate(bucket)
        else:
            self._blocks.append(self.pool.allocate(bucket))
            address = len(self._blocks) - 1
        if self.dirty is not None:
            self.dirty.add(address)
        return address

    def read(self, address: int) -> Bucket:
        """Fetch bucket ``address`` (metered through the buffer pool)."""
        return self.pool.read(self._block(address))

    def write(self, address: int, bucket: Bucket) -> None:
        """Write bucket ``address`` back (metered)."""
        self.pool.write(self._block(address), bucket)
        if self.dirty is not None:
            self.dirty.add(address)

    def free(self, address: int) -> None:
        """Release bucket ``address`` for reuse."""
        self.pool.free(self._block(address))
        self._blocks[address] = None
        self._free.append(address)

    def restore(
        self, max_address: int, live: Iterable[int], buckets: dict[int, Bucket]
    ) -> None:
        """Recreate a saved address space on a store holding only bucket 0.

        Allocates every address up to ``max_address``, frees the ones not
        in ``live`` (so recycled addresses come back in the saved order)
        and writes ``buckets``.
        """
        keep = set(live)
        while self.max_address() < max_address:
            self.allocate()
        for address in range(max_address + 1):
            if address not in keep:
                self.free(address)
        for address, bucket in buckets.items():
            self.write(address, bucket)

    def live_addresses(self) -> list[int]:
        """All currently allocated bucket addresses, ascending."""
        return [a for a, blk in enumerate(self._blocks) if blk is not None]

    def peek(self, address: int) -> Bucket:
        """Unmetered read, for metrics and tests."""
        return self.disk.peek(self._block(address))

    def _block(self, address: int) -> int:
        try:
            block = self._blocks[address]
        except IndexError:
            raise StorageError(f"bucket {address} was never allocated") from None
        if block is None:
            raise StorageError(f"bucket {address} was freed")
        return block
