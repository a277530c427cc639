"""Deferred splitting through overflow chaining (Section 6 future work).

The paper closes by noting that "the ideas of 'overflow' ... that worked
fine for a B-tree, should reveal equally useful" for trie hashing. This
variant implements the classic scheme: an overflowing bucket first
spills into a private *overflow bucket*; only when primary + overflow
are both full does the bucket really split (over the union of records).

The trade is the textbook one, and the ablation bench measures it:
deferred splitting raises the bucket load factor well above the ~70%
baseline, while an (increasingly likely) second disk access appears on
searches that fall through to the overflow bucket.

Overflow buckets live in the same metered store but are invisible to the
trie — only primaries have leaves. The load factor
``a = x / (b (N+1))`` counts them, keeping the space accounting honest.
Ordered and batched reads (``items``, range scans, cursors, ``get_many``)
are the base file's; they see the chains through the ``_records``
override, which merges a primary with its overflow bucket.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Optional

from ..obs.tracer import TRACER
from ..storage.buckets import BucketStore
from .alphabet import DEFAULT_ALPHABET, Alphabet
from .cells import is_nil
from .errors import CapacityError, DuplicateKeyError, KeyNotFoundError
from .file import THFile
from .policies import SplitPolicy
from .split import plan_split
from .thcl_split import insert_boundary
from .split import expand_basic

__all__ = ["OverflowTHFile"]


class OverflowTHFile(THFile):
    """A :class:`THFile` that defers splits through overflow buckets.

    Restrictions: ``merge='none'`` and ``redistribution='none'`` (the
    overflow chain already plays the role redistribution would).
    """

    def __init__(
        self,
        bucket_capacity: int = 4,
        policy: Optional[SplitPolicy] = None,
        alphabet: Alphabet = DEFAULT_ALPHABET,
        store: Optional[BucketStore] = None,
    ):
        policy = policy if policy is not None else SplitPolicy(merge="none")
        if policy.merge != "none" or policy.redistribution != "none":
            raise CapacityError(
                "the overflow variant supports merge='none' and "
                "redistribution='none' only"
            )
        super().__init__(bucket_capacity, policy, alphabet, store)
        #: primary address -> overflow address.
        self._overflow: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def _get(self, key: str) -> object:
        """One access normally; two when the key sits in the overflow.

        (The public :meth:`~repro.core.file.THFile.get` wraps this in a
        ``search`` span when tracing is enabled.)
        """
        key = self.alphabet.validate_key(key)
        result = self.trie.search(key)
        self.stats.searches += 1
        if result.bucket is None:
            raise KeyNotFoundError(key)
        bucket = self.store.read(result.bucket)
        at = bucket.find(key)
        if at >= 0:
            return bucket.values[at]
        chain = self._overflow.get(result.bucket)
        if chain is not None:
            return self.store.read(chain).get(key)
        raise KeyNotFoundError(key)

    def _contains(self, key: str) -> bool:
        """True when ``key`` is stored (primary or overflow)."""
        try:
            self._get(key)
            return True
        except KeyNotFoundError:
            return False

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def _store_record(self, key: str, value: object, replace: bool) -> None:
        key = self.alphabet.validate_key(key)
        result = self.trie.search(key)
        if result.bucket is None:
            return super()._store_record(key, value, replace)
        primary = self.store.read(result.bucket)
        chain_addr = self._overflow.get(result.bucket)
        chain = self.store.read(chain_addr) if chain_addr is not None else None

        for holder, addr in ((primary, result.bucket), (chain, chain_addr)):
            if holder is None:
                continue
            at = holder.find(key)
            if at >= 0:
                if not replace:
                    raise DuplicateKeyError(key)
                holder.values[at] = value
                self.store.write(addr, holder)
                return

        if len(primary) < self.capacity:
            primary.insert(key, value)
            self.store.write(result.bucket, primary)
        elif chain is not None and len(chain) < self.capacity:
            chain.insert(key, value)
            self.store.write(chain_addr, chain)
            if TRACER.enabled:
                TRACER.emit(
                    "overflow", bucket=result.bucket, chain=chain_addr
                )
        elif chain is None:
            chain_addr = self.store.allocate()
            chain = self.store.peek(chain_addr)
            chain.insert(key, value)
            self.store.write(chain_addr, chain)
            self._overflow[result.bucket] = chain_addr
            if TRACER.enabled:
                TRACER.emit(
                    "overflow", bucket=result.bucket, chain=chain_addr
                )
        else:
            self._deferred_split(result, primary, chain, key, value)
        self.stats.inserts += 1
        self._size += 1

    def _deferred_split(self, result, primary, chain, key, value) -> None:
        """Split over primary + overflow + the new record (2b+1 records)."""
        records: list[tuple[str, object]] = sorted(
            list(primary.items()) + list(chain.items()) + [(key, value)]
        )
        total = len(records)
        # Scale the policy's position from the b + 1 records a plain
        # split divides to this longer sequence; the bounding rule
        # carries over unchanged.
        m = self.policy.split_index(self.capacity) * total / (self.capacity + 1)
        m = max(1, min(total - 1, round(m)))
        bounding = (
            total
            if self.policy.bounding_offset is None
            else min(total, m + self.policy.bounding_offset)
        )
        plan = plan_split(records, m, bounding, self.alphabet)
        new_address = self.store.allocate()
        if self.policy.nil_nodes:
            added = expand_basic(
                self.trie,
                result.location,
                result.path,
                plan.boundary,
                result.bucket,
                new_address,
            )
        else:
            added, _ = insert_boundary(
                self.trie,
                plan.split_key,
                plan.boundary,
                result.bucket,
                new_address,
                result.bucket,
            )
        chain_addr = self._overflow.pop(result.bucket)
        self._fill(result.bucket, primary, plan.stay, chain_addr, chain)
        new_bucket = self.store.peek(new_address)
        new_bucket.header_path = result.path
        self._fill(new_address, new_bucket, plan.move, None, None)
        primary.header_path = plan.boundary
        self.stats.splits += 1
        self.stats.nodes_added += added
        if TRACER.enabled:
            TRACER.emit(
                "split",
                kind="deferred",
                bucket=result.bucket,
                new_bucket=new_address,
                moved=len(plan.move),
                stayed=len(plan.stay),
                nodes_added=added,
            )

    def _fill(self, address, bucket, records, chain_addr, chain) -> None:
        """Place records into a primary (+ overflow when they spill)."""
        head = records[: self.capacity]
        tail = records[self.capacity :]
        bucket.keys[:] = [k for k, _ in head]
        bucket.values[:] = [v for _, v in head]
        self.store.write(address, bucket)
        if tail:
            if chain_addr is None:
                chain_addr = self.store.allocate()
                chain = self.store.peek(chain_addr)
            chain.keys[:] = [k for k, _ in tail]
            chain.values[:] = [v for _, v in tail]
            self.store.write(chain_addr, chain)
            self._overflow[address] = chain_addr
        elif chain_addr is not None:
            self.store.free(chain_addr)

    # ------------------------------------------------------------------
    # Deletion (records only; chain kept tidy)
    # ------------------------------------------------------------------
    def _delete(self, key: str) -> object:
        key = self.alphabet.validate_key(key)
        result = self.trie.search(key)
        if result.bucket is None:
            raise KeyNotFoundError(key)
        primary = self.store.read(result.bucket)
        chain_addr = self._overflow.get(result.bucket)
        if primary.find(key) >= 0:
            value = primary.remove(key)
            # Pull one record down from the overflow, keeping it the
            # spill area for the *highest* keys of the range.
            if chain_addr is not None:
                chain = self.store.read(chain_addr)
                k2, v2 = chain.keys[0], chain.values[0]
                chain.pop_range(0, 1)
                primary.insert(k2, v2)
                if len(chain) == 0:
                    self.store.free(chain_addr)
                    del self._overflow[result.bucket]
                else:
                    self.store.write(chain_addr, chain)
            self.store.write(result.bucket, primary)
        else:
            if chain_addr is None:
                raise KeyNotFoundError(key)
            chain = self.store.read(chain_addr)
            value = chain.remove(key)
            if len(chain) == 0:
                self.store.free(chain_addr)
                del self._overflow[result.bucket]
            else:
                self.store.write(chain_addr, chain)
        self.stats.deletes += 1
        self._size -= 1
        return value

    # ------------------------------------------------------------------
    # Iteration and metrics
    # ------------------------------------------------------------------
    def _records(self, address: int) -> tuple[list[str], list[object]]:
        """A primary's records merged with its overflow chain's, in order.

        Every read the base class routes through here — ``items``, range
        scans, cursors and ``get_many`` — thereby sees the chain.
        """
        keys, values = super()._records(address)
        chain_addr = self._overflow.get(address)
        if chain_addr is None:
            return keys, values
        chain = self.store.read(chain_addr)
        merged = sorted(
            zip(keys + chain.keys, values + chain.values), key=itemgetter(0)
        )
        return [k for k, _ in merged], [v for _, v in merged]

    def chain_fraction(self) -> float:
        """Fraction of primaries that currently carry an overflow bucket."""
        primaries = {
            ptr
            for _, ptr, _ in self.trie.leaves_in_order()
            if not is_nil(ptr)
        }
        return len(self._overflow) / len(primaries) if primaries else 0.0

    def check(self) -> None:
        """Structural validation adapted to overflow chains."""
        self.trie.check(expect_no_nil=not self.policy.nil_nodes)
        model = self.trie.to_model()
        reachable = {c for c in model.children if c is not None}
        live = set(self.store.live_addresses())
        overflow = set(self._overflow.values())
        if reachable | overflow != live or reachable & overflow:
            raise AssertionError("primary/overflow bucket sets inconsistent")
        total = 0
        for primary_addr in reachable:
            primary = self.store.peek(primary_addr)
            holders = [(primary_addr, primary)]
            if primary_addr in self._overflow:
                chain_addr = self._overflow[primary_addr]
                holders.append((chain_addr, self.store.peek(chain_addr)))
            for _, holder in holders:
                if len(holder) > self.capacity:
                    raise AssertionError("bucket over capacity")
                total += len(holder)
                for key in holder.keys:
                    if model.lookup(key) != primary_addr:
                        raise AssertionError(f"{key!r} mapped off its chain")
        if total != self._size:
            raise AssertionError("record count mismatch")
