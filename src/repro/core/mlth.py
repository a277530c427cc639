"""Multilevel trie hashing — MLTH (Section 2.5, /LIT88/).

For files whose trie no longer fits main memory, the trie itself becomes
a dynamic multilevel hierarchy of pages on disk. Key search descends one
page per level carrying the Algorithm A1 state, then reads the bucket:
with the root page pinned in core, two levels address gigabyte-scale
files at two disk accesses per search — the paper's headline claim.

Page splits follow the paper's two phases: the *split node* is the
boundary nearest the page's middle whose logical parent lies outside the
page (conditions (i) and (ii)); the *trie splitting* phase moves it to
the parent page and divides the span. The split-node choice can be
shifted (``split_node_pick='last'``/``'first'``) for expected ordered
insertions, the Section 3.2 refinement that raises page loads to 70-87%.

:class:`MLTHFile` supports basic-TH and THCL split policies (including
split control); deletions remove records but do not merge pages — the
regime the paper itself analyses for MLTH.
"""

from __future__ import annotations

import bisect
import itertools
from collections.abc import Iterable, Iterator
from typing import Optional

from ..check.hook import maybe_audit
from ..obs.tracer import TRACER
from ..storage.buckets import BucketStore
from ..storage.buffer import BufferPool
from ..storage.disk import SimulatedDisk
from .alphabet import DEFAULT_ALPHABET, Alphabet
from .errors import CapacityError, DuplicateKeyError, KeyNotFoundError, TrieCorruptionError
from .file import FileStats
from .keys import common_prefix_length
from .policies import SplitPolicy
from .split import plan_split
from .boundaries import BoundaryModel, boundary_sort_key
from .pages import TriePage

__all__ = ["MLTHFile"]

#: A descent step: (page id, page object, gap index taken).
_Step = tuple[int, TriePage, int]


class MLTHFile:
    """A trie-hashing file whose trie is paged to disk.

    Parameters
    ----------
    bucket_capacity:
        Records per data bucket (the paper's ``b``).
    page_capacity:
        Cells per trie page (the paper's ``b'``); a page splits when it
        would exceed this.
    policy:
        A :class:`SplitPolicy` with ``merge='none'`` and
        ``redistribution='none'`` (MLTH maintenance beyond record
        deletion is out of the paper's scope).
    pin_root:
        Keep the root page in core (the paper's standing assumption when
        counting two accesses per search).
    split_node_pick:
        ``'balanced'`` (default), or ``'last'``/``'first'`` for expected
        ascending/descending insertions (Section 3.2).
    """

    def __init__(
        self,
        bucket_capacity: int = 20,
        page_capacity: int = 64,
        policy: Optional[SplitPolicy] = None,
        alphabet: Alphabet = DEFAULT_ALPHABET,
        pin_root: bool = True,
        split_node_pick: str = "balanced",
        store: Optional[BucketStore] = None,
        page_buffer: int = 0,
    ):
        if bucket_capacity < 2:
            raise CapacityError("bucket capacity b must be at least 2")
        if page_capacity < 3:
            raise CapacityError("page capacity b' must be at least 3 cells")
        self.capacity = bucket_capacity
        self.page_capacity = page_capacity
        self.policy = policy if policy is not None else SplitPolicy(merge="none")
        if self.policy.merge not in ("none", "guaranteed"):
            raise CapacityError(
                "MLTHFile supports merge='none' or merge='guaranteed'"
            )
        if self.policy.redistribution != "none":
            raise CapacityError("MLTHFile supports redistribution='none' only")
        self.alphabet = alphabet
        self.split_node_pick = split_node_pick
        self.store = store if store is not None else BucketStore()
        self.page_disk = SimulatedDisk(name="pages")
        self.page_pool = BufferPool(self.page_disk, capacity=0)
        self.pin_root = pin_root
        root = TriePage(level=0, boundaries=[], children=[self.store.allocate()])
        self.root_id = self.page_pool.allocate(root)
        if pin_root:
            self.page_pool.pin(self.root_id)
        self.stats = FileStats()
        self._size = 0
        self.policy.split_index(bucket_capacity)
        self.policy.bounding_index(bucket_capacity)

    # ------------------------------------------------------------------
    # Descent (multi-page Algorithm A1)
    # ------------------------------------------------------------------
    def _descend(self, key: str, pad: str = "min") -> tuple[list[_Step], int, str]:
        """Walk root page -> file page, returning the step list, j and C."""
        page_id = self.root_id
        matched, path = 0, ""
        steps: list[_Step] = []
        while True:
            page = self.page_pool.read(page_id)
            result = page.subtrie(self.alphabet).search(
                key, pad=pad, start_matched=matched, start_path=path
            )
            gap = result.ptr
            matched, path = result.matched, result.path
            steps.append((page_id, page, gap))
            if page.level == 0:
                return steps, matched, path
            page_id = page.children[gap]

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, key: str) -> object:
        """Return the value under ``key`` (levels + 1 disk accesses)."""
        if TRACER.enabled:
            with TRACER.span("search", key=key):
                return self._get(key)
        return self._get(key)

    def _get(self, key: str) -> object:
        key = self.alphabet.validate_key(key)
        steps, _, _ = self._descend(key)
        _, page, gap = steps[-1]
        address = page.children[gap]
        self.stats.searches += 1
        if address is None:
            raise KeyNotFoundError(key)
        return self.store.read(address).get(key)

    def contains(self, key: str) -> bool:
        """True when ``key`` is stored."""
        if TRACER.enabled:
            with TRACER.span("search", key=key):
                return self._contains(key)
        return self._contains(key)

    def _contains(self, key: str) -> bool:
        try:
            self._get(key)
            return True
        except KeyNotFoundError:
            return False

    def __contains__(self, key: str) -> bool:
        return self.contains(key)

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def insert(self, key: str, value: object = None) -> None:
        """Insert a record; raises :class:`DuplicateKeyError` if present."""
        if TRACER.enabled:
            with TRACER.span("insert", key=key):
                self._insert(key, value)
        else:
            self._insert(key, value)
        maybe_audit(self, "MLTHFile.insert(%r)", key)

    def put(self, key: str, value: object = None) -> None:
        """Insert or overwrite the record under ``key``."""
        if TRACER.enabled:
            with TRACER.span("insert", key=key):
                self._insert(key, value, replace=True)
        else:
            self._insert(key, value, replace=True)
        maybe_audit(self, "MLTHFile.put(%r)", key)

    def _insert(
        self, key: str, value: object = None, replace: bool = False
    ) -> None:
        key = self.alphabet.validate_key(key)
        steps, _, path = self._descend(key)
        page_id, page, gap = steps[-1]
        address = page.children[gap]
        if address is None:  # nil leaf of the basic method
            address = self.store.allocate()
            page.children[gap] = address
            page.invalidate()
            self.page_pool.write(page_id, page)
            bucket = self.store.peek(address)
            bucket.header_path = path
            bucket.insert(key, value)
            self.store.write(address, bucket)
            self.stats.nil_allocations += 1
            if TRACER.enabled:
                TRACER.emit("split", kind="nil-alloc", bucket=address)
        else:
            bucket = self.store.read(address)
            position = bucket.find(key)
            if position >= 0:
                if not replace:
                    raise DuplicateKeyError(key)
                bucket.values[position] = value
                self.store.write(address, bucket)
                return
            if len(bucket) < self.capacity:
                bucket.insert(key, value)
                self.store.write(address, bucket)
            else:
                self._split_bucket(steps, path, address, bucket, key, value)
        self.stats.inserts += 1
        self._size += 1

    def _split_bucket(
        self,
        steps: list[_Step],
        path: str,
        address: int,
        bucket,
        key: str,
        value: object,
    ) -> None:
        """Split an overflowing bucket and expand the paged trie."""
        records = list(bucket.items())
        at = bisect.bisect_left(bucket.keys, key)
        records.insert(at, (key, value))
        plan = plan_split(
            records,
            self.policy.split_index(self.capacity),
            self.policy.bounding_index(self.capacity),
            self.alphabet,
        )
        boundary = plan.boundary
        new_address = self.store.allocate()
        if self.policy.nil_nodes:
            # Basic method: one leaf per bucket, so the insert's descent
            # already sits at the split key's leaf (A2 steps 3.1-3.3).
            page_id, page, gap = steps[-1]
            shared = common_prefix_length(boundary, path)
            new_digits = len(boundary) - shared
            if new_digits < 1:
                raise TrieCorruptionError(
                    "basic-method split string already fully on the path"
                )
            chain = [boundary[:l] for l in range(len(boundary), shared, -1)]
            children: list[Optional[int]] = (
                [address, new_address] + [None] * (new_digits - 1)
            )
            page.splice(gap, chain, children)
            self.page_pool.write(page_id, page)
            self.stats.nodes_added += new_digits
            self._split_page_if_needed(steps, len(steps) - 1)
        else:
            # THCL: the split key may map to a *different* leaf of the
            # same bucket; the insertion helper re-locates it (step 3.0,
            # the extra page accesses the paper notes a split may take).
            self._insert_boundary_paged(
                plan.split_key, boundary, address, new_address, address
            )

        new_bucket = self.store.peek(new_address)
        new_bucket.header_path = bucket.header_path or path
        new_bucket.extend(plan.move)
        bucket.keys[:] = [k for k, _ in plan.stay]
        bucket.values[:] = [v for _, v in plan.stay]
        bucket.header_path = boundary
        self.store.write(address, bucket)
        self.store.write(new_address, new_bucket)
        self.stats.splits += 1
        if TRACER.enabled:
            TRACER.emit(
                "split",
                kind="basic" if self.policy.nil_nodes else "thcl",
                bucket=address,
                new_bucket=new_address,
                moved=len(plan.move),
                stayed=len(plan.stay),
            )

    def _insert_boundary_paged(
        self, anchor: str, boundary: str, left: int, right: int, old: int
    ) -> int:
        """THCL boundary insertion over the page hierarchy.

        The paged counterpart of
        :func:`repro.core.thcl_split.insert_boundary`: within the run of
        children carrying ``old``, gaps at or below ``boundary`` end up
        carrying ``left`` and gaps above it ``right``. Returns the
        number of cells added (0 for the step-3.4 case).
        """
        steps, _, path = self._descend(anchor)
        page_id, page, gap = steps[-1]
        if page.children[gap] != old:
            raise TrieCorruptionError(
                f"anchor {anchor!r} maps to {page.children[gap]}, expected {old}"
            )
        shared = common_prefix_length(boundary, path)
        new_digits = len(boundary) - shared
        if new_digits >= 1:
            chain = [boundary[:l] for l in range(len(boundary), shared, -1)]
            page.splice(gap, chain, [left] + [right] * new_digits)
            self.page_pool.write(page_id, page)
            if right != old:
                self._repoint_forward(steps, gap + new_digits, old, right)
            if left != old:
                self._repoint_backward(steps, gap, old, left)
            self.stats.nodes_added += new_digits
            self._split_page_if_needed(steps, len(steps) - 1)
            return new_digits
        edge_steps, _, _ = self._descend(boundary, pad="max")
        e_id, e_page, e_gap = edge_steps[-1]
        if e_page.children[e_gap] == old:
            e_page.children[e_gap] = left
            e_page.invalidate()
            self.page_pool.write(e_id, e_page)
        if right != old:
            self._repoint_forward(edge_steps, e_gap, old, right)
        if left != old:
            self._repoint_backward(edge_steps, e_gap, old, left)
        return 0

    def _repoint_forward(
        self, steps: list[_Step], from_gap: int, old: int, new: int
    ) -> None:
        """Step 3.5 across pages: repoint trailing ``old`` children.

        Walks the file-level gaps after ``from_gap`` (following the page
        chain — the access the paper notes a split "may require") and
        repoints children equal to ``old`` until another value appears.
        """
        page_id, page, _ = steps[-1]
        gap = from_gap + 1
        while True:
            while gap < len(page.children):
                child = page.children[gap]
                if child == new:
                    gap += 1
                    continue
                if child == old:
                    page.children[gap] = new
                    page.invalidate()
                    self.stats.leaves_repointed += 1
                    gap += 1
                    continue
                self.page_pool.write(page_id, page)
                return
            self.page_pool.write(page_id, page)
            if page.next_page is None:
                return
            page_id = page.next_page
            page = self.page_pool.read(page_id)
            gap = 0

    def _repoint_backward(
        self, steps: list[_Step], from_gap: int, old: int, new: int
    ) -> None:
        """Mirror of :meth:`_repoint_forward`: repoint leading children."""
        page_id, page, _ = steps[-1]
        gap = from_gap - 1
        while True:
            while gap >= 0:
                child = page.children[gap]
                if child == new:
                    gap -= 1
                    continue
                if child == old:
                    page.children[gap] = new
                    page.invalidate()
                    self.stats.leaves_repointed += 1
                    gap -= 1
                    continue
                self.page_pool.write(page_id, page)
                return
            self.page_pool.write(page_id, page)
            if page.prev_page is None:
                return
            page_id = page.prev_page
            page = self.page_pool.read(page_id)
            gap = len(page.children) - 1

    # ------------------------------------------------------------------
    # Page splitting (the two phases of Section 2.5)
    # ------------------------------------------------------------------
    def _split_one(self, page_id: int, page: TriePage) -> tuple[int, TriePage, str]:
        """Phase 1+2 for one page: choose the split node, divide the span.

        Returns ``(right page id, right page, separator boundary)``; the
        caller attaches the separator to the parent level.
        """
        split_at = page.choose_split_index(self.split_node_pick)
        separator = page.boundaries[split_at]
        right = TriePage(
            level=page.level,
            boundaries=page.boundaries[split_at + 1 :],
            children=page.children[split_at + 1 :],
            next_page=page.next_page,
            prev_page=page_id,
        )
        right_id = self.page_pool.allocate(right)
        if right.next_page is not None:
            after = self.page_pool.read(right.next_page)
            after.prev_page = right_id
            self.page_pool.write(right.next_page, after)
        page.boundaries = page.boundaries[:split_at]
        page.children = page.children[: split_at + 1]
        page.next_page = right_id
        page.invalidate()
        self.page_pool.write(page_id, page)
        self.page_pool.write(right_id, right)
        if TRACER.enabled:
            TRACER.emit(
                "page_split",
                page=page_id,
                new_page=right_id,
                level=page.level,
                left_cells=page.cell_count,
                right_cells=right.cell_count,
            )
        return right_id, right, separator

    def _gap_for(self, parent: TriePage, separator: str) -> int:
        """The parent gap covering ``separator`` (its insert position)."""
        key = boundary_sort_key(separator, self.alphabet)
        keys = [boundary_sort_key(s, self.alphabet) for s in parent.boundaries]
        return bisect.bisect_left(keys, key)

    def _split_page_if_needed(self, steps: list[_Step], index: int) -> None:
        """Split overfull pages bottom-up along the descent path.

        A split's halves can themselves stay overfull when the span's
        valid split nodes sit near an end (long logical-parent chains),
        so each level runs a worklist until every produced page fits.
        """
        ancestry: list[tuple[int, TriePage]] = [
            (pid, pg) for pid, pg, _ in steps[: index + 1]
        ]
        level = len(ancestry) - 1
        while level >= 0:
            worklist = [ancestry[level]]
            while worklist:
                page_id, page = worklist.pop()
                while page.cell_count > self.page_capacity:
                    right_id, right, separator = self._split_one(page_id, page)
                    if level == 0:
                        new_root = TriePage(
                            level=page.level + 1,
                            boundaries=[separator],
                            children=[page_id, right_id],
                        )
                        new_root_id = self.page_pool.allocate(new_root)
                        if self.pin_root:
                            self.page_pool.unpin(self.root_id)
                            self.page_pool.pin(new_root_id)
                        self.root_id = new_root_id
                        self.page_pool.write(new_root_id, new_root)
                        ancestry.insert(0, (new_root_id, new_root))
                        level += 1
                    else:
                        parent_id, parent = ancestry[level - 1]
                        gap = self._gap_for(parent, separator)
                        parent.splice(gap, [separator], [page_id, right_id])
                        self.page_pool.write(parent_id, parent)
                    if right.cell_count > self.page_capacity:
                        worklist.append((right_id, right))
            level -= 1

    # ------------------------------------------------------------------
    # Deletion
    # ------------------------------------------------------------------
    def delete(self, key: str) -> object:
        """Remove a record and return its value.

        With ``merge='guaranteed'`` (THCL), buckets falling under the
        ``b // 2`` floor merge with or borrow from a neighbour, exactly
        as in the single-level file; trie nodes are left in place (the
        paper's recommended choice), so pages never shrink.
        """
        if TRACER.enabled:
            with TRACER.span("delete", key=key):
                value = self._delete(key)
        else:
            value = self._delete(key)
        maybe_audit(self, "MLTHFile.delete(%r)", key)
        return value

    def _delete(self, key: str) -> object:
        key = self.alphabet.validate_key(key)
        steps, _, _ = self._descend(key)
        _, page, gap = steps[-1]
        address = page.children[gap]
        if address is None:
            raise KeyNotFoundError(key)
        bucket = self.store.read(address)
        value = bucket.remove(key)
        self.store.write(address, bucket)
        self.stats.deletes += 1
        self._size -= 1
        if self.policy.merge == "guaranteed":
            self._rebalance_after_delete(key)
        return value

    def _positions_forward(self, steps: list[_Step]):
        """Yield (page_id, page, gap) after the descent's position."""
        page_id, page, gap = steps[-1]
        gap += 1
        while True:
            while gap < len(page.children):
                yield page_id, page, gap
                gap += 1
            if page.next_page is None:
                return
            page_id = page.next_page
            page = self.page_pool.read(page_id)
            gap = 0

    def _positions_backward(self, steps: list[_Step]):
        """Yield (page_id, page, gap) before the descent's position."""
        page_id, page, gap = steps[-1]
        gap -= 1
        while True:
            while gap >= 0:
                yield page_id, page, gap
                gap -= 1
            if page.prev_page is None:
                return
            page_id = page.prev_page
            page = self.page_pool.read(page_id)
            gap = len(page.children) - 1

    def _neighbor(self, steps: list[_Step], address: int, forward: bool):
        walker = self._positions_forward if forward else self._positions_backward
        for _, page, gap in walker(steps):
            child = page.children[gap]
            if child is not None and child != address:
                return child
        return None

    def _rebalance_after_delete(self, probe_key: str) -> None:
        from .keys import split_string

        while True:
            steps, _, _ = self._descend(probe_key)
            _, page, gap = steps[-1]
            address = page.children[gap]
            if address is None:
                return
            bucket = self.store.peek(address)
            if len(bucket) >= self.capacity // 2:
                return
            successor = self._neighbor(steps, address, forward=True)
            predecessor = self._neighbor(steps, address, forward=False)

            if successor is not None:
                s_bucket = self.store.read(successor)
                if len(bucket) + len(s_bucket) <= self.capacity:
                    bucket.extend(list(s_bucket.items()))
                    bucket.header_path = s_bucket.header_path
                    self.store.write(address, bucket)
                    self._merge_repoint(steps, successor, address)
                    self.store.free(successor)
                    self.stats.merges += 1
                    if TRACER.enabled:
                        TRACER.emit("merge", kind="successor", bucket=address)
                    continue
            if predecessor is not None:
                p_bucket = self.store.read(predecessor)
                if len(bucket) + len(p_bucket) <= self.capacity:
                    p_bucket.extend(list(bucket.items()))
                    p_bucket.header_path = bucket.header_path
                    self.store.write(predecessor, p_bucket)
                    page.children[gap] = predecessor
                    page.invalidate()
                    self.page_pool.write(steps[-1][0], page)
                    self._repoint_forward(steps, gap, address, predecessor)
                    self._repoint_backward(steps, gap, address, predecessor)
                    self.store.free(address)
                    self.stats.merges += 1
                    if TRACER.enabled:
                        TRACER.emit("merge", kind="predecessor", bucket=address)
                    continue
            if successor is not None:
                s_bucket = self.store.read(successor)
                combined = list(bucket.items()) + list(s_bucket.items())
                keep = len(combined) // 2
                anchor, bound = combined[keep - 1][0], combined[keep][0]
                cut = split_string(anchor, bound, self.alphabet)
                self._insert_boundary_paged(
                    anchor, cut, address, successor, successor
                )
                moved = combined[len(bucket) : keep]
                for k, _ in moved:
                    s_bucket.remove(k)
                bucket.extend(moved)
                bucket.header_path = cut  # the re-cut boundary, our right cut
                self.store.write(address, bucket)
                self.store.write(successor, s_bucket)
                self.stats.borrows += 1
                if TRACER.enabled:
                    TRACER.emit("rebalance", kind="borrow", bucket=address)
                continue
            if predecessor is not None:
                p_bucket = self.store.read(predecessor)
                combined = list(p_bucket.items()) + list(bucket.items())
                keep_left = (len(combined) + 1) // 2
                anchor, bound = combined[keep_left - 1][0], combined[keep_left][0]
                cut = split_string(anchor, bound, self.alphabet)
                self._insert_boundary_paged(
                    anchor, cut, predecessor, address, predecessor
                )
                moved = combined[keep_left : len(p_bucket)]
                for k, _ in moved:
                    p_bucket.remove(k)
                bucket.extend(moved)
                p_bucket.header_path = cut  # predecessor's new right cut
                self.store.write(address, bucket)
                self.store.write(predecessor, p_bucket)
                self.stats.borrows += 1
                if TRACER.enabled:
                    TRACER.emit("rebalance", kind="borrow", bucket=address)
                continue
            return

    def _merge_repoint(self, steps: list[_Step], old: int, new: int) -> None:
        """Repoint the contiguous run of ``old`` children onto ``new``.

        Used by merge-with-successor: walk forward past ``new``'s own
        run, then rewrite ``old``'s run.
        """
        for page_id, page, gap in self._positions_forward(steps):
            child = page.children[gap]
            if child == new:
                continue
            if child == old:
                page.children[gap] = new
                page.invalidate()
                self.page_pool.write(page_id, page)
            else:
                return

    # ------------------------------------------------------------------
    # Ordered iteration
    # ------------------------------------------------------------------
    def items(self) -> Iterator[tuple[str, object]]:
        """All records in key order."""
        return self._range_items()

    def keys(self) -> Iterator[str]:
        """All keys in key order."""
        for key, _ in self.items():
            yield key

    def range_items(
        self, low: Optional[str] = None, high: Optional[str] = None
    ) -> Iterator[tuple[str, object]]:
        """Records with ``low <= key <= high`` in key order."""
        it = self._range_items(low, high)
        if TRACER.enabled:
            return TRACER.wrap_iter("range", it)
        return it

    def _range_items(
        self, low: Optional[str] = None, high: Optional[str] = None
    ) -> Iterator[tuple[str, object]]:
        # One descent to the low bound's file page, then the walk along
        # the file-page chain. Finding the high bound's position would
        # cost a second descent's page reads, so the walk instead stops
        # at the first key above ``high`` (one bucket past the range).
        if low is not None:
            low = self.alphabet.validate_key(low)
        if high is not None:
            high = self.alphabet.validate_key(high)
        steps, _, _ = self._descend(low or "")
        previous = None
        walk = itertools.chain(steps[-1:], self._positions_forward(steps))
        for _, page, gap in walk:
            child = page.children[gap]
            if child is None or child == previous:
                continue
            previous = child
            bucket = self.store.read(child)
            keys, values = bucket.keys, bucket.values
            size = len(keys)
            begin = 0 if low is None else bisect.bisect_left(keys, low)
            end = size if high is None else bisect.bisect_right(keys, high)
            # One snapshot of the bucket's in-range records, as
            # range_query.scan takes: a write landing in this bucket
            # while the scan is suspended shifts the live lists.
            yield from zip(keys[begin:end], values[begin:end])
            if end < size:
                return  # a key past ``high``: the range ends here

    # ------------------------------------------------------------------
    # Batched operations
    # ------------------------------------------------------------------
    def get_many(self, keys: Iterable[str]) -> dict[str, object]:
        """Batched point lookups: ``{key: value}`` for the keys present.

        Same contract as :meth:`repro.core.file.THFile.get_many`: keys
        are validated, deduplicated and sorted once, located with one
        merged pass over the flattened boundary model, and each bucket
        is read at most once per batch (the page hierarchy is walked
        once for the whole batch instead of once per key).
        """
        unique = sorted({self.alphabet.validate_key(k) for k in keys})
        out: dict[str, object] = {}
        if not unique:
            return out
        model = self.flat_model()
        gaps = model.locate_sorted(unique)
        children = model.children
        read = self.store.read
        buckets_visited = 0
        i = 0
        n = len(unique)
        while i < n:
            address = children[gaps[i]]
            j = i + 1
            while j < n and children[gaps[j]] == address:
                j += 1
            self.stats.searches += j - i
            if address is not None:
                bucket = read(address)
                buckets_visited += 1
                bucket_keys = bucket.keys
                bucket_values = bucket.values
                size = len(bucket_keys)
                for key in unique[i:j]:
                    at = bisect.bisect_left(bucket_keys, key)
                    if at < size and bucket_keys[at] == key:
                        out[key] = bucket_values[at]
            i = j
        if TRACER.enabled:
            TRACER.emit(
                "batch", op="get_many", keys=n, buckets=buckets_visited
            )
        return out

    def put_many(self, items: Iterable[tuple[str, object]]) -> None:
        """Batched upsert of ``(key, value)`` pairs, later duplicates win.

        Pairs are validated, deduplicated and applied in sorted order —
        page splits move boundaries between pages, so each pair descends
        the (current) hierarchy itself; the batch still amortises the
        sort and keeps locality across the page pool.
        """
        validate = self.alphabet.validate_key
        last_wins: dict[str, object] = {}
        for key, value in items:
            last_wins[validate(key)] = value
        reads_before = self.store.stats.reads
        for key, value in sorted(last_wins.items()):
            self._insert(key, value, replace=True)
        if TRACER.enabled:
            TRACER.emit(
                "batch",
                op="put_many",
                keys=len(last_wins),
                buckets=self.store.stats.reads - reads_before,
            )
        maybe_audit(self, "MLTHFile.put_many(%d keys)", len(last_wins))

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def levels(self) -> int:
        """Number of page levels (1 = single root page)."""
        return self.page_pool.read(self.root_id).level + 1

    def page_count(self) -> int:
        """Total pages in the hierarchy."""
        return len(self.page_disk)

    def trie_size(self) -> int:
        """Total cells over all pages (the flat trie's ``M``)."""
        return sum(
            self.page_disk.peek(pid).cell_count for pid in self._all_page_ids()
        )

    def page_load_factor(self) -> float:
        """Mean page fill: cells used over page capacity (Section 3.2)."""
        loads = [
            self.page_disk.peek(pid).cell_count / self.page_capacity
            for pid in self._all_page_ids()
        ]
        return sum(loads) / len(loads) if loads else 0.0

    def bucket_count(self) -> int:
        """Allocated buckets (``N + 1``)."""
        return self.store.allocated_count()

    def load_factor(self) -> float:
        """Bucket load factor ``a = x / (b (N+1))``."""
        buckets = self.bucket_count()
        return self._size / (self.capacity * buckets) if buckets else 0.0

    def search_cost(self, key: str) -> tuple[int, int]:
        """(page reads, bucket reads) hitting the disk for one search."""
        pages_before = self.page_disk.stats.reads
        buckets_before = self.store.stats.reads
        try:
            self.get(key)
        except KeyNotFoundError:
            pass
        return (
            self.page_disk.stats.reads - pages_before,
            self.store.stats.reads - buckets_before,
        )

    def _all_page_ids(self) -> list[int]:
        ids: list[int] = []
        stack = [self.root_id]
        while stack:
            pid = stack.pop()
            ids.append(pid)
            page = self.page_disk.peek(pid)
            if page.level > 0:
                stack.extend(page.children)
        return ids

    def restore_pages(self, root_id: int, page_specs: dict) -> None:
        """Adopt a saved page hierarchy (page id -> ``TriePage`` spec).

        Ids are allocated densely up to the largest saved one; ids the
        hierarchy does not use keep an empty page nothing points to.
        """
        specs = {int(pid): spec for pid, spec in page_specs.items()}
        while len(self.page_disk) <= max(specs):
            self.page_pool.allocate(TriePage(0, [], [None]))
        for pid, spec in specs.items():
            self.page_pool.write(pid, TriePage.from_spec(spec))
        if self.pin_root:
            self.page_pool.unpin(self.root_id)
        self.root_id = root_id
        if self.pin_root:
            self.page_pool.pin(self.root_id)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def flat_model(self) -> BoundaryModel:
        """The file's global boundary model, flattened from the pages."""
        boundaries: list[str] = []
        children: list[Optional[int]] = []

        def visit(pid: int) -> None:
            page = self.page_disk.peek(pid)
            for i, child in enumerate(page.children):
                if page.level > 0:
                    visit(child)
                else:
                    children.append(child)
                if i < len(page.boundaries):
                    boundaries.append(page.boundaries[i])

        visit(self.root_id)
        return BoundaryModel(self.alphabet, boundaries, children)

    def check(self) -> None:
        """Verify the global structure and every stored key's mapping."""
        model = self.flat_model()
        model.check(require_prefix_closed=True)
        keys = [boundary_sort_key(s, self.alphabet) for s in model.boundaries]
        if any(not a < b for a, b in zip(keys, keys[1:])):
            raise TrieCorruptionError("page spans out of order")
        reachable = {c for c in model.children if c is not None}
        live = set(self.store.live_addresses())
        if reachable != live:
            raise AssertionError("page leaves disagree with live buckets")
        total = 0
        for address in live:
            bucket = self.store.peek(address)
            if len(bucket) > self.capacity:
                raise AssertionError(f"bucket {address} over capacity")
            total += len(bucket)
            for key in bucket.keys:
                if model.lookup(key) != address:
                    raise AssertionError(f"{key!r} mapped away from {address}")
                steps, _, _ = self._descend(key)
                _, page, gap = steps[-1]
                if page.children[gap] != address:
                    raise AssertionError(f"paged A1 maps {key!r} wrongly")
        if total != self._size:
            raise AssertionError("record count mismatch")
        for pid in self._all_page_ids():
            page = self.page_disk.peek(pid)
            if pid != self.root_id and page.cell_count > self.page_capacity:
                raise AssertionError(f"page {pid} over capacity")
