"""A B+-tree with the knobs the paper's comparison needs.

The split fraction reproduces /ROS81/'s linear load control: the bucket
load of an ordered (ascending) load is simply the fraction of records the
split leaves behind, up to the 100%-compact B-tree at fraction 1.0.
Optional redistribution before splitting reproduces the ~87% random load
of /KNU73/; deletions borrow or merge, guaranteeing the 50% floor the
paper credits B-trees with (Section 3.3).
"""

from __future__ import annotations

import bisect
from collections.abc import Iterator
from typing import Optional

from ..check.hook import maybe_audit
from ..core.errors import CapacityError, DuplicateKeyError, KeyNotFoundError
from ..obs.tracer import TRACER
from ..storage.buffer import BufferPool
from ..storage.disk import SimulatedDisk
from ..storage.layout import Layout
from .node import BranchNode, LeafNode

__all__ = ["BPlusTree"]

#: A descent step: (node id, node, child index taken).
_Step = tuple[int, object, int]


class BPlusTree:
    """An order-preserving B+-tree over the simulated disk.

    Parameters
    ----------
    leaf_capacity:
        Records per leaf (the analogue of the bucket capacity ``b``).
    branch_capacity:
        Separators per branch node; defaults to ``leaf_capacity``.
    split_fraction:
        Fraction of records a leaf split leaves in the left node
        (0.5 = classic; 1.0 = compact loading for ascending keys).
    redistribute:
        Try to push records into a sibling before splitting.
    pin_root:
        Keep the root node in core (mirrors the trie held in core).
    """

    def __init__(
        self,
        leaf_capacity: int = 4,
        branch_capacity: Optional[int] = None,
        split_fraction: float = 0.5,
        redistribute: bool = False,
        pin_root: bool = True,
        layout: Optional[Layout] = None,
        disk: Optional[SimulatedDisk] = None,
    ):
        if leaf_capacity < 2:
            raise CapacityError("leaf capacity must be at least 2")
        if not 0.0 < split_fraction <= 1.0:
            raise CapacityError("split fraction must be in (0, 1]")
        self.leaf_capacity = leaf_capacity
        self.branch_capacity = branch_capacity or leaf_capacity
        if self.branch_capacity < 2:
            raise CapacityError("branch capacity must be at least 2")
        self.split_fraction = split_fraction
        self.redistribute = redistribute
        self.layout = layout or Layout()
        self.disk = disk if disk is not None else SimulatedDisk(name="btree")
        self.pool = BufferPool(self.disk, capacity=0)
        self.root_id = self.pool.allocate(LeafNode())
        if pin_root:
            self.pool.pin(self.root_id)
        self.pin_root = pin_root
        self._size = 0
        self._height = 1
        self.splits = 0
        self.redistributions = 0
        self.merges = 0
        self.borrows = 0

    # ------------------------------------------------------------------
    # Descent
    # ------------------------------------------------------------------
    def _descend(self, key: str) -> list[_Step]:
        steps: list[_Step] = []
        node_id = self.root_id
        while True:
            node = self.pool.read(node_id)
            if isinstance(node, LeafNode):
                steps.append((node_id, node, -1))
                return steps
            at = node.child_for(key)
            steps.append((node_id, node, at))
            node_id = node.children[at]

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, key: str) -> object:
        """Value stored under ``key``; raises :class:`KeyNotFoundError`."""
        if TRACER.enabled:
            with TRACER.span("search", key=key):
                return self._get(key)
        return self._get(key)

    def _get(self, key: str) -> object:
        leaf = self._descend(key)[-1][1]
        i = leaf.find(key)
        if i < 0:
            raise KeyNotFoundError(key)
        return leaf.values[i]

    def contains(self, key: str) -> bool:
        """True when the tree stores ``key``."""
        if TRACER.enabled:
            with TRACER.span("search", key=key):
                return self._descend(key)[-1][1].find(key) >= 0
        return self._descend(key)[-1][1].find(key) >= 0

    def __contains__(self, key: str) -> bool:
        return self.contains(key)

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def _leaf_split_position(self, total: int) -> int:
        """Records kept left by a split of ``total`` records."""
        keep = round(self.split_fraction * self.leaf_capacity)
        return max(1, min(keep, total - 1))

    def insert(self, key: str, value: object = None) -> None:
        """Insert a new record; duplicates are rejected."""
        if TRACER.enabled:
            with TRACER.span("insert", key=key):
                self._insert(key, value)
        else:
            self._insert(key, value)
        maybe_audit(self, "BPlusTree.insert(%r)", key)

    def _insert(self, key: str, value: object = None) -> None:
        steps = self._descend(key)
        leaf_id, leaf, _ = steps[-1]
        if leaf.find(key) >= 0:
            raise DuplicateKeyError(key)
        if len(leaf) < self.leaf_capacity:
            leaf.insert(key, value)
            self.pool.write(leaf_id, leaf)
        elif self.redistribute and self._try_redistribute(steps, key, value):
            self.redistributions += 1
            if TRACER.enabled:
                TRACER.emit("redistribute", bucket=leaf_id)
        else:
            self._split_leaf(steps, key, value)
            self.splits += 1
        self._size += 1

    def put(self, key: str, value: object = None) -> None:
        """Insert or overwrite."""
        if TRACER.enabled:
            with TRACER.span("insert", key=key):
                self._put(key, value)
        else:
            self._put(key, value)
        maybe_audit(self, "BPlusTree.put(%r)", key)

    def _put(self, key: str, value: object = None) -> None:
        steps = self._descend(key)
        leaf_id, leaf, _ = steps[-1]
        i = leaf.find(key)
        if i >= 0:
            leaf.values[i] = value
            self.pool.write(leaf_id, leaf)
            return
        self._insert(key, value)

    def _split_leaf(self, steps: list[_Step], key: str, value: object) -> None:
        leaf_id, leaf, _ = steps[-1]
        leaf.insert(key, value)
        keep = self._leaf_split_position(len(leaf))
        right = leaf.split_at(keep)
        right_id = self.pool.allocate(right)
        right.next_leaf = leaf.next_leaf
        right.prev_leaf = leaf_id
        if leaf.next_leaf is not None:
            after = self.pool.read(leaf.next_leaf)
            after.prev_leaf = right_id
            self.pool.write(leaf.next_leaf, after)
        leaf.next_leaf = right_id
        separator = leaf.keys[-1]
        self.pool.write(leaf_id, leaf)
        self.pool.write(right_id, right)
        if TRACER.enabled:
            TRACER.emit(
                "split",
                kind="leaf",
                bucket=leaf_id,
                new_bucket=right_id,
                moved=len(right.keys),
                stayed=len(leaf.keys),
            )
        self._insert_up(steps, len(steps) - 2, separator, leaf_id, right_id)

    def _insert_up(
        self,
        steps: list[_Step],
        index: int,
        separator: str,
        left_id: int,
        right_id: int,
    ) -> None:
        """Insert a separator at branch level ``index``, splitting upward."""
        if index < 0:
            root = BranchNode()
            root.keys = [separator]
            root.children = [left_id, right_id]
            new_root_id = self.pool.allocate(root)
            if self.pin_root:
                self.pool.unpin(self.root_id)
                self.pool.pin(new_root_id)
            self.root_id = new_root_id
            self.pool.write(new_root_id, root)
            self._height += 1
            return
        node_id, node, at = steps[index]
        node.insert_separator(at, separator, right_id)
        if len(node) <= self.branch_capacity:
            self.pool.write(node_id, node)
            return
        middle = len(node) // 2
        promoted, right = node.split_at(middle)
        new_right_id = self.pool.allocate(right)
        self.pool.write(node_id, node)
        self.pool.write(new_right_id, right)
        if TRACER.enabled:
            TRACER.emit("page_split", page=node_id, new_page=new_right_id)
        self._insert_up(steps, index - 1, promoted, node_id, new_right_id)

    def _try_redistribute(self, steps: list[_Step], key: str, value: object) -> bool:
        """Push overflow into a sibling leaf instead of splitting."""
        if len(steps) < 2:
            return False
        leaf_id, leaf, _ = steps[-1]
        parent_id, parent, at = steps[-2]
        combined = leaf.items()
        bisect.insort(combined, (key, value))
        # Right sibling first, then left (both under the same parent).
        if at + 1 < len(parent.children):
            sib_id = parent.children[at + 1]
            sibling = self.pool.read(sib_id)
            room = self.leaf_capacity - len(sibling)
            if room >= 1:
                move = max(1, min(room, (len(combined) - len(sibling)) // 2))
                keep = len(combined) - move
                moved = combined[keep:]
                leaf.keys = [k for k, _ in combined[:keep]]
                leaf.values = [v for _, v in combined[:keep]]
                sibling.keys[0:0] = [k for k, _ in moved]
                sibling.values[0:0] = [v for _, v in moved]
                parent.keys[at] = leaf.keys[-1]
                self.pool.write(leaf_id, leaf)
                self.pool.write(sib_id, sibling)
                self.pool.write(parent_id, parent)
                return True
        if at - 1 >= 0:
            sib_id = parent.children[at - 1]
            sibling = self.pool.read(sib_id)
            room = self.leaf_capacity - len(sibling)
            if room >= 1:
                move = max(1, min(room, (len(combined) - len(sibling)) // 2))
                moved = combined[:move]
                leaf.keys = [k for k, _ in combined[move:]]
                leaf.values = [v for _, v in combined[move:]]
                sibling.keys.extend(k for k, _ in moved)
                sibling.values.extend(v for _, v in moved)
                parent.keys[at - 1] = sibling.keys[-1]
                self.pool.write(leaf_id, leaf)
                self.pool.write(sib_id, sibling)
                self.pool.write(parent_id, parent)
                return True
        return False

    # ------------------------------------------------------------------
    # Deletion
    # ------------------------------------------------------------------
    def delete(self, key: str) -> object:
        """Delete ``key``, borrowing/merging to keep every leaf half full."""
        if TRACER.enabled:
            with TRACER.span("delete", key=key):
                value = self._delete(key)
        else:
            value = self._delete(key)
        maybe_audit(self, "BPlusTree.delete(%r)", key)
        return value

    def _delete(self, key: str) -> object:
        steps = self._descend(key)
        leaf_id, leaf, _ = steps[-1]
        if leaf.find(key) < 0:
            raise KeyNotFoundError(key)
        value = leaf.remove(key)
        self.pool.write(leaf_id, leaf)
        self._size -= 1
        if len(leaf) < self.leaf_capacity // 2 and len(steps) > 1:
            self._fix_leaf_underflow(steps)
        return value

    def _fix_leaf_underflow(self, steps: list[_Step]) -> None:
        leaf_id, leaf, _ = steps[-1]
        parent_id, parent, at = steps[-2]
        floor = self.leaf_capacity // 2

        def sibling(side: int):
            j = at + side
            if 0 <= j < len(parent.children):
                sid = parent.children[j]
                return sid, self.pool.read(sid)
            return None, None

        left_id, left = sibling(-1)
        right_id, right = sibling(+1)
        # Borrow from the richer sibling when possible.
        if left is not None and len(left) > floor:
            leaf.keys.insert(0, left.keys.pop())
            leaf.values.insert(0, left.values.pop())
            parent.keys[at - 1] = left.keys[-1]
            self.pool.write(left_id, left)
            self.pool.write(leaf_id, leaf)
            self.pool.write(parent_id, parent)
            self.borrows += 1
            if TRACER.enabled:
                TRACER.emit("rebalance", kind="borrow")
            return
        if right is not None and len(right) > floor:
            leaf.keys.append(right.keys.pop(0))
            leaf.values.append(right.values.pop(0))
            parent.keys[at] = leaf.keys[-1]
            self.pool.write(right_id, right)
            self.pool.write(leaf_id, leaf)
            self.pool.write(parent_id, parent)
            self.borrows += 1
            if TRACER.enabled:
                TRACER.emit("rebalance", kind="borrow")
            return
        # Merge with a sibling and drop one separator from the parent.
        if left is not None:
            left.keys.extend(leaf.keys)
            left.values.extend(leaf.values)
            left.next_leaf = leaf.next_leaf
            if leaf.next_leaf is not None:
                after = self.pool.read(leaf.next_leaf)
                after.prev_leaf = left_id
                self.pool.write(leaf.next_leaf, after)
            del parent.keys[at - 1]
            del parent.children[at]
            self.pool.write(left_id, left)
            self.pool.free(leaf_id)
        elif right is not None:
            leaf.keys.extend(right.keys)
            leaf.values.extend(right.values)
            leaf.next_leaf = right.next_leaf
            if right.next_leaf is not None:
                after = self.pool.read(right.next_leaf)
                after.prev_leaf = leaf_id
                self.pool.write(right.next_leaf, after)
            del parent.keys[at]
            del parent.children[at + 1]
            self.pool.write(leaf_id, leaf)
            self.pool.free(right_id)
        else:  # single child under the root: cannot happen in a B+-tree
            return
        self.merges += 1
        if TRACER.enabled:
            TRACER.emit("merge", kind="leaf")
        self.pool.write(parent_id, parent)
        self._fix_branch_underflow(steps, len(steps) - 2)

    def _fix_branch_underflow(self, steps: list[_Step], index: int) -> None:
        node_id, node, _ = steps[index]
        if index == 0:
            if len(node.keys) == 0:
                # The root branch emptied: its single child becomes root.
                child_id = node.children[0]
                if self.pin_root:
                    self.pool.unpin(self.root_id)
                    self.pool.pin(child_id)
                self.pool.free(node_id)
                self.root_id = child_id
                self._height -= 1
            return
        floor = self.branch_capacity // 2
        if len(node.keys) >= floor:
            return
        parent_id, parent, at = steps[index - 1]

        def sibling(side: int):
            j = at + side
            if 0 <= j < len(parent.children):
                sid = parent.children[j]
                return sid, self.pool.read(sid)
            return None, None

        left_id, left = sibling(-1)
        right_id, right = sibling(+1)
        if left is not None and len(left.keys) > floor:
            node.keys.insert(0, parent.keys[at - 1])
            node.children.insert(0, left.children.pop())
            parent.keys[at - 1] = left.keys.pop()
            self.pool.write(left_id, left)
            self.pool.write(node_id, node)
            self.pool.write(parent_id, parent)
            self.borrows += 1
            if TRACER.enabled:
                TRACER.emit("rebalance", kind="borrow")
            return
        if right is not None and len(right.keys) > floor:
            node.keys.append(parent.keys[at])
            node.children.append(right.children.pop(0))
            parent.keys[at] = right.keys.pop(0)
            self.pool.write(right_id, right)
            self.pool.write(node_id, node)
            self.pool.write(parent_id, parent)
            self.borrows += 1
            if TRACER.enabled:
                TRACER.emit("rebalance", kind="borrow")
            return
        if left is not None:
            left.keys.append(parent.keys[at - 1])
            left.keys.extend(node.keys)
            left.children.extend(node.children)
            del parent.keys[at - 1]
            del parent.children[at]
            self.pool.write(left_id, left)
            self.pool.free(node_id)
        elif right is not None:
            node.keys.append(parent.keys[at])
            node.keys.extend(right.keys)
            node.children.extend(right.children)
            del parent.keys[at]
            del parent.children[at + 1]
            self.pool.write(node_id, node)
            self.pool.free(right_id)
        else:
            return
        self.merges += 1
        if TRACER.enabled:
            TRACER.emit("merge", kind="branch")
        self.pool.write(parent_id, parent)
        self._fix_branch_underflow(steps, index - 1)

    # ------------------------------------------------------------------
    # Ordered iteration
    # ------------------------------------------------------------------
    def _leftmost_leaf_id(self) -> int:
        node_id = self.root_id
        while True:
            node = self.pool.read(node_id)
            if isinstance(node, LeafNode):
                return node_id
            node_id = node.children[0]

    def items(self) -> Iterator[tuple[str, object]]:
        """All records in key order via the leaf chain."""
        leaf_id: Optional[int] = self._leftmost_leaf_id()
        while leaf_id is not None:
            leaf = self.pool.read(leaf_id)
            yield from leaf.items()
            leaf_id = leaf.next_leaf

    def keys(self) -> Iterator[str]:
        """All keys in order."""
        for key, _ in self.items():
            yield key

    def range_items(
        self, low: Optional[str] = None, high: Optional[str] = None
    ) -> Iterator[tuple[str, object]]:
        """Records with ``low <= key <= high``."""
        it = self._range_items(low, high)
        if TRACER.enabled:
            return TRACER.wrap_iter("range", it)
        return it

    def _range_items(
        self, low: Optional[str] = None, high: Optional[str] = None
    ) -> Iterator[tuple[str, object]]:
        if low is None:
            leaf_id: Optional[int] = self._leftmost_leaf_id()
        else:
            leaf_id = self._descend(low)[-1][0]
        while leaf_id is not None:
            leaf = self.pool.read(leaf_id)
            begin = 0 if low is None else bisect.bisect_left(leaf.keys, low)
            for i in range(begin, len(leaf.keys)):
                if high is not None and leaf.keys[i] > high:
                    return
                yield leaf.keys[i], leaf.values[i]
            leaf_id = leaf.next_leaf

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    @property
    def height(self) -> int:
        """Number of node levels (1 = a single leaf)."""
        return self._height

    def _walk_nodes(self):
        stack = [self.root_id]
        while stack:
            node_id = stack.pop()
            node = self.disk.peek(node_id)
            yield node_id, node
            if isinstance(node, BranchNode):
                stack.extend(node.children)

    def leaf_count(self) -> int:
        """Number of leaves (the analogue of ``N + 1``)."""
        return sum(1 for _, n in self._walk_nodes() if isinstance(n, LeafNode))

    def separator_count(self) -> int:
        """Total separators in branch nodes (index entries)."""
        return sum(
            len(n.keys) for _, n in self._walk_nodes() if isinstance(n, BranchNode)
        )

    def load_factor(self) -> float:
        """Leaf load: records over leaf slots."""
        leaves = self.leaf_count()
        return self._size / (self.leaf_capacity * leaves) if leaves else 0.0

    def index_bytes(self) -> int:
        """Branch-entry bytes per the layout (key + pointer each)."""
        return self.layout.btree_branch_bytes(self.separator_count())

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def check(self) -> None:
        """Verify ordering, separator correctness and record count."""
        collected = list(self.keys())
        if collected != sorted(collected):
            raise AssertionError("leaf chain out of order")
        if len(collected) != self._size:
            raise AssertionError("size mismatch")
        for key in collected:
            leaf = self._descend(key)[-1][1]
            if leaf.find(key) < 0:
                raise AssertionError(f"descent loses key {key!r}")
