"""The trie-hashing file: the library's primary public API.

A :class:`THFile` is an ordered dynamic file of ``(key, value)`` records
stored in fixed-capacity buckets on a (simulated) disk and addressed
through an in-core TH-trie. One object covers the whole family of the
paper's methods — the :class:`~repro.core.policies.SplitPolicy` decides
whether it behaves as basic trie hashing (/LIT81/), as THCL with any
controlled load, or as THCL with redistribution. The multilevel variant
(trie itself paged to disk) is :class:`repro.core.mlth.MLTHFile`.

Typical use::

    from repro import THFile, SplitPolicy

    f = THFile(bucket_capacity=20, policy=SplitPolicy.thcl_ascending(d=2))
    for word in sorted(words):
        f.insert(word)
    assert f.load_factor() > 0.9
"""

from __future__ import annotations

import bisect
from collections.abc import Iterable, Iterator
from typing import Any, Optional

from ..check.hook import maybe_audit
from ..obs.tracer import TRACER
from ..storage.buckets import BucketStore
from .alphabet import DEFAULT_ALPHABET, Alphabet
from .boundaries import BoundaryModel
from .cells import NIL, is_nil
from .compact import DEFAULT_TRIE_BACKEND, TRIE_BACKENDS, CompactTrie
from .errors import DuplicateKeyError, KeyNotFoundError
from .merge import basic_delete_maintenance, guaranteed_delete_maintenance
from .policies import SplitPolicy
from .redistribution import try_redistribute
from .split import expand_basic, plan_split
from .thcl_split import collapse_equal_leaf_nodes, insert_boundary
from .trie import Location, SearchResult, Trie

__all__ = ["FileStats", "THFile"]


class _Structural:
    """A structural counter of :class:`FileStats`.

    It stores its value in the slot ``_<name>``, and every change to it
    moves ``generation`` by the same amount, so ``generation`` is the
    sum of the structural counters without adding them on each read.
    """

    __slots__ = ("slot",)

    def __set_name__(self, owner: type, name: str) -> None:
        self.slot = owner.__dict__["_" + name]

    def __get__(self, stats: Any, owner: Any = None) -> int:
        return self.slot.__get__(stats, owner)

    def __set__(self, stats: Any, value: int) -> None:
        slot = self.slot
        stats.generation += value - slot.__get__(stats)
        slot.__set__(stats, value)


class FileStats:
    """Operation counters of one file (disk counters live on the store).

    ``generation`` is the running sum of the seven structural counters
    (``splits``, ``nil_allocations``, ``nil_reversions``,
    ``redistributions``, ``merges``, ``borrows``, ``nodes_collapsed``):
    each ``+=`` or ``=`` on one of them moves it by the same amount. It
    is :attr:`THFile.structure_generation`, which a scan compares after
    every record.
    """

    #: The counters in report order (:meth:`as_dict`).
    _COUNTERS = (
        "inserts",
        "deletes",
        "searches",
        "splits",
        "nil_allocations",
        "nil_reversions",
        "redistributions",
        "merges",
        "borrows",
        "nodes_added",
        "leaves_repointed",
        "nodes_collapsed",
    )

    __slots__ = (
        "inserts",
        "deletes",
        "searches",
        "nodes_added",
        "leaves_repointed",
        "generation",
        "_splits",
        "_nil_allocations",
        "_nil_reversions",
        "_redistributions",
        "_merges",
        "_borrows",
        "_nodes_collapsed",
    )

    splits = _Structural()
    nil_allocations = _Structural()
    nil_reversions = _Structural()
    redistributions = _Structural()
    merges = _Structural()
    borrows = _Structural()
    nodes_collapsed = _Structural()

    def __init__(self) -> None:
        self.inserts = 0
        self.deletes = 0
        self.searches = 0
        self.nodes_added = 0
        self.leaves_repointed = 0
        self.generation = 0
        self._splits = 0
        self._nil_allocations = 0
        self._nil_reversions = 0
        self._redistributions = 0
        self._merges = 0
        self._borrows = 0
        self._nodes_collapsed = 0

    def as_dict(self) -> dict:
        """All counters as a plain dictionary (for reports)."""
        return {name: getattr(self, name) for name in self._COUNTERS}


class THFile:
    """A primary-key-ordered dynamic file addressed by trie hashing.

    Parameters
    ----------
    bucket_capacity:
        The paper's ``b`` (records per bucket), at least 2.
    policy:
        A :class:`SplitPolicy`; defaults to basic trie hashing.
    alphabet:
        Key alphabet; defaults to space + lowercase letters.
    store:
        A :class:`~repro.storage.buckets.BucketStore`; a private store
        over a fresh simulated disk is created when omitted.
    trie_backend:
        ``"compact"`` (the default: the flat column layout of
        :mod:`repro.core.compact`) or ``"cells"`` (the paper's Section
        2.1 table, one object per node). Both backends are structurally
        byte-identical under the same operation sequence; compact is
        several times faster on the per-key descent.
    """

    def __init__(
        self,
        bucket_capacity: int = 4,
        policy: Optional[SplitPolicy] = None,
        alphabet: Alphabet = DEFAULT_ALPHABET,
        store: Optional[BucketStore] = None,
        trie_backend: str = DEFAULT_TRIE_BACKEND,
    ):
        if bucket_capacity < 2:
            raise ValueError("bucket capacity b must be at least 2")
        if trie_backend not in TRIE_BACKENDS:
            raise ValueError(
                f"unknown trie backend {trie_backend!r} "
                f"(choose from {TRIE_BACKENDS})"
            )
        self.capacity = bucket_capacity
        self.policy = policy if policy is not None else SplitPolicy.basic_th()
        self.alphabet = alphabet
        self.store = store if store is not None else BucketStore()
        self.trie_backend = trie_backend
        trie_class = CompactTrie if trie_backend == "compact" else Trie
        self.trie = trie_class(alphabet, root_ptr=self.store.allocate())
        self.stats = FileStats()
        self._size = 0
        #: ``(structure_generation, BoundaryModel)`` snapshot reused by
        #: the batched APIs between structural changes.
        self._model_cache: Optional[tuple[int, BoundaryModel]] = None
        # Validate the policy's positions against this capacity up front.
        self.policy.split_index(bucket_capacity)
        self.policy.bounding_index(bucket_capacity)

    @property
    def structure_generation(self) -> int:
        """A counter that changes whenever buckets split, merge or move.

        Cursors (:class:`repro.core.cursor.Cursor`) snapshot it to detect
        structural changes under them; plain record updates don't count.
        It is the sum of the structural counters, kept running by
        :class:`FileStats` as ``stats.generation``.
        """
        return self.stats.generation

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, key: str) -> object:
        """Return the value stored under ``key``.

        Costs one disk access when the key's leaf is a bucket; an
        unsuccessful search through a nil leaf costs none (Section 3.1).
        """
        if TRACER.enabled:
            with TRACER.span("search", key=key):
                return self._get(key)
        return self._get(key)

    def _get(self, key: str) -> object:
        key = self.alphabet.validate_key(key)
        ptr = self.trie.lookup(key)
        self.stats.searches += 1
        if ptr == NIL:
            raise KeyNotFoundError(key)
        return self.store.read(ptr).get(key)

    def contains(self, key: str) -> bool:
        """True when ``key`` is stored in the file."""
        if TRACER.enabled:
            with TRACER.span("search", key=key):
                return self._contains(key)
        return self._contains(key)

    def _contains(self, key: str) -> bool:
        key = self.alphabet.validate_key(key)
        ptr = self.trie.lookup(key)
        self.stats.searches += 1
        if ptr == NIL:
            return False
        return self.store.read(ptr).contains(key)

    def __contains__(self, key: str) -> bool:
        return self.contains(key)

    def __len__(self) -> int:
        """Number of records in the file (the paper's ``x``)."""
        return self._size

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def insert(self, key: str, value: object = None) -> None:
        """Insert a new record; raises :class:`DuplicateKeyError` if present."""
        if TRACER.enabled:
            with TRACER.span("insert", key=key):
                self._store_record(key, value, replace=False)
        else:
            self._store_record(key, value, replace=False)
        maybe_audit(self, "THFile.insert(%r)", key)

    def put(self, key: str, value: object = None) -> None:
        """Insert or overwrite the record under ``key``."""
        if TRACER.enabled:
            with TRACER.span("insert", key=key):
                self._store_record(key, value, replace=True)
        else:
            self._store_record(key, value, replace=True)
        maybe_audit(self, "THFile.put(%r)", key)

    def _store_record(self, key: str, value: object, replace: bool) -> None:
        key = self.alphabet.validate_key(key)
        # Fast descent first; the slower full search (path + trail +
        # location) reruns only on the rare structural paths below.
        ptr = self.trie.lookup(key)
        if ptr == NIL:
            # A nil leaf: allocate the bucket now (basic method, §2.3).
            result = self.trie.search(key)
            address = self.store.allocate()
            self.trie.set_ptr(result.location, address)
            bucket = self.store.peek(address)
            bucket.header_path = result.path
            bucket.insert(key, value)
            self.store.write(address, bucket)
            self.stats.nil_allocations += 1
            self.stats.inserts += 1
            self._size += 1
            if TRACER.enabled:
                TRACER.emit("split", kind="nil-alloc", bucket=address)
            return
        bucket = self.store.read(ptr)
        position = bucket.find(key)
        if position >= 0:
            if not replace:
                raise DuplicateKeyError(key)
            bucket.values[position] = value
            self.store.write(ptr, bucket)
            return
        if len(bucket) < self.capacity:
            bucket.insert(key, value)
            self.store.write(ptr, bucket)
        else:
            self._split(self.trie.search(key), bucket, key, value)
        self.stats.inserts += 1
        self._size += 1

    def _split(self, result: SearchResult, bucket, key: str, value: object) -> None:
        """Handle an overflow: redistribute if allowed, else split (A2)."""
        records: list[tuple[str, object]] = list(bucket.items())
        at = bisect.bisect_left(bucket.keys, key)
        records.insert(at, (key, value))

        if self.policy.redistribution != "none":
            outcome = try_redistribute(
                self.trie,
                self.store,
                result,
                records,
                self.capacity,
                self.policy,
                self.alphabet,
            )
            if outcome is not None:
                self.stats.redistributions += 1
                self.stats.nodes_added += outcome.nodes_added
                self.stats.leaves_repointed += outcome.leaves_repointed
                if self.policy.collapse_equal_leaves:
                    self.stats.nodes_collapsed += collapse_equal_leaf_nodes(self.trie)
                if TRACER.enabled:
                    TRACER.emit(
                        "redistribute",
                        bucket=result.bucket,
                        nodes_added=outcome.nodes_added,
                        leaves_repointed=outcome.leaves_repointed,
                    )
                return

        plan = None
        if self.policy.prefer_existing_boundary:
            plan = self._plan_on_existing_boundary(records)
        if plan is None:
            plan = plan_split(
                records,
                self.policy.split_index(self.capacity),
                self.policy.bounding_index(self.capacity),
                self.alphabet,
            )
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
            repointed = 0
        else:
            insertion = insert_boundary(
                self.trie,
                plan.split_key,
                plan.boundary,
                result.bucket,
                new_address,
                result.bucket,
            )
            added, repointed = insertion
        new_bucket = self.store.peek(new_address)
        # The new bucket's right cut: the old leaf's path in the usual
        # case; after a rare-case chain the new bucket sits immediately
        # above the split string, cut by the chain's next boundary. Under
        # THCL the old bucket may span several shared leaves, so its
        # recorded header (the cut of the whole region), not the path of
        # the one leaf the key hit, is what the upper half inherits.
        if self.policy.nil_nodes and added > 1:
            new_bucket.header_path = plan.boundary[:-1]
        elif self.policy.nil_nodes:
            new_bucket.header_path = result.path
        else:
            new_bucket.header_path = bucket.header_path
        new_bucket.extend(plan.move)
        bucket.keys[:] = [k for k, _ in plan.stay]
        bucket.values[:] = [v for _, v in plan.stay]
        bucket.header_path = plan.boundary
        self.store.write(result.bucket, bucket)
        self.store.write(new_address, new_bucket)
        self.stats.splits += 1
        self.stats.nodes_added += added
        self.stats.leaves_repointed += repointed
        if TRACER.enabled:
            TRACER.emit(
                "split",
                kind="basic" if self.policy.nil_nodes else "thcl",
                bucket=result.bucket,
                new_bucket=new_address,
                moved=len(plan.move),
                stayed=len(plan.stay),
                nodes_added=added,
            )

    def _plan_on_existing_boundary(self, records):
        """Section 4.5's refinement: a split that adds no trie node.

        Scans split-key candidates from the basic position upward for
        one whose (deterministic) split string lies entirely on the
        anchor's logical path — possible exactly when the overflowing
        bucket spans several leaves, and handled by step 3.4 without
        enlarging the trie. Returns a plan or ``None``.
        """
        from .keys import common_prefix_length, split_string
        from .split import SplitPlan

        base = self.policy.split_index(self.capacity)
        for position in range(base, len(records)):
            anchor = records[position - 1][0]
            bound = records[position][0]
            boundary = split_string(anchor, bound, self.alphabet)
            path = self.trie.search(anchor).path
            if common_prefix_length(boundary, path) == len(boundary):
                return SplitPlan(
                    boundary,
                    records[:position],
                    records[position:],
                    anchor,
                )
        return None

    # ------------------------------------------------------------------
    # Deletion
    # ------------------------------------------------------------------
    def delete(self, key: str) -> object:
        """Remove ``key``'s record and return its value.

        Post-delete maintenance follows the policy's ``merge`` regime:
        sibling merges (basic), guaranteed >= 50% load (THCL), or none.
        """
        if TRACER.enabled:
            with TRACER.span("delete", key=key):
                value = self._delete(key)
        else:
            value = self._delete(key)
        maybe_audit(self, "THFile.delete(%r)", key)
        return value

    def _delete(self, key: str) -> object:
        key = self.alphabet.validate_key(key)
        result = self.trie.search(key)
        if result.bucket is None:
            raise KeyNotFoundError(key)
        bucket = self.store.read(result.bucket)
        value = bucket.remove(key)  # raises KeyNotFoundError when absent
        self.store.write(result.bucket, bucket)
        self.stats.deletes += 1
        self._size -= 1
        if self.policy.merge == "siblings":
            action = basic_delete_maintenance(
                self.trie, self.store, result, self.capacity
            )
            if action == "merge":
                self.stats.merges += 1
                if TRACER.enabled:
                    TRACER.emit("merge", kind="siblings", bucket=result.bucket)
            elif action == "nil":
                # The emptied bucket was freed and its leaf reverted to
                # nil — a structural change: cursors and cached models
                # must observe it through structure_generation.
                self.stats.nil_reversions += 1
                if TRACER.enabled:
                    TRACER.emit("merge", kind="nil", bucket=result.bucket)
        elif self.policy.merge == "rotations":
            from .merge import rotation_delete_maintenance

            action = rotation_delete_maintenance(self, result)
            if action in ("merge", "rotation-merge"):
                self.stats.merges += 1
                if TRACER.enabled:
                    TRACER.emit("merge", kind=action, bucket=result.bucket)
            elif action == "nil":
                self.stats.nil_reversions += 1
                if TRACER.enabled:
                    TRACER.emit("merge", kind="nil", bucket=result.bucket)
        elif self.policy.merge == "guaranteed":
            self._rebalance_after_delete(key)
        return value

    def _rebalance_after_delete(self, probe_key: str) -> None:
        """Merge/borrow until the probe key's bucket meets the floor."""
        while True:
            result = self.trie.search(probe_key)
            if result.bucket is None:
                return
            if len(self.store.peek(result.bucket)) >= self.capacity // 2:
                return
            action = guaranteed_delete_maintenance(
                self.trie,
                self.store,
                result,
                self.capacity,
                self.alphabet,
            )
            if action == "merge":
                self.stats.merges += 1
                if TRACER.enabled:
                    TRACER.emit("merge", kind="guaranteed", bucket=result.bucket)
            elif action == "borrow":
                self.stats.borrows += 1
                if TRACER.enabled:
                    TRACER.emit("rebalance", kind="borrow", bucket=result.bucket)
            else:
                return

    # ------------------------------------------------------------------
    # Ordered iteration
    # ------------------------------------------------------------------
    def items(self) -> Iterator[tuple[str, object]]:
        """Iterate every record in key order (reads each bucket once, as
        one snapshot, like a scan)."""
        for address in self._buckets(self.trie.trail("")):
            keys, values = self._records(address)
            yield from zip(keys[:], values[:])

    def _buckets(
        self,
        trail: list[tuple[int, str]],
        forward: bool = True,
        stop: Optional[tuple[int, str]] = None,
    ) -> Iterator[int]:
        """Walk the distinct buckets from ``trail``'s leaf on, in key order.

        The walk steps ``trail`` in place (:meth:`Trie.step`), so at each
        yield it names a leaf of the yielded bucket. It reads the first
        leaf's pointer once and then takes each leaf's pointer from
        :meth:`Trie.step`, which has just read it. Nil leaves, and the
        repeated leaves of a bucket shared by several leaves, are skipped
        (Section 4.1: they cost no access). The walk ends after the leaf
        whose last trail step is ``stop`` (a ``(cell, side)`` tuple), or
        at the last (first) leaf of the trie. The caller must not resume
        it across a structural change of the file.
        """
        trie = self.trie
        ptr = trie.get_ptr(Location(*trail[-1])) if trail else trie.root
        previous = None
        while ptr is not None:
            if ptr != previous and ptr != NIL:
                previous = ptr
                yield ptr
            if trail and trail[-1] == stop:
                return
            ptr = trie.step(trail, forward)

    def _records(self, address: int) -> tuple[list[str], list[object]]:
        """The sorted keys and values of bucket ``address`` (one read).

        The one bucket read behind ordered and batched access; a variant
        that keeps records outside the bucket (overflow chains) merges
        them in here.
        """
        bucket = self.store.read(address)
        return bucket.keys, bucket.values

    def keys(self) -> Iterator[str]:
        """Iterate every key in order."""
        for key, _ in self.items():
            yield key

    def range_items(
        self, low: Optional[str] = None, high: Optional[str] = None
    ) -> Iterator[tuple[str, object]]:
        """Iterate records with ``low <= key <= high`` in key order.

        ``None`` bounds are open. This is the range-query support that
        order-preserving hashing buys (Section 2.2); consecutive leaves
        sharing a bucket cost a single access (Section 4.1's remark).
        """
        from .range_query import scan  # local import to avoid a cycle

        if TRACER.enabled:
            return TRACER.wrap_iter("range", scan(self, low, high))
        return scan(self, low, high)

    # ------------------------------------------------------------------
    # Batched operations
    # ------------------------------------------------------------------
    def _snapshot_model(self) -> BoundaryModel:
        """The current boundary model, cached across structural quiet.

        ``structure_generation`` only moves when buckets split, merge or
        move, so a snapshot taken at generation ``g`` stays valid for
        every batch until the generation changes — repeated batches pay
        for one model export, not one per call.
        """
        generation = self.structure_generation
        cached = self._model_cache
        if cached is not None and cached[0] == generation:
            return cached[1]
        model = self.trie.to_model()
        self._model_cache = (generation, model)
        return model

    def get_many(self, keys: Iterable[str]) -> dict[str, object]:
        """Batched point lookups: ``{key: value}`` for the keys present.

        Keys are validated, deduplicated and sorted once; the sorted run
        is located with a single merged pass over the boundary model
        (:meth:`BoundaryModel.locate_sorted`) and each bucket is read at
        most once per batch. Absent keys are omitted from the result
        (the batched analogue of a ``contains``-guarded ``get`` loop).
        """
        unique = sorted({self.alphabet.validate_key(k) for k in keys})
        out: dict[str, object] = {}
        if not unique:
            return out
        model = self._snapshot_model()
        gaps = model.locate_sorted(unique)
        children = model.children
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
                bucket_keys, bucket_values = self._records(address)
                buckets_visited += 1
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
        """Batched upsert of ``(key, value)`` pairs.

        Later occurrences of a duplicate key win (the same final state a
        per-key ``put`` loop reaches). Pairs are sorted once and grouped
        by target bucket from a model snapshot; a group that fits in its
        bucket is merged with a single write. Groups that overflow (or
        hit a nil leaf) fall back to the per-key path, which splits as
        needed.

        The one snapshot survives those structural changes when
        redistribution is off: a split or nil allocation only remaps
        keys of the bucket being worked on, and the sorted grouping puts
        all of those keys in the *current* group — later groups keep
        both their bucket address and their membership. Redistribution
        can move records (and the cut boundary) between neighbouring
        buckets, so those policies drop to the always-correct per-key
        path for the remainder as soon as the structure moves.
        """
        validate = self.alphabet.validate_key
        last_wins: dict[str, object] = {}
        for key, value in items:
            last_wins[validate(key)] = value
        pending = sorted(last_wins.items())
        total = len(pending)
        buckets_visited = 0
        generation = self.structure_generation
        model = self._snapshot_model()
        gaps = model.locate_sorted([key for key, _ in pending])
        children = model.children
        stale_safe = self.policy.redistribution == "none"
        i = 0
        n = len(pending)
        while i < n:
            if not stale_safe and self.structure_generation != generation:
                for key, value in pending[i:]:
                    self._store_record(key, value, replace=True)
                break
            address = children[gaps[i]]
            j = i + 1
            while j < n and children[gaps[j]] == address:
                j += 1
            if address is None:
                for key, value in pending[i:j]:
                    self._store_record(key, value, replace=True)
            else:
                buckets_visited += 1
                self._put_group(address, pending[i:j])
            i = j
        if TRACER.enabled:
            TRACER.emit(
                "batch", op="put_many", keys=total, buckets=buckets_visited
            )
        maybe_audit(self, "THFile.put_many(%d keys)", total)

    def _put_group(self, address, group):
        """Apply one bucket's worth of sorted upserts with one write."""
        bucket = self.store.read(address)
        bucket_keys = bucket.keys
        fresh = []
        for key, value in group:
            at = bisect.bisect_left(bucket_keys, key)
            if at < len(bucket_keys) and bucket_keys[at] == key:
                bucket.values[at] = value
            else:
                fresh.append((key, value))
        if len(bucket) + len(fresh) <= self.capacity:
            for key, value in fresh:
                bucket.insert(key, value)
            self.store.write(address, bucket)
            self.stats.inserts += len(fresh)
            self._size += len(fresh)
        else:
            # Persist the in-place replacements, then let the per-key
            # path split its way through the new records.
            self.store.write(address, bucket)
            for key, value in fresh:
                self._store_record(key, value, replace=True)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def bucket_count(self) -> int:
        """Number of allocated buckets (the paper's ``N + 1``)."""
        return self.store.allocated_count()

    def load_factor(self) -> float:
        """The paper's ``a = x / (b * (N + 1))``."""
        buckets = self.bucket_count()
        return self._size / (self.capacity * buckets) if buckets else 0.0

    def trie_size(self) -> int:
        """Number of trie cells (the paper's ``M``)."""
        return self.trie.node_count

    def growth_rate(self) -> float:
        """Cells per split, the paper's ``s = M / N`` (Section 4.5)."""
        splits = self.stats.splits + self.stats.nil_allocations
        return self.trie.node_count / splits if splits else 0.0

    def nil_leaf_fraction(self) -> float:
        """Fraction of leaves that are nil (basic method metric, §3.1)."""
        leaves = self.trie.leaves_in_order()
        if not leaves:
            return 0.0
        return sum(1 for _, ptr, _ in leaves if is_nil(ptr)) / len(leaves)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def check(self) -> None:
        """Verify every invariant tying trie, model and buckets together.

        Used pervasively by the test suite: the trie must satisfy the
        structural axioms; every stored key must map (through the trie
        *and* through the canonical model) to the bucket storing it; no
        bucket may exceed capacity; live buckets and reachable leaves
        must agree.
        """
        self.trie.check(expect_no_nil=not self.policy.nil_nodes)
        model = self.trie.to_model()
        reachable = {c for c in model.children if c is not None}
        live = set(self.store.live_addresses())
        if reachable != live:
            raise AssertionError(
                f"trie leaves {sorted(reachable)} != live buckets {sorted(live)}"
            )
        total = 0
        for address in live:
            bucket = self.store.peek(address)
            if len(bucket) > self.capacity:
                raise AssertionError(f"bucket {address} over capacity")
            total += len(bucket)
            for key in bucket.keys:
                mapped = model.lookup(key)
                if mapped != address:
                    raise AssertionError(
                        f"key {key!r} stored in bucket {address} but mapped "
                        f"to {mapped}"
                    )
                searched = self.trie.search(key)
                if searched.bucket != address:
                    raise AssertionError(
                        f"A1 maps {key!r} to {searched.bucket}, stored in "
                        f"{address}"
                    )
        if total != self._size:
            raise AssertionError(f"size {self._size} but {total} records stored")
