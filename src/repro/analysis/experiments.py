"""One function per reproduced table or figure, and the registry of them.

Each function regenerates the data behind one artifact of the paper's
evaluation (see the per-experiment index in DESIGN.md / EXPERIMENTS.md)
and returns it as a list of row dictionaries ready for
:func:`~repro.analysis.reporting.format_table`. Sizes default to the
paper's (5 000 keys, ``b`` in 10..50) but scale down for fast tests.

:data:`EXPERIMENTS` is the one registry of them: ``trie-hashing list``,
``run`` and ``validate`` and the ``paper`` bench suite all read it, and
the claims of :mod:`repro.analysis.validation` name its ids.
"""

from __future__ import annotations

import inspect
import random
from collections.abc import Callable, Sequence
from typing import Optional

from ..btree import BPlusTree
from ..core.balance import depth_report
from ..core.errors import InvalidKeyError, KeyNotFoundError
from ..core.file import THFile
from ..core.merge import mergeable_couples
from ..core.mlth import MLTHFile
from ..core.policies import SplitPolicy
from ..core.reconstruct import reconstruct_trie
from ..distributed.chaos import chaos_table
from ..distributed.report import distributed_table
from ..storage.buckets import BucketStore
from ..storage.disk import SimulatedDisk
from ..storage.layout import Layout
from ..workloads.generators import KeyGenerator
from .capacity import capacity_table
from .distributions import boundary_length_histogram, summarize
from .metrics import access_cost, file_metrics
from .simulator import insert_all, load_series

__all__ = [
    "EXPERIMENTS",
    "run_experiment",
    "settings_of",
    "ablation_overflow",
    "boundary_length_table",
    "concurrency_table",
    "fig08_controlled",
    "fig10_ascending",
    "fig11_descending",
    "sec31_random",
    "sec32_unexpected",
    "sec32_expected",
    "sec45_guarantees",
    "sec45_redistribution",
    "growth_rate_table",
    "sec5_btree_comparison",
    "mlth_access_table",
    "mlth_split_shift_table",
    "deletions_table",
    "ablation_nil_nodes",
    "ablation_balance",
    "ablation_buffer",
    "oscillation_table",
    "reconstruction_table",
    "seed_stability_table",
]

Row = dict[str, object]


def _round(value: float, digits: int = 3) -> float:
    return round(value, digits)


# ----------------------------------------------------------------------
# Figure 8 — split control for descending insertions
# ----------------------------------------------------------------------
def fig08_controlled(count: int = 5000, seed: int = 42) -> list[Row]:
    """The bounding key bounds the split's randomness (b = 4).

    With the bounding key adjacent to the split key the split is
    deterministic: ``m`` = middle gives a guaranteed 50% load for
    descending insertions and ``m = 1`` gives 100%; the basic method's
    uncontrolled ``m = 1`` split stays below 100%.
    """
    keys = KeyGenerator(seed).descending_keys(count)
    rows: list[Row] = []
    for label, policy in (
        ("m = b/2+1, bounding m+1 (50% target)", SplitPolicy.thcl_guaranteed_half()),
        ("m = 1, bounding 2 (100% target)", SplitPolicy.thcl_descending(0)),
        ("m = 1, bounding 4 (d = 2)", SplitPolicy.thcl_descending(2)),
        ("basic TH, m = 1 (uncontrolled)", SplitPolicy(split_position=1)),
    ):
        f = insert_all(THFile(4, policy), keys)
        rows.append(
            {
                "configuration": label,
                "a%": _round(100 * f.load_factor(), 1),
                "M": f.trie_size(),
                "N": f.bucket_count(),
            }
        )
    return rows


# ----------------------------------------------------------------------
# Figure 10 — THCL, expected ascending insertions
# ----------------------------------------------------------------------
def fig10_ascending(
    count: int = 5000,
    bucket_capacities: Sequence[int] = (10, 20, 50),
    d_values: Sequence[int] = (0, 1, 2, 3, 4, 6, 8),
    seed: int = 42,
) -> list[Row]:
    """Load factor ``a%``, trie size ``M`` and file size ``N`` versus
    ``d = b - m`` for sorted (ascending) insertions of random keys.

    The paper's claims: ``a = 100%`` at ``d = 0``; ``M`` passes through a
    minimum at small ``d`` while ``a`` stays high; the growth rate ``s``
    at full load is well above the minimum-``M`` point's.
    """
    keys = KeyGenerator(seed).sorted_keys(count)
    rows: list[Row] = []
    for b in bucket_capacities:
        for d in d_values:
            if d >= b:
                continue
            policy = SplitPolicy(
                split_position=-(d + 1),
                bounding_offset=None,
                nil_nodes=False,
                merge="guaranteed",
            )
            f = insert_all(THFile(b, policy), keys)
            rows.append(
                {
                    "b": b,
                    "d": d,
                    "a%": _round(100 * f.load_factor(), 1),
                    "M": f.trie_size(),
                    "N": f.bucket_count(),
                    "s": _round(f.growth_rate(), 2),
                }
            )
    return rows


# ----------------------------------------------------------------------
# Figure 11 — THCL, expected descending insertions
# ----------------------------------------------------------------------
def fig11_descending(
    count: int = 5000,
    bucket_capacities: Sequence[int] = (10, 20, 50),
    d_values: Sequence[int] = (0, 1, 2, 3, 4, 6, 8),
    seed: int = 42,
) -> list[Row]:
    """Same sweep for descending insertions: ``m = 1`` and the bounding
    key at position ``m + 1 + d`` (the paper's ``d = m'' - m - 1``).

    Claims: ``a = 100%`` at ``d = 0``; ``M`` drops ~30% within small
    ``d`` then flattens, with ``a`` staying over 90%.
    """
    keys = KeyGenerator(seed).descending_keys(count)
    rows: list[Row] = []
    for b in bucket_capacities:
        for d in d_values:
            if d + 2 > b + 1:
                continue
            policy = SplitPolicy.thcl_descending(d)
            f = insert_all(THFile(b, policy), keys)
            rows.append(
                {
                    "b": b,
                    "d": d,
                    "a%": _round(100 * f.load_factor(), 1),
                    "M": f.trie_size(),
                    "N": f.bucket_count(),
                    "s": _round(f.growth_rate(), 2),
                }
            )
    return rows


def boundary_length_table(seed: int = 42) -> list[Row]:
    """Why the Fig 10 trie peaks at ``d = 0`` and then shrinks (b = 20).

    Section 4.5's explanation is distributional: adjacent-key cuts need
    longer split strings; lowering the split key shortens them but
    multiplies splits. Fixed at 5 000 sorted keys: smaller files are too
    short for the mean boundary length to fall monotonically.
    """
    keys = KeyGenerator(seed).sorted_keys(5000)
    rows: list[Row] = []
    for d in (0, 2, 4, 8):
        policy = SplitPolicy(
            split_position=-(d + 1),
            bounding_offset=None,
            nil_nodes=False,
            merge="guaranteed",
        )
        f = insert_all(THFile(20, policy), keys)
        stats = summarize(boundary_length_histogram(f.trie))
        rows.append(
            {
                "d": d,
                "M": f.trie_size(),
                "N": f.bucket_count(),
                "mean boundary len": stats["mean"],
                "max boundary len": stats["max"],
                "a%": _round(100 * f.load_factor(), 1),
            }
        )
    return rows


# ----------------------------------------------------------------------
# Section 3.1 — random insertions
# ----------------------------------------------------------------------
def sec31_random(
    count: int = 5000,
    bucket_capacities: Sequence[int] = (10, 20, 50),
    seed: int = 42,
    layout: Optional[Layout] = None,
) -> list[Row]:
    """Basic TH under random insertions: ``a_r`` ≈ 70%, negligible nil
    leaves, trie of ~N six-byte cells versus B-tree branch bytes."""
    layout = layout or Layout()
    keys = KeyGenerator(seed).uniform(count)
    rows: list[Row] = []
    for b in bucket_capacities:
        f = insert_all(THFile(b), keys)
        t = BPlusTree(leaf_capacity=b, layout=layout)
        for k in keys:
            t.insert(k)
        rows.append(
            {
                "b": b,
                "a_r%": _round(100 * f.load_factor(), 1),
                "M": f.trie_size(),
                "N+1": f.bucket_count(),
                "nil%": _round(100 * f.nil_leaf_fraction(), 2),
                "trie_bytes": layout.trie_bytes(f.trie_size()),
                "btree_a%": _round(100 * t.load_factor(), 1),
                "btree_index_bytes": t.index_bytes(),
            }
        )
    return rows


# ----------------------------------------------------------------------
# Section 3.2 — unexpected ordered insertions
# ----------------------------------------------------------------------
def sec32_unexpected(
    count: int = 5000,
    bucket_capacities: Sequence[int] = (10, 20, 50),
    fractions: Sequence[float] = (0.5, 0.4),
    seed: int = 42,
) -> list[Row]:
    """Basic TH receiving sorted keys with the split key tuned for random
    insertions: ``a_a`` within 60-73%, ``a_d`` within 40-55% at
    ``m = 0.5b``; lowering ``m`` toward ``0.4b`` trades ``a_a`` for
    ``a_d`` (both can exceed 50%), with ``a_r`` almost unaffected."""
    generator = KeyGenerator(seed)
    ascending = generator.sorted_keys(count)
    descending = list(reversed(ascending))
    shuffled = generator.uniform(count)
    rows: list[Row] = []
    for b in bucket_capacities:
        for fraction in fractions:
            policy = SplitPolicy(split_fraction=fraction)
            f_a = insert_all(THFile(b, policy), ascending)
            f_d = insert_all(THFile(b, policy), descending)
            f_r = insert_all(THFile(b, policy), shuffled)
            rows.append(
                {
                    "b": b,
                    "m": policy.split_index(b),
                    "a_a%": _round(100 * f_a.load_factor(), 1),
                    "a_d%": _round(100 * f_d.load_factor(), 1),
                    "a_r%": _round(100 * f_r.load_factor(), 1),
                    "nil_a%": _round(100 * f_a.nil_leaf_fraction(), 2),
                }
            )
    return rows


# ----------------------------------------------------------------------
# Section 3.2 / Figures 5-6 — expected ordered insertions, basic method
# ----------------------------------------------------------------------
def sec32_expected(
    count: int = 5000,
    bucket_capacities: Sequence[int] = (10, 20, 50),
    seed: int = 42,
) -> list[Row]:
    """Basic TH with the split key shifted for the expected order:
    ``m = b`` for ascending and ``m = 1`` for descending. Nil nodes
    (ascending) and split randomness (descending) cap the load at
    60-80% — the motivation for THCL."""
    generator = KeyGenerator(seed)
    ascending = generator.sorted_keys(count)
    descending = list(reversed(ascending))
    rows: list[Row] = []
    for b in bucket_capacities:
        f_a = insert_all(THFile(b, SplitPolicy(split_position=-1)), ascending)
        f_d = insert_all(THFile(b, SplitPolicy(split_position=1)), descending)
        rows.append(
            {
                "b": b,
                "a_a% (m=b)": _round(100 * f_a.load_factor(), 1),
                "nil_a%": _round(100 * f_a.nil_leaf_fraction(), 1),
                "a_d% (m=1)": _round(100 * f_d.load_factor(), 1),
                "nil_d%": _round(100 * f_d.nil_leaf_fraction(), 1),
            }
        )
    return rows


# ----------------------------------------------------------------------
# Section 4.5 — THCL guarantees
# ----------------------------------------------------------------------
def sec45_guarantees(
    count: int = 3000, bucket_capacity: int = 20, seed: int = 42
) -> list[Row]:
    """THCL's deterministic guarantees: 100% for the expected ordered
    load, exactly ~50% for unexpected ordered insertions in *either*
    direction, ~70% random, and a 50% floor under heavy deletions."""
    generator = KeyGenerator(seed)
    ascending = generator.sorted_keys(count)
    descending = list(reversed(ascending))
    shuffled = generator.uniform(count)
    b = bucket_capacity
    rows: list[Row] = []

    f = insert_all(THFile(b, SplitPolicy.thcl_ascending(0)), ascending)
    rows.append({"case": "expected ascending, d=0", "a%": _round(100 * f.load_factor(), 1)})
    f = insert_all(THFile(b, SplitPolicy.thcl_descending(0)), descending)
    rows.append({"case": "expected descending, d=0", "a%": _round(100 * f.load_factor(), 1)})
    f = insert_all(THFile(b, SplitPolicy.thcl_guaranteed_half()), ascending)
    rows.append({"case": "unexpected ascending", "a%": _round(100 * f.load_factor(), 1)})
    f = insert_all(THFile(b, SplitPolicy.thcl_guaranteed_half()), descending)
    rows.append({"case": "unexpected descending", "a%": _round(100 * f.load_factor(), 1)})
    f = insert_all(THFile(b, SplitPolicy.thcl_guaranteed_half()), shuffled)
    rows.append({"case": "random insertions", "a%": _round(100 * f.load_factor(), 1)})

    f = insert_all(THFile(b, SplitPolicy.thcl()), shuffled)
    rng = random.Random(seed)
    victims = list(ascending)
    rng.shuffle(victims)
    for key in victims[: int(count * 0.8)]:
        f.delete(key)
    min_fill = min(
        len(f.store.peek(a)) for a in f.store.live_addresses()
    )
    rows.append(
        {
            "case": "after deleting 80% (floor b//2)",
            "a%": _round(100 * f.load_factor(), 1),
            "min_bucket": min_fill,
        }
    )
    return rows


def sec45_redistribution(
    count: int = 3000, bucket_capacity: int = 20, seed: int = 42
) -> list[Row]:
    """Redistribution raises the random load toward the ~87% peak and
    pushes unexpected ordered loads toward 100% (Section 4.5), at the
    cost of extra accesses per split."""
    generator = KeyGenerator(seed)
    ascending = generator.sorted_keys(count)
    shuffled = generator.uniform(count)
    b = bucket_capacity
    rows: list[Row] = []
    for label, keys in (("random", shuffled), ("unexpected ascending", ascending)):
        for policy_label, policy in (
            ("plain THCL", SplitPolicy.thcl_guaranteed_half()),
            ("with redistribution", SplitPolicy.thcl_redistributing()),
            ("redistribution, compact", SplitPolicy.thcl_redistributing("compact")),
        ):
            f = insert_all(THFile(b, policy), keys)
            rows.append(
                {
                    "order": label,
                    "policy": policy_label,
                    "a%": _round(100 * f.load_factor(), 1),
                    "M": f.trie_size(),
                    "redistributions": f.stats.redistributions,
                    "splits": f.stats.splits,
                }
            )
    return rows


def oscillation_table(seed: int = 42) -> list[Row]:
    """The ~87% redistribution load is a peak, not a steady state.

    Section 4.5: buckets fill up almost simultaneously and then split
    almost simultaneously, so the load oscillates. The series is sampled
    every 50 inserts after the first 500 (b = 20). Fixed at 5 000 keys:
    smaller files do not run long enough to show the swing.
    """
    keys = KeyGenerator(seed).uniform(5000)
    rows: list[Row] = []
    for label, policy in (
        ("plain THCL", SplitPolicy.thcl_guaranteed_half()),
        ("with redistribution", SplitPolicy.thcl_redistributing()),
    ):
        series = load_series(THFile(20, policy), keys, every=50)
        loads = [r["load_factor"] for r in series if r["inserted"] > 500]
        rows.append(
            {
                "policy": label,
                "mean%": _round(100 * sum(loads) / len(loads), 1),
                "peak%": _round(100 * max(loads), 1),
                "trough%": _round(100 * min(loads), 1),
                "swing": _round(100 * (max(loads) - min(loads)), 1),
            }
        )
    return rows


# ----------------------------------------------------------------------
# Section 4.5 — trie growth rate and bytes per split
# ----------------------------------------------------------------------
def growth_rate_table(
    count: int = 5000,
    bucket_capacities: Sequence[int] = (10, 20, 50),
    seed: int = 42,
    layout: Optional[Layout] = None,
) -> list[Row]:
    """The growth rate ``s = M/N`` and bytes per split for full-load and
    near-minimal-``M`` configurations, against the B-tree's key+pointer
    bytes per split (20-50 bytes typical)."""
    layout = layout or Layout()
    generator = KeyGenerator(seed)
    ascending = generator.sorted_keys(count)
    descending = list(reversed(ascending))
    rows: list[Row] = []
    for b in bucket_capacities:
        cases = [
            ("ascending, full load (d=0)", THFile(b, SplitPolicy.thcl_ascending(0)), ascending),
            (
                "ascending, near-min M (d=2)",
                THFile(
                    b,
                    SplitPolicy(
                        split_position=-(3),
                        bounding_offset=None,
                        nil_nodes=False,
                        merge="guaranteed",
                    ),
                ),
                ascending,
            ),
            ("descending, full load (d=0)", THFile(b, SplitPolicy.thcl_descending(0)), descending),
            ("descending, d=3", THFile(b, SplitPolicy.thcl_descending(3)), descending),
        ]
        for label, f, keys in cases:
            insert_all(f, keys)
            s = f.growth_rate()
            rows.append(
                {
                    "b": b,
                    "case": label,
                    "a%": _round(100 * f.load_factor(), 1),
                    "s": _round(s, 2),
                    "bytes/split": _round(s * layout.cell_bytes, 1),
                    "btree bytes/split": layout.key_bytes + layout.pointer_bytes,
                }
            )
    return rows


# ----------------------------------------------------------------------
# Section 5 — the B-tree comparison
# ----------------------------------------------------------------------
def sec5_btree_comparison(
    count: int = 5000,
    bucket_capacity: int = 20,
    seed: int = 42,
    layout: Optional[Layout] = None,
) -> list[Row]:
    """TH/THCL versus a B+-tree on the paper's criteria: load factor,
    disk accesses per search and per insert, and index size — for random
    and for ordered insertions."""
    layout = layout or Layout()
    generator = KeyGenerator(seed)
    shuffled = generator.uniform(count)
    ascending = sorted(shuffled)
    b = bucket_capacity
    probe = generator.uniform(200, salt=9)
    rows: list[Row] = []

    def measure(name: str, build, keys) -> None:
        f = build()
        # Average insert cost over the whole load.
        total_before = sum(d.stats.accesses for d in _disks(f))
        for k in keys:
            f.insert(k)
        insert_cost = (
            sum(d.stats.accesses for d in _disks(f)) - total_before
        ) / len(keys)
        search_costs = []
        for key in probe:
            search_costs.append(
                access_cost(f, lambda k=key: _safe_get(f, k))["accesses"]
            )
        metrics = file_metrics(f, layout)
        rows.append(
            {
                "method": name,
                "order": "random" if keys is shuffled else "ascending",
                "a%": _round(100 * metrics.get("load_factor", 0.0), 1),
                "search_acc": _round(sum(search_costs) / len(search_costs), 2),
                "insert_acc": _round(insert_cost, 2),
                "index_bytes": int(metrics.get("index_bytes", 0)),
            }
        )

    for keys in (shuffled, ascending):
        measure("TH (basic)", lambda: THFile(b), keys)
        measure(
            "THCL (m=b, shared leaves)" if keys is ascending else "THCL",
            lambda keys=keys: THFile(
                b,
                SplitPolicy.thcl_ascending(0)
                if keys is ascending
                else SplitPolicy.thcl_guaranteed_half(),
            ),
            keys,
        )
        measure(
            "B+-tree (0.5)" if keys is shuffled else "B+-tree (compact 1.0)",
            lambda keys=keys: BPlusTree(
                leaf_capacity=b,
                split_fraction=1.0 if keys is ascending else 0.5,
                layout=layout,
                pin_root=False,
            ),
            keys,
        )
    return rows


def _disks(file) -> list[SimulatedDisk]:
    disks = []
    if hasattr(file, "store"):
        disks.append(file.store.disk)
    if hasattr(file, "page_disk"):
        disks.append(file.page_disk)
    if hasattr(file, "disk") and file.disk not in disks:
        disks.append(file.disk)
    return disks


def _safe_get(file, key: str):
    try:
        return file.get(key)
    except (KeyNotFoundError, InvalidKeyError):
        return None


# ----------------------------------------------------------------------
# Section 3.1 — MLTH access behaviour
# ----------------------------------------------------------------------
def mlth_access_table(
    counts: Sequence[int] = (500, 2000, 8000),
    bucket_capacity: int = 10,
    page_capacity: int = 32,
    seed: int = 42,
) -> list[Row]:
    """MLTH: levels, page loads and per-search accesses as the file
    grows — two page levels (and thus two disk accesses with the root in
    core) covering large files."""
    rows: list[Row] = []
    for count in counts:
        keys = KeyGenerator(seed).uniform(count)
        f = MLTHFile(
            bucket_capacity=bucket_capacity, page_capacity=page_capacity
        )
        insert_all(f, keys)
        probes = keys[:100]
        page_reads = bucket_reads = 0
        for key in probes:
            p, bkt = f.search_cost(key)
            page_reads += p
            bucket_reads += bkt
        rows.append(
            {
                "records": count,
                "levels": f.levels(),
                "pages": f.page_count(),
                "page_load%": _round(100 * f.page_load_factor(), 1),
                "bucket_a%": _round(100 * f.load_factor(), 1),
                "page_reads/search": _round(page_reads / len(probes), 2),
                "bucket_reads/search": _round(bucket_reads / len(probes), 2),
            }
        )
    return rows


def mlth_split_shift_table(seed: int = 42) -> list[Row]:
    """Section 3.2's refinement: shift the split node for ordered loads.

    Page loads of an ascending MLTH load (b = 10, b' = 32) for each
    split-node pick. Fixed at 5 000 sorted keys: smaller files stop
    short of the 70-87% page-load band.
    """
    keys = KeyGenerator(seed).sorted_keys(5000)
    rows: list[Row] = []
    for pick in ("balanced", "first", "last"):
        f = MLTHFile(
            bucket_capacity=10,
            page_capacity=32,
            policy=SplitPolicy(nil_nodes=False, bounding_offset=None, merge="none"),
            split_node_pick=pick,
        )
        insert_all(f, keys)
        rows.append(
            {
                "split node": pick,
                "page_load%": _round(100 * f.page_load_factor(), 1),
                "pages": f.page_count(),
                "bucket_a%": _round(100 * f.load_factor(), 1),
            }
        )
    return rows


# ----------------------------------------------------------------------
# Sections 2.4 / 3.3 / 4.3 — deletions
# ----------------------------------------------------------------------
def deletions_table(
    count: int = 2000, bucket_capacity: int = 10, seed: int = 42
) -> list[Row]:
    """Deletion behaviour: the basic method's limited sibling merging
    (with the 4-vs-8-couples rotation analysis) against THCL's
    guaranteed floor."""
    generator = KeyGenerator(seed)
    keys = generator.uniform(count)
    victims = list(keys)
    random.Random(seed).shuffle(victims)
    cut = int(count * 0.75)
    rows: list[Row] = []

    basic = insert_all(THFile(bucket_capacity), keys)
    siblings, rotations = mergeable_couples(basic.trie)
    couples = max(len(basic.trie.leaves_in_order()) - 1, 1)
    for key in victims[:cut]:
        basic.delete(key)
    rows.append(
        {
            "method": "basic TH",
            "mergeable": f"{len(siblings)}/{couples}",
            "with_rotations": f"{len(rotations)}/{couples}",
            "a% after 75% deleted": _round(100 * basic.load_factor(), 1),
            "min_bucket": min(
                (len(basic.store.peek(a)) for a in basic.store.live_addresses()),
                default=0,
            ),
        }
    )

    rotating = insert_all(
        THFile(bucket_capacity, SplitPolicy(merge="rotations")), keys
    )
    for key in victims[:cut]:
        rotating.delete(key)
    rows.append(
        {
            "method": "basic TH + rotations",
            "mergeable": "-",
            "with_rotations": "-",
            "a% after 75% deleted": _round(100 * rotating.load_factor(), 1),
            "min_bucket": min(
                (
                    len(rotating.store.peek(a))
                    for a in rotating.store.live_addresses()
                ),
                default=0,
            ),
        }
    )

    thcl = insert_all(THFile(bucket_capacity, SplitPolicy.thcl()), keys)
    for key in victims[:cut]:
        thcl.delete(key)
    rows.append(
        {
            "method": "THCL (guaranteed)",
            "mergeable": "all couples",
            "with_rotations": "-",
            "a% after 75% deleted": _round(100 * thcl.load_factor(), 1),
            "min_bucket": min(
                (len(thcl.store.peek(a)) for a in thcl.store.live_addresses()),
                default=0,
            ),
        }
    )
    return rows


# ----------------------------------------------------------------------
# Section 6 / /VID87/ — concurrency
# ----------------------------------------------------------------------
def concurrency_table(
    count: int = 2000,
    operations: int = 1000,
    client_counts: Sequence[int] = (1, 4, 16),
    bucket_capacity: int = 10,
    seed: int = 42,
) -> list[Row]:
    """TH vs B-tree under concurrent clients (/VID87/'s claim).

    The same mixed workload (50% searches, 50% inserts) is replayed
    through each method's locking protocol: TH locks only the target
    bucket (plus the counter ``N`` on splits); the B-tree lock-couples
    down from the root. Reported: lock conflicts, ticks spent blocked,
    and throughput, per client count.
    """
    from ..concurrency import (
        btree_operation_schedule,
        simulate_clients,
        th_operation_schedule,
    )

    generator = KeyGenerator(seed)
    present = generator.uniform(count)
    fresh = [k for k in generator.uniform(operations, salt=3) if k not in set(present)]
    searches = present[: operations - len(fresh)]

    def schedules(method: str) -> list[list[tuple]]:
        out: list[list[tuple]] = []
        if method == "TH":
            f = THFile(bucket_capacity)
            for k in present:
                f.insert(k)
            for i in range(max(len(fresh), len(searches))):
                if i < len(fresh):
                    out.append(th_operation_schedule(f, "insert", fresh[i]))
                if i < len(searches):
                    out.append(th_operation_schedule(f, "search", searches[i]))
        else:
            t = BPlusTree(leaf_capacity=bucket_capacity)
            for k in present:
                t.insert(k)
            for i in range(max(len(fresh), len(searches))):
                if i < len(fresh):
                    out.append(btree_operation_schedule(t, "insert", fresh[i]))
                if i < len(searches):
                    out.append(btree_operation_schedule(t, "search", searches[i]))
        return out

    rows: list[Row] = []
    for method in ("TH", "B+-tree"):
        ops = schedules(method)
        for clients in client_counts:
            report = simulate_clients(ops, clients)
            rows.append(
                {
                    "method": method,
                    "clients": clients,
                    "conflicts": report.conflicts,
                    "wait_ticks": report.wait_ticks,
                    "makespan": report.makespan,
                    "throughput": _round(1000 * report.throughput, 1),
                    "utilization%": _round(100 * report.utilization, 1),
                }
            )
    return rows


# ----------------------------------------------------------------------
# Ablations (design choices DESIGN.md calls out)
# ----------------------------------------------------------------------
def ablation_nil_nodes(
    count: int = 3000, bucket_capacity: int = 20, seed: int = 42
) -> list[Row]:
    """Nil nodes (basic) vs shared leaves (THCL) at the same split key:
    the paper's surprising Section 4.5 note that the basic method's trie
    is smaller at the middle split key, while THCL wins under shifted
    split keys."""
    generator = KeyGenerator(seed)
    ascending = generator.sorted_keys(count)
    rows: list[Row] = []
    for label, basic_policy, thcl_policy in (
        (
            "m = middle",
            SplitPolicy.basic_th(),
            SplitPolicy(bounding_offset=None, nil_nodes=False, merge="guaranteed"),
        ),
        (
            "m = b",
            SplitPolicy(split_position=-1),
            SplitPolicy(
                split_position=-1,
                bounding_offset=None,
                nil_nodes=False,
                merge="guaranteed",
            ),
        ),
    ):
        f_basic = insert_all(THFile(bucket_capacity, basic_policy), ascending)
        f_thcl = insert_all(THFile(bucket_capacity, thcl_policy), ascending)
        rows.append(
            {
                "split key": label,
                "basic a%": _round(100 * f_basic.load_factor(), 1),
                "basic M": f_basic.trie_size(),
                "basic nil%": _round(100 * f_basic.nil_leaf_fraction(), 1),
                "thcl a%": _round(100 * f_thcl.load_factor(), 1),
                "thcl M": f_thcl.trie_size(),
            }
        )
    return rows


def ablation_balance(
    count: int = 3000, bucket_capacity: int = 10, seed: int = 42
) -> list[Row]:
    """Trie balancing: depth before/after the canonical rebuild, for
    random, ascending and skewed key sources (Section 2.6: only the
    in-core search time changes)."""
    generator = KeyGenerator(seed)
    sources = {
        "random": generator.uniform(count),
        "ascending": generator.sorted_keys(count),
        "skewed": generator.skewed(count),
    }
    rows: list[Row] = []
    for label, keys in sources.items():
        f = insert_all(THFile(bucket_capacity), keys)
        report = depth_report(f.trie)
        rows.append(
            {
                "workload": label,
                "nodes": report.node_count,
                "depth": report.depth_before,
                "balanced depth": report.depth_after,
            }
        )
    return rows


def multikey_grid_table(
    count: int = 1500,
    bucket_capacity: int = 8,
    concentrations: Sequence[float] = (0.0, 1.5, 3.0),
    seed: int = 42,
) -> list[Row]:
    """Multikey TH vs the grid-file directory model (Section 6).

    Two-attribute points at increasing skew: the grid directory (cross
    product of dimension scales) grows multiplicatively with skew while
    the interleaved trie grows like the data. Also reports rectangle
    query selectivity through the z-order scan.
    """
    from ..multikey import GridDirectoryModel, MultikeyTHFile

    generator = KeyGenerator(seed)
    rows: list[Row] = []
    for concentration in concentrations:
        if concentration <= 0:
            a = generator.uniform(count, length=4, salt=1)
            b = generator.uniform(count, length=4, salt=2)
        else:
            a = generator.skewed(count, length=4, concentration=concentration, salt=1)
            b = generator.skewed(count, length=4, concentration=concentration, salt=2)
        points = sorted(set(zip(a, b)))
        grid = GridDirectoryModel(2, bucket_capacity=bucket_capacity)
        trie = MultikeyTHFile((4, 4), bucket_capacity=bucket_capacity)
        for p in points:
            grid.insert(p)
            trie.insert(p)
        matches, scanned = trie.rectangle_stats(("c", "c"), ("j", "j"))
        rows.append(
            {
                "skew": concentration,
                "points": len(points),
                "grid_directory": grid.directory_size(),
                "grid_occupied": grid.occupied_cells(),
                "trie_cells": trie.directory_size(),
                "ratio": _round(grid.directory_size() / max(trie.directory_size(), 1), 2),
                "rect_matches": matches,
                "rect_scanned": scanned,
            }
        )
    return rows


def ablation_overflow(
    count: int = 3000, bucket_capacity: int = 10, seed: int = 42
) -> list[Row]:
    """Deferred splitting (overflow chains) vs plain TH.

    The Section 6 'overflow' idea: spill into a private overflow bucket
    before really splitting. Load factor rises well above ~70%; searches
    pay a second access when they fall through to the chain.
    """
    from ..core.overflow import OverflowTHFile

    keys = KeyGenerator(seed).uniform(count)
    rows: list[Row] = []
    for label, f in (
        ("plain TH", THFile(bucket_capacity, SplitPolicy(merge="none"))),
        ("overflow chaining", OverflowTHFile(bucket_capacity)),
    ):
        for k in keys:
            f.insert(k)
        reads_before = f.store.disk.stats.reads
        probes = keys[:500]
        for k in probes:
            f.get(k)
        per_search = (f.store.disk.stats.reads - reads_before) / len(probes)
        row = {
            "method": label,
            "a%": _round(100 * f.load_factor(), 1),
            "M": f.trie_size(),
            "buckets": f.bucket_count(),
            "reads/search": _round(per_search, 2),
        }
        if hasattr(f, "chain_fraction"):
            row["chained%"] = _round(100 * f.chain_fraction(), 1)
        rows.append(row)
    return rows


def ablation_buffer(
    count: int = 3000,
    bucket_capacity: int = 10,
    buffer_sizes: Sequence[int] = (0, 16, 128),
    seed: int = 42,
) -> list[Row]:
    """Bucket buffer-pool size versus disk reads for a probe workload —
    quantifying how far caching moves the one-access baseline."""
    keys = KeyGenerator(seed).uniform(count)
    probes = KeyGenerator(seed + 1).uniform(500, salt=3)
    rows: list[Row] = []
    for size in buffer_sizes:
        store = BucketStore(buffer_capacity=size)
        f = insert_all(THFile(bucket_capacity, store=store), keys)
        before = store.disk.stats.reads
        hits_before = store.pool.hits
        for key in probes:
            _safe_get(f, key)
        rows.append(
            {
                "buffer (buckets)": size,
                "disk reads / 500 probes": store.disk.stats.reads - before,
                "pool hits": store.pool.hits - hits_before,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Robustness and Section 6 reconstruction
# ----------------------------------------------------------------------
def seed_stability_table() -> list[Row]:
    """The headline loads across independent key draws (b = 20).

    The guarantees are distribution-free, so they must hold exactly for
    every seed (compact ascending 100%, unexpected descending >= 50%);
    the statistical random load must stay in its ~70% band. Three fixed
    seeds of 2 000 keys each.
    """
    rows: list[Row] = []
    for seed in (11, 42, 1981):
        generator = KeyGenerator(seed)
        keys = generator.sorted_keys(2000)
        shuffled = generator.uniform(2000, salt=1)
        compact = insert_all(THFile(20, SplitPolicy.thcl_ascending(0)), keys)
        half = insert_all(
            THFile(20, SplitPolicy.thcl_guaranteed_half()), reversed(keys)
        )
        random_file = insert_all(THFile(20), shuffled)
        rows.append(
            {
                "seed": seed,
                "compact a%": _round(100 * compact.load_factor(), 1),
                "desc half a%": _round(100 * half.load_factor(), 1),
                "random a%": _round(100 * random_file.load_factor(), 1),
            }
        )
    return rows


def reconstruction_table(seed: int = 42) -> list[Row]:
    """Section 6: the trie rebuilds from the bucket headers alone.

    A basic TH file of 800 random keys (b = 20) loses its trie; the trie
    rebuilt from the buckets must route 200 of the keys to the same
    bucket as the original.
    """
    keys = KeyGenerator(seed).uniform(800)
    f = insert_all(THFile(20), keys)
    rebuilt = reconstruct_trie(f.store, f.alphabet)
    probes = keys[:200]
    return [
        {
            "records": len(f),
            "buckets": f.bucket_count(),
            "probes": len(probes),
            "same bucket": sum(
                rebuilt.search(k).bucket == f.trie.search(k).bucket
                for k in probes
            ),
        }
    ]


#: Experiment id -> (runner, description). The one registry of paper
#: tables: ``trie-hashing list`` / ``run`` / ``validate`` and the
#: ``paper`` bench suite read it, and every claim names one of its ids.
EXPERIMENTS: dict[str, tuple[Callable[..., list[Row]], str]] = {
    "fig8": (fig08_controlled, "split control for descending insertions, b=4"),
    "fig10": (fig10_ascending, "THCL ascending sweep: a%, M, N vs d = b - m"),
    "fig11": (fig11_descending, "THCL descending sweep: a%, M, N vs bounding d"),
    "boundary-length": (boundary_length_table, "Fig 10 mechanics: boundary lengths vs d"),
    "sec31": (sec31_random, "random insertions: a_r, nil leaves, index bytes"),
    "sec32-unexpected": (sec32_unexpected, "unexpected ordered insertions"),
    "sec32-expected": (sec32_expected, "expected ordered insertions, basic TH"),
    "sec45": (sec45_guarantees, "THCL guarantees (100% / 50% / deletions)"),
    "sec45-redistribution": (sec45_redistribution, "redistribution loads"),
    "oscillation": (oscillation_table, "redistribution load oscillation"),
    "growth": (growth_rate_table, "trie growth rate s and bytes per split"),
    "capacity": (capacity_table, "Section 3.1 capacity arithmetic"),
    "sec5": (sec5_btree_comparison, "TH vs B+-tree comparison"),
    "concurrency": (concurrency_table, "TH vs B-tree lock conflicts (/VID87/)"),
    "mlth": (mlth_access_table, "MLTH levels, page loads, accesses"),
    "mlth-split-shift": (mlth_split_shift_table, "MLTH split-node shift, ordered load"),
    "multikey": (multikey_grid_table, "multikey TH vs grid-file directory"),
    "deletions": (deletions_table, "deletion/merging behaviour"),
    "ablation-nil": (ablation_nil_nodes, "nil nodes vs shared leaves"),
    "ablation-balance": (ablation_balance, "trie balancing depths"),
    "ablation-buffer": (ablation_buffer, "buffer pool vs disk reads"),
    "ablation-overflow": (ablation_overflow, "deferred splitting via overflow chains"),
    "seed-stability": (seed_stability_table, "headline loads across key seeds"),
    "reconstruction": (reconstruction_table, "trie rebuilt from bucket headers"),
    "distributed": (distributed_table, "TH* client image convergence vs scale-out"),
    "chaos": (chaos_table, "TH* differential convergence under injected faults"),
}

#: A ``run`` setting -> the runner parameters that take it. A runner
#: sweeping several bucket capacities takes one as a 1-tuple.
_SETTINGS = {
    "count": ("count",),
    "seed": ("seed",),
    "bucket_capacity": ("bucket_capacity", "bucket_capacities"),
}


def settings_of(experiment_id: str) -> list[str]:
    """The settings (``count``, ``seed``, ``bucket_capacity``) an
    experiment takes, in that order."""
    params = inspect.signature(EXPERIMENTS[experiment_id][0]).parameters
    return [
        name
        for name, takers in _SETTINGS.items()
        if any(taker in params for taker in takers)
    ]


def run_experiment(experiment_id: str, **settings: int) -> list[Row]:
    """Run one registry entry with the given settings and return its rows.

    A setting the experiment does not take (see :func:`settings_of`)
    raises ``TypeError``; it is never silently dropped.
    """
    runner = EXPERIMENTS[experiment_id][0]
    kwargs: dict[str, object] = dict(settings)
    if "bucket_capacity" in kwargs and (
        "bucket_capacities" in inspect.signature(runner).parameters
    ):
        kwargs["bucket_capacities"] = (kwargs.pop("bucket_capacity"),)
    return runner(**kwargs)
