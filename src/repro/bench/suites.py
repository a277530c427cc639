"""The standard benchmark suites of the perf trajectory.

Each suite is a function ``(count, seed) -> dict`` driving a seeded
workload and returning one flat-ish JSON-ready document. Every suite
builds its files on the library's default trie backend, except the
``compact`` suite, which measures both. The documents mix two kinds of
numbers, and the distinction is load-bearing for the CI gate
(``scripts/bench_gate.py``):

* **structural** metrics — record counts, load factors, trie sizes,
  shard counts, convergence ratios, retry/dedup/fault counters,
  simulated clocks and simulated-latency percentiles. These are exact
  functions of ``(count, seed)`` (seeded ``random.Random``, simulated
  fabric time) and must reproduce bit-identically on any machine;
* **wall-clock rates** — every key ending in ``_per_s``. These measure
  the host and are only ratio-compared, within a generous tolerance.

The suites keep the default seeds (7 / 13 / 0) of the historical CI
benchmark scripts they replaced, so the committed trajectory is
continuous with the artifact numbers those scripts produced.
"""

from __future__ import annotations

import random
import time

from ..analysis.validation import evaluate
from ..core.bulk import bulk_load_th
from ..core.cursor import Cursor
from ..core.file import THFile
from ..distributed.chaos import run_chaos
from ..distributed.coordinator import Cluster, ShardPolicy
from ..distributed.faults import FaultPlan, RetryPolicy
from ..obs.metrics import MetricsRegistry
from ..obs.recorder import MetricsRecorder
from ..obs.tracer import TRACER
from ..workloads import KeyGenerator

__all__ = [
    "SUITES",
    "FAULT_RATES",
    "core_suite",
    "distributed_suite",
    "chaos_suite",
    "throughput_suite",
    "compact_suite",
    "serving_suite",
    "paper_suite",
]

#: Fault-rate sweep shared by the chaos and throughput suites.
FAULT_RATES = (0.0, 0.01, 0.05)


def _timed(fn):
    start = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - start


# ----------------------------------------------------------------------
# core: single-node TH
# ----------------------------------------------------------------------
def core_suite(count: int = 4000, seed: int = 7) -> dict:
    """Single-node TH: insert/search/scan/cursor/bulk-load rates."""
    keys = KeyGenerator(seed).uniform(count)
    ordered = sorted(keys)

    def build():
        f = THFile(bucket_capacity=20)
        for k in keys:
            f.insert(k)
        return f

    f, insert_s = _timed(build)
    probes = keys[::3]
    _, get_s = _timed(lambda: [f.get(k) for k in probes])
    lo, hi = ordered[count // 10], ordered[(9 * count) // 10]
    scanned, scan_s = _timed(lambda: sum(1 for _ in f.range_items(lo, hi)))

    def cursor_walk():
        cur = Cursor(f)
        cur.seek(lo)
        n = 0
        while cur.valid and cur.key() <= hi:
            n += 1
            cur.next()
        return n

    walked, cursor_s = _timed(cursor_walk)
    bulk, bulk_s = _timed(
        lambda: bulk_load_th(((k, None) for k in ordered), bucket_capacity=20)
    )
    return {
        "keys": count,
        "insert_ops_per_s": round(count / insert_s),
        "get_ops_per_s": round(len(probes) / get_s),
        "scan_records_per_s": round(scanned / scan_s),
        "cursor_records_per_s": round(walked / cursor_s),
        "bulk_load_ops_per_s": round(count / bulk_s),
        "load_factor": round(f.load_factor(), 4),
        "bulk_load_factor": round(bulk.load_factor(), 4),
        "trie_cells": f.trie_size(),
        "buckets": f.bucket_count(),
        "scan_records": scanned,
        "cursor_records": walked,
    }


# ----------------------------------------------------------------------
# distributed: the TH* shard layer
# ----------------------------------------------------------------------
def distributed_suite(count: int = 4000, seed: int = 13) -> dict:
    """TH* layer: routed throughput, scale-out, and image convergence."""
    registry = MetricsRegistry()
    already_tracing = TRACER.enabled
    if not already_tracing:
        TRACER.activate([MetricsRecorder(registry)])
    try:
        cluster = Cluster(
            shards=4,
            bucket_capacity=20,
            shard_policy=ShardPolicy(shard_capacity=max(64, count // 12)),
            registry=registry,
        )
        writer = cluster.client(warm=True)
        keys = KeyGenerator(seed).uniform(count)
        _, insert_s = _timed(lambda: [writer.insert(k) for k in keys])

        cold = cluster.client()
        warmup = keys[: max(50, count // 10)]
        for k in warmup:
            cold.contains(k)
        cold.reset_window()
        _, get_s = _timed(lambda: [cold.get(k) for k in keys[::3]])
        scanned, scan_s = _timed(lambda: sum(1 for _ in cold.items()))
        cluster.check()
        snapshot = registry.snapshot()
        return {
            "keys": count,
            "insert_ops_per_s": round(count / insert_s),
            "routed_get_ops_per_s": round(len(keys[::3]) / get_s),
            "scan_records_per_s": round(scanned / scan_s),
            "shards": cluster.shard_count(),
            "writer_convergence": round(writer.convergence(), 4),
            "cold_client_window_convergence": round(
                cold.convergence(window=True), 4
            ),
            "cold_client_iam_boundaries": cold.iam_boundaries,
            "forwards_total": sum(
                v
                for k, v in snapshot["counters"].items()
                if k.startswith("dist_forwards_total")
            ),
            "shard_splits": snapshot["counters"].get(
                "dist_shard_splits_total", 0
            ),
        }
    finally:
        if not already_tracing:
            TRACER.deactivate()


# ----------------------------------------------------------------------
# chaos: differential convergence under faults
# ----------------------------------------------------------------------
def chaos_rate_run(count: int, rate: float, seed: int = 0) -> dict:
    """One fault-rate point: differential run + throughput numbers."""
    start = time.perf_counter()
    report = run_chaos(
        ops=count,
        shards=4,
        seed=seed,
        durable=True,
        drop=rate,
        duplicate=rate,
        delay=rate,
        crash_cycles=3 if rate else 0,
        shard_capacity=max(128, count // 8),
    )
    wall = time.perf_counter() - start
    return {
        "fault_rate": rate,
        "ops": report.ops,
        "wall_ops_per_s": round(report.ops / wall),
        "sim_seconds": round(report.clock, 4),
        "faults_injected": report.faults,
        "retries": report.retries,
        "dedup_hits": report.dedup_hits,
        "crashes": report.crashes,
        "recoveries": report.recoveries,
        "duplicate_applies": report.duplicate_applies,
        "messages": report.messages,
        "forwards": report.forwards,
        "shards_final": report.shards,
        "records_final": report.records,
        "converged": report.converged,
    }


def replication_chaos_run(count: int, seed: int = 0) -> dict:
    """Failover chaos point: forced primary kills + a live migration.

    Every structural number (kills, failovers, the sim-clock MTTR) is an
    exact function of ``(count, seed)``; only ``wall_ops_per_s`` is
    host-dependent (and ratio-gated). The run itself is a correctness
    gate too: it raises unless the differential converged byte-identical
    through three promotions and a cutover with zero double-applies.
    """
    start = time.perf_counter()
    report = run_chaos(
        ops=count,
        shards=4,
        seed=seed,
        durable=True,
        drop=0.01,
        duplicate=0.01,
        delay=0.01,
        crash_cycles=0,
        kill_cycles=3,
        migrate_cycles=1,
        replication="semisync",
        shard_capacity=max(128, count // 8),
    )
    wall = time.perf_counter() - start
    return {
        "ops": report.ops,
        "kills": report.kills,
        "failovers": report.failovers,
        "migrations": report.migrations,
        "failover_mttr_sim_s": round(report.failover_mttr, 4),
        "duplicate_applies": report.duplicate_applies,
        "faults_injected": report.faults,
        "shards_final": report.shards,
        "records_final": report.records,
        "converged": report.converged,
        "wall_ops_per_s": round(report.ops / wall),
    }


def migration_load_run(count: int, seed: int = 0) -> dict:
    """Client throughput sustained *while* a region is being moved.

    Loads a replicated two-shard cluster, then interleaves a batch of
    client puts with each snapshot chunk of a live migration until the
    cutover barrier lands. ``migrate_ops_per_s`` is the wall rate of
    those puts (ratio-gated); batching ~20 puts per chunk keeps the
    measured window large enough for the 60% gate even at tiny counts.
    The op and record counts are structural.
    """
    cluster = Cluster(
        shards=2,
        bucket_capacity=16,
        shard_policy=ShardPolicy(shard_capacity=max(4096, count * 2)),
        durable=True,
        replication="semisync",
    )
    client = cluster.client(warm=True)
    keys = KeyGenerator(seed).uniform(count)
    for k in keys:
        client.put(k, k.upper())
    coordinator = cluster.coordinator
    source = min(coordinator.servers)
    start = time.perf_counter()
    coordinator.start_migration(source, chunk_size=max(8, count // 50))
    ops_during_move = 0
    while source in coordinator.migrations:
        for _ in range(20):
            client.put(keys[ops_during_move % len(keys)], "v2")
            ops_during_move += 1
        if not coordinator.step_migration(source):
            coordinator.finish_migration(source)
    wall = time.perf_counter() - start
    cluster.check()
    return {
        "records": count,
        "ops_during_move": ops_during_move,
        "migrate_ops_per_s": round(ops_during_move / wall),
        "migrations_done": coordinator.migrations_done,
        "shards_final": cluster.shard_count(),
    }


def chaos_suite(count: int = 2000, seed: int = 0) -> dict:
    """Differential chaos sweep across :data:`FAULT_RATES`.

    Every rate re-proves byte-identical convergence against the
    single-node oracle, so the suite doubles as an end-to-end
    correctness gate (``duplicate_applies`` must be zero everywhere).
    The ``replication`` and ``migration`` blocks extend the gate to the
    availability machinery: automatic failover under permanent kills,
    and client throughput while a region moves.
    """
    return {
        "differential": [
            chaos_rate_run(count, rate, seed) for rate in FAULT_RATES
        ],
        "replication": replication_chaos_run(count, seed),
        "migration": migration_load_run(max(400, count // 2), seed),
    }


# ----------------------------------------------------------------------
# throughput: the distributed path alone (no oracle mirroring)
# ----------------------------------------------------------------------
def _latency_stats(registry) -> dict:
    for inst in registry.instruments():
        if inst.name == "dist_op_seconds" and hasattr(inst, "percentile"):
            return {
                "sim_latency_p50_s": round(inst.percentile(50), 6),
                "sim_latency_p95_s": round(inst.percentile(95), 6),
                "sim_latency_p99_s": round(inst.percentile(99), 6),
                "sim_latency_mean_s": round(inst.mean, 6),
                "ops_measured": inst.total,
            }
    return {}


def throughput_rate_run(count: int, rate: float, seed: int = 0) -> dict:
    """Pure insert/get throughput under faults (no oracle mirroring).

    The differential run spends most of its time in the oracle and the
    comparisons; this pass measures the distributed path alone, with
    per-op simulated latency percentiles from ``dist_op_seconds``.
    """
    plan = FaultPlan(seed=seed, drop=rate, duplicate=rate, delay=rate)
    cluster = Cluster(
        shards=4,
        durable=True,
        shard_policy=ShardPolicy(shard_capacity=max(128, count // 8)),
        faults=plan,
        retry=RetryPolicy(max_retries=12),
    )
    client = cluster.client()
    rng = random.Random(seed)
    alphabet = "abcdefghijklmnopqrstuvwxyz"
    keys: list[str] = []
    seen = set()
    while len(keys) < count:
        key = "".join(rng.choice(alphabet) for _ in range(rng.randint(2, 8)))
        if key not in seen:
            seen.add(key)
            keys.append(key)
    start = time.perf_counter()
    for key in keys:
        client.insert(key, key.upper())
    insert_s = time.perf_counter() - start
    start = time.perf_counter()
    for key in keys[::3]:
        client.get(key)
    get_s = time.perf_counter() - start
    plan.heal()
    cluster.check()
    out = {
        "fault_rate": rate,
        "insert_ops_per_s": round(count / insert_s),
        "get_ops_per_s": round(len(keys[::3]) / get_s),
        "retries": client.retries_total,
    }
    out.update(_latency_stats(cluster.registry))
    return out


def throughput_suite(count: int = 2000, seed: int = 0) -> dict:
    """Raw distributed throughput sweep across :data:`FAULT_RATES`."""
    return {
        "throughput": [
            throughput_rate_run(count, rate, seed) for rate in FAULT_RATES
        ]
    }


# ----------------------------------------------------------------------
# compact: cells vs compact backends, per-key vs batched
# ----------------------------------------------------------------------
def compact_suite(count: int = 6000, seed: int = 7) -> dict:
    """The hot-path suite: both trie backends, per-key and batched.

    The workload is composite clustered keys (four long shared prefixes
    plus a short random suffix), where the descent dominates per-op cost
    — the regime the flat column layout exists for. Both backends build
    the same file (``backends_identical`` asserts byte-identical
    serialisation); rates are measured per backend, then batched
    ``get_many`` / ``put_many`` on the compact file.

    The ``*_speedup_x`` keys are wall-clock ratios against the cells
    per-key baseline (machine-dependent, ratio-gated like ``_per_s``).
    Batched put is measured as upserts into the built file — the regime
    where sorting once and visiting each bucket once pays off; a build
    from scratch is split-dominated, so it is kept only as the
    structural ``batch_built_records`` check. The suite always measures
    both backends, whatever the library default is.
    """
    prefixes = ["customerorderlineitem" + c for c in "abcd"]
    keys = KeyGenerator(seed).clustered(
        count, prefixes=prefixes, suffix_length=6
    )
    chunk = 1500

    def best(fn, reps: int = 3):
        # Best-of-N, like timeit: the minimum is the least noisy
        # estimate of the true cost on a shared machine, and every
        # timed body here is idempotent (rebuild or upsert), so
        # repetition is safe.
        out, best_s = None, float("inf")
        for _ in range(reps):
            out, elapsed = _timed(fn)
            best_s = min(best_s, elapsed)
        return out, best_s

    def build(backend: str) -> THFile:
        f = THFile(bucket_capacity=50, trie_backend=backend)
        for k in keys:
            f.insert(k)
        return f

    cells, cells_insert_s = best(lambda: build("cells"))
    compact, compact_insert_s = best(lambda: build("compact"))
    probes = keys
    _, cells_get_s = best(lambda: [cells.get(k) for k in probes])
    _, compact_get_s = best(lambda: [compact.get(k) for k in probes])

    def batched_get() -> int:
        found = 0
        for i in range(0, len(probes), chunk):
            found += len(compact.get_many(probes[i : i + chunk]))
        return found

    found, batch_get_s = best(batched_get)

    _, cells_put_s = best(lambda: [cells.put(k, "v") for k in keys])

    def batched_put() -> None:
        for i in range(0, count, chunk):
            compact.put_many([(k, "v") for k in keys[i : i + chunk]])

    _, batch_put_s = best(batched_put)

    batch_built = THFile(bucket_capacity=50, trie_backend="compact")
    for i in range(0, count, chunk):
        batch_built.put_many([(k, None) for k in keys[i : i + chunk]])

    from ..storage.serializer import serialize_trie

    return {
        "keys": count,
        "cells_insert_ops_per_s": round(count / cells_insert_s),
        "compact_insert_ops_per_s": round(count / compact_insert_s),
        "cells_get_ops_per_s": round(len(probes) / cells_get_s),
        "compact_get_ops_per_s": round(len(probes) / compact_get_s),
        "batch_get_ops_per_s": round(len(probes) / batch_get_s),
        "cells_put_ops_per_s": round(count / cells_put_s),
        "batch_put_ops_per_s": round(count / batch_put_s),
        "insert_speedup_x": round(cells_insert_s / compact_insert_s, 2),
        "get_speedup_x": round(cells_get_s / compact_get_s, 2),
        "batch_get_speedup_x": round(cells_get_s / batch_get_s, 2),
        "batch_put_speedup_x": round(cells_put_s / batch_put_s, 2),
        "found": found,
        "records": len(compact),
        "buckets": compact.bucket_count(),
        "trie_cells": compact.trie_size(),
        "load_factor": round(compact.load_factor(), 4),
        "backends_identical": serialize_trie(cells.trie)
        == serialize_trie(compact.trie),
        "batch_built_records": len(batch_built),
    }


# ----------------------------------------------------------------------
# serving: concurrent clients over a real asyncio UDS server
# ----------------------------------------------------------------------
def _wall_percentile(sorted_lats: list, q: float) -> float:
    index = min(len(sorted_lats) - 1, int(round(q / 100 * (len(sorted_lats) - 1))))
    return sorted_lats[index]


def serving_suite(count: int = 1200, seed: int = 0) -> dict:
    """Concurrent clients against a live UDS :class:`ServingServer`.

    Four synchronous sessions on four threads drive a striped insert
    phase and a one-in-three read-back phase against one server; every
    op is a real framed roundtrip through the codec, the dispatcher's
    micro-batching and the group-fsync barrier. Latencies are
    wall-clock (``*_ms_wall`` keys, ratio-gated downward like
    ``_per_s`` keys are gated upward); the key set and final record
    count are exact functions of ``(count, seed)``.
    """
    import threading

    from ..serving import ServingFixture

    clients = 4
    cluster = Cluster(
        shards=4,
        durable=True,
        shard_policy=ShardPolicy(shard_capacity=max(128, count // 8)),
    )
    rng = random.Random(seed)
    alphabet = "abcdefghijklmnopqrstuvwxyz"
    keys: list[str] = []
    seen = set()
    while len(keys) < count:
        key = "".join(rng.choice(alphabet) for _ in range(rng.randint(2, 8)))
        if key not in seen:
            seen.add(key)
            keys.append(key)

    latencies: list[float] = []
    lock = threading.Lock()

    def warm(session) -> None:
        # Read-only warm-up: first roundtrips pay thread/socket/bytecode
        # cold starts that would otherwise skew the measured percentiles.
        for _ in range(50):
            session.file.contains("warmup")

    def worker(session, part: list) -> None:
        lats = []
        for key in part:
            t0 = time.perf_counter()
            session.file.insert(key, key.upper())
            lats.append(time.perf_counter() - t0)
        for key in part[::3]:
            t0 = time.perf_counter()
            session.file.get(key)
            lats.append(time.perf_counter() - t0)
        with lock:
            latencies.extend(lats)

    with ServingFixture(cluster) as fixture:
        sessions = [fixture.open_session() for _ in range(clients)]
        warmers = [
            threading.Thread(target=warm, args=(session,))
            for session in sessions
        ]
        for thread in warmers:
            thread.start()
        for thread in warmers:
            thread.join()
        threads = [
            threading.Thread(
                target=worker, args=(session, keys[i::clients])
            )
            for i, session in enumerate(sessions)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall_s = time.perf_counter() - start
        stats = sessions[0].transport.control({"cmd": "stats"})

    latencies.sort()
    ops = len(latencies)
    return {
        "clients": clients,
        "ops": ops,
        "records_final": stats["records"],
        "duplicate_applies": stats["duplicate_applies"],
        "serving_ops_per_s": round(ops / wall_s),
        "p50_ms_wall": round(_wall_percentile(latencies, 50) * 1000, 4),
        "p95_ms_wall": round(_wall_percentile(latencies, 95) * 1000, 4),
        "p99_ms_wall": round(_wall_percentile(latencies, 99) * 1000, 4),
    }


# ----------------------------------------------------------------------
# paper: every registry experiment and every claim's verdict
# ----------------------------------------------------------------------
def paper_suite(count: int = 5000, seed: int = 42) -> dict:
    """Every paper experiment once, and whether each claim reproduced.

    ``count`` and ``seed`` reach only the experiments that take them
    (:func:`repro.analysis.validation.evaluate`); the scale-dependent
    ones keep their fixed sizes. Every number is structural, so the gate
    compares the whole document exactly. A claim that does not hold is a
    ``false`` verdict, not an exception. Both trie backends give the
    same tables.
    """
    tables, verdicts = evaluate(count, seed)
    return {
        "tables": tables,
        "claims": {claim: reason is None for claim, reason in verdicts.items()},
    }


#: Suite name -> (runner, default seed, one-line description).
SUITES: dict[str, tuple] = {
    "core": (core_suite, 7, "single-node TH rates and structure"),
    "distributed": (distributed_suite, 13, "TH* routing and convergence"),
    "chaos": (chaos_suite, 0, "differential convergence under faults"),
    "throughput": (throughput_suite, 0, "distributed path throughput"),
    "compact": (compact_suite, 7, "cells vs compact backends, per-key vs batched"),
    "serving": (serving_suite, 0, "concurrent clients over a real UDS server"),
    "paper": (paper_suite, 42, "every paper table and claim verdict"),
}
