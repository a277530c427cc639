"""Chaos harness: randomized fault schedules vs. the differential oracle.

A chaos run drives the same mixed workload at a fault-injected cluster
and a single-node :class:`~repro.core.file.THFile` oracle, operation by
operation. While the :class:`~repro.distributed.faults.FaultPlan` drops,
duplicates and delays messages and crash-restarts durable servers mid
workload, every operation's *observed outcome* (value or exception
type) must match the oracle exactly — the retry + dedup protocol makes
the faults invisible. When the schedule heals, the surviving cluster
must hold a byte-identical record set, pass every structural invariant,
and show **zero** double-applied mutations in the router's audit trail.

:func:`run_chaos` is the single-run entry (the chaos tests and the
Hypothesis stateful suite call it with many seeds);
:func:`chaos_table` sweeps fault rates for the CLI and the chaos
benchmark.
"""

from __future__ import annotations

import random
from typing import Optional

from ..check import maybe_audit
from ..core.errors import DuplicateKeyError, KeyNotFoundError
from ..core.file import THFile
from ..obs.export import JsonlTraceWriter
from ..obs.flight import FLIGHT
from ..obs.tracer import TRACER
from .coordinator import Cluster, ShardPolicy
from .errors import ConfigurationError
from .faults import FaultPlan, RetryPolicy
from .replication import ReplicationPolicy

__all__ = ["ChaosReport", "run_chaos", "chaos_table"]

_WORKLOAD_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


class ChaosReport:
    """The outcome and audit counters of one chaos run."""

    __slots__ = (
        "ops",
        "seed",
        "shards",
        "records",
        "faults",
        "retries",
        "dedup_hits",
        "crashes",
        "recoveries",
        "duplicate_applies",
        "messages",
        "forwards",
        "clock",
        "converged",
        "kills",
        "failovers",
        "migrations",
        "failover_mttr",
    )

    def __init__(self) -> None:
        self.ops = 0
        self.seed = 0
        self.shards = 0
        self.records = 0
        self.faults = 0
        self.retries = 0
        self.dedup_hits = 0
        self.crashes = 0
        self.recoveries = 0
        self.duplicate_applies = 0
        self.messages = 0
        self.forwards = 0
        self.clock = 0.0
        self.converged = False
        #: Forced permanent primary kills (each must end in a failover).
        self.kills = 0
        self.failovers = 0
        self.migrations = 0
        #: Mean sim-seconds from a forced kill to its backup's promotion.
        self.failover_mttr = 0.0

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ChaosReport(ops={self.ops}, faults={self.faults}, "
            f"retries={self.retries}, dedup_hits={self.dedup_hits}, "
            f"crashes={self.crashes}, dup_applies={self.duplicate_applies}, "
            f"converged={self.converged})"
        )


def _counter_sum(registry, name: str) -> float:
    """Sum a counter family across every label set."""
    total = 0.0
    for inst in registry.instruments():
        if inst.name == name and hasattr(inst, "value") and not hasattr(inst, "set"):
            total += inst.value
    return total


def _expect(observed, expected, context: str) -> None:
    if observed != expected:
        raise AssertionError(
            f"chaos divergence at {context}: cluster said {observed!r}, "
            f"oracle said {expected!r}"
        )


def _mutate_both(action, cluster_call, oracle_call, context: str) -> None:
    """Run one mutation on both sides; outcomes (value/error) must match."""
    expected_error: Optional[type] = None
    expected_value = None
    try:
        expected_value = oracle_call()
    except (DuplicateKeyError, KeyNotFoundError) as exc:
        expected_error = type(exc)
    try:
        observed = cluster_call()
    except (DuplicateKeyError, KeyNotFoundError) as exc:
        if expected_error is not type(exc):
            raise AssertionError(
                f"chaos divergence at {context}: cluster raised "
                f"{type(exc).__name__}, oracle "
                f"{'raised ' + expected_error.__name__ if expected_error else 'succeeded'}"
            ) from exc
        return
    if expected_error is not None:
        raise AssertionError(
            f"chaos divergence at {context}: cluster succeeded, oracle "
            f"raised {expected_error.__name__}"
        )
    if action == "delete":
        _expect(observed, expected_value, context)


def run_chaos(
    ops: int = 5000,
    shards: int = 4,
    seed: int = 0,
    durable: bool = True,
    drop: float = 0.01,
    duplicate: float = 0.01,
    delay: float = 0.01,
    crash_cycles: int = 3,
    shard_capacity: int = 512,
    bucket_capacity: int = 8,
    retry: Optional[RetryPolicy] = None,
    scan_every: int = 0,
    trace_path: Optional[str] = None,
    trie_backend: str = "cells",
    transport: str = "sim",
    replication: Optional[object] = None,
    kill_cycles: int = 0,
    migrate_cycles: int = 0,
) -> ChaosReport:
    """One differential chaos run; raises ``AssertionError`` on divergence.

    Builds an ``shards``-way cluster under a seeded
    :class:`~repro.distributed.faults.FaultPlan`, drives ``ops`` mixed
    operations (insert / lookup / delete / put / range scan) against it
    and a single-node oracle, force-crashes a random live server
    ``crash_cycles`` times along the way, then heals the plan, restarts
    everything and verifies byte-identical convergence plus the
    exactly-once audit. The default retry budget rides out every
    injected outage, so the workload itself never observes a fault.

    ``scan_every > 0`` interleaves a full range scan every that many
    operations (scans re-read regions under retries, so they are kept
    off the default path where ``ops`` is large).

    ``trace_path`` writes the run's full JSONL trace there (activating
    the global tracer for the duration, unless it is already active) —
    the file ``trie-hashing trace report`` reconstructs causal trees
    from. On divergence the flight recorder dumps its ring before the
    ``AssertionError`` surfaces (see :mod:`repro.obs.flight`).

    ``trie_backend`` selects the shard files' trie representation; the
    oracle always stays on the standard cells, so a compact-backed run
    is *also* a cells-vs-compact differential under faults.

    ``transport="uds"`` runs the *same* schedule over a live asyncio
    server on a Unix-domain socket: the cluster sits behind a
    :class:`~repro.serving.server.ServingServer` and the plan is
    replayed client-side by a
    :class:`~repro.distributed.faults.FaultyTransport` around the
    socket, so every op, fault and crash traverses real frames and the
    codec (only the client edge faults there; forwards and shipping
    legs run server-side). Tracing is not supported there (server-side
    events would interleave from another thread).

    ``replication`` (a mode string or a
    :class:`~repro.distributed.replication.ReplicationPolicy`) runs
    every primary with a WAL-shipped backup. ``kill_cycles`` then adds
    *permanent* primary kills, evenly spaced through the workload: the
    dead primary is never restarted — the failure detector must promote
    its backup, and the differential plus the exactly-once audit must
    hold straight through the promotion. ``migrate_cycles`` starts that
    many live shard migrations under load (snapshot chunks interleaved
    with workload ops, WAL catch-up at the cutover barrier); they too
    must be invisible to the oracle.
    """
    if transport not in ("sim", "uds"):
        raise ConfigurationError(
            f"transport must be 'sim' or 'uds', not {transport!r}"
        )
    if isinstance(replication, str):
        # Promotion must out-wait any transient crash-restart cycle the
        # plan schedules (downtimes cap at 0.25 sim-seconds), so routine
        # outages recover in place and only true kills depose a primary.
        replication = ReplicationPolicy(
            mode=replication, heartbeat_interval=0.02, failover_after=0.3
        )
    if kill_cycles and replication is None:
        raise ConfigurationError(
            "kill_cycles needs replication: a killed primary is never "
            "restarted, so only a promoted backup can keep its region alive"
        )
    if transport == "uds" and trace_path is not None:
        raise ConfigurationError(
            "trace_path is not supported over the uds transport: the "
            "server loop runs on another thread and its events would "
            "interleave with the client's"
        )
    writer: Optional[JsonlTraceWriter] = None
    if trace_path is not None and not TRACER.enabled:
        writer = JsonlTraceWriter(trace_path)
        TRACER.activate([writer])
    try:
        return _run_chaos(
            ops=ops,
            shards=shards,
            seed=seed,
            durable=durable,
            drop=drop,
            duplicate=duplicate,
            delay=delay,
            crash_cycles=crash_cycles,
            shard_capacity=shard_capacity,
            bucket_capacity=bucket_capacity,
            retry=retry,
            scan_every=scan_every,
            trie_backend=trie_backend,
            transport=transport,
            replication=replication,
            kill_cycles=kill_cycles,
            migrate_cycles=migrate_cycles,
        )
    except AssertionError:
        # The differential oracle diverged: capture the last window of
        # events for offline forensics before the failure surfaces.
        FLIGHT.dump("chaos-divergence")
        raise
    finally:
        if writer is not None:
            TRACER.deactivate()


def _run_chaos(
    ops: int,
    shards: int,
    seed: int,
    durable: bool,
    drop: float,
    duplicate: float,
    delay: float,
    crash_cycles: int,
    shard_capacity: int,
    bucket_capacity: int,
    retry: Optional[RetryPolicy],
    scan_every: int,
    trie_backend: str,
    transport: str,
    replication: Optional[ReplicationPolicy],
    kill_cycles: int,
    migrate_cycles: int,
) -> ChaosReport:
    plan = FaultPlan(
        seed=seed,
        drop=drop,
        duplicate=duplicate,
        delay=delay,
        delay_seconds=(0.001, 0.05),
        downtime=(0.05, 0.25),
    )
    if retry is None:
        # Generous against the plan above: the backoff series out-waits
        # the longest downtime several times over, so the differential
        # never sees ShardUnavailableError (which would make "did it
        # apply?" ambiguous and break the oracle mirroring).
        retry = RetryPolicy(max_retries=12, base_delay=0.005, max_delay=0.5)
    # Over UDS the cluster keeps the plain in-process fabric (the server
    # executes ops locally) and the plan wraps the client's socket
    # transport instead, driving the server-side failure detector
    # through ``tick`` controls. Sharing the cluster's registry puts
    # client retry counters and server dedup/crash counters in the one
    # place the report reads.
    cluster = Cluster(
        shards=shards,
        bucket_capacity=bucket_capacity,
        shard_policy=ShardPolicy(shard_capacity=shard_capacity),
        durable=durable,
        faults=plan if transport == "sim" else None,
        retry=retry,
        trie_backend=trie_backend,
        replication=replication,
    )
    fixture = None
    if transport == "uds":
        from ..serving import ServingFixture

        fixture = ServingFixture(cluster)
        client, fabric = fixture.open_file(
            plan=plan, retry=retry, registry=cluster.registry
        )
    else:
        fabric = cluster.router
        client = cluster.client()
    oracle = THFile(bucket_capacity=bucket_capacity)
    try:
        return _drive_chaos(
            plan=plan,
            cluster=cluster,
            fabric=fabric,
            client=client,
            oracle=oracle,
            ops=ops,
            seed=seed,
            crash_cycles=crash_cycles,
            scan_every=scan_every,
            kill_cycles=kill_cycles,
            migrate_cycles=migrate_cycles,
        )
    finally:
        if fixture is not None:
            fixture.close()


def _kill_candidates(coordinator) -> list[int]:
    """Primaries that can be killed *and* recovered by promotion.

    A viable victim is up, not the source of an in-flight migration
    (killing it would strand the move), and has a live, in-sync backup
    — the failure detector refuses to promote a degraded or down
    backup, so killing such a primary would lose the region for good.
    """
    out = []
    for sid, srv in coordinator.servers.items():
        if srv.down or sid in coordinator.migrations:
            continue
        backup = coordinator.replicas.get(sid)
        rep = srv.replicator
        if backup is None or backup.down or rep is None or rep.degraded:
            continue
        out.append(sid)
    return sorted(out)


def _advance_migrations(coordinator) -> int:
    """One chunk of progress on every in-flight migration.

    Finishes (cuts over) a move whose snapshot is fully copied, unless
    its source is transiently down — the barrier would abort it, so the
    finish waits for the restart instead. Returns completed cutovers.
    """
    finished = 0
    for src in list(coordinator.migrations):
        if coordinator.step_migration(src):
            continue
        source = coordinator.servers.get(src)
        if source is None or source.down:
            continue
        if coordinator.finish_migration(src) is not None:
            finished += 1
    return finished


def _drive_chaos(
    plan: FaultPlan,
    cluster: Cluster,
    fabric,
    client,
    oracle: THFile,
    ops: int,
    seed: int,
    crash_cycles: int,
    scan_every: int,
    kill_cycles: int = 0,
    migrate_cycles: int = 0,
) -> ChaosReport:

    rng = random.Random(seed)
    crash_rng = random.Random(seed ^ 0xC4A05)
    kill_rng = random.Random(seed ^ 0x51AB5)
    coordinator = cluster.coordinator
    crash_at = {
        (i + 1) * ops // (crash_cycles + 1) for i in range(crash_cycles)
    }
    # Kills sit at odd half-points so they interleave with the transient
    # crash schedule instead of landing on the same steps; migrations
    # start early enough that every one can finish under load.
    kill_at = (
        {(2 * i + 1) * ops // (2 * kill_cycles) for i in range(kill_cycles)}
        if kill_cycles
        else set()
    )
    migrate_at = (
        {(i + 1) * ops // (migrate_cycles + 2) for i in range(migrate_cycles)}
        if migrate_cycles
        else set()
    )
    kills: list[tuple[int, float]] = []
    migrations_finished = 0
    known: list[str] = []
    for step in range(ops):
        if step in crash_at:
            live = [
                s for s, srv in cluster.coordinator.servers.items()
                if not srv.down
            ]
            if live:
                lo, hi = plan.downtime
                fabric.crash_server(
                    crash_rng.choice(live),
                    downtime=lo + (hi - lo) * crash_rng.random(),
                )
        if step in kill_at:
            viable = _kill_candidates(coordinator)
            if viable:
                victim = kill_rng.choice(viable)
                fabric.crash_server(victim, downtime=None)
                kills.append((victim, fabric.now))
        if step in migrate_at:
            movable = sorted(
                s for s, srv in coordinator.servers.items()
                if not srv.down and s not in coordinator.migrations
            )
            if movable:
                coordinator.start_migration(
                    kill_rng.choice(movable), chunk_size=48
                )
        if coordinator.migrations:
            migrations_finished += _advance_migrations(coordinator)
        action = rng.random()
        key = "".join(
            rng.choice(_WORKLOAD_ALPHABET)
            for _ in range(rng.randint(1, 8))
        )
        context = f"op {step} ({key!r})"
        mutated = True
        if action < 0.45:
            _mutate_both(
                "insert",
                lambda key=key: client.insert(key, key.upper()),
                lambda key=key: oracle.insert(key, key.upper()),
                context,
            )
            if oracle.contains(key):
                known.append(key)
        elif action < 0.60:
            mutated = False
            probe = rng.choice(known) if known and rng.random() < 0.7 else key
            _expect(client.contains(probe), oracle.contains(probe), context)
            if oracle.contains(probe):
                _expect(client.get(probe), oracle.get(probe), context)
        elif action < 0.75:
            probe = rng.choice(known) if known and rng.random() < 0.8 else key
            _mutate_both(
                "delete",
                lambda probe=probe: client.delete(probe),
                lambda probe=probe: oracle.delete(probe),
                context,
            )
        elif action < 0.90 or not scan_every:
            _mutate_both(
                "put",
                lambda key=key: client.put(key, "v2"),
                lambda key=key: oracle.put(key, "v2"),
                context,
            )
            known.append(key)
        else:
            mutated = False
        if mutated:
            # Paranoid mode (REPRO_PARANOID=1): re-audit both sides after
            # every mutation so a corrupting op is caught where it
            # happened, not at the end-of-run convergence check.
            maybe_audit(oracle, context)
            maybe_audit(cluster, context)
        if scan_every and step and step % scan_every == 0:
            lo_key = min(key, "m")
            _expect(
                list(client.range_items(lo_key, None)),
                list(oracle.range_items(lo_key, None))
                if hasattr(oracle, "range_items")
                else [(k, v) for k, v in oracle.items() if k >= lo_key],
                context,
            )

    # Drain in-flight migrations: keep stepping (and riding out any
    # transient source outage on the clock) until every move cut over.
    for _ in range(400):
        if not coordinator.migrations:
            break
        migrations_finished += _advance_migrations(coordinator)
        if coordinator.migrations:
            fabric.sleep(0.02)

    # Every forced kill must end in a promotion, not a restart: nudge
    # the clock until the failure detector has deposed each dead
    # primary (its id leaves ``coordinator.servers`` at failover).
    for _ in range(400):
        if not any(
            sid in coordinator.servers and coordinator.servers[sid].down
            for sid, _at in kills
        ):
            break
        fabric.sleep(0.02)
    if kills and len(coordinator.failover_log) < len(kills):
        raise AssertionError(
            f"only {len(coordinator.failover_log)} of {len(kills)} killed "
            f"primaries were failed over"
        )

    # Quiesce: stop injecting, bring every server back, and check that
    # the cluster converged to exactly the oracle's state.
    plan.heal()
    fabric.restore_all()
    cluster.check()
    _expect(list(client.items()), list(oracle.items()), "final scan")

    report = ChaosReport()
    report.ops = ops
    report.seed = seed
    report.shards = cluster.shard_count()
    report.records = len(oracle)
    registry = cluster.registry
    report.faults = fabric.faults_injected
    report.retries = int(_counter_sum(registry, "dist_retries_total"))
    report.dedup_hits = int(_counter_sum(registry, "dist_dedup_hits_total"))
    report.crashes = int(_counter_sum(registry, "dist_server_crashes_total"))
    report.recoveries = int(
        _counter_sum(registry, "dist_server_recoveries_total")
    )
    report.duplicate_applies = fabric.duplicate_applies()
    report.messages = fabric.messages
    report.kills = len(kills)
    report.failovers = len(coordinator.failover_log)
    report.migrations = migrations_finished
    lag = [
        entry["at"] - killed_at
        for entry in coordinator.failover_log
        for sid, killed_at in kills
        if entry["shard"] == sid
    ]
    report.failover_mttr = round(sum(lag) / len(lag), 6) if lag else 0.0
    # Forwards happen server-side either way; over the wire the client
    # transport never sees them, so read the cluster's own router.
    report.forwards = cluster.router.forwards
    report.clock = fabric.now
    report.converged = True
    if report.duplicate_applies:
        raise AssertionError(
            f"{report.duplicate_applies} request ids applied more than once"
        )
    return report


def chaos_table(
    count: int = 2000,
    seed: int = 0,
    rates: tuple = (0.0, 0.01, 0.05),
    shards: int = 4,
) -> list[dict]:
    """Throughput and audit counters across a sweep of fault rates.

    One row per rate, applying it to drops, duplicates and delays alike
    (``0.0`` is the fault-free baseline). The ``ops/s`` column is
    simulated-time throughput: operations per simulated second spent in
    delays and backoff, infinite (reported as 0) when the clock never
    moved.
    """
    rows = []
    for rate in rates:
        report = run_chaos(
            ops=count,
            shards=shards,
            seed=seed,
            drop=rate,
            duplicate=rate,
            delay=rate,
            crash_cycles=3 if rate else 0,
        )
        rows.append(
            {
                "fault_rate": rate,
                "ops": report.ops,
                "faults": report.faults,
                "retries": report.retries,
                "dedup_hits": report.dedup_hits,
                "crashes": report.crashes,
                "dup_applies": report.duplicate_applies,
                "shards": report.shards,
                "records": report.records,
                "sim_seconds": round(report.clock, 4),
                "converged": report.converged,
            }
        )
    return rows
