"""Primary/backup replication, automatic failover and live migration.

Four layers over :mod:`repro.distributed.replication`:

* policy validation and wiring (a replicated cluster builds backups,
  ships every commit, keeps backups byte-identical through splits);
* targeted failure drills — permanent primary kills must end in a
  promotion that loses no acked write and double-applies nothing,
  transient crashes must *not* depose, a degraded backup must refuse
  promotion;
* live migration under concurrent writes, including the dedup window
  travelling with the region across the cutover;
* the replication chaos acceptance run (sim and UDS transports) and a
  Hypothesis stateful machine interleaving ops, kills, failovers and
  migrations against a dict model.
"""

import string

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    precondition,
    rule,
)

from repro import Cluster, ShardPolicy
from repro.distributed import (
    FaultPlan,
    ReplicationPolicy,
    RetryPolicy,
    run_chaos,
)
from repro.distributed.errors import ConfigurationError
from repro.distributed.messages import Op


def _counter_sum(registry, name):
    return sum(
        inst.value
        for inst in registry.instruments()
        if inst.name == name and not hasattr(inst, "set") and hasattr(inst, "value")
    )


def _cluster(plan=None, **kwargs):
    """A durable semisync cluster on the fault-injecting fabric."""
    kwargs.setdefault("shards", 2)
    kwargs.setdefault("durable", True)
    kwargs.setdefault("replication", "semisync")
    kwargs.setdefault("shard_policy", ShardPolicy(shard_capacity=64))
    return Cluster(faults=plan if plan is not None else FaultPlan(), **kwargs)


def _keys(count, prefix=""):
    letters = string.ascii_lowercase
    out = []
    n = 0
    while len(out) < count:
        word = prefix
        i = n
        for _ in range(3):
            word += letters[i % 26]
            i //= 26
        out.append(word)
        n += 1
    return out


def _settle(cluster, seconds=0.5, step=0.02):
    """Advance the fabric clock so detector sweeps run."""
    ticks = int(seconds / step) + 1
    for _ in range(ticks):
        cluster.router.sleep(step)


# ======================================================================
# Policy validation
# ======================================================================
class TestReplicationPolicy:
    def test_mode_validated(self):
        with pytest.raises(ConfigurationError):
            ReplicationPolicy(mode="sync")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"heartbeat_interval": 0.0},
            {"failover_after": 0.0},
            {"failover_after": -1.0},
            {"ship_retries": -1},
            {"staleness_bound": -1},
        ],
    )
    def test_bounds_validated(self, kwargs):
        with pytest.raises(ConfigurationError):
            ReplicationPolicy(**kwargs)

    def test_semisync_property(self):
        assert ReplicationPolicy(mode="semisync").semisync
        assert not ReplicationPolicy(mode="async").semisync

    def test_cluster_rejects_unknown_mode_string(self):
        with pytest.raises(ConfigurationError):
            Cluster(shards=1, durable=True, replication="paxos")

    def test_cluster_rejects_non_policy_object(self):
        with pytest.raises(ConfigurationError):
            Cluster(shards=1, durable=True, replication=3.14)

    def test_kill_cycles_require_replication(self):
        with pytest.raises(ConfigurationError):
            run_chaos(ops=10, kill_cycles=1)


# ======================================================================
# WAL shipping keeps backups identical
# ======================================================================
class TestShipping:
    def test_every_primary_gets_a_backup(self):
        cluster = _cluster(shards=3)
        coord = cluster.coordinator
        assert set(coord.replicas) == set(coord.servers)
        for sid in coord.servers:
            assert coord.replica_of(sid) is not None
        # Backups are shadow capacity, not partition members.
        assert cluster.shard_count() == 3

    def test_committed_batches_arrive_and_backups_match(self):
        cluster = _cluster()
        f = cluster.client(warm=True)
        for k in _keys(120):
            f.insert(k, k.upper())
        cluster.check()  # includes byte-identical backup comparison
        for sid, primary in cluster.coordinator.servers.items():
            backup = cluster.coordinator.replicas[sid]
            assert sorted(backup.items()) == sorted(primary.items())
            assert primary.replicator.behind == 0
            assert not primary.replicator.degraded

    def test_backups_follow_through_splits(self):
        cluster = _cluster(shards=1, shard_policy=ShardPolicy(shard_capacity=24))
        f = cluster.client(warm=True)
        for k in _keys(150):
            f.insert(k)
        coord = cluster.coordinator
        assert cluster.shard_count() > 1  # scale-out happened under load
        assert set(coord.replicas) == set(coord.servers)
        cluster.check()

    def test_semisync_rides_out_a_dropped_ship(self):
        plan = FaultPlan()
        cluster = _cluster(plan)
        f = cluster.client(warm=True)
        f.insert("apple", "one")
        plan.force("replicate", "drop")
        f.insert("banana", "two")  # ship retried inside the commit path
        cluster.check()
        assert cluster.router.duplicate_applies() == 0
        for primary in cluster.coordinator.servers.values():
            assert not primary.replicator.degraded

    def test_duplicated_ship_absorbed_by_sequence_numbers(self):
        plan = FaultPlan()
        cluster = _cluster(plan)
        f = cluster.client(warm=True)
        plan.force("replicate", "duplicate")
        f.insert("cherry", "three")
        cluster.check()
        assert cluster.router.duplicate_applies() == 0

    def test_async_mode_repairs_on_next_ship(self):
        plan = FaultPlan()
        cluster = _cluster(plan, replication="async")
        f = cluster.client(warm=True)
        f.insert("apple", "one")
        plan.force("replicate", "drop")
        f.insert("banana", "two")  # fire-and-forget: this batch is lost
        f.insert("cherry", "three")  # gap detected -> catch-up or resync
        cluster.check()
        repaired = sum(
            p.replicator.catchups + p.replicator.resyncs
            for p in cluster.coordinator.servers.values()
        )
        assert repaired >= 1
        assert cluster.router.duplicate_applies() == 0

    def test_crashed_backup_forces_full_resync(self):
        cluster = _cluster(shards=1)
        f = cluster.client(warm=True)
        for k in _keys(40):
            f.insert(k)
        backup = cluster.coordinator.replicas[0]
        backup.crash()
        backup.restart()
        assert backup.replica_state is None  # shipping state is volatile
        before = cluster.coordinator.servers[0].replicator.resyncs
        f.insert("zzz", "late")
        assert cluster.coordinator.servers[0].replicator.resyncs == before + 1
        cluster.check()


# ======================================================================
# Failover
# ======================================================================
class TestFailover:
    def test_permanent_kill_promotes_the_backup(self):
        cluster = _cluster()
        f = cluster.client(warm=True)
        keys = _keys(80)
        for k in keys:
            f.insert(k, k)
        victim = 0
        promoted = cluster.coordinator.replica_of(victim)
        cluster.router.crash_server(victim, downtime=None)
        _settle(cluster)
        log = cluster.coordinator.failover_log
        assert [e["shard"] for e in log] == [victim]
        assert log[0]["promoted"] == promoted
        assert victim not in cluster.coordinator.servers
        assert promoted in cluster.coordinator.servers
        # Every acked write survives; stale clients converge via IAMs.
        cold = cluster.client()
        for k in keys:
            assert cold.get(k) == k
        # The promoted primary serves writes and has a fresh backup.
        f.put("after", "failover")
        assert cluster.coordinator.replica_of(promoted) is not None
        cluster.check()
        assert cluster.router.duplicate_applies() == 0
        assert _counter_sum(cluster.registry, "dist_failovers_total") == 1

    def test_the_fault_fabric_sends_an_iam_only_to_a_misaddressed_get(self):
        # The request leg of the fault fabric records the addressed id
        # like the plain fabric's delivery does: after crashes and a
        # failover, a get sent to the owner carries no IAM, and one
        # sent to the deposed id learns the promoted shard.
        cluster = _cluster(retry=RetryPolicy(max_retries=40))
        router = cluster.router
        coordinator = cluster.coordinator
        f = cluster.client(warm=True)
        keys = _keys(80)
        for k in keys:
            f.insert(k, k)
        router.crash_server(1, downtime=0.05)  # transient: restarts
        victim = coordinator.owner_of(keys[0])
        promoted = coordinator.replica_of(victim)
        router.crash_server(victim, downtime=None)
        _settle(cluster)
        assert [e["shard"] for e in coordinator.failover_log] == [victim]
        for k in keys:
            owner = coordinator.owner_of(k)
            reply = router.client_send(owner, Op.get(k))
            assert (reply.value, reply.iam, reply.forwards) == (k, [], 0)
        for k in keys:
            if coordinator.owner_of(k) != promoted:
                continue
            reply = router.client_send(victim, Op.get(k))
            assert reply.value == k and reply.forwards == 0
            (entry,) = reply.iam
            assert entry == coordinator.iam_for_key(k)[0]
            assert entry[2] == promoted
        assert router.duplicate_applies() == 0

    def test_transient_crash_is_not_deposed(self):
        cluster = _cluster()
        f = cluster.client(warm=True)
        f.insert("apple", "one")
        cluster.router.crash_server(0, downtime=0.1)  # < failover_after
        _settle(cluster)
        assert cluster.coordinator.failover_log == []
        assert 0 in cluster.coordinator.servers
        assert not cluster.coordinator.servers[0].down
        assert f.get("apple") == "one"

    def test_degraded_backup_refuses_promotion(self):
        cluster = _cluster(shards=1)
        f = cluster.client(warm=True)
        f.insert("apple", "one")
        backup = cluster.coordinator.replicas[0]
        backup.crash()
        f.insert("banana", "two")  # semisync ship fails hard -> degraded
        primary = cluster.coordinator.servers[0]
        assert primary.replicator.degraded
        backup.restart()  # back up, but possibly missing acked writes
        cluster.router.crash_server(0, downtime=None)
        assert cluster.coordinator.failover(0) is False
        assert cluster.coordinator.failover_log == []

    def test_exactly_once_across_promotion(self):
        """A retry landing after the failover still dedups.

        The reply to a mutation is lost; the primary dies before the
        client retries. The dedup window shipped with the WAL means the
        promoted backup recognises the rid and absorbs the replay
        instead of double-applying.
        """
        cluster = _cluster(shards=1)
        router = cluster.router
        f = cluster.client(warm=True)
        f.insert("apple", "A")
        op = Op.insert("pear", "P")
        op.rid = (99, 1)
        first = router.client_send(0, op)
        assert first.error is None  # acked -> shipped to the backup
        cluster.router.crash_server(0, downtime=None)
        _settle(cluster)
        assert len(cluster.coordinator.failover_log) == 1
        retry = router.client_send(0, op)  # rebound id -> promoted backup
        assert retry.error is None  # dedup hit, not DuplicateKeyError
        assert router.duplicate_applies() == 0
        assert cluster.client().get("pear") == "P"

    def test_writes_to_the_dead_id_heal_through_retries(self):
        """A client mid-flight when the primary dies rides it out."""
        cluster = _cluster(retry=RetryPolicy(max_retries=40))
        f = cluster.client(warm=True)
        f.insert("apple", "one")
        cluster.router.crash_server(0, downtime=None)
        # No manual settling: the retry backoff sleeps advance the
        # fabric clock, which drives the detector to the promotion.
        f.put("apple", "two")
        assert len(cluster.coordinator.failover_log) == 1
        assert f.get("apple") == "two"
        assert cluster.router.duplicate_applies() == 0


# ======================================================================
# Read replicas
# ======================================================================
class TestReadReplicas:
    def test_replica_scans_serve_when_in_sync(self):
        cluster = _cluster()
        f = cluster.client(warm=True)
        keys = _keys(60)
        for k in keys:
            f.insert(k, k)
        reader = cluster.client(warm=True, read_preference="replica")
        assert sorted(k for k, _ in reader.items()) == sorted(set(keys))
        assert reader.replica_fallbacks == 0

    def test_stateless_replica_falls_back_to_primary(self):
        cluster = _cluster()
        f = cluster.client(warm=True)
        keys = _keys(60)
        for k in keys:
            f.insert(k, k)
        for backup in cluster.coordinator.replicas.values():
            backup.crash()
            backup.restart()  # up, but with no shipping state
        reader = cluster.client(warm=True, read_preference="replica")
        assert sorted(k for k, _ in reader.items()) == sorted(set(keys))
        assert reader.replica_fallbacks >= 1
        assert _counter_sum(
            cluster.registry, "dist_replica_fallbacks_total"
        ) >= 1

    def test_known_lag_beyond_bound_refused(self):
        cluster = _cluster(shards=1)
        f = cluster.client(warm=True)
        for k in _keys(30):
            f.insert(k, k)
        backup = cluster.coordinator.replicas[0]
        backup.replica_state.lag = 2  # beyond the default bound of 0
        reader = cluster.client(warm=True, read_preference="replica")
        assert len(list(reader.items())) == 30
        assert reader.replica_fallbacks >= 1

    def test_read_preference_validated(self):
        cluster = _cluster()
        with pytest.raises(ConfigurationError):
            cluster.client(read_preference="nearest")


# ======================================================================
# Live migration
# ======================================================================
class TestMigration:
    def test_migrate_under_concurrent_writes(self):
        cluster = _cluster()
        f = cluster.client(warm=True)
        keys = _keys(120)
        for k in keys:
            f.insert(k, "v1")
        source = min(cluster.coordinator.servers)
        hot = [k for k in keys if cluster.coordinator.owner_of(k) == source]
        assert hot  # the moving region must actually hold records
        cluster.coordinator.start_migration(source, chunk_size=16)
        moved = 0
        while cluster.coordinator.step_migration(source):
            # Writes keep landing in the moving region mid-copy.
            f.put(hot[moved % len(hot)], "v2")
            moved += 1
        assert moved > 0  # chunked copy interleaved with the load
        new_id = cluster.coordinator.finish_migration(source)
        assert new_id is not None
        assert not cluster.coordinator.migrations
        assert _counter_sum(cluster.registry, "dist_migrations_total") == 1
        cluster.check()
        # Values written during the copy window won; nothing was lost.
        got = dict(cluster.client(warm=True).items())
        assert set(got) == set(keys)
        for k in hot[:moved]:
            assert got[k] == "v2"
        assert cluster.router.duplicate_applies() == 0

    def test_stale_clients_converge_through_forwarding(self):
        cluster = _cluster()
        stale = cluster.client(warm=True)  # snapshots the old partition
        f = cluster.client(warm=True)
        keys = _keys(80)
        for k in keys:
            f.insert(k, k)
        source = min(cluster.coordinator.servers)
        cluster.coordinator.start_migration(source, chunk_size=32)
        while cluster.coordinator.step_migration(source):
            pass
        assert cluster.coordinator.finish_migration(source) is not None
        for k in keys:
            assert stale.get(k) == k  # old image -> forwarded + IAM
        cluster.check()

    def test_dedup_window_travels_with_the_region(self):
        """A replay arriving after the cutover is still absorbed."""
        cluster = _cluster(shards=1)
        router = cluster.router
        f = cluster.client(warm=True)
        for k in _keys(40):
            f.insert(k)
        op = Op.insert("mango", "M")
        op.rid = (55, 7)
        assert router.client_send(0, op).error is None
        cluster.coordinator.start_migration(0, chunk_size=16)
        while cluster.coordinator.step_migration(0):
            pass
        new_id = cluster.coordinator.finish_migration(0)
        assert new_id is not None
        replay = router.client_send(new_id, op)
        assert replay.error is None  # dedup hit on the migrated window
        assert router.duplicate_applies() == 0

    def test_cutover_barrier_aborts_when_the_source_is_down(self):
        """A dead source's unreplayed tail cannot be trusted: abort.

        The region stays where it was (recovery / failover own the
        problem); once the source is back a fresh migration succeeds.
        """
        cluster = _cluster()
        f = cluster.client(warm=True)
        keys = _keys(60)
        for k in keys:
            f.insert(k, k)
        source = min(cluster.coordinator.servers)
        cluster.coordinator.start_migration(source, chunk_size=16)
        cluster.coordinator.step_migration(source)
        cluster.router.crash_server(source, downtime=0.05)
        assert cluster.coordinator.finish_migration(source) is None  # aborted
        assert source not in cluster.coordinator.migrations
        assert source in cluster.coordinator.servers  # region did not move
        _settle(cluster, seconds=0.1)  # transient crash: source restarts
        assert not cluster.coordinator.servers[source].down
        cluster.coordinator.start_migration(source, chunk_size=16)
        while cluster.coordinator.step_migration(source):
            pass
        assert cluster.coordinator.finish_migration(source) is not None
        assert dict(cluster.client(warm=True).items()) == {k: k for k in keys}
        cluster.check()


# ======================================================================
# Chaos acceptance: kills + failovers + migration under faults
# ======================================================================
class TestReplicationChaos:
    def test_sim_transport_converges_through_kills_and_migrations(self):
        report = run_chaos(
            ops=600,
            shards=3,
            seed=7,
            durable=True,
            drop=0.01,
            duplicate=0.01,
            delay=0.01,
            crash_cycles=0,
            shard_capacity=128,
            replication="semisync",
            kill_cycles=3,
            migrate_cycles=1,
        )
        assert report.converged
        assert report.kills == 3
        assert report.failovers >= 3
        assert report.migrations >= 1
        assert report.duplicate_applies == 0
        assert report.failover_mttr > 0

    def test_async_mode_converges(self):
        report = run_chaos(
            ops=400,
            shards=2,
            seed=3,
            durable=True,
            crash_cycles=0,
            shard_capacity=128,
            replication="async",
            kill_cycles=1,
        )
        assert report.converged
        assert report.failovers >= 1
        assert report.duplicate_applies == 0

    def test_uds_transport_converges_through_kills_and_migrations(self):
        report = run_chaos(
            ops=400,
            shards=3,
            seed=7,
            durable=True,
            drop=0.01,
            duplicate=0.01,
            delay=0.01,
            crash_cycles=0,
            shard_capacity=128,
            replication="semisync",
            kill_cycles=2,
            migrate_cycles=1,
            transport="uds",
        )
        assert report.converged
        assert report.kills == 2
        assert report.failovers >= 2
        assert report.migrations >= 1
        assert report.duplicate_applies == 0


# ======================================================================
# Hypothesis: ops, kills, failovers and migrations vs a dict model
# ======================================================================
keys_st = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=5)


class ReplicatedAgainstDict(RuleBasedStateMachine):
    """Mixed ops while primaries get killed, promoted and migrated."""

    @initialize(
        seed=st.integers(min_value=0, max_value=2**16),
        rate=st.sampled_from([0.0, 0.02]),
    )
    def setup(self, seed, rate):
        self.plan = FaultPlan(
            seed=seed, drop=rate, duplicate=rate, delay=rate,
            delay_seconds=(0.001, 0.01),
        )
        self.cluster = Cluster(
            shards=2,
            durable=True,
            shard_policy=ShardPolicy(shard_capacity=32),
            faults=self.plan,
            retry=RetryPolicy(max_retries=16),
            replication="semisync",
        )
        self.client = self.cluster.client()
        self.model = {}
        self.killed = 0

    @rule(key=keys_st, value=keys_st)
    def put(self, key, value):
        self.client.put(key, value)
        self.model[key] = value

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def delete_existing(self, data):
        key = data.draw(st.sampled_from(sorted(self.model)))
        assert self.client.delete(key) == self.model.pop(key)

    @rule(key=keys_st)
    def lookup(self, key):
        assert self.client.contains(key) == (key in self.model)

    def _viable_victims(self):
        coord = self.cluster.coordinator
        out = []
        for sid, srv in coord.servers.items():
            if srv.down or sid in coord.migrations:
                continue
            backup = coord.replicas.get(sid)
            rep = srv.replicator
            if backup is None or backup.down or rep is None or rep.degraded:
                continue
            out.append(sid)
        return sorted(out)

    @precondition(lambda self: self.killed < 3)
    @rule(data=st.data())
    def kill_and_fail_over(self, data):
        victims = self._viable_victims()
        if not victims:
            return
        sid = data.draw(st.sampled_from(victims))
        before = len(self.cluster.coordinator.failover_log)
        self.cluster.router.crash_server(sid, downtime=None)
        self.killed += 1
        for _ in range(25):
            self.cluster.router.sleep(0.02)
        assert len(self.cluster.coordinator.failover_log) == before + 1

    @rule(data=st.data())
    def migrate_one_region(self, data):
        coord = self.cluster.coordinator
        movable = [
            sid for sid, srv in coord.servers.items()
            if not srv.down and sid not in coord.migrations
        ]
        if not movable:
            return
        sid = data.draw(st.sampled_from(sorted(movable)))
        coord.start_migration(sid, chunk_size=16)
        while coord.step_migration(sid):
            pass
        assert coord.finish_migration(sid) is not None

    def teardown(self):
        self.plan.heal()
        self.cluster.router.restore_all()
        self.cluster.check()
        assert dict(self.client.items()) == self.model
        assert self.cluster.router.duplicate_applies() == 0


TestReplicatedStateful = ReplicatedAgainstDict.TestCase
TestReplicatedStateful.settings = settings(deadline=None)
