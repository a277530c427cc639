"""The TH* distributed layer: images, routing, IAMs, scale-out.

The centrepiece is the differential oracle: a distributed file over
several shards must be observationally identical to a single-node
:class:`~repro.core.file.THFile` on a long mixed workload — same
values, same exceptions, same ordered scans — while the convergence
criterion holds (a warmed-up client resolves ≥ 90% of its operations
without a server-side forward, measured through :mod:`repro.obs`).
"""

import random

import pytest

from repro import (
    Cluster,
    DuplicateKeyError,
    KeyNotFoundError,
    ShardPolicy,
    THFile,
    TrieImage,
)
from repro.core.alphabet import DEFAULT_ALPHABET
from repro.core.errors import TrieCorruptionError, TrieHashingError
from repro.obs.metrics import MetricsRegistry
from repro.workloads import KeyGenerator


# ======================================================================
# TrieImage
# ======================================================================
class TestTrieImage:
    def test_trivial_image_routes_everything_to_its_shard(self):
        image = TrieImage(DEFAULT_ALPHABET, (), (7,))
        assert len(image) == 1
        for key in ("a", "mzz", "zzzz"):
            assert image.shard_for_key(key) == 7
        assert image.region(0) == (None, None)

    def test_arity_mismatch_rejected(self):
        with pytest.raises(TrieCorruptionError):
            TrieImage(DEFAULT_ALPHABET, ("m",), (0,))

    def test_unsorted_boundaries_rejected(self):
        with pytest.raises(TrieCorruptionError):
            TrieImage(DEFAULT_ALPHABET, ("t", "g"), (0, 1, 2))

    def test_locate_respects_boundary_order(self):
        # A boundary is a prefix cut: "g" covers every key starting
        # with "g", so the gap above it begins at "h".
        image = TrieImage(DEFAULT_ALPHABET, ("g", "t"), (0, 1, 2))
        assert image.shard_for_key("g") == 0
        assert image.shard_for_key("gzz") == 0
        assert image.shard_for_key("h") == 1
        assert image.shard_for_key("tzz") == 1
        assert image.shard_for_key("u") == 2

    def test_split_region_repoints_upper_half(self):
        image = TrieImage(DEFAULT_ALPHABET, ("m",), (0, 1))
        image.split_region(1, "t", 2)
        assert image.boundaries == ["m", "t"]
        assert image.shards == [0, 1, 2]
        assert image.shard_for_key("p") == 1
        assert image.shard_for_key("x") == 2

    def test_split_region_rejects_foreign_boundary(self):
        image = TrieImage(DEFAULT_ALPHABET, ("m",), (0, 1))
        with pytest.raises(TrieCorruptionError):
            image.split_region(0, "t", 2)  # "t" does not cut gap 0

    def test_patch_refines_a_cold_image(self):
        image = TrieImage(DEFAULT_ALPHABET, (), (0,))
        learned = image.patch([("g", "t", 5)])
        assert learned == 2
        assert image.boundaries == ["g", "t"]
        assert image.shard_for_key("m") == 5
        # The open ends keep the stale guess until an IAM covers them.
        assert image.shard_for_key("a") == 0
        assert image.shard_for_key("z") == 0

    def test_patch_open_ended_entries(self):
        image = TrieImage(DEFAULT_ALPHABET, (), (0,))
        assert image.patch([(None, "g", 3)]) == 1
        assert image.patch([("t", None, 9)]) == 1
        assert image.shard_for_key("a") == 3
        assert image.shard_for_key("m") == 0
        assert image.shard_for_key("z") == 9

    def test_patch_is_idempotent(self):
        image = TrieImage(DEFAULT_ALPHABET, (), (0,))
        entries = [("g", "t", 5), (None, "g", 3)]
        image.patch(entries)
        before = (list(image.boundaries), list(image.shards))
        assert image.patch(entries) == 0
        assert (list(image.boundaries), list(image.shards)) == before

    def test_patch_order_independent(self):
        entries = [(None, "g", 1), ("g", "t", 2), ("t", None, 3)]
        a = TrieImage(DEFAULT_ALPHABET, (), (0,))
        b = TrieImage(DEFAULT_ALPHABET, (), (0,))
        a.patch(entries)
        b.patch(list(reversed(entries)))
        assert a.boundaries == b.boundaries
        assert a.shards == b.shards

    def test_copy_is_independent(self):
        image = TrieImage(DEFAULT_ALPHABET, ("m",), (0, 1))
        fork = image.copy()
        fork.patch([("m", "t", 2)])
        assert image.boundaries == ["m"]
        assert fork.boundaries == ["m", "t"]

    def test_proper_prefix_sorts_after_extension(self):
        # Boundary order: the finer cut "ab" precedes the bare "a",
        # which covers the rest of the "a"-prefixed keys.
        image = TrieImage(DEFAULT_ALPHABET, ("ab", "a"), (0, 1, 2))
        assert image.shard_for_key("a") == 0  # "a" min-pads below "ab"
        assert image.shard_for_key("abz") == 0
        assert image.shard_for_key("ac") == 1
        assert image.shard_for_key("az") == 1
        assert image.shard_for_key("b") == 2


# ======================================================================
# The differential oracle
# ======================================================================
def _mixed_workload(f, oracle, ops, seed):
    """Drive ``f`` (distributed) and ``oracle`` (THFile) identically.

    Every op's outcome — value or exception type — must match. Returns
    the number of operations issued.
    """
    rng = random.Random(seed)
    alphabet = "abcdefghijklmnopqrstuvwxyz"
    issued = 0
    known = []
    for _ in range(ops):
        action = rng.random()
        key = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 8)))
        if action < 0.45:
            try:
                oracle.insert(key, key.upper())
                expected = None
            except DuplicateKeyError:
                expected = DuplicateKeyError
            if expected is None:
                f.insert(key, key.upper())
                known.append(key)
            else:
                with pytest.raises(DuplicateKeyError):
                    f.insert(key, key.upper())
        elif action < 0.6:
            probe = rng.choice(known) if known and rng.random() < 0.7 else key
            assert f.contains(probe) == oracle.contains(probe)
            if oracle.contains(probe):
                assert f.get(probe) == oracle.get(probe)
        elif action < 0.7:
            probe = rng.choice(known) if known and rng.random() < 0.8 else key
            try:
                expected_value = oracle.delete(probe)
                expected = None
            except KeyNotFoundError:
                expected = KeyNotFoundError
            if expected is None:
                assert f.delete(probe) == expected_value
            else:
                with pytest.raises(KeyNotFoundError):
                    f.delete(probe)
        elif action < 0.8:
            oracle.put(key, "v2")
            f.put(key, "v2")
            known.append(key)
        else:
            low, high = sorted([key, key[: max(1, len(key) // 2)]])
            assert list(f.range_items(low, high)) == list(
                oracle.range_items(low, high)
            )
        issued += 1
    return issued


class TestDifferentialOracle:
    def test_distributed_matches_single_node_on_mixed_workload(self):
        cluster = Cluster(
            shards=4,
            bucket_capacity=8,
            shard_policy=ShardPolicy(shard_capacity=64),
        )
        oracle = THFile(bucket_capacity=8)
        f = cluster.client()
        issued = _mixed_workload(f, oracle, ops=5000, seed=20260806)
        assert issued >= 5000
        assert cluster.shard_count() >= 4
        assert len(f) == len(oracle)
        assert list(f.items()) == list(oracle.items())
        cluster.check()

    def test_durable_shards_match_single_node(self):
        cluster = Cluster(
            shards=4,
            bucket_capacity=8,
            shard_policy=ShardPolicy(shard_capacity=48),
            durable=True,
        )
        oracle = THFile(bucket_capacity=8)
        f = cluster.client()
        _mixed_workload(f, oracle, ops=1200, seed=7)
        assert list(f.items()) == list(oracle.items())
        cluster.check()

    def test_two_clients_one_cold_one_warm_agree(self):
        cluster = Cluster(
            shards=4, shard_policy=ShardPolicy(shard_capacity=64)
        )
        oracle = THFile(bucket_capacity=8)
        writer = cluster.client(warm=True)
        keys = KeyGenerator(99).uniform(800)
        for key in keys:
            writer.insert(key)
            oracle.insert(key)
        cold = cluster.client()  # stale one-region image
        for key in keys[::7]:
            assert cold.get(key) == oracle.get(key)
        assert list(cold.items()) == list(oracle.items())
        cluster.check()


# ======================================================================
# Convergence (the acceptance criterion)
# ======================================================================
class TestConvergence:
    def test_cold_client_converges_above_90_percent(self):
        registry = MetricsRegistry()
        cluster = Cluster(
            shards=4,
            shard_policy=ShardPolicy(shard_capacity=96),
            registry=registry,
        )
        keys = KeyGenerator(1234).uniform(2500)
        loader = cluster.client(warm=True)
        for key in keys:
            loader.insert(key)
        assert cluster.shard_count() >= 8  # scale-out actually happened

        client = cluster.client()
        assert len(client.image) == 1  # cold: the trivial image
        # Warm-up: a few hundred lookups teach the partition via IAMs.
        for key in keys[:300]:
            client.contains(key)
        client.reset_window()
        for key in keys[300:2300]:
            client.contains(key)
        assert client.convergence(window=True) >= 0.90
        # The same fact through the obs registry (the reporting path).
        labels = {"client": client.client_id, "routed": "direct"}
        direct = registry.counter("dist_client_ops_total", labels).value
        forwarded = registry.counter(
            "dist_client_ops_total",
            {"client": client.client_id, "routed": "forwarded"},
        ).value
        assert direct / (direct + forwarded) >= 0.90
        assert (
            registry.gauge(
                "dist_client_convergence", {"client": client.client_id}
            ).value
            >= 0.90
        )
        assert client.iam_boundaries > 0

    def test_forward_path_actually_taken_and_counted(self):
        registry = MetricsRegistry()
        cluster = Cluster(
            shards=4,
            shard_policy=ShardPolicy(shard_capacity=10_000),
            registry=registry,
        )
        loader = cluster.client(warm=True)
        for key in KeyGenerator(5).uniform(100):
            loader.insert(key)
        assert loader.ops_forwarded == 0  # a warm image never misses

        cold = cluster.client()
        cold.contains("zzzz")  # trivially routed to the lowest shard
        assert cold.ops_forwarded == 1
        total_forwards = sum(
            inst.value
            for inst in registry.instruments()
            if inst.name == "dist_forwards_total"
        )
        assert total_forwards >= 1
        # The IAM taught the client that region; the retry is direct.
        cold.contains("zzzz")
        assert cold.ops_forwarded == 1


# ======================================================================
# Scale-out and scans
# ======================================================================
class TestScaleOut:
    def test_splits_triggered_by_load_policy(self):
        cluster = Cluster(shards=1, shard_policy=ShardPolicy(shard_capacity=32))
        f = cluster.client()
        for key in KeyGenerator(3).uniform(400):
            f.insert(key)
        assert cluster.shard_count() > 4
        for row in cluster.load_report():
            assert row["load"] <= 1.0
        cluster.check()

    def test_every_region_holds_only_its_keys(self):
        cluster = Cluster(shards=4, shard_policy=ShardPolicy(shard_capacity=40))
        f = cluster.client()
        keys = KeyGenerator(11).variable_length(600)
        for key in keys:
            f.insert(key)
        cluster.check()  # region containment is part of check()
        total = sum(len(s) for s in cluster.coordinator.servers.values())
        assert total == len(keys)

    def test_scan_spans_shards_in_order(self):
        cluster = Cluster(shards=6, shard_policy=ShardPolicy(shard_capacity=50))
        f = cluster.client()
        keys = KeyGenerator(21).uniform(700)
        for key in keys:
            f.insert(key, key[::-1])
        assert cluster.shard_count() >= 6
        got = list(f.range_items())
        assert got == [(k, k[::-1]) for k in sorted(keys)]
        window = sorted(keys)[100:400]
        assert list(f.range_items(window[0], window[-1])) == [
            (k, k[::-1]) for k in window
        ]
        # A client warmed after the scale-out addresses every get directly.
        warm = cluster.client(warm=True)
        assert [warm.get(k) for k in window] == [k[::-1] for k in window]
        assert warm.ops_forwarded == 0

    def test_empty_range_and_empty_cluster(self):
        cluster = Cluster(shards=4)
        f = cluster.client()
        assert list(f.range_items()) == []
        assert list(f.range_items("b", "a")) == []
        assert len(f) == 0

    def test_cluster_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            Cluster(shards=0)
        with pytest.raises(ValueError):
            ShardPolicy(shard_capacity=1)
        with pytest.raises(ValueError):
            ShardPolicy(split_threshold=0.0)

    def test_errors_cross_the_wire(self):
        cluster = Cluster(shards=4)
        f = cluster.client()
        f.insert("alpha", "1")
        with pytest.raises(DuplicateKeyError):
            f.insert("alpha", "2")
        with pytest.raises(KeyNotFoundError):
            f.get("missing")
        with pytest.raises(TrieHashingError):
            f.delete("missing")
        assert f.get("alpha") == "1"


# ======================================================================
# Typed errors, message accounting, and IAM robustness (fault-PR fixes)
# ======================================================================
class TestTypedRoutingErrors:
    def test_unknown_shard_raises_typed_error(self):
        from repro.distributed import Op, UnknownShardError

        cluster = Cluster(shards=1)
        with pytest.raises(UnknownShardError):
            cluster.router.client_send(99, Op.get("a"))
        with pytest.raises(UnknownShardError):
            cluster.router.forward(0, 99, Op.get("a"))
        # Part of the TrieHashingError hierarchy, not a bare ValueError.
        assert issubclass(UnknownShardError, TrieHashingError)
        assert not issubclass(UnknownShardError, ValueError)

    def test_unknown_op_kind_raises_protocol_error(self):
        from repro.distributed import Op, ProtocolError

        registry = MetricsRegistry()
        cluster = Cluster(shards=1, registry=registry)
        with pytest.raises(ProtocolError):
            cluster.router.client_send(0, Op("frobnicate", key="a"))
        # The raising handler produced no reply, so none was counted.
        request = registry.counter("dist_messages_total", {"edge": "request"})
        reply = registry.counter("dist_messages_total", {"edge": "reply"})
        assert request.value == 1
        assert reply.value == 0


class TestMessageAccounting:
    def test_forwarded_op_counts_relayed_reply(self):
        # Regression: the owner's reply relayed back through the
        # forwarding server is a delivered message. The old router
        # counted 3 messages for a forwarded op; the true count is 4
        # (request, forward, relayed reply, client-bound reply).
        registry = MetricsRegistry()
        cluster = Cluster(shards=2, registry=registry)
        f = cluster.client()  # cold image: everything routed to shard 0
        owner = cluster.coordinator.owner_of("zzz")
        assert owner != 0  # the op below must need a forward
        f.insert("zzz", "Z")

        def edge(name):
            return registry.counter(
                "dist_messages_total", {"edge": name}
            ).value

        assert edge("request") == 1
        assert edge("forward") == 1
        assert edge("reply") == 2
        assert cluster.router.messages == 4

    def test_direct_op_counts_two_messages(self):
        registry = MetricsRegistry()
        cluster = Cluster(shards=2, registry=registry)
        f = cluster.client(warm=True)
        f.insert("apple", "A")
        assert cluster.router.messages == 2
        assert cluster.router.forwards == 0


class TestAbsorbAccounting:
    def test_error_reply_does_not_count_toward_convergence(self):
        from repro.distributed import Reply

        cluster = Cluster(shards=2)
        f = cluster.client()
        reply = Reply(
            error=KeyNotFoundError("nope"),
            iam=[("g", "t", 1)],
            forwards=1,
        )
        f._absorb(reply)
        # The failed op is not a resolved routing sample...
        assert f.ops_total == 0
        assert f.window_total == 0
        assert f.ops_forwarded == 0
        # ...but its IAM still teaches the authoritative cuts.
        assert f.iam_boundaries == 2
        assert f.image.shard_for_key("m") == 1

    def test_end_to_end_failed_ops_excluded(self):
        cluster = Cluster(shards=1)
        f = cluster.client()
        f.insert("apple", "A")
        with pytest.raises(DuplicateKeyError):
            f.insert("apple", "B")
        with pytest.raises(KeyNotFoundError):
            f.get("missing")
        assert f.ops_total == 1  # only the successful insert resolved
        assert f.convergence() == 1.0


class TestIAMRobustness:
    def test_duplicate_entries_in_one_batch_are_safe(self):
        image = TrieImage(DEFAULT_ALPHABET, (), (0,))
        entry = ("g", "t", 5)
        assert image.patch([entry, entry, entry]) == 2
        assert image.boundaries == ["g", "t"]
        assert image.patch([entry, entry]) == 0
        assert image.boundaries == ["g", "t"]
        assert image.shard_for_key("m") == 5

    def test_redelivered_stale_iam_never_regresses_boundaries(self):
        # A duplicated (redelivered) coarse IAM arriving after finer
        # cuts may repoint sub-gaps at a stale shard — another forward
        # fixes that — but it must never remove learned boundaries.
        image = TrieImage(DEFAULT_ALPHABET, (), (0,))
        image.patch([("g", "m", 1), ("m", "t", 2)])
        fine = list(image.boundaries)
        assert image.patch([("g", "t", 1)]) == 0  # stale, coarser view
        assert image.boundaries == fine
        image.check()
        # Replaying the fine entries again restores exact pointers.
        image.patch([("g", "m", 1), ("m", "t", 2)])
        assert image.shard_for_key("k") == 1
        assert image.shard_for_key("p") == 2

    def test_reordered_iams_converge_to_same_image(self):
        entries = [(None, "g", 1), ("g", "m", 2), ("m", "t", 3), ("t", None, 4)]
        forward_order = TrieImage(DEFAULT_ALPHABET, (), (0,))
        shuffled = TrieImage(DEFAULT_ALPHABET, (), (0,))
        forward_order.patch(entries)
        order = list(entries)
        random.Random(9).shuffle(order)
        for entry in order:
            shuffled.patch([entry])  # one IAM per reply, odd order
        assert forward_order.boundaries == shuffled.boundaries
        assert forward_order.shards == shuffled.shards


# ======================================================================
# The wire boundary (codec at the in-process fabric)
# ======================================================================
class TestWireBoundary:
    def test_inserted_value_cannot_be_mutated_through_the_caller(self):
        # The fabric serializes every op: the server stores a decoded
        # copy, so mutating the caller's object after the insert must
        # not reach the shard (the aliasing bug the codec eliminates).
        cluster = Cluster(shards=1)
        f = cluster.client()
        value = ["shared", {"nested": 1}]
        f.insert("alias", value)
        value.append("mutated-after-send")
        value[1]["nested"] = 999
        assert f.get("alias") == ["shared", {"nested": 1}]

    def test_read_value_cannot_be_mutated_back_into_the_store(self):
        cluster = Cluster(shards=1)
        f = cluster.client()
        f.insert("alias", {"count": 0})
        got = f.get("alias")
        got["count"] = 41
        got["extra"] = "nope"
        assert f.get("alias") == {"count": 0}

    def test_scan_records_do_not_alias_the_store(self):
        cluster = Cluster(shards=1)
        f = cluster.client()
        f.insert("alias", [1, 2, 3])
        for _, value in f.range_items():
            value.append(4)
        assert f.get("alias") == [1, 2, 3]


# ======================================================================
# Scan error paths and mid-scan scale-out
# ======================================================================
class TestScanEdgeCases:
    def test_errored_scan_leg_is_reraised_client_side(self):
        from repro.core.errors import StorageError

        cluster = Cluster(shards=2)
        f = cluster.client(warm=True)
        for key in ["apple", "bird", "cat", "xeno", "yak", "zebra"]:
            f.insert(key, key.upper())
        poisoned = cluster.coordinator.servers[1]
        original = poisoned.handle

        def failing(op):
            reply = original(op)
            if op.kind == "scan":
                reply.records = []
                reply.error = StorageError("leg exploded")
            return reply

        poisoned.handle = failing
        scan = f.range_items()
        lower = [next(scan) for _ in range(3)]  # shard 0's leg is fine
        assert [k for k, _ in lower] == ["apple", "bird", "cat"]
        with pytest.raises(StorageError, match="leg exploded"):
            next(scan)

    def test_mid_scan_split_completes_and_teaches_the_image(self):
        # A scan leg per region: split the upper shard after the scan
        # started. The continuation leg is addressed with the stale
        # image, forwarded by the old owner, and its IAM teaches the
        # client the new cut — the full ordered result stays exact.
        cluster = Cluster(
            shards=2, shard_policy=ShardPolicy(shard_capacity=10_000)
        )
        loader = cluster.client(warm=True)
        keys = sorted(set(KeyGenerator(seed=17).uniform(80, length=4)))
        for key in keys:
            loader.insert(key, key.upper())
        f = cluster.client(warm=True)
        scan = f.range_items()
        first = next(scan)  # pulls shard 0's whole leg
        assert cluster.coordinator.split_shard(1)
        rest = list(scan)
        got = [first] + rest
        assert [k for k, _ in got] == keys
        assert [v for _, v in got] == [k.upper() for k in keys]
        # The continuation forwarded exactly once and taught the cut.
        new_shard = max(cluster.coordinator.servers)
        assert new_shard in f.image.shards
        assert f.ops_forwarded >= 1
