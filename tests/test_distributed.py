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
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import (
    Alphabet,
    Cluster,
    DuplicateKeyError,
    KeyNotFoundError,
    ShardPolicy,
    THFile,
    TrieImage,
)
from repro.core.alphabet import DEFAULT_ALPHABET
from repro.core.boundaries import boundary_sort_key, gap_index
from repro.core.errors import (
    InvalidKeyError,
    StorageError,
    TrieCorruptionError,
    TrieHashingError,
)
from repro.core.policies import SplitPolicy
from repro.distributed.errors import ProtocolError
from repro.distributed.faults import FaultPlan
from repro.distributed.messages import Op
from repro.obs.metrics import MetricsRegistry
from repro.storage.persistence import dump_bytes
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

    def test_an_alphabet_with_no_room_for_the_sentinel_is_refused(self):
        with pytest.raises(InvalidKeyError):
            TrieImage(Alphabet([" ", "a", chr(0x10FFFF)]), (), (0,))
        # One code point lower leaves the last one as the sentinel.
        top = chr(0x10FFFE)
        image = TrieImage(Alphabet([" ", "a", top]), ("a",), (0, 1))
        assert image.shard_for_key("a" + top) == 0
        assert image.shard_for_key(top + "a") == 1

    def test_foreign_digits_in_a_boundary_are_refused(self):
        with pytest.raises(InvalidKeyError):
            TrieImage(DEFAULT_ALPHABET, ("G",), (0, 1))
        image = TrieImage(DEFAULT_ALPHABET, (), (0,))
        with pytest.raises(InvalidKeyError):
            image.patch([("g", "t~", 5)])
        with pytest.raises(InvalidKeyError):
            image.gap_above("g~")

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_the_bisect_gap_is_the_prefix_le_search(self, data):
        # Random alphabets (any code points but the last), boundaries
        # that are prefixes of each other, boundaries and keys with
        # trailing minimum digits.
        digits = sorted(
            data.draw(
                st.lists(
                    st.characters(max_codepoint=0x10FFFE),
                    min_size=2,
                    max_size=5,
                    unique=True,
                )
            )
        )
        alphabet = Alphabet(digits)
        low = digits[0]
        word = st.lists(st.sampled_from(digits), min_size=1, max_size=5).map(
            "".join
        )
        found = set()
        for w in data.draw(st.lists(word, max_size=6)):
            found.update(w[:n] for n in range(1, len(w) + 1))
            found.add(w + low * data.draw(st.integers(0, 2)))
        boundaries = sorted(found, key=lambda b: boundary_sort_key(b, alphabet))
        image = TrieImage(alphabet, boundaries, range(len(boundaries) + 1))
        keys = [k.rstrip(low) for k in data.draw(st.lists(word, max_size=12))]
        keys += [""] + [b.rstrip(low) for b in boundaries]
        keys += [b + digits[-1] for b in boundaries]
        for key in keys:
            gap = gap_index(boundaries, key, alphabet)
            assert image.locate(key) == (gap, gap)
        for j, boundary in enumerate(boundaries):
            assert image.gap_above(boundary) == j + 1
        # Cuts inserted in any order land in boundary order.
        grown = TrieImage(alphabet, (), (0,))
        shuffled = list(boundaries)
        random.Random(len(boundaries)).shuffle(shuffled)
        for boundary in shuffled:
            grown.patch([(boundary, None, 0)])
        assert grown.boundaries == boundaries


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


class TestPointPath:
    """What a point op pays above the trie, and what it must not lose.

    The owning shard locates the key once and builds the reply's owner
    and IAM from that gap (locating again only after a split), a reply
    carries the IAM only when the client addressed another shard, a
    converged client skips the image patch, and the per-op instruments
    are bound on first use.
    """

    def test_every_point_reply_names_the_owner_and_region_after_it(self):
        # The owner always; the region exactly when the shard the
        # client addressed is not the owner once the op (and any split
        # it caused) is done.
        cluster = Cluster(shards=1, shard_policy=ShardPolicy(shard_capacity=8))
        coordinator = cluster.coordinator
        first = min(coordinator.servers)
        splits = moved = taught = 0
        for seq, key in enumerate(KeyGenerator(7).uniform(160), 1):
            owner_before = coordinator.owner_of(key)
            shards_before = cluster.shard_count()
            op = Op.put(key, seq)
            op.rid = (99, seq)
            # Even ops go to the first shard, so some are forwarded.
            target = owner_before if seq % 2 else first
            reply = cluster.router.client_send(target, op)
            assert reply.error is None
            assert reply.owner == coordinator.owner_of(key)
            if reply.owner == target:
                assert reply.iam == []
            else:
                assert reply.iam == coordinator.iam_for_key(key)
                taught += 1
            if cluster.shard_count() > shards_before:
                splits += 1
                moved += reply.owner != owner_before
        # Both sides of the re-locate ran: splits that kept the key on
        # its shard and splits that moved it to the new one.
        assert splits > moved > 0
        assert 0 < taught < 160
        cluster.check()

    def test_instruments_account_for_a_cold_run(self):
        registry = MetricsRegistry()
        cluster = Cluster(
            shards=4, shard_policy=ShardPolicy(shard_capacity=48),
            registry=registry,
        )
        f = cluster.client()
        keys = KeyGenerator(17).uniform(400)
        for key in keys:
            f.insert(key, key.upper())
        for key in keys[::3]:
            assert f.get(key) == key.upper()
        with pytest.raises(KeyNotFoundError):
            f.get("missing")
        assert f.ops_forwarded > 0 and cluster.shard_count() > 4

        counters = registry.snapshot()["counters"]

        def by_label(name, label):
            return {
                dict(inst.labels)[label]: inst.value
                for inst in registry.instruments()
                if inst.name == name
            }

        messages = by_label("dist_messages_total", "edge")
        assert set(messages) == {"request", "forward", "reply"}
        assert sum(messages.values()) == cluster.router.messages
        routed = by_label("dist_client_ops_total", "routed")
        assert routed == {
            "forwarded": f.ops_forwarded,
            "direct": f.ops_total - f.ops_forwarded,
        }
        # One handled delivery per request or forward reaching a shard.
        handled = sum(
            value for key, value in counters.items()
            if key.startswith("dist_server_ops_total{")
        )
        assert handled == messages["request"] + messages["forward"]
        # No series was created ahead of its first event: every counter
        # counted something, and the one gauge holds the last value.
        assert all(value > 0 for value in counters.values())
        assert registry.gauge(
            "dist_client_convergence", {"client": f.client_id}
        ).value == f.convergence()

    def test_op_latency_histogram_is_bound_once(self, monkeypatch):
        # A FaultyTransport has a clock, so every op observes its latency.
        registry = MetricsRegistry()
        cluster = Cluster(shards=2, faults=FaultPlan(seed=1), registry=registry)
        f = cluster.client()
        lookups = []
        original = MetricsRegistry.histogram

        def spy(self, name, *args, **kwargs):
            lookups.append(name)
            return original(self, name, *args, **kwargs)

        monkeypatch.setattr(MetricsRegistry, "histogram", spy)
        keys = KeyGenerator(13).uniform(40)
        for key in keys:
            f.insert(key, key.upper())
        assert [f.get(key) for key in keys] == [key.upper() for key in keys]
        assert lookups == ["dist_op_seconds"]
        (histogram,) = [
            inst for inst in registry.instruments()
            if inst.name == "dist_op_seconds"
        ]
        assert histogram.total == 2 * len(keys)

    def test_converged_get_skips_the_image_patch(self, monkeypatch):
        cluster = Cluster(shards=4, shard_policy=ShardPolicy(shard_capacity=64))
        keys = KeyGenerator(3).uniform(300)
        loader = cluster.client(warm=True)
        for key in keys:
            loader.insert(key, key.upper())
        patched = []
        original = TrieImage.patch

        def spy(image, entries):
            patched.append(image)
            return original(image, entries)

        monkeypatch.setattr(TrieImage, "patch", spy)
        warm = cluster.client(warm=True)
        assert [warm.get(key) for key in keys[:60]] == [
            key.upper() for key in keys[:60]
        ]
        assert warm.image not in patched
        cold = cluster.client()
        for key in keys[:60]:
            cold.get(key)
        assert cold.iam_boundaries > 0
        assert cold.image in patched
        # Once the cold client has learned those regions, its gets on
        # them stop patching too.
        patched.clear()
        for key in keys[:60]:
            cold.get(key)
        assert patched == []


class TestIAMOnlyOnMisaddressing:
    """A reply carries an IAM only when the client addressed the wrong
    shard, and that loses no routing: image cuts are a subset of the
    authoritative ones, so an entry naming the addressed shard could
    only add cuts whose gaps keep that shard."""

    @given(seed=st.integers(0, 2**16))
    @example(seed=338)
    @example(seed=449)
    @settings(max_examples=20, deadline=None)
    def test_a_client_routes_like_one_taught_after_every_op(self, seed):
        rng = random.Random(seed)
        shards = rng.choice((1, 2, 4))
        cluster = Cluster(shards=shards, shard_policy=ShardPolicy(shard_capacity=8))
        coordinator = cluster.coordinator
        client = cluster.client()
        # The reference takes the key's region after every op, as every
        # reply carried it before wire version 3.
        reference = client.image.copy()
        # A second client grows the cluster first, past what four shards
        # of eight records hold, so the cold client starts out stale and
        # misaddresses; a client that only ever sees its own splits can
        # learn each cut from the reply of the op that made it.
        grower = cluster.client()
        for key in KeyGenerator(seed + 2).uniform(rng.randrange(40, 80)):
            grower.put(key, -1)
        keys = KeyGenerator(seed).uniform(120)
        probes = keys + KeyGenerator(seed + 1).uniform(60)
        reference_learned = 0
        for value in range(200):
            key = rng.choice(keys)
            draw = rng.random()
            try:
                if draw < 0.5:
                    client.put(key, value)
                elif draw < 0.6:
                    client.insert(key, value)
                elif draw < 0.7:
                    client.delete(key)
                elif draw < 0.9:
                    client.get(key)
                else:
                    client.contains(key)
            except (DuplicateKeyError, KeyNotFoundError):
                pass
            reference_learned += reference.patch(coordinator.iam_for_key(key))
            for probe in probes:
                assert client.image.shard_for_key(probe) == (
                    reference.shard_for_key(probe)
                ), (value, probe)
        assert cluster.shard_count() > shards and client.ops_forwarded > 0
        assert client.iam_boundaries <= reference_learned
        cluster.check()


class TestBatchLegs:
    """A batch leg locates each key once on its shard, and its reply's
    IAM names every region the leg touched that the addressed shard
    does not own, as the partition stands after the leg."""

    @staticmethod
    def _regions_after(coordinator, keys, addressed):
        regions = []
        for key in keys:
            (entry,) = coordinator.iam_for_key(key)
            if entry[2] != addressed and entry not in regions:
                regions.append(entry)
        return regions

    def test_every_leg_iam_names_each_region_after_it_once(self):
        cluster = Cluster(shards=2, shard_policy=ShardPolicy(shard_capacity=16))
        coordinator = cluster.coordinator
        keys = KeyGenerator(11).uniform(240)
        splits = taught = 0
        for seq, start in enumerate(range(0, len(keys), 24), 1):
            chunk = sorted(keys[start:start + 24])
            target = coordinator.owner_of(chunk[len(chunk) // 2])
            shards_before = cluster.shard_count()
            op = Op.put_many([(key, seq) for key in chunk])
            op.rid = (77, seq)
            reply = cluster.router.client_send(target, op)
            assert reply.error is None
            assert reply.iam == self._regions_after(coordinator, chunk, target)
            taught += bool(reply.iam)
            splits += cluster.shard_count() > shards_before
            reply = cluster.router.client_send(target, Op.get_many(chunk))
            assert reply.iam == self._regions_after(coordinator, chunk, target)
            assert len(reply.value) + len(reply.records) == len(chunk)
        assert splits > 0 and taught > 0
        cluster.check()

    def test_a_leg_that_does_not_split_locates_each_key_once(self, monkeypatch):
        cluster = Cluster(shards=4, shard_policy=ShardPolicy(shard_capacity=4096))
        coordinator = cluster.coordinator
        keys = sorted(KeyGenerator(5).uniform(300))
        target = coordinator.owner_of(keys[0])
        located = []
        original = TrieImage.locate

        def spy(image, key):
            if image is coordinator.model:
                located.append(key)
            return original(image, key)

        monkeypatch.setattr(TrieImage, "locate", spy)
        op = Op.put_many([(key, key.upper()) for key in keys])
        op.rid = (88, 1)
        reply = cluster.router.client_send(target, op)
        assert reply.error is None and 0 < len(reply.records) < len(keys)
        assert sorted(located) == keys
        located.clear()
        reply = cluster.router.client_send(target, Op.get_many(keys))
        assert 0 < len(reply.value) < len(keys)
        assert sorted(located) == keys


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

    def test_a_string_the_wire_cannot_carry_fails_typed_at_the_client(self):
        cluster = Cluster(shards=1)
        f = cluster.client()
        with pytest.raises(ProtocolError, match="not UTF-8 encodable"):
            f.put("abc", "v\udfff")
        f.put("abc", "v")
        assert f.get("abc") == "v"

    def test_a_durable_shard_refuses_an_oversized_put_and_serves_on(self):
        # At 70 000 bytes the value fits no WAL record or bucket: the
        # shard refuses it before the apply, so no later checkpoint, and
        # no recovery, ever meets it.
        cluster = Cluster(shards=1, durable=True)
        f = cluster.client()
        f.put("abc", "kept")
        with pytest.raises(StorageError, match="65535"):
            f.put("abc", "x" * 70_000)
        keys = ["ab" + a + b for a in "bcdefghij" for b in "abcdefgh"]
        for key in keys:  # past the next checkpoints
            f.put(key, key.upper())
        server = cluster.coordinator.servers[0]
        server.crash()
        server.restart()
        assert f.get("abc") == "kept"
        assert dict(f.items()) == {"abc": "kept", **{k: k.upper() for k in keys}}
        cluster.check()


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


# ======================================================================
# One fill path: split halves, backups and resyncs are born holding
# their records and dedup window (ShardServer.refill)
# ======================================================================
def _stamped_puts(cluster, count):
    """``count`` rid-stamped puts sent straight to shard 0, in key order."""
    ops = []
    for i, key in enumerate(sorted(set(KeyGenerator(41).uniform(count)))):
        op = Op.put(key, key.upper())
        op.rid = (7, i + 1)
        assert cluster.router.client_send(0, op).error is None
        ops.append(op)
    return ops


class TestOneFillPath:
    @pytest.mark.parametrize("half", ["low", "high"])
    def test_split_then_crash_still_dedups_on_each_half(self, half):
        cluster = Cluster(shards=1, durable=True)
        ops = _stamped_puts(cluster, 20)
        assert cluster.coordinator.split_shard(0)
        op = ops[0] if half == "low" else ops[-1]
        owner = cluster.coordinator.owner_of(op.key)
        assert (owner == 0) == (half == "low")
        server = cluster.coordinator.servers[owner]
        server.crash()  # right behind the split: only the birth checkpoint
        server.restart()
        reply = cluster.router.client_send(owner, op)
        assert reply.error is None and reply.dedup
        assert cluster.router.duplicate_applies() == 0

    def test_durable_split_logs_nothing_for_the_moved_records(self):
        cluster = Cluster(shards=1, durable=True)
        ops = _stamped_puts(cluster, 60)
        assert cluster.coordinator.split_shard(0)
        halves = list(cluster.coordinator.servers.values())
        assert len(halves) == 2
        assert sum(len(server) for server in halves) == len(ops)
        for server in halves:
            stats = server.file.stable.stats
            assert (stats.appends, stats.fsyncs) == (0, 0)

    @pytest.mark.parametrize(
        "durable, policy",
        [(False, None), (True, None), (False, SplitPolicy.thcl_redistributing())],
        ids=["memory", "durable", "thcl"],
    )
    def test_split_halves_match_per_record_insertion(self, durable, policy):
        cluster = Cluster(shards=1, bucket_capacity=4, policy=policy, durable=durable)
        _stamped_puts(cluster, 150)
        assert cluster.coordinator.split_shard(0)
        for server in cluster.coordinator.servers.values():
            oracle = THFile(bucket_capacity=4, policy=policy)
            for key, value in server.items():
                oracle.insert(key, value)
            assert dump_bytes(server.engine) == dump_bytes(oracle)

    @pytest.mark.parametrize("copy", ["seed", "resync"])
    def test_rebuilt_backup_dedups_a_pre_copy_rid_after_a_crash(self, copy):
        cluster = Cluster(shards=1, durable=True, replication="semisync")
        coordinator, router = cluster.coordinator, cluster.router
        ops = _stamped_puts(cluster, 20)
        primary, backup = coordinator.servers[0], coordinator.replicas[0]
        if copy == "seed":
            coordinator.ensure_backup(primary)  # the coordinator's direct copy
        else:
            backup.crash()
            backup.restart()  # back with no shipping position
            resyncs = primary.replicator.resyncs
            assert router.client_send(0, Op.put("zz", "late")).error is None
            assert primary.replicator.resyncs == resyncs + 1
        backup.crash()  # the copy's genesis checkpoint is all it has
        backup.restart()
        primary.crash()
        assert coordinator.failover(0)
        reply = router.client_send(0, ops[0])  # rebound to the promoted backup
        assert reply.error is None and reply.dedup
        assert router.duplicate_applies() == 0
