"""The compact trie backend, differentially tested against the cell trie.

Three layers of assurance over :mod:`repro.core.compact`:

* a differential suite: every operation (insert / get / delete / split /
  scan / cursor) mirrored on a cells-backed and a compact-backed
  :class:`THFile` fed the same seeded workload must produce identical
  results, identical boundary models, byte-identical serialised tries,
  and byte-identical Section-6 reconstructions from bucket headers
  alone;
* the column walk: ``CompactTrie.step`` visits the cells trie's leaves
  in order on TH, THCL and nil-leaf files, ``CompactTrie.trail`` is the
  A1 search trail, a compact scan descends once per bound with no A1
  search, and a compact scan or cursor builds no row view;
* a Hypothesis stateful machine (:class:`CompactAgainstCells`, modelled
  on the chaos machine) driving mixed point and batch operations against
  both backends, with the registered ``repro.check`` audits run at FULL
  level inside the machine;
* batch-API contract tests: ``get_many`` / ``put_many`` equivalence
  with per-key loops on TH / THCL / MLTH, empty / duplicate / unsorted
  batches, atomicity across splits triggered mid-batch, durable batches
  surviving reopen, and distributed batches spanning shard boundaries
  under injected faults;
* the default: every entry point that builds a file names the one
  :data:`~repro.core.compact.DEFAULT_TRIE_BACKEND`, and a MANIFEST
  written before the compact backend existed still reopens as cells.
"""

import inspect
import json
import random
import string

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

import repro.cli
from repro import Cluster, DuplicateKeyError, ShardPolicy, THFile
from repro.check import AuditLevel, audit
from repro.core.bulk import bulk_load_th
from repro.core.cells import NIL, edge_target, is_edge
from repro.core.compact import DEFAULT_TRIE_BACKEND, CompactCellView, CompactTrie
from repro.core.cursor import Cursor
from repro.core.errors import TrieCorruptionError
from repro.core.mlth import MLTHFile
from repro.core.policies import SplitPolicy
from repro.core.reconstruct import reconstruct_trie
from repro.core.trie import Location, Trie
from repro.distributed import FaultPlan, RetryPolicy
from repro.distributed.chaos import run_chaos
from repro.storage.recovery import DurableFile, _THEngine
from repro.storage.serializer import serialize_trie
from repro.storage.wal import StableStore
from repro.workloads import KeyGenerator


# ----------------------------------------------------------------------
# Workload machinery
# ----------------------------------------------------------------------
def _word(rng, lo=2, hi=8):
    return "".join(
        rng.choice(string.ascii_lowercase) for _ in range(rng.randint(lo, hi))
    )


def mixed_ops(n, seed):
    """A deterministic op list: ~55% insert, ~25% delete, ~20% put."""
    rng = random.Random(seed)
    model = {}
    ops = []
    while len(ops) < n:
        r = rng.random()
        if model and r < 0.25:
            key = rng.choice(sorted(model))
            del model[key]
            ops.append(("delete", key, None))
        elif model and r < 0.45:
            key = rng.choice(sorted(model))
            value = _word(rng)
            model[key] = value
            ops.append(("put", key, value))
        else:
            key = _word(rng)
            if key in model:
                continue
            value = _word(rng)
            model[key] = value
            ops.append(("insert", key, value))
    return ops


def pair(b=6, policy=None):
    """One cells-backed and one compact-backed file, same parameters."""
    return (
        THFile(bucket_capacity=b, policy=policy, trie_backend="cells"),
        THFile(bucket_capacity=b, policy=policy, trie_backend="compact"),
    )


def apply_op(f, kind, key, value):
    if kind == "insert":
        f.insert(key, value)
    elif kind == "put":
        f.put(key, value)
    else:
        return f.delete(key)
    return None


def assert_mirrored(cells, compact):
    """The full identity contract between the two backends."""
    assert type(compact.trie) is CompactTrie
    assert len(cells) == len(compact)
    assert list(cells.items()) == list(compact.items())
    assert (
        cells.trie.to_model().boundaries
        == compact.trie.to_model().boundaries
    )
    assert serialize_trie(cells.trie) == serialize_trie(compact.trie)
    cells.check()
    compact.check()


def assert_reconstruction_oracle(cells, compact):
    """Section 6: both bucket files rebuild byte-identical tries.

    The rebuilt trie must agree with the live trie on the *mapping* for
    every live key (the contract the ``repro.check`` PARANOID audit
    enforces), not on the exact boundary list: a deletion that reverts
    an emptied leaf to nil (§2.4 basic method) leaves a boundary with no
    bucket-header witness, so a headers-only reconstruction legitimately
    omits it — the nil region holds no records either way.
    """
    rebuilt_cells = reconstruct_trie(cells.store, cells.alphabet)
    rebuilt_compact = reconstruct_trie(compact.store, compact.alphabet)
    assert serialize_trie(rebuilt_cells) == serialize_trie(rebuilt_compact)
    rebuilt_model = rebuilt_compact.to_model()
    live_model = compact.trie.to_model()
    for address in compact.store.live_addresses():
        for key in compact.store.peek(address).keys:
            assert rebuilt_model.lookup(key) == live_model.lookup(key)


# ----------------------------------------------------------------------
# Differential suite
# ----------------------------------------------------------------------
class TestDifferential:
    @pytest.mark.parametrize(
        "seed, policy",
        [pytest.param(seed, None, id=str(seed)) for seed in (3, 11, 29)]
        + [
            # Rotation merges rebuild the trie from the boundary model;
            # the rebuilt trie must stay on the file's own backend.
            pytest.param(seed, SplitPolicy(merge="rotations"), id=f"rotations-{seed}")
            for seed in (3, 11, 29)
        ],
    )
    def test_seeded_mixed_workload_mirrors(self, seed, policy):
        cells, compact = pair(b=4, policy=policy)
        for i, (kind, key, value) in enumerate(mixed_ops(400, seed)):
            assert apply_op(cells, kind, key, value) == apply_op(
                compact, kind, key, value
            )
            if i % 80 == 0:
                assert_mirrored(cells, compact)
        assert_mirrored(cells, compact)
        assert_reconstruction_oracle(cells, compact)

    def test_point_lookups_and_duplicates_mirror(self):
        cells, compact = pair(b=4)
        rng = random.Random(5)
        keys = sorted({_word(rng) for _ in range(120)})
        for k in keys:
            cells.insert(k, k.upper())
            compact.insert(k, k.upper())
        for f in (cells, compact):
            with pytest.raises(DuplicateKeyError):
                f.insert(keys[0], "again")
        probes = keys + [_word(rng) for _ in range(40)]
        for k in probes:
            assert cells.contains(k) == compact.contains(k)
            if cells.contains(k):
                assert cells.get(k) == compact.get(k)

    def test_split_heavy_ascending_insertions_mirror(self):
        # Sorted insertion is the paper's worst case for splits: every
        # bucket overflows on its right edge, exercising the boundary
        # split path on both backends in lockstep.
        cells, compact = pair(b=4)
        keys = sorted(KeyGenerator(21).uniform(300))
        for k in keys:
            cells.insert(k)
            compact.insert(k)
        assert compact.bucket_count() > 10
        assert_mirrored(cells, compact)
        assert_reconstruction_oracle(cells, compact)

    def test_range_scans_mirror(self):
        cells, compact = pair(b=5)
        keys = KeyGenerator(9).uniform(250)
        for k in keys:
            cells.insert(k, k[::-1])
            compact.insert(k, k[::-1])
        ordered = sorted(keys)
        spans = [
            (ordered[10], ordered[60]),
            (ordered[0], ordered[-1]),
            ("a", "m"),
            ("zzz", "zzzz"),  # empty span
        ]
        for lo, hi in spans:
            assert list(cells.range_items(lo, hi)) == list(
                compact.range_items(lo, hi)
            )

    def test_cursor_walks_mirror(self):
        cells, compact = pair(b=5)
        for k in KeyGenerator(17).uniform(200):
            cells.insert(k, k)
            compact.insert(k, k)

        def walk(f):
            cursor = Cursor(f)
            out = []
            ok = cursor.first()
            while ok:
                out.append(cursor.item())
                ok = cursor.next()
            return out

        assert walk(cells) == walk(compact)
        mid = sorted(compact.keys())[len(compact) // 2]
        c1, c2 = Cursor(cells), Cursor(compact)
        assert c1.seek(mid) == c2.seek(mid)
        assert c1.item() == c2.item()
        assert c1.next() == c2.next()
        assert c1.item() == c2.item()

    def test_full_audits_pass_on_both_backends(self):
        cells, compact = pair(b=4)
        for kind, key, value in mixed_ops(250, 13):
            apply_op(cells, kind, key, value)
            apply_op(compact, kind, key, value)
        assert audit(cells.trie, level=AuditLevel.FULL).violations == []
        assert audit(compact.trie, level=AuditLevel.FULL).violations == []
        assert (
            audit(compact.trie, level=AuditLevel.PARANOID).violations == []
        )

    def test_compact_audit_detects_column_corruption(self):
        # The registered CompactTrie audit must actually bite: flip one
        # packed-coordinate word and the FULL sweep reports it.
        _, compact = pair(b=4)
        for k in KeyGenerator(3).uniform(60):
            compact.insert(k)
        table = compact.trie.cells
        victim = next(
            i for i in range(len(table._md)) if table._md[i] >= 0
        )
        table._md[victim] ^= 1 << 40
        report = audit(compact.trie, level=AuditLevel.FULL)
        assert any(
            v.code == "AUD-COMPACT-COLUMNS" for v in report.violations
        )


# ----------------------------------------------------------------------
# The leaf walk over the columns
# ----------------------------------------------------------------------
def _walk_pair(kind):
    """A cells and a compact file holding the same seeded records.

    ``th`` is the basic method, ``thcl`` shares leaves between buckets,
    and ``nil`` deletes two thirds of a basic file so that emptied
    leaves revert to nil.
    """
    policy = SplitPolicy.thcl() if kind == "thcl" else None
    cells, compact = pair(b=4, policy=policy)
    keys = KeyGenerator(31).uniform(300)
    for f in (cells, compact):
        for k in keys:
            f.insert(k, k.upper())
        if kind == "nil":
            for k in keys[:200]:
                f.delete(k)
    return cells, compact


def _leaf_walk(trie, step, forward):
    """Every ``(trail, pointer)`` the walk visits from one end to the other."""
    side = "L" if forward else "R"
    trail = []
    ptr = trie.root
    while is_edge(ptr):  # down to the first (last) leaf
        trail.append((edge_target(ptr), side))
        ptr = trie.cells[edge_target(ptr)].child(side)
    visits = [(list(trail), trie.get_ptr(Location(*trail[-1])))]
    while (ptr := step(trie, trail, forward)) is not None:
        assert ptr == trie.get_ptr(Location(*trail[-1]))
        visits.append((list(trail), ptr))
    return visits


class TestColumnWalk:
    @pytest.mark.parametrize("kind", ["th", "thcl", "nil"])
    @pytest.mark.parametrize("forward", [True, False], ids=["forward", "backward"])
    def test_step_matches_the_cells_trie_leaf_for_leaf(self, kind, forward):
        cells, compact = _walk_pair(kind)
        leaves = [ptr for _, ptr, _ in cells.trie.leaves_in_order()]
        if kind == "thcl":
            assert len(set(leaves)) < len(leaves)  # shared leaves
        if kind == "nil":
            assert NIL in leaves
        walked = _leaf_walk(compact.trie, CompactTrie.step, forward)
        assert walked == _leaf_walk(cells.trie, Trie.step, forward)
        # The column walk and the inherited view walk agree too.
        assert walked == _leaf_walk(compact.trie, Trie.step, forward)
        assert [ptr for _, ptr in walked] == (
            leaves if forward else leaves[::-1]
        )

    @pytest.mark.parametrize("kind", ["th", "thcl", "nil"])
    def test_the_trail_descent_is_the_a1_search_trail(self, kind):
        cells, compact = _walk_pair(kind)
        rng = random.Random(7)
        probes = list(KeyGenerator(31).uniform(300))  # stored and deleted
        probes += ["", "a", "zzzzzzzzzz", "m a", "\u0101"]  # past latin-1
        probes += [_word(rng, 1, 12) for _ in range(200)]
        for key in probes:
            expected = list(cells.trie.search(key).trail)
            assert cells.trie.trail(key) == expected, key
            assert compact.trie.trail(key) == expected, key
            assert list(compact.trie.search(key).trail) == expected, key

    def test_a_compact_scan_and_full_walk_run_no_a1_search(self, monkeypatch):
        _, compact = _walk_pair("thcl")
        ordered = sorted(compact.keys())

        def no_search(*args, **kwargs):
            raise AssertionError("a scan bound ran a full A1 search")

        monkeypatch.setattr(CompactTrie, "search", no_search)
        scanned = compact.range_items(ordered[10], ordered[250])
        assert [k for k, _ in scanned] == ordered[10:251]
        assert [k for k, _ in compact.range_items(None, ordered[5])] == ordered[:6]
        assert [k for k, _ in compact.items()] == ordered

    def test_a_freed_cell_on_the_trail_raises_as_on_cells(self):
        messages = []
        for f in _walk_pair("th"):
            # The first leaf's trail turns left at every cell, so the
            # step climbs to its last cell and turns right there.
            trail = list(f.trie.search("").trail)
            f.trie.cells.free(trail[-1][0])
            with pytest.raises(TrieCorruptionError) as info:
                f.trie.step(trail)
            messages.append(str(info.value))
            with pytest.raises(TrieCorruptionError):
                f.trie.get_ptr(Location(*trail[-1]))
        assert messages[0] == messages[1]

    def test_a_compact_scan_and_cursor_walk_build_no_cell_view(self, monkeypatch):
        _, compact = _walk_pair("thcl")
        ordered = sorted(compact.keys())
        built = []
        make_view = CompactCellView.__init__

        def counting(view, table, index):
            built.append(index)
            make_view(view, table, index)

        monkeypatch.setattr(CompactCellView, "__init__", counting)
        scanned = list(compact.range_items(ordered[10], ordered[250]))
        assert [k for k, _ in scanned] == ordered[10:251]
        cursor = Cursor(compact)
        forward, backward = [], []
        ok = cursor.first()
        while ok:
            forward.append(cursor.item()[0])
            ok = cursor.next()
        ok = cursor.last()
        while ok:
            backward.append(cursor.item()[0])
            ok = cursor.prev()
        assert forward == ordered
        assert backward == ordered[::-1]
        assert built == []


# ----------------------------------------------------------------------
# Stateful differential machine
# ----------------------------------------------------------------------
keys_st = st.text(alphabet="abcdefgh", min_size=1, max_size=6)
values_st = st.text(alphabet="nopqrstu", min_size=0, max_size=5)
batch_st = st.lists(st.tuples(keys_st, values_st), max_size=12)


class CompactAgainstCells(RuleBasedStateMachine):
    """Mixed point and batch ops against both backends and a dict."""

    @initialize(
        seed=st.integers(min_value=0, max_value=2**16),
        b=st.sampled_from([4, 8]),
    )
    def setup(self, seed, b):
        self.cells = THFile(bucket_capacity=b, trie_backend="cells")
        self.compact = THFile(bucket_capacity=b, trie_backend="compact")
        self.model = {}

    @rule(key=keys_st, value=values_st)
    def insert(self, key, value):
        if key in self.model:
            for f in (self.cells, self.compact):
                with pytest.raises(DuplicateKeyError):
                    f.insert(key, value)
        else:
            self.cells.insert(key, value)
            self.compact.insert(key, value)
            self.model[key] = value

    @rule(key=keys_st, value=values_st)
    def put(self, key, value):
        self.cells.put(key, value)
        self.compact.put(key, value)
        self.model[key] = value

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def delete_existing(self, data):
        key = data.draw(st.sampled_from(sorted(self.model)))
        expected = self.model.pop(key)
        assert self.cells.delete(key) == expected
        assert self.compact.delete(key) == expected

    @rule(key=keys_st)
    def lookup(self, key):
        assert self.cells.contains(key) == (key in self.model)
        assert self.compact.contains(key) == (key in self.model)
        if key in self.model:
            assert self.cells.get(key) == self.model[key]
            assert self.compact.get(key) == self.model[key]

    @rule(batch=batch_st)
    def put_many_batch(self, batch):
        self.cells.put_many(batch)
        self.compact.put_many(batch)
        self.model.update(dict(batch))

    @rule(batch=st.lists(keys_st, max_size=12))
    def get_many_batch(self, batch):
        expected = {k: self.model[k] for k in batch if k in self.model}
        assert self.cells.get_many(batch) == expected
        assert self.compact.get_many(batch) == expected

    @precondition(lambda self: self.cells.bucket_count() > 1)
    @rule()
    def audit_full(self):
        # The registered audits, FULL level, inside the machine: the
        # CompactTrie registration replaces the inherited Trie audit and
        # adds the column-layout invariants.
        assert audit(self.cells.trie, level=AuditLevel.FULL).violations == []
        assert (
            audit(self.compact.trie, level=AuditLevel.FULL).violations == []
        )

    @invariant()
    def sizes_agree(self):
        assert len(self.cells) == len(self.compact) == len(self.model)

    def teardown(self):
        assert dict(self.cells.items()) == self.model
        assert_mirrored(self.cells, self.compact)
        assert_reconstruction_oracle(self.cells, self.compact)


TestCompactStateful = CompactAgainstCells.TestCase
TestCompactStateful.settings = settings(deadline=None)


# ----------------------------------------------------------------------
# Batch-API contracts
# ----------------------------------------------------------------------
def _make_engine(name, backend="compact"):
    if name == "th":
        return THFile(bucket_capacity=6, trie_backend=backend)
    if name == "thcl":
        return THFile(
            bucket_capacity=6,
            policy=SplitPolicy.thcl_ascending(),
            trie_backend=backend,
        )
    return MLTHFile(bucket_capacity=6, page_capacity=8)


def _canonical(batch):
    """The order put_many applies: sorted, unique, last value wins."""
    last = {}
    for key, value in batch:
        last[key] = value
    return sorted(last.items())


class TestBatchContracts:
    @pytest.mark.parametrize("engine", ["th", "thcl", "mlth"])
    def test_put_many_equivalent_to_per_key_loop(self, engine):
        rng = random.Random(41)
        batch = [(_word(rng, 2, 6), _word(rng)) for _ in range(150)]
        rng.shuffle(batch)  # unsorted, with natural duplicates
        batched = _make_engine(engine)
        batched.put_many(batch)
        looped = _make_engine(engine)
        for key, value in _canonical(batch):
            looped.put(key, value)
        assert list(batched.items()) == list(looped.items())
        batched.check()

    @pytest.mark.parametrize("engine", ["th", "thcl", "mlth"])
    def test_get_many_matches_per_key_gets(self, engine):
        rng = random.Random(43)
        f = _make_engine(engine)
        keys = sorted({_word(rng, 2, 6) for _ in range(120)})
        for k in keys:
            f.put(k, k[::-1])
        absent = [_word(rng, 9, 11) for _ in range(20)]
        probes = keys + absent + keys[:10]  # duplicates too
        rng.shuffle(probes)
        assert f.get_many(probes) == {
            k: f.get(k) for k in probes if f.contains(k)
        }

    @pytest.mark.parametrize("engine", ["th", "thcl", "mlth"])
    def test_empty_and_noop_batches(self, engine):
        f = _make_engine(engine)
        f.put("anchor", "v")
        f.put_many([])
        assert f.get_many([]) == {}
        assert list(f.items()) == [("anchor", "v")]

    def test_duplicate_keys_in_batch_last_wins(self):
        f = _make_engine("th")
        f.put_many([("same", "first"), ("other", "x"), ("same", "last")])
        assert f.get("same") == "last"
        assert len(f) == 2

    def test_batch_atomic_across_splits_mid_batch(self):
        # One batch large enough to split buckets repeatedly while it is
        # being applied must land the same structure as per-key inserts.
        keys = sorted(KeyGenerator(31).uniform(200))
        batched = THFile(bucket_capacity=4, trie_backend="compact")
        batched.put_many([(k, None) for k in keys])
        looped = THFile(bucket_capacity=4, trie_backend="compact")
        for k in keys:
            looped.put(k, None)
        assert batched.bucket_count() > 10
        assert list(batched.items()) == list(looped.items())
        assert serialize_trie(batched.trie) == serialize_trie(looped.trie)
        batched.check()

    def test_durable_batch_survives_reopen(self):
        store = StableStore()
        f = DurableFile.open(
            store, engine="th", capacity=4, trie_backend="compact"
        )
        rng = random.Random(47)
        batch = [(_word(rng, 2, 6), _word(rng)) for _ in range(80)]
        f.put_many(batch)
        expected = dict(f.items())
        f.close()
        reopened = DurableFile.open(
            store, engine="th", capacity=4, trie_backend="compact"
        )
        assert dict(reopened.items()) == expected
        assert type(reopened.file.trie) is CompactTrie
        reopened.check()

    def test_distributed_batches_span_shards_under_faults(self):
        plan = FaultPlan(seed=2, drop=0.01, duplicate=0.01, delay=0.01)
        cluster = Cluster(
            shards=3,
            durable=True,
            shard_policy=ShardPolicy(shard_capacity=24),
            faults=plan,
            retry=RetryPolicy(max_retries=12),
            trie_backend="compact",
        )
        client = cluster.client()
        rng = random.Random(53)
        model = {}
        for start in range(0, 180, 30):
            batch = [(_word(rng, 2, 7), _word(rng)) for _ in range(30)]
            client.put_many(batch)
            model.update(dict(batch))
        # Scale-out has happened, so batches necessarily spanned shards.
        assert len(cluster.coordinator.servers) > 3
        absent = [_word(rng, 9, 11) for _ in range(15)]
        got = client.get_many(list(model) + absent)
        assert got == model
        plan.heal()
        cluster.check()
        assert cluster.router.duplicate_applies() == 0


# ----------------------------------------------------------------------
# The default backend
# ----------------------------------------------------------------------
class TestDefaultBackend:
    @pytest.mark.parametrize(
        "entry",
        [THFile, _THEngine.fresh_params, Cluster, run_chaos, bulk_load_th],
    )
    def test_every_entry_point_defaults_to_the_one_name(self, entry):
        default = inspect.signature(entry).parameters["trie_backend"].default
        assert default == DEFAULT_TRIE_BACKEND == "compact"

    def test_a_bare_serve_parses_to_it(self, monkeypatch):
        parsed = []
        monkeypatch.setattr(
            repro.cli, "_serve_command", lambda args: parsed.append(args) or 0
        )
        assert repro.cli.main(["serve"]) == 0
        (args,) = parsed
        assert args.trie_backend == DEFAULT_TRIE_BACKEND

    def test_a_fresh_file_and_shard_build_compact(self):
        assert type(THFile().trie) is CompactTrie
        durable = DurableFile.open(StableStore(), engine="th")
        assert type(durable.file.trie) is CompactTrie
        assert durable.manifest["params"]["trie_backend"] == "compact"
        cluster = Cluster(shards=2, durable=True)
        for server in cluster.coordinator.servers.values():
            assert type(server.file.file.trie) is CompactTrie

    def test_a_manifest_without_a_backend_reopens_as_cells(self):
        # Written before the compact backend existed, such a MANIFEST
        # means the paper's cells, whatever today's default is.
        store = StableStore()
        f = DurableFile.open(store, engine="th", capacity=4, checkpoint_every=8)
        rng = random.Random(59)
        for _ in range(60):
            f.put(_word(rng), _word(rng))
        expected = dict(f.items())
        f.close()
        manifest = json.loads(store.read("MANIFEST").decode("utf-8"))
        del manifest["params"]["trie_backend"]
        store.write_atomic("MANIFEST", json.dumps(manifest).encode("utf-8"))
        reopened = DurableFile.open(store)
        assert type(reopened.file.trie) is Trie
        assert dict(reopened.items()) == expected
        reopened.check()
