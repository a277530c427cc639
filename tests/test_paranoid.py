"""Paranoid-mode integration: audits run after every mutating op.

With paranoid mode on, :func:`repro.check.maybe_audit` re-audits the
touched structure at each mutation site in the chaos harness and the
stateful machines. These tests drive real workloads end-to-end under
the switch — a clean run proves the hooks are wired and cheap enough,
and the corruption test proves a violation stops the run at the op
that introduced it."""

import pytest
from hypothesis import settings
from hypothesis.stateful import run_state_machine_as_test

from repro.check import ParanoidAuditError, maybe_audit, set_paranoid
from repro.distributed.chaos import run_chaos


@pytest.fixture
def paranoid():
    set_paranoid(True)
    yield
    set_paranoid(None)


def test_chaos_run_under_paranoid_audits(paranoid):
    # Every insert/delete/put re-audits the oracle THFile and the whole
    # cluster (PARANOID level: full sweep + reconstruction oracle), with
    # crash cycles and message faults active throughout.
    report = run_chaos(ops=150, shards=3, seed=11, crash_cycles=2)
    assert report.converged
    assert report.duplicate_applies == 0


def test_chaos_env_var_path(monkeypatch):
    # The env-var spelling (REPRO_PARANOID=1) reaches the same hooks.
    monkeypatch.setenv("REPRO_PARANOID", "1")
    report = run_chaos(ops=60, shards=2, seed=5, crash_cycles=1)
    assert report.converged


def test_durability_machine_under_paranoid_audits(paranoid):
    # The Hypothesis durability machine (insert/put/delete/crash/recover
    # against a dict model) audits the DurableFile after every mutation
    # and after every crash recovery.
    from tests.test_stateful import DurableAgainstDict

    run_state_machine_as_test(
        DurableAgainstDict,
        settings=settings(
            max_examples=5, stateful_step_count=25, deadline=None
        ),
    )


def test_paranoid_audit_stops_at_the_corrupting_op(paranoid):
    from repro import THFile
    from repro.workloads import KeyGenerator

    f = THFile(bucket_capacity=4)
    for k in KeyGenerator(9).uniform(80):
        f.insert(k)
        maybe_audit(f, f"insert {k!r}")  # clean all the way
    f._size -= 2  # simulate a lost-update bug
    with pytest.raises(ParanoidAuditError):
        maybe_audit(f, "after the buggy op")


def test_mutators_route_through_the_hook_themselves(paranoid):
    # TH014 regression: the mutating methods call maybe_audit directly —
    # no harness cooperation needed. A corruption introduced behind the
    # structure's back surfaces at the *next* mutation, whoever makes it.
    from repro import THFile

    f = THFile(bucket_capacity=4)
    f.insert("abc")
    f._size += 3  # phantom records
    with pytest.raises(ParanoidAuditError) as caught:
        f.put("abd")
    # The site passes its key; the context is formatted only now.
    assert caught.value.context == "THFile.put('abd')"
    assert "after THFile.put('abd')" in str(caught.value)


def test_self_auditing_mutators_run_clean(paranoid):
    # Each audited structure's own mutation path audits (and passes) —
    # including PARANOID-level reconstruction oracles re-running the very
    # mutators that triggered them (the hook's reentrancy guard).
    from repro import BPlusTree, MLTHFile, THFile
    from repro.workloads import KeyGenerator

    keys = list(KeyGenerator(3).uniform(40))
    for make in (
        lambda: THFile(bucket_capacity=4),
        lambda: MLTHFile(bucket_capacity=4, page_capacity=8),
        lambda: BPlusTree(leaf_capacity=4, branch_capacity=4),
    ):
        f = make()
        for k in keys:
            f.put(k, "v")
        for k in keys[::3]:
            f.delete(k)
