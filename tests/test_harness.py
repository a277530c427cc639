"""The reproduce harness and the CI bench gate.

Covers the artifact contract of :mod:`repro.bench` — every run leaves
``manifest.json`` / ``metrics.jsonl`` / ``summary.json`` and refreshes
the ``BENCH_*.json`` trajectory — and the gate semantics of
``scripts/bench_gate.py``: structural metrics compare exactly, wall
rates by ratio, mismatched configs refuse to compare, and an injected
regression exits nonzero.

One tiny all-suite run is shared by the module. Each injection test
gates a copy of it against it, so the injected change is the only
difference and no wall-clock noise can fail the test; one second,
independent run checks that every structural key reproduces exactly.
The ``paper`` suite replays the session's quick claim evaluation
(``quick_paper`` in conftest.py): its experiments are the claim tests'
subject, and running them twice more here would only cost time.
"""

import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro.bench
import repro.bench.suites
from repro.analysis.experiments import EXPERIMENTS
from repro.analysis.validation import CLAIMS
from repro.bench import BENCH_FILES, PROFILES, SUITES, reproduce
from repro.cli import main as cli_main
from repro.core.compact import DEFAULT_TRIE_BACKEND

REPO = Path(__file__).resolve().parent.parent
GATE = REPO / "scripts" / "bench_gate.py"

#: Tiny counts so the whole suite runs in seconds.
TINY = {
    "core": 300,
    "distributed": 300,
    "chaos": 120,
    "throughput": 200,
    "compact": 400,
    "serving": 300,
    "paper": 200,
}


def _reproduce(tmp_path, **kwargs):
    return reproduce(
        profile="quick",
        out_root=tmp_path / "runs",
        bench_dir=tmp_path / "bench",
        counts=TINY,
        echo=False,
        **kwargs,
    )


def _gate(baseline, fresh, *extra):
    return subprocess.run(
        [sys.executable, str(GATE), "--baseline-dir", str(baseline),
         "--fresh-dir", str(fresh), *extra],
        capture_output=True,
        text=True,
    )


@pytest.fixture(scope="module", autouse=True)
def replay_paper(quick_paper):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(repro.bench.suites, "evaluate", lambda count, seed: quick_paper)
        yield


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """One tiny all-suite run, shared by every test that only reads it."""
    root = tmp_path_factory.mktemp("run")
    return _reproduce(root), root / "bench"


@pytest.fixture
def copy(run, tmp_path):
    """A private copy of the shared run's BENCH files and an editor for it."""
    _, bench = run
    fresh = tmp_path / "fresh"
    shutil.copytree(bench, fresh)

    def edit(name, *path, change):
        """Replace the value at ``path`` in file ``name`` by ``change(value)``."""
        doc = json.loads((fresh / name).read_text())
        *parents, key = path
        target = doc
        for part in parents:
            target = target[part]
        target[key] = change(target[key])
        (fresh / name).write_text(json.dumps(doc))

    return bench, fresh, edit


class TestReproduce:
    def test_run_dir_artifacts(self, run):
        outcome, _ = run
        run_dir = Path(outcome["run_dir"])
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["profile"] == "quick"
        assert manifest["counts"] == TINY
        assert set(manifest["seeds"]) == set(SUITES)
        lines = [
            json.loads(line)
            for line in (run_dir / "metrics.jsonl").read_text().splitlines()
        ]
        assert [l["suite"] for l in lines] == list(SUITES)
        assert all("wall_s" in l and "results" in l for l in lines)
        summary = json.loads((run_dir / "summary.json").read_text())
        assert set(summary["results"]) == set(SUITES)

    def test_bench_files_regenerated_with_config(self, run):
        outcome, bench = run
        names = {Path(p).name for p in outcome["bench_files"]}
        assert names == set(BENCH_FILES)
        chaos = json.loads((bench / "BENCH_chaos.json").read_text())
        assert set(chaos["config"]) == {"chaos", "throughput"}
        assert chaos["config"]["chaos"]["count"] == TINY["chaos"]
        assert chaos["config"]["chaos"]["trie_backend"] == DEFAULT_TRIE_BACKEND
        assert {"differential", "throughput"} <= set(chaos["results"])
        compact = json.loads((bench / "BENCH_compact.json").read_text())
        assert compact["results"]["backends_identical"] is True
        paper = json.loads((bench / "BENCH_paper.json").read_text())
        assert paper["config"]["paper"]["count"] == TINY["paper"]
        assert set(paper["results"]["tables"]) == set(EXPERIMENTS)
        assert paper["results"]["claims"] == {claim: True for claim in CLAIMS}

    def test_suite_subset_writes_partial_trajectory(self, tmp_path):
        outcome = _reproduce(tmp_path, suites=["core"])
        names = {Path(p).name for p in outcome["bench_files"]}
        assert names == {"BENCH_core.json"}

    def test_unknown_profile_and_suite_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            reproduce(profile="nope", out_root=tmp_path)
        with pytest.raises(ValueError):
            reproduce(suites=["nope"], out_root=tmp_path)

    def test_profiles_cover_all_suites(self):
        for sizes in PROFILES.values():
            assert set(sizes) == set(SUITES)
        fed = {suite for suites in BENCH_FILES.values() for suite in suites}
        assert fed == set(SUITES)

    def test_cli_reproduce_quick(self, tmp_path, capsys):
        code = cli_main([
            "reproduce", "--quick", "--suite", "core",
            "--out-root", str(tmp_path / "runs"),
            "--bench-dir", str(tmp_path / "bench"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "run dir:" in out and "BENCH_core.json" in out
        # CLI default counts are the quick profile's, not the tiny ones.
        doc = json.loads((tmp_path / "bench" / "BENCH_core.json").read_text())
        assert doc["config"]["core"]["count"] == PROFILES["quick"]["core"]

    def test_cli_suite_choices_follow_the_registry(self, monkeypatch):
        calls = []
        monkeypatch.setattr(repro.bench, "reproduce", lambda **kw: calls.append(kw))
        for name in SUITES:
            assert cli_main(["reproduce", "--suite", name]) == 0
        assert [call["suites"] for call in calls] == [[name] for name in SUITES]
        # The CLI and the library agree on where run directories go.
        default = inspect.signature(reproduce).parameters["out_root"].default
        assert calls[0]["out_root"] == default == "bench-out/runs"
        with pytest.raises(SystemExit):
            cli_main(["reproduce", "--suite", "nope"])


class TestBenchGate:
    def test_identical_configs_pass(self, copy):
        baseline, fresh, _ = copy
        result = _gate(baseline, fresh)
        assert result.returncode == 0, result.stdout + result.stderr
        assert result.stdout.count("OK") == len(BENCH_FILES)

    def test_independent_runs_match_structurally(self, run, tmp_path):
        _, baseline = run
        _reproduce(tmp_path)
        result = _gate(baseline, tmp_path / "bench", "--skip-perf")
        assert result.returncode == 0, result.stdout + result.stderr
        assert result.stdout.count("OK") == len(BENCH_FILES)

    def test_injected_structural_regression_fails(self, copy):
        baseline, fresh, edit = copy
        edit("BENCH_core.json", "results", "buckets", change=lambda n: n + 1)
        result = _gate(baseline, fresh)
        assert result.returncode == 1
        assert "results.buckets" in result.stdout

    def test_injected_claim_flip_fails(self, copy):
        # BENCH_paper.json is gated although the gate never names it:
        # every BENCH file in the baseline directory is compared.
        baseline, fresh, edit = copy
        claim = next(iter(CLAIMS))
        edit("BENCH_paper.json", "results", "claims", claim, change=lambda ok: not ok)
        result = _gate(baseline, fresh)
        assert result.returncode == 1
        assert f"results.claims.{claim}" in result.stdout

    def test_injected_perf_regression_fails_and_skip_perf_ignores(self, copy):
        baseline, fresh, edit = copy
        edit("BENCH_core.json", "results", "insert_ops_per_s", change=lambda _: 1)
        assert _gate(baseline, fresh).returncode == 1
        assert _gate(baseline, fresh, "--skip-perf").returncode == 0

    def test_ms_wall_keys_are_gated_as_a_ceiling(self, copy):
        # *_ms_wall latencies may fall freely; a rise past the ceiling
        # fails, the opposite direction of the *_per_s floor.
        baseline, fresh, edit = copy
        p99 = ("BENCH_serving.json", "results", "p99_ms_wall")
        edit(*p99, change=lambda ms: ms / 10)
        assert _gate(baseline, fresh).returncode == 0
        edit(*p99, change=lambda ms: ms * 1000)
        result = _gate(baseline, fresh)
        assert result.returncode == 1
        assert "p99_ms_wall" in result.stdout

    def test_mismatched_config_refuses_to_compare(self, copy):
        baseline, fresh, edit = copy
        edit("BENCH_core.json", "config", "core", "count", change=lambda n: n + 1)
        result = _gate(baseline, fresh)
        assert result.returncode == 1
        assert "not comparable" in result.stdout

    def test_mismatched_trie_backend_refuses_to_compare(self, copy):
        # A fresh run under one default backend must never be gated
        # against a baseline committed under the other: the backends
        # share results structurally but not wall rates, so the config
        # block carries the backend and any drift voids the comparison.
        baseline, fresh, edit = copy
        edit("BENCH_core.json", "config", "core", "trie_backend",
             change=lambda _: "cells")
        result = _gate(baseline, fresh)
        assert result.returncode == 1
        assert "not comparable" in result.stdout

    def test_speedup_keys_are_ratio_gated_not_exact(self, copy):
        # *_speedup_x is machine-dependent like *_per_s: a faster fresh
        # ratio passes, a collapsed one fails the perf floor.
        baseline, fresh, edit = copy
        only = ("--files", "BENCH_compact.json")
        speedup = ("BENCH_compact.json", "results", "get_speedup_x")
        edit(*speedup, change=lambda x: x * 10)
        result = _gate(baseline, fresh, *only)
        assert result.returncode == 0
        assert result.stdout.count("OK") == 1
        edit(*speedup, change=lambda _: 0.01)
        result = _gate(baseline, fresh, *only)
        assert result.returncode == 1
        assert "get_speedup_x" in result.stdout

    def test_missing_fresh_file_fails(self, run, tmp_path):
        _, baseline = run
        result = _gate(baseline, tmp_path)
        assert result.returncode == 1
        assert "produced no" in result.stdout


class TestCommittedTrajectory:
    def test_committed_bench_files_exist_and_are_quick_profile(self):
        # The repo root must carry the baseline trajectory.
        for name in BENCH_FILES:
            doc = json.loads((REPO / name).read_text())
            assert doc["results"], name
            for config in doc["config"].values():
                assert config["profile"] == "quick"
                assert config["trie_backend"] == DEFAULT_TRIE_BACKEND

    def test_committed_compact_speedups_meet_targets(self):
        # The tentpole's acceptance bar: the committed trajectory shows
        # >=3x point ops and >=5x batched ops over the cells baseline.
        doc = json.loads((REPO / "BENCH_compact.json").read_text())
        results = doc["results"]
        assert results["insert_speedup_x"] >= 3.0
        assert results["get_speedup_x"] >= 3.0
        assert results["batch_get_speedup_x"] >= 5.0
        assert results["batch_put_speedup_x"] >= 5.0
        assert results["backends_identical"] is True

    def test_committed_paper_claims_all_hold(self):
        # The committed quick paper run names every claim, and each held.
        doc = json.loads((REPO / "BENCH_paper.json").read_text())
        assert doc["results"]["claims"] == {claim: True for claim in CLAIMS}
