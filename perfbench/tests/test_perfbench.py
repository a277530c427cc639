"""Self-tests of the benchmark, at a small size.

    python3 -m pytest perfbench/tests -q

Runs every workload twice per mode with the same seed and a fixed op
count, and checks that the structural counts repeat exactly, that the
output names exactly the metrics of ``BENCHMARK.json``, that a wrong
oracle fails the run, and that the command refuses to run without the
repository's sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")
WORKLOADS = ("file", "embedded", "serve")
SMALL = ["--seed", "7", "--ops", "600", "--records", "2500"]


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, RUN, *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Two same-seed small runs per workload and mode: (result, report)."""
    out_dir = tmp_path_factory.mktemp("reports")
    done = {}
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            pair = []
            for attempt in range(2):
                report = out_dir / f"{workload}-{trace}-{attempt}.json"
                proc = run_bench(
                    "--workload", workload, "--trace", trace, *SMALL,
                    "--report", str(report),
                )
                assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
                pair.append((last_json(proc.stdout), json.loads(report.read_text())))
            done[workload, trace] = pair
    return done


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ("0", "1"))
def test_same_seed_repeats_structural_counts(runs, workload, trace):
    (first, first_report), (second, second_report) = runs[workload, trace]
    assert first["correct"] and second["correct"]
    assert first["failed"] == second["failed"] == 0
    assert first_report["structural"] == second_report["structural"]
    if trace == "1":
        calls = [
            {name: row[0] for name, row in report["spans"].items()}
            for report in (first_report, second_report)
        ]
        assert calls[0] == calls[1]
    else:
        for name in ("written_bytes_per_user_byte", "stored_bytes_per_user_byte"):
            assert first["metrics"][name] == second["metrics"][name]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layers_are_reached(runs, workload):
    """Each workload's structural counts show its layers doing work."""
    (_, report), _ = runs[workload, "1"]
    counts = report["structural"]
    assert counts["bucket_reads"] > 0 and counts["appended"] > 0
    if workload == "file":
        assert counts["messages"] == 0 and "router.client_send" not in report["spans"]
    else:
        assert counts["messages"] > 0 and counts["iam_boundaries"] > 0
    if workload == "serve":
        assert report["spans"]["serving.execute"][0] > 0


def test_output_names_match_benchmark_json(runs):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[section]}
        for workload in WORKLOADS:
            result, _ = runs[workload, trace][0]
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == expected


def test_wrong_oracle_fails_the_run():
    proc = run_bench("--workload", "file", *SMALL, "--corrupt-oracle")
    assert proc.returncode == 1
    result = last_json(proc.stdout)
    assert result["correct"] is False
    assert result["failed"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "file", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
