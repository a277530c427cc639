#!/usr/bin/env python
"""Diff a fresh benchmark run against the committed BENCH trajectory.

The committed ``BENCH_*.json`` files (regenerated by ``trie-hashing
reproduce``) are the repo's perf trajectory. This gate compares a fresh
run's documents against every one of them found in ``--baseline-dir``
and exits nonzero on regression, under the determinism contract of
:mod:`repro.bench`:

* ``timestamp`` / ``python`` / ``version`` / ``platform`` — ignored
  (environment identity, not results);
* keys ending in ``_per_s`` or ``_speedup_x`` — wall-clock rates and
  backend speedup ratios, machine dependent: compared as a ratio. A
  fresh value may be arbitrarily *faster*; it fails only when below
  ``(1 - tolerance) x baseline``;
* keys ending in ``_ms_wall`` — wall-clock latencies (the serving
  suite's percentiles), gated in the opposite direction: a fresh value
  may be arbitrarily *lower*; it fails only when above
  ``baseline / (1 - tolerance)``;
* everything else — structural metrics (counts, load factors, seeded
  convergence ratios, simulated clocks/latencies): exact functions of
  ``(count, seed)``, compared for equality. The ``config`` blocks must
  match exactly too — counts or seeds differing means the two runs are
  not comparable at all.

Usage::

    PYTHONPATH=src python scripts/bench_gate.py \
        --baseline-dir . --fresh-dir bench-out [--perf-tolerance 0.4]

``--skip-perf`` restricts the gate to structural metrics (useful on
noisy shared runners); ``--files`` narrows the gate to the named files.
Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Environment identity, not benchmark results.
IGNORED_KEYS = frozenset({"timestamp", "python", "version", "platform"})

#: Per-file floors on the perf tolerance. The serving suite's numbers
#: cross a real kernel socket with four OS threads, so scheduler noise
#: is inherently larger than the single-threaded suites' (tail
#: percentiles can spread >2x between runs on a contended host); the
#: effective tolerance is ``max(--perf-tolerance, this floor)``.
FILE_TOLERANCE = {"BENCH_serving.json": 0.75}


def classify(key: str) -> str:
    """'ignore', 'perf', 'perf_down' or 'exact' for one leaf key."""
    if key in IGNORED_KEYS:
        return "ignore"
    if key.endswith("_per_s") or key.endswith("_speedup_x"):
        return "perf"
    if key.endswith("_ms_wall"):
        return "perf_down"
    return "exact"


def walk(baseline, fresh, path, problems, tolerance, skip_perf):
    """Recursively compare two JSON values, appending problem strings."""
    if isinstance(baseline, dict):
        if not isinstance(fresh, dict):
            problems.append(f"{path}: baseline is an object, fresh is not")
            return
        for key in sorted(baseline):
            sub = f"{path}.{key}" if path else key
            if classify(key) == "ignore":
                continue
            if key not in fresh:
                problems.append(f"{sub}: missing from fresh run")
                continue
            if classify(key) in ("perf", "perf_down"):
                compare_perf(
                    baseline[key], fresh[key], sub, problems, tolerance,
                    skip_perf, lower_is_better=classify(key) == "perf_down",
                )
            else:
                walk(
                    baseline[key], fresh[key], sub, problems, tolerance,
                    skip_perf,
                )
        return
    if isinstance(baseline, list):
        if not isinstance(fresh, list):
            problems.append(f"{path}: baseline is a list, fresh is not")
            return
        if len(baseline) != len(fresh):
            problems.append(
                f"{path}: length {len(fresh)} != baseline {len(baseline)}"
            )
            return
        for i, (b, f) in enumerate(zip(baseline, fresh)):
            walk(b, f, f"{path}[{i}]", problems, tolerance, skip_perf)
        return
    if baseline != fresh:
        problems.append(f"{path}: {fresh!r} != baseline {baseline!r}")


def compare_perf(
    baseline, fresh, path, problems, tolerance, skip_perf,
    lower_is_better=False,
):
    if skip_perf:
        return
    if not isinstance(baseline, (int, float)) or not isinstance(
        fresh, (int, float)
    ):
        problems.append(f"{path}: perf values must be numbers")
        return
    if baseline <= 0:
        return
    if lower_is_better:
        ceiling = baseline / (1.0 - tolerance)
        if fresh > ceiling:
            problems.append(
                f"{path}: {fresh} is above {ceiling:.4f} "
                f"(baseline {baseline} / {(1.0 - tolerance):.2f})"
            )
        return
    floor = baseline * (1.0 - tolerance)
    if fresh < floor:
        problems.append(
            f"{path}: {fresh} is below {floor:.0f} "
            f"({(1.0 - tolerance) * 100:.0f}% of baseline {baseline})"
        )


def gate_file(baseline_path: Path, fresh_path: Path, tolerance, skip_perf):
    problems: list[str] = []
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    fresh = json.loads(fresh_path.read_text(encoding="utf-8"))
    # Config must match exactly — otherwise nothing else is comparable.
    if baseline.get("config") != fresh.get("config"):
        problems.append(
            f"config: fresh {fresh.get('config')!r} != "
            f"baseline {baseline.get('config')!r} (runs not comparable)"
        )
        return problems
    walk(baseline, fresh, "", problems, tolerance, skip_perf)
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline-dir",
        type=Path,
        default=Path("."),
        help="directory holding the committed BENCH_*.json trajectory",
    )
    parser.add_argument(
        "--fresh-dir",
        type=Path,
        required=True,
        help="directory holding the fresh run's BENCH_*.json",
    )
    parser.add_argument(
        "--perf-tolerance",
        type=float,
        default=0.4,
        help="allowed fractional slowdown on *_per_s keys (default 0.4)",
    )
    parser.add_argument(
        "--skip-perf",
        action="store_true",
        help="compare only structural metrics (noisy runners)",
    )
    parser.add_argument(
        "--files",
        nargs="+",
        default=None,
        help="gate only these trajectory files (default: every BENCH_*.json "
        "in --baseline-dir)",
    )
    args = parser.parse_args(argv)

    names = args.files or sorted(
        path.name for path in args.baseline_dir.glob("BENCH_*.json")
    )
    failures = 0
    checked = 0
    for name in names:
        baseline_path = args.baseline_dir / name
        fresh_path = args.fresh_dir / name
        if not baseline_path.exists():
            print(f"bench_gate: {baseline_path} missing, skipping {name}")
            continue
        if not fresh_path.exists():
            print(f"bench_gate: FAIL {name}: fresh run produced no {name}")
            failures += 1
            continue
        checked += 1
        tolerance = max(args.perf_tolerance, FILE_TOLERANCE.get(name, 0.0))
        problems = gate_file(
            baseline_path, fresh_path, tolerance, args.skip_perf
        )
        if problems:
            failures += 1
            print(f"bench_gate: FAIL {name}:")
            for problem in problems:
                print(f"  {problem}")
        else:
            print(f"bench_gate: OK {name}")
    if checked == 0:
        print("bench_gate: FAIL: no baseline files found to compare")
        return 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
