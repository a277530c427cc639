"""The reproduce harness: per-run artifact dirs and the BENCH trajectory.

One :func:`reproduce` call runs a *profile* of the standard suites
(:data:`~repro.bench.suites.SUITES`) and leaves two kinds of artifacts:

* a **run directory** ``<out_root>/<stamp>-<profile>/`` holding

  - ``manifest.json`` — the full config (profile, per-suite counts and
    seeds, interpreter/platform, package version, start time): enough
    to re-run the exact same workloads anywhere;
  - ``metrics.jsonl`` — one line per suite as it completes, with its
    wall time and result document (a partial run still leaves a
    readable prefix);
  - ``summary.json`` — every suite's results in one document;

* the refreshed **trajectory files** named in :data:`BENCH_FILES`
  (``BENCH_core.json``, ..., ``BENCH_paper.json``) in ``bench_dir``
  (the repo root, when run from there) — the documents committed to git
  that ``scripts/bench_gate.py`` diffs a fresh run against in CI. Each
  carries a ``config`` block naming the profile/count/seed it was
  produced with and the library's default trie backend, so the gate can
  refuse to compare apples to oranges.

Profiles: ``quick`` is the CI size (and the size the committed baseline
is generated at — comparability demands the same counts); ``full`` is
the historical local smoke size, and for the ``paper`` suite the
paper's own 5 000-key protocol.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path
from typing import Optional, Union

from .. import __version__
from ..core.compact import DEFAULT_TRIE_BACKEND
from .suites import SUITES

__all__ = ["BENCH_FILES", "PROFILES", "reproduce", "write_bench_files"]

#: Per-suite workload sizes by profile. ``quick`` is what CI runs and
#: what the committed ``BENCH_*.json`` baselines are generated at.
PROFILES: dict[str, dict[str, int]] = {
    "quick": {
        "core": 2000,
        "distributed": 1500,
        "chaos": 600,
        "throughput": 2000,
        "compact": 6000,
        "serving": 1200,
        "paper": 1200,
    },
    "full": {
        "core": 4000,
        "distributed": 4000,
        "chaos": 2000,
        "throughput": 5000,
        "compact": 12000,
        "serving": 4000,
        "paper": 5000,
    },
}

#: Which suites feed which committed trajectory file.
BENCH_FILES: dict[str, tuple[str, ...]] = {
    "BENCH_core.json": ("core",),
    "BENCH_distributed.json": ("distributed",),
    "BENCH_chaos.json": ("chaos", "throughput"),
    "BENCH_compact.json": ("compact",),
    "BENCH_serving.json": ("serving",),
    "BENCH_paper.json": ("paper",),
}


def _manifest(profile: str, counts: dict, seeds: dict, suites: list) -> dict:
    return {
        "kind": "reproduce_manifest",
        "profile": profile,
        "suites": suites,
        "counts": {name: counts[name] for name in suites},
        "seeds": {name: seeds[name] for name in suites},
        "version": __version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _write_json(path: Path, document: dict) -> None:
    path.write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def write_bench_files(
    bench_dir: Path,
    results: dict[str, dict],
    configs: dict[str, dict],
) -> list[Path]:
    """Regenerate the committed ``BENCH_*.json`` files from suite results.

    Only files whose *every* feeding suite is present in ``results`` are
    written (a partial ``--suite`` run refreshes a partial trajectory).
    Returns the paths written.
    """
    bench_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for filename, feeding in BENCH_FILES.items():
        if not all(name in results for name in feeding):
            continue
        merged: dict = {}
        for name in feeding:
            merged.update(results[name])
        document = {
            "benchmark": filename[len("BENCH_"):-len(".json")],
            "version": __version__,
            "python": platform.python_version(),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "config": {name: configs[name] for name in feeding},
            "results": merged,
        }
        path = bench_dir / filename
        _write_json(path, document)
        written.append(path)
    return written


def reproduce(
    profile: str = "quick",
    out_root: Union[str, Path] = "bench-out/runs",
    bench_dir: Optional[Union[str, Path]] = ".",
    suites: Optional[list[str]] = None,
    counts: Optional[dict[str, int]] = None,
    seed: Optional[int] = None,
    echo: bool = True,
) -> dict:
    """Run a benchmark profile into a fresh artifact directory.

    Parameters
    ----------
    profile:
        A :data:`PROFILES` key fixing per-suite workload sizes.
    out_root:
        Where run directories accumulate (one per invocation).
    bench_dir:
        Where the ``BENCH_*.json`` trajectory files are refreshed
        (``None`` skips refreshing them — pure artifact mode).
    suites:
        Subset of suite names to run (default: all of them, in the stable
        registry order).
    counts:
        Per-suite count overrides on top of the profile.
    seed:
        Override every suite's default seed (default: each suite keeps
        its own historical seed, which is what the committed baselines
        use).
    echo:
        Print progress and artifact paths as the run advances.

    Every suite builds its files on the library's default trie backend
    (the ``compact`` suite measures both), and every ``config`` block
    records :data:`~repro.core.compact.DEFAULT_TRIE_BACKEND`: a baseline
    committed under another default is never gated against a fresh run,
    since the backends share results structurally but not wall rates.

    Returns a dict with the run directory, per-suite results, and the
    trajectory paths written.
    """
    if profile not in PROFILES:
        raise ValueError(
            f"unknown profile {profile!r} (choose from {sorted(PROFILES)})"
        )
    chosen = list(SUITES) if suites is None else list(suites)
    for name in chosen:
        if name not in SUITES:
            raise ValueError(
                f"unknown suite {name!r} (choose from {sorted(SUITES)})"
            )
    sizes = dict(PROFILES[profile])
    if counts:
        sizes.update(counts)
    seeds = {
        name: (SUITES[name][1] if seed is None else seed) for name in chosen
    }

    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    out_root = Path(out_root)
    run_dir = out_root / f"{stamp}-{profile}"
    # Same-second reruns get a numeric suffix instead of clobbering.
    n = 1
    while run_dir.exists():
        n += 1
        run_dir = out_root / f"{stamp}-{profile}-{n}"
    run_dir.mkdir(parents=True)

    manifest = _manifest(profile, sizes, seeds, chosen)
    _write_json(run_dir / "manifest.json", manifest)
    if echo:
        print(f"run dir: {run_dir}")

    results: dict[str, dict] = {}
    configs: dict[str, dict] = {}
    metrics_path = run_dir / "metrics.jsonl"
    with open(metrics_path, "w", encoding="utf-8") as metrics:
        for name in chosen:
            runner = SUITES[name][0]
            if echo:
                print(f"  {name} (count={sizes[name]}, seed={seeds[name]}) ...")
            start = time.perf_counter()
            result = runner(count=sizes[name], seed=seeds[name])
            wall = time.perf_counter() - start
            results[name] = result
            configs[name] = {
                "profile": profile,
                "count": sizes[name],
                "seed": seeds[name],
                "trie_backend": DEFAULT_TRIE_BACKEND,
            }
            json.dump(
                {
                    "suite": name,
                    "count": sizes[name],
                    "seed": seeds[name],
                    "wall_s": round(wall, 3),
                    "results": result,
                },
                metrics,
                sort_keys=True,
            )
            metrics.write("\n")
            metrics.flush()
            if echo:
                print(f"    done in {wall:.2f}s")

    _write_json(
        run_dir / "summary.json",
        {"manifest": manifest, "results": results},
    )

    written: list[Path] = []
    if bench_dir is not None:
        written = write_bench_files(Path(bench_dir), results, configs)
        if echo:
            for path in written:
                print(f"wrote {path}")

    return {
        "run_dir": str(run_dir),
        "results": results,
        "configs": configs,
        "bench_files": [str(p) for p in written],
    }
