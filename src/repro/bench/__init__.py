"""The perf-trajectory benchmark harness (ROADMAP item 5).

This package is the importable home of the repo's benchmark program:

* :mod:`repro.bench.suites` — the standard suites of :data:`SUITES`
  (``core``, ``distributed``, ``chaos``, ``throughput``, ``compact``,
  ``serving`` and ``paper``), each a deterministic seeded workload
  returning one JSON-ready result document;
* :mod:`repro.bench.harness` — :func:`~repro.bench.harness.reproduce`,
  which runs a profile of those suites into a per-run artifact
  directory (``manifest.json`` / ``metrics.jsonl`` / ``summary.json``)
  and regenerates the committed top-level ``BENCH_*.json`` trajectory
  files that ``scripts/bench_gate.py`` diffs in CI.

``trie-hashing reproduce`` routes through here, so every artifact in
the trajectory comes off one code path with one config vocabulary.

Determinism contract: every *structural* number a suite reports (record
counts, splits, retries, dedup hits, simulated clocks and latencies) is
a pure function of ``(count, seed)`` — the workloads use seeded
``random.Random`` and the simulated fabric clock — so the gate compares
them **exactly**. Only wall-clock rates (``*_per_s`` keys) are machine
dependent and ratio-gated.
"""

from .harness import BENCH_FILES, PROFILES, reproduce
from .suites import (
    SUITES,
    chaos_suite,
    core_suite,
    distributed_suite,
    paper_suite,
    throughput_suite,
)

__all__ = [
    "BENCH_FILES",
    "PROFILES",
    "reproduce",
    "SUITES",
    "core_suite",
    "distributed_suite",
    "chaos_suite",
    "throughput_suite",
    "paper_suite",
]
