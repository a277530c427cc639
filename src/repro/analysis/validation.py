"""The paper's claims, as predicates over the experiment registry's rows.

:data:`CLAIMS` maps a claim id to the registry experiment whose table
carries it (:data:`~repro.analysis.experiments.EXPERIMENTS`), the
paper's statement, and a predicate over that table's rows. It is the
only copy of the claims: :func:`evaluate` runs every registry entry once
and judges every claim, and both ``trie-hashing validate``
(:func:`validate_all`) and the ``paper`` bench suite
(:func:`repro.bench.suites.paper_suite`) go through it.

A predicate selects rows by the table's own columns (``b``, ``d``,
``case``, ...). Bounds stated in ``b`` use the experiment's default
``b``, because the suite varies only ``count`` and ``seed``.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Optional

from .experiments import EXPERIMENTS, Row, run_experiment, settings_of

__all__ = ["CLAIMS", "evaluate", "validate_all"]

Predicate = Callable[[list[Row]], bool]


def _rows(rows: list[Row], **match: object) -> list[Row]:
    """The rows whose columns equal ``match``."""
    return [r for r in rows if all(r[k] == v for k, v in match.items())]


def _row(rows: list[Row], **match: object) -> Row:
    """The one row matching ``match``."""
    (row,) = _rows(rows, **match)
    return row


def _sweeps(rows: list[Row], column: str = "b") -> list[list[Row]]:
    """Rows grouped by ``column``, each group in table order."""
    groups: dict[object, list[Row]] = {}
    for r in rows:
        groups.setdefault(r[column], []).append(r)
    return list(groups.values())


def _ascending(values: list) -> bool:
    return values == sorted(values)


def _descending(values: list) -> bool:
    return values == sorted(values, reverse=True)


def _method(rows: list[Row], prefix: str, order: str) -> Row:
    """The one row of ``order`` whose method starts with ``prefix``."""
    (row,) = [
        r for r in _rows(rows, order=order) if r["method"].startswith(prefix)
    ]
    return row


def _concurrency(column: str, th_wins: Callable[[float, float], bool]) -> Predicate:
    """TH beats the B-tree on ``column`` at 4 and 16 clients."""

    def predicate(rows: list[Row]) -> bool:
        return all(
            th_wins(
                _row(rows, method="TH", clients=n)[column],
                _row(rows, method="B+-tree", clients=n)[column],
            )
            for n in (4, 16)
        )

    return predicate


#: Claim id -> (experiment id, the paper's statement, predicate over the
#: experiment's rows).
CLAIMS: dict[str, tuple[str, str, Predicate]] = {
    # Figure 8 -- split control, descending insertions, b = 4
    "fig8-half": (
        "fig8", "bounding key at m+1, m = middle: a guaranteed 50% load",
        lambda rows: _row(rows, configuration="m = b/2+1, bounding m+1 (50% target)")["a%"] >= 49.5),
    "fig8-full": (
        "fig8", "m = 1 with the bounding key at 2: 100% load",
        lambda rows: _row(rows, configuration="m = 1, bounding 2 (100% target)")["a%"] >= 99),
    "fig8-uncontrolled": (
        "fig8", "the uncontrolled basic m = 1 split stays below 100%",
        lambda rows: _row(rows, configuration="basic TH, m = 1 (uncontrolled)")["a%"] < 99),
    # Figure 10 -- THCL, expected ascending insertions
    "fig10-compact": (
        "fig10", "a = 100% at d = 0, for every b",
        lambda rows: all(s[0]["d"] == 0 and s[0]["a%"] == 100 for s in _sweeps(rows))),
    "fig10-minimum": (
        "fig10", "trie size M falls below its d = 0 peak as d grows",
        lambda rows: all(min(r["M"] for r in s[1:]) < s[0]["M"] for s in _sweeps(rows))),
    "fig10-load-declines": (
        "fig10", "the load a falls as d grows",
        lambda rows: all(_descending([r["a%"] for r in s]) for s in _sweeps(rows))),
    "fig10-growth-rate": (
        "fig10", "growth rate s at full load (d = 0) within 1.4-2.6 (paper 1.6-2.13)",
        lambda rows: all(1.4 <= s[0]["s"] <= 2.6 for s in _sweeps(rows))),
    # Figure 11 -- THCL, expected descending insertions
    "fig11-compact": (
        "fig11", "a = 100% at d = 0, for every b",
        lambda rows: all(s[0]["d"] == 0 and s[0]["a%"] == 100 for s in _sweeps(rows))),
    "fig11-saving": (
        "fig11", "M drops at once from d = 0 and never returns to its d = 0 peak",
        lambda rows: all(
            s[1]["M"] < s[0]["M"] and min(r["M"] for r in s) == min(r["M"] for r in s[1:])
            for s in _sweeps(rows)
        )),
    "fig11-load-high": (
        "fig11", "a stays above 85% for d <= 4",
        lambda rows: all(r["a%"] > 85 for r in rows if r["d"] <= 4)),
    "boundary-length": (
        "boundary-length", "larger d shortens split strings but multiplies splits",
        lambda rows: _descending([r["mean boundary len"] for r in rows])
        and _ascending([r["N"] for r in rows])),
    # Section 3.1 -- random insertions
    "random-seventy": (
        "sec31", "random insertions load ~70% (62-78% for every b)",
        lambda rows: all(62 <= r["a_r%"] <= 78 for r in rows)),
    "sec31-nil-negligible": (
        "sec31", "nil leaves are negligible (< 2%)",
        lambda rows: all(r["nil%"] < 2.0 for r in rows)),
    "sec31-trie-smaller": (
        "sec31", "the trie takes fewer bytes than the B-tree's branch nodes",
        lambda rows: all(r["trie_bytes"] < r["btree_index_bytes"] for r in rows)),
    "sec31-cell-per-bucket": (
        "sec31", "about one trie cell per bucket: M within 25% of N+1",
        lambda rows: all(abs(r["M"] - r["N+1"]) <= 0.25 * r["N+1"] for r in rows)),
    # Section 3.2 -- unexpected ordered insertions (rows: m = 0.5b, 0.4b)
    "sec32-ascending": (
        "sec32-unexpected", "a_a within 55-80% at m = 0.5b (paper 60-73%)",
        lambda rows: all(55 <= s[0]["a_a%"] <= 80 for s in _sweeps(rows))),
    "sec32-descending": (
        "sec32-unexpected", "a_d within 38-60% at m = 0.5b (paper 40-55%)",
        lambda rows: all(38 <= s[0]["a_d%"] <= 60 for s in _sweeps(rows))),
    "sec32-lower-m": (
        "sec32-unexpected", "lowering m toward 0.4b lifts a_d",
        lambda rows: all(s[1]["a_d%"] > s[0]["a_d%"] for s in _sweeps(rows))),
    "sec32-random-unaffected": (
        "sec32-unexpected", "a_r barely moves with m (< 8 points)",
        lambda rows: all(abs(s[1]["a_r%"] - s[0]["a_r%"]) < 8 for s in _sweeps(rows))),
    # Figures 5-6 -- expected ordered insertions, basic method
    "fig5-6-capped": (
        "sec32-expected", "basic TH stays below 95% even at m = b / m = 1 (ascending >= 50%)",
        lambda rows: all(
            50 <= r["a_a% (m=b)"] < 95 and r["a_d% (m=1)"] < 95 for r in rows
        )),
    "fig5-6-band": (
        "sec32-expected", "at b = 10 both ordered loads lie within 55-90%",
        lambda rows: all(
            55 <= _row(rows, b=10)[column] <= 90
            for column in ("a_a% (m=b)", "a_d% (m=1)")
        )),
    "fig5-nil-nodes": (
        "sec32-expected", "ascending loads leave nil nodes (Fig 5)",
        lambda rows: all(r["nil_a%"] > 0 for r in rows)),
    # Section 4.5 -- THCL guarantees (b = 20)
    "compact-ascending": (
        "sec45", "THCL d=0 ascending loads to 100%",
        lambda rows: _row(rows, case="expected ascending, d=0")["a%"] == 100),
    "compact-descending": (
        "sec45", "THCL d=0 descending loads to 100%",
        lambda rows: _row(rows, case="expected descending, d=0")["a%"] == 100),
    "guaranteed-half": (
        "sec45", "unexpected ordered loads hold >= 50% either way",
        lambda rows: all(
            _row(rows, case=case)["a%"] >= 49.5
            for case in ("unexpected ascending", "unexpected descending")
        )),
    "thcl-random-seventy": (
        "sec45", "THCL random insertions load ~70% (62-78%)",
        lambda rows: 62 <= _row(rows, case="random insertions")["a%"] <= 78),
    "deletion-floor": (
        "sec45", "after 80% deletions every bucket holds >= b//2 = 10",
        lambda rows: _row(rows, case="after deleting 80% (floor b//2)")["min_bucket"] >= 10),
    # Section 4.5 -- redistribution (b = 20)
    "redistribution": (
        "sec45-redistribution", "redistribution lifts random load toward 87% (>= 80%)",
        lambda rows: _row(rows, order="random", policy="with redistribution")["a%"] >= 80),
    "redistribution-beats-plain": (
        "sec45-redistribution", "redistribution loads random files above plain THCL",
        lambda rows: _row(rows, order="random", policy="with redistribution")["a%"]
        > _row(rows, order="random", policy="plain THCL")["a%"]),
    "redistribution-ordered": (
        "sec45-redistribution", "redistribution takes unexpected ascending loads to ~100% (>= 95%)",
        lambda rows: _row(rows, order="unexpected ascending", policy="with redistribution")["a%"] >= 95),
    "redistribution-probes": (
        "sec45-redistribution", "redistributing policies do redistribute",
        lambda rows: all(r["redistributions"] > 0 for r in rows if r["policy"] != "plain THCL")),
    "oscillation-peak": (
        "oscillation", "the redistribution load peaks near 87% (>= 85%)",
        lambda rows: _row(rows, policy="with redistribution")["peak%"] >= 85),
    "oscillation-swing": (
        "oscillation", "the redistribution load oscillates (peak - trough >= 5 points)",
        lambda rows: _row(rows, policy="with redistribution")["peak%"]
        - _row(rows, policy="with redistribution")["trough%"] >= 5),
    "oscillation-mean": (
        "oscillation", "its mean sits > 10 points above plain THCL's",
        lambda rows: _row(rows, policy="with redistribution")["mean%"]
        > _row(rows, policy="plain THCL")["mean%"] + 10),
    # Section 4.5 -- growth rate
    "growth-cheaper": (
        "growth", "the trie grows by fewer bytes per split than a B-tree",
        lambda rows: all(r["bytes/split"] < r["btree bytes/split"] for r in rows)),
    "growth-rate-band": (
        "growth", "growth rate s within 1.0-2.6 cells per split",
        lambda rows: all(1.0 <= r["s"] <= 2.6 for r in rows)),
    "growth-full-load": (
        "growth", "full-load configurations load to 100%",
        lambda rows: all(r["a%"] == 100 for r in rows if "full load" in r["case"])),
    "growth-full-load-fastest": (
        "growth", "full load grows the trie fastest (within 0.2 of the top s), per b",
        lambda rows: all(
            min(r["s"] for r in s if "full load" in r["case"]) >= max(r["s"] for r in s) - 0.2
            for s in _sweeps(rows)
        )),
    # Section 3.1 -- capacity arithmetic
    "capacity-buffer": (
        "capacity", "a 6 KB trie buffer addresses ~1 000 buckets, 64 KB ~11 000",
        lambda rows: 950 <= _row(rows, claim="6 KB trie buffer ~ 1000-bucket file")["computed"] <= 1100
        and 10000 <= _row(rows, claim="64 KB trie buffer ~ 11000-bucket file")["computed"] <= 11500),
    "capacity-bilevel": (
        "capacity", "a bi-level trie holds ~16 M records at 10 KB pages, > 600 M at 64 KB",
        lambda rows: 10e6 < _row(rows, claim="bi-level, p=10KB, b=20: ~16M records")["computed"] < 25e6
        and _row(rows, claim="bi-level, p=64KB, b=20: >600M records")["computed"] > 600e6),
    # Section 5 -- the B-tree comparison (b = 20)
    "btree-comparison": (
        "sec5", "TH beats the B-tree on search and insert accesses and index size",
        lambda rows: all(
            _row(rows, method="TH (basic)", order=order)[column]
            < _method(rows, "B+-tree", order)[column]
            for order in ("random", "ascending")
            for column in ("search_acc", "insert_acc", "index_bytes")
        )),
    "sec5-one-access": (
        "sec5", "TH and THCL search in one access",
        lambda rows: all(r["search_acc"] == 1 for r in rows if r["method"].startswith("TH"))),
    "sec5-btree-height": (
        "sec5", "a B-tree search costs its height (>= 2 accesses)",
        lambda rows: all(r["search_acc"] >= 2 for r in rows if r["method"].startswith("B+-tree"))),
    "sec5-ordered-full": (
        "sec5", "on ordered loads THCL and the compact B-tree both reach 100%",
        lambda rows: _method(rows, "THCL", "ascending")["a%"] >= 99
        and _method(rows, "B+-tree", "ascending")["a%"] >= 99),
    # Section 6 / /VID87/ -- concurrency
    "concurrency": (
        "concurrency", "TH out-concurs the B-tree: fewer lock conflicts (/VID87/)",
        _concurrency("conflicts", lambda th, bt: th < bt)),
    "concurrency-waits": (
        "concurrency", "TH clients wait fewer ticks than B-tree clients",
        _concurrency("wait_ticks", lambda th, bt: th < bt)),
    "concurrency-throughput": (
        "concurrency", "TH has the higher throughput",
        _concurrency("throughput", lambda th, bt: th > bt)),
    "concurrency-single-client": (
        "concurrency", "a single client never conflicts",
        lambda rows: all(r["conflicts"] == 0 for r in _rows(rows, clients=1))),
    # MLTH -- Sections 2.5 / 3.1 / 3.2
    "mlth-two-accesses": (
        "mlth", "MLTH: levels-1 page reads + 1 bucket read per search",
        lambda rows: all(
            r["bucket_reads/search"] == 1 and r["page_reads/search"] == r["levels"] - 1
            for r in rows
        )),
    "mlth-levels": (
        "mlth", "the largest file grows a third trie level",
        lambda rows: rows[-1]["levels"] >= 3),
    "mlth-page-load": (
        "mlth", "page loads within 40-100%",
        lambda rows: all(40 <= r["page_load%"] <= 100 for r in rows)),
    "mlth-shift-band": (
        "mlth-split-shift", "an ordered load reaches the 70-87% page-load band",
        lambda rows: max(r["page_load%"] for r in rows) >= 70),
    "mlth-shift-loads": (
        "mlth-split-shift", "every split-node pick keeps pages 30-100% full",
        lambda rows: all(30 <= r["page_load%"] <= 100 for r in rows)),
    # Section 6 future work -- multikey TH vs grid files
    "multikey-directory": (
        "multikey", "the grid directory outgrows the trie > 3x at every skew",
        lambda rows: all(r["grid_directory"] > r["trie_cells"] for r in rows)
        and min(r["ratio"] for r in rows) > 3),
    "multikey-empty-cells": (
        "multikey", "part of the grid directory points at empty cells",
        lambda rows: all(r["grid_occupied"] < r["grid_directory"] for r in rows)),
    "multikey-rectangle": (
        "multikey", "a rectangle query scans at least its matches",
        lambda rows: all(r["rect_matches"] <= r["rect_scanned"] for r in rows)),
    # Deletions -- Sections 2.4 / 3.3 / 4.3 (b = 10)
    "deletions-thcl-floor": (
        "deletions", "THCL keeps every bucket >= b//2 = 5 after 75% deletions",
        lambda rows: _row(rows, method="THCL (guaranteed)")["min_bucket"] >= 5),
    "deletions-basic-unbounded": (
        "deletions", "basic sibling merging cannot beat THCL's floor",
        lambda rows: _row(rows, method="basic TH")["min_bucket"]
        <= _row(rows, method="THCL (guaranteed)")["min_bucket"]),
    "deletions-thcl-load": (
        "deletions", "THCL stays >= 50% loaded after 75% deletions",
        lambda rows: _row(rows, method="THCL (guaranteed)")["a% after 75% deleted"] >= 50),
    "deletions-rotations": (
        "deletions", "rotations recover space the sibling rule cannot",
        lambda rows: _row(rows, method="basic TH + rotations")["a% after 75% deleted"]
        > _row(rows, method="basic TH")["a% after 75% deleted"]),
    # Ablations
    "nil-shared-leaves": (
        "ablation-nil", "at m = b only shared leaves (THCL) reach 100%; nil nodes strand basic TH below 95%",
        lambda rows: _row(rows, **{"split key": "m = b"})["thcl a%"] == 100
        and _row(rows, **{"split key": "m = b"})["basic a%"] < 95),
    "nil-middle-close": (
        "ablation-nil", "at m = middle the two tries are within 30% in size",
        lambda rows: abs(
            _row(rows, **{"split key": "m = middle"})["basic M"]
            - _row(rows, **{"split key": "m = middle"})["thcl M"]
        ) < 0.3 * _row(rows, **{"split key": "m = middle"})["thcl M"]),
    "balance-shallower": (
        "ablation-balance", "balancing never deepens a trie and flattens the ascending one",
        lambda rows: all(r["balanced depth"] <= r["depth"] for r in rows)
        and _row(rows, workload="ascending")["balanced depth"]
        < _row(rows, workload="ascending")["depth"]),
    "one-access": (
        "ablation-buffer", "key search costs one disk access (500 probes, no cache: 500 reads)",
        lambda rows: _row(rows, **{"buffer (buckets)": 0})["disk reads / 500 probes"] == 500),
    "buffer-absorbs-reads": (
        "ablation-buffer", "a larger buffer pool never costs more reads, and saves some",
        lambda rows: _descending([r["disk reads / 500 probes"] for r in rows])
        and rows[-1]["disk reads / 500 probes"] < 500),
    "overflow-trade": (
        "ablation-overflow", "overflow chaining lifts the load and shrinks the trie",
        lambda rows: _row(rows, method="overflow chaining")["a%"] > _row(rows, method="plain TH")["a%"]
        and _row(rows, method="overflow chaining")["M"] < _row(rows, method="plain TH")["M"]),
    "overflow-access": (
        "ablation-overflow", "plain TH reads once per search, chaining 1-2 times",
        lambda rows: _row(rows, method="plain TH")["reads/search"] == 1
        and 1 < _row(rows, method="overflow chaining")["reads/search"] <= 2),
    # Robustness, reconstruction and the TH* layer
    "seeds-guarantees": (
        "seed-stability", "the guarantees hold for every seed (100% compact, >= 50% descending)",
        lambda rows: all(r["compact a%"] >= 99.5 and r["desc half a%"] >= 49.5 for r in rows)),
    "seeds-random-band": (
        "seed-stability", "the random load stays within 60-78% for every seed",
        lambda rows: all(60 <= r["random a%"] <= 78 for r in rows)),
    "reconstruction": (
        "reconstruction", "trie rebuilds from bucket headers",
        lambda rows: rows[0]["same bucket"] == rows[0]["probes"]),
    "distributed-convergence": (
        "distributed", "a cold TH* client converges to >= 90% direct hits",
        lambda rows: rows[-1]["hit%"] >= 90),
    "chaos-converges": (
        "chaos", "TH* converges under faults with no duplicate applies",
        lambda rows: all(r["converged"] and r["dup_applies"] == 0 for r in rows)),
}


def _attempt(fn: Callable, *args, **kwargs) -> tuple[object, Optional[Exception]]:
    """``(fn(...), None)``, or ``(None, error)`` when it raised."""
    try:
        return fn(*args, **kwargs), None
    # A crashing experiment or predicate is a failed claim with a reason;
    # it must never abort the evaluation of the others.
    except Exception as error:  # repro-lint: disable=TH002 -- harness boundary: a crashing claim is a failure with a reason, not an abort
        return None, error


def evaluate(
    count: Optional[int] = None, seed: Optional[int] = None
) -> tuple[dict[str, list[Row]], dict[str, Optional[str]]]:
    """Run every registry entry once and judge every claim.

    ``count`` and ``seed`` reach only the experiments that take them
    (``None`` keeps each experiment's default). Returns the tables by
    experiment id, and per claim id ``None`` when it reproduced or the
    reason it did not. A crashing experiment fails its claims and a
    crashing predicate fails its own; neither stops the rest.
    """
    tables: dict[str, list[Row]] = {}
    crashes: dict[str, str] = {}
    for experiment_id in EXPERIMENTS:
        takes = settings_of(experiment_id)
        given = {
            name: value
            for name, value in (("count", count), ("seed", seed))
            if value is not None and name in takes
        }
        rows, error = _attempt(run_experiment, experiment_id, **given)
        if error is None:
            tables[experiment_id] = rows
        else:
            crashes[experiment_id] = f"{experiment_id} crashed: {error!r}"
    verdicts: dict[str, Optional[str]] = {}
    for claim_id, (experiment_id, _, predicate) in CLAIMS.items():
        if experiment_id in crashes:
            verdicts[claim_id] = crashes[experiment_id]
            continue
        held, error = _attempt(predicate, tables[experiment_id])
        if error is not None:
            verdicts[claim_id] = f"error: {error!r}"
        else:
            verdicts[claim_id] = None if held else "not reproduced"
    return tables, verdicts


def validate_all(
    printer: Callable[[str], None] = print,
) -> list[dict[str, object]]:
    """Judge every claim on the quick paper suite's tables; print one
    PASS/FAIL line per claim and a total, and return the verdicts."""
    from ..bench import PROFILES, SUITES

    _, verdicts = evaluate(PROFILES["quick"]["paper"], SUITES["paper"][1])
    results = []
    for claim_id, (experiment_id, statement, _) in CLAIMS.items():
        reason = verdicts[claim_id]
        line = f"[{'FAIL' if reason else 'PASS'}] {claim_id:26s} {statement}"
        printer(line if reason is None else f"{line} ({reason})")
        results.append(
            {
                "claim": claim_id,
                "experiment": experiment_id,
                "ok": reason is None,
                "reason": reason,
            }
        )
    failures = sum(not r["ok"] for r in results)
    printer(
        f"{len(CLAIMS) - failures}/{len(CLAIMS)} claims reproduced"
        + ("" if failures == 0 else f" - {failures} FAILED")
    )
    return results
