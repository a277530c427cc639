"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload embedded --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` measures the per-layer metrics (an untraced and a traced
phase, each on a fresh set-up, half the seconds each). Every run checks
each reply against the oracle, compares a full ordered scan with it,
crashes and recovers the stored data and checks it again. Times are
given at the speed of a nominal host (see ``perfbench/host.py``). The last
line of standard output is one JSON object; the exit code is 1 when any
check failed and 2 when the repository's sources are missing.
"""

from __future__ import annotations

import argparse
import array
import gc
import json
import math
import os
import statistics
import sys
from time import perf_counter_ns

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Records preloaded through the batch API during set-up.
RECORDS = 20_000
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 5
#: Fresh keys generated per measured second (caps the insert rate).
FRESH_PER_SECOND = 8_000
#: Ops between two samples of the stored bytes.
SAMPLE_EVERY = 500
#: Byte ratios (written and stored per user byte), the peak RSS and the
#: reopen times are taken over this many first ops (or all of a shorter
#: ``--ops`` run), so that they do not depend on how many ops a run gets
#: through on the host of the day: the files grow as the run goes.
BYTES_WINDOW = 30_000
#: Timed reopens of a crash image in an untraced run, evenly spread over
#: the window: they see the files at every point of their checkpoint
#: cycle, and ``recover_s`` is their mean.
REOPENS = 10
#: Seconds of measurement between two passes of the host-speed kernel
#: (``perfbench/host.py``); the passes are not measured time.
CALIBRATE_EVERY_S = 0.05
#: Kernel passes each side of a stretch whose median scales the stretch's
#: times, so that the scale follows the host through a run.
SMOOTH = 4
#: The program's own counters, read before and after a phase.
COUNTERS = (
    "appended", "rewritten", "fsyncs", "messages", "forwards", "batches",
    "grouped_batches", "iam_boundaries", "retries",
)


def percentile(sorted_values, share: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    rank = max(1, math.ceil(share * len(sorted_values)))
    return sorted_values[rank - 1]


class Phase:
    """One measured stretch of the mix on one set-up, and its checks."""

    def __init__(self, system, inputs, corrupt=False):
        from perfbench.host import HostSpeed
        from perfbench.mix import KINDS, Oracle, OpStream

        self.system = system
        self.oracle = Oracle(inputs.preload)
        if corrupt:
            # Test hook: an oracle that disagrees with an acknowledged write.
            self.oracle.values[inputs.preload[0][0]] = "corrupted"
        self.stream = OpStream(inputs.seed, self.oracle, inputs.fresh)
        self.latency = {kind: array.array("q") for kind in KINDS}
        #: Per op, the stretch of the host-speed samples it ran in.
        self.stretch = {kind: array.array("l") for kind in KINDS}
        self.speed = HostSpeed()
        self.failures: list[str] = []
        self.failed = self.user_bytes = self.mutations = 0
        #: Stored bytes over live user bytes, sampled over ``BYTES_WINDOW``.
        self.stored_ratio: list[float] = []
        #: Store counters and user bytes after ``BYTES_WINDOW`` ops.
        self.window = None
        #: Stretch and seconds of each timed reopen of a crash image.
        self.reopens: list[tuple[int, float]] = []

    def run(self, seconds, ops, recorder=None, reopen=False) -> None:
        """Drive the mix for ``seconds`` (or exactly ``ops`` ops)."""
        from perfbench.mix import GET, INSERT, PUT, SCAN

        system, oracle, speed = self.system, self.oracle, self.speed
        calls = {GET: system.get, PUT: system.put, INSERT: system.insert}
        calls[SCAN] = system.scan
        self.before = system.counters()
        if recorder is not None:
            recorder.active = True
        speed.sample()
        stretch = 1
        deadline = perf_counter_ns() + int(seconds * 1e9)
        window = min(ops, BYTES_WINDOW) if ops else BYTES_WINDOW
        reopen_every = max(1, window // REOPENS) if reopen else 0
        next_sample = perf_counter_ns() + int(CALIBRATE_EVERY_S * 1e9)
        index = 0
        while (index < ops) if ops else (perf_counter_ns() < deadline):
            op = self.stream.next(index)
            if op is None:
                break  # the fresh-key pool ran out
            kind, key, arg = op
            if recorder is not None:
                recorder.op = index
            index += 1
            call = calls[kind]
            start = perf_counter_ns()
            try:
                out = call(key) if kind == GET else call(key, arg)
            except Exception as exc:  # a failed op is counted; the run goes on
                self._fail(f"{kind} {key!r}: {exc!r}")
                continue
            self.latency[kind].append(perf_counter_ns() - start)
            self.stretch[kind].append(stretch)
            if kind == GET:
                if out != oracle.values[key]:
                    self._fail(f"get {key!r} returned {out!r}")
            elif kind == SCAN:
                if out != oracle.expected_range(key, arg):
                    self._fail(f"scan {key!r}..{arg!r} differs from the oracle")
            else:
                if kind == PUT:
                    oracle.put(key, arg)
                else:
                    oracle.insert(key, arg)
                self.mutations += 1
                self.user_bytes += len(key) + len(arg)
            if index % SAMPLE_EVERY == 0 and index <= window:
                sample = system.sample()
                self.stored_ratio.append(sample["stored_bytes"] / oracle.live_bytes)
                if index == window:
                    self.window = (sample, self.user_bytes)
            if reopen_every and index % reopen_every == 0 and index <= window:
                start = perf_counter_ns()
                self.reopens.append((stretch, system.reopen_s()))
                deadline += perf_counter_ns() - start  # not measured time
            if perf_counter_ns() >= next_sample:
                deadline += speed.sample()  # not measured time
                stretch += 1
                next_sample = perf_counter_ns() + int(CALIBRATE_EVERY_S * 1e9)
        speed.sample()
        if recorder is not None:
            recorder.active = False
        self.after = system.counters(final=True)
        if self.window is None:
            self.window = (self.after, self.user_bytes)
        self.attempted = index
        self.scales = speed.stretch_scales(SMOOTH)
        self.op_ns = sum(sum(values) for values in self.latency.values())

    def scaled(self) -> dict:
        """Op times in ns at nominal host speed, by op kind."""
        scales = self.scales
        return {
            kind: [ns * scales[s] for ns, s in zip(values, self.stretch[kind])]
            for kind, values in self.latency.items()
        }

    def recover_s(self) -> float:
        """Mean reopen time of the crash images, at nominal host speed."""
        return statistics.fmean(s * self.scales[at] for at, s in self.reopens)

    def _fail(self, what: str) -> None:
        self.failed += 1
        self.failures.append(what)

    def delta(self, name: str) -> float:
        return self.after[name] - self.before[name]

    def ops_per_s(self) -> float:
        """Ops per second of op time, at nominal host speed."""
        scaled = self.scaled().values()
        return sum(map(len, scaled)) / (sum(map(sum, scaled)) / 1e9)

    def check(self, when: str) -> None:
        """Full ordered scan against the oracle; exactly-once applies."""
        if self.system.full_scan() != self.oracle.expected_items():
            self._fail(f"full scan {when} differs from the oracle")
        duplicates = self.system.duplicate_applies()
        if duplicates:
            self._fail(f"{duplicates} duplicate applies {when}")

    def structural(self) -> dict:
        """Counts that repeat exactly for a seed and an op count."""
        out = {name: self.delta(name) for name in COUNTERS}
        out.update(self.after["structure"])
        out["user_bytes"] = self.user_bytes
        out["ops"] = self.attempted
        return out


def end_to_end(phase, setup_s) -> dict:
    """The untraced metrics; every time is at nominal host speed."""
    metrics = {"setup_s": setup_s, "ops_per_s": phase.ops_per_s()}
    for kind, values in phase.scaled().items():
        ordered = sorted(values)
        metrics[f"{kind}_p50_us"] = percentile(ordered, 0.50) / 1e3
        metrics[f"{kind}_p99_us"] = percentile(ordered, 0.99) / 1e3
    counters, user_bytes = phase.window
    written = sum(counters[n] - phase.before[n] for n in ("appended", "rewritten"))
    metrics["written_bytes_per_user_byte"] = written / user_bytes
    metrics["stored_bytes_per_user_byte"] = statistics.fmean(phase.stored_ratio)
    metrics["peak_rss_mb"] = counters["peak_rss_mb"]
    metrics["recover_s"] = phase.recover_s()
    return metrics


def measure_untraced(cls, args, meter, inputs, opts) -> tuple:
    from perfbench.host import HostSpeed
    from perfbench.systems import timed_setup

    setups, scales = [], []
    system = None
    try:
        for _ in range(SETUPS):
            if system is not None:
                system.close()
                gc.collect()
            system = cls(args, meter)
            speed = HostSpeed()
            setups.append(timed_setup(system, inputs.preload, speed=speed))
            scales.append(speed.scale())
        phase = Phase(system, inputs, corrupt=opts.corrupt_oracle)
        phase.run(opts.seconds, opts.ops, reopen=True)
        phase.check("after the run")
        system.recover()
        phase.check("after recovery")
    finally:
        system.close()
    setup_s = statistics.median(t * scale for t, scale in zip(setups, scales))
    metrics = end_to_end(phase, setup_s)
    report = {
        "setups_s": setups,
        "setup_scales": scales,
        "reopens_s": phase.reopens,
        "host_scale": phase.speed.scale(),
        "structural": phase.structural(),
    }
    return metrics, [phase], report


def measure_traced(cls, args, meter, patches, inputs, opts) -> tuple:
    from perfbench.instrument import (
        SpanRecorder,
        install_layer_spans,
        layer_metrics,
        merge_aggregates,
    )
    from perfbench.systems import OUT_DIR, timed_setup

    phases = []
    recorder = SpanRecorder()
    for traced in (False, True):
        if traced:
            install_layer_spans(recorder, patches)
        system = cls(args, meter)
        try:
            timed_setup(system, inputs.preload, traced=traced)
            phase = Phase(system, inputs, corrupt=opts.corrupt_oracle)
            phase.run(opts.seconds / 2, opts.ops, recorder=recorder if traced else None)
            phase.check("after the run")
        finally:
            system.close()
        phases.append(phase)
    plain, traced_phase = phases
    agg = recorder.aggregate()
    server = system.server_trace()  # the traced phase's server, on ``serve``
    if server is not None:
        agg = merge_aggregates(agg, server)
    os.makedirs(OUT_DIR, exist_ok=True)
    recorder.dump(os.path.join(OUT_DIR, f"{opts.workload}.spans"))
    run = {name: traced_phase.delta(name) for name in COUNTERS}
    run.update(
        ops=traced_phase.attempted,
        mutations=traced_phase.mutations,
        user_bytes=traced_phase.user_bytes,
        structure=traced_phase.after["structure"],
        convergence=traced_phase.after["convergence"],
        op_ns=traced_phase.op_ns,
        overhead_x=plain.ops_per_s() / traced_phase.ops_per_s(),
    )
    metrics = layer_metrics(agg, run)
    structural = traced_phase.structural()
    counts = agg["counts"]
    structural["bucket_reads"] = counts.get("core.bucket_reads", 0)
    structural["bucket_splits"] = counts.get("core.bucket_splits", 0)
    structural["shard_splits"] = agg["spans"].get("coordinator.split", [0])[0]
    report = {"structural": structural, "spans": agg["spans"]}
    return metrics, phases, report


def run(opts) -> dict:
    from perfbench.instrument import Patches, StoreMeter
    from perfbench.mix import Inputs
    from perfbench.systems import SYSTEMS, config_of, serve_defaults

    args = serve_defaults()
    cls = SYSTEMS[opts.workload]
    fresh = opts.ops if opts.ops else int(opts.seconds * FRESH_PER_SECOND)
    inputs = Inputs(cls.keys, opts.seed, opts.records, fresh)
    patches = Patches()
    meter = StoreMeter()
    meter.install(patches)
    try:
        if opts.trace:
            metrics, phases, report = measure_traced(
                cls, args, meter, patches, inputs, opts
            )
        else:
            metrics, phases, report = measure_untraced(
                cls, args, meter, inputs, opts
            )
    finally:
        patches.undo()
    failures = [f for phase in phases for f in phase.failures]
    attempted = sum(phase.attempted for phase in phases)
    report.update(
        workload=opts.workload,
        seed=opts.seed,
        config=config_of(args),
        metrics=metrics,
        attempted=attempted,
        failed=sum(phase.failed for phase in phases),
        failures=failures,
    )
    return report


def _units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {
        section: {m["name"]: m["unit"] for m in spec[section]}
        for section in ("end_to_end", "per_layer")
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("file", "embedded", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--records", type=int, default=RECORDS, help="records preloaded in set-up"
    )
    parser.add_argument(
        "--ops", type=int, default=0,
        help="run exactly this many ops per phase instead of --seconds",
    )
    parser.add_argument("--report", default=None, help="write the full report here")
    parser.add_argument(
        "--corrupt-oracle", action="store_true",
        help="plant a wrong value in the oracle (the run must fail)",
    )
    opts = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(
            "perfbench: src/repro not found next to perfbench/; "
            "run it from a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    os.chdir(ROOT)
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

    report = run(opts)
    section = "per_layer" if opts.trace else "end_to_end"
    units = _units()[section]
    metrics = report["metrics"]
    if set(units) != set(metrics):
        raise SystemExit(
            f"perfbench: metrics {sorted(set(units) ^ set(metrics))} "
            "do not match BENCHMARK.json"
        )
    correct = not report["failures"]
    print(f"workload {opts.workload}, seed {opts.seed}, config {report['config']}")
    if "host_scale" in report:
        print(
            f"  times at nominal host speed (perfbench/host.py): measured "
            f"times x {report['host_scale']:.4f} in the run, "
            f"x {statistics.median(report['setup_scales']):.4f} in set-up"
        )
    for name in units:
        print(f"  {name:40s} {metrics[name]:14.4f} {units[name]}")
    attempted = max(report["attempted"], 1)
    print(f"  {'failed_ratio':40s} {report['failed'] / attempted:14.4f} ratio")
    for failure in report["failures"][:20]:
        print(f"  FAILED: {failure}")
    if opts.report:
        with open(opts.report, "w") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
    result = {
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in units
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
