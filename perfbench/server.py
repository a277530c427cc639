"""Server launcher for the ``serve`` workload.

Runs the real ``trie-hashing serve --uds PATH`` command path
(``repro.cli.main``), so the ``Cluster`` and ``ServingServer`` it serves
are built exactly as the command builds them, with the CLI defaults.
On top it installs, from this file:

* the :class:`~perfbench.instrument.StoreMeter` (stable-store bytes);
* with ``--spans``, the traced-run wrappers of every layer;
* one extra control command, ``{"cmd": "perfbench", "action": ...}``:
  ``start`` opens the measured phase (spans start recording) and
  ``stop`` closes it; ``sample`` changes nothing. All three answer with
  the meter, the stable-store bytes held right now, the peak RSS so
  far and the shard ids,
  and ``stop`` also with the structure at the end of the phase.
  ``reopen`` answers with the seconds it took to reopen a crash image
  of every shard (copies; the live shards are untouched).

After the SIGTERM graceful drain it writes ``--report`` (JSON: meter,
span totals per layer) for the benchmark process to collect, and
the raw spans to the ``--spans`` path.

    python3 perfbench/server.py --uds .perfbench-out/s.sock --report r.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench.instrument import (  # noqa: E402
    Patches,
    SpanRecorder,
    StoreMeter,
    cluster_reopen_s,
    cluster_stored_bytes,
    cluster_structure,
    install_layer_spans,
    peak_rss_mb,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--uds", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--spans", default=None)
    opts = parser.parse_args(argv)

    import repro.cli
    import repro.distributed
    from repro.serving.server import ServingServer

    patches = Patches()
    meter = StoreMeter()
    meter.install(patches)
    recorder = SpanRecorder()
    if opts.spans:
        install_layer_spans(recorder, patches)

    built: list = []
    cluster_class = repro.distributed.Cluster

    def build_cluster(*args, **kwargs):
        built.append(cluster_class(*args, **kwargs))
        return built[-1]

    # The serve command looks the class up at call time, so it builds
    # through this hook and the control below can reach its cluster.
    patches.attr(repro.distributed, "Cluster", build_cluster)

    def bench_control(command):
        cluster = built[-1]
        action = command["action"]
        if action == "reopen":
            return cluster_reopen_s(cluster)
        reply = dict(
            meter.snapshot(),
            stored_bytes=cluster_stored_bytes(cluster),
            peak_rss_mb=peak_rss_mb(),
            shard_ids=sorted(cluster.coordinator.servers),
        )
        if action in ("start", "stop"):
            recorder.active = bool(opts.spans) and action == "start"
        if action == "stop":
            reply["structure"] = cluster_structure(cluster)
        return reply

    def with_bench_control(run_control):
        def _run_control(server, command):
            if command.get("cmd") == "perfbench":
                return bench_control(command)
            return run_control(server, command)

        return _run_control

    patches.method(ServingServer, "_run_control", with_bench_control)
    try:
        code = repro.cli.main(["serve", "--uds", opts.uds])
    finally:
        patches.undo()
    report = {
        "meter": meter.snapshot(),
        "trace": recorder.aggregate() if opts.spans else None,
    }
    with open(opts.report, "w") as handle:
        json.dump(report, handle)
    if opts.spans:
        recorder.dump(opts.spans)
    return code


if __name__ == "__main__":
    sys.exit(main())
