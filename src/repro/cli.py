"""Command-line entry point: regenerate any reproduced experiment.

Installed as ``trie-hashing``. Examples::

    trie-hashing list
    trie-hashing run fig10 --count 5000
    trie-hashing run sec5 --count 2000 --bucket-capacity 20
    trie-hashing run fig10 --count 5000 --metrics out.json --trace out.jsonl
    trie-hashing trace list --trace chaos.jsonl
    trie-hashing trace report c1-42 --trace chaos.jsonl
    trie-hashing reproduce --quick
    trie-hashing demo

``demo`` builds the paper's Fig 1 example file and prints its buckets
and trie, which doubles as a smoke test of an installation. ``trace``
reconstructs causal span trees from a JSONL trace or a flight-recorder
dump (see :mod:`repro.obs.causal`); ``reproduce`` runs the benchmark
harness into a per-run artifact directory and refreshes the committed
``BENCH_*.json`` trajectory (see :mod:`repro.bench`).
"""

from __future__ import annotations

import argparse
import sys

from . import THFile, __version__
from .analysis.experiments import EXPERIMENTS, run_experiment, settings_of
from .analysis.reporting import format_table
from .bench.suites import SUITES
from .workloads import MOST_USED_WORDS

__all__ = ["main"]


def _flags(settings: list[str]) -> str:
    """``count``/``bucket_capacity`` -> ``--count, --bucket-capacity``."""
    return ", ".join("--" + name.replace("_", "-") for name in settings)


def _demo() -> None:
    """Build and print the Fig 1 example file (31 English words, b=4)."""
    f = THFile(bucket_capacity=4)
    for word in MOST_USED_WORDS:
        f.insert(word)
    print("Fig 1 example file — 31 most-used English words, b = 4")
    print(f"records={len(f)} buckets={f.bucket_count()} cells={f.trie_size()} "
          f"load={f.load_factor():.3f}")
    print("\nbuckets:")
    for address in sorted(f.store.live_addresses()):
        print(f"  {address}: {' '.join(f.store.peek(address).keys)}")
    print("\ntrie boundaries (in order):")
    print(" ", " | ".join(f.trie.boundaries()))


def _trace_command(args) -> int:
    """The ``trace list`` / ``trace report`` subcommands."""
    from .obs.causal import (
        CausalError,
        build_traces,
        find_rid,
        hop_rows,
        load_events,
        render_tree,
        trace_summary_rows,
    )

    if args.trace_command not in ("list", "report"):
        print("usage: trie-hashing trace {list,report} --trace PATH",
              file=sys.stderr)
        return 1
    try:
        records = load_events(args.trace_file)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read trace: {exc}", file=sys.stderr)
        return 1
    traces = build_traces(records)
    if args.trace_command == "list":
        rows = trace_summary_rows(traces)
        if not rows:
            print("no completed spans in trace")
            return 0
        print(format_table(rows, title=f"traces in {args.trace_file}"))
        return 0
    try:
        root = find_rid(traces, args.rid)
    except CausalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(render_tree(root, max_depth=args.max_depth))
    print()
    print(format_table(hop_rows(root), title=f"per-hop latency for {args.rid}"))
    return 0


def _serve_command(args) -> int:
    import asyncio
    import contextlib
    import signal

    from .distributed import Cluster, ShardPolicy
    from .serving import ServingServer

    cluster = Cluster(
        shards=args.shards,
        bucket_capacity=args.bucket_capacity,
        shard_policy=ShardPolicy(shard_capacity=args.shard_capacity),
        durable=not args.volatile,
        trie_backend=args.trie_backend,
        replication=args.replicas,
    )
    server = ServingServer(
        cluster,
        health_interval=0.1 if args.replicas else 0.0,
    )

    async def _serve() -> None:
        if args.uds:
            where = await server.start_unix(args.uds)
            print(f"serving on unix:{where}", flush=True)
        else:
            host, port = await server.start_tcp(args.host, args.port)
            print(f"serving on {host}:{port}", flush=True)
        # SIGINT/SIGTERM trigger a *graceful* shutdown: stop accepting,
        # drain in-flight batches behind their group fsync, take a
        # final WAL commit on every live durable shard, then exit. No
        # acked write is lost to a deploy or a ctrl-C.
        stopping = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError):
                loop.add_signal_handler(sig, stopping.set)
        try:
            await stopping.wait()
            print("draining: refusing new connections", flush=True)
            drained = await server.shutdown()
            print(f"shutdown complete ({drained} batches drained)", flush=True)
        except asyncio.CancelledError:
            await server.stop()
            raise

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("shutting down")
    return 0


def _client_command(args) -> int:
    import json

    from .core.errors import TrieHashingError
    from .serving import connect

    if args.op in ("get", "delete") and args.key is None:
        print(f"error: {args.op} needs a KEY", file=sys.stderr)
        return 2
    if args.op in ("insert", "put") and (
        args.key is None or args.value is None
    ):
        print(f"error: {args.op} needs KEY and VALUE", file=sys.stderr)
        return 2
    try:
        with connect(path=args.uds, host=args.host, port=args.port) as session:
            file = session.file
            if args.op == "get":
                print(file.get(args.key))
            elif args.op == "insert":
                file.insert(args.key, args.value)
                print("ok")
            elif args.op == "put":
                file.put(args.key, args.value)
                print("ok")
            elif args.op == "delete":
                print(file.delete(args.key))
            elif args.op == "len":
                print(len(file))
            elif args.op == "scan":
                for key, value in file.items():
                    print(f"{key}\t{value}")
            elif args.op == "stats":
                print(
                    json.dumps(
                        session.transport.control({"cmd": "stats"}), indent=2
                    )
                )
    except (TrieHashingError, ConnectionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def main(argv: list[str] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="trie-hashing",
        description="Trie Hashing with Controlled Load - reproduction harness",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="list available experiments")
    sub.add_parser("demo", help="build and print the Fig 1 example file")
    sub.add_parser(
        "validate", help="re-check every reproduced claim (PASS/FAIL)"
    )
    lint = sub.add_parser(
        "lint", help="run the project linter (python -m repro.lint)"
    )
    lint.add_argument("paths", nargs="*", default=["src"])
    lint.add_argument("--json", action="store_true", dest="lint_json")
    lint.add_argument("--select", default=None, dest="lint_select")
    lint.add_argument("--flow", action="store_true", dest="lint_flow")
    lint.add_argument(
        "--graph", choices=["dot"], default=None, dest="lint_graph"
    )
    lint.add_argument("--sarif", default=None, dest="lint_sarif")
    lint.add_argument("--baseline", default=None, dest="lint_baseline")
    tr = sub.add_parser(
        "trace",
        help="reconstruct causal trees from a trace or flight dump",
    )
    tr_sub = tr.add_subparsers(dest="trace_command")
    tr_list = tr_sub.add_parser(
        "list", help="one summary row per causal trace in the file"
    )
    tr_list.add_argument(
        "--trace",
        metavar="PATH",
        required=True,
        dest="trace_file",
        help="JSONL trace or flight-recorder dump to read",
    )
    tr_report = tr_sub.add_parser(
        "report",
        help="render one rid's causal tree and per-hop latency table",
    )
    tr_report.add_argument(
        "rid", help='request id, e.g. "c1-42" (see trace list)'
    )
    tr_report.add_argument(
        "--trace",
        metavar="PATH",
        required=True,
        dest="trace_file",
        help="JSONL trace or flight-recorder dump to read",
    )
    tr_report.add_argument(
        "--max-depth",
        type=int,
        default=None,
        help="truncate the rendered tree below this depth",
    )
    rep = sub.add_parser(
        "reproduce",
        help="run the benchmark harness and refresh BENCH_*.json",
    )
    rep.add_argument(
        "--quick",
        action="store_true",
        help="shorthand for --profile quick (the CI / baseline size)",
    )
    rep.add_argument(
        "--profile",
        choices=("quick", "full"),
        default=None,
        help="workload sizes per suite (default: quick)",
    )
    rep.add_argument(
        "--suite",
        action="append",
        dest="suites",
        choices=tuple(SUITES),
        help="run only this suite (repeatable; default: all)",
    )
    rep.add_argument(
        "--trie-backend",
        choices=("cells", "compact"),
        default="cells",
        help="trie representation the suites build with (recorded in "
        "every BENCH config block; the compact suite measures both)",
    )
    rep.add_argument(
        "--out-root",
        default="bench-out/runs",
        help="where per-run artifact directories accumulate",
    )
    rep.add_argument(
        "--bench-dir",
        default=".",
        help="where BENCH_*.json are refreshed ('-' to skip)",
    )
    rep.add_argument(
        "--seed", type=int, default=None, help="override every suite's seed"
    )
    srv = sub.add_parser(
        "serve",
        help="serve a cluster over TCP or a Unix-domain socket",
    )
    srv.add_argument(
        "--uds", metavar="PATH", default=None,
        help="listen on a Unix-domain socket at PATH",
    )
    srv.add_argument(
        "--host", default="127.0.0.1", help="TCP bind host (default: localhost)"
    )
    srv.add_argument(
        "--port", type=int, default=0,
        help="TCP bind port (default: an ephemeral port, printed at start)",
    )
    srv.add_argument(
        "--shards", type=int, default=4, help="initial shard servers"
    )
    srv.add_argument(
        "--bucket-capacity", type=int, default=8, help="bucket capacity b"
    )
    srv.add_argument(
        "--shard-capacity", type=int, default=512,
        help="records per shard before the coordinator splits it",
    )
    srv.add_argument(
        "--volatile", action="store_true",
        help="serve non-durable shards (no WAL; testing only)",
    )
    srv.add_argument(
        "--replicas", choices=("semisync", "async"), default=None,
        help="replicate every shard to a backup (WAL shipping) and run "
        "wall-clock failover detection",
    )
    srv.add_argument(
        "--trie-backend", choices=("cells", "compact"), default="cells",
        help="trie representation of the shard files",
    )
    cli = sub.add_parser(
        "client",
        help="run one operation against a serving endpoint",
    )
    cli.add_argument("--uds", metavar="PATH", default=None)
    cli.add_argument("--host", default=None)
    cli.add_argument("--port", type=int, default=None)
    cli.add_argument(
        "op",
        choices=("get", "insert", "put", "delete", "len", "scan", "stats"),
    )
    cli.add_argument("key", nargs="?", default=None)
    cli.add_argument("value", nargs="?", default=None)
    run = sub.add_parser("run", help="run one experiment and print its table")
    run.add_argument("experiment", choices=sorted(EXPERIMENTS))
    run.add_argument(
        "--paranoid",
        action="store_true",
        help="audit every registered structure after each mutating op "
        "(same switch as REPRO_PARANOID=1)",
    )
    run.add_argument("--count", type=int, default=None, help="number of keys")
    run.add_argument(
        "--bucket-capacity", type=int, default=None, help="bucket capacity b"
    )
    run.add_argument("--seed", type=int, default=None, help="workload seed")
    run.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="trace the run and write a JSON metrics snapshot here",
    )
    run.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="trace the run and write a JSONL event trace here",
    )
    run.add_argument(
        "--prometheus",
        metavar="PATH",
        default=None,
        help="trace the run and write a Prometheus text snapshot here",
    )
    args = parser.parse_args(argv)

    if args.command == "list":
        for name in sorted(EXPERIMENTS):
            print(f"{name:22s} {EXPERIMENTS[name][1]}")
        return 0
    if args.command == "demo":
        _demo()
        return 0
    if args.command == "validate":
        from .analysis.validation import validate_all

        results = validate_all()
        return 0 if all(r["ok"] for r in results) else 1
    if args.command == "trace":
        return _trace_command(args)
    if args.command == "reproduce":
        from .bench import reproduce

        # --quick is the spelled-out alias CI uses; quick is also the
        # default because the committed baselines are quick-profile.
        profile = args.profile if args.profile is not None else "quick"
        try:
            reproduce(
                profile=profile,
                out_root=args.out_root,
                bench_dir=None if args.bench_dir == "-" else args.bench_dir,
                suites=args.suites,
                seed=args.seed,
                trie_backend=args.trie_backend,
            )
        except OSError as exc:
            print(f"error: cannot write artifacts: {exc}", file=sys.stderr)
            return 1
        return 0
    if args.command == "serve":
        return _serve_command(args)
    if args.command == "client":
        return _client_command(args)
    if args.command == "lint":
        from .lint.__main__ import main as lint_main

        lint_argv = list(args.paths)
        if args.lint_json:
            lint_argv.append("--json")
        if args.lint_select:
            lint_argv.extend(["--select", args.lint_select])
        if args.lint_flow:
            lint_argv.append("--flow")
        if args.lint_graph:
            lint_argv.extend(["--graph", args.lint_graph])
        if args.lint_sarif:
            lint_argv.extend(["--sarif", args.lint_sarif])
        if args.lint_baseline:
            lint_argv.extend(["--baseline", args.lint_baseline])
        return lint_main(lint_argv)
    if args.command == "run":
        given = {
            name: value
            for name, value in (
                ("count", args.count),
                ("seed", args.seed),
                ("bucket_capacity", args.bucket_capacity),
            )
            if value is not None
        }
        takes = settings_of(args.experiment)
        refused = [name for name in given if name not in takes]
        if refused:
            print(
                f"error: {args.experiment} does not take {_flags(refused)}; "
                f"it takes {_flags(takes) or 'none of them'}",
                file=sys.stderr,
            )
            return 2
        if args.paranoid:
            from .check import set_paranoid

            set_paranoid(True)
        observing = args.metrics or args.trace or args.prometheus
        if observing:
            from .obs import (
                JsonlTraceWriter,
                MetricsRegistry,
                prometheus_text,
                trace,
                write_metrics_json,
            )

            registry = MetricsRegistry()
            sinks = []
            try:
                if args.trace:
                    sinks.append(JsonlTraceWriter(args.trace))
            except OSError as exc:
                print(f"error: cannot write trace: {exc}", file=sys.stderr)
                return 1
            with trace(sinks=sinks, registry=registry):
                rows = run_experiment(args.experiment, **given)
            print(format_table(rows, title=args.experiment))
            try:
                if args.metrics:
                    write_metrics_json(registry, args.metrics)
                if args.prometheus:
                    with open(args.prometheus, "w", encoding="utf-8") as fh:
                        fh.write(prometheus_text(registry))
            except OSError as exc:
                print(f"error: cannot write metrics: {exc}", file=sys.stderr)
                return 1
            return 0
        else:
            rows = run_experiment(args.experiment, **given)
        print(format_table(rows, title=args.experiment))
        return 0
    parser.print_help()
    return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
