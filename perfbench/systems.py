"""The three points of entry into the stack, behind one interface.

* :class:`FileSystem` — one ``DurableFile`` with a shard's parameters.
* :class:`EmbeddedSystem` — an in-process ``Cluster`` and one cold
  ``cluster.client()``.
* :class:`ServeSystem` — the same cluster in a ``perfbench/server.py``
  process (the ``trie-hashing serve`` command path) and one cold
  ``repro.serving.connect()`` session over a Unix socket.

Every system is built with the ``trie-hashing serve`` CLI defaults
(:func:`serve_defaults`), so a later change of a default is measured the
way users meet it.
"""

from __future__ import annotations

import json
import os
import selectors
import signal
import subprocess
import sys
from time import perf_counter_ns

from .instrument import (
    Patches,
    StoreMeter,
    cluster_reopen_s,
    cluster_stored_bytes,
    cluster_structure,
    peak_rss_mb,
    store_bytes,
    timed_reopen,
)

#: Scratch directory for sockets, server reports and span dumps,
#: relative to the checkout root (the benchmark's working directory).
OUT_DIR = ".perfbench-out"

#: Set-up preloads its records in this many ``put_many`` batches, and
#: times this many host-speed kernel passes after each.
PRELOAD_CHUNKS = 10
PASSES_PER_CHUNK = 3

#: The CPUs this process may run on, before ``serve`` pins anything.
HOST_CPUS = sorted(os.sched_getaffinity(0))


def serve_defaults():
    """The parsed arguments of a bare ``trie-hashing serve``."""
    import repro.cli as cli

    captured: list = []
    patches = Patches()
    patches.attr(cli, "_serve_command", captured.append)
    try:
        cli.main(["serve"])
    finally:
        patches.undo()
    return captured[0]


def config_of(args) -> dict:
    return {
        "shards": args.shards,
        "bucket_capacity": args.bucket_capacity,
        "shard_capacity": args.shard_capacity,
        "durable": not args.volatile,
        "replicas": args.replicas,
        "trie_backend": args.trie_backend,
    }


class _InProcess:
    """A system whose data lives in the benchmark process itself."""

    def __init__(self, args, meter: StoreMeter):
        self.args = args
        self.meter = meter

    def server_trace(self):
        return None


class _ClientOps:
    """The mix through the ``DistributedFile`` held in ``self.client``."""

    def get(self, key):
        return self.client.get(key)

    def put(self, key, value):
        self.client.put(key, value)

    def insert(self, key, value):
        self.client.insert(key, value)

    def scan(self, low, high):
        return list(self.client.range_items(low, high))

    def full_scan(self):
        return list(self.client.items())


class FileSystem(_InProcess):
    """The bare durable file: only ``repro.core`` and ``repro.storage``."""

    keys = "clustered"

    def setup(self, items, traced: bool = False, speed=None) -> int:
        from repro.storage.recovery import DurableFile
        from repro.storage.wal import StableStore

        self.stable = StableStore()
        self.durable = DurableFile.open(
            self.stable,
            engine="th",
            capacity=self.args.bucket_capacity,
            trie_backend=self.args.trie_backend,
        )
        return preload(self.durable.put_many, items, speed)

    def get(self, key):
        return self.durable.get(key)

    def put(self, key, value):
        self.durable.put(key, value)

    def insert(self, key, value):
        self.durable.insert(key, value)

    def scan(self, low, high):
        # DurableFile has no range API; ranges are read off its THFile.
        return list(self.durable.file.range_items(low, high))

    def counters(self, final: bool = False) -> dict:
        out = {"messages": 0, "forwards": 0, "batches": 0, "grouped_batches": 0}
        out.update(iam_boundaries=0, retries=0, convergence=1.0)
        out.update(self.sample())
        if final:
            file = self.durable.file
            out["structure"] = {
                "records": len(file),
                "buckets": file.bucket_count(),
                "capacity": file.capacity,
                "trie_cells": file.trie_size(),
                "stored_bytes": out["stored_bytes"],
                "shards": 1,
            }
        return out

    def sample(self) -> dict:
        return dict(
            self.meter.snapshot(),
            stored_bytes=store_bytes(self.stable),
            peak_rss_mb=peak_rss_mb(),
        )

    def full_scan(self):
        return list(self.durable.items())

    def duplicate_applies(self) -> int:
        return 0  # no request ids below the shard layer

    def reopen_s(self) -> float:
        return timed_reopen(self.stable)

    def recover(self) -> None:
        from repro.storage.recovery import DurableFile

        self.stable.lose_volatile()
        self.durable = DurableFile.open(self.stable)

    def close(self) -> None:
        self.durable = self.stable = None


class EmbeddedSystem(_ClientOps, _InProcess):
    """The in-process cluster, driven by one cold client."""

    keys = "uniform"

    def setup(self, items, traced: bool = False, speed=None) -> int:
        from repro.distributed import Cluster, ShardPolicy

        # The same Cluster(...) call as the ``serve`` command makes.
        args = self.args
        self.cluster = Cluster(
            shards=args.shards,
            bucket_capacity=args.bucket_capacity,
            shard_policy=ShardPolicy(shard_capacity=args.shard_capacity),
            durable=not args.volatile,
            trie_backend=args.trie_backend,
            replication=args.replicas,
        )
        paused = preload(self.cluster.client().put_many, items, speed)
        self.client = self.cluster.client()
        return paused

    def counters(self, final: bool = False) -> dict:
        router = self.cluster.router
        out = {
            "messages": router.messages,
            "forwards": router.forwards,
            "batches": 0,
            "grouped_batches": 0,
            "iam_boundaries": self.client.iam_boundaries,
            "retries": self.client.retries_total,
            "convergence": self.client.convergence(),
        }
        out.update(self.sample())
        if final:
            out["structure"] = cluster_structure(self.cluster)
        return out

    def sample(self) -> dict:
        return dict(
            self.meter.snapshot(),
            stored_bytes=cluster_stored_bytes(self.cluster),
            peak_rss_mb=peak_rss_mb(),
        )

    def duplicate_applies(self) -> int:
        return self.cluster.router.duplicate_applies()

    def reopen_s(self) -> float:
        return cluster_reopen_s(self.cluster)

    def recover(self) -> None:
        servers = list(self.cluster.coordinator.servers.values())
        for server in servers:
            server.crash()
        for server in servers:
            server.restart()

    def close(self) -> None:
        self.cluster = self.client = None


class ServeSystem(_ClientOps):
    """A serving process on a Unix socket and one session to it."""

    keys = "uniform"

    def __init__(self, args, meter: StoreMeter):
        self.args = args
        self.proc = None
        self.session = None
        self.report = None

    def setup(self, items, traced: bool = False, speed=None) -> int:
        from repro.distributed import RetryPolicy
        from repro.serving import connect

        os.makedirs(OUT_DIR, exist_ok=True)
        tag = f"{os.getpid()}-{id(self):x}"
        self.sock = os.path.join(OUT_DIR, f"serve-{tag}.sock")
        self.report_path = os.path.join(OUT_DIR, f"serve-{tag}.json")
        command = [
            sys.executable,
            os.path.join("perfbench", "server.py"),
            "--uds",
            self.sock,
            "--report",
            self.report_path,
        ]
        if traced:
            command += ["--spans", os.path.join(OUT_DIR, "serve-server.spans")]
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
        # Client and server on one CPU. A closed loop with one client
        # keeps only one of them busy at a time, so this costs little;
        # on a shared virtual host, waking the other, idle CPU for every
        # message doubled the p99s whenever the host was busy. On one CPU
        # the host-speed kernel (``perfbench/host.py``), timed in the
        # client, also covers the whole op.
        os.sched_setaffinity(self.proc.pid, HOST_CPUS[:1])
        os.sched_setaffinity(0, HOST_CPUS[:1])
        self._await_ready()
        # A bulk load has no per-op deadline: one preload leg can carry
        # thousands of records and several shard splits, longer than the
        # default 0.25 s on a slow host, and every retry only queues
        # behind the leg still running.
        with connect(path=self.sock, retry=RetryPolicy(timeout=None)) as loader:
            paused = preload(loader.file.put_many, items, speed)
        self.session = connect(path=self.sock)
        self.client = self.session.file
        return paused

    def _await_ready(self, timeout: float = 60.0) -> None:
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            if not selector.select(timeout):
                raise RuntimeError("the server did not start in time")
        line = self.proc.stdout.readline()
        if not line.startswith("serving on"):
            raise RuntimeError(f"the server failed to start: {line!r}")

    def _control(self, command: dict):
        return self.session.transport.control(command)

    def counters(self, final: bool = False) -> dict:
        bench = self._control(
            {"cmd": "perfbench", "action": "stop" if final else "start"}
        )
        stats = self._control({"cmd": "stats"})
        out = {
            "messages": stats["messages"],
            "forwards": stats["forwards"],
            "batches": stats["batches"],
            "grouped_batches": stats["grouped_batches"],
            "iam_boundaries": self.client.iam_boundaries,
            "retries": self.client.retries_total,
            "convergence": self.client.convergence(),
        }
        out.update(bench)
        return out

    def sample(self) -> dict:
        return self._control({"cmd": "perfbench", "action": "sample"})

    def duplicate_applies(self) -> int:
        return self._control({"cmd": "stats"})["duplicate_applies"]

    def reopen_s(self) -> float:
        return self._control({"cmd": "perfbench", "action": "reopen"})

    def recover(self) -> None:
        shard_ids = self.sample()["shard_ids"]
        for shard in shard_ids:
            self._control({"cmd": "crash", "shard": shard})
        for shard in shard_ids:
            self._control({"cmd": "restart", "shard": shard})

    def close(self) -> None:
        """Close the session, drain the server with SIGTERM, read its report."""
        if self.session is not None:
            self.session.close()
            self.session = None
        if self.proc is None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        code, self.proc = self.proc.returncode, None
        if os.path.exists(self.sock):
            os.unlink(self.sock)
        if code != 0:
            raise RuntimeError(f"the server exited with code {code}")
        with open(self.report_path) as handle:
            self.report = json.load(handle)
        os.unlink(self.report_path)

    def server_trace(self):
        return self.report["trace"]


SYSTEMS = {"file": FileSystem, "embedded": EmbeddedSystem, "serve": ServeSystem}


def preload(put_many, items, speed) -> int:
    """``put_many`` in chunks, with host-speed samples between them.

    The samples (see ``perfbench/host.py``) spread over the whole set-up
    and scale its time; returns the nanoseconds they took, which are not
    set-up time.
    """
    step = -(-len(items) // PRELOAD_CHUNKS)
    paused = 0
    for start in range(0, len(items), step):
        put_many(items[start:start + step])
        if speed is not None:
            paused += speed.sample(PASSES_PER_CHUNK)
    return paused


def timed_setup(system, items, traced: bool = False, speed=None) -> float:
    """Seconds of set-up, less the host-speed samples taken in it."""
    start = perf_counter_ns()
    paused = system.setup(items, traced, speed)
    return (perf_counter_ns() - start - paused) / 1e9
