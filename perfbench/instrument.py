"""Instrumentation installed from the benchmark's own files.

Nothing under ``src/`` is edited. Instead, :class:`Patches` rebinds
public entry points of the program's modules to wrappers and undoes
them afterwards:

* :class:`StoreMeter` counts the bytes every ``StableStore`` appends
  and rewrites, and its fsyncs. It is on in every run, because
  ``written_bytes_per_user_byte`` is an end-to-end metric.
* :class:`SpanRecorder` plus :func:`install_layer_spans` wrap the entry
  points of each layer (module) for the traced run. A span records its
  name, start, end, parent span and benchmark op id. Spans stay in
  memory (flat arrays) and are written once, by :meth:`SpanRecorder.dump`.
  A layer's self time is its span time minus its child spans.
* :func:`layer_metrics` turns span totals and counters into the
  per-layer metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import array
import functools
import json
import resource
import sys
from time import perf_counter, perf_counter_ns
from typing import Callable, Optional

from repro.storage.wal import StableStore


class Patches:
    """Reversible rebinding of functions and methods."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def attr(self, owner: object, name: str, value: object) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def method(self, cls: type, name: str, make: Callable) -> None:
        """Replace ``cls.name`` by ``make(original function)``."""
        raw = cls.__dict__[name]
        if isinstance(raw, staticmethod):
            self.attr(cls, name, staticmethod(make(raw.__func__)))
        else:
            self.attr(cls, name, make(raw))

    def function(self, module: object, name: str, make: Callable) -> None:
        """Replace a module function everywhere it was imported by name."""
        original = getattr(module, name)
        replacement = make(original)
        for mod in list(sys.modules.values()):
            if mod is None or not mod.__name__.startswith("repro"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.attr(mod, attr, replacement)

    def undo(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


class StoreMeter:
    """Physical-write counters summed over every ``StableStore``."""

    def __init__(self) -> None:
        self.appended = 0
        self.rewritten = 0
        self.fsyncs = 0

    def install(self, patches: Patches) -> None:
        meter = self

        def _physical(store, kind, name, payload=b""):
            if kind == "append":
                meter.appended += len(payload)
            elif kind == "rename":
                meter.rewritten += len(payload)
            elif kind == "fsync":
                meter.fsyncs += 1

        patches.method(StableStore, "_physical", lambda original: _physical)

    def snapshot(self) -> dict:
        return {
            "appended": self.appended,
            "rewritten": self.rewritten,
            "fsyncs": self.fsyncs,
        }


def cluster_structure(cluster) -> dict:
    """Record, bucket, trie and stable-store totals over every shard."""
    records = buckets = cells = 0
    capacity = cluster.bucket_capacity
    for server in cluster.coordinator.servers.values():
        records += len(server)
        buckets += server.engine.bucket_count()
        cells += server.engine.trie_size()
    return {
        "records": records,
        "buckets": buckets,
        "capacity": capacity,
        "trie_cells": cells,
        "stored_bytes": cluster_stored_bytes(cluster),
        "shards": len(cluster.coordinator.servers),
    }


def cluster_stored_bytes(cluster) -> int:
    return sum(
        store_bytes(server.file.stable)
        for server in cluster.coordinator.servers.values()
        if hasattr(server.file, "stable")
    )


def store_bytes(stable) -> int:
    return sum(stable.size(name) for name in stable.names())


def peak_rss_mb() -> float:
    """This process's peak resident set so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class _UnmeteredStore(StableStore):
    """A scratch copy whose writes the :class:`StoreMeter` does not count."""

    def _physical(self, kind, name, payload=b""):
        pass


def timed_reopen(stable) -> float:
    """Seconds to reopen a copy of ``stable`` as a crash would leave it.

    The copy holds only the durable prefix of every object (what
    ``lose_volatile`` keeps), so the reopen does exactly the work of
    crash recovery, while the live store is left as it is.
    """
    from repro.storage.recovery import DurableFile

    copy = _UnmeteredStore.from_snapshot(stable.snapshot_durable())
    start = perf_counter()
    DurableFile.open(copy)
    return perf_counter() - start


def cluster_reopen_s(cluster) -> float:
    """:func:`timed_reopen` summed over every shard of ``cluster``."""
    return sum(
        timed_reopen(server.file.stable)
        for server in cluster.coordinator.servers.values()
    )


class SpanRecorder:
    """Spans in flat arrays, plus named counters, for one process.

    Wrappers record only while :attr:`active` is set, so set-up and the
    final checks leave no spans. One stack serves every thread: the
    benchmark is a closed loop with one client, so spans never overlap
    except by nesting (the socket client's loop thread runs only while
    the calling thread waits for it).
    """

    def __init__(self) -> None:
        self.active = False
        self.op = -1
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array.array("H")
        self.starts = array.array("q")
        self.ends = array.array("q")
        self.parents = array.array("i")
        self.ops = array.array("i")
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, name: str, amount: float = 1) -> None:
        if self.active:
            self.counts[name] = self.counts.get(name, 0) + amount

    def _open(self, name_id: int) -> int:
        sid = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ops.append(self.op)
        self.ends.append(0)
        self.stack.append(sid)
        self.starts.append(perf_counter_ns())
        return sid

    def _close(self, sid: int) -> None:
        self.ends[sid] = perf_counter_ns()
        self.stack.pop()

    def span(self, name: str, fn: Callable) -> Callable:
        name_id = self._name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = self._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)

        return wrapper

    def async_span(self, name: str, fn: Callable) -> Callable:
        name_id = self._name_id(name)

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            if not self.active:
                return await fn(*args, **kwargs)
            sid = self._open(name_id)
            try:
                return await fn(*args, **kwargs)
            finally:
                self._close(sid)

        return wrapper

    def counting(
        self, name: str, fn: Callable, measure: Optional[Callable] = None
    ) -> Callable:
        """Count calls of ``fn`` (or add ``measure(result)`` per call)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.add(name, 1 if measure is None else measure(result))
            return result

        return wrapper

    def materialized(self, name: str, fn: Callable) -> Callable:
        """Run a lazy scan to completion inside the call; count records."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            records = list(fn(*args, **kwargs))
            self.add(name, len(records))
            return iter(records)

        return wrapper

    # -- results -------------------------------------------------------
    def aggregate(self) -> dict:
        """Per span name ``[calls, total_ns, self_ns]``, and root totals."""
        count = len(self.starts)
        starts, ends, parents = self.starts, self.ends, self.parents
        child = [0] * count
        for sid in range(count):
            parent = parents[sid]
            if parent >= 0:
                child[parent] += ends[sid] - starts[sid]
        spans: dict[str, list[int]] = {}
        root_ns = 0
        names, name_ids = self.names, self.name_ids
        for sid in range(count):
            duration = ends[sid] - starts[sid]
            row = spans.get(names[name_ids[sid]])
            if row is None:
                row = spans[names[name_ids[sid]]] = [0, 0, 0]
            row[0] += 1
            row[1] += duration
            row[2] += duration - child[sid]
            if parents[sid] < 0 and self.ops[sid] >= 0:
                root_ns += duration
        return {"spans": spans, "counts": dict(self.counts), "root_ns": root_ns}

    def dump(self, path: str) -> None:
        """Write every span: a JSON header line, then the raw arrays."""
        columns = ("name_ids", "starts", "ends", "parents", "ops")
        header = {
            "names": self.names,
            "spans": len(self.starts),
            "columns": [[c, getattr(self, c).typecode] for c in columns],
        }
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for column in columns:
                getattr(self, column).tofile(out)


def install_layer_spans(recorder: SpanRecorder, patches: Patches) -> None:
    """Wrap each layer's entry points; span names are ``layer.entry``."""
    from repro.check import hook
    from repro.core import range_query
    from repro.core.file import THFile
    from repro.core.image import TrieImage
    from repro.distributed import codec
    from repro.distributed.client import DistributedFile
    from repro.distributed.coordinator import Coordinator
    from repro.distributed.router import InProcessTransport
    from repro.distributed.server import ShardServer
    from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
    from repro.serving.client import AsyncClient, RemoteTransport
    from repro.serving.server import ServingServer
    from repro.storage.recovery import DurableFile

    span = recorder.span

    def spanned(name):
        return lambda fn: span(name, fn)

    # repro.core: the paper's file.
    def count_reads(fn):
        def get(file, key):
            stats = file.store.stats
            before = stats.reads
            try:
                return fn(file, key)
            finally:
                recorder.add("core.bucket_reads", stats.reads - before)

        return get

    patches.method(THFile, "get", lambda fn: span("core.get", count_reads(fn)))
    patches.method(THFile, "put", spanned("core.put"))
    patches.method(THFile, "insert", spanned("core.insert"))
    patches.method(
        THFile, "_split", lambda fn: recorder.counting("core.bucket_splits", fn)
    )
    patches.function(
        range_query,
        "scan",
        lambda fn: span("core.scan", recorder.materialized("core.scan_records", fn)),
    )

    # repro.storage: the WAL ack protocol and checkpoints.
    for name in ("insert", "put", "delete"):
        patches.method(DurableFile, name, spanned("storage.mutation"))
    patches.method(DurableFile, "get", spanned("storage.read"))
    patches.method(DurableFile, "checkpoint", spanned("storage.checkpoint"))

    # repro.distributed.codec
    for name, size in (("encode_op", "op"), ("encode_reply", "reply")):
        patches.function(
            codec,
            name,
            lambda fn, size=size, name=name: span(
                f"codec.{name}",
                recorder.counting(f"codec.{size}_bytes", fn, measure=len),
            ),
        )
    for name in ("decode_op", "decode_reply"):
        patches.function(codec, name, spanned(f"codec.{name}"))

    # repro.distributed.router
    patches.method(InProcessTransport, "client_send", spanned("router.client_send"))
    patches.method(InProcessTransport, "forward", spanned("router.forward"))

    # repro.distributed.server
    patches.method(
        ShardServer,
        "handle",
        lambda fn: span(
            "server.handle",
            recorder.counting(
                "server.iam_entries", fn, measure=lambda reply: len(reply.iam)
            ),
        ),
    )

    # repro.distributed.coordinator
    patches.method(Coordinator, "split_gap_at", spanned("coordinator.split"))
    patches.method(Coordinator, "iam_for_key", spanned("coordinator.iam"))

    # repro.distributed.client and repro.core.image
    for name in ("get", "put", "insert"):
        patches.method(DistributedFile, name, spanned(f"client.{name}"))
    patches.method(
        DistributedFile,
        "range_items",
        lambda fn: span("client.scan", recorder.materialized("client.records", fn)),
    )
    patches.method(TrieImage, "patch", spanned("client.image_patch"))

    # repro.serving
    patches.method(RemoteTransport, "client_send", spanned("serving.client_send"))
    patches.method(
        AsyncClient, "request", lambda fn: recorder.async_span("serving.request", fn)
    )
    patches.method(ServingServer, "_decode_request", spanned("serving.decode_request"))
    patches.method(ServingServer, "_execute", spanned("serving.execute"))

    # repro.obs and repro.check.hook
    for cls, names in (
        (MetricsRegistry, ("counter", "gauge", "histogram")),
        (Counter, ("inc",)),
        (Gauge, ("set", "inc")),
        (Histogram, ("observe",)),
    ):
        for name in names:
            patches.method(cls, name, spanned("obs.registry"))
    patches.function(hook, "maybe_audit", spanned("check.audit"))


def merge_aggregates(first: dict, second: dict) -> dict:
    """Sum two :meth:`SpanRecorder.aggregate` results (two processes)."""
    spans = {name: list(row) for name, row in first["spans"].items()}
    for name, row in second["spans"].items():
        mine = spans.setdefault(name, [0, 0, 0])
        for i in range(3):
            mine[i] += row[i]
    counts = dict(first["counts"])
    for name, value in second["counts"].items():
        counts[name] = counts.get(name, 0) + value
    return {"spans": spans, "counts": counts, "root_ns": first["root_ns"]}


def layer_metrics(agg: dict, run: dict) -> dict[str, float]:
    """The per-layer metrics from span totals and run-level counts.

    ``run`` carries what the spans cannot: ``ops`` and ``mutations``
    issued by the benchmark, ``user_bytes`` they wrote, deltas of the
    program's own counters and of the :class:`StoreMeter` over the
    traced phase, the structure at its end, ``op_ns`` (the summed op
    latencies) and ``overhead_x``.
    """
    spans, counts = agg["spans"], agg["counts"]
    ops = max(run["ops"], 1)

    def calls(*names):
        return sum(spans.get(n, (0, 0, 0))[0] for n in names)

    def total_us(*names):
        return sum(spans.get(n, (0, 0, 0))[1] for n in names) / 1e3

    def self_us(*names):
        return sum(spans.get(n, (0, 0, 0))[2] for n in names) / 1e3

    def per(value, base):
        return value / base if base else 0.0

    mutations = calls("storage.mutation")
    codec = [name for name in spans if name.startswith("codec.")]
    user_bytes = run["user_bytes"]
    structure = run["structure"]
    requests = calls("serving.execute")
    return {
        "core.get_us": per(self_us("core.get"), calls("core.get")),
        "core.store_us": per(
            self_us("core.put", "core.insert"), calls("core.put", "core.insert")
        ),
        "core.scan_us_per_record": per(
            self_us("core.scan"), counts.get("core.scan_records", 0)
        ),
        "core.bucket_reads_per_get": per(
            counts.get("core.bucket_reads", 0), calls("core.get")
        ),
        "core.bucket_splits": 1000 * counts.get("core.bucket_splits", 0) / ops,
        "core.load_factor": per(
            structure["records"], structure["capacity"] * structure["buckets"]
        ),
        "core.trie_cells": structure["trie_cells"],
        "storage.mutation_us": per(self_us("storage.mutation"), mutations),
        "storage.checkpoint_us": per(
            self_us("storage.checkpoint"), calls("storage.checkpoint")
        ),
        "storage.checkpoints_per_1k_mutations": 1000
        * per(calls("storage.checkpoint"), mutations),
        "storage.fsyncs_per_mutation": per(run["fsyncs"], mutations),
        "storage.wal_bytes_per_user_byte": per(run["appended"], user_bytes),
        "storage.checkpoint_bytes_per_user_byte": per(run["rewritten"], user_bytes),
        "codec.encode_us": per(
            self_us("codec.encode_op", "codec.encode_reply"),
            calls("codec.encode_op", "codec.encode_reply"),
        ),
        "codec.decode_us": per(
            self_us("codec.decode_op", "codec.decode_reply"),
            calls("codec.decode_op", "codec.decode_reply"),
        ),
        "codec.op_bytes": per(
            counts.get("codec.op_bytes", 0), calls("codec.encode_op")
        ),
        "codec.reply_bytes": per(
            counts.get("codec.reply_bytes", 0), calls("codec.encode_reply")
        ),
        "codec.calls_per_op": calls(*codec) / ops,
        "router.self_us": self_us("router.client_send", "router.forward") / ops,
        "router.messages_per_op": run["messages"] / ops,
        "router.forwards_per_op": run["forwards"] / ops,
        "server.handle_us": per(self_us("server.handle"), calls("server.handle")),
        "server.iam_entries_per_reply": per(
            counts.get("server.iam_entries", 0), calls("server.handle")
        ),
        "coordinator.shard_splits": 1000 * calls("coordinator.split") / ops,
        "coordinator.split_us": per(
            total_us("coordinator.split"), calls("coordinator.split")
        ),
        "coordinator.iam_us": per(
            self_us("coordinator.iam"), calls("coordinator.iam")
        ),
        "client.self_us": self_us(
            "client.get", "client.put", "client.insert", "client.scan"
        )
        / ops,
        "client.image_patch_us": per(
            self_us("client.image_patch"), calls("client.image_patch")
        ),
        "client.iam_boundaries": run["iam_boundaries"],
        "client.convergence": run["convergence"],
        "client.retries": run["retries"],
        "serving.client_send_us": per(
            total_us("serving.client_send"), calls("serving.client_send")
        ),
        "serving.hop_us": per(
            self_us("serving.client_send"), calls("serving.client_send")
        ),
        "serving.request_us": per(
            total_us("serving.request"), calls("serving.request")
        ),
        "serving.server_handle_us": per(total_us("serving.execute"), requests),
        "serving.wire_us": max(
            0.0,
            per(self_us("serving.request"), calls("serving.request"))
            - per(total_us("serving.decode_request", "serving.execute"), requests),
        ),
        "serving.batches_per_op": run["batches"] / ops,
        "serving.grouped_batches_per_mutation": per(
            run["grouped_batches"], run["mutations"]
        ),
        "obs.registry_calls_per_op": calls("obs.registry") / ops,
        "obs.registry_us_per_op": self_us("obs.registry") / ops,
        "check.audit_calls_per_op": calls("check.audit") / ops,
        "check.audit_us_per_op": self_us("check.audit") / ops,
        "trace.overhead_x": run["overhead_x"],
        "trace.unattributed_us": max(0.0, run["op_ns"] - agg["root_ns"]) / 1e3 / ops,
    }
