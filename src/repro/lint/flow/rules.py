"""The interprocedural ruleset (``TH010``...``TH014``).

Each rule is a function over a linked :class:`~.graph.Program` — the
whole-program call graph — rather than a single parsed file, so it can
hold invariants that live across module boundaries: event-loop purity
through helper chains (TH010), wire-protocol exhaustiveness (TH011),
commit-path ordering (TH012), clock discipline under the fabric clock
(TH013) and paranoid-audit coverage (TH014). ``docs/STATIC_ANALYSIS.md``
documents the why, the resolution policy and the soundness caveats
behind every rule.

Rules register with :func:`flow_rule` into a registry separate from the
per-file one (:mod:`repro.lint.engine`); the flow engine runs them once
per program, not once per file.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass

from ..engine import LintViolation
from .graph import CallSite, FunctionNode, Program

__all__ = [
    "FlowRule",
    "all_flow_rules",
    "flow_rule",
]

#: Modules that are observational or tooling surfaces, not part of the
#: executable protocol: the flight recorder and tracer write files by
#: design, the linter, bench harness and CLI never run inside the event
#: loop or the fabric. Reachability traversals do not descend into them.
TOOLING_MODULES = (
    "repro.obs",
    "repro.lint",
    "repro.bench",
    "repro.analysis",
    "repro.cli",
)

FlowChecker = Callable[[Program], Iterable[LintViolation]]


@dataclass(frozen=True)
class FlowRule:
    """A registered whole-program rule."""

    code: str
    name: str
    description: str
    checker: FlowChecker


_REGISTRY: dict[str, FlowRule] = {}


def flow_rule(
    code: str, name: str, description: str
) -> Callable[[FlowChecker], FlowChecker]:
    """Register ``checker`` under ``code``; codes must be unique."""

    def decorate(checker: FlowChecker) -> FlowChecker:
        if code in _REGISTRY:
            raise ValueError(f"duplicate flow rule code {code}")
        _REGISTRY[code] = FlowRule(
            code=code, name=name, description=description, checker=checker
        )
        return checker

    return decorate


def all_flow_rules() -> list[FlowRule]:
    """Every registered flow rule, ordered by code."""
    return [_REGISTRY[code] for code in sorted(_REGISTRY)]


def _violation(
    code: str, node: FunctionNode, line: int, message: str
) -> LintViolation:
    return LintViolation(
        code=code, message=message, path=node.path, line=line
    )


def _render_chain(program: Program, parents: dict, qualname: str) -> str:
    chain = program.chain(parents, qualname)
    short = [q.split(".", 1)[-1] if q.count(".") > 1 else q for q in chain]
    return " -> ".join(short)


# ----------------------------------------------------------------------
# TH010 — transitive blocking calls under the serving event loop
# ----------------------------------------------------------------------
#: External callees that stall the event loop. ``open`` is the builtin;
#: the module-prefixed entries match resolved dotted targets, so module
#: aliasing (``import time as t``) never hides one.
_BLOCKING_EXTERNALS = {"time.sleep", "os.fsync", "os.fdatasync", "open"}
_BLOCKING_PREFIXES = ("socket.", "subprocess.")


def _is_blocking(target: str) -> bool:
    return target in _BLOCKING_EXTERNALS or target.startswith(
        _BLOCKING_PREFIXES
    )


@flow_rule(
    "TH010",
    "blocking-call-reachable-from-coroutine",
    "no blocking call reachable from a repro.serving coroutine "
    "(subsumes the retired per-file TH009)",
)
def check_blocking_reachability(program: Program) -> Iterator[LintViolation]:
    """The serving tier is one event loop per process: ``time.sleep``,
    a synchronous socket, or an ``os.fsync`` stalls every connection
    the loop multiplexes — whether it sits *in* the coroutine (TH009's
    old direct check) or three sync helpers down the call chain. The
    traversal follows widened attribute calls (``router.sleep`` may
    dispatch to any ``sleep`` method in the program), so the diagnostic
    chain names how the loop can reach the blocking site."""
    entries = [
        node.qualname
        for node in program.functions.values()
        if node.summary.is_async and node.module.startswith("repro.serving")
    ]
    if not entries:
        return
    parents = program.reachable(
        entries, follow_widened=True, skip_modules=TOOLING_MODULES
    )
    seen: set = set()
    for qualname in parents:
        node = program.functions[qualname]
        for index, site in enumerate(node.summary.calls):
            for target in node.externals[index]:
                if not _is_blocking(target):
                    continue
                key = (node.path, site.line, target)
                if key in seen:
                    continue
                seen.add(key)
                yield _violation(
                    "TH010",
                    node,
                    site.line,
                    f"blocking {target}() is reachable from the serving "
                    f"event loop via {_render_chain(program, parents, qualname)}",
                )


# ----------------------------------------------------------------------
# TH011 — wire-protocol exhaustiveness
# ----------------------------------------------------------------------
def _messages_module(program: Program):
    for name, summary in program.modules.items():
        if name.endswith(".messages") and "Op" in summary.classes:
            return summary
    return None


def _dispatch_entries(program: Program) -> list[str]:
    """The wire dispatch surface: shard dispatch + serving coroutines."""
    entries = []
    for node in program.functions.values():
        if (
            node.module.endswith(".server")
            and node.summary.cls is not None
            and node.summary.cls.endswith("Server")
            and node.summary.name in ("handle", "_dispatch")
        ):
            entries.append(node.qualname)
        elif node.summary.is_async and ".serving" in f".{node.module}":
            entries.append(node.qualname)
    return entries


@flow_rule(
    "TH011",
    "wire-protocol-exhaustiveness",
    "every op kind has dispatch + a constructor; every exception "
    "raisable from dispatch is registered in ERROR_CODES",
)
def check_wire_exhaustiveness(program: Program) -> Iterator[LintViolation]:
    """Three seams where the wire contract can silently rot:

    * an op kind added to ``messages.py`` but never tested for in any
      shard dispatch function serves only ``ProtocolError``;
    * a kind without an ``Op`` constructor classmethod cannot be built
      (or round-tripped) by clients at all;
    * an exception type raisable from code reachable off the dispatch
      surface that is not in ``ERROR_CODES`` (and has no registered
      ancestor other than the first-entry catch-all) degrades to the
      catch-all on the wire — the client re-raises the wrong type.

    Raise sites are collected over direct *and* widened edges; builtin
    raises are TH003's domain and are skipped here.
    """
    messages = _messages_module(program)
    if messages is not None:
        kinds = {
            name: value
            for name, value in messages.constants.items()
            if name.isupper()
        }
        covered: set = set()
        for node in program.functions.values():
            for tested in node.summary.kind_tests:
                resolved = program._resolve_export(tested)
                value = program.constant_value(resolved)
                if value is not None:
                    covered.add(value)
                    continue
                members = program.const_set_values(resolved)
                if members is not None:
                    covered.update(members)
        op_methods = set(messages.classes["Op"].methods)
        for name, value in sorted(kinds.items()):
            line = messages.const_lines.get(name, 1)
            anchor = FunctionNode(
                qualname=f"{messages.module}.{name}",
                module=messages.module,
                summary=None,  # type: ignore[arg-type]
                path=messages.path,
            )
            if value not in covered:
                yield _violation(
                    "TH011",
                    anchor,
                    line,
                    f"op kind {name} ({value!r}) has no dispatch handler: "
                    "no server dispatch tests `op.kind` against it",
                )
            if value not in op_methods:
                yield _violation(
                    "TH011",
                    anchor,
                    line,
                    f"op kind {name} ({value!r}) has no Op.{value}() "
                    "constructor, so clients cannot build or round-trip it",
                )

    registered = [
        program._resolve_export(entry)
        for entry in program.registry("ERROR_CODES")
    ]
    if not registered:
        return
    catch_all = registered[0]
    accepted = set(registered[1:])
    entries = _dispatch_entries(program)
    parents = program.reachable(
        entries, follow_widened=True, skip_modules=TOOLING_MODULES
    )
    seen: set = set()
    for qualname in parents:
        node = program.functions[qualname]
        for raised in node.summary.raises:
            klass = program._resolve_export(raised.name)
            if klass not in program.classes:
                continue  # builtin or unresolved: TH003's domain
            ancestry = program.ancestry(klass)
            if accepted.intersection(ancestry):
                continue
            key = (node.path, raised.line, klass)
            if key in seen:
                continue
            seen.add(key)
            short = klass.rsplit(".", 1)[-1]
            root = catch_all.rsplit(".", 1)[-1]
            yield _violation(
                "TH011",
                node,
                raised.line,
                f"{short} can cross the codec seam (reachable via "
                f"{_render_chain(program, parents, qualname)}) but is not "
                f"in ERROR_CODES — it would degrade to the {root} "
                "catch-all on the wire",
            )


# ----------------------------------------------------------------------
# TH012 — commit-ordering discipline
# ----------------------------------------------------------------------
_COMMIT_SCOPE = ("repro.storage", "repro.distributed", "repro.serving")


def _is_barrier(site: CallSite) -> bool:
    recv = site.recv.lower()
    if site.attr == "commit" and "wal" in recv:
        return True
    return site.attr in ("_commit_barrier", "group_commit")


def _is_wal_append(site: CallSite) -> bool:
    return site.attr == "append" and "wal" in site.recv.lower()


def _is_dedup_record(site: CallSite) -> bool:
    return site.attr == "record" and "dedup" in site.recv.lower()


def _is_ship(site: CallSite) -> bool:
    return site.attr in ("ship", "_publish")


def _is_reply_build(site: CallSite, program: Program) -> bool:
    if site.attr != "Reply":
        return False
    if site.form != "dotted":
        return True
    target = program._resolve_export(site.target)
    return target.endswith(".Reply") or target == "Reply"


@flow_rule(
    "TH012",
    "commit-ordering",
    "WAL fsync barriers precede dedup acks; appends reach a barrier; "
    "semisync ship precedes the reply",
)
def check_commit_ordering(program: Program) -> Iterator[LintViolation]:
    """The ack protocol's whole correctness argument is an ordering:
    *apply, log, fsync, then acknowledge*. Three per-function checks
    over the acyclic may-follow relation hold it in place:

    * a ``dedup.record(...)`` (the ack: the id enters the exactly-once
      window) that can run after a ``wal.append`` but before any fsync
      barrier acknowledges an operation that is not durable yet;
    * a ``wal.append`` with no barrier reachable after it (in a
      function that owns a barrier) can leave acknowledged bytes
      un-fsynced on some path;
    * in a function that both ships to a backup and builds a ``Reply``,
      a reply that runs after a mutation (a dedup record or WAL append)
      but without the ship preceding it breaks semisync's
      ship-before-ack promise. Replies on mutation-free paths (reads,
      dedup hits) legitimately skip the ship.

    Cross-function orderings (a barrier deferred to a caller's
    ``group_commit`` block) are out of scope by design — the deferring
    function simply owns no barrier and is skipped.
    """
    for node in program.functions.values():
        if not node.module.startswith(_COMMIT_SCOPE):
            continue
        calls = node.summary.calls
        order = {tuple(pair) for pair in node.summary.order}
        barriers = [i for i, s in enumerate(calls) if _is_barrier(s)]
        appends = [i for i, s in enumerate(calls) if _is_wal_append(s)]
        records = [i for i, s in enumerate(calls) if _is_dedup_record(s)]
        ships = [i for i, s in enumerate(calls) if _is_ship(s)]
        replies = [
            i for i, s in enumerate(calls) if _is_reply_build(s, program)
        ]
        for record in records:
            preceded_by_append = any(
                (append, record) in order for append in appends
            )
            preceded_by_barrier = any(
                (barrier, record) in order for barrier in barriers
            )
            if preceded_by_append and not preceded_by_barrier:
                yield _violation(
                    "TH012",
                    node,
                    calls[record].line,
                    f"{node.summary.qual}: dedup window records the request "
                    "id after a WAL append but before any fsync barrier — "
                    "the ack would precede durability",
                )
        if barriers:
            for append in appends:
                if not any(
                    (append, barrier) in order for barrier in barriers
                ):
                    yield _violation(
                        "TH012",
                        node,
                        calls[append].line,
                        f"{node.summary.qual}: WAL append has no fsync "
                        "barrier after it on any path — appended records "
                        "can stay un-fsynced past the acknowledgement",
                    )
        if ships and replies:
            for reply in replies:
                mutated_before = any(
                    (site, reply) in order for site in records + appends
                )
                if mutated_before and not any(
                    (ship, reply) in order for ship in ships
                ):
                    yield _violation(
                        "TH012",
                        node,
                        calls[reply].line,
                        f"{node.summary.qual}: reply is built before the "
                        "batch ships to the backup — semisync promises "
                        "ship-before-ack",
                    )


# ----------------------------------------------------------------------
# TH013 — clock discipline on the simulated fabric
# ----------------------------------------------------------------------
_WALLCLOCK_EXTERNALS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.date.today",
}

#: Entry modules that must run entirely on the fabric clock: fault
#: scheduling and chaos verdicts replay from a seed, so one wall-clock
#: read anywhere below them breaks bit-identical replay.
_FABRIC_ENTRY_MODULES = (
    "repro.distributed.chaos",
    "repro.distributed.faults",
    "repro.concurrency.simulator",
)

#: TH013 additionally prunes the serving tier: it is wall-clock land by
#: design (a real event loop) and unreachable from the fabric except
#: through name-widened calls on its sync facade.
_TH013_SKIP = TOOLING_MODULES + ("repro.serving",)


@flow_rule(
    "TH013",
    "wall-clock-on-the-fabric",
    "no wall-clock read reachable from simulation/chaos entry points",
)
def check_fabric_clock(program: Program) -> Iterator[LintViolation]:
    """TH001 bans wall-clock reads per file inside the deterministic
    layers; this closes the interprocedural gap — a chaos run that
    reaches ``time.monotonic()`` through a helper in an unscoped module
    replays differently on every machine. Entry points are the fault
    scheduler, the chaos harness and the concurrency simulator."""
    entries = [
        node.qualname
        for node in program.functions.values()
        if node.module.startswith(_FABRIC_ENTRY_MODULES)
    ]
    if not entries:
        return
    parents = program.reachable(
        entries, follow_widened=True, skip_modules=_TH013_SKIP
    )
    seen: set = set()
    for qualname in parents:
        node = program.functions[qualname]
        for index, site in enumerate(node.summary.calls):
            for target in node.externals[index]:
                if target not in _WALLCLOCK_EXTERNALS:
                    continue
                key = (node.path, site.line, target)
                if key in seen:
                    continue
                seen.add(key)
                yield _violation(
                    "TH013",
                    node,
                    site.line,
                    f"wall-clock {target}() is reachable from the "
                    "simulated fabric via "
                    f"{_render_chain(program, parents, qualname)}; replay "
                    "depends on the fabric clock only",
                )


# ----------------------------------------------------------------------
# TH014 — paranoid-audit coverage of mutating methods
# ----------------------------------------------------------------------
#: The mutating verbs of the storage vocabulary. A public method with
#: one of these names on an audited class is a mutation entry point.
_MUTATORS = {
    "insert",
    "put",
    "delete",
    "put_many",
    "patch",
    "record",
    "merge",
}


@flow_rule(
    "TH014",
    "unaudited-mutation",
    "public mutating methods on register_audit-ed classes route "
    "through maybe_audit",
)
def check_audit_coverage(program: Program) -> Iterator[LintViolation]:
    """``repro.check`` registers a structural audit for a class so that
    paranoid runs re-verify its invariants after *every* mutation. A
    public mutator that skips :func:`repro.check.maybe_audit` is a
    blind spot: paranoid chaos certifies a structure the mutation never
    re-checked. The hook must be reachable from the method through
    direct (non-widened) calls."""
    for class_qual in program.audited_classes():
        if class_qual not in program.classes:
            continue
        _module, klass = program.classes[class_qual]
        for method in klass.methods:
            if method.startswith("_") or method not in _MUTATORS:
                continue
            qualname = f"{class_qual}.{method}"
            node = program.functions.get(qualname)
            if node is None:
                continue
            parents = program.reachable([qualname], follow_widened=False)
            audited = any(
                any(
                    site.attr == "maybe_audit"
                    for site in program.functions[reached].summary.calls
                )
                for reached in parents
            )
            if not audited:
                yield _violation(
                    "TH014",
                    node,
                    node.summary.lineno,
                    f"{class_qual.rsplit('.', 1)[-1]}.{method}() mutates an "
                    "audited class without routing through maybe_audit — "
                    "paranoid runs cannot re-verify its invariants",
                )
