"""Whole-program model for ``repro.lint.flow``: summaries + call graph.

The flow engine parses every file once into a :class:`ModuleSummary` —
a JSON-serialisable digest of exactly what the interprocedural rules
need: the import map, classes and their bases, functions with their
call sites, raise sites, op-kind tests, and an intra-function
*may-follow* relation between call sites (a lightweight acyclic CFG).
Summaries are what the on-disk cache stores, keyed by content hash, so
a warm run never re-parses an unchanged file.

:class:`Program` links the summaries into a whole-program view: a
module import graph (with SCCs for cache accounting), a class index
with linearised ancestry, and a conservatively resolved call graph.

Resolution policy (the soundness contract rules rely on):

* A ``Name`` call resolves through module globals and the import map —
  across ``from x import y`` chains and package re-exports.
* ``self.m()`` / ``cls.m()`` resolves through the class's linearised
  ancestry **and** fans out to every override of ``m`` in known
  subclasses (virtual dispatch is over-approximated, never ignored).
* ``super().m()`` resolves through the enclosing class's bases: the
  first definition of ``m`` up their ancestry. A base outside the
  program gives no edge.
* A call on an unresolvable receiver *widens*: it may target every
  method of that name anywhere in the program. Rules choose whether to
  follow widened edges (:data:`CallSite.kind` is ``"widened"``).
* A call on a builtin container does not widen: a local whose every
  binding is a ``list``, ``dict``, ``set`` or ``bytearray`` display,
  comprehension, constructor or annotation, a ``self.`` attribute
  bound only that way in its owning class, or a name of the module
  itself bound only that way or to a ``contextvars.ContextVar`` (and
  not rebound by the function), calls no program code (``form`` is
  ``"builtin"``). Nor does a ``self.`` attribute its owning class does
  not bind when every class of its in-program ancestry that binds it
  binds it only that way (``form`` stays ``"attr"``, marked
  :data:`CallSite.on_self`, and the :class:`Program` gives it no edge);
  a class on the way down that rebinds it to anything else widens it.
* A call that resolves to nothing at all is *opaque* ("may call
  anything"); rules treat it per their own policy.
* A callable handed to ``loop.call_soon``, ``call_soon_threadsafe``,
  ``call_later`` or ``call_at`` is recorded as one more call site of
  the function that schedules it (:data:`CallSite.scheduled`), resolved
  like a call: it runs later, as an event-loop callback, so ordering
  rules must not read it as running where it is scheduled.

External calls (``time.sleep``, ``os.fsync``...) resolve to their full
dotted name via the import map, so aliasing a module never hides one.
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

__all__ = [
    "CallSite",
    "ClassSummary",
    "FunctionNode",
    "FunctionSummary",
    "ModuleSummary",
    "Program",
    "RaiseSite",
    "build_program",
    "module_name_of",
    "source_hash",
    "summarize_module",
    "summarize_source",
]

#: Bump whenever the summary layout changes (invalidates every cache).
SUMMARY_VERSION = 6

#: Loop methods that schedule a callback, and the position of the
#: callable among their arguments.
_SCHEDULERS = {
    "call_soon": 0,
    "call_soon_threadsafe": 0,
    "call_later": 1,
    "call_at": 1,
}


def source_hash(source: str) -> str:
    """Content hash used as the incremental-cache key."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def module_name_of(path: Path) -> str:
    """Dotted module name of ``path``, rooted at the ``repro`` package.

    Files outside any package root get their bare stem, so fixture
    trees in tests behave like a tiny standalone program.
    """
    parts = list(path.parts)
    name = path.stem
    if "repro" in parts:
        rel = parts[parts.index("repro"):-1]
    else:
        rel = []  # no package root: treat as a top-level module
    dotted = list(rel)
    if name != "__init__":
        dotted.append(name)
    return ".".join(dotted) if dotted else name


# ----------------------------------------------------------------------
# Summaries
# ----------------------------------------------------------------------
@dataclass
class CallSite:
    """One call expression inside a function body."""

    line: int
    col: int
    #: ``"dotted"`` (resolved to a dotted path), ``"self"`` (method on
    #: self/cls), ``"super"`` (method on ``super()``), ``"attr"``
    #: (attribute on an unknown receiver), ``"builtin"`` (method of a
    #: receiver bound only to a builtin container) or ``"opaque"`` (an
    #: unresolvable callee expression).
    form: str
    #: The terminal identifier being called (``sleep`` for
    #: ``time.sleep(...)``), for diagnostics and widening.
    attr: str
    #: Resolved dotted target for ``form == "dotted"`` (else ``""``).
    target: str = ""
    #: Receiver rendering for diagnostics (``self.file`` → ``file``).
    recv: str = ""
    #: True for a callable handed to a loop scheduler rather than
    #: called here (see :data:`_SCHEDULERS`).
    scheduled: bool = False
    #: True for an ``"attr"`` call on ``self.<recv>`` in a method: the
    #: receiver may be a container the class's bases bind.
    on_self: bool = False

    def as_dict(self) -> dict:
        return {
            "line": self.line,
            "col": self.col,
            "form": self.form,
            "attr": self.attr,
            "target": self.target,
            "recv": self.recv,
            "scheduled": self.scheduled,
            "on_self": self.on_self,
        }

    @classmethod
    def from_dict(cls, data: dict) -> CallSite:
        return cls(**data)


@dataclass
class RaiseSite:
    """One ``raise X(...)`` statement (re-raises are not recorded)."""

    line: int
    #: Dotted path of the raised class when resolvable through the
    #: import map (``repro.core.errors.StorageError``), else the bare
    #: name (builtins stay bare: ``ValueError``).
    name: str

    def as_dict(self) -> dict:
        return {"line": self.line, "name": self.name}

    @classmethod
    def from_dict(cls, data: dict) -> RaiseSite:
        return cls(**data)


@dataclass
class FunctionSummary:
    """Everything the rules need to know about one function."""

    qual: str  # "THFile.insert", "run_chaos", "outer.<locals>.inner"
    name: str
    cls: Optional[str]  # owning class name within the module
    is_async: bool
    lineno: int
    is_public: bool
    calls: list[CallSite] = field(default_factory=list)
    raises: list[RaiseSite] = field(default_factory=list)
    #: Names compared against an ``.kind`` attribute (op dispatch
    #: exhaustiveness): resolved dotted where possible.
    kind_tests: list[str] = field(default_factory=list)
    #: May-follow relation over ``calls`` indexes: ``[i, j]`` means the
    #: call at index ``j`` can execute after the one at ``i`` on some
    #: forward (acyclic) control path. Loop back edges are dropped —
    #: cross-iteration orderings are out of scope by design.
    order: list[list[int]] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "qual": self.qual,
            "name": self.name,
            "cls": self.cls,
            "is_async": self.is_async,
            "lineno": self.lineno,
            "is_public": self.is_public,
            "calls": [c.as_dict() for c in self.calls],
            "raises": [r.as_dict() for r in self.raises],
            "kind_tests": list(self.kind_tests),
            "order": [list(p) for p in self.order],
        }

    @classmethod
    def from_dict(cls, data: dict) -> FunctionSummary:
        return cls(
            qual=data["qual"],
            name=data["name"],
            cls=data["cls"],
            is_async=data["is_async"],
            lineno=data["lineno"],
            is_public=data["is_public"],
            calls=[CallSite.from_dict(c) for c in data["calls"]],
            raises=[RaiseSite.from_dict(r) for r in data["raises"]],
            kind_tests=list(data["kind_tests"]),
            order=[list(p) for p in data["order"]],
        )


@dataclass
class ClassSummary:
    """One class definition: bases (resolved dotted), method names, and
    the ``self.`` attributes it binds."""

    name: str
    bases: list[str] = field(default_factory=list)
    methods: list[str] = field(default_factory=list)
    #: Attributes the class binds only to builtin containers.
    container_attrs: list[str] = field(default_factory=list)
    #: Attributes the class binds to anything else at least once.
    other_attrs: list[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "bases": list(self.bases),
            "methods": list(self.methods),
            "container_attrs": list(self.container_attrs),
            "other_attrs": list(self.other_attrs),
        }

    @classmethod
    def from_dict(cls, data: dict) -> ClassSummary:
        return cls(
            name=data["name"],
            bases=list(data["bases"]),
            methods=list(data["methods"]),
            container_attrs=list(data["container_attrs"]),
            other_attrs=list(data["other_attrs"]),
        )


@dataclass
class ModuleSummary:
    """The cached, JSON-serialisable digest of one source file."""

    module: str
    path: str
    sha: str
    imports: dict = field(default_factory=dict)  # local name -> dotted
    functions: dict = field(default_factory=dict)  # qual -> FunctionSummary
    classes: dict = field(default_factory=dict)  # name -> ClassSummary
    constants: dict = field(default_factory=dict)  # NAME -> str value
    const_lines: dict = field(default_factory=dict)  # NAME -> def line
    const_sets: dict = field(default_factory=dict)  # NAME -> [values]
    #: Registries the rules read: dict-literal assignments whose values
    #: are classes (``ERROR_CODES``), resolved to dotted class paths.
    registries: dict = field(default_factory=dict)
    #: ``register_audit("pkg.Class")`` targets seen in this module.
    audit_regs: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "version": SUMMARY_VERSION,
            "module": self.module,
            "path": self.path,
            "sha": self.sha,
            "imports": dict(self.imports),
            "functions": {
                qual: fn.as_dict() for qual, fn in self.functions.items()
            },
            "classes": {
                name: c.as_dict() for name, c in self.classes.items()
            },
            "constants": dict(self.constants),
            "const_lines": dict(self.const_lines),
            "const_sets": {k: list(v) for k, v in self.const_sets.items()},
            "registries": {k: list(v) for k, v in self.registries.items()},
            "audit_regs": list(self.audit_regs),
        }

    @classmethod
    def from_dict(cls, data: dict) -> ModuleSummary:
        return cls(
            module=data["module"],
            path=data["path"],
            sha=data["sha"],
            imports=dict(data["imports"]),
            functions={
                qual: FunctionSummary.from_dict(fn)
                for qual, fn in data["functions"].items()
            },
            classes={
                name: ClassSummary.from_dict(c)
                for name, c in data["classes"].items()
            },
            constants=dict(data["constants"]),
            const_lines=dict(data["const_lines"]),
            const_sets={k: list(v) for k, v in data["const_sets"].items()},
            registries={k: list(v) for k, v in data["registries"].items()},
            audit_regs=list(data["audit_regs"]),
        )


# ----------------------------------------------------------------------
# Summary extraction
# ----------------------------------------------------------------------
def _terminal_name(node: ast.AST) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


def _dotted(node: ast.AST) -> Optional[str]:
    """Render a Name/Attribute chain as ``a.b.c`` (None when not one)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _resolve_relative(module: str, level: int, target: Optional[str]) -> str:
    """Absolute module named by a ``from ...target import`` statement."""
    base = module.split(".")
    # level 1 = current package; the module's own name is not a package
    # unless it is an __init__, which module_name_of already collapsed.
    anchor = base[: len(base) - level] if level <= len(base) else []
    if target:
        anchor = anchor + target.split(".")
    return ".".join(anchor)


class _ImportMap:
    """Local name -> absolute dotted path for one module."""

    def __init__(self, module: str):
        self.module = module
        self.names: dict[str, str] = {}

    def add_import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            target = alias.name if alias.asname else alias.name.split(".")[0]
            self.names[local] = target

    def add_import_from(self, node: ast.ImportFrom) -> None:
        source = (
            _resolve_relative(self.module, node.level, node.module)
            if node.level
            else (node.module or "")
        )
        for alias in node.names:
            local = alias.asname or alias.name
            self.names[local] = (
                f"{source}.{alias.name}" if source else alias.name
            )

    def resolve(self, name: str) -> Optional[str]:
        """Absolute path of ``name`` or a dotted chain rooted at one."""
        head, _, rest = name.partition(".")
        target = self.names.get(head)
        if target is None:
            return None
        return f"{target}.{rest}" if rest else target


class _OrderCFG:
    """Acyclic may-follow relation between a function's call sites.

    Each statement is a node holding the call-site indexes it contains;
    edges follow forward control flow: branch suites of an ``if`` (or
    ``try`` handlers) are alternatives, loop bodies run after their
    header (no back edge), ``return``/``raise``/``break``/``continue``
    terminate their path. The relation is the transitive closure of
    "statement B is reachable from statement A", restricted to call
    sites.
    """

    def __init__(self) -> None:
        self.nodes: list[list[int]] = []  # node -> call indexes
        self.edges: list[set] = []

    def _new_node(self, calls: list[int]) -> int:
        self.nodes.append(calls)
        self.edges.append(set())
        return len(self.nodes) - 1

    def _link(self, sources: list[int], target: int) -> None:
        for source in sources:
            self.edges[source].add(target)

    def build_block(
        self, stmts: list, entries: list[int], call_index: dict
    ) -> list[int]:
        """Wire ``stmts`` after ``entries``; returns the exit frontier."""
        frontier = entries
        for stmt in stmts:
            frontier = self._build_stmt(stmt, frontier, call_index)
            if not frontier:
                break  # everything below is unreachable
        return frontier

    def _calls_in(self, node: ast.AST, call_index: dict) -> list[int]:
        found = []
        for child in ast.walk(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # nested defs are their own functions
            key = id(child)
            if key in call_index:
                found.append(call_index[key])
        return found

    def _build_stmt(
        self, stmt: ast.stmt, entries: list[int], call_index: dict
    ) -> list[int]:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return entries
        if isinstance(stmt, ast.If):
            head = self._new_node(self._calls_in(stmt.test, call_index))
            self._link(entries, head)
            then_exit = self.build_block(stmt.body, [head], call_index)
            else_exit = (
                self.build_block(stmt.orelse, [head], call_index)
                if stmt.orelse
                else [head]
            )
            return then_exit + else_exit
        if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            test = stmt.iter if isinstance(stmt, (ast.For, ast.AsyncFor)) else stmt.test
            head = self._new_node(self._calls_in(test, call_index))
            self._link(entries, head)
            body_exit = self.build_block(stmt.body, [head], call_index)
            else_exit = (
                self.build_block(stmt.orelse, [head], call_index)
                if stmt.orelse
                else []
            )
            # No back edge: the loop may also run zero times (head).
            return [head] + body_exit + else_exit
        if isinstance(stmt, ast.Try):
            body_exit = self.build_block(stmt.body, entries, call_index)
            exits: list[int] = []
            for handler in stmt.handlers:
                # A handler may fire after any prefix of the body.
                handler_entry = self._new_node(
                    self._calls_in(handler.type, call_index)
                    if handler.type is not None
                    else []
                )
                self._link(entries + body_exit, handler_entry)
                exits += self.build_block(
                    handler.body, [handler_entry], call_index
                )
            else_exit = (
                self.build_block(stmt.orelse, body_exit, call_index)
                if stmt.orelse
                else body_exit
            )
            exits += else_exit
            if stmt.finalbody:
                return self.build_block(stmt.finalbody, exits, call_index)
            return exits
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            head_calls: list[int] = []
            for item in stmt.items:
                head_calls += self._calls_in(item.context_expr, call_index)
            head = self._new_node(head_calls)
            self._link(entries, head)
            return self.build_block(stmt.body, [head], call_index)
        # Simple statement: one node with every call it contains.
        node = self._new_node(self._calls_in(stmt, call_index))
        self._link(entries, node)
        if isinstance(stmt, (ast.Return, ast.Raise, ast.Break, ast.Continue)):
            return []
        return [node]

    def may_follow_pairs(self) -> list[list[int]]:
        """``[i, j]`` call-index pairs where j can run after i."""
        count = len(self.nodes)
        reach: list[set] = [set() for _ in range(count)]
        for node in range(count - 1, -1, -1):
            for successor in self.edges[node]:
                reach[node].add(successor)
                reach[node] |= reach[successor]
        pairs = []
        for node in range(count):
            # Calls within one statement: source order approximates
            # evaluation order (good enough for diagnostics).
            calls = self.nodes[node]
            for i_pos, i in enumerate(calls):
                for j in calls[i_pos + 1:]:
                    pairs.append([i, j])
            later: set = set()
            for successor in reach[node]:
                later.update(self.nodes[successor])
            for i in calls:
                for j in sorted(later):
                    pairs.append([i, j])
        seen = set()
        unique = []
        for i, j in pairs:
            if (i, j) not in seen:
                seen.add((i, j))
                unique.append([i, j])
        return unique


class _FunctionExtractor:
    """Pulls one FunctionSummary out of a (async) function definition."""

    def __init__(
        self,
        module: str,
        imports: _ImportMap,
        local_symbols: set,
        qual: str,
        cls: Optional[str],
        node,
        container_attrs: frozenset = frozenset(),
        module_containers: frozenset = frozenset(),
    ):
        self.module = module
        self.imports = imports
        self.local_symbols = local_symbols
        self.qual = qual
        self.cls = cls
        self.node = node
        #: ``self.`` attributes its class binds only to builtin containers.
        self.container_attrs = container_attrs
        #: Locals bound only to builtin containers, and the module's own
        #: container names this function and its enclosers do not bind.
        self.containers = (
            _local_containers(node, _shadows(imports, local_symbols))
            | module_containers
        )
        #: Names of functions nested directly inside this one.
        self.nested: set = {
            child.name
            for child in ast.iter_child_nodes(node)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        }

    def extract(self) -> FunctionSummary:
        node = self.node
        summary = FunctionSummary(
            qual=self.qual,
            name=node.name,
            cls=self.cls,
            is_async=isinstance(node, ast.AsyncFunctionDef),
            lineno=node.lineno,
            is_public=not node.name.startswith("_"),
        )
        call_index: dict = {}
        for child in _walk_own(node):
            if isinstance(child, ast.Call):
                call_index[id(child)] = len(summary.calls)
                summary.calls.append(self._classify(child.func, child))
                callback = _scheduled_callable(child)
                if callback is not None:
                    call_index[id(callback)] = len(summary.calls)
                    site = self._classify(callback, callback)
                    site.scheduled = True
                    summary.calls.append(site)
            elif isinstance(child, ast.Raise) and child.exc is not None:
                name = self._raise_name(child.exc)
                if name:
                    summary.raises.append(
                        RaiseSite(line=child.lineno, name=name)
                    )
            elif isinstance(child, ast.Compare):
                summary.kind_tests.extend(self._kind_tests(child))
        cfg = _OrderCFG()
        entry = cfg._new_node([])
        cfg.build_block(node.body, [entry], call_index)
        summary.order = cfg.may_follow_pairs()
        return summary

    def _classify(self, func: ast.AST, where: ast.AST) -> CallSite:
        """The call site of callee expression ``func``, located at ``where``."""
        line, col = where.lineno, where.col_offset
        if isinstance(func, ast.Name):
            name = func.id
            if name in self.nested:
                return CallSite(
                    line, col, "dotted", name,
                    target=f"{self.module}.{self.qual}.<locals>.{name}",
                )
            if name in self.local_symbols:
                return CallSite(
                    line, col, "dotted", name,
                    target=f"{self.module}.{name}",
                )
            resolved = self.imports.resolve(name)
            if resolved is not None:
                return CallSite(line, col, "dotted", name, target=resolved)
            if name == "open":
                return CallSite(line, col, "dotted", name, target="open")
            return CallSite(line, col, "opaque", name)
        if isinstance(func, ast.Attribute):
            attr = func.attr
            owner = func.value
            if isinstance(owner, ast.Name) and owner.id in self.containers:
                return CallSite(line, col, "builtin", attr, recv=owner.id)
            if (
                isinstance(owner, ast.Attribute)
                and isinstance(owner.value, ast.Name)
                and owner.value.id == "self"
                and owner.attr in self.container_attrs
            ):
                return CallSite(line, col, "builtin", attr, recv=owner.attr)
            if isinstance(owner, ast.Name):
                if owner.id in ("self", "cls") and self.cls is not None:
                    return CallSite(line, col, "self", attr, recv=owner.id)
                if owner.id in self.local_symbols:
                    return CallSite(
                        line, col, "dotted", attr,
                        target=f"{self.module}.{owner.id}.{attr}",
                        recv=owner.id,
                    )
                resolved = self.imports.resolve(f"{owner.id}.{attr}")
                if resolved is not None:
                    return CallSite(
                        line, col, "dotted", attr,
                        target=resolved, recv=owner.id,
                    )
                return CallSite(line, col, "attr", attr, recv=owner.id)
            if (
                isinstance(owner, ast.Call)
                and isinstance(owner.func, ast.Name)
                and owner.func.id == "super"
                and self.cls is not None
            ):
                return CallSite(line, col, "super", attr, recv="super()")
            dotted = _dotted(func)
            if dotted is not None:
                resolved = self.imports.resolve(dotted)
                if resolved is not None:
                    return CallSite(
                        line, col, "dotted", attr,
                        target=resolved, recv=dotted.rsplit(".", 1)[0],
                    )
            return CallSite(
                line, col, "attr", attr, recv=_terminal_name(owner),
                on_self=self.cls is not None and _self_attribute(owner) is not None,
            )
        return CallSite(line, col, "opaque", "")

    def _raise_name(self, exc: ast.AST) -> Optional[str]:
        target = exc.func if isinstance(exc, ast.Call) else exc
        dotted = _dotted(target)
        if dotted is None:
            return None
        if dotted.split(".")[0] in self.local_symbols:
            return f"{self.module}.{dotted}"
        resolved = self.imports.resolve(dotted)
        return resolved if resolved is not None else dotted

    def _kind_tests(self, node: ast.Compare) -> list[str]:
        """Names compared with ``<x>.kind`` (op dispatch tests)."""
        operands = [node.left] + list(node.comparators)
        if not any(
            isinstance(op, ast.Attribute) and op.attr == "kind"
            for op in operands
        ):
            return []
        found = []
        for operand in operands:
            dotted = _dotted(operand)
            if dotted is None or dotted.endswith(".kind"):
                continue
            if dotted.split(".")[0] in self.local_symbols:
                found.append(f"{self.module}.{dotted}")
            else:
                found.append(self.imports.resolve(dotted) or dotted)
        return found


def _walk_own(root):
    """Walk the body without descending into nested functions."""
    stack = list(ast.iter_child_nodes(root))
    while stack:
        child = stack.pop()
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield child
        stack.extend(ast.iter_child_nodes(child))


def _scheduled_callable(call: ast.Call) -> Optional[ast.AST]:
    """The callable ``call`` hands to a loop scheduler, when ``call`` is
    one and the callable is a plain name or attribute reference."""
    func = call.func
    if not isinstance(func, ast.Attribute) or func.attr not in _SCHEDULERS:
        return None
    position = _SCHEDULERS[func.attr]
    if len(call.args) <= position:
        return None
    callback = call.args[position]
    return callback if isinstance(callback, (ast.Name, ast.Attribute)) else None


# ----------------------------------------------------------------------
# Builtin containers: receivers whose method calls reach no program code
# ----------------------------------------------------------------------
_CONTAINER_TYPES = frozenset({"list", "dict", "set", "bytearray"})
_CONTAINER_DISPLAYS = (
    ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp
)


def _shadows(imports: _ImportMap, local_symbols: set) -> frozenset:
    """Module names that hide a builtin (``from x import list``)."""
    return frozenset(imports.names) | frozenset(local_symbols)


def _names_container(annotation: Optional[ast.AST], shadows: frozenset) -> bool:
    """True for ``list``, ``dict[str, int]`` and the like."""
    if isinstance(annotation, ast.Subscript):
        annotation = annotation.value
    return (
        isinstance(annotation, ast.Name)
        and annotation.id in _CONTAINER_TYPES
        and annotation.id not in shadows
    )


def _makes_container(value: Optional[ast.AST], shadows: frozenset) -> bool:
    """True for a container display or comprehension, or ``list(...)``."""
    return isinstance(value, _CONTAINER_DISPLAYS) or (
        isinstance(value, ast.Call) and _names_container(value.func, shadows)
    )


def _bindings(node: ast.AST, shadows: frozenset, makes=_makes_container) -> list:
    """``(target, binds a builtin container)`` for each target an
    ``Assign`` / ``AnnAssign`` stores to; a parallel assignment
    (``a, b = x, []``) is judged element by element. ``makes`` judges
    an assigned value."""
    if isinstance(node, ast.AnnAssign):
        shaped = _names_container(node.annotation, shadows) or makes(
            node.value, shadows
        )
        return [(node.target, shaped)]
    pairs = []
    for target in node.targets:
        value = node.value
        if (
            isinstance(target, (ast.Tuple, ast.List))
            and isinstance(value, (ast.Tuple, ast.List))
            and len(target.elts) == len(value.elts)
            and not any(
                isinstance(e, ast.Starred) for e in (*target.elts, *value.elts)
            )
        ):
            pairs += [
                (elt, makes(part, shadows))
                for elt, part in zip(target.elts, value.elts)
            ]
        else:
            pairs.append((target, makes(value, shadows)))
    return pairs


def _container_stores(
    nodes, name_of, shadows: frozenset, makes=_makes_container
) -> tuple:
    """``(good, bad)``: the names of the store targets among ``nodes``
    (walked parents first) bound to a builtin container, and those bound
    otherwise. ``name_of`` names a target, or gives ``None`` for one
    that does not count; ``makes`` judges an assigned value. An
    augmented assignment keeps a container's type."""
    good: set = set()
    bad: set = set()
    judged: set = set()
    for node in nodes:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target, shaped in _bindings(node, shadows, makes):
                judged.add(id(target))
                name = name_of(target)
                if name is not None:
                    (good if shaped else bad).add(name)
        elif isinstance(node, ast.AugAssign):
            judged.add(id(node.target))
        elif isinstance(getattr(node, "ctx", None), ast.Store):
            name = name_of(node)
            if name is not None and id(node) not in judged:
                bad.add(name)
    return good, bad


def _name_id(node: ast.AST) -> Optional[str]:
    return node.id if isinstance(node, ast.Name) else None


def _self_attribute(node: ast.AST) -> Optional[str]:
    """``name`` for a ``self.name`` target."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _parameters(fn: ast.AST) -> tuple:
    """Every ``ast.arg`` of a function or lambda."""
    args = fn.args
    return tuple(
        a
        for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                  args.vararg, args.kwarg)
        if a is not None
    )


def _bound_in(scope: ast.AST) -> set:
    """Every name a nested def, lambda or class binds: its own name,
    its parameters, and every name stored anywhere inside it."""
    names = {
        node.id
        for node in ast.walk(scope)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
    }
    if not isinstance(scope, ast.Lambda):
        names.add(scope.name)
    if not isinstance(scope, ast.ClassDef):
        names.update(a.arg for a in _parameters(scope))
    return names


def _local_containers(fn: ast.AST, shadows: frozenset) -> frozenset:
    """The locals of ``fn`` whose every binding is a builtin container.

    The bindings are read from the nodes the call sites are read from
    (:func:`_walk_own`). A binding is a parameter (counted when
    annotated as a container), an ``Assign`` or ``AnnAssign`` target
    (counted for a container display, constructor or annotation; see
    :func:`_bindings`), or anything else that stores the name (a loop or
    ``with`` target, an unpacking, an import...), which disqualifies it.
    So does any binding of the name in a nested def, lambda or class:
    there it may be another variable, or this one rebound through
    ``nonlocal``.
    """
    args = fn.args
    named = (*args.posonlyargs, *args.args, *args.kwonlyargs)
    good = {a.arg for a in named if _names_container(a.annotation, shadows)}
    bad = {a.arg for a in _parameters(fn)}
    own = list(_walk_own(fn))
    stored, other = _container_stores(own, _name_id, shadows)
    for node in own:
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            other.update(node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            other.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            other.add(node.name)
    for node in ast.walk(fn):
        if node is not fn and isinstance(
            node,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef),
        ):
            other.update(_bound_in(node))
    return frozenset((good | stored) - (bad - good) - other)


def _attribute_containers(klass: ast.ClassDef, shadows: frozenset) -> tuple:
    """``(containers, others)``: the ``self.`` attributes ``klass`` binds
    only to builtin containers, and those it binds otherwise.

    Counted as a container: every store of ``self.<name>`` in the
    class's methods is an ``Assign`` or ``AnnAssign`` of a container
    display, constructor or annotation, and a class-body declaration of
    the name, if any, is one too. Bindings made outside the class (a
    subclass, another object) are not seen here; the :class:`Program`
    reads a class's bases through their own summaries.
    """
    declared = [s for s in klass.body if isinstance(s, (ast.Assign, ast.AnnAssign))]
    good, bad = _container_stores(declared, _name_id, shadows)
    methods = [
        node
        for stmt in klass.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(stmt)
    ]
    stored, other = _container_stores(methods, _self_attribute, shadows)
    return frozenset((good | stored) - bad - other), frozenset(bad | other)


def _is_context_var(value: Optional[ast.AST], imports: _ImportMap) -> bool:
    """True for a ``contextvars.ContextVar(...)`` call."""
    return (
        isinstance(value, ast.Call)
        and imports.resolve(_dotted(value.func) or "") == "contextvars.ContextVar"
    )


def _module_containers(
    tree: ast.Module, imports: _ImportMap, shadows: frozenset
) -> frozenset:
    """The module's own names whose every binding is a builtin container
    (as for a local) or a ``contextvars.ContextVar``, and that no
    function rebinds through ``global``. Their methods run no program
    code. The bindings read are the module-level statements, nested
    blocks included, but not function or class bodies."""
    nodes = []
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        nodes.append(node)
        stack.extend(ast.iter_child_nodes(node))

    def makes(value: Optional[ast.AST], shadows: frozenset) -> bool:
        return _makes_container(value, shadows) or _is_context_var(value, imports)

    good, bad = _container_stores(nodes, _name_id, shadows, makes)
    for node in nodes:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bad.update((a.asname or a.name).split(".")[0] for a in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            bad.update(node.names)
    return frozenset(good - bad)


def _locally_bound(fn: ast.AST) -> set:
    """Every name ``fn`` or a scope nested in it binds: parameters,
    stores, imports, exception names, nested definitions, and the names
    declared global or nonlocal."""
    bound = {a.arg for a in _parameters(fn)}
    for node in ast.walk(fn):
        if node is fn:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            bound.update(node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        elif isinstance(
            node,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef),
        ):
            bound.update(_bound_in(node))
    return bound


def summarize_source(source: str, path: Path, module: str) -> ModuleSummary:
    """Digest one parsed file into its :class:`ModuleSummary`."""
    tree = ast.parse(source, filename=str(path))
    imports = _ImportMap(module)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imports.add_import(node)
        elif isinstance(node, ast.ImportFrom):
            imports.add_import_from(node)

    summary = ModuleSummary(
        module=module, path=str(path), sha=source_hash(source)
    )
    summary.imports = dict(imports.names)

    local_symbols: set = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            local_symbols.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    local_symbols.add(target.id)

    module_containers = _module_containers(
        tree, imports, _shadows(imports, local_symbols)
    )

    def extract_function(
        node,
        qual: str,
        cls: Optional[str],
        containers: frozenset,
        outer: frozenset = module_containers,
    ) -> None:
        # A name the function (or an enclosing one) binds is not the
        # module's any more.
        visible = outer - _locally_bound(node)
        extractor = _FunctionExtractor(
            module, imports, local_symbols, qual, cls, node, containers, visible
        )
        summary.functions[qual] = extractor.extract()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                extract_function(
                    child, f"{qual}.<locals>.{child.name}", cls, containers,
                    visible,
                )

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            extract_function(node, node.name, None, frozenset())
        elif isinstance(node, ast.ClassDef):
            bases = []
            for base in node.bases:
                dotted = _dotted(base)
                if dotted is None:
                    continue
                if dotted.split(".")[0] in local_symbols:
                    bases.append(f"{module}.{dotted}")
                else:
                    bases.append(imports.resolve(dotted) or dotted)
            containers, others = _attribute_containers(
                node, _shadows(imports, local_symbols)
            )
            klass = ClassSummary(
                name=node.name,
                bases=bases,
                container_attrs=sorted(containers),
                other_attrs=sorted(others),
            )
            summary.classes[node.name] = klass
            for child in node.body:
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    klass.methods.append(child.name)
                    extract_function(
                        child, f"{node.name}.{child.name}", node.name,
                        containers,
                    )

    _collect_module_data(tree, summary, imports, local_symbols)
    return summary


def _collect_module_data(
    tree: ast.Module,
    summary: ModuleSummary,
    imports: _ImportMap,
    local_symbols: set,
) -> None:
    """Constants, const sets, class registries and audit registrations."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            value = node.value
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            if value is None or not names:
                continue
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                for name in names:
                    summary.constants[name] = value.value
                    summary.const_lines[name] = node.lineno
            elif (
                isinstance(value, ast.Call)
                and _terminal_name(value.func) in ("frozenset", "set")
                and value.args
                and isinstance(value.args[0], ast.Set)
            ):
                members = _set_members(value.args[0])
                for name in names:
                    summary.const_sets[name] = members
            elif isinstance(value, ast.Set):
                members = _set_members(value)
                for name in names:
                    summary.const_sets[name] = members
            elif isinstance(value, ast.Dict):
                entries = []
                for entry in value.values:
                    dotted = _dotted(entry)
                    if dotted is None:
                        continue
                    if dotted.split(".")[0] in local_symbols:
                        entries.append(f"{summary.module}.{dotted}")
                    else:
                        entries.append(imports.resolve(dotted) or dotted)
                if entries:
                    for name in names:
                        summary.registries[name] = entries
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and _terminal_name(node.func) == "register_audit"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            summary.audit_regs.append(node.args[0].value)


def _set_members(node: ast.Set) -> list[str]:
    members = []
    for element in node.elts:
        if isinstance(element, ast.Constant) and isinstance(element.value, str):
            members.append(element.value)
        elif isinstance(element, ast.Name):
            members.append(element.id)
    return members


def summarize_module(path: Path) -> ModuleSummary:
    source = path.read_text(encoding="utf-8")
    return summarize_source(source, path, module_name_of(path))


# ----------------------------------------------------------------------
# Program: summaries linked into a call graph
# ----------------------------------------------------------------------
@dataclass
class FunctionNode:
    """One function in the whole-program graph."""

    qualname: str  # "repro.core.file.THFile.insert"
    module: str
    summary: FunctionSummary
    path: str
    #: Resolved edges per call index: list of target qualnames.
    edges: list = field(default_factory=list)
    #: Widened edges per call index (followed only by opt-in rules).
    widened: list = field(default_factory=list)
    #: External callees per call index (dotted, e.g. "time.sleep").
    externals: list = field(default_factory=list)


class Program:
    """The linked whole-program view the flow rules run on."""

    def __init__(self, summaries: dict):
        #: module name -> ModuleSummary
        self.modules: dict[str, ModuleSummary] = dict(summaries)
        #: function qualname -> FunctionNode
        self.functions: dict[str, FunctionNode] = {}
        #: class qualname -> (module, ClassSummary)
        self.classes: dict[str, tuple[str, ClassSummary]] = {}
        #: method name -> [function qualnames] (the widening index)
        self.methods_by_name: dict[str, list[str]] = {}
        self.subclasses: dict[str, list[str]] = {}
        self._link()

    # -- assembly ------------------------------------------------------
    def _link(self) -> None:
        for module, summary in self.modules.items():
            for name, klass in summary.classes.items():
                self.classes[f"{module}.{name}"] = (module, klass)
            for qual, fn in summary.functions.items():
                node = FunctionNode(
                    qualname=f"{module}.{qual}",
                    module=module,
                    summary=fn,
                    path=summary.path,
                )
                self.functions[node.qualname] = node
                if fn.cls is not None and "<locals>" not in qual:
                    self.methods_by_name.setdefault(fn.name, []).append(
                        node.qualname
                    )
        for class_qual, (_module, klass) in self.classes.items():
            for base in klass.bases:
                resolved = self._resolve_export(base)
                if resolved in self.classes:
                    self.subclasses.setdefault(resolved, []).append(class_qual)
        for node in self.functions.values():
            self._resolve_function(node)

    def _resolve_export(self, dotted: str) -> str:
        """Follow package re-exports (``repro.check.maybe_audit`` ...)."""
        seen = set()
        current = dotted
        while current not in self.functions and current not in self.classes:
            if current in seen or "." not in current:
                break
            seen.add(current)
            package, _, name = current.rpartition(".")
            summary = self.modules.get(package)
            if summary is None:
                break
            retarget = summary.imports.get(name)
            if retarget is None:
                break
            current = retarget
        return current

    def ancestry(self, class_qual: str) -> list[str]:
        """Linearised ancestor walk of a class (self first, no C3)."""
        out: list[str] = []
        queue = [class_qual]
        while queue:
            current = queue.pop(0)
            if current in out or current not in self.classes:
                continue
            out.append(current)
            _module, klass = self.classes[current]
            queue.extend(self._resolve_export(b) for b in klass.bases)
        return out

    def method_on(self, class_qual: str, name: str) -> Optional[str]:
        """Most-derived definition of ``name`` on ``class_qual``."""
        for ancestor in self.ancestry(class_qual):
            candidate = f"{ancestor}.{name}"
            if candidate in self.functions:
                return candidate
        return None

    def _override_targets(self, class_qual: str, name: str) -> list[str]:
        """The method plus every override in known subclasses."""
        targets = []
        base = self.method_on(class_qual, name)
        if base is not None:
            targets.append(base)
        stack = list(self.subclasses.get(class_qual, []))
        seen = set()
        while stack:
            sub = stack.pop()
            if sub in seen:
                continue
            seen.add(sub)
            candidate = f"{sub}.{name}"
            if candidate in self.functions and candidate not in targets:
                targets.append(candidate)
            stack.extend(self.subclasses.get(sub, []))
        return targets

    def _resolve_function(self, node: FunctionNode) -> None:
        for site in node.summary.calls:
            direct: list[str] = []
            widened: list[str] = []
            externals: list[str] = []
            if site.form == "dotted":
                target = self._resolve_export(site.target)
                if target in self.functions:
                    direct.append(target)
                elif target in self.classes:
                    init = self.method_on(target, "__init__")
                    if init is not None:
                        direct.append(init)
                elif target.rpartition(".")[0] in self.classes:
                    owner, _, attr = target.rpartition(".")
                    method = self.method_on(owner, attr)
                    if method is not None:
                        direct.extend(self._override_targets(owner, attr))
                elif not target.startswith(self._internal_roots()):
                    externals.append(target)
                else:
                    # Internal but unresolvable (re-export of an object,
                    # attribute constant...): widen by terminal name.
                    widened.extend(self.methods_by_name.get(site.attr, []))
            elif site.form == "self":
                owner = self._owning_class(node)
                if owner is not None:
                    targets = self._override_targets(owner, site.attr)
                    if targets:
                        direct.extend(targets)
                    else:
                        widened.extend(
                            self.methods_by_name.get(site.attr, [])
                        )
            elif site.form == "super":
                owner = self._owning_class(node)
                if owner is not None:
                    direct.extend(self._super_targets(owner, site.attr))
            elif site.form == "attr":
                owner = self._owning_class(node) if site.on_self else None
                if owner is None or not self._inherited_container(owner, site.recv):
                    widened.extend(self.methods_by_name.get(site.attr, []))
            # "builtin" (a list, dict, set or bytearray method) and
            # "opaque" calls get no edge.
            node.edges.append(direct)
            node.widened.append(widened)
            node.externals.append(externals)

    def _inherited_container(self, class_qual: str, attr: str) -> bool:
        """Does every class of ``class_qual``'s in-program ancestry that
        binds ``self.attr`` bind it only to a builtin container (and at
        least one bind it)?"""
        bound = False
        for ancestor in self.ancestry(class_qual):
            klass = self.classes[ancestor][1]
            if attr in klass.other_attrs:
                return False
            bound = bound or attr in klass.container_attrs
        return bound

    def _super_targets(self, class_qual: str, name: str) -> list[str]:
        """What ``super().name`` in ``class_qual`` may call: the first
        definition up each in-program base's ancestry."""
        _module, klass = self.classes[class_qual]
        targets = []
        for base in klass.bases:
            method = self.method_on(self._resolve_export(base), name)
            if method is not None and method not in targets:
                targets.append(method)
        return targets

    def _internal_roots(self) -> tuple:
        roots = {module.split(".")[0] for module in self.modules}
        return tuple(f"{root}." for root in roots) + tuple(roots)

    def _owning_class(self, node: FunctionNode) -> Optional[str]:
        if node.summary.cls is None:
            return None
        return f"{node.module}.{node.summary.cls}"

    # -- queries -------------------------------------------------------
    def reachable(
        self,
        entries: list[str],
        follow_widened: bool = True,
        skip_modules: tuple = (),
    ) -> dict[str, Optional[tuple[str, int]]]:
        """BFS over the call graph from ``entries``.

        Returns ``{qualname: (caller_qualname, call_line) | None}`` —
        parent pointers for chain reconstruction (entries map to None).
        ``skip_modules`` prunes traversal *into* those module prefixes.
        """
        parents: dict[str, Optional[tuple[str, int]]] = {}
        queue: list[str] = []
        for entry in entries:
            if entry in self.functions and entry not in parents:
                parents[entry] = None
                queue.append(entry)
        while queue:
            current = queue.pop(0)
            node = self.functions[current]
            for index, site in enumerate(node.summary.calls):
                targets = list(node.edges[index])
                if follow_widened:
                    targets += node.widened[index]
                for target in targets:
                    if target in parents:
                        continue
                    callee = self.functions.get(target)
                    if callee is None:
                        continue
                    if callee.module.startswith(skip_modules):
                        continue
                    parents[target] = (current, site.line)
                    queue.append(target)
        return parents

    def chain(
        self, parents: dict, qualname: str
    ) -> list[str]:
        """Entry-to-target call chain for diagnostics."""
        out = [qualname]
        current = qualname
        while parents.get(current) is not None:
            current = parents[current][0]
            out.append(current)
            if len(out) > 64:
                break
        return list(reversed(out))

    # -- module import graph / SCCs ------------------------------------
    def import_graph(self) -> dict[str, set]:
        graph: dict[str, set] = {name: set() for name in self.modules}
        for name, summary in self.modules.items():
            for target in summary.imports.values():
                root = target
                while root:
                    if root in self.modules and root != name:
                        graph[name].add(root)
                        break
                    if "." not in root:
                        break
                    root = root.rpartition(".")[0]
        return graph

    def sccs(self) -> list[list[str]]:
        """Strongly connected components of the import graph."""
        graph = self.import_graph()
        index: dict[str, int] = {}
        low: dict[str, int] = {}
        on_stack: set = set()
        stack: list[str] = []
        out: list[list[str]] = []
        counter = [0]

        def strongconnect(root: str) -> None:
            work = [(root, iter(sorted(graph[root])))]
            index[root] = low[root] = counter[0]
            counter[0] += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                node, it = work[-1]
                advanced = False
                for succ in it:
                    if succ not in index:
                        index[succ] = low[succ] = counter[0]
                        counter[0] += 1
                        stack.append(succ)
                        on_stack.add(succ)
                        work.append((succ, iter(sorted(graph[succ]))))
                        advanced = True
                        break
                    if succ in on_stack:
                        low[node] = min(low[node], index[succ])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    out.append(sorted(component))

        for name in sorted(graph):
            if name not in index:
                strongconnect(name)
        return out

    def scc_of(self) -> dict[str, frozenset]:
        mapping: dict[str, frozenset] = {}
        for component in self.sccs():
            frozen = frozenset(component)
            for member in component:
                mapping[member] = frozen
        return mapping

    # -- lookups for rules ---------------------------------------------
    def registry(self, name: str) -> list[str]:
        """All dotted entries of registry dicts called ``name``."""
        out: list[str] = []
        for summary in self.modules.values():
            out.extend(summary.registries.get(name, []))
        return out

    def audited_classes(self) -> list[str]:
        out: list[str] = []
        for summary in self.modules.values():
            out.extend(summary.audit_regs)
        return sorted(set(out))

    def constant_value(self, dotted: str) -> Optional[str]:
        module, _, name = dotted.rpartition(".")
        summary = self.modules.get(module)
        if summary is None:
            return None
        return summary.constants.get(name)

    def const_set_values(self, dotted: str) -> Optional[list[str]]:
        """Members of a constant set, resolved to their string values."""
        module, _, name = dotted.rpartition(".")
        summary = self.modules.get(module)
        if summary is None:
            return None
        members = summary.const_sets.get(name)
        if members is None:
            return None
        values = []
        for member in members:
            values.append(summary.constants.get(member, member))
        return values


def build_program(summaries: dict) -> Program:
    return Program(summaries)


def to_dot(program: Program, widened: bool = False) -> str:
    """Render the resolved call graph as Graphviz DOT.

    Functions cluster by module; solid edges are resolved calls,
    dashed edges (``widened=True``) are name-widened may-call edges.
    """
    lines = [
        "digraph callgraph {",
        "  rankdir=LR;",
        '  node [shape=box, fontsize=9, fontname="monospace"];',
    ]
    by_module: dict[str, list[FunctionNode]] = {}
    for node in program.functions.values():
        by_module.setdefault(node.module, []).append(node)
    for index, module in enumerate(sorted(by_module)):
        lines.append(f"  subgraph cluster_{index} {{")
        lines.append(f'    label="{module}"; color=gray;')
        for node in sorted(by_module[module], key=lambda n: n.qualname):
            label = node.summary.qual
            if node.summary.is_async:
                label = "async " + label
            lines.append(f'    "{node.qualname}" [label="{label}"];')
        lines.append("  }")
    emitted: set = set()
    for node in program.functions.values():
        targets: list[tuple[str, str]] = []
        for direct in node.edges:
            targets += [(t, "solid") for t in direct]
        if widened:
            for widen in node.widened:
                targets += [(t, "dashed") for t in widen]
        for target, style in targets:
            key = (node.qualname, target, style)
            if key in emitted or target not in program.functions:
                continue
            emitted.add(key)
            lines.append(
                f'  "{node.qualname}" -> "{target}" [style={style}];'
            )
    lines.append("}")
    return "\n".join(lines) + "\n"
