"""Rule registry, suppression handling and reporting for ``repro.lint``.

A :class:`Rule` is a function from a parsed file (:class:`LintContext`)
to an iterable of :class:`LintViolation`. Rules register themselves with
the :func:`rule` decorator and carry a stable code (``TH001``...), a
short name, and an optional path scope (only files whose
``repro``-relative module path starts with one of the scope prefixes are
checked). The engine owns everything rules should not re-implement:
walking the tree, parsing, matching ``# repro-lint: disable=`` comments,
and rendering the report.

Suppression semantics: a disable comment suppresses the listed codes on
its own line, or — when the line holds nothing but the comment — on the
next code line. Every suppression must justify itself after ``--``; a
missing justification is reported as ``LINT001`` and a suppression that
matched no violation as ``LINT002``, so stale allowlist entries fail the
build just like real findings.
"""

from __future__ import annotations

import ast
import io
import json
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Callable, Iterable, Iterator
from typing import Optional

__all__ = [
    "FLOW_CODES",
    "LintContext",
    "LintReport",
    "LintViolation",
    "Rule",
    "all_rules",
    "lint_file",
    "lint_paths",
    "lint_source",
    "rule",
]

#: Codes emitted by the engine itself (suppression hygiene).
META_NO_JUSTIFICATION = "LINT001"
META_UNUSED_SUPPRESSION = "LINT002"

#: Codes owned by the whole-program pass (:mod:`repro.lint.flow`).
#: The per-file pass leaves their suppressions alone — it cannot judge
#: staleness for findings it does not compute — and the flow engine
#: applies them (``TH009`` is the retired per-file rule, kept as an
#: alias for its flow successor ``TH010``).
FLOW_CODES = frozenset(
    {"TH009", "TH010", "TH011", "TH012", "TH013", "TH014"}
)

_DISABLE_RE = re.compile(
    r"#\s*repro-lint:\s*disable=(?P<codes>[A-Z]+\d+(?:\s*,\s*[A-Z]+\d+)*)"
    r"(?:\s*--\s*(?P<why>.*?))?\s*$"
)


@dataclass(frozen=True)
class LintViolation:
    """One finding: a rule code anchored to a file position."""

    code: str
    message: str
    path: str
    line: int
    column: int = 0

    def as_dict(self) -> dict:
        return {
            "code": self.code,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "column": self.column,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.column + 1}: {self.code} {self.message}"


@dataclass
class LintContext:
    """Everything a rule may inspect about one file."""

    path: Path
    #: Module path relative to the ``repro`` package root, POSIX-style
    #: (``repro/core/file.py``); empty for files outside any package.
    module_path: str
    source: str
    tree: ast.Module
    lines: list[str]

    def violation(
        self, code: str, node: ast.AST, message: str
    ) -> LintViolation:
        return LintViolation(
            code=code,
            message=message,
            path=str(self.path),
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0),
        )


Checker = Callable[[LintContext], Iterable[LintViolation]]


@dataclass(frozen=True)
class Rule:
    """A registered rule: stable code, scope, and its checker."""

    code: str
    name: str
    description: str
    checker: Checker
    #: Module-path prefixes this rule applies to (``None`` = every file).
    scope: Optional[tuple] = None

    def applies_to(self, module_path: str) -> bool:
        if self.scope is None:
            return True
        return any(module_path.startswith(prefix) for prefix in self.scope)


_REGISTRY: dict[str, Rule] = {}


def rule(
    code: str,
    name: str,
    description: str,
    scope: Optional[Iterable[str]] = None,
) -> Callable[[Checker], Checker]:
    """Register ``checker`` under ``code``; codes must be unique."""

    def decorate(checker: Checker) -> Checker:
        if code in _REGISTRY:
            raise ValueError(f"duplicate lint rule code {code}")
        _REGISTRY[code] = Rule(
            code=code,
            name=name,
            description=description,
            checker=checker,
            scope=tuple(scope) if scope is not None else None,
        )
        return checker

    return decorate


def all_rules() -> list[Rule]:
    """Every registered rule, ordered by code."""
    return [_REGISTRY[code] for code in sorted(_REGISTRY)]


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
@dataclass
class _Suppression:
    codes: tuple
    line: int  # line the suppression applies to
    comment_line: int  # line the comment itself sits on
    justified: bool
    used: set = field(default_factory=set)


def _parse_suppressions(source: str, path: str) -> list[_Suppression]:
    """Extract disable comments via the tokenizer (never from strings)."""
    suppressions: list[_Suppression] = []
    code_lines: set = set()
    comment_tokens: list = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return []
    for tok in tokens:
        if tok.type == tokenize.COMMENT:
            comment_tokens.append(tok)
        elif tok.type not in (
            tokenize.NL,
            tokenize.NEWLINE,
            tokenize.INDENT,
            tokenize.DEDENT,
            tokenize.ENDMARKER,
            tokenize.ENCODING,
        ):
            for line in range(tok.start[0], tok.end[0] + 1):
                code_lines.add(line)
    for tok in comment_tokens:
        match = _DISABLE_RE.search(tok.string)
        if not match:
            continue
        codes = tuple(
            code.strip() for code in match.group("codes").split(",")
        )
        comment_line = tok.start[0]
        if comment_line in code_lines:
            target = comment_line
        else:
            # Stand-alone comment: applies to the next code line.
            later = [line for line in code_lines if line > comment_line]
            target = min(later) if later else comment_line
        why = (match.group("why") or "").strip()
        suppressions.append(
            _Suppression(
                codes=codes,
                line=target,
                comment_line=comment_line,
                justified=bool(why),
            )
        )
    return suppressions


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------
def _module_path(path: Path) -> str:
    """The ``repro``-rooted POSIX path of ``path`` (or its plain name)."""
    parts = path.parts
    for anchor in ("repro", "tests"):
        if anchor in parts:
            return "/".join(parts[parts.index(anchor):])
    return path.name


def lint_file(
    path: Path, select: Optional[set] = None
) -> list[LintViolation]:
    """Lint one file; returns surviving violations (suppressions applied)."""
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [
            LintViolation(
                code="LINT000",
                message=f"syntax error: {exc.msg}",
                path=str(path),
                line=exc.lineno or 1,
            )
        ]
    context = LintContext(
        path=path,
        module_path=_module_path(path),
        source=source,
        tree=tree,
        lines=source.splitlines(),
    )
    raw: list[LintViolation] = []
    for candidate in all_rules():
        if select is not None and candidate.code not in select:
            continue
        if not candidate.applies_to(context.module_path):
            continue
        raw.extend(candidate.checker(context))

    suppressions = _parse_suppressions(source, str(path))
    surviving: list[LintViolation] = []
    for violation in raw:
        suppressed = False
        for suppression in suppressions:
            if (
                violation.line == suppression.line
                and violation.code in suppression.codes
            ):
                suppression.used.add(violation.code)
                suppressed = True
        if not suppressed:
            surviving.append(violation)
    for suppression in suppressions:
        if not suppression.justified:
            surviving.append(
                LintViolation(
                    code=META_NO_JUSTIFICATION,
                    message=(
                        "suppression lacks a justification "
                        "(write `# repro-lint: disable=CODE -- why`)"
                    ),
                    path=str(path),
                    line=suppression.comment_line,
                )
            )
        unused = [
            c
            for c in suppression.codes
            if c not in suppression.used and c not in FLOW_CODES
        ]
        if unused and (select is None or set(unused) & select):
            surviving.append(
                LintViolation(
                    code=META_UNUSED_SUPPRESSION,
                    message=(
                        f"suppression for {', '.join(unused)} matched no "
                        "violation; remove the stale disable comment"
                    ),
                    path=str(path),
                    line=suppression.comment_line,
                )
            )
    surviving.sort(key=lambda v: (v.path, v.line, v.code))
    return surviving


def iter_python_files(paths: Iterable[str]) -> Iterator[Path]:
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            yield from sorted(
                p for p in path.rglob("*.py") if "__pycache__" not in p.parts
            )
        elif path.suffix == ".py":
            yield path


@dataclass
class LintReport:
    """The outcome of one lint run over a set of files."""

    files_checked: int
    violations: list[LintViolation]

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        counts: dict[str, int] = {}
        for violation in self.violations:
            counts[violation.code] = counts.get(violation.code, 0) + 1
        return {
            "files_checked": self.files_checked,
            "violation_count": len(self.violations),
            "counts_by_code": dict(sorted(counts.items())),
            "violations": [v.as_dict() for v in self.violations],
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=False)

    def render_table(self) -> str:
        if not self.violations:
            return f"{self.files_checked} files checked, no findings"
        out = [violation.render() for violation in self.violations]
        counts = self.as_dict()["counts_by_code"]
        summary = ", ".join(f"{code}: {n}" for code, n in counts.items())
        out.append(
            f"\n{len(self.violations)} findings in {self.files_checked} "
            f"files checked ({summary})"
        )
        return "\n".join(out)


def lint_source(
    source: str,
    module_path: str = "repro/core/_snippet.py",
    select: Optional[Iterable[str]] = None,
) -> list[LintViolation]:
    """Lint a source string as if it lived at ``module_path``.

    The self-test suite uses this to run scoped rules against fixture
    snippets without materialising them inside the package tree.
    """
    chosen = {code.strip() for code in select} if select is not None else None
    tree = ast.parse(source)
    context = LintContext(
        path=Path(module_path),
        module_path=module_path,
        source=source,
        tree=tree,
        lines=source.splitlines(),
    )
    raw: list[LintViolation] = []
    for candidate in all_rules():
        if chosen is not None and candidate.code not in chosen:
            continue
        if not candidate.applies_to(module_path):
            continue
        raw.extend(candidate.checker(context))
    suppressions = _parse_suppressions(source, module_path)
    surviving = []
    for violation in raw:
        if not any(
            violation.line == s.line and violation.code in s.codes
            for s in suppressions
        ):
            surviving.append(violation)
    return sorted(surviving, key=lambda v: (v.line, v.code))


def lint_paths(
    paths: Iterable[str], select: Optional[Iterable[str]] = None
) -> LintReport:
    """Lint every ``.py`` file under ``paths``."""
    chosen = {code.strip() for code in select} if select is not None else None
    violations: list[LintViolation] = []
    count = 0
    for path in iter_python_files(paths):
        count += 1
        violations.extend(lint_file(path, select=chosen))
    return LintReport(files_checked=count, violations=violations)
