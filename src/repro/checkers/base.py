"""Checker framework: source model, suppression, runner.

The framework parses every Python file under the linted tree once, wraps
it in a :class:`SourceFile` (AST + per-line suppressions), and hands the
whole :class:`Project` to each :class:`Checker` in
:data:`repro.checkers.passes.PASSES`.  A pass picks its own files —
``project.in_dir(...)`` for a scoped pass, ``project.files`` for the
whole tree — so local and cross-file invariants share one shape.

Suppression: a violation on line N is dropped when line N (or the
enclosing statement's first line) carries a comment of the form::

    # repro: allow[rule-id]
    # repro: allow[rule-a, rule-b]

matching the violation's rule id.  Suppressions are deliberately
per-line and per-rule — there is no file-wide or blanket escape hatch,
so every exception stays visible at the exact site it covers.
"""

from __future__ import annotations

import ast
import re
import tokenize
from abc import ABC, abstractmethod
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

__all__ = [
    "Violation",
    "SourceFile",
    "Project",
    "Checker",
    "run_lint",
    "LintError",
    "UNUSED_ALLOW_RULE",
]

#: comment syntax recognized as an inline suppression
_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\[([^\]]*)\]")


class LintError(Exception):
    """A problem with the lint invocation itself (bad path, unreadable or
    unparsable file) — distinct from violations found in linted code."""


@dataclass(frozen=True, order=True)
class Violation:
    """One finding: rule id, location, and a human-readable message."""

    path: str          # repo-relative, '/'-separated
    line: int
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


class SourceFile:
    """One parsed Python source file plus its suppression table."""

    def __init__(self, root: Path, path: Path):
        self.path = path
        self.rel = path.relative_to(root).as_posix()
        try:
            self.text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise LintError(f"cannot read {self.rel}: {exc}") from exc
        try:
            self.tree = ast.parse(self.text, filename=str(path))
        except SyntaxError as exc:
            raise LintError(f"cannot parse {self.rel}: {exc}") from exc
        #: line -> set of rule ids allowed on that line
        self.suppressions: dict[int, set[str]] = _collect_suppressions(self.text)

    def suppressed(self, line: int, rule: str) -> bool:
        allowed = self.suppressions.get(line)
        return allowed is not None and rule in allowed

    def violation(self, node: ast.AST | int, rule: str, message: str) -> Violation:
        line = node if isinstance(node, int) else getattr(node, "lineno", 1)
        return Violation(path=self.rel, line=line, rule=rule, message=message)


def _collect_suppressions(text: str) -> dict[int, set[str]]:
    """Extract ``# repro: allow[...]`` comments via the tokenizer (so the
    marker is never matched inside a string literal)."""
    table: dict[int, set[str]] = {}
    lines = iter(text.splitlines(keepends=True))
    try:
        for tok in tokenize.generate_tokens(lambda: next(lines, "")):
            if tok.type != tokenize.COMMENT:
                continue
            m = _ALLOW_RE.search(tok.string)
            if m is None:
                continue
            rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
            table.setdefault(tok.start[0], set()).update(rules)
    except tokenize.TokenError:  # trailing continuation etc. — AST parsed, so
        pass                     # whatever we collected up to here is complete
    return table


class Project:
    """The linted tree: every parsed source file."""

    def __init__(self, files: Sequence[SourceFile]):
        self.files = list(files)
        self._by_rel = {f.rel: f for f in self.files}

    def get(self, rel: str) -> SourceFile | None:
        return self._by_rel.get(rel)

    def in_dir(self, *rel_dirs: str) -> list[SourceFile]:
        """Files whose repo-relative path starts with any given directory."""
        prefixes = tuple(d.rstrip("/") + "/" for d in rel_dirs)
        return [f for f in self.files if f.rel.startswith(prefixes)]


class Checker(ABC):
    """A lint pass; yields violations (pre-suppression)."""

    #: short kebab-case pass name (shown in ``lint --list``)
    name: str = ""
    #: rule id -> what it fires on (markdown): every rule this pass can
    #: emit, for --select and docs/STATIC_ANALYSIS.md's catalogue
    rules: ClassVar[dict[str, str]] = {}

    @abstractmethod
    def check(self, project: Project) -> Iterator[Violation]:
        raise NotImplementedError


def _discover(root: Path, paths: Iterable[str] | None) -> list[Path]:
    """Python files to lint, in sorted (deterministic) order."""
    if paths:
        out: list[Path] = []
        for p in paths:
            path = (root / p) if not Path(p).is_absolute() else Path(p)
            if path.is_dir():
                out.extend(sorted(path.rglob("*.py")))
            elif path.is_file():
                out.append(path)
            else:
                raise LintError(f"no such file or directory: {p}")
        return out
    src = root / "src" / "repro"
    if not src.is_dir():
        raise LintError(
            f"{root} does not look like the repro repo (no src/repro); "
            "pass explicit paths or run from the repo root"
        )
    return sorted(src.rglob("*.py"))


#: rule id emitted by the framework itself for allow-comments that
#: suppress nothing (keeps the allowlist from rotting as code changes)
UNUSED_ALLOW_RULE = "lint-unused-allow"


def run_lint(
    root: Path,
    paths: Iterable[str] | None = None,
    select: Iterable[str] | None = None,
) -> list[Violation]:
    """Run every pass in ``PASSES``; returns surviving violations sorted
    by (path, line, rule).  ``select`` restricts to pass names or rule-id
    prefixes (e.g. ``determinism`` or ``det-``).

    On a full (unselected) run, every ``# repro: allow[...]`` comment that
    suppressed no finding is itself reported as ``lint-unused-allow`` —
    a selected run skips this, since the unexercised passes would make
    their suppressions look stale.
    """
    from .passes import PASSES  # the passes import this module

    root = root.resolve()
    files = [SourceFile(root, p) for p in _discover(root, paths)]
    project = Project(files)
    wanted = {s.rstrip("-") for s in select} if select else None
    out: list[Violation] = []
    consumed: set[tuple[str, int, str]] = set()
    for cls in PASSES:
        if wanted is not None:
            names = {cls.name, *(r.split("-")[0] for r in cls.rules)}
            if not (wanted & names) and not any(
                r.startswith(tuple(wanted)) for r in cls.rules
            ):
                continue
        for v in cls().check(project):
            source = project.get(v.path)
            if source is not None and source.suppressed(v.line, v.rule):
                consumed.add((v.path, v.line, v.rule))
                continue
            out.append(v)
    if wanted is None:
        for f in project.files:
            for line in sorted(f.suppressions):
                for rule in sorted(f.suppressions[line]):
                    if (f.rel, line, rule) in consumed:
                        continue
                    if rule == UNUSED_ALLOW_RULE:
                        continue
                    out.append(f.violation(
                        line, UNUSED_ALLOW_RULE,
                        f"suppression `repro: allow[{rule}]` matches no "
                        "finding on this line — remove it (or fix the "
                        "rule id)",
                    ))
    return sorted(out)
