"""Repo-specific static analysis (``python -m repro lint``).

AST-based passes that machine-check the invariants the reproduction's
determinism and protocol claims rest on.  See ``docs/STATIC_ANALYSIS.md``
for the rule catalogue, suppression syntax and extension guide.
"""

from __future__ import annotations

from .base import (
    UNUSED_ALLOW_RULE,
    Checker,
    LintError,
    Project,
    SourceFile,
    Violation,
    run_lint,
)
from .passes import PASSES
from .reporting import report_sarif, report_text

__all__ = [
    "Checker",
    "LintError",
    "PASSES",
    "Project",
    "SourceFile",
    "Violation",
    "run_lint",
    "report_sarif",
    "report_text",
    "UNUSED_ALLOW_RULE",
]
