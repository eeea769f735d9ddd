"""ASCII report tables for benchmark output and EXPERIMENTS.md.

Each figure bench produces a :class:`FigureReport` — the series the paper
plots, plus the qualitative 'shape checks' derived from the paper's text
(who wins, what converges, what explodes).  The benches assert the checks;
EXPERIMENTS.md records the numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# the plain-text table lives with the other exporters; re-exported here
from ..obs.export import format_table

__all__ = ["FigureReport", "ShapeCheck", "format_table"]


@dataclass
class ShapeCheck:
    """One qualitative expectation from the paper's text."""

    description: str
    passed: bool

    def __str__(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] {self.description}"


@dataclass
class FigureReport:
    """One reproduced figure: identity, data table, shape checks."""

    figure: str
    title: str
    headers: list[str]
    rows: list[list[object]] = field(default_factory=list)
    checks: list[ShapeCheck] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def check(self, description: str, predicate: bool) -> None:
        self.checks.append(ShapeCheck(description, bool(predicate)))

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        out = [f"== {self.figure}: {self.title} =="]
        out.append(format_table(self.headers, self.rows))
        for c in self.checks:
            out.append(str(c))
        for n in self.notes:
            out.append(f"note: {n}")
        return "\n".join(out)

    def to_csv(self) -> str:
        """Comma-separated table (for plotting tools); checks/notes omitted."""
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(self.headers)
        writer.writerows(self.rows)
        return buf.getvalue()

    def to_markdown(self) -> str:
        """Markdown block for EXPERIMENTS.md."""
        out = [f"### {self.figure}: {self.title}", ""]
        out.append("| " + " | ".join(self.headers) + " |")
        out.append("|" + "|".join("---" for _ in self.headers) + "|")
        for row in self.rows:
            out.append("| " + " | ".join(
                f"{c:.1f}" if isinstance(c, float) else str(c) for c in row)
                + " |")
        out.append("")
        for c in self.checks:
            out.append(f"- {c}")
        for n in self.notes:
            out.append(f"- note: {n}")
        out.append("")
        return "\n".join(out)
