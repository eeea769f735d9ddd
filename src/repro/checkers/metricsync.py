"""Metrics-catalogue sync pass: code literals <-> docs/OBSERVABILITY.md.

Every metric the code publishes must be documented in the catalogue
table of ``docs/OBSERVABILITY.md``, and every catalogue row must still
have a publishing site — a one-to-one contract in both directions:

* ``metrics-uncatalogued`` — a metric name literal appears in code but
  not in the catalogue (dashboards and the byte-conservation docs would
  silently miss it);
* ``metrics-stale-catalogue`` — a catalogue row names a metric no code
  publishes any more (docs rot).

A "metric name literal" is the first positional string argument of an
attribute call named ``counter``/``gauge``/``histogram``/``inc``/
``set_gauge``/``observe`` — the full MetricsRegistry publishing surface.
Instrument-level calls (``some_counter.inc(5)``) have no string first
argument and are ignored, as are names that do not look like metric
identifiers.  The catalogue side parses the first column of the
"Metric catalogue" table, honoring comma-separated multi-name rows.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator

from ._astutil import first_str_arg
from .base import Checker, Project, Violation

__all__ = ["MetricSyncChecker"]

_CATALOGUE_REL = "docs/OBSERVABILITY.md"
_CATALOGUE_HEADING = "## Metric catalogue"

_REGISTRY_METHODS = frozenset(
    {"counter", "gauge", "histogram", "inc", "set_gauge", "observe"}
)

#: lowercase dotted/underscored identifiers, e.g. ``net.sent_bytes``
_METRIC_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)*$")
_BACKTICKED_RE = re.compile(r"`([^`]+)`")


def _catalogue_names(text: str) -> dict[str, int]:
    """Metric names in the catalogue table -> line number (1-based)."""
    names: dict[str, int] = {}
    in_section = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.startswith("## "):
            in_section = line.strip() == _CATALOGUE_HEADING
            continue
        if not in_section or not line.lstrip().startswith("|"):
            continue
        first_cell = line.split("|")[1] if "|" in line[1:] else ""
        for token in _BACKTICKED_RE.findall(first_cell):
            for name in token.split(","):
                name = name.strip().strip("`")
                if _METRIC_NAME_RE.match(name):
                    names.setdefault(name, lineno)
    return names


class MetricSyncChecker(Checker):
    """Published metric names and the docs catalogue agree, both ways."""

    name = "metrics"
    rules = ("metrics-uncatalogued", "metrics-stale-catalogue")

    def check(self, project: Project) -> Iterator[Violation]:
        text = project.doc(_CATALOGUE_REL)
        if text is None:
            # Linting a tree without the docs page (e.g. a fixture dir).
            return
        catalogue = _catalogue_names(text)

        published: dict[str, tuple[str, int]] = {}
        for f in project.in_dir("src/repro"):
            for node in ast.walk(f.tree):
                if not (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in _REGISTRY_METHODS):
                    continue
                name = first_str_arg(node)
                if name is None or not _METRIC_NAME_RE.match(name):
                    continue
                site = (f.rel, node.lineno)
                if name not in published:
                    published[name] = site
                if name not in catalogue:
                    yield f.violation(
                        node, "metrics-uncatalogued",
                        f"metric {name!r} is not documented in "
                        f"{_CATALOGUE_REL} (Metric catalogue table)",
                    )

        for name in sorted(set(catalogue) - set(published)):
            yield Violation(
                path=_CATALOGUE_REL,
                line=catalogue[name],
                rule="metrics-stale-catalogue",
                message=f"catalogue lists {name!r} but no code publishes it",
            )
