"""The passes ``repro lint`` runs, in ``--list`` order.

Adding a checker is: write the module, describe each rule in its
``rules``, add its class to ``PASSES``, and regenerate the rule table of
``docs/STATIC_ANALYSIS.md`` (:func:`rule_table`).
"""

from __future__ import annotations

from .base import Checker
from .determinism import DeterminismChecker
from .faultsafety import FaultSafetyChecker
from .protocol import ProtocolChecker
from .waitgraph import WaitGraphChecker

__all__ = ["PASSES", "rule_table"]

PASSES: tuple[type[Checker], ...] = (
    DeterminismChecker,
    FaultSafetyChecker,
    ProtocolChecker,
    WaitGraphChecker,
)


def rule_table() -> str:
    """docs/STATIC_ANALYSIS.md's rule catalogue: one row per rule."""
    lines = ["| rule | pass | fires on |", "|---|---|---|"]
    for cls in PASSES:
        for rule, fires_on in cls.rules.items():
            lines.append(f"| `{rule}` | `{cls.name}` | {fires_on} |")
    return "\n".join(lines) + "\n"
