"""Fault-safety pass: exception handling on recovery paths.

The recovery machinery distinguishes *maskable* faults (retried,
degraded, spilled) from *unmaskable* ones, which must surface as
``UnrecoverableFaultError``.  One rule keeps handlers honest
(:attr:`FaultSafetyChecker.rules`): a broad handler that never re-raises
swallows exactly the class of failures the fault model promises to
surface.  Re-raise, or narrow the handler to the specific exception
being masked.

Narrow handlers (``except ValueError: pass`` around a best-effort
cleanup) are fine and not flagged.  Bare ``except:`` is ruff's E722.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from typing import ClassVar

from ._astutil import dotted_name
from .base import Checker, Project, Violation

__all__ = ["FaultSafetyChecker"]

_BROAD = frozenset({"Exception", "BaseException", "UnrecoverableFaultError"})


def _handler_types(caught: ast.expr) -> set[str]:
    """Leaf type names a handler's ``except`` clause names (``a.b.C`` -> ``C``)."""
    elts = caught.elts if isinstance(caught, ast.Tuple) else [caught]
    out: set[str] = set()
    for e in elts:
        name = dotted_name(e)
        if name is not None:
            out.add(name.rsplit(".", 1)[-1])
    return out


def _reraises(handler: ast.ExceptHandler) -> bool:
    return any(isinstance(n, ast.Raise) for n in ast.walk(handler))


class FaultSafetyChecker(Checker):
    """Broad/unrecoverable catches must re-raise."""

    name = "faultsafety"
    rules: ClassVar[dict[str, str]] = {
        "fault-swallowed": "a handler catching `Exception`, `BaseException` "
                           "or `UnrecoverableFaultError` whose body never "
                           "re-raises",
    }

    def check(self, project: Project) -> Iterator[Violation]:
        for source in project.files:
            for node in ast.walk(source.tree):
                if not isinstance(node, ast.ExceptHandler) or node.type is None:
                    continue
                broad = _handler_types(node.type) & _BROAD
                if broad and not _reraises(node):
                    caught = ", ".join(sorted(broad))
                    yield source.violation(
                        node, "fault-swallowed",
                        f"handler catches {caught} without re-raising — "
                        "unmaskable faults must surface, not be swallowed",
                    )
