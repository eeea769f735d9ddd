"""The passes ``repro lint`` runs, in ``--list`` order.

Adding a checker is: write the module, add its class to ``PASSES``,
document its rules in ``docs/STATIC_ANALYSIS.md``.
"""

from __future__ import annotations

from .base import Checker
from .determinism import DeterminismChecker
from .faultsafety import FaultSafetyChecker
from .protocol import ProtocolChecker
from .waitgraph import WaitGraphChecker

__all__ = ["PASSES"]

PASSES: tuple[type[Checker], ...] = (
    DeterminismChecker,
    FaultSafetyChecker,
    ProtocolChecker,
    WaitGraphChecker,
)
