"""Aggregator importing every concrete pass for registration.

``base.run_lint`` imports this module before building the pass list, so
adding a checker is: write the module, ``@register`` the class, import
it here, document its rules in ``docs/STATIC_ANALYSIS.md``.
"""

from __future__ import annotations

from .determinism import DeterminismChecker
from .faultsafety import FaultSafetyChecker
from .metricsync import MetricSyncChecker
from .protocol import ProtocolChecker
from .waitgraph import WaitGraphChecker

__all__ = [
    "DeterminismChecker",
    "ProtocolChecker",
    "MetricSyncChecker",
    "FaultSafetyChecker",
    "WaitGraphChecker",
]
