"""The non-expanding out-of-core baseline ("Out of Core" in the figures).

Only the initial join nodes are ever used.  When a node's bucket memory is
exceeded it spills Grace-style to its local disk (``JoinProcess.auto_spill``,
derived from the configured algorithm), probes arrive normally, and after
the probe stream drains each spilled node runs its out-of-core bucket
passes (:class:`~repro.core.joinnode.SpillStore`).
The scheduler never expands, so ``decide`` is unreachable.
"""

from __future__ import annotations

from collections.abc import Generator
from typing import Any

from .strategy import Decision, ExpansionStrategy

__all__ = ["OutOfCoreStrategy"]


class OutOfCoreStrategy(ExpansionStrategy):
    """No expansion; join nodes degrade to disk on overflow."""

    def decide(self, reporter: int) -> Generator[Any, Any, Decision | None]:
        raise AssertionError(
            "OOC join nodes spill locally and never report memory-full"
        )
