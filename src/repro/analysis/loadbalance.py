"""Load-balance metrics (Figures 12 and 13).

The paper reports the average, maximum and minimum number of stored build
tuples across join nodes, in chunk units.  We add the standard imbalance
coefficient (max/avg) used throughout the parallel-join literature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from ..core.results import JoinRunResult

__all__ = ["LoadBalance", "load_balance"]


@dataclass(frozen=True)
class LoadBalance:
    """Per-run load distribution summary (tuples and chunk units)."""

    nodes: int
    avg_tuples: float
    max_tuples: int
    min_tuples: int
    chunk_tuples: int

    @property
    def avg_chunks(self) -> float:
        return self.avg_tuples / self.chunk_tuples

    @property
    def max_chunks(self) -> float:
        return self.max_tuples / self.chunk_tuples

    @property
    def min_chunks(self) -> float:
        return self.min_tuples / self.chunk_tuples

    @property
    def imbalance(self) -> float:
        """max/avg; 1.0 is perfect balance."""
        return self.max_tuples / self.avg_tuples if self.avg_tuples else float("inf")


def load_balance(result: JoinRunResult) -> LoadBalance:
    """Extract the Figure 12/13 metrics from a run result.

    Counts in-memory stored tuples plus any disk-spilled build tuples —
    both represent work the node performs in the probe/OOC phase.
    """
    totals = [l.stored_tuples + l.spilled_r_tuples for l in result.loads]
    if not totals:
        raise ValueError("run used no join nodes")
    return LoadBalance(
        nodes=len(totals),
        avg_tuples=sum(totals) / len(totals),
        max_tuples=max(totals),
        min_tuples=min(totals),
        chunk_tuples=result.config.workload.real_chunk_tuples,
    )
