"""The scheduler's *potential list* (paper §4.1): join nodes it may recruit.

The scheduler never asks where its extra nodes come from.  It holds one
object with four operations — ``initial`` (the nodes it starts on),
:meth:`take` (one expansion candidate; a generator),
:meth:`shutdown_targets` and :meth:`release` — plus :meth:`rebuilt` for a
standby that inherits the list mid-query.  :class:`PrivatePotential` is
the list of a query that has the cluster to itself;
:class:`~repro.core.pool.PoolClient` asks the shared pool actor.  Both
pick with :func:`take_best`.
"""

from __future__ import annotations

from collections.abc import Callable, Generator
from typing import Any

__all__ = ["PrivatePotential", "take_best"]


def take_best(free: list[int], memory_of: Callable[[int], int]) -> int:
    """Remove and return the free node with the most memory (the paper's
    selection rule); ties go to the lowest pool index."""
    best = max(free, key=lambda j: (memory_of(j), -j))
    free.remove(best)
    return best


class PrivatePotential:
    """A private list: the whole pool beyond the initial nodes is ours."""

    def __init__(self, n_initial: int, n_potential: int,
                 memory_of: Callable[[int], int]) -> None:
        self.initial = list(range(n_initial))
        self.free = list(range(n_initial, n_potential))
        self.n_potential = n_potential
        self.memory_of = memory_of

    def take(self, sched: Any, phase: str) -> Generator[Any, Any, int | None]:
        """One candidate, or None once the list is empty.  Yields nothing:
        a private list answers without a message."""
        return take_best(self.free, self.memory_of) if self.free else None
        yield  # pragma: no cover - makes this a generator

    def shutdown_targets(self, sched: Any) -> list[int]:
        """Every node of the pool: dormant ones just exit."""
        return list(range(self.n_potential))

    def release(self, sched: Any) -> Generator[Any, Any, None]:
        """Nobody to hand the nodes back to."""
        return
        yield  # pragma: no cover - makes this a generator

    def rebuilt(self, used: set[int]) -> PrivatePotential:
        """Scheduler takeover: the standby's own list, inferred rather
        than replicated — everything never activated nor fenced.  (A new
        object: a deposed primary may still be holding this one.)"""
        new = PrivatePotential(len(self.initial), self.n_potential,
                               self.memory_of)
        new.free = [j for j in range(self.n_potential) if j not in used]
        return new
