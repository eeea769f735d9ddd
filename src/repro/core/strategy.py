"""Expansion-strategy interface.

A strategy encapsulates what the scheduler does when a join node reports
*memory full* (paper §4.2): recruit a node and either split, replicate, or
— for the non-expanding baseline, the base class itself — nothing (join
nodes spill to disk on their own).  Strategies run *inside* the scheduler
process and use its messaging/await helpers.

Every expansion is two steps.  ``decide`` recruits the new node and names
the change as a :class:`Decision`; ``apply`` carries it out — routing
table, orders, acks — and is **idempotent**: applying a decision already
(partly) in effect converges to the same table and acks.  The scheduler's
relief cycle runs ``decide -> apply``; the fault layer logs the decision
in between, so a standby taking over mid-expansion just applies it again.
A strategy also owns every phase only it runs (hybrid: the reshuffle).
"""

from __future__ import annotations

import weakref
from collections.abc import Generator
from typing import TYPE_CHECKING, Any, NamedTuple

from ..config import Algorithm, RunConfig
from ..hashing import RangeRouter, Router, partition_positions
from .messages import ReliefAck

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .scheduler import SchedulerProcess

__all__ = ["Decision", "ExpansionStrategy", "make_strategy"]


class Decision(NamedTuple):
    """One expansion, named before it is carried out.  A plain tuple on
    purpose: it is the fault layer's write-ahead record of the cycle, and
    of its recovery cycles too (kind ``"recover"``: the dead node is the
    donor and the reporter, the takeover target the new node)."""

    kind: str      #: "replicate" | "bisect" | "linear" | "recover"
    donor: int     #: node whose range/bucket is replicated or split
    new_node: int  #: the recruit taking part of the donor's load
    reporter: int  #: the full node this relief cycle is for
    arg: int = 0   #: bisect: first position of the moved half; linear: new bucket


class ExpansionStrategy:
    """One relief policy; owned and driven by the scheduler process.

    The base class itself is the non-expanding out-of-core baseline
    ("Out of Core" in the figures): only the initial join nodes are used,
    each spills Grace-style to its local disk when its bucket memory is
    exceeded (``JoinProcess.auto_spill``) and runs its out-of-core bucket
    passes after the probe stream drains, so it never reports memory-full.
    """

    #: hybrid runs the reshuffling step between build and probe
    needs_reshuffle: bool = False

    def __init__(self, sched: SchedulerProcess) -> None:
        # The scheduler owns its strategy: a strong reference back would
        # leave both in a cycle, holding the whole run, after it ends.
        self.sched = weakref.proxy(sched)

    def make_initial_router(self, initial: list[int]) -> Router:
        """Initial bucket assignment: one contiguous range per initial node."""
        positions = self.sched.cfg.hash_positions
        ranges = partition_positions(positions, len(initial))
        return RangeRouter.initial(ranges, initial, positions)

    def decide(self, reporter: int) -> Generator[Any, Any, Decision | None]:
        """Recruit a node for ``reporter``'s relief and name the expansion.

        Must allocate the new node itself (so fallbacks do not leak pool
        slots).  ``None`` means no expansion can help — pool exhausted or
        the range is atomic — and the scheduler degrades the reporter to
        disk spilling instead.  Unreachable on the out-of-core baseline.
        """
        raise AssertionError(
            "OOC join nodes spill locally and never report memory-full"
        )
        yield  # pragma: no cover - makes this a generator

    def apply(self, decision: Decision) -> Generator[Any, Any, ReliefAck]:
        """Carry ``decision`` out, idempotently; returns the reporter's
        ReliefAck.  Strategies that never expand cannot see one."""
        raise RuntimeError(
            f"{type(self).__name__} cannot apply decision {decision!r}"
        )
        yield  # pragma: no cover - makes this a generator

    def reshuffle(self) -> Generator[Any, Any, None]:
        """The phase between build and probe (``needs_reshuffle`` only)."""
        raise NotImplementedError
        yield  # pragma: no cover - makes this a generator

    def adopt_router(self, router: Router) -> None:
        """Rebuild strategy-private state from a routing table.

        Called by the fault layer after a standby takeover (the table came
        from a snapshot) and after a crash-recovery takeover rewrote it.
        Default: the strategy keeps no state beyond the table itself."""


def make_strategy(sched: SchedulerProcess, cfg: RunConfig) -> ExpansionStrategy:
    """Strategy factory keyed on the configured algorithm."""
    from .hybrid import HybridStrategy
    from .replicate import ReplicationStrategy
    from .split import SplitStrategy

    if cfg.algorithm is Algorithm.REPLICATE:
        return ReplicationStrategy(sched)
    if cfg.algorithm is Algorithm.HYBRID:
        return HybridStrategy(sched)
    if cfg.algorithm is Algorithm.SPLIT:
        return SplitStrategy(sched, cfg.split_policy)
    if cfg.algorithm is Algorithm.OUT_OF_CORE:
        return ExpansionStrategy(sched)
    raise ValueError(f"unknown algorithm {cfg.algorithm}")
