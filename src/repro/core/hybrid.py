"""Hybrid expansion (paper §4.2.3).

Build phase: identical to the replication-based algorithm (no stored tuple
moves while R streams in).  Between build and probe the strategy runs the
**reshuffling** step, a four-step protocol driven from the scheduler
process:

1. every member of a replicated range reports its per-position tuple
   counts (``CountRequest`` -> ``CountVector``);
2. each range is cut into contiguous equal-weight sub-ranges, one per
   chain member, by the greedy heuristic, and every member gets the
   group's ``ReshuffleOrder``;
3. members redistribute their tuples and acknowledge (``ReshuffleDone``);
4. the redistribution traffic is drained with the scheduler's ordinary
   counting drain, and only then is the new single-owner table installed.

The probe phase is then single-destination again, like the split-based
algorithm.  A group whose active replica spilled to disk is left
replicated: disk-resident tuples cannot move.
"""

from __future__ import annotations

from collections.abc import Generator
from typing import Any

import numpy as np

from ..faults import UnrecoverableFaultError
from ..hashing import RangeRouter, partition_range_by_counts
from .messages import CountRequest, CountVector, ReshuffleDone, ReshuffleOrder
from .replicate import ReplicationStrategy

__all__ = ["HybridStrategy"]


class HybridStrategy(ReplicationStrategy):
    """Replication during build + reshuffling before probe."""

    needs_reshuffle = True

    def reshuffle(self) -> Generator[Any, Any, None]:
        sched = self.sched
        router = sched.router
        assert isinstance(router, RangeRouter)
        groups = router.replicated_groups()
        # A group whose active replica spilled to disk cannot be reshuffled:
        # the disk-resident tuples cannot move, so the range must stay
        # replicated (probe broadcast reaches memory parts and the spill).
        members = [g for g in groups if not (set(g[1]) & sched.spilled_nodes)]
        if not members:
            return
        nodes = {j for _, chain in members for j in chain}

        # 1. Gather per-position counts from every replica-chain member,
        #    folding each sparse vector into its group's total.
        for rng, chain in members:
            for j in chain:
                yield from sched.send_to_join(j, CountRequest(rng.lo, rng.hi))
        totals = {rng.lo: np.zeros(rng.width, dtype=np.int64) for rng, _ in members}
        for msg in (yield from self.gather(CountVector, nodes)).values():
            totals[msg.lo][msg.offsets] += msg.counts

        # 2. Greedy contiguous cut per group; dispatch redistribution orders.
        new_entries = [e for e in router.entries if e not in members]
        for rng, chain in members:
            cuts = partition_range_by_counts(rng, totals[rng.lo], len(chain))
            assignments = tuple(zip(chain, cuts))
            order = ReshuffleOrder(assignments=assignments)
            for j in chain:
                yield from sched.send_to_join(j, order)
            new_entries.extend(
                (cut, (j,)) for j, cut in assignments if cut is not None
            )
            sched.ctx.trace("reshuffle_cut", "scheduler", range=str(rng),
                            parts=[str(c) for c in cuts])

        # 3. Await completion acknowledgements.
        done = yield from self.gather(ReshuffleDone, nodes)
        sched.outcome.reshuffle_moved_tuples += sum(
            m.moved_tuples for m in done.values())

        # 4. Drain the redistribution traffic, then install the new table.
        yield from sched.drain("build")
        new_entries.sort(key=lambda e: e[0].lo)
        sched.router = RangeRouter(
            positions=router.positions,
            entries=tuple(new_entries),
            version=sched.next_version(),
        )

    def gather(self, kind: type, nodes: set[int]) -> Generator[Any, Any, dict[int, Any]]:
        """One ``kind`` reply from every member.  Under a plan with crashes a
        member silent longer than a live one can be (the recruit deadline,
        then counting, repacking and shipping a full table) is dead."""
        sched, pending, timeout = self.sched, set(nodes), None
        if sched.ctx.faults is not None and sched.ctx.faults.plan.crashes:
            cost, full = sched.ctx.cost, sched.ctx.join_node(min(nodes)).memory.capacity
            timeout = sched._recruit_timeout + cost.wire_time(full) + (
                full // sched.cfg.workload.tuple_bytes
                * (cost.cpu_route_tuple + cost.cpu_repack_tuple))
        replies = yield from sched.gather(kind, pending, timeout=timeout)
        if pending:
            raise UnrecoverableFaultError(
                f"join node(s) {sorted(pending)} sent no {kind.__name__} during "
                "the reshuffle phase — working-node recovery is supported only "
                "in the build and probe phases (docs/FAULTS.md)")
        return replies
