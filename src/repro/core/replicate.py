"""Replication-based expansion (paper §4.2.2).

When a join node's bucket overflows, its hash-table range is **replicated**
on a freshly recruited node: the full node stops receiving build tuples
(forwarding anything pending), the data sources redirect the range's
remaining build traffic to the replica.  The node stays full because it
is no longer the tail of its range's replica chain.  No stored tuple ever
moves, so the build phase stays cheap — but every probe tuple whose hash
falls in a replicated range must be broadcast to the entire replica chain,
which is the strategy's probe-phase cost (``route_by_destination`` with
``probe=True`` lays a replicated range's tuples out once per replica).
"""

from __future__ import annotations

from collections.abc import Generator
from typing import Any

from ..hashing import RangeRouter
from .messages import ActivateJoin, ReliefAck, ReplicateOrder, RouteUpdate
from .strategy import Decision, ExpansionStrategy

__all__ = ["ReplicationStrategy"]


class ReplicationStrategy(ExpansionStrategy):
    """Replicate the overflowing range on the new node."""

    def decide(self, reporter: int) -> Generator[Any, Any, Decision | None]:
        router: RangeRouter = self.sched.router  # type: ignore[assignment]
        rng, _chain = router.entries[router.entry_index_of(reporter)]
        # Recruit the replica with the same hash range (acked — a dead
        # recruit is retried on a different pool node, and routing only
        # ever references confirmed-live replicas).
        new_node = yield from self.sched.recruit_node(
            lambda j: ActivateJoin(j, hash_range=rng)
        )
        if new_node is None:
            return None
        return Decision("replicate", reporter, new_node, reporter)

    def apply(self, decision: Decision) -> Generator[Any, Any, ReliefAck]:
        """Chain the replica (unless the table already has it), then tell
        the full node to forward its pending buffers and close; the order,
        the route update and the ack are idempotent at their receivers."""
        sched = self.sched
        full, new_node = decision.donor, decision.new_node
        router: RangeRouter = sched.router  # type: ignore[assignment]
        idx = router.entry_index_of(full)
        rng, chain = router.entries[idx]
        if new_node not in chain:
            sched.router = router.with_replica(idx, new_node, sched.next_version())
        yield from sched.send_to_join(full, ReplicateOrder(new_node=new_node))
        yield from sched.broadcast_to_sources(RouteUpdate(sched.router))
        sched.ctx.trace("expand_replicate", "scheduler",
                        reporter=full, new_node=new_node, range=str(rng))
        return (yield from sched.await_relief_ack(full))
