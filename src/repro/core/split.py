"""Split-based expansion (paper §4.2.1, after Amin et al.).

Three policies (see ``SplitPolicy`` and DESIGN.md §2):

* ``TARGETED_BISECT`` (default) — bisect the range of the node that
  reported memory full directly (the abstract's minimal reading).  Under
  skew the full node's range is re-bisected and its hot mass re-shipped
  each time — the re-communication the paper observes in Figures 10-13.
* ``LINEAR_POINTER`` — order-preserving linear hashing (ablation).  The
  scheduler's **split pointer** walks the buckets round-robin; when memory
  fills anywhere, the *pointed* bucket's contiguous hash range is bisected
  and the upper half (stored tuples included) moves to the new node.  The
  **barrier split pointer** is realized by the scheduler's serialized
  relief cycles: a bucket is never asked to split while a split is in
  flight.  Because the pointer, not the overflow, picks the victim, a
  full node under skew waits through futile splits of cold buckets.
* ``LINEAR_MOD`` — classic Litwin linear hashing with modulo addressing
  (``h_i(p) = p mod n0*2^i``), kept as an ablation: the modulo scatters
  contiguous hot positions across buckets and thereby *suppresses* the
  paper's skew pathology.  The :class:`LinearHashRouter` is the whole
  Litwin state (level, split pointer, bucket -> node map); the barrier
  split pointer is again the serialized relief cycle.

In every policy the hash space stays partitioned (never replicated), so
the probe phase needs no extra communication — the strategy's defining
trade against replication.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Generator
from typing import TYPE_CHECKING, Any

from ..config import SplitPolicy
from ..hashing import LinearHashRouter, RangeRouter, Router
from .messages import (
    ActivateJoin,
    BisectOrder,
    LinearSplitOrder,
    ReliefAck,
    ReliefPing,
    RouteUpdate,
    SplitDone,
)
from .strategy import Decision, ExpansionStrategy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .scheduler import SchedulerProcess

__all__ = ["SplitStrategy"]


class SplitStrategy(ExpansionStrategy):
    """Partition the overflowing range/bucket onto the new node."""

    def __init__(self, sched: SchedulerProcess, policy: SplitPolicy) -> None:
        super().__init__(sched)
        self.policy = policy
        #: round-robin split order over bucket owners (LINEAR_POINTER only)
        self.split_order: deque[int] = deque()

    # ------------------------------------------------------------------
    def make_initial_router(self, initial: list[int]) -> Router:
        if self.policy is SplitPolicy.LINEAR_MOD:
            return LinearHashRouter(len(initial), 0, 0, tuple(initial))
        if self.policy is SplitPolicy.LINEAR_POINTER:
            self.split_order = deque(initial)
        return super().make_initial_router(initial)

    # ------------------------------------------------------------------
    # decide: pick the victim, recruit the node that takes half of it
    # ------------------------------------------------------------------
    def decide(self, reporter: int) -> Generator[Any, Any, Decision | None]:
        sched = self.sched
        if self.policy is SplitPolicy.LINEAR_MOD:
            # The new bucket id is known before the recruit is (buckets
            # grow densely: m + s), so the ActivateJoin can be built for
            # any candidate and the table changed only when the decision
            # is applied.
            table: LinearHashRouter = sched.router  # type: ignore[assignment]
            donor = table.bucket_nodes[table.split_pointer]
            kind, arg = "linear", table.n_buckets
            slot: dict[str, Any] = {"bucket": arg}
        else:
            victim = self._victim(reporter)
            if victim is None:
                return None
            router: RangeRouter = sched.router  # type: ignore[assignment]
            rng, _ = router.entries[router.entry_index_of(victim)]
            _left, right = rng.bisect()
            kind, donor, arg = "bisect", victim, right.lo
            slot = {"hash_range": right}
        # Acked recruitment: the new node confirms it is alive before any
        # order or routing update references it (a crashed recruit would
        # otherwise swallow the moved range).  recruit_node retries other
        # pool nodes on timeout; None means the pool is exhausted.
        new_node = yield from sched.recruit_node(
            lambda j: ActivateJoin(j, **slot)
        )
        if new_node is None:
            return None
        return Decision(kind, donor, new_node, reporter, arg)

    def _victim(self, reporter: int) -> int | None:
        """The node whose range is bisected: the reporter itself
        (TARGETED_BISECT) or whatever bucket the split pointer names
        (LINEAR_POINTER).  ``None`` when only atomic ranges are left —
        splitting cannot relieve anyone."""
        router: RangeRouter = self.sched.router  # type: ignore[assignment]

        def splittable(node: int) -> bool:
            rng, _ = router.entries[router.entry_index_of(node)]
            return rng.width >= 2

        if self.policy is SplitPolicy.TARGETED_BISECT:
            return reporter if splittable(reporter) else None
        for _ in range(len(self.split_order)):
            if splittable(self.split_order[0]):
                return self.split_order[0]
            self.split_order.rotate(-1)  # atomic bucket: skip it this round
        return None

    # ------------------------------------------------------------------
    # apply: idempotent — a standby re-applies the logged decision
    # ------------------------------------------------------------------
    def apply(self, decision: Decision) -> Generator[Any, Any, ReliefAck]:
        sched = self.sched
        if decision.kind == "linear":
            yield from self._apply_linear(decision)
        else:
            ack = yield from self._apply_bisect(decision)
            if decision.donor == decision.reporter:
                return ack
        # The split went elsewhere (the pointer, not the overflow, picks
        # the victim): ask the full reporter to retry its parked buffers
        # against the (possibly unchanged) table.
        yield from sched.send_to_join(decision.reporter, ReliefPing())
        return (yield from sched.await_relief_ack(decision.reporter))

    def _apply_bisect(self, d: Decision) -> Generator[Any, Any, ReliefAck]:
        """LINEAR_POINTER & TARGETED_BISECT: the upper half of the
        victim's range (stored tuples included) moves to the new node."""
        sched = self.sched
        router: RangeRouter = sched.router  # type: ignore[assignment]
        idx = router.entry_index_for(d.arg)
        if router.entries[idx][0].lo != d.arg:  # the table predates the cut
            sched.router = router = router.with_bisection(
                idx, d.donor, d.new_node, sched.next_version()
            )
            idx += 1
            if self.policy is SplitPolicy.LINEAR_POINTER:
                # The pointer moves on: victim and newcomer go to the back.
                self.split_order.remove(d.donor)
                self.split_order.extend((d.donor, d.new_node))
        yield from sched.send_to_join(
            d.donor, BisectOrder(mid=d.arg, new_node=d.new_node)
        )
        yield from sched.broadcast_to_sources(RouteUpdate(sched.router))
        sched.ctx.trace("expand_split", "scheduler", policy=self.policy.value,
                        owner=d.donor, reporter=d.reporter, new_node=d.new_node,
                        left=str(router.entries[idx - 1][0]),
                        right=str(router.entries[idx][0]))
        t0 = sched.ctx.sim.now
        ack = yield from sched.await_relief_ack(d.donor)
        sched.record_split(moved=ack.moved_tuples, busy=sched.ctx.sim.now - t0)
        return ack

    def _apply_linear(self, d: Decision) -> Generator[Any, Any, None]:
        """LINEAR_MOD: classic Litwin addressing (ablation)."""
        sched = self.sched
        router: LinearHashRouter = sched.router  # type: ignore[assignment]
        if router.n_buckets != d.arg:
            return  # the split already executed and is in the table
        t0 = sched.ctx.sim.now
        # Buckets grow densely, so the pre-split table still names the
        # bucket and donor the decision was made for.
        bucket = router.split_pointer
        assert router.bucket_nodes[bucket] == d.donor
        yield from sched.send_to_join(
            d.donor,
            LinearSplitOrder(
                new_bucket=d.arg, modulus=router.modulus, new_node=d.new_node,
            ),
        )
        done: SplitDone = yield from sched.await_message(
            SplitDone, where={"node": d.donor})
        sched.router = router.with_split(d.new_node, sched.next_version())
        yield from sched.broadcast_to_sources(RouteUpdate(sched.router))
        sched.ctx.trace("expand_linear_mod", "scheduler",
                        reporter=d.reporter, owner=d.donor,
                        new_node=d.new_node, bucket=bucket, new_bucket=d.arg)
        sched.record_split(moved=done.moved_tuples, busy=sched.ctx.sim.now - t0)

    # ------------------------------------------------------------------
    # fault-layer hook (repro.core.recovery)
    # ------------------------------------------------------------------
    def adopt_router(self, router: Router) -> None:
        """Rebuild the LINEAR_POINTER split order from a routing table: the
        round-robin restarts in entry order — a fairness detail, not a
        correctness one."""
        if self.policy is SplitPolicy.LINEAR_POINTER:
            assert isinstance(router, RangeRouter)
            order: list[int] = []
            for _rng, chain in router.entries:
                for n in chain:
                    if n not in order:
                        order.append(n)
            self.split_order = deque(order)
