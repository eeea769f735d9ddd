"""The shared resource-pool actor (``repro.workload`` multi-tenancy).

One :class:`ResourcePoolProcess` owns every dormant join node of the
cluster and arbitrates them between concurrent queries — the paper's
"additional resources become available" made literal: a node is available
to a query exactly when no other query holds it.

Two request flavours arrive as :class:`~repro.core.messages.RecruitRequest`:

* **admission** (``admission=True``): a freshly arrived query asks for its
  ``initial_nodes``.  Admissions park in strict FIFO with head-of-line
  blocking and are never denied — the wait *is* the workload's queueing
  delay.  Head-of-line nodes are reserved: a recruit is only granted from
  nodes in excess of the oldest parked admission's need, so admissions can
  neither starve nor idle the pool.
* **recruit** (``admission=False``): a running query's scheduler asks for
  one expansion node mid-relief.  Recruits park under the configured
  :class:`~repro.config.PoolPolicy` and carry a deadline
  (``grant_timeout_s``); an expired or policy-capped request gets a
  :class:`~repro.core.messages.RecruitDeny`, and the scheduler degrades
  the reporter to the out-of-core spill path — denial is backpressure,
  never an error.

The finite recruit deadline is what makes the whole workload deadlock-free:
a denied query finishes via spilling, its :class:`QueryDone` releases its
nodes, and parked admissions proceed.

Determinism: requests are ordered by an arrival sequence number, grants
pick with :func:`~repro.core.potential.take_best` (most memory, lowest
index — the one rule a private potential list uses too), and deadlines are
checked on the pool's own :class:`~repro.core.messages.PollTick` ticker, so
no state depends on anything but simulation event order.

The query side of the wire is :class:`PoolClient`, the scheduler's
potential list (:mod:`repro.core.potential`) on a shared cluster.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from collections.abc import Callable, Generator
from typing import Any

from ..config import PoolPolicy
from ..cluster import Node
from ..obs import MetricsRegistry
from .actor import Actor
from .context import poll_ticker
from .messages import (
    PollTick,
    QueryDone,
    RecruitDeny,
    RecruitGrant,
    RecruitRequest,
    Shutdown,
)
from .potential import take_best

__all__ = ["PoolClient", "PoolStats", "ResourcePoolProcess"]


@dataclass
class PoolClient:
    """One query's potential list when the join nodes are shared: every
    operation is a message to the pool actor at ``node``.

    ``adopt(ctx, j)`` is the workload driver's callback that resets a
    granted node and spawns this query's
    :class:`~repro.core.joinnode.JoinProcess` on it — a dormant shared node
    must not be bound to any one query, so join processes exist only while
    a query holds the node.
    """

    node: Node
    query_id: int
    adopt: Callable[[Any, int], None]
    #: the admission grant (set by :meth:`admit`)
    initial: list[int] = field(default_factory=list)

    def admit(self, ctx: Any, want: int) -> Generator[Any, Any, None]:
        """Park at the pool until ``want`` initial nodes are free, then
        adopt them.  The grant is the only message that can reach this
        query's scheduler node before its pipeline exists."""
        sched_node = ctx.scheduler_node
        yield from ctx.send(
            sched_node, self.node,
            RecruitRequest(query=self.query_id, want=want, admission=True),
        )
        msg = yield from sched_node.mailbox.recv()
        if not (isinstance(msg, RecruitGrant) and msg.query == self.query_id):
            raise RuntimeError(
                f"query {self.query_id}: expected its admission "
                f"RecruitGrant, got {msg!r}"
            )
        self.initial = list(msg.nodes)
        for j in self.initial:
            self.adopt(ctx, j)

    def take(self, sched: Any, phase: str) -> Generator[Any, Any, int | None]:
        """Ask for one expansion node, carrying the relief cycle's memory
        deficit, and block for the one verdict — still serving the rest of
        the protocol.  A granted node is adopted first, so the ActivateJoin
        that follows finds a live actor; on a deny the caller degrades to
        the spill path, exactly as it would on an empty private list."""
        ctx = sched.ctx
        yield from ctx.send(
            sched.node, self.node,
            RecruitRequest(
                query=self.query_id, want=1, admission=False,
                deficit_bytes=sched.active_deficit, phase=phase,
            ),
        )
        msg = yield from sched.await_message(
            RecruitGrant, RecruitDeny, where={"query": self.query_id})
        if isinstance(msg, RecruitDeny):
            ctx.trace("recruit_denied", "scheduler",
                      reason=msg.reason, phase=phase)
            return None
        cand = msg.nodes[0]
        self.adopt(ctx, cand)
        return cand

    def shutdown_targets(self, sched: Any) -> list[int]:
        """Only what this query was granted: stopping the shared pool's
        dormant nodes would kill other queries' capacity."""
        return sorted(set(sched.activated) | set(sched.dead_nodes))

    def release(self, sched: Any) -> Generator[Any, Any, None]:
        """Hand back the nodes known alive and owned.  Zombies (granted
        but never acked) and timed-out recruits stay leaked — the pool
        shrinks, exactly as real hardware would."""
        return sched.ctx.send(
            sched.node, self.node,
            QueryDone(query=self.query_id,
                      released=tuple(sorted(sched.activated))),
        )

    def rebuilt(self, used: set[int]) -> PoolClient:
        """Nothing to infer: the pool actor keeps the free list."""
        return self


@dataclass
class PoolStats:
    """End-of-run pool accounting (also published as ``pool.*`` metrics)."""

    requests: int = 0
    admissions: int = 0
    grants: int = 0
    denials: int = 0
    denials_by_query: dict[int, int] = field(default_factory=dict)
    denials_by_reason: dict[str, int] = field(default_factory=dict)
    crashed_nodes: list[int] = field(default_factory=list)
    leaked_nodes: list[int] = field(default_factory=list)
    peak_in_use: int = 0


@dataclass
class _Parked:
    """One pending request with its deadline (a queue keeps arrival order)."""

    req: RecruitRequest
    enqueued_at: float
    deadline: float | None  # None: admissions never expire


class ResourcePoolProcess(Actor):
    """Drive with ``sim.spawn(pool.run())``; stats in ``pool.stats``."""

    def __init__(
        self,
        sim: Any,
        network: Any,
        node: Node,
        free_nodes: list[int],
        sched_nodes: dict[int, Node],
        *,
        metrics: MetricsRegistry,
        policy: PoolPolicy = PoolPolicy.FIFO,
        fair_share_cap: int = 4,
        grant_timeout_s: float = 0.1,
        poll_interval: float = 0.001,
        memory_of: Callable[[int], int] = lambda j: 0,
        trace: Callable[..., None] | None = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.node = node
        self.free: list[int] = list(free_nodes)
        self.sched_nodes = dict(sched_nodes)
        self.policy = policy
        self.fair_share_cap = fair_share_cap
        self.grant_timeout_s = grant_timeout_s
        self.poll_interval = poll_interval
        self.memory_of = memory_of
        self.metrics = metrics
        self._trace = trace
        self.total_nodes = len(self.free)

        self.stats = PoolStats()
        #: query -> pool nodes it currently holds (grant order)
        self.held: dict[int, list[int]] = {}
        #: query -> how many of its held nodes were its admission grant
        self._admitted_count: dict[int, int] = {}
        self.crashed: list[int] = []
        self._admission_q: deque[_Parked] = deque()
        self._recruit_q: list[_Parked] = []
        self._stopped = False

    def __str__(self) -> str:
        return "pool"

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def trace(self, event: str, **fields: Any) -> None:
        if self._trace is not None:
            self._trace(event, "pool", **fields)

    def _sample_levels(self) -> None:
        in_use = self._in_use
        self.metrics.set_gauge("pool.free_nodes", len(self.free))
        self.metrics.observe("pool.nodes_in_use", in_use)
        if in_use > self.stats.peak_in_use:
            self.stats.peak_in_use = in_use

    @property
    def _in_use(self) -> int:
        return sum(len(nodes) for nodes in self.held.values())

    def _extra_held(self, query: int) -> int:
        """Nodes ``query`` holds beyond its admission grant."""
        return len(self.held.get(query, [])) - self._admitted_count.get(query, 0)

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self) -> Generator[Any, Any, PoolStats]:
        poll_ticker(self.sim, self.node.mailbox, self.poll_interval,
                    lambda: self._stopped)
        self._sample_levels()
        recv, dispatch, keep = self.node.mailbox.recv, self.dispatch, self._busy
        while not self._stopped:  # a row returns a generator, or None
            work = dispatch((yield from recv(keep)))
            if work is not None:
                yield from work
        # Held-but-never-released nodes (zombie recruits) are leaked.
        for query in sorted(self.held):
            for j in self.held[query]:
                self.stats.leaked_nodes.append(j)
        self._sample_levels()
        return self.stats

    def _busy(self, msg: Any) -> bool:
        """:meth:`run`'s screen: an idle tick (nearly every message of a
        sparse workload) has nothing parked to expire or serve."""
        return not (type(msg) is PollTick
                    and not self._recruit_q and not self._admission_q)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _on_tick(self, _msg: PollTick) -> Generator[Any, Any, None]:
        yield from self._expire_recruits()
        yield from self._serve()

    def _on_shutdown(self, _msg: Shutdown) -> None:
        self._stopped = True

    def _on_request(self, req: RecruitRequest) -> Generator[Any, Any, None]:
        self.stats.requests += 1
        now = self.sim.now
        parked = _Parked(req, now, None)
        self.metrics.inc("pool.recruit_requests", 1,
                         admission=str(req.admission).lower())
        if req.admission:
            self._admission_q.append(parked)
            self.trace("pool_admission_request", query=req.query,
                       want=req.want)
        else:
            if (
                self.policy is PoolPolicy.FAIR_SHARE
                and self._extra_held(req.query) >= self.fair_share_cap
            ):
                yield from self._deny(parked, "fair_share_cap")
                return
            parked.deadline = now + self.grant_timeout_s
            self._recruit_q.append(parked)
            self.trace("pool_recruit_request", query=req.query,
                       phase=req.phase, deficit=req.deficit_bytes)
        yield from self._serve()

    def _on_query_done(self, msg: QueryDone) -> Generator[Any, Any, None]:
        released = [j for j in msg.released if j not in self.crashed]
        for j in released:
            held = self.held.get(msg.query, [])
            if j in held:
                held.remove(j)
                self.free.append(j)
        self.held.pop(msg.query, None)
        self._admitted_count.pop(msg.query, None)
        self.trace("pool_release", query=msg.query, released=len(released),
                   free=len(self.free))
        self.metrics.inc("pool.releases", len(released))
        self._sample_levels()
        yield from self._serve()

    # ------------------------------------------------------------------
    # arbitration
    # ------------------------------------------------------------------
    def _serve(self) -> Generator[Any, Any, None]:
        # Admissions first: strict FIFO with head-of-line blocking.
        while self._admission_q and len(self.free) >= self._admission_q[0].req.want:
            parked = self._admission_q.popleft()
            nodes = [
                take_best(self.free, self.memory_of)
                for _ in range(parked.req.want)
            ]
            self.stats.admissions += 1
            self._admitted_count[parked.req.query] = len(nodes)
            self.metrics.set_gauge(
                "pool.admission_wait_s", self.sim.now - parked.enqueued_at
            )
            yield from self._grant(parked, nodes)
        # Recruits only from nodes beyond the oldest admission's need.
        reserve = self._admission_q[0].req.want if self._admission_q else 0
        while self._recruit_q and len(self.free) > reserve:
            parked = self._pick_recruit()
            if parked is None:
                break
            self._recruit_q.remove(parked)
            yield from self._grant(
                parked, [take_best(self.free, self.memory_of)]
            )

    def _pick_recruit(self) -> _Parked | None:
        """Next parked recruit under the configured policy, or None when
        no parked request is currently eligible."""
        candidates = self._recruit_q  # in arrival order; sorted() is stable
        if self.policy is PoolPolicy.MEMORY_DEFICIT:
            candidates = sorted(candidates, key=lambda p: p.req.deficit_bytes)
        for parked in candidates:
            if (
                self.policy is PoolPolicy.FAIR_SHARE
                and self._extra_held(parked.req.query) >= self.fair_share_cap
            ):
                continue  # holdings grew while parked; deadline handles it
            return parked
        return None

    def _grant(self, parked: _Parked, nodes: list[int]) -> Generator[Any, Any, None]:
        query = parked.req.query
        self.held.setdefault(query, []).extend(nodes)
        self.stats.grants += len(nodes)
        self.metrics.inc("pool.recruit_grants", len(nodes))
        self._sample_levels()
        self.trace("pool_grant", query=query, nodes=list(nodes),
                   waited=self.sim.now - parked.enqueued_at)
        yield from self.network.send(
            self.node, self.sched_nodes[query],
            RecruitGrant(query=query, nodes=tuple(nodes)),
        )

    def _deny(self, parked: _Parked, reason: str) -> Generator[Any, Any, None]:
        query = parked.req.query
        self.stats.denials += 1
        self.stats.denials_by_query[query] = (
            self.stats.denials_by_query.get(query, 0) + 1
        )
        self.stats.denials_by_reason[reason] = (
            self.stats.denials_by_reason.get(reason, 0) + 1
        )
        self.metrics.inc("pool.recruit_denials", 1, reason=reason)
        self.trace("pool_deny", query=query, reason=reason)
        yield from self.network.send(
            self.node, self.sched_nodes[query],
            RecruitDeny(query=query, reason=reason),
        )

    def _expire_recruits(self) -> Generator[Any, Any, None]:
        now = self.sim.now
        expired = [
            p for p in self._recruit_q
            if p.deadline is not None and now >= p.deadline
        ]
        for parked in expired:
            self._recruit_q.remove(parked)
            yield from self._deny(parked, "timeout")

    # ------------------------------------------------------------------
    # faults (workload chaos: crash a node still sitting in the pool)
    # ------------------------------------------------------------------
    def crash_node(self, j: int) -> None:
        """Fail-stop a *pool-resident* (dormant, unheld) node.

        Called by the workload driver's crash timers.  A node currently
        held by a query is out of the supported crash model (it may hold
        join state) — the crash is recorded as a no-op, mirroring
        ``FaultInjector._fire_crash`` on an already-dead target.
        """
        if j in self.free:
            self.free.remove(j)
            self.crashed.append(j)
            self.stats.crashed_nodes.append(j)
            self.metrics.inc("pool.node_crashes", 1)
            self.trace("pool_node_crash", node=j)
            self._sample_levels()
        else:
            self.trace("pool_crash_noop", node=j)
