"""Control-plane fault tolerance: failure detection and scheduler failover.

Two actors live here, both only built when the fault plan arms the
membership layer (``FaultPlan.membership_active``):

* :class:`Membership` — the primary scheduler's heartbeat failure
  detector.  It pings every watched join node (and the standby) over the
  same faulty interconnect the data flows on — there is **no oracle**: a
  slowed link is indistinguishable from a dead peer, so the detector uses
  a two-stage timeout (*suspect* then *confirm*) and publishes a
  ``membership.false_positive`` metric whenever a suspicion resolves.
  Only a *confirmed* silence becomes a :class:`DeathVerdict`, which the
  scheduler turns into a recovery cycle
  (:class:`~repro.core.recovery.FaultTolerantScheduler`); a falsely
  declared node is fenced — never trusted again — but the query still
  terminates with exact counts because its hash range is re-streamed to a
  fresh node and the survivor quarantines itself on ``NodeLost``.
* :class:`BackupSchedulerProcess` — a standby scheduler that passively
  replicates the primary's routing decisions (:class:`StateSync`, shipped
  WAL-style *before* the primary acts) and watches a dead-man timer fed
  by any primary traffic.  When the primary falls silent past the confirm
  timeout it takes over: repoints ``ctx.scheduler_node``, deposes the old
  primary (split-brain backstop), rebuilds a fault-tolerant scheduler
  from the last snapshot, re-drives the in-flight decision and resumes
  the interrupted phase.  Everyone else re-announces state the primary
  may have taken to its grave on :class:`SchedulerFailover`.

Timing defaults derive from the drain-poll interval so one knob scales
the whole control plane; all three can be pinned in the fault plan.
"""

from __future__ import annotations

from collections.abc import Callable, Generator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from ..sim import Interrupt
from .context import poll_ticker
from .messages import (
    DeathVerdict,
    Depose,
    HeartbeatAck,
    HeartbeatPing,
    PollTick,
    Shutdown,
    StateSync,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..config import RunConfig
    from ..faults import FaultPlan
    from .context import RunContext
    from .recovery import FaultTolerantScheduler

__all__ = ["MembershipTiming", "resolve_timing", "Membership",
           "BackupSchedulerProcess"]


@dataclass(frozen=True)
class MembershipTiming:
    """Resolved detector timings (simulated seconds)."""

    interval: float  #: heartbeat period
    suspect: float   #: silence before a node is suspected
    confirm: float   #: silence before a suspected node is declared dead


def resolve_timing(plan: FaultPlan, cfg: RunConfig) -> MembershipTiming:
    """Fill unset knobs from the drain-poll interval.

    Defaults are deliberately generous (suspect at 6 missed heartbeats,
    confirm at 20) so congestion alone rarely produces a false verdict;
    tests pin tighter values to exercise the false-positive path."""
    interval = plan.heartbeat_interval_s or 2.0 * cfg.effective_drain_poll
    suspect = plan.suspect_timeout_s or 6.0 * interval
    confirm = plan.confirm_timeout_s or 20.0 * interval
    return MembershipTiming(interval, suspect, max(confirm, suspect))


class Membership:
    """Heartbeat failure detector, run by the *primary* scheduler.

    One generator (:meth:`loop`) pings; ack bookkeeping (:meth:`note_ack`)
    is driven by the scheduler's dispatch, because acks arrive in the
    scheduler mailbox.  Verdicts are delivered as local
    :class:`DeathVerdict` messages into the same mailbox, so the
    scheduler consumes them at a protocol-safe point (a message
    boundary), never mid-decision.
    """

    def __init__(self, sched: FaultTolerantScheduler) -> None:
        self.sched = sched
        self.ctx: RunContext = sched.ctx
        assert self.ctx.faults is not None
        self.timing = resolve_timing(self.ctx.faults.plan, self.ctx.cfg)
        self._token = 0
        self._last_ack: dict[int, float] = {}
        self.suspected: set[int] = set()
        self._declared: set[int] = set()

    # ------------------------------------------------------------------
    def note_ack(self, msg: HeartbeatAck) -> None:
        """An ack arrived; a live suspicion resolving is a false positive."""
        j = msg.node
        self._last_ack[j] = self.ctx.sim.now
        if j in self.suspected:
            self.suspected.discard(j)
            if j not in self._declared:
                self.ctx.metrics.inc("membership.false_positive", 1)
                self.ctx.trace("suspicion_cleared", "scheduler", node=j)

    # ------------------------------------------------------------------
    def loop(self, stopped: Callable[[], bool]) -> Generator[Any, Any, None]:
        """Ping watched nodes each interval and grade their silence.

        Pings are best-effort (single transmit, no retransmission): a
        *lost* heartbeat must look exactly like a dead peer, or the
        detector would be an oracle.  The standby is pinged too, so its
        dead-man timer stays fresh between state syncs.

        The ``stopped`` predicate covers the idle path; a halt that lands
        while a ping is mid-send arrives as an :class:`Interrupt` instead
        (a crashed primary can strand this loop on its node's dead CPU
        forever — the predicate is only checked between ticks)."""
        try:
            yield from self._loop(stopped)
        except Interrupt:
            return

    def _loop(self, stopped: Callable[[], bool]) -> Generator[Any, Any, None]:
        ctx = self.ctx
        sched = self.sched
        while not stopped():
            yield ctx.sim.timeout(self.timing.interval)
            if stopped():
                return
            self._token += 1
            now = ctx.sim.now
            watched = [j for j in sched.activated if j not in sched.fenced]
            for j in watched:
                self._last_ack.setdefault(j, now)
                yield from ctx.send(
                    sched.node, ctx.join_node(j),
                    HeartbeatPing(self._token), best_effort=True,
                )
                ctx.metrics.inc("membership.pings", 1)
            backup = ctx.backup_node
            if backup is not None and backup is not sched.node:
                yield from ctx.send(
                    sched.node, backup, HeartbeatPing(self._token),
                    best_effort=True,
                )
            if sched._phase not in ("build", "probe"):
                # Grading pauses outside the recovery envelope: reshuffle
                # and out-of-core passes park nodes in long disk/transfer
                # operations where silence means busy, not dead — and a
                # verdict here could not be acted on anyway.  Pings (and
                # the standby dead-man refresh) continue so acks keep
                # clearing suspicions.
                continue
            for j in watched:
                if j in self._declared:
                    continue
                silent = now - self._last_ack.get(j, now)
                if silent >= self.timing.confirm and j in self.suspected:
                    self._declared.add(j)
                    ctx.metrics.inc("membership.deaths_declared", 1)
                    ctx.trace("death_declared", "scheduler", node=j,
                              silent_s=silent)
                    sched.node.mailbox.put(DeathVerdict(j))
                elif silent >= self.timing.suspect and j not in self.suspected:
                    self.suspected.add(j)
                    ctx.metrics.inc("membership.suspected", 1)
                    ctx.trace("suspected", "scheduler", node=j,
                              silent_s=silent)


class BackupSchedulerProcess:
    """Standby scheduler: replicate passively, take over on silence.

    The dead-man timer resets on *any* primary traffic (heartbeats or
    state syncs) and fires after the membership confirm timeout.  On
    takeover the backup's node becomes "the scheduler" for every actor
    (see ``RunContext.set_scheduler_node``) and a fresh
    :class:`~repro.core.recovery.FaultTolerantScheduler` — running inline
    in this process, on this mailbox — adopts the last snapshot and
    resumes the interrupted phase.
    The query outcome then lives in ``self.outcome`` (the driver falls
    back to it when the primary returned none).
    """

    def __init__(self, ctx: RunContext) -> None:
        assert ctx.backup_node is not None
        assert ctx.faults is not None
        self.ctx = ctx
        self.node = ctx.backup_node
        self.outcome: Any = None
        #: the adopted scheduler after a takeover (diagnostics)
        self.scheduler: FaultTolerantScheduler | None = None
        #: the spawned simulation process (set by the primary's ``spawn``)
        self.proc: Any = None
        self.timing = resolve_timing(ctx.faults.plan, ctx.cfg)
        self._stopped = False

    # ------------------------------------------------------------------
    def run(self) -> Generator[Any, Any, None]:
        ctx = self.ctx
        ctx.sim.spawn(
            poll_ticker(ctx.sim, self.node.mailbox, self.timing.interval,
                        lambda: self._stopped),
            name="backup-deadman",
        )
        last_primary = ctx.sim.now
        sync: StateSync | None = None
        try:
            while True:
                msg = yield from self.node.mailbox.recv()
                if isinstance(msg, StateSync):
                    if sync is None or msg.sync_seq > sync.sync_seq:
                        sync = msg
                    last_primary = ctx.sim.now
                elif isinstance(msg, HeartbeatPing):
                    last_primary = ctx.sim.now
                elif isinstance(msg, PollTick):
                    if ctx.sim.now - last_primary >= self.timing.confirm:
                        self._stopped = True
                        self.outcome = yield from self._takeover(sync)
                        return
                elif isinstance(msg, Shutdown):
                    return  # primary finished the query; stand down
                # anything else is stray traffic for a standby: ignore
        finally:
            self._stopped = True

    # ------------------------------------------------------------------
    def _takeover(self, sync: StateSync | None) -> Generator[Any, Any, Any]:
        ctx = self.ctx
        ctx.metrics.inc("sched.failover_count", 1)
        ctx.trace("failover", "backup",
                  phase=sync.phase if sync is not None else "fresh",
                  sync_seq=sync.sync_seq if sync is not None else -1)
        old_primary = ctx.cluster.scheduler_node
        ctx.set_scheduler_node(self.node)
        # Split-brain backstop: if the primary is merely slow (a false
        # dead-man verdict), it must stand down — two schedulers driving
        # one query would both run relief cycles and corrupt the router.
        yield from ctx.send(self.node, old_primary,
                            Depose(self.node.node_id))
        from .recovery import FaultTolerantScheduler

        sched = FaultTolerantScheduler(ctx)  # resolves to the backup node now
        self.scheduler = sched
        return (yield from sched.resume_after_takeover(sync))
