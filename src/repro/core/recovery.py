"""Control-plane fault tolerance for the paper's three actors, layered on.

:class:`FaultTolerantScheduler`, :class:`FaultTolerantJoinProcess` and
:class:`FaultTolerantDataSource` are the scheduler, the join process and
the data source wrapped at their decision points; ``driver.actor_classes``
picks them instead of the plain ones exactly when the cluster has a
standby scheduler machine — which ``Cluster.build`` adds when the fault
plan arms the membership layer.  The scheduler is the whole control plane,
as the primary and as the standby it spawns on the backup node; it gains:

* **failure detection** — heartbeats over the same faulty network the
  data uses, silence graded *suspect* then *confirm*.  There is no
  oracle, so a verdict can be false: the node is fenced all the same;
* **write-ahead replication** — every checkpoint and in-flight
  :class:`Decision` (an expansion or a recovery) reaches the standby as a
  :class:`StateSync` *before* the primary acts on it;
* **working-node recovery** — a :class:`DeathVerdict` unwinds whatever
  wait is in progress to the drain loop, which fences the node, collapses
  its hash range onto a fresh recruit and has the sources re-stream it;
* **takeover** — on primary silence the standby adopts the last snapshot,
  makes everyone re-announce what the primary took to its grave,
  re-drives the logged decision (every step is idempotent) and resumes.

The join process gains heartbeat acks, fencing of dead peers (traffic to
them dropped, their share of the drain counters subtracted), the purge of a
broken replica chain and re-announcement to a new scheduler; the data
source the replay of a dead node's hash range and the same re-announcement.

Build and probe phases only (docs/FAULTS.md §"Control-plane failure model").
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Generator
from typing import Any

import numpy as np

from ..data import ChunkBuffer, RelationStream
from ..faults import UnrecoverableFaultError
from ..hashing import LinearHashRouter, RangeRouter, Router
from ..sim import Interrupt
from .context import RunContext, poll_ticker
from .datasource import DataSourceProcess
from .joinnode import JoinProcess
from .messages import (
    ActivateAck,
    ActivateJoin,
    DataChunk,
    DeathVerdict,
    Depose,
    HeartbeatAck,
    HeartbeatPing,
    MemoryFull,
    NodeLost,
    NodeLostAck,
    PollTick,
    ReliefAck,
    ReplayDone,
    ReplayOrder,
    SchedulerFailover,
    Shutdown,
    StartProbe,
    StateSync,
    StatusReport,
    StatusRequest,
)
from .scheduler import SchedulerOutcome, SchedulerProcess
from .strategy import Decision

__all__ = ["FaultTolerantScheduler", "FaultTolerantJoinProcess",
           "FaultTolerantDataSource"]


class _NodeDied(Exception):
    """Internal control flow: a DeathVerdict surfaced in dispatch.

    Raised out of ``_dispatch_common`` so whatever protocol wait is in
    progress unwinds to the drain loop, which runs the recovery cycle —
    recovery must never run from the middle of a relief decision."""

    def __init__(self, node: int) -> None:
        super().__init__(f"join node {node} declared dead")
        self.node = node


class _Deposed(Exception):
    """Internal control flow: the standby took over while we were alive
    (a dead-man false positive).  The old primary stands down silently."""


class FaultTolerantScheduler(SchedulerProcess):
    """The scheduler plus its failure detector, WAL replication, node
    recovery and — in its standby role — takeover."""

    def __init__(self, ctx: RunContext) -> None:
        super().__init__(ctx)
        assert ctx.faults is not None and ctx.backup_node is not None
        #: pool indices declared dead — excluded from routing, polling and
        #: the sent-side of the drain balance
        self.fenced: set[int] = set()
        #: in-flight relief/recovery decision, WAL-replicated to the backup
        self._pending: Decision | None = None
        #: (donor, new node) of every split logged, oldest first
        self._splits: list[tuple[int, int]] = []
        #: reporter whose relief cycle a recovery unwind abandoned
        self._abandoned_reporter: int | None = None
        self._recovering = False
        #: a death in the drain now being served can be recovered from
        self._recoverable = False
        self._sync_seq = 0
        #: (recovery_id, source, relation) of absorbed ReplayDones
        self._replay_seen: set[tuple[int, int, str]] = set()
        #: ActivateAcks consumed by _dispatch_common while another await
        #: held the main loop (e.g. a recovery during initial activation)
        self._stray_activate_acks: set[int] = set()
        # Detector timings (simulated s) default from the drain-poll
        # interval, so one knob scales the whole control plane.  They are
        # generous — suspect at 6 missed heartbeats, confirm at 20 — so
        # congestion alone rarely produces a false verdict; tests pin
        # tighter values to exercise the false-positive path.
        plan = ctx.faults.plan
        self._hb_interval = (plan.heartbeat_interval_s
                             or 2.0 * self.cfg.effective_drain_poll)
        self._suspect_s = plan.suspect_timeout_s or 6.0 * self._hb_interval
        self._confirm_s = max(plan.confirm_timeout_s
                              or 20.0 * self._hb_interval, self._suspect_s)
        # detector state (its loop, :meth:`_detect`, runs on the primary)
        self._hb_token = 0
        self._last_ack: dict[int, float] = {}
        self.suspected: set[int] = set()
        self._declared: set[int] = set()
        self._detector_proc: Any = None
        #: stops the standby's dead-man ticker (``_background_stopped``
        #: gates this scheduler's own loops once it took over)
        self._deadman_stopped = False
        # The failure detector subsumes the initial-ack deadline: a dead
        # initial node is *recoverable* (confirmed death → recovery cycle),
        # so give the detector time to reach its verdict first.
        self._initial_ack_timeout_s = max(
            self._initial_ack_timeout_s,
            self._confirm_s + 4.0 * self._hb_interval,
        )
        #: the standby scheduler (primary only; set by :meth:`spawn`)
        self.standby: FaultTolerantScheduler | None = None
        cls = type(self)
        self._handlers.update({
            HeartbeatAck: cls._on_heartbeat_ack,
            DeathVerdict: cls._on_death_verdict,
            ReplayDone: cls._note_replay_done,
            NodeLostAck: cls._ignore,  # a recovery fan-out that completed
            Depose: cls._on_depose,
            ReliefAck: cls._on_abandoned_relief_ack,
        })

    def spawn(self, name: str) -> None:
        """Spawn the primary and, on the backup node, the standby: this
        class in its other role (:meth:`_stand_by`)."""
        super().spawn(name)
        standby = self.standby = type(self)(self.ctx)
        standby.node = self.ctx.backup_node  # before anything reads it
        standby.proc = self.ctx.sim.spawn(standby._stand_by(),
                                          name="sched-backup")

    def result(self) -> SchedulerOutcome | None:
        """The outcome from whichever of the two finished the query: a
        killed (or deposed) primary returns none and the standby owns it."""
        outcome = super().result()
        if outcome is None and self.standby is not None:
            outcome = self.standby.result()
        return outcome

    # ------------------------------------------------------------------
    # dispatch rows the layer adds
    # ------------------------------------------------------------------
    def _on_memory_full(self, msg: MemoryFull) -> None:
        if msg.node not in self.fenced:  # else: a dead node's parting words
            super()._on_memory_full(msg)

    def _on_heartbeat_ack(self, msg: HeartbeatAck) -> None:
        """An ack arrived; a live suspicion resolving is a false positive."""
        j = msg.node
        self._last_ack[j] = self.ctx.sim.now
        if j in self.suspected:
            self.suspected.discard(j)
            if j not in self._declared:
                self.ctx.metrics.inc("membership.false_positive", 1)
                self.ctx.trace("suspicion_cleared", "scheduler", node=j)

    def _on_death_verdict(self, msg: DeathVerdict) -> None:
        if msg.node in self.fenced or msg.node not in self.activated:
            return  # already recovered, or never part of this query
        if self._recovering:
            raise UnrecoverableFaultError(
                f"join node {msg.node} declared dead while recovering "
                "from an earlier failure — concurrent working-node "
                "failures are out of scope (docs/FAULTS.md)"
            )
        raise _NodeDied(msg.node)

    def _on_depose(self, msg: Depose) -> None:
        raise _Deposed()

    def _on_abandoned_relief_ack(self, msg: ReliefAck) -> None:
        # Un-awaited ack: the relief cycle that requested it was
        # abandoned by a recovery unwind.  Re-queue if still stuck.
        if msg.still_full:
            self._requeue(msg.node)

    def _on_stray_activate_ack(self, msg: ActivateAck) -> None:
        # Besides a zombie recruit's late ack, this may be an initial
        # node's ack landing while a recovery holds the main loop; the
        # initial-activation await drains the stray set.
        self._stray_activate_acks.add(msg.node)
        super()._on_stray_activate_ack(msg)

    def _requeue(self, node: int) -> None:
        """Queue a relief cycle for a live node still sitting on a parked
        backlog nobody will ping it about."""
        if (node in self.activated and node not in self.fenced
                and node not in self.full_queue):
            self.full_queue.append(node)
            self._prev_round = None

    def _cancel_relief(self, node: int) -> None:
        while node in self.full_queue:
            self.full_queue.remove(node)
        self._full_info.pop(node, None)

    def _source_sent(self, relation: str) -> int:
        """Minus the chunks addressed to fenced nodes (absorbed by a
        tombstone, never to be retired).  Purged-but-live survivors are
        *not* fenced here: they stay activated and retire their traffic,
        so their receipts balance."""
        return sum(
            n for dest, n in self._source_chunk_maps[relation].items()
            if dest not in self.fenced
        )

    def _note_replay_done(self, msg: ReplayDone) -> None:
        """Fold a replay's chunk counts into the drain balance, once."""
        key = (msg.recovery_id, msg.source, msg.relation)
        if key not in self._replay_seen:
            self._replay_seen.add(key)
            self._count_sent(msg.relation, msg.chunks_sent)
            self._prev_round = None

    def _unrecoverable_death(self, node: int) -> UnrecoverableFaultError:
        return UnrecoverableFaultError(
            f"join node {node} declared dead during the {self._phase} "
            "phase — working-node recovery is supported only in the "
            "build and probe phases (docs/FAULTS.md)"
        )

    # ------------------------------------------------------------------
    # state replication to the standby (write-ahead)
    # ------------------------------------------------------------------
    def checkpoint(self) -> Generator[Any, Any, None]:
        """Ship a state snapshot to the standby scheduler (not after a
        takeover: the standby does not re-replicate to itself)."""
        backup = self.ctx.backup_node
        if backup is self.node:
            return
        self._sync_seq += 1
        yield from self.ctx.send(
            self.node, backup,
            StateSync(
                sync_seq=self._sync_seq, phase=self._phase,
                router=self.router, activated=tuple(self.activated),
                fenced=tuple(sorted(self.fenced)),
                pending=self._pending, splits=tuple(self._splits),
            ),
        )

    def log_decision(self, decision: Decision | None) -> Generator[Any, Any, None]:
        """Record an in-flight decision *before* acting on it, so the
        standby can apply it again after a takeover; ``None`` clears it."""
        if decision is not None and decision.kind in ("bisect", "linear"):
            split = (decision.donor, decision.new_node)
            if split not in self._splits:  # a re-driven decision
                self._splits.append(split)
        if decision is not None or self._pending is not None:
            self._pending = decision
            yield from self.checkpoint()

    # ------------------------------------------------------------------
    # the wrapped decision points
    # ------------------------------------------------------------------
    def run(self) -> Generator[Any, Any, SchedulerOutcome | None]:
        return self._guarded(super().run())

    def _guarded(
        self, body: Generator[Any, Any, SchedulerOutcome | None]
    ) -> Generator[Any, Any, SchedulerOutcome | None]:
        try:
            return (yield from body)
        except Interrupt:
            # Injected crash: die silently mid-protocol.  Background loops
            # are flag-stopped — the silence is what the standby detects.
            self._halt_background()
            self.ctx.trace("scheduler_crashed", "scheduler",
                           phase=self._phase)
            return None
        except _Deposed:
            self._halt_background()
            self.ctx.trace("scheduler_deposed", "scheduler")
            return None
        except _NodeDied as e:
            raise self._unrecoverable_death(e.node) from e

    def _start_background(self) -> None:
        """The failure detector gates on the ticker's stop flag: a crashed
        or deposed primary stops both, and that silence is exactly what
        the standby's dead-man timer and the joins' ping loss observe."""
        super()._start_background()
        self._detector_proc = self.ctx.sim.spawn(self._detect(),
                                                 name="membership")

    def _halt_background(self) -> None:
        super()._halt_background()
        # The flag only covers the detector's idle path: a ping that is
        # mid-send when the primary dies would wait on the dead node's
        # CPU forever.  Interrupt it out of the send (it treats the
        # Interrupt as a clean stop).
        proc, self._detector_proc = self._detector_proc, None
        if proc is not None and proc.is_alive:
            proc.interrupt(cause=("membership_halt",))

    def _detect(self) -> Generator[Any, Any, None]:
        """The heartbeat failure detector: ping the watched nodes each
        interval and grade their silence.

        Pings are best-effort (single transmit, no retransmission): a
        *lost* heartbeat must look exactly like a dead peer, or the
        detector would be an oracle.  The standby is pinged too, so its
        dead-man timer stays fresh between state syncs.  A verdict enters
        this scheduler's own mailbox as a :class:`DeathVerdict`, consumed
        at a message boundary, never mid-decision."""
        ctx = self.ctx
        try:
            while not self._background_stopped:
                yield ctx.sim.timeout(self._hb_interval)
                if self._background_stopped:
                    return
                self._hb_token += 1
                now = ctx.sim.now
                watched = [j for j in self.activated if j not in self.fenced]
                for j in watched:
                    self._last_ack.setdefault(j, now)
                    yield from ctx.send(
                        self.node, ctx.join_node(j),
                        HeartbeatPing(self._hb_token), best_effort=True,
                    )
                    ctx.metrics.inc("membership.pings", 1)
                if ctx.backup_node is not self.node:
                    yield from ctx.send(
                        self.node, ctx.backup_node,
                        HeartbeatPing(self._hb_token), best_effort=True,
                    )
                if self._phase not in ("build", "probe"):
                    # Grading pauses outside the recovery envelope:
                    # reshuffle and out-of-core passes park nodes in long
                    # disk/transfer operations where silence means busy,
                    # not dead — and a verdict here could not be acted on
                    # anyway.  Pings (and the standby dead-man refresh)
                    # continue so acks keep clearing suspicions.
                    continue
                for j in watched:
                    if j in self._declared:
                        continue
                    silent = now - self._last_ack.get(j, now)
                    if silent >= self._confirm_s and j in self.suspected:
                        self._declared.add(j)
                        ctx.metrics.inc("membership.deaths_declared", 1)
                        ctx.trace("death_declared", "scheduler", node=j,
                                  silent_s=silent)
                        self.node.mailbox.put(DeathVerdict(j))
                    elif (silent >= self._suspect_s
                          and j not in self.suspected):
                        self.suspected.add(j)
                        ctx.metrics.inc("membership.suspected", 1)
                        ctx.trace("suspected", "scheduler", node=j,
                                  silent_s=silent)
        except Interrupt:
            return  # halted mid-send (see _halt_background)

    def _await_initial_acks(self, pending: set[int]) -> Generator[Any, Any, None]:
        while pending:
            try:
                return (yield from super()._await_initial_acks(pending))
            except _NodeDied as e:
                # An initial node died before confirming activation:
                # recover it like any working-node death — its range
                # moves to a fresh recruit and the sources replay.
                yield from self._handle_node_death(e.node)
                pending.discard(e.node)
                pending -= self._stray_activate_acks

    def drain(self, phase: str) -> Generator[Any, Any, None]:
        # The hybrid reshuffle drains its traffic as "build" too, but a
        # death there is outside the recovery envelope.
        self._recoverable = self._phase != "reshuffle"
        return super().drain(phase)

    def _drain_loop(self) -> Generator[Any, Any, None]:
        while True:
            try:
                return (yield from super()._drain_loop())
            except _NodeDied as e:
                if not self._recoverable:
                    raise
                yield from self._handle_node_death(e.node)

    def _relief_cycle(
        self, reporter: int, deficit: int, edge: int | None
    ) -> Generator[Any, Any, None]:
        self._abandoned_reporter = reporter  # until the cycle completes
        yield from super()._relief_cycle(reporter, deficit, edge)
        self._abandoned_reporter = None

    def _shutdown(self) -> Generator[Any, Any, None]:
        self._halt_background()
        # Stand the standby down, or its dead-man ticker outlives the query.
        if self.ctx.backup_node is not self.node:
            yield from self.ctx.send(self.node, self.ctx.backup_node,
                                     Shutdown())
        yield from super()._shutdown()

    # ------------------------------------------------------------------
    # working-node crash recovery
    # ------------------------------------------------------------------
    def _handle_node_death(self, dead: int) -> Generator[Any, Any, None]:
        """Recover from a confirmed death, then repair collateral damage:
        a reporter whose relief cycle the unwind abandoned is re-queued
        (it still sits on a parked backlog nobody will ping it about)."""
        victim = self._abandoned_reporter
        self._abandoned_reporter = None
        # Live participants of an interrupted expansion: their half of the
        # data motion is unaccounted for, so they are purged too.
        cut_short = self._pending
        parties = (
            (cut_short.donor, cut_short.new_node)
            if cut_short is not None and cut_short.kind != "recover" else ()
        )
        yield from self._recovery_cycle(dead, parties=parties)
        if victim is not None and victim != dead:
            self._requeue(victim)

    def _recovery_cycle(
        self, dead: int, target: int | None = None,
        parties: tuple[int, ...] = (), redrive: bool = False,
    ) -> Generator[Any, Any, None]:
        """Recover from a confirmed working-node death.

        Replica chains hold disjoint temporal segments, so survivors of
        the dead node's chain cannot serve the range alone: they are
        *purged* (quarantined, segment dropped, matches zeroed) and the
        whole range collapses onto one fresh ``target``, which the data
        sources re-stream from their replay cursors.  The dead node
        itself is also told to purge — "fencing the living": if the
        verdict was false, the live node self-quarantines instead of
        double-counting matches; if it was true, the tombstone ignores it.

        The decision is WAL'd (``Decision("recover", dead, target, dead)``)
        with the recruited target pinned, and every step is idempotent
        keyed on ``recovery_id == dead``, so a standby can re-drive the
        cycle mid-flight after a primary failover.
        """
        ctx = self.ctx
        if dead in self.fenced and not redrive:
            return
        if self._phase not in ("build", "probe"):
            raise self._unrecoverable_death(dead)
        self._recovering = True
        self._pending = None
        t0 = ctx.sim.now
        ctx.metrics.inc("sched.recovery_cycles", 1, phase=self._phase)
        ctx.trace("recovery_begin", "scheduler", dead=dead,
                  phase=self._phase, redrive=redrive)
        try:
            # 1. Fence locally.  Abandon any in-flight poll round: it may
            # include the dead node, whose report will never arrive.
            self._round_nodes = ()
            self._round_reports = {}
            self._prev_round = None
            self.fenced.add(dead)
            if dead in self.activated:
                self.activated.remove(dead)
            if dead not in self.dead_nodes:
                self.dead_nodes.append(dead)
            self.spilled_nodes.discard(dead)

            # Purge set: live chain co-members of the dead node's entries,
            # plus live participants of an interrupted relief decision
            # (their half of the data motion is unaccounted for).
            purge: set[int] = set()
            if isinstance(self.router, RangeRouter):
                for _rng, chain in self.router.entries:
                    if dead in chain:
                        purge.update(chain)
            purge.update(parties)
            if self._phase == "build":
                # Every node the dead one split a part of its range off
                # to, and theirs in turn: it may have died holding tuples
                # of theirs still to forward along its shed chain, which a
                # replay of its own range does not cover.  The target takes
                # over the whole range the dead node started the phase with.
                heirs = {dead}
                for donor, new_node in self._splits:  # oldest first
                    if donor in heirs:
                        heirs.add(new_node)
                purge |= heirs
            purge.discard(dead)
            purge &= set(self.activated)
            self.spilled_nodes -= purge
            # The dead node's queued relief is moot; a purged node sheds
            # its backlog wholesale.
            for j in (dead, *sorted(purge)):
                self._cancel_relief(j)

            lost = {dead} | purge
            if not (lost & self.router.owners()):
                raise UnrecoverableFaultError(
                    f"join node {dead} died but owns no hash range (an "
                    "output sink, or a recruit outside the routing table) "
                    "— recovery for materialized-output state is out of "
                    "scope (docs/FAULTS.md)"
                )

            # 2. Recruit the replacement (pinned and re-used on re-drive).
            if target is not None and target not in self.activated:
                target = None  # un-synced zombie of a dead primary
            if target is None:
                slot = self._takeover_slot(lost)
                target = yield from self.recruit_node(
                    lambda j: ActivateJoin(j, **slot), phase=self._phase
                )
                if target is None:
                    raise UnrecoverableFaultError(
                        f"pool exhausted while replacing dead join node "
                        f"{dead} — its hash range has no home"
                    )

            # 3. WAL the decision with the target pinned.
            yield from self.log_decision(Decision(
                "recover", donor=dead, new_node=target, reporter=dead))

            # 4. Disseminate: every live node fences the dead peer's
            # global id (late in-flight chunks are retired, its counter
            # contributions subtracted at report time); chain co-members
            # purge.  The dead node itself gets an unawaited purge order
            # (fencing the living, see docstring).
            live = list(self.activated)
            for j in live:
                yield from self.send_to_join(
                    j, NodeLost(dead=dead, purge=(j in purge))
                )
            yield from self.send_to_join(dead, NodeLost(dead=dead, purge=True))
            acked: set[int] = set()
            while not set(live) <= acked:
                msg = yield from self.await_message(
                    lambda m: isinstance(m, NodeLostAck)
                )
                acked.add(msg.node)

            # 5. Collapse the routing entries onto the target.
            self.router = self.router.with_takeover(
                lost, target, self.next_version()
            )
            self.strategy.adopt_router(self.router)

            # 6-7. Flip the sources and re-stream the lost range.  The
            # ReplayOrder carries the takeover table: the source installs
            # it and replays in one atomic step, so no live chunk can
            # slip to the target between the two (double delivery).
            yield from self._order_replay("R", dead, target)
            if self._phase == "probe":
                yield from self._probe_recovery(dead, target)

            # 8. Done: clear the WAL and force fresh drain rounds.
            yield from self.log_decision(None)
            self._prev_round = None
            ctx.trace("recovery_done", "scheduler", dead=dead,
                      target=target, purged=sorted(purge))
            ctx.metrics.set_gauge(
                "sched.recovery_latency_s", ctx.sim.now - t0,
                phase=self._phase,
            )
        finally:
            self._recovering = False

    def _takeover_slot(self, lost: set[int]) -> dict[str, Any]:
        """The hash range (or bucket) the recovery target will own, as
        ``ActivateJoin`` keywords — read off ``with_takeover`` *before* the
        router flips, with a stand-in for the target not yet recruited."""
        if isinstance(self.router, RangeRouter):
            taken = [rng for rng, chain in self.router.with_takeover(
                lost, -1, self.router.version).entries if chain == (-1,)]
            if len(taken) > 1:
                raise UnrecoverableFaultError(
                    f"lost nodes {sorted(lost)} own non-contiguous "
                    "ranges — a single takeover target cannot adopt "
                    "them (docs/FAULTS.md)"
                )
            return {"hash_range": taken[0]}
        assert isinstance(self.router, LinearHashRouter)
        return {"bucket": next(
            b for b, n in enumerate(self.router.bucket_nodes) if n in lost
        )}

    def _order_replay(
        self, relation: str, dead: int, target: int
    ) -> Generator[Any, Any, None]:
        yield from self.broadcast_to_sources(
            ReplayOrder(relation=relation, target=target, recovery_id=dead,
                        router=self.router)
        )

    def _degrade_full_target(
        self, target: int
    ) -> Generator[Any, Any, None]:
        """Relieve a recovery target that outgrew its memory mid-replay.

        The re-streamed range can exceed one node's budget (the dead
        node had spilled, or it headed a replica chain whose purged
        co-members each stored a disjoint segment).  There is no pool
        headroom to split into during a recovery, so the target is
        degraded to disk spilling — same answer, out-of-core speed."""
        if target in self.full_queue:
            self._cancel_relief(target)
            yield from self.fallback_spill(target, "recovery_spill")

    def _probe_recovery(
        self, dead: int, target: int
    ) -> Generator[Any, Any, None]:
        """Probe-phase re-streaming, sequenced so the target never probes
        before it holds the rebuilt range.

        The build stream is replayed to the target under the takeover
        router while live S traffic still flows under the *old* table
        (the dead node's copies are absorbed by its tombstone; purged
        survivors retire theirs without probing).  Only once the target
        confirms it processed every replayed chunk is it flipped to
        probing and the sources' table updated; the S replay that follows
        the RouteUpdate on each source link (per-pair FIFO) then covers
        every probe tuple of the range, exactly once."""
        ctx = self.ctx
        done: set[int] = set()
        expected_chunks = 0
        while len(done) < ctx.n_sources:
            # Fullness must be serviced *while* awaiting the replay
            # receipts: a full target parks chunks holding its receive
            # credits, which blocks the replaying sources — waiting for
            # their ReplayDone first would deadlock the recovery.
            yield from self._degrade_full_target(target)
            msg = yield from self.node.mailbox.recv()
            if (isinstance(msg, ReplayDone) and msg.relation == "R"
                    and msg.recovery_id == dead and msg.source not in done):
                done.add(msg.source)
                expected_chunks += sum(msg.chunks_sent.values())
                self._note_replay_done(msg)
            else:
                self._dispatch_common(msg)
        while True:
            yield from self._degrade_full_target(target)
            self._poll_token += 1
            tok = self._poll_token
            yield from self.send_to_join(target, StatusRequest(tok))
            rep = yield from self.await_message(
                lambda m: (isinstance(m, StatusReport) and m.token == tok
                           and m.node == target)
            )
            if (rep.processed_build >= expected_chunks and not rep.busy
                    and target not in self.full_queue):
                break
            yield from self.await_message(lambda m: isinstance(m, PollTick))
        yield from self.send_to_join(target, StartProbe(router=None))
        yield from self._order_replay("S", dead, target)

    # ------------------------------------------------------------------
    # the standby role
    # ------------------------------------------------------------------
    def _stand_by(self) -> Generator[Any, Any, SchedulerOutcome | None]:
        """The standby's life: replicate passively, take over on silence.

        The dead-man timer resets on *any* primary traffic (heartbeats or
        state syncs) and fires after the confirm timeout.  On takeover
        this node becomes "the scheduler" for every actor (see
        ``RunContext.set_scheduler_node``), and this scheduler adopts the
        newest snapshot and finishes the query; its process value is the
        outcome :meth:`result` falls back to."""
        ctx = self.ctx
        poll_ticker(ctx.sim, self.node.mailbox, self._hb_interval,
                    lambda: self._deadman_stopped)
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
                    if ctx.sim.now - last_primary >= self._confirm_s:
                        break
                elif isinstance(msg, Shutdown):
                    return None  # primary finished the query; stand down
                # anything else is stray traffic for a standby: ignore
        finally:
            self._deadman_stopped = True
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
        return (yield from self._guarded(self._resume(sync)))

    def adopt_snapshot(self, sync: StateSync | None) -> str:
        """Install a replicated snapshot; returns the phase to resume.

        The potential list is inferred rather than synced: everything
        never activated nor fenced — the standby's own copy either way.
        Full nodes need no list: they are the non-tail members of the
        table's replica chains."""
        if sync is None:
            self.potential = self.potential.rebuilt(set(self.activated))
            return "fresh"
        if sync.router is not None:
            self.router = sync.router
        self.activated = list(sync.activated)
        self.fenced = set(sync.fenced)
        self.dead_nodes = sorted(self.fenced)
        self.potential = self.potential.rebuilt(
            set(self.activated) | self.fenced
        )
        self._pending = sync.pending
        self._splits = list(sync.splits)
        self._phase = sync.phase
        self.strategy.adopt_router(self.router)
        return sync.phase

    def _resume(
        self, sync: StateSync | None
    ) -> Generator[Any, Any, SchedulerOutcome | None]:
        phase = self.adopt_snapshot(sync)
        if phase == "fresh":
            # The primary died before its first sync: nothing has been
            # decided yet, so a from-scratch run is idempotent (initial
            # ActivateJoins are re-acked by already-active nodes).
            return (yield from super().run())
        self._start_background()
        if phase not in ("build", "probe"):
            raise UnrecoverableFaultError(
                f"scheduler failover during the {phase} phase is not "
                "supported (docs/FAULTS.md)"
            )
        # Make everyone re-announce what the primary took to its grave:
        # sources re-send SourceDone and completed ReplayDones, full joins
        # re-send MemoryFull for their parked backlogs.
        failover = SchedulerFailover(new_scheduler=self.node.node_id)
        yield from self.broadcast_to_sources(failover)
        for j in self.activated:
            yield from self.send_to_join(j, failover)
        yield from self._redrive_pending()
        return (yield from self._run_from(phase))

    def _redrive_pending(self) -> Generator[Any, Any, None]:
        """Idempotently re-drive the decision the primary WAL'd but may
        not have finished."""
        pending = self._pending
        if pending is None:
            return
        self.ctx.trace("redrive", "scheduler", pending=list(pending))
        if pending.kind == "recover":
            yield from self._recovery_cycle(
                pending.donor, target=pending.new_node, redrive=True)
            return
        ack = yield from self.strategy.apply(pending)
        yield from self.log_decision(None)
        if ack.still_full:
            self._requeue(ack.node)


class FaultTolerantJoinProcess(JoinProcess):
    """The join process plus heartbeat acks, fencing of dead peers, the
    replica-chain purge and re-announcement after a scheduler failover."""

    def __init__(self, ctx: RunContext, join_index: int) -> None:
        super().__init__(ctx, join_index)
        #: pool indices of peers the scheduler declared dead
        self.fenced: set[int] = set()
        #: purged after a replica-chain member died: stored segment dropped,
        #: all further data discarded (the replay re-streams the range)
        self.quarantined = False
        # Per-peer drain-counter components, so a dead peer's contribution
        # can be subtracted from the totals reported to the drain protocol
        # (its own counters died with it, and the books must still balance).
        self._recv_build_by_origin: defaultdict[int, int] = defaultdict(int)
        self._proc_build_by_origin: defaultdict[int, int] = defaultdict(int)
        self._emitted_build_by_dest: defaultdict[int, int] = defaultdict(int)
        cls = type(self)
        self._handlers.update({
            HeartbeatPing: cls._on_heartbeat_ping,
            NodeLost: cls._on_node_lost,
            SchedulerFailover: cls._on_scheduler_failover,
        })

    # ------------------------------------------------------------------
    # the wrapped decision points
    # ------------------------------------------------------------------
    def _count_arrival(self, chunk: DataChunk) -> None:
        super()._count_arrival(chunk)
        if chunk.relation == "R":
            self._recv_build_by_origin[chunk.origin] += 1

    def _retire(self, chunk: DataChunk) -> None:
        super()._retire(chunk)
        if chunk.relation == "R":
            self._proc_build_by_origin[chunk.origin] += 1

    def _count_build_emission(self, dest: int) -> None:
        super()._count_build_emission(dest)
        self._emitted_build_by_dest[dest] += 1

    def _build_counters(self) -> tuple[int, int, int]:
        # Adjusted counters: contributions from fenced (declared-dead) peers
        # are subtracted at report time — raw counters are never mutated, so
        # late in-flight arrivals from a dead peer stay balanced out too.
        received, processed, emitted = super()._build_counters()
        for dead in sorted(self.fenced):
            gid = self.ctx.join_node(dead).node_id  # a chunk's ``origin``
            received -= self._recv_build_by_origin[gid]
            processed -= self._proc_build_by_origin[gid]
            emitted -= self._emitted_build_by_dest[dead]
        return received, processed, emitted

    def _consume_build(
        self, chunk: DataChunk, retry: bool = False
    ) -> Generator[Any, Any, bool]:
        if self.quarantined:
            # Purged after a chain member died: the whole range is being
            # re-streamed to a fresh target; stragglers are covered by it.
            self._retire(chunk)
            return True
        return (yield from super()._consume_build(chunk, retry))

    def _shed(self, out: np.ndarray, succ: int) -> Generator[Any, Any, None]:
        # A shed target that was declared dead has its range re-streamed
        # from the sources, so forwarding would double-deliver.  Drop,
        # before paying to pack what will not travel.
        if succ not in self.fenced:
            yield from super()._shed(out, succ)

    def _spawn_transfer(self, values: np.ndarray, dest: int, hop: str) -> None:
        # To a destination declared dead, anything we would ship is covered
        # by the recovery replay from the sources.  Drop.
        if dest not in self.fenced:
            super()._spawn_transfer(values, dest, hop)

    # ------------------------------------------------------------------
    # dispatch rows the layer adds
    # ------------------------------------------------------------------
    def _on_heartbeat_ping(self, msg: HeartbeatPing) -> Generator[Any, Any, None]:
        # Best-effort on purpose: a lost ack must look exactly like a dead
        # node to the detector — that is what makes false positives real.
        return self._reply(HeartbeatAck(self.index, msg.token),
                           best_effort=True)

    def _on_node_lost(self, msg: NodeLost) -> Generator[Any, Any, None]:
        if msg.dead not in self.fenced:
            # Shed-chain entries and a replica successor that point at the
            # corpse become discards from here on (_shed, _spawn_transfer).
            self.fenced.add(msg.dead)
            if msg.purge and not self.quarantined:
                self._purge(msg.dead)
            self.ctx.trace("node_lost", f"join{self.index}",
                           dead=msg.dead, purge=msg.purge)
        yield from self._reply(NodeLostAck(self.index))

    def _purge(self, dead: int) -> None:
        """Drop this node's replica-chain segment after a co-member died.

        Chain members hold *disjoint temporal segments* of one range, so
        with any member dead the range cannot be served from survivors —
        the whole entry collapses to a fresh target and the sources
        re-stream it.  Survivors drop their segment (it would double-count
        against the replay) and retire all further traffic on arrival.
        """
        self.quarantined = True
        dumped = self._freed(
            self.store.extract_position_range(0, self.ctx.cfg.hash_positions)
        )
        self.matches = 0
        self.spill = None
        while self.parked:
            self._retire(self.parked.popleft())
        self.ctx.trace("purged", f"join{self.index}", dead=dead,
                       dropped=int(dumped.size))

    def _on_scheduler_failover(self, msg: SchedulerFailover) -> Generator[Any, Any, None]:
        # The dead primary may have taken our un-acked announcements to its
        # grave; re-announce anything still awaiting a scheduler decision
        # (re-announcing something the backup already knows is harmless —
        # the relief queue tolerates duplicate MemoryFull entries).
        self.ctx.trace("scheduler_failover", f"join{self.index}",
                       new_scheduler=msg.new_scheduler)
        if self.parked:
            yield from self._report_full()
        if self.output_pending:
            yield from self._report_output_full()


class FaultTolerantDataSource(DataSourceProcess):
    """The data source plus the replay of a dead node's hash range and
    re-announcement after a scheduler failover.

    Relation streams are deterministic (seeded per source), so a source can
    re-generate any prefix of its stream.  ``batches_done`` is the replay
    cursor — when a :class:`ReplayOrder` arrives, the source re-generates
    batches ``[0, cursor)``, partitions them under the routing table
    *carried by the order* and re-streams only the recovery target's share.
    The order doubles as the route update for the takeover table: installing
    it and starting the replay are one atomic step at a batch boundary, so no
    live chunk can ever be routed to the target for a tuple the replay also
    covers.  Replay traffic is accounted separately (:class:`ReplayDone`):
    the scheduler's drain arithmetic fences the dead node's deliveries.
    """

    def __init__(self, ctx: RunContext, source_index: int, initial_router: Router) -> None:
        super().__init__(ctx, source_index, initial_router)
        #: completed replays by (recovery_id, relation) — replays are
        #: idempotent: a re-driven order re-sends the stored receipt
        self._replays_done: dict[tuple[int, str], ReplayDone] = {}
        self._pending_replays: list[ReplayOrder] = []
        self._done_relations: list[str] = []
        self._reannounce = False
        # The two rows only note what arrived: what they must send needs
        # generator context, which :meth:`_at_boundary` has.
        cls = type(self)
        self._handlers.update({
            ReplayOrder: cls._on_replay_order,
            SchedulerFailover: cls._on_failover,
        })

    # ------------------------------------------------------------------
    # dispatch rows the layer adds
    # ------------------------------------------------------------------
    def _on_replay_order(self, msg: ReplayOrder) -> None:
        self._pending_replays.append(msg)

    def _on_failover(self, msg: SchedulerFailover) -> None:
        # Re-announce everything the dead primary took to its grave.
        self._reannounce = True

    # ------------------------------------------------------------------
    # the wrapped decision points
    # ------------------------------------------------------------------
    def _at_boundary(self, buffers: ChunkBuffer | None) -> Generator[Any, Any, None]:
        """Act on what the rows noted: re-announce, then queued replays.

        The base moves its cursor before calling, so an order acted on
        here covers the batch just routed (``limit = batches_done``)."""
        if self._reannounce:
            self._reannounce = False
            yield from self._announce_to_scheduler()
        while self._pending_replays:
            order = self._pending_replays.pop(0)
            yield from self._execute_replay(order, buffers=buffers)

    def _report_done(self, relation: str) -> Generator[Any, Any, None]:
        if relation not in self._done_relations:
            self._done_relations.append(relation)
        return super()._report_done(relation)

    def _announce_to_scheduler(self) -> Generator[Any, Any, None]:
        """A standby took over: re-send everything the old primary knew.

        SourceDone and ReplayDone are idempotent at the scheduler (keyed
        on source / recovery id), so re-announcing is always safe."""
        self.ctx.trace("source_reannounce", f"src{self.index}")
        for relation in self._done_relations:
            yield from self._report_done(relation)
        for done in self._replays_done.values():
            yield from self.ctx.send(self.node, self.ctx.scheduler_node, done)

    def _execute_replay(
        self, order: ReplayOrder, buffers: ChunkBuffer | None
    ) -> Generator[Any, Any, None]:
        """Re-stream the recovery target's share of this source's prefix.

        Idempotent: a repeated order (standby re-drive after a scheduler
        failover) re-sends the stored receipt without re-streaming."""
        ctx = self.ctx
        key = (order.recovery_id, order.relation)
        done = self._replays_done.get(key)
        if done is None:
            limit = self.batches_done[order.relation]
            # The order doubles as the takeover route update — except for
            # a build-side (R) replay while this source streams S, where
            # the scheduler flips the live probe table separately only
            # after the target finishes rebuilding.
            streaming_s = self._probe_router is not None
            if order.router is not None and not (
                    order.relation == "R" and streaming_s):
                if order.router.version > self.router.version:
                    self.router = order.router
                if buffers is not None and buffers.total_buffered:
                    # Buffered tuples the replay re-covers must not also
                    # ship live, or the target would see them twice.
                    pool = buffers.drain_everything()
                    yield from self._requeue_excluding(buffers, pool, order)
            done = yield from self._replay_prefix(order, limit)
            self._replays_done[key] = done
        yield from ctx.send(self.node, ctx.scheduler_node, done)

    def _requeue_excluding(
        self, buffers: ChunkBuffer, pool: np.ndarray, order: ReplayOrder
    ) -> Generator[Any, Any, None]:
        """Re-buffer ``pool`` under the live table, minus the replay's share.

        Build tuples covered by the replay (assigned to the target under
        the order's table) are dropped outright; probe tuples only lose
        their target *copy* — copies for other replicas still flow live."""
        if pool.size == 0:
            return
        assert order.router is not None
        yield from self._charge_routing(pool.size)
        positions = self.ctx.posmap(pool)
        probe = order.relation == "S"
        if not probe:
            covered = order.router.share_of(positions, order.target, probe=False)
            keep = np.ones(pool.size, dtype=bool)
            keep[covered] = False
            pool, positions = pool[keep], positions[keep]
        # the live share of the target's range is replayed too: skip it
        self._buffer_routed(buffers, pool, positions, probe=probe,
                            skip=order.target)

    def _replay_prefix(
        self, order: ReplayOrder, limit: int
    ) -> Generator[Any, Any, ReplayDone]:
        """Re-generate batches ``[0, limit)`` and stream the target's share."""
        ctx = self.ctx
        wl = ctx.cfg.workload
        router = order.router if order.router is not None else self.router
        stream = RelationStream(wl, order.relation, ctx.n_sources, self.index)
        target = order.target
        buffer = ChunkBuffer(self.chunk_tuples)
        chunks = 0
        tuples = 0

        def ship(values: np.ndarray) -> Generator[Any, Any, None]:
            # Counted in the ReplayDone receipt, never in the live
            # ``chunks_sent`` maps (the scheduler fences those per-dest).
            nonlocal chunks, tuples
            chunks += 1
            tuples += int(values.size)
            return self._ship(target, order.relation, values)

        for batch in stream.batches(limit=limit):
            yield from self._produce(batch)
            yield from self._charge_routing(batch.size)
            share = router.share_of(ctx.posmap(batch), target,
                                    probe=order.relation == "S")
            buffer.append(target, batch[share])
            while (chunk := buffer.pop_full_chunk(target)) is not None:
                yield from ship(chunk)
        rest = buffer.pop_all(target)
        if rest is not None:
            yield from ship(rest)
        done = ReplayDone(
            recovery_id=order.recovery_id,
            source=self.index,
            relation=order.relation,
            chunks_sent={order.target: chunks} if chunks else {},
        )
        ctx.trace("replay_done", f"src{self.index}", relation=order.relation,
                  target=order.target, chunks=chunks, tuples=tuples)
        return done
