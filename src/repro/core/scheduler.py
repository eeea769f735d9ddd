"""The scheduler actor (paper §4.1.1).

Coordinates the whole join, and is written to read like the paper:

* three node lists — **working**, **full** and **potential** join nodes;
* the **memory-full protocol**: reports queue up and are answered one
  relief cycle at a time (the generalization of the paper's barrier split
  pointer) by the configured expansion strategy, ``decide`` then ``apply``;
* **phase sync**: build -> [reshuffle] -> probe -> OOC passes -> shutdown,
  each data phase ended by one counting drain:

    a phase's data flow is drained when, over two consecutive polling
    rounds, every counter is unchanged AND
        chunks sent by sources + chunks emitted by join nodes
            == chunks received == chunks processed
    AND no node is busy, no relief is pending and no split is in flight.

Any message still on the wire leaves the sums unequal (it was counted by
its sender's report but not its receiver's), and any message sent after a
node's report changes that node's counters by the next round — so two
identical balanced rounds imply an empty network.

Surviving a crashed scheduler or working node is *not* in this file: the
fault layer (:mod:`repro.core.recovery`) subclasses this process and wraps
its decision points (``checkpoint``, ``log_decision``, one drain step,
background start/stop), which do nothing here.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from collections.abc import Callable, Generator
from typing import Any

from ..faults import UnrecoverableFaultError
from ..hashing import RangeRouter, Router
from .context import RunContext, poll_ticker
from .messages import (
    ActivateAck,
    ActivateJoin,
    FinalReport,
    FinalizePass,
    MemoryFull,
    OutputRedirect,
    PassDone,
    PollTick,
    ReliefAck,
    ReliefPing,
    SpillOrder,
    SplitDone,
    Shutdown,
    SourceDone,
    StartProbe,
    StatusReport,
    StatusRequest,
)
from .strategy import Decision, make_strategy

__all__ = ["SchedulerProcess", "SchedulerOutcome"]


@dataclass
class SchedulerOutcome:
    """Raw facts the driver turns into a JoinRunResult."""

    t_start: float = 0.0
    t_build: float = 0.0
    t_reshuffle: float = 0.0
    t_probe: float = 0.0
    t_ooc: float = 0.0
    n_splits: int = 0
    split_moved_tuples: int = 0
    split_busy_s: float = 0.0
    reshuffle_moved_tuples: int = 0
    expansion_trace: list[tuple[float, int]] = field(default_factory=list)
    final_reports: dict[int, FinalReport] = field(default_factory=dict)
    probe_dup_tuples: int = 0
    activated: list[int] = field(default_factory=list)


class SchedulerProcess:
    """Drive with ``spawn(name)``; the outcome is ``result()``."""

    def __init__(self, ctx: RunContext) -> None:
        self.ctx = ctx
        self.cfg = ctx.cfg
        self.node = ctx.scheduler_node
        self.outcome = SchedulerOutcome()
        #: the spawned simulation process (set by :meth:`spawn`)
        self.proc: Any = None
        self.strategy = make_strategy(self, self.cfg)

        # node lists (paper: working / full / potential join nodes).  The
        # potential list is the driver's: private, or a shared pool's client.
        self.potential = ctx.potential
        self.working: list[int] = list(self.potential.initial)
        self.full_nodes: list[int] = []
        self.activated: list[int] = list(self.working)

        self.router: Router = self.strategy.make_initial_router(list(self.working))
        self._version = 0

        # relief machinery
        #: memory-full reporters awaiting their relief cycle
        self.full_queue: deque[int] = deque()
        #: reporter -> (parked-backlog bytes, causal edge) of its queued
        #: MemoryFull.  The bytes feed the shared pool's MEMORY_DEFICIT
        #: policy; the edge is the provenance of the relief messages sent
        #: on the reporter's behalf.
        self._full_info: dict[int, tuple[int, int | None]] = {}
        self.relief_active = False
        #: parked-backlog bytes of the relief cycle being served
        self.active_deficit = 0
        #: nodes degraded to disk spilling (pool exhausted / atomic range)
        self.spilled_nodes: set[int] = set()
        #: pool nodes that never acked their ActivateJoin (presumed dead)
        self.dead_nodes: list[int] = []
        # Recruit-ack timeout (simulated seconds), applied only under fault
        # injection — on a fault-free run an ack cannot be lost, so waiting
        # without a deadline is always correct.  The derived default must
        # dominate the worst case for a *healthy* recruit: its receive port
        # can hold at most the credit window of data chunks ahead of the
        # ActivateJoin, so a generous multiple of one chunk's wire time is
        # safe at every workload scale.  Between recruits the scheduler
        # backs off from half this deadline, doubling up to 8 x it.
        wl = self.cfg.workload
        chunk_wire = ctx.cost.net_latency + ctx.cost.wire_time(
            wl.chunk_tuples * wl.tuple_bytes
        )
        self._recruit_timeout = (
            16.0 * chunk_wire + 20.0 * self.cfg.effective_drain_poll
        )
        #: how long the initial nodes get to ack (the fault layer waits
        #: longer: its failure detector subsumes this deadline)
        self._initial_ack_timeout_s = self._recruit_timeout

        # source bookkeeping.  Chunk counts are kept *per destination* so
        # the fault layer's drain balance can exclude chunks sent to a node
        # later declared dead (its mailbox absorbed, never retired, them).
        self._source_done: dict[str, set[int]] = {"R": set(), "S": set()}
        self._source_chunk_maps: dict[str, dict[int, int]] = {"R": {}, "S": {}}

        # drain polling
        self._poll_token = 0
        self._round_reports: dict[int, StatusReport] = {}
        self._round_nodes: tuple[int, ...] = ()
        self._prev_round: dict[int, tuple] | None = None
        self._drained = False
        self._phase = "build"
        #: stops the background loops (drain ticker, failure detector)
        self._background_stopped = False

        #: message type -> handler for traffic that may arrive at any time
        #: (the dispatch inventory the protocol lint and its runtime mirror
        #: read; the fault layer registers its rows on top).  Plain
        #: functions called as ``handler(self, msg)`` — bound methods would
        #: make the scheduler one more reference cycle.
        cls = type(self)
        self._handlers: dict[type, Callable[[Any, Any], None]] = {
            MemoryFull: cls._on_memory_full,
            SourceDone: cls._on_source_done,
            StatusReport: cls._collect_report,
            ActivateAck: cls._on_stray_activate_ack,
            SplitDone: cls._on_stale_ack,
            PassDone: cls._on_stale_ack,
            PollTick: cls._ignore,
        }

    # ------------------------------------------------------------------
    # fault-layer decision points (no-ops here; see repro.core.recovery)
    # ------------------------------------------------------------------
    def checkpoint(self) -> Generator[Any, Any, None]:
        """State a successor would need just changed (phase, table, node
        lists).  The fault layer replicates it to a standby scheduler."""
        return
        yield  # pragma: no cover - makes this a generator

    def log_decision(self, decision: tuple) -> Generator[Any, Any, None]:
        """Called with a decision *before* it is acted on and with ``()``
        once it completed — write-ahead, so a standby can apply it again."""
        return
        yield  # pragma: no cover - makes this a generator

    def spawn(self, name: str) -> None:
        self.proc = self.ctx.sim.spawn(self.run(), name=name)

    def result(self) -> SchedulerOutcome | None:
        """The finished query's outcome (call after the simulation ran)."""
        return self.proc.value

    # ------------------------------------------------------------------
    # helpers used by strategies
    # ------------------------------------------------------------------
    def next_version(self) -> int:
        self._version += 1
        return self._version

    def recruit_node(
        self, make_activate: Callable[[int], ActivateJoin], phase: str = "build",
        parent: int | None = None,
    ) -> Generator[Any, Any, int | None]:
        """Acknowledged recruitment with failure handling.

        Takes a candidate off the potential list, sends it the
        ``ActivateJoin`` built by ``make_activate(candidate)``, and waits
        for its :class:`ActivateAck`.  If no ack arrives within the recruit
        timeout (a simulated-seconds deadline checked on drain-poll ticks,
        so no stray timer events enter the simulation), the candidate is
        presumed dead: it is excluded from the pool for good, the
        scheduler backs off exponentially (capped), and a *different*
        candidate is tried.  Returns the recruited pool index, or ``None``
        when the pool is exhausted — the caller then degrades to the OOC
        spill path (:meth:`fallback_spill`).

        A live recruit whose ack merely arrived late becomes a "zombie":
        activated but unknown to the pools.  Its stale ack is ignored by
        ``_dispatch_common`` and its FinalReport is accepted (but not
        awaited) at shutdown, so correctness is unaffected either way.
        """
        backoff = self._recruit_timeout / 2.0
        while True:
            cand = yield from self.potential.take(self, phase)
            if cand is None:
                self.ctx.trace("pool_exhausted", "scheduler", phase=phase)
                return None
            yield from self.send_to_join(cand, make_activate(cand),
                                         parent=parent)
            if (yield from self._await_activate_acks(
                    {cand}, self._recruit_timeout)):
                self.working.append(cand)
                self.activated.append(cand)
                self.outcome.expansion_trace.append((self.ctx.sim.now, cand))
                return cand
            self.dead_nodes.append(cand)
            self.ctx.metrics.inc("faults_recruit_failures", 1, phase=phase)
            self.ctx.metrics.inc("retries_total", 1, kind="recruit")
            self.ctx.trace("recruit_timeout", "scheduler",
                           node=cand, phase=phase)
            yield from self._await_backoff(backoff)
            backoff = min(backoff * 2.0, 8.0 * self._recruit_timeout)

    def _await_activate_acks(
        self, pending: set[int], timeout: float
    ) -> Generator[Any, Any, bool]:
        """Wait until every node in ``pending`` (emptied in place) sent its
        ActivateAck; False once ``timeout`` passes without a new ack.

        Without an injector there is no deadline: acks cannot be lost, so
        unbounded waiting is always correct and can never misdeclare a
        busy-but-healthy recruit dead."""
        deadline = (
            None if self.ctx.faults is None else self.ctx.sim.now + timeout
        )
        while pending:
            msg = yield from self.node.mailbox.recv()
            if isinstance(msg, ActivateAck) and msg.node in pending:
                pending.discard(msg.node)
                if deadline is not None:  # progress: extend the deadline
                    deadline = self.ctx.sim.now + timeout
            elif isinstance(msg, PollTick):
                if deadline is not None and self.ctx.sim.now >= deadline:
                    return False
            else:
                self._dispatch_common(msg)
        return True

    def _await_backoff(self, seconds: float) -> Generator[Any, Any, None]:
        """Idle until ``seconds`` from now (measured on drain-poll ticks),
        still absorbing other traffic."""
        deadline = self.ctx.sim.now + seconds
        while self.ctx.sim.now < deadline:
            msg = yield from self.node.mailbox.recv()
            if not isinstance(msg, PollTick):
                self._dispatch_common(msg)

    def mark_full(self, node: int) -> None:
        """Move a node from the working to the full list (replication)."""
        if node in self.working:
            self.working.remove(node)
        if node not in self.full_nodes:
            self.full_nodes.append(node)

    def record_split(self, moved: int, busy: float) -> None:
        self.outcome.n_splits += 1
        self.outcome.split_moved_tuples += moved
        self.outcome.split_busy_s += busy

    def send_to_join(self, j: int, msg: Any,
                     parent: int | None = None) -> Generator[Any, Any, None]:
        return self.ctx.send(self.node, self.ctx.join_node(j), msg,
                             parent=parent)

    def broadcast_to_sources(self, msg: Any) -> Generator[Any, Any, None]:
        for s in range(self.ctx.n_sources):
            yield from self.ctx.send(self.node, self.ctx.source_node(s), msg)

    def fallback_spill(
        self, node: int, why: str = "fallback_spill"
    ) -> Generator[Any, Any, ReliefAck]:
        """Pool exhausted (or range atomic): degrade ``node`` to local
        out-of-core spilling.  Documented deviation — the paper's
        experiments never exhaust the potential pool."""
        self.spilled_nodes.add(node)
        self.ctx.trace(why, "scheduler", reporter=node)
        yield from self.send_to_join(node, SpillOrder())
        return (yield from self.await_relief_ack(node))

    # ------------------------------------------------------------------
    # message waiting with background dispatch
    # ------------------------------------------------------------------
    def await_message(self, match: Callable[[Any], bool]) -> Generator[Any, Any, Any]:
        """Wait for a message satisfying ``match``; everything else goes
        through the common dispatcher (so relief cycles never starve the
        rest of the protocol)."""
        while True:
            msg = yield from self.node.mailbox.recv()
            if match(msg):
                return msg
            self._dispatch_common(msg)

    def await_relief_ack(self, reporter: int) -> Generator[Any, Any, ReliefAck]:
        return self.await_message(
            lambda m: isinstance(m, ReliefAck) and m.node == reporter
        )

    def _dispatch_common(self, msg: Any) -> None:
        """Messages that may arrive at any time, handled statelessly."""
        handler = self._handlers.get(type(msg))
        if handler is None:
            raise RuntimeError(f"scheduler: unexpected message {msg!r}")
        handler(self, msg)

    def _on_memory_full(self, msg: MemoryFull) -> None:
        # Remember the MemoryFull's causal edge: the relief cycle runs
        # later (the queue is serialized), after the scheduler has
        # dequeued other messages, so the implicit cause would be wrong.
        if msg.node not in self.full_queue:
            self.full_queue.append(msg.node)
        self._full_info[msg.node] = (
            msg.deficit_bytes, self.ctx.causal.cause_of("scheduler")
        )
        self._prev_round = None

    def _on_source_done(self, msg: SourceDone) -> None:
        # Idempotent: after a scheduler takeover the sources re-announce.
        if msg.source not in self._source_done[msg.relation]:
            self._source_done[msg.relation].add(msg.source)
            self._count_sent(msg.relation, msg.chunks_sent)
            if msg.relation == "S":
                self.outcome.probe_dup_tuples += msg.dup_tuples

    def _count_sent(self, relation: str, chunks_sent: dict[int, int]) -> None:
        chunk_map = self._source_chunk_maps[relation]
        for dest, n in chunks_sent.items():
            chunk_map[dest] = chunk_map.get(dest, 0) + n

    def _on_stray_activate_ack(self, msg: ActivateAck) -> None:
        # A recruit we timed out on answering after all: alive but
        # excluded from the pools — a zombie whose FinalReport is accepted
        # at shutdown regardless.
        self.ctx.trace("stale_activate_ack", "scheduler", node=msg.node)

    def _on_stale_ack(self, msg: SplitDone | PassDone) -> None:
        self.ctx.trace("stale_ack", "scheduler", kind=type(msg).__name__)

    def _ignore(self, msg: Any) -> None:
        """Nothing to do: a tick outside an idle drain loop, a late ack."""

    def _source_sent(self, relation: str) -> int:
        """Chunks the sources count as sent in ``relation``'s phase."""
        return sum(self._source_chunk_maps[relation].values())

    # ------------------------------------------------------------------
    # main run: phase order
    # ------------------------------------------------------------------
    def run(self) -> Generator[Any, Any, SchedulerOutcome | None]:
        self.outcome.t_start = self.ctx.sim.now
        # Ticker first: the initial-activation ack timeout counts its ticks.
        self._start_background()
        self._notify_faults("build")
        yield from self._activate_initial()
        yield from self.checkpoint()
        return (yield from self._run_from("build"))

    def _activate_initial(self) -> Generator[Any, Any, None]:
        """Activate the initial working join nodes and await their acks."""
        if isinstance(self.router, RangeRouter):
            for rng, chain in self.router.entries:
                yield from self.send_to_join(
                    chain[0], ActivateJoin(chain[0], hash_range=rng)
                )
        else:  # linear hashing: one bucket per initial node
            for b, j in enumerate(self.router.bucket_nodes):  # type: ignore[attr-defined]
                yield from self.send_to_join(j, ActivateJoin(j, bucket=b))
        yield from self._await_initial_acks(set(self.activated))

    def _run_from(self, phase: str) -> Generator[Any, Any, SchedulerOutcome]:
        """Drive the query from ``phase`` to completion (``"build"``; the
        fault layer's standby may resume at ``"probe"``)."""
        ctx = self.ctx
        if phase == "build":
            yield from self.drain("build")
            self.outcome.t_build = ctx.sim.now
            ctx.trace("phase", "scheduler", phase="build_done")

            if self.strategy.needs_reshuffle:
                self._phase = "reshuffle"
                yield from self.checkpoint()
                self._notify_faults("reshuffle")
                yield from self.strategy.reshuffle()
            self.outcome.t_reshuffle = ctx.sim.now
            ctx.trace("phase", "scheduler", phase="reshuffle_done")
            self._notify_faults("probe")

        # Phase entry is checkpointed *before* the StartProbe fan-out; a
        # successor resuming inside that window re-sends both broadcasts,
        # which receivers absorb idempotently.
        self._phase = "probe"
        yield from self.checkpoint()
        # Join nodes first: an S chunk must never outrun the phase switch.
        for j in self.activated:
            yield from self.send_to_join(j, StartProbe(router=None))
        yield from self.broadcast_to_sources(StartProbe(router=self.router))
        yield from self.drain("probe")
        self.outcome.t_probe = ctx.sim.now
        ctx.trace("phase", "scheduler", phase="probe_done")

        self._phase = "ooc"
        yield from self.checkpoint()
        self._notify_faults("ooc")
        for j in self.activated:
            yield from self.send_to_join(j, FinalizePass())
        for _ in self.activated:
            yield from self.await_message(lambda m: isinstance(m, PassDone))
        self.outcome.t_ooc = ctx.sim.now
        ctx.trace("phase", "scheduler", phase="ooc_done")

        yield from self._shutdown()
        self.outcome.activated = list(self.activated)
        return self.outcome

    def _start_background(self) -> None:
        """Spawn the drain ticker (runs until :meth:`_halt_background`)."""
        self.ctx.sim.spawn(
            poll_ticker(self.ctx.sim, self.node.mailbox,
                        self.cfg.effective_drain_poll,
                        lambda: self._background_stopped),
            name="drain-ticker",
        )

    def _halt_background(self) -> None:
        self._background_stopped = True

    def _notify_faults(self, phase: str) -> None:
        """Synchronous phase-entry hook for phase-triggered crash specs."""
        if self.ctx.faults is not None:
            self.ctx.faults.notify_phase(phase)

    def _await_initial_acks(self, pending: set[int]) -> Generator[Any, Any, None]:
        """Initial nodes are not replaceable here (the initial router is
        fixed before activation), so a missing ack is unrecoverable —
        unlike mid-run recruits, which retry a different pool node."""
        if not (yield from self._await_activate_acks(
                pending, self._initial_ack_timeout_s)):
            raise UnrecoverableFaultError(
                f"initial join node(s) {sorted(pending)} never "
                "acknowledged activation — without the failure "
                "detector armed, initial nodes cannot be replaced "
                "(the routing table is fixed before activation); "
                "fault plans may only crash not-yet-recruited pool "
                "nodes (docs/FAULTS.md)"
            )

    # ------------------------------------------------------------------
    # the drain loop and the relief cycle
    # ------------------------------------------------------------------
    def drain(self, phase: str) -> Generator[Any, Any, None]:
        """Serve the protocol until ``phase``'s data flow has drained
        (module docstring): ``"build"`` balances the R counters — also for
        the hybrid reshuffle traffic — and ``"probe"`` the S counters."""
        self._phase = phase
        self._drained = False
        self._prev_round = None
        while not self._drained:
            yield from self._drain_step()

    def _drain_step(self) -> Generator[Any, Any, None]:
        # Relief first: expansion requests outrank polling.
        while self.full_queue:
            reporter = self.full_queue.popleft()
            yield from self._relief_cycle(
                reporter, *self._full_info.pop(reporter, (0, None))
            )
        msg = yield from self.node.mailbox.recv()
        if isinstance(msg, PollTick):
            if self._ready_to_poll():
                yield from self._start_poll_round()
        else:
            self._dispatch_common(msg)

    def _relief_cycle(
        self, reporter: int, deficit: int, edge: int | None
    ) -> Generator[Any, Any, None]:
        """Answer one memory-full report.  Cycles are serialized — the
        paper's barrier split pointer: nothing splits while a split is in
        flight."""
        assert not self.relief_active, "relief cycles are serialized"
        self.relief_active = True
        self._prev_round = None
        t0 = self.ctx.sim.now
        phase = self._phase
        self.ctx.metrics.inc("sched.relief_cycles", 1, phase=phase)
        self.active_deficit = deficit
        try:
            if phase == "probe":
                yield from self._relieve_output(reporter, edge)
            else:
                yield from self._relieve_build(reporter, edge)
        finally:
            self.relief_active = False
            self.active_deficit = 0
            self.ctx.metrics.set_gauge(
                "sched.relief_latency_s", self.ctx.sim.now - t0, phase=phase
            )

    def _relieve_build(
        self, reporter: int, edge: int | None
    ) -> Generator[Any, Any, None]:
        # Re-check first: an earlier split in this queue may already
        # have relieved the reporter (round-robin pointer policies
        # split buckets other than the overflowing one).
        yield from self.send_to_join(reporter, ReliefPing(), parent=edge)
        ack = yield from self.await_relief_ack(reporter)
        if not ack.still_full:
            return
        decision: Decision | None = yield from self.strategy.decide(reporter)
        if decision is None:
            ack = yield from self.fallback_spill(reporter)
        else:
            # Logged before the table is touched: a successor re-applies it.
            yield from self.log_decision(decision)
            ack = yield from self.strategy.apply(decision)
            yield from self.log_decision(())
        if ack.still_full:
            self.full_queue.append(reporter)

    def _relieve_output(
        self, reporter: int, edge: int | None
    ) -> Generator[Any, Any, None]:
        """Probe-phase expansion (footnote 1): a node whose materialized
        output overflowed gets an output sink, or spills its output."""
        new_node = yield from self.recruit_node(
            lambda j: ActivateJoin(j, phase="probe", output_sink=True),
            phase="probe", parent=edge,
        )
        if new_node is None:
            yield from self.fallback_spill(reporter, "output_spill_order")
            return
        yield from self.send_to_join(reporter, OutputRedirect(new_node=new_node))
        self.ctx.trace("expand_output_sink", "scheduler",
                       reporter=reporter, new_node=new_node)
        yield from self.await_relief_ack(reporter)

    def _ready_to_poll(self) -> bool:
        relation = "R" if self._phase == "build" else "S"
        return (
            len(self._source_done[relation]) == self.ctx.n_sources
            and not self.full_queue
            and not self.relief_active
            and not self._round_nodes  # no round already in flight
        )

    def _start_poll_round(self) -> Generator[Any, Any, None]:
        self._poll_token += 1
        self._round_reports = {}
        self._round_nodes = tuple(self.activated)
        self.ctx.metrics.inc("sched.drain_rounds", 1, phase=self._phase)
        for j in self._round_nodes:
            yield from self.send_to_join(j, StatusRequest(self._poll_token))

    def _collect_report(self, report: StatusReport) -> None:
        # Reports may land while a relief cycle holds the main loop —
        # still collect them, or the in-flight poll round would never
        # complete and polling would stop for good.  The stability
        # evaluation re-checks relief/queue state before declaring a
        # phase drained.
        if report.token != self._poll_token or report.node not in self._round_nodes:
            return  # stale round
        self._round_reports[report.node] = report
        if len(self._round_reports) < len(self._round_nodes):
            return
        # Round complete: evaluate stability.
        nodes = self._round_nodes
        self._round_nodes = ()
        if self.full_queue or self.relief_active or set(nodes) != set(self.activated):
            self._prev_round = None
            return
        reports = self._round_reports.values()
        snapshot = {
            r.node: (
                r.received_build, r.processed_build, r.emitted_build,
                r.received_probe, r.processed_probe, r.busy,
            )
            for r in reports
        }
        if any(r.busy for r in reports):
            self._prev_round = snapshot
            return
        if self._phase == "build":
            sent = self._source_sent("R") + sum(r.emitted_build for r in reports)
            received = sum(r.received_build for r in reports)
            processed = sum(r.processed_build for r in reports)
        else:
            # emitted_probe covers output-sink forwarding (footnote 1)
            sent = self._source_sent("S") + sum(r.emitted_probe for r in reports)
            received = sum(r.received_probe for r in reports)
            processed = sum(r.processed_probe for r in reports)
        if sent == received == processed and self._prev_round == snapshot:
            self._drained = True
        self._prev_round = snapshot

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------
    def _shutdown(self) -> Generator[Any, Any, None]:
        self._halt_background()
        yield from self.broadcast_to_sources(Shutdown())
        for j in self.potential.shutdown_targets(self):
            yield from self.send_to_join(j, Shutdown())
        # Wait until every *known-activated* node reported.  Set inclusion,
        # not a count: a zombie recruit (timed out but actually alive) also
        # sends a FinalReport, which must not terminate this loop early.
        while not set(self.activated) <= set(self.outcome.final_reports):
            msg = yield from self.await_message(
                lambda m: isinstance(m, FinalReport)
            )
            self.outcome.final_reports[msg.node] = msg
        yield from self.potential.release(self)
