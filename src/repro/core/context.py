"""Shared run context: wiring between the simulated cluster and the actors.

One :class:`RunContext` exists per query.  It holds the plumbing its
driver built (cluster, collectors, injector, potential list), owns the
position map and the cross-actor accounting (hop-tagged communication
counters the figures are computed from), and provides addressed send
helpers so actor code reads like message-passing pseudocode.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Generator
from typing import Any

from ..cluster import Cluster, Node
from ..config import RunConfig, WorkloadConfig
from ..faults import FaultInjector
from ..hashing import PositionMap
from ..obs import CausalLog, MetricsRegistry, ObsBudget, SpanLog
from ..sim import Event, LockdepMonitor, Mailbox, Resource, Simulator, Timeout, Tracer
from .messages import DataChunk, PollTick
from .results import CommStats

__all__ = ["RunContext", "install_lockdep", "lockdep_enabled", "poll_ticker"]


def lockdep_enabled(cfg: RunConfig | WorkloadConfig) -> bool:
    """Should this run attach the runtime deadlock detector?

    ``REPRO_LOCKDEP`` wins when set (``0``/``false``/``no``/``off`` to
    disable, anything else to enable); otherwise ``cfg.lockdep`` (the
    ``--lockdep`` CLI flag); otherwise on by default under pytest, so a
    protocol regression fails a test with a wait-for report instead of a
    bare DeadlockError.
    """
    env = os.environ.get("REPRO_LOCKDEP")
    if env is not None:
        return env.strip().lower() not in ("", "0", "false", "no", "off")
    if cfg.lockdep:
        return True
    return "PYTEST_CURRENT_TEST" in os.environ


def install_lockdep(
    sim: Simulator, cfg: RunConfig | WorkloadConfig,
    metrics: MetricsRegistry, causal: CausalLog | None = None,
) -> None:
    """Attach the runtime deadlock detector if this run asked for one.

    Each driver calls this once per simulator.  ``causal`` lets a stall
    report name the message chain behind each stuck actor."""
    if lockdep_enabled(cfg):
        LockdepMonitor(sim, metrics=metrics, causal=causal).install()


def poll_ticker(
    sim: Simulator, mailbox: Mailbox, interval: float,
    stopped: Callable[[], bool],
) -> None:
    """Drop a :class:`PollTick` into ``mailbox`` every ``interval``
    simulated seconds until ``stopped()`` — the drain poll, the pool's
    deadline checks and the standby's dead-man timer.  The ticker runs on
    the mailbox's own node, so ticks never cross the network.  A timer, not
    a process: a ticker process's queue entries, one event re-armed for all
    of them, and no generator to resume."""
    if not interval > 0:  # NaN too; checked once, not on every re-arm
        raise ValueError(f"poll interval must be > 0, got {interval}")
    put, tick = mailbox.put, PollTick()  # stateless: one serves every tick
    rearm = sim._after

    def step(ev: Event) -> None:  # the start, then each tick
        if ev._value is tick:
            put(tick)
        if stopped():
            Timeout(sim, 0.0)  # where the ticker process's end fired
            callbacks.clear()  # ends the list <-> closure cycle
        else:  # the next tick's timeout, on the same event
            ev.callbacks, ev._value = callbacks, tick
            rearm(ev, interval)

    callbacks: list[Callable[[Event], None]] = [step]
    Timeout(sim, 0.0).callbacks = callbacks  # the ticker process's start


class RunContext:
    """Everything a scheduler/source/join process needs to participate.

    The driver hands in the plumbing, and the context never asks how it
    was made: ``cluster`` is the query's view of the hardware (its own
    scheduler/source nodes plus the join nodes it may be given),
    ``metrics`` / ``spans`` / ``tracer`` the collectors, ``faults`` the
    injector (None on the fault-free path — no injector is built, and the
    network's attempt loop takes no verdicts) and ``potential`` the
    scheduler's potential list (:mod:`repro.core.potential`).
    """

    def __init__(
        self,
        sim: Simulator,
        cfg: RunConfig,
        *,
        cluster: Cluster,
        metrics: MetricsRegistry,
        spans: SpanLog,
        tracer: Tracer,
        faults: FaultInjector | None,
        potential: Any,
        query: int = 0,
    ) -> None:
        self.sim = sim
        self.cfg = cfg
        self.query = query
        self.cluster = cluster
        self.metrics = metrics
        self.spans = spans
        self.tracer = tracer
        self.faults = faults
        self.potential = potential
        #: a plain attribute: the drain's screen reads it on every tick
        self.n_sources = len(cluster.source_nodes)
        self.posmap = PositionMap(cfg.hash_positions, mix=cfg.mix_hash)
        self.comm = CommStats()
        self.cost = cfg.effective_cluster.cost
        #: monotonically increasing data-chunk sequence (duplicate keying)
        self._next_seq = 0
        # Barrier-split-pointer semantics (§4.2.1): at most one split's
        # data transfer is on the wire at a time — the scheduler's "done"
        # message gates the next split, so split traffic serializes at
        # single-link bandwidth (the §4.2.4 model's T_split = volume*t_w).
        self.split_transfer_token = Resource(sim, capacity=1,
                                             name="split-barrier")
        # Causal message log.  Node names carry *global* node ids
        # (join nodes are "join<1 + n_sources + pool_index>") while spans
        # and the tracer use pool-indexed tracks ("join<pool_index>"); the
        # alias map folds both onto the track names so the critical-path
        # analysis can join spans with message edges.  The log stays
        # empty (cause_of -> None) until :meth:`attach_causal_log`.
        aliases = {cluster.scheduler_node.name: "scheduler"}
        for s, node in enumerate(cluster.source_nodes):
            aliases[node.name] = f"src{s}"
        for j, node in enumerate(cluster.join_nodes):
            aliases[node.name] = f"join{j}"
        if cluster.backup_node is not None:
            aliases[cluster.backup_node.name] = "backup"
        budget = ObsBudget.from_bytes(cfg.obs_budget_bytes)
        self.causal = CausalLog(
            aliases, budget.edge_sample, budget.edge_outliers
        )
        #: control-plane failover: when the backup takes over, every actor
        #: addressing "the scheduler" must follow it (see set_scheduler_node)
        self._scheduler_override: Node | None = None

    def attach_causal_log(self) -> None:
        """Feed every send and dequeue on this cluster into ``causal``.

        Message causality is a single-query diagnostic: a driver running
        interleaved queries over one network must not call this — they
        would corrupt one global log."""
        cluster = self.cluster
        cluster.network.causality = self.causal
        for node in (cluster.scheduler_node, *cluster.source_nodes, *cluster.join_nodes):
            node.mailbox.deq_probe = self.causal.dequeue_hook(node.name)

    # ------------------------------------------------------------------
    # addressing
    # ------------------------------------------------------------------
    @property
    def scheduler_node(self) -> Node:
        return self._scheduler_override or self.cluster.scheduler_node

    def set_scheduler_node(self, node: Node) -> None:
        """Repoint "the scheduler" after a backup takeover.

        Actors hold no cached copy of the scheduler address — every send
        resolves through this property — so flipping the override is the
        whole routing side of a failover.  Messages already in flight to
        the dead primary are absorbed by its mailbox (delivery completes
        regardless of receiver liveness, keeping byte conservation exact);
        the SchedulerFailover broadcast makes senders re-announce anything
        the primary may have taken to its grave.
        """
        self._scheduler_override = node

    @property
    def backup_node(self) -> Node | None:
        return self.cluster.backup_node

    def source_node(self, s: int) -> Node:
        return self.cluster.source_nodes[s]

    def join_node(self, j: int) -> Node:
        """Join node by pool index (0 .. n_potential_nodes-1)."""
        return self.cluster.join_nodes[j]

    @property
    def n_potential(self) -> int:
        return len(self.cluster.join_nodes)

    # ------------------------------------------------------------------
    # messaging
    # ------------------------------------------------------------------
    def send(self, src: Node, dst: Node, msg: Any,
             parent: int | None = None,
             best_effort: bool = False) -> Generator[Any, Any, None]:
        """Send ``msg`` over the network, recording comm statistics.

        Data chunks are stamped with a run-unique ``transfer_seq`` here —
        the single chokepoint every actor sends through — so receivers can
        suppress re-deliveries idempotently (at-least-once transport).

        ``parent`` optionally overrides the causal-log provenance of the
        send: processes spawned off an actor's main loop (split/output
        transfers) capture :meth:`CausalLog.cause_of` at spawn time and
        pass it here, because by the time they run the actor has usually
        moved on to another message.

        Not itself a generator: the books are kept at the call, and the
        network's generator is returned for the caller's ``yield from`` —
        one frame fewer for every resume of a blocked sender to walk.
        """
        if isinstance(msg, DataChunk):
            if msg.transfer_seq < 0:
                msg.transfer_seq = self._next_seq
                self._next_seq += 1
            hop, tuples, chunks = msg.hop, self.comm.tuples_by_hop, self.comm.chunks_by_hop
            tuples[hop] = tuples.get(hop, 0) + msg.values.size
            chunks[hop] = chunks.get(hop, 0) + 1
        return self.cluster.network.send(src, dst, msg, parent, best_effort)

    def trace(self, category: str, actor: str, **detail: Any) -> None:
        self.tracer.emit(self.sim.now, category, actor, **detail)
