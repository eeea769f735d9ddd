"""Shared run context: wiring between the simulated cluster and the actors.

One :class:`RunContext` exists per run.  It owns the cluster, the position
map, the tracer and the cross-actor accounting (hop-tagged communication
counters the figures are computed from), and provides addressed send
helpers so actor code reads like message-passing pseudocode.
"""

from __future__ import annotations

import functools
import os
from collections.abc import Generator
from typing import Any

from ..cluster import Cluster, Node
from ..config import RunConfig
from ..faults import FaultInjector
from ..hashing import PositionMap
from ..obs import CausalLog, MetricsRegistry, ObsBudget, SpanLog
from ..sim import Simulator, Tracer
from .messages import DataChunk
from .results import CommStats

__all__ = ["RunContext", "lockdep_enabled"]


def lockdep_enabled(cfg: RunConfig) -> bool:
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


class RunContext:
    """Everything a scheduler/source/join process needs to participate.

    Two construction modes:

    * **private** (default): builds and owns a whole cluster, the metrics
      registry, the fault injector and the causal log — one query, one
      cluster, exactly the pre-workload behaviour.
    * **shared** (``cluster=...`` given): the workload driver passes in a
      per-query *view* of the shared cluster (own scheduler/source nodes,
      the communal join-node pool) plus the shared metrics/span/tracer/
      fault plumbing.  The context then skips cluster construction and
      causal-log wiring (message causality is a single-query diagnostic;
      interleaved queries would corrupt one global log), and gains two
      workload-only attributes: ``pool`` (the query's
      :class:`~repro.core.pool.PoolClient`) and ``initial_join_nodes``
      (the admission grant, replacing ``range(cfg.initial_nodes)``).
    """

    def __init__(
        self,
        sim: Simulator,
        cfg: RunConfig,
        *,
        cluster: Cluster | None = None,
        metrics: MetricsRegistry | None = None,
        spans: SpanLog | None = None,
        tracer: Tracer | None = None,
        faults: FaultInjector | None = None,
        query: int = 0,
    ) -> None:
        self.sim = sim
        self.cfg = cfg
        shared = cluster is not None
        self.query = query
        #: workload mode: the query's handle to the shared pool actor
        self.pool: Any | None = None
        #: workload mode: pool indices granted at admission
        self.initial_join_nodes: list[int] | None = None
        self.metrics = (
            metrics if metrics is not None
            else MetricsRegistry(clock=lambda: sim.now)
        )
        #: capacities of this run's span/causal logs (private mode only:
        #: the workload driver owns the shared collectors and passes
        #: ``spans`` in)
        self.obs_budget = ObsBudget.from_bytes(cfg.obs_budget_bytes)
        self.spans = (
            spans if spans is not None
            else SpanLog(self.obs_budget.span_sample,
                         self.obs_budget.span_outliers)
        )
        self.tracer = (
            tracer if tracer is not None
            else Tracer(enabled=cfg.trace, maxlen=cfg.trace_buffer)
        )
        #: fault injector (None on the fault-free path — the network then
        #: takes the exact pre-fault code path, byte for byte)
        if shared:
            self.faults = faults
        else:
            self.faults = (
                FaultInjector(cfg.faults, sim, self.metrics, trace=self.trace)
                if cfg.faults is not None and cfg.faults.active
                else None
            )
        self.cluster = (
            cluster if cluster is not None
            else Cluster.build(
                sim, cfg.effective_cluster, metrics=self.metrics,
                faults=self.faults,
            )
        )
        self.posmap = PositionMap(cfg.hash_positions, mix=cfg.mix_hash)
        self.comm = CommStats()
        self.cost = cfg.effective_cluster.cost
        if not shared and self.faults is not None:
            self.faults.resolve_timing(self.cost)
        #: monotonically increasing data-chunk sequence (duplicate keying)
        self._next_seq = 0
        # Barrier-split-pointer semantics (§4.2.1): at most one split's
        # data transfer is on the wire at a time — the scheduler's "done"
        # message gates the next split, so split traffic serializes at
        # single-link bandwidth (the §4.2.4 model's T_split = volume*t_w).
        from ..sim import Resource

        self.split_transfer_token = Resource(sim, capacity=1,
                                             name="split-barrier")
        # Causal message log.  Node names carry *global* node ids
        # (join nodes are "join<1 + n_sources + pool_index>") while spans
        # and the tracer use pool-indexed tracks ("join<pool_index>"); the
        # alias map folds both onto the track names so the critical-path
        # analysis can join spans with message edges.  Shared mode keeps a
        # per-query *empty* log (cause_of -> None) and leaves the shared
        # network's causality hook unset.
        aliases = {self.cluster.scheduler_node.name: "scheduler"}
        for s, node in enumerate(self.cluster.source_nodes):
            aliases[node.name] = f"src{s}"
        for j, node in enumerate(self.cluster.join_nodes):
            aliases[node.name] = f"join{j}"
        if getattr(self.cluster, "backup_node", None) is not None:
            aliases[self.cluster.backup_node.name] = "backup"
        self.causal = CausalLog(
            aliases, self.obs_budget.edge_sample, self.obs_budget.edge_outliers
        )
        #: control-plane failover: when the backup takes over, every actor
        #: addressing "the scheduler" must follow it (see set_scheduler_node)
        self._scheduler_override: Node | None = None
        if not shared:
            self.cluster.network.causality = self.causal
            for node in (
                [self.cluster.scheduler_node]
                + list(self.cluster.source_nodes)
                + list(self.cluster.join_nodes)
            ):
                node.mailbox.deq_probe = functools.partial(
                    self.causal.note_dequeue, node.name
                )
        # Runtime deadlock detector.  Attach-once: in workload mode every
        # query's context shares one simulator, so the first query's
        # monitor serves them all (shared mode also has no causal log to
        # hand it — see the class docstring).
        if sim.lockdep is None and lockdep_enabled(cfg):
            from ..sim.lockdep import LockdepMonitor

            LockdepMonitor(
                sim,
                metrics=self.metrics,
                causal=None if shared else self.causal,
            ).install()

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
        return getattr(self.cluster, "backup_node", None)

    def source_node(self, s: int) -> Node:
        return self.cluster.source_nodes[s]

    def join_node(self, j: int) -> Node:
        """Join node by pool index (0 .. n_potential_nodes-1)."""
        return self.cluster.join_nodes[j]

    @property
    def n_sources(self) -> int:
        return len(self.cluster.source_nodes)

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
            self.comm.tuples_by_hop[msg.hop] = (
                self.comm.tuples_by_hop.get(msg.hop, 0) + msg.tuples
            )
            self.comm.chunks_by_hop[msg.hop] = (
                self.comm.chunks_by_hop.get(msg.hop, 0) + 1
            )
        self.comm.bytes_by_kind[msg.kind] = (
            self.comm.bytes_by_kind.get(msg.kind, 0) + msg.nbytes
        )
        return self.cluster.network.send(
            src, dst, msg, parent=parent, best_effort=best_effort
        )

    def trace(self, category: str, actor: str, **detail: Any) -> None:
        self.tracer.emit(self.sim.now, category, actor, **detail)
