"""Multi-tenant workload driver: N concurrent joins, one shared cluster.

``run_workload`` is the subsystem's entry point.  It builds one simulator
holding one :class:`~repro.cluster.WorkloadCluster` (shared interconnect
and join-node pool, per-query scheduler/source nodes), spawns the
:class:`~repro.core.pool.ResourcePoolProcess` that owns every join node,
and one *query runner* process per generated query.  A runner sleeps
until its arrival time, asks the pool for the query's initial nodes
(admission), then runs the completely unmodified single-query pipeline —
scheduler, sources, lazily-adopted join processes — against its private
view of the shared cluster, with the pool's client as the scheduler's
potential list.  Every query is still oracle-validated.

Fault handling mirrors the single-query driver where it can and narrows
where it must: link faults (drops, slowdowns) ride the shared injector
unchanged, while crash specs are executed against the *pool* (a dormant
shared node disappears from the free list) because in workload mode a
dormant node has no process to interrupt — join processes exist only
while a query holds the node.
"""

from __future__ import annotations

from collections.abc import Callable, Generator
from dataclasses import asdict, dataclass
from typing import Any

from ..cluster import WorkloadCluster
from ..config import DRAIN_POLL_S, WorkloadConfig
from ..core.context import RunContext, install_lockdep
from ..core.driver import (
    Run,
    assemble_result,
    close_run,
    open_run,
    spawn_join,
    spawn_scheduler,
    spawn_sources,
)
from ..core.messages import Shutdown
from ..core.pool import PoolClient, PoolStats, ResourcePoolProcess
from ..core.scheduler import SchedulerOutcome
from ..faults import CrashSpec
from ..obs import (
    SCHEDULER_TRACK,
    MetricsRegistry,
    ObsBudget,
    PhaseTimeline,
    Snapshot,
    StreamingCollector,
)
from ..sim import AllOf, Interrupt, Process, Simulator
from .generator import QuerySpec, generate_workload, query_run_config
from .results import QueryStats, WorkloadResult

__all__ = ["run_workload"]


@dataclass
class _QueryRecord:
    """Mutable per-query facts the runner deposits for post-run assembly."""

    arrival_s: float = 0.0
    admitted_s: float = 0.0
    finished_s: float = 0.0
    ctx: RunContext | None = None
    outcome: SchedulerOutcome | None = None


def _query_runner(
    run: Run,
    wc: WorkloadCluster,
    pool: ResourcePoolProcess,
    spec: QuerySpec,
    cfg: WorkloadConfig,
    collector: StreamingCollector,
    record: _QueryRecord,
) -> Generator[Any, Any, None]:
    """One query's lifecycle: arrive -> admit -> pipeline -> record."""
    sim = run.sim
    qid = spec.query_id
    if spec.arrival_s > 0:
        yield sim.timeout(spec.arrival_s)
    record.arrival_s = sim.now
    rcfg = query_run_config(cfg, spec)

    def adopt(ctx: RunContext, j: int) -> None:
        # A granted node may have served an earlier query: clear its
        # hardware state, then bind this query's join process to it.
        wc.reset_join_node(j)
        spawn_join(ctx, j, f"join{j}-q{qid}")

    potential = PoolClient(node=pool.node, query_id=qid, adopt=adopt)
    ctx = RunContext(
        sim, rcfg, cluster=wc.views[qid], metrics=run.metrics,
        spans=collector.spans, tracer=run.tracer, faults=run.faults,
        potential=potential, query=qid,
    )
    ctx.trace("query_arrival", f"query{qid}",
              algorithm=rcfg.algorithm.value, want=rcfg.initial_nodes)

    yield from potential.admit(ctx, rcfg.initial_nodes)
    record.admitted_s = sim.now
    ctx.trace("query_admitted", f"query{qid}",
              nodes=list(potential.initial),
              waited=sim.now - record.arrival_s)

    scheduler = spawn_scheduler(ctx)
    spawn_sources(ctx, scheduler)
    outcome = yield scheduler.proc
    record.finished_s = sim.now
    record.ctx = ctx
    record.outcome = outcome
    # Feed the streaming collector at finish time (not post-run) so a
    # --live snapshot taken mid-workload already carries the latency
    # sketch and per-query progress of everything finished so far.
    collector.observe("workload.query_latency_s",
                      sim.now - record.arrival_s, t=sim.now)
    collector.observe("workload.queue_delay_s",
                      record.admitted_s - record.arrival_s, t=sim.now)
    ctx.trace("query_finished", f"query{qid}",
              latency=sim.now - record.arrival_s)


def _crash_timer(
    sim: Simulator, pool: ResourcePoolProcess, spec: CrashSpec
) -> Generator[Any, Any, None]:
    """Fail-stop a dormant pool node at its scheduled time (workload crash
    model: the node vanishes from the free list; a held node is a traced
    no-op — see ResourcePoolProcess.crash_node)."""
    if spec.at_time is not None and spec.at_time > 0:
        yield sim.timeout(spec.at_time)
    pool.crash_node(spec.node)


def _live_emitter(
    sim: Simulator,
    collector: StreamingCollector,
    metrics: MetricsRegistry,
    interval: float,
    sink: Callable[[Snapshot], None] | None,
) -> Generator[Any, Any, None]:
    """Emit a mergeable snapshot every ``interval`` simulated seconds.

    Runs until the supervisor interrupts it (after the last query
    finishes) — a perpetual timeout loop would otherwise keep the
    simulation alive forever.
    """
    try:
        while True:
            yield sim.timeout(interval)
            snap = collector.snapshot(registry=metrics)
            if sink is not None:
                sink(snap)
    except Interrupt:
        return


def _supervisor(
    sim: Simulator, wc: WorkloadCluster, runners: list[Any],
    emitter: Process | None = None,
) -> Generator[Any, Any, None]:
    """Shut the pool down once every query runner has finished."""
    yield AllOf(sim, runners)
    if emitter is not None and emitter.is_alive:
        # The emitter's pending timeout is abandoned; it still drains from
        # the queue, so a --live run's final clock reading may trail the
        # last query by up to one interval (latencies are unaffected).
        emitter.interrupt("workload-complete")
    yield from wc.network.send(wc.pool_node, wc.pool_node, Shutdown())


def run_workload(
    cfg: WorkloadConfig,
    validate: bool = True,
    on_snapshot: Callable[[Snapshot], None] | None = None,
    specs: list[QuerySpec] | None = None,
) -> WorkloadResult:
    """Execute a multi-query workload; every query oracle-validated.

    ``validate`` is per query and works exactly like ``run_join``'s: the
    distributed match count must equal the sequential oracle on that
    query's relations.  Shared-system invariants (byte conservation on the
    one network) are always asserted.

    ``on_snapshot`` receives each periodic :class:`~repro.obs.Snapshot`
    when ``cfg.obs.live_interval_s`` is set (the ``--live`` path); the
    final snapshot is returned on ``WorkloadResult.snapshot`` either way.

    ``specs`` overrides the generated workload with explicit queries (the
    fleet layer passes a cohort's renumbered specs so per-query seeds and
    arrivals stay pinned to their *global* trace positions — see
    docs/FLEET.md).  Ids must be exactly ``0..cfg.n_queries-1`` because
    they index the cluster's per-query views.
    """
    if specs is None:
        specs = generate_workload(cfg)
    else:
        specs = list(specs)
        if [s.query_id for s in specs] != list(range(cfg.n_queries)):
            raise ValueError(
                f"explicit specs must carry ids 0..{cfg.n_queries - 1} in "
                f"order, got {[s.query_id for s in specs]}"
            )
    cluster_spec = cfg.effective_cluster
    run = open_run(cfg.faults, cluster_spec.cost, trace=cfg.trace)
    sim, metrics, injector = run.sim, run.metrics, run.faults
    install_lockdep(sim, cfg, metrics)
    collector = StreamingCollector(
        clock=lambda: sim.now,
        budget=ObsBudget.from_bytes(cfg.obs.budget_bytes),
        shard=cfg.obs.shard,
    )
    spans = collector.spans

    wc = WorkloadCluster.build(
        sim, cluster_spec, cfg.n_queries, metrics=metrics, faults=injector
    )
    pool = ResourcePoolProcess(
        sim,
        wc.network,
        wc.pool_node,
        free_nodes=list(range(cluster_spec.n_potential_nodes)),
        sched_nodes={
            q: wc.views[q].scheduler_node for q in range(cfg.n_queries)
        },
        policy=cfg.policy,
        fair_share_cap=cfg.fair_share_cap,
        grant_timeout_s=cfg.effective_grant_timeout,
        poll_interval=DRAIN_POLL_S * cfg.scale,
        memory_of=cluster_spec.memory_of,
        metrics=metrics,
        trace=run.trace,
    )
    pool_proc = sim.spawn(pool.run(), name="pool")
    if injector is not None:
        for crash in injector.plan.crashes:
            sim.spawn(
                _crash_timer(sim, pool, crash),
                name=f"fault:pool-crash@{crash.at_time}",
            )

    records = [_QueryRecord() for _ in specs]
    runners = [
        sim.spawn(
            _query_runner(run, wc, pool, spec, cfg, collector, record),
            name=f"query{spec.query_id}",
        )
        for spec, record in zip(specs, records)
    ]
    emitter: Process | None = None
    if cfg.obs.live_interval_s is not None:
        emitter = sim.spawn(
            _live_emitter(sim, collector, metrics,
                          cfg.obs.live_interval_s, on_snapshot),
            name="obs-live-emitter",
        )
    sim.spawn(_supervisor(sim, wc, runners, emitter),
              name="workload-supervisor")

    sim.run()

    pool_stats: PoolStats = pool_proc.value

    results: list[Any] = []
    query_stats: list[QueryStats] = []
    for spec, record in zip(specs, records):
        assert record.ctx is not None and record.outcome is not None, (
            f"query {spec.query_id} never completed"
        )
        res = assemble_result(
            record.ctx, record.outcome, validate,
            span_track=f"{SCHEDULER_TRACK}:q{spec.query_id}",
        )
        results.append(res)
        stats = QueryStats(
            query=spec.query_id,
            algorithm=spec.entry.algorithm.value,
            arrival_s=record.arrival_s,
            admitted_s=record.admitted_s,
            finished_s=record.finished_s,
            initial_nodes=spec.entry.initial_nodes,
            nodes_used=res.nodes_used,
            recruit_denials=pool_stats.denials_by_query.get(
                spec.query_id, 0
            ),
            spilled_r_tuples=res.spilled_r_tuples,
            spilled_s_tuples=res.spilled_s_tuples,
            matches=res.matches,
            reference_matches=res.reference_matches,
        )
        query_stats.append(stats)
        metrics.set_gauge("workload.query_latency_s", stats.latency_s,
                          query=spec.query_id)
        metrics.set_gauge("workload.queue_delay_s", stats.queue_delay_s,
                          query=spec.query_id)
        metrics.inc("workload.queries", 1,
                    algorithm=spec.entry.algorithm.value)
    makespan = max((q.finished_s for q in query_stats), default=0.0)
    metrics.set_gauge("workload.makespan_s", makespan)
    # (A workload attaches no causal log, so it can shed no edges.)
    close_run(sim, metrics, wc, spans)

    in_use_hist = metrics.find("pool.nodes_in_use")
    pool_utilization = (
        in_use_hist.time_weighted_mean() / pool.total_nodes
        if in_use_hist is not None and pool.total_nodes
        else 0.0
    )

    if cfg.obs.live_interval_s is not None:
        metrics.inc("obs.snapshots_emitted", collector.snapshots_emitted)
    final_snapshot = collector.snapshot(registry=metrics)

    return WorkloadResult(
        config=cfg,
        queries=query_stats,
        results=results,
        pool=asdict(pool_stats),
        makespan_s=makespan,
        pool_utilization=pool_utilization,
        metrics=metrics.snapshot(),
        timeline=PhaseTimeline(spans.spans),
        tracer=run.tracer,
        snapshot=final_snapshot,
        spans_dropped=spans.dropped,
    )
