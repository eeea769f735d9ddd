"""Run driver: wire the actors, run the simulation, assemble the result.

This is the public entry point::

    from repro import run_join, RunConfig, Algorithm

    result = run_join(RunConfig(algorithm=Algorithm.HYBRID, initial_nodes=4))
    print(result.summary())

The driver also validates the run end-to-end by default: the distributed
match count must equal the sequential oracle on the identical relations,
and the network must conserve bytes.

Everything but :func:`single_query_context` (what makes a query the only
one on its cluster) is shared with the multi-tenant workload driver
(:mod:`repro.workload`), which runs many of these pipelines inside one
simulator: :func:`open_run` / :func:`close_run` around the simulation,
:func:`spawn_scheduler` / :func:`spawn_join` / :func:`spawn_sources` per
query, and :func:`assemble_result` turning each scheduler outcome into a
per-query :class:`JoinRunResult`.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any, NamedTuple

from ..cluster import Cluster, WorkloadCluster
from ..config import CostModel, RunConfig
from ..data import materialize_relation
from ..faults import FaultInjector, FaultPlan
from ..obs import (
    PHASE_NAMES,
    SCHEDULER_TRACK,
    MetricsRegistry,
    ObsBudget,
    PhaseTimeline,
    SpanLog,
    harvest,
)
from ..seqjoin import match_count
from ..sim import Simulator, Tracer
from .context import RunContext, install_lockdep, lockdep_enabled
from .datasource import DataSourceProcess
from .joinnode import JoinProcess
from .messages import Hop
from .potential import PrivatePotential
from .results import JoinRunResult, NodeLoad, NodeUtilization, PhaseTimes
from .scheduler import SchedulerOutcome, SchedulerProcess

__all__ = [
    "run_join", "assemble_result", "single_query_context", "Run", "open_run",
    "close_run", "spawn_scheduler", "spawn_join", "spawn_sources",
]


class Run(NamedTuple):
    """What one simulation owns exactly once, however many queries."""

    sim: Simulator
    metrics: MetricsRegistry
    tracer: Tracer
    faults: FaultInjector | None
    #: ``trace(category, actor, **detail)`` stamped with the simulated time
    trace: Callable[..., None]


def open_run(plan: FaultPlan | None, cost: CostModel, *, trace: bool,
             trace_buffer: int | None = None) -> Run:
    """A fresh simulator with its registry, tracer and — only when the
    plan injects anything — fault injector."""
    sim = Simulator()
    metrics = MetricsRegistry(clock=lambda: sim.now)
    tracer = Tracer(enabled=trace, maxlen=trace_buffer)

    def emit(category: str, actor: str, **detail: Any) -> None:
        tracer.emit(sim.now, category, actor, **detail)

    faults = None
    if plan is not None and plan.active:
        faults = FaultInjector(plan, sim, metrics, cost, trace=emit)
    return Run(sim, metrics, tracer, faults, emit)


def close_run(sim: Simulator, metrics: MetricsRegistry,
              cluster: Cluster | WorkloadCluster, spans: SpanLog,
              edges_dropped: int = 0) -> None:
    """End of a run, after its results are assembled (their phase spans
    count against the budget too): the network conserved every byte, the
    substrate totals land in the registry, and a budgeted run publishes
    what its bounded collectors shed.  Unbudgeted runs publish nothing —
    their report is unchanged."""
    cluster.network.assert_conserved()
    harvest(metrics, sim, cluster.network, cluster.all_nodes)
    metrics.close()
    if spans.bounded:
        metrics.inc("obs.spans_dropped", spans.dropped)
        metrics.inc("obs.edges_dropped", edges_dropped)


def single_query_context(cfg: RunConfig) -> RunContext:
    """The context of a query that has the cluster to itself: its own
    simulator (``ctx.sim``) and hardware, every join node beyond the initial
    ones on a private potential list, causality logged if traced or under lockdep."""
    spec = cfg.effective_cluster
    run = open_run(cfg.faults, spec.cost, trace=cfg.trace,
                   trace_buffer=cfg.trace_buffer)
    budget = ObsBudget.from_bytes(cfg.obs_budget_bytes)
    ctx = RunContext(
        run.sim, cfg,
        cluster=Cluster.build(run.sim, spec, metrics=run.metrics,
                              faults=run.faults),
        metrics=run.metrics,
        spans=SpanLog(budget.span_sample, budget.span_outliers),
        tracer=run.tracer,
        faults=run.faults,
        potential=PrivatePotential(
            cfg.initial_nodes, spec.n_potential_nodes, spec.memory_of),
    )
    if cfg.trace or lockdep_enabled(cfg):
        ctx.attach_causal_log()
    install_lockdep(run.sim, cfg, run.metrics, ctx.causal)
    return ctx


def actor_classes(
    ctx: RunContext,
) -> tuple[type[SchedulerProcess], type[JoinProcess], type[DataSourceProcess]]:
    """The (scheduler, join process, data source) classes of one query: the
    paper's three actors, or — all three, as the standby's verdicts need peers
    that understand them — each wrapped in its fault-tolerance layer.  The
    standby machine exists exactly when the fault plan arms the membership
    layer; imported on demand, so the fault-free path runs with it absent."""
    if ctx.backup_node is not None:
        from .recovery import (
            FaultTolerantDataSource,
            FaultTolerantJoinProcess,
            FaultTolerantScheduler,
        )

        return (FaultTolerantScheduler, FaultTolerantJoinProcess,
                FaultTolerantDataSource)
    return SchedulerProcess, JoinProcess, DataSourceProcess


def spawn_scheduler(ctx: RunContext) -> SchedulerProcess:
    """Spawn one query's scheduler: its simulation process is
    ``scheduler.proc``, the finished query's outcome ``scheduler.result()``.
    Join processes come next (all of them up front, or one per grant),
    then :func:`spawn_sources` — the order is part of the event stream."""
    scheduler = actor_classes(ctx)[0](ctx)
    scheduler.spawn(f"scheduler-q{ctx.query}")
    return scheduler


def spawn_join(ctx: RunContext, j: int, name: str) -> tuple[JoinProcess, Any]:
    """Spawn pool node ``j``'s join process (dormant until activated);
    returns it and its simulation process."""
    jp = actor_classes(ctx)[1](ctx, j)
    return jp, ctx.sim.spawn(jp.run(), name=name)


def _spawn_all_joins(ctx: RunContext, scheduler: SchedulerProcess) -> None:
    """A join process for the entire pool up front, and the injector armed
    with its crash targets."""
    joins = {j: spawn_join(ctx, j, f"join{j}") for j in range(ctx.n_potential)}
    if ctx.faults is not None:
        ctx.faults.attach_scheduler(scheduler.proc)
        ctx.faults.attach_joins(joins)
        ctx.faults.start()


def spawn_sources(ctx: RunContext, scheduler: SchedulerProcess) -> list[DataSourceProcess]:
    """Spawn and return the query's data sources, each starting from the
    scheduler's initial routing table."""
    source = actor_classes(ctx)[2]
    sources = [source(ctx, s, scheduler.router) for s in range(ctx.n_sources)]
    for sp in sources:
        ctx.sim.spawn(sp.run(), name=f"src{sp.index}-q{ctx.query}")
    return sources


def assemble_result(
    ctx: RunContext,
    outcome: SchedulerOutcome,
    validate: bool,
    span_track: str = SCHEDULER_TRACK,
) -> JoinRunResult:
    """Turn a finished scheduler outcome into a validated JoinRunResult.

    Phase times are measured from ``outcome.t_start`` (nonzero in workload
    mode, where a query's pipeline starts at its arrival time), so the
    per-query latency accounting is arrival-relative while the span
    timeline keeps absolute simulated time.
    """
    cfg = ctx.cfg
    # Fold the probe-side replica duplicates into the hop accounting.
    if outcome.probe_dup_tuples:
        ctx.comm.tuples_by_hop[Hop.PROBE_DUP] = outcome.probe_dup_tuples

    times = PhaseTimes(
        build_s=outcome.t_build - outcome.t_start,
        reshuffle_s=outcome.t_reshuffle - outcome.t_build,
        probe_s=outcome.t_probe - outcome.t_reshuffle,
        ooc_pass_s=outcome.t_ooc - outcome.t_probe,
    )

    # Scheduler-track phase spans come straight from the outcome stamps, so
    # the chrome trace's phase lanes agree with PhaseTimes by construction.
    boundaries = (
        outcome.t_start, outcome.t_build, outcome.t_reshuffle,
        outcome.t_probe, outcome.t_ooc,
    )
    for name, t0, t1 in zip(PHASE_NAMES, boundaries, boundaries[1:]):
        if t1 > t0 or name == "build":
            ctx.spans.add(span_track, name, t0, t1)

    reports = outcome.final_reports
    loads = [
        NodeLoad(
            node=j,
            stored_tuples=r.stored_tuples,
            activated_at=r.activated_at,
            peak_memory=r.peak_memory,
            spilled_r_tuples=r.spilled_r_tuples,
        )
        for j, r in sorted(reports.items())
    ]
    matches = sum(r.matches for r in reports.values())

    reference = None
    if validate:
        r_values = materialize_relation(cfg.workload, "R", ctx.n_sources)
        s_values = materialize_relation(cfg.workload, "S", ctx.n_sources)
        reference = match_count(r_values, s_values)
        if matches != reference:
            raise AssertionError(
                f"join result mismatch: distributed={matches} oracle={reference} "
                f"({cfg.algorithm.value}, initial={cfg.initial_nodes})"
            )
        stored_total = sum(l.stored_tuples for l in loads)
        spilled_total = sum(r.spilled_r_tuples for r in reports.values())
        if stored_total + spilled_total != r_values.size:
            raise AssertionError(
                f"build tuples lost: stored={stored_total} spilled={spilled_total} "
                f"generated={r_values.size}"
            )

    result = JoinRunResult(
        config=cfg,
        times=times,
        matches=matches,
        reference_matches=reference,
        comm=ctx.comm,
        loads=loads,
        nodes_used=len(outcome.activated),
        expansion_trace=list(outcome.expansion_trace),
        n_splits=outcome.n_splits,
        split_moved_tuples=outcome.split_moved_tuples,
        # Split time (Figure 5): serialized relief-cycle overhead plus the
        # wall time of the actual split transfers on the join nodes.
        split_busy_s=outcome.split_busy_s
        + sum(r.split_transfer_s for r in reports.values()),
        reshuffle_moved_tuples=outcome.reshuffle_moved_tuples,
        overcommit_bytes=sum(r.overcommit_bytes for r in reports.values()),
        spilled_r_tuples=sum(r.spilled_r_tuples for r in reports.values()),
        spilled_s_tuples=sum(r.spilled_s_tuples for r in reports.values()),
        output_tuples=sum(r.output_tuples for r in reports.values()),
        output_spilled_tuples=sum(
            r.output_spilled_tuples for r in reports.values()
        ),
        output_sink_nodes=sum(
            1 for r in reports.values() if r.is_output_sink
        ),
        timeline=PhaseTimeline(ctx.spans.spans),
        tracer=ctx.tracer,
        causal=ctx.causal,
    )
    if validate and cfg.materialize_output:
        kept = result.output_tuples + result.output_spilled_tuples
        if kept != matches:
            raise AssertionError(
                f"materialized output lost: kept={kept} matches={matches}"
            )
    return result


def run_join(cfg: RunConfig, validate: bool = True) -> JoinRunResult:
    """Execute one simulated parallel join under ``cfg``.

    ``validate=True`` additionally computes the exact join cardinality with
    the sequential reference and raises ``AssertionError`` on any mismatch
    or conservation violation — the whole-system invariant the test suite
    leans on.  Pass ``validate=False`` for large benchmark sweeps where the
    oracle's O((|R|+|S|) log |R|) cost is unwanted.
    """
    ctx = single_query_context(cfg)
    sim = ctx.sim
    scheduler = spawn_scheduler(ctx)
    _spawn_all_joins(ctx, scheduler)
    spawn_sources(ctx, scheduler)

    sim.run()

    outcome = scheduler.result()
    if outcome is None:
        raise RuntimeError(
            "query did not complete: scheduler produced no outcome "
            "(primary crashed with no standby takeover?)"
        )
    result = assemble_result(ctx, outcome, validate)
    close_run(sim, ctx.metrics, ctx.cluster, ctx.spans, ctx.causal.dropped)
    result.metrics = ctx.metrics.snapshot()

    total = sim.now
    if total > 0:
        reports = outcome.final_reports
        tracked = [
            (f"src{s}", node)
            for s, node in enumerate(ctx.cluster.source_nodes)
        ] + [(f"join{j}", ctx.join_node(j)) for j in sorted(reports)]
        for track, node in tracked:
            result.utilization.append(NodeUtilization(
                node=node.node_id,
                role=node.role,
                track=track,
                cpu=node.cpu.busy_time / total,
                tx=node.tx.busy_time / total,
                rx=node.rx.busy_time / total,
                disk=node.disk.busy_time / total,
            ))

    return result
