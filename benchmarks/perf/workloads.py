"""The four workloads: seeded inputs, one pass, and what a pass must reproduce.

A workload builds its inputs from the seed alone and runs one *pass* — a
fixed list of operations (cells, queries, cohorts) through a public entry
point of ``repro``.  Every operation comes back as an :class:`Op` carrying
the *simulated* values the model produced for it; those repeat exactly and
are checked by the worker, never scored.  Host time is measured around the
pass, from outside.

Sizes are set by the 3420 s the driver allows for 92 runs on a host whose
speed moves by a factor of two (README, "Run shape"): a pass is 1.5 to 2 s
on the host's good days, 2.5 to 3.5 s on its bad ones.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.config import (
    MTUPLES,
    Algorithm,
    ClusterSpec,
    Distribution,
    FleetConfig,
    QueryMixEntry,
    RunConfig,
    WorkloadConfig,
    WorkloadSpec,
)
from repro.core import run_join
from repro.workload import (
    QuerySpec,
    generate_workload,
    partition_cohorts,
    query_run_config,
    run_fleet,
    run_workload,
)

from layers import SpanLog

#: OS worker processes of ``fleet-sparse``; results are shard-count-invariant
FLEET_SHARDS = 2

#: counters read from the program's public results, keyed by the per-layer
#: metric they feed (several registry names are summed)
COUNTERS: dict[str, tuple[str, ...]] = {
    "sim.events": ("sim.events_executed",),
    "dataplane.chunks_routed": ("dataplane.chunks_routed",),
    "cluster.network.messages": ("net.delivered_messages",),
    "cluster.network.bytes": ("net.delivered_bytes",),
    "cluster.disk.bytes": ("disk.bytes_read", "disk.bytes_written"),
    "core.mailbox.messages": ("mailbox.messages",),
    "core.sched.relief_cycles": ("sched.relief_cycles",),
    "hashing.table.inserted_tuples": ("hash.inserted_tuples",),
    "hashing.table.probe_rows": ("dataplane.bulk_probe_rows",),
}


@dataclass
class Op:
    """One operation of a pass: a cell, a query, a cohort or a whole run."""

    id: str
    #: simulated values — exact-repeat, compared with ``==``
    sim: dict[str, Any] = field(default_factory=dict)
    #: host seconds, where the harness itself made the call (cells, runs)
    wall_s: float | None = None
    error: str | None = None


@dataclass
class PassResult:
    ops: list[Op]
    #: exact-repeat counts of the whole pass (``COUNTERS`` keys and more)
    counts: dict[str, float]
    #: host-time facts only the fleet has (worker walls); never compared
    host: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``build(seed, quick) -> inputs``; touches nothing but the seed
    build: Callable[[int, bool], Any]
    #: ``run_pass(inputs, validate, spans) -> PassResult``
    run_pass: Callable[[Any, bool, SpanLog], PassResult]
    #: real tuples (R + S after scale) one pass joins
    tuples: Callable[[Any], int]
    #: ids of the operations one pass attempts (known before it runs, so a
    #: pass that raises still counts every operation it lost)
    op_ids: Callable[[Any], list[str]]
    #: the same work driven in-process for the profile (fleet only)
    profile_pass: Callable[[Any, SpanLog], None] | None = None
    #: OS processes a pass keeps busy at once
    processes: int = 1


def _err(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"[:300]


def _counts(counter_total: Callable[[str], float]) -> dict[str, float]:
    """``COUNTERS`` keys from a ``name -> total over all labels`` lookup
    (``Snapshot.counter_total``, ``FleetResult.counter_total``)."""
    return {key: sum(counter_total(n) for n in names)
            for key, names in COUNTERS.items()}


def _registry_counts(metrics: list[dict]) -> dict[str, float]:
    """The same from a ``MetricsRegistry.snapshot()`` list (``run_join``)."""
    totals: dict[str, float] = {}
    for m in metrics:
        if m["type"] == "counter":
            totals[m["name"]] = totals.get(m["name"], 0.0) + m["value"]
    return _counts(lambda name: totals.get(name, 0.0))


# ----------------------------------------------------------------------
# grid-small / join-large: run_join cells
# ----------------------------------------------------------------------
def _cell(alg: Algorithm, nodes: int, seed: int, scale: float,
          cluster: ClusterSpec = ClusterSpec(), **spec: Any) -> tuple[str, RunConfig]:
    dist = spec.get("distribution", Distribution.UNIFORM)
    return (
        f"{alg.value}/{nodes}/{dist.value}",
        RunConfig(
            algorithm=alg, initial_nodes=nodes, trace=False, lockdep=False,
            cluster=cluster,
            workload=WorkloadSpec(scale=scale, seed=seed, **spec),
        ),
    )


def _build_grid_small(seed: int, quick: bool) -> list[tuple[str, RunConfig]]:
    # BENCH_2's operating point (10M x 10M, uniform, scale 0.02), both ends
    # of the sweep.  The issue's full 4 x {2, 8} grid is 6 s a pass, four
    # times what the driver's cap allows; split, the dearest cell (twice
    # any other), runs in workload-contended's mix instead.
    cells = [(Algorithm.HYBRID, 2), (Algorithm.OUT_OF_CORE, 8)]
    if not quick:
        cells += [(Algorithm.REPLICATE, 8)]
    return [_cell(alg, n, seed, 0.02) for alg, n in cells]


def _build_join_large(seed: int, quick: bool) -> list[tuple[str, RunConfig]]:
    # The issue's scale 1.0 — chunks of the paper's 10 000 real tuples, 50x
    # the array work a chunk of grid-small carries — on a fifth of its
    # relations (10M x 10M is 13 s a pass): 200 chunks a relation instead of
    # 1000, node memory cut in proportion so the same expansions happen.
    tuples = (MTUPLES // 5) if quick else 2 * MTUPLES
    size = {"r_tuples": tuples, "s_tuples": tuples}
    cluster = ClusterSpec(
        hash_memory_bytes=ClusterSpec().hash_memory_bytes * tuples // (10 * MTUPLES))
    return [
        _cell(Algorithm.REPLICATE, 8, seed, 1.0, cluster, **size),
        # fig10's skew: the reshuffle extracts and re-inserts the hot range
        _cell(Algorithm.HYBRID, 4, seed, 1.0, cluster, **size,
              distribution=Distribution.GAUSSIAN, gauss_sigma=0.001),
    ]


def _run_cells(cells: list[tuple[str, RunConfig]], validate: bool,
               spans: SpanLog) -> PassResult:
    ops: list[Op] = []
    metrics: list[dict] = []
    for op_id, cfg in cells:
        op = Op(op_id)
        with spans.span(f"run_join {op_id}") as sp:
            try:
                res = run_join(cfg, validate=validate)
            except Exception as exc:  # the pass goes on; the op is failed
                op.error = _err(exc)
        op.wall_s = sp.end - sp.start
        if op.error is None:
            scale = cfg.workload.scale
            counts = _registry_counts(res.metrics)
            metrics.extend(res.metrics)
            op.sim = {
                "total_s": round(res.paper_scale_total_s, 6),
                "build_s": round(res.times.build_s / scale, 6),
                "matches": res.matches,
                "nodes_used": res.nodes_used,
                "n_splits": res.n_splits,
                "events": counts["sim.events"],
            }
        ops.append(op)
    counts = _registry_counts(metrics)
    counts.update({"core.pool.denials": 0.0, "obs.snapshot_bytes": 0.0,
                   "queries": float(len(cells))})
    return PassResult(ops, counts)


def _cell_ids(cells: list[tuple[str, RunConfig]]) -> list[str]:
    return [op_id for op_id, _ in cells]


def _cells_tuples(cells: list[tuple[str, RunConfig]]) -> int:
    return sum(cfg.workload.real_r_tuples + cfg.workload.real_s_tuples
               for _, cfg in cells)


# ----------------------------------------------------------------------
# arrivals shared by the two multi-query workloads
# ----------------------------------------------------------------------
def _slotted_arrivals(rng: np.random.Generator, n: int,
                      rate_qps: float) -> tuple[float, ...]:
    """One arrival per ``1/rate`` slot, at a seeded offset inside it.

    Every seed offers the same load over the same horizon and differs in
    spacing.  A Poisson draw moves the horizon by +-12 % at these sizes,
    and with it the idle-polling work — seed noise, not signal.
    """
    return tuple(float(t) for t in (np.arange(n) + rng.random(n)) / rate_qps)


def _specs_tuples(cfg: WorkloadConfig, specs: list[QuerySpec]) -> int:
    total = 0
    for spec in specs:
        w = query_run_config(cfg, spec).workload
        total += w.real_r_tuples + w.real_s_tuples
    return total


# ----------------------------------------------------------------------
# workload-contended: run_workload, saturated pool
# ----------------------------------------------------------------------
_HYBRID = QueryMixEntry(algorithm=Algorithm.HYBRID, r_tuples=MTUPLES,
                        s_tuples=MTUPLES, initial_nodes=2)
_SPLIT = QueryMixEntry(algorithm=Algorithm.SPLIT, r_tuples=2 * MTUPLES,
                       s_tuples=MTUPLES, initial_nodes=1,
                       distribution=Distribution.GAUSSIAN, gauss_sigma=0.001)
_REPLICATE = QueryMixEntry(algorithm=Algorithm.REPLICATE, r_tuples=MTUPLES,
                           s_tuples=2 * MTUPLES, initial_nodes=2)
_OOC = QueryMixEntry(algorithm=Algorithm.OUT_OF_CORE, r_tuples=MTUPLES,
                     s_tuples=MTUPLES, initial_nodes=2)
#: 2:1:1:1 by count, not by draw, in this order over and over: every seed
#: runs the same queries in the same order and differs in data and spacing.
#: A seeded order moves the event count of 25 queries by +-7 %, and the time
#: with it.
_CONTENDED_PATTERN = (_HYBRID, _SPLIT, _HYBRID, _REPLICATE, _OOC)


def _build_contended(
    seed: int, quick: bool
) -> tuple[WorkloadConfig, list[QuerySpec]]:
    n = 10 if quick else 25
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    arrivals = _slotted_arrivals(rng, n, rate_qps=20.0)
    cfg = WorkloadConfig(
        n_queries=n, arrival_times=arrivals, seed=seed,
        mix=(_HYBRID, _SPLIT, _REPLICATE, _OOC),
        cluster=ClusterSpec(n_sources=2, n_potential_nodes=8),
        scale=0.02, trace=False, lockdep=False,
    )
    # generate_workload supplies the per-query data seeds; only the class
    # of each query is overridden.
    specs = [dataclasses.replace(spec, entry=_CONTENDED_PATTERN[q % 5])
             for q, spec in enumerate(generate_workload(cfg))]
    return cfg, specs


def _contended_ids(inputs: tuple[WorkloadConfig, list[QuerySpec]]) -> list[str]:
    return [f"q{s.query_id}" for s in inputs[1]] + ["run"]


def _run_contended(inputs: tuple[WorkloadConfig, list[QuerySpec]],
                   validate: bool, spans: SpanLog) -> PassResult:
    cfg, specs = inputs
    with spans.span("run_workload") as sp:
        try:
            res = run_workload(cfg, validate=validate, specs=specs)
        except Exception as exc:
            err = _err(exc)
            return PassResult([Op(i, error=err) for i in _contended_ids(inputs)], {})
    assert res.snapshot is not None
    ops = [
        Op(f"q{q.query}", sim={
            "matches": q.matches, "latency_s": q.latency_s,
            "nodes_used": q.nodes_used, "denials": q.recruit_denials,
        })
        for q in res.queries
    ]
    counts = _counts(res.snapshot.counter_total)
    counts.update({
        "core.pool.denials": float(res.total_denials),
        "obs.snapshot_bytes": float(len(res.snapshot.to_json())),
        "queries": float(len(specs)),
    })
    lat = res.latency_percentiles((50, 99))
    ops.append(Op("run", wall_s=sp.end - sp.start, sim={
        "makespan_s": res.makespan_s,
        "latency_p50_s": lat["p50"], "latency_p99_s": lat["p99"],
        "denials": res.total_denials,
        "degraded": len(res.degraded_queries),
        "events": counts["sim.events"],
    }))
    return PassResult(ops, counts)


# ----------------------------------------------------------------------
# fleet-sparse: run_fleet, long idle gaps
# ----------------------------------------------------------------------
def _build_fleet(seed: int, quick: bool) -> FleetConfig:
    n = 8 if quick else 20
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    workload = WorkloadConfig(
        n_queries=n, arrival_times=_slotted_arrivals(rng, n, rate_qps=2.0),
        seed=seed,
        mix=(QueryMixEntry(algorithm=Algorithm.HYBRID, r_tuples=MTUPLES // 2,
                           s_tuples=MTUPLES // 2, initial_nodes=2),),
        cluster=ClusterSpec(n_sources=2, n_potential_nodes=6),
        scale=0.02, trace=False, lockdep=False,
    )
    return FleetConfig(workload=workload, n_cohorts=4 if quick else 8,
                       n_shards=FLEET_SHARDS)


def _fleet_ids(cfg: FleetConfig) -> list[str]:
    cohorts = partition_cohorts(generate_workload(cfg.workload), cfg.n_cohorts)
    return [f"cohort{ci}" for ci, group in enumerate(cohorts) if group] + ["run"]


def _run_fleet(cfg: FleetConfig, validate: bool, spans: SpanLog) -> PassResult:
    with spans.span("run_fleet") as sp:
        try:
            res = run_fleet(cfg, validate=validate)
        except Exception as exc:
            err = _err(exc)
            return PassResult([Op(i, error=err) for i in _fleet_ids(cfg)], {})
    done = {f"cohort{c.cohort}": c for c in res.cohorts}
    ops = []
    for op_id in _fleet_ids(cfg)[:-1]:
        c = done.get(op_id)
        if c is None:
            ops.append(Op(op_id, error="cohort lost: " + "; ".join(
                f"shard {f.shard} {f.kind}" for f in res.failures)))
        elif not c.all_valid:
            ops.append(Op(op_id, error="oracle mismatch"))
        else:
            ops.append(Op(op_id, sim={
                "makespan_s": c.makespan_s,
                "n_queries": len(c.queries),
                "matches": sum(q["matches"] for q in c.queries),
                "denials": int(c.pool.get("denials", 0)),
            }))
    run = Op("run", wall_s=sp.end - sp.start)
    if res.exit_code != 0 or res.snapshot is None:
        run.error = f"FleetResult.exit_code={res.exit_code}"
        return PassResult([*ops, run], {})
    snap_json = res.snapshot.to_json()
    counts = _counts(res.counter_total)
    counts.update({
        "core.pool.denials": float(res.total_denials),
        "obs.snapshot_bytes": float(len(snap_json)),
        "queries": float(res.n_queries),
    })
    run.sim = {
        "makespan_s": res.makespan_s,
        "n_queries": res.n_queries,
        "events": counts["sim.events"],
        "snapshot_sha256": hashlib.sha256(snap_json.encode()).hexdigest(),
    }
    shard_walls = list(res.to_dict()["wall"]["wall_s_by_shard"].values())
    host = {
        "workload.fleet.overhead_s": res.wall_s - max(shard_walls),
        "workload.fleet.shard_imbalance": max(shard_walls) / min(shard_walls),
    }
    return PassResult([*ops, run], counts, host)


def _profile_fleet(cfg: FleetConfig, spans: SpanLog) -> None:
    """The fleet's cohorts, one after another in this process.

    cProfile cannot see into spawn children; the layer *shares* of the
    cohort simulations come from running them here through the same public
    calls a worker makes.
    """
    cohorts = partition_cohorts(generate_workload(cfg.workload), cfg.n_cohorts)
    for ci, group in enumerate(cohorts):
        if not group:
            continue
        local = [dataclasses.replace(s, query_id=i) for i, s in enumerate(group)]
        sub = dataclasses.replace(
            cfg.workload, n_queries=len(local),
            arrival_times=tuple(s.arrival_s for s in local),
            obs=dataclasses.replace(cfg.workload.obs, shard=f"cohort{ci}"),
        )
        with spans.span(f"run_workload cohort{ci}"):
            run_workload(sub, validate=False, specs=local)


def _fleet_tuples(cfg: FleetConfig) -> int:
    return _specs_tuples(cfg.workload, generate_workload(cfg.workload))


# Why each was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("grid-small", _build_grid_small, _run_cells, _cells_tuples, _cell_ids),
    Workload("join-large", _build_join_large, _run_cells, _cells_tuples, _cell_ids),
    Workload("workload-contended", _build_contended, _run_contended,
             lambda inputs: _specs_tuples(*inputs), _contended_ids),
    Workload("fleet-sparse", _build_fleet, _run_fleet, _fleet_tuples, _fleet_ids,
             profile_pass=_profile_fleet, processes=FLEET_SHARDS),
)}
