"""The beyond-paper claims, as entries of the figure harness.

Ablations A-G vary one model choice the paper fixes or leaves open (A-D,
G) or that it names as future work (E: network configurations, F:
footnote 1's output expansion); the scale check backs the co-scaling rule
every figure relies on, and the contention study runs the workload
engine.  Each function takes the :class:`~repro.bench.figures.FigureHarness`
and returns a :class:`~repro.analysis.report.FigureReport`, as
``render`` does for a paper figure.  Every join goes through ``harness.run``, so a cell equal
to a figure's (ablation C's 10 000-tuple chunks are fig02's hybrid at 4
nodes) runs once.  :data:`STUDIES` maps each entry name to its function.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING

from ..analysis import FigureReport, load_balance
from ..config import (
    Algorithm,
    ClusterSpec,
    Distribution,
    MTUPLES,
    QueryMixEntry,
    SplitPolicy,
    Topology,
    WorkloadConfig,
)

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from .figures import FigureHarness

__all__ = ["STUDIES"]

#: the paper's order, as ``figures.ALGORITHMS`` (that module imports this
#: one, so it cannot be imported from here)
_ALL = (Algorithm.REPLICATE, Algorithm.SPLIT, Algorithm.HYBRID,
        Algorithm.OUT_OF_CORE)


def split_policy(h: FigureHarness) -> FigureReport:
    """Ablation A: the three readings of the paper's split rule.

    TARGETED_BISECT (default) vs LINEAR_POINTER (round-robin split pointer)
    vs LINEAR_MOD (classic Litwin modulo addressing), under uniform and
    extremely skewed data.  Only the targeted bisection reproduces Figure
    11's "communicate the same tuple many times" volume: the round-robin
    pointer wastes its splits on cold (empty) buckets, and modulo
    addressing suppresses the hotspot entirely.
    """
    rep = FigureReport(
        "Ablation A", "Split-policy variants under uniform and extreme skew",
        ["policy", "distribution", "total (paper s)", "splits",
         "moved tuples", "extra chunks", "load max/avg"],
    )
    runs = {}
    for policy in SplitPolicy:
        for sigma in (None, 0.0001):
            res = h.run(Algorithm.SPLIT, 4, sigma=sigma, split_policy=policy)
            runs[policy, sigma] = res
            rep.rows.append([
                policy.value,
                "uniform" if sigma is None else f"sigma={sigma}",
                res.paper_scale_total_s,
                res.n_splits,
                res.split_moved_tuples,
                res.extra_build_chunks(),
                load_balance(res).imbalance,
            ])
    bisect_skew = runs[SplitPolicy.TARGETED_BISECT, 0.0001]
    pointer_skew = runs[SplitPolicy.LINEAR_POINTER, 0.0001]
    mod_skew = runs[SplitPolicy.LINEAR_MOD, 0.0001]
    rep.check(
        "only targeted bisection reproduces the paper's re-communication "
        "volume under skew (>2x the round-robin pointer's)",
        bisect_skew.split_moved_tuples > 2 * pointer_skew.split_moved_tuples,
    )
    rep.check(
        "modulo addressing spreads the hotspot (best load balance)",
        load_balance(mod_skew).imbalance
        < load_balance(bisect_skew).imbalance,
    )
    rep.check(
        "all policies behave alike under uniform data (totals within 40%)",
        max(runs[p, None].total_s for p in SplitPolicy)
        < 1.4 * min(runs[p, None].total_s for p in SplitPolicy),
    )
    return rep


def hash_mixing(h: FigureHarness) -> FigureReport:
    """Ablation B: order-preserving vs mixing hash under skew.

    The paper's skew results require value->position locality (contiguous
    "hash table ranges").  A mixing hash (SplitMix64) scatters the Gaussian
    hotspot uniformly over the table and the skew pathology disappears,
    which confirms the order-preserving reading of the paper's hash function
    and quantifies what a 2004 system would have gained from hash mixing.
    """
    rep = FigureReport(
        "Ablation B", "Hash mixing vs order-preserving map under skew "
        "(sigma = 0.0001)",
        ["algorithm", "hash", "total (paper s)", "nodes", "load max/avg"],
    )
    runs = {}
    for algorithm in (Algorithm.SPLIT, Algorithm.HYBRID):
        for mix in (False, True):
            res = h.run(algorithm, 4, sigma=0.0001, mix_hash=mix)
            runs[algorithm, mix] = res
            rep.rows.append([
                algorithm.value,
                "mixed" if mix else "order-preserving",
                res.paper_scale_total_s,
                res.nodes_used,
                load_balance(res).imbalance,
            ])
    rep.check(
        "mixing removes split's skew penalty (>= 2x faster)",
        runs[Algorithm.SPLIT, True].total_s
        < 0.5 * runs[Algorithm.SPLIT, False].total_s,
    )
    rep.check(
        "mixing balances split's load (max/avg < 1.5)",
        load_balance(runs[Algorithm.SPLIT, True]).imbalance < 1.5,
    )
    rep.check(
        "hybrid's reshuffle already tolerates the skew, so mixing changes "
        "it far less than it changes split",
        abs(runs[Algorithm.HYBRID, True].total_s
            - runs[Algorithm.HYBRID, False].total_s)
        < 0.35 * runs[Algorithm.HYBRID, False].total_s,
    )
    return rep


def chunk_size(h: FigureHarness) -> FigureReport:
    """Ablation C: communication chunk-size sensitivity.

    The paper fixes chunks at 10,000 tuples.  Smaller chunks pay more
    per-message overhead (latency + per-message CPU); much larger chunks
    delay routing-table reactions and inflate the pending buffers a full
    node must forward.
    """
    rep = FigureReport(
        "Ablation C", "Chunk-size sensitivity (hybrid, 4 initial nodes)",
        ["chunk tuples (paper units)", "total (paper s)",
         "extra build chunks", "data messages"],
    )
    runs = {}
    for c in (2_000, 10_000, 50_000):
        res = h.run(Algorithm.HYBRID, 4, chunk_tuples=c)
        runs[c] = res
        rep.rows.append([
            c,
            res.paper_scale_total_s,
            res.extra_build_chunks(),
            sum(res.comm.chunks_by_hop.values()),
        ])
    rep.check(
        "totals vary by less than 35% across a 25x chunk-size range",
        max(r.total_s for r in runs.values())
        < 1.35 * min(r.total_s for r in runs.values()),
    )
    rep.check(
        "message count shrinks as chunks grow",
        sum(runs[2_000].comm.chunks_by_hop.values())
        > sum(runs[50_000].comm.chunks_by_hop.values()),
    )
    return rep


def data_sources(h: FigureHarness) -> FigureReport:
    """Ablation D: number of data sources.

    The paper leaves the source count unstated; our calibration (DESIGN.md)
    uses 4.  The source NICs bound the aggregate injection rate, which
    decides how much the replication-based algorithm's probe broadcast
    hurts.
    """
    rep = FigureReport(
        "Ablation D", "Source-count sensitivity (1 initial node)",
        ["sources", "replicated total (paper s)", "split total (paper s)",
         "replicated probe share"],
    )
    runs = {}
    for n in (2, 4, 8):
        repl = h.run(Algorithm.REPLICATE, 1, n_sources=n)
        split = h.run(Algorithm.SPLIT, 1, n_sources=n)
        runs[n] = (repl, split)
        rep.rows.append([
            n,
            repl.paper_scale_total_s,
            split.paper_scale_total_s,
            repl.times.probe_s / repl.total_s,
        ])
    rep.check(
        "replication's broadcast-bound probe speeds up with more source "
        "NICs",
        runs[2][0].times.probe_s > runs[4][0].times.probe_s
        > runs[8][0].times.probe_s,
    )
    rep.check(
        "split stays ahead of replication at 1 initial node regardless of "
        "source count",
        all(split.total_s < repl.total_s for repl, split in runs.values()),
    )
    return rep


def network(h: FigureHarness) -> FigureReport:
    """Ablation E: network-configuration sensitivity (the paper's future
    work: "the effect of different network configurations ... on the
    relative performance of different EHJAs").  The 4-initial-node
    comparison on a 10 Mb/s hub-era network, the paper's 100 Mb/s switch
    and a 1 Gb/s switch.
    """
    rep = FigureReport(
        "Ablation E", "Network bandwidth sensitivity (future work, "
        "4 initial nodes)",
        ["bandwidth", "Replicated", "Split", "Hybrid", "Out of Core"],
    )
    runs = {}
    for label, bw in (("10 Mb/s", 1.25e6), ("100 Mb/s", 12.5e6),
                      ("1 Gb/s", 125e6)):
        row: list[object] = [label]
        for a in _ALL:
            res = h.run(a, 4, net_bandwidth=bw)
            runs[a, label] = res
            row.append(res.paper_scale_total_s)
        rep.rows.append(row)
    rep.check(
        "every algorithm benefits monotonically from more bandwidth",
        all(
            runs[a, "10 Mb/s"].total_s > runs[a, "100 Mb/s"].total_s
            > runs[a, "1 Gb/s"].total_s
            for a in _ALL
        ),
    )
    rep.check(
        "on a gigabit network the disk-bound OOC baseline falls furthest "
        "behind the EHJAs",
        runs[Algorithm.OUT_OF_CORE, "1 Gb/s"].total_s
        > 1.5 * runs[Algorithm.HYBRID, "1 Gb/s"].total_s,
    )
    return rep


def output_expansion(h: FigureHarness) -> FigureReport:
    """Ablation F: probe-phase output expansion (paper footnote 1).

    With a duplicate-heavy (Zipf) workload the join output dwarfs the
    inputs.  Materializing output pairs with (a) disk spilling on overflow,
    the paper's default assumption, vs (b) footnote 1's adaptive expansion
    onto freshly recruited output-sink nodes.
    """
    rep = FigureReport(
        "Ablation F", "Probe-phase output expansion (footnote 1; Zipf "
        "workload, materialized output)",
        ["mode", "total (paper s)", "matches", "pairs in memory",
         "pairs on disk", "output sinks"],
    )
    spill, expand = (
        h.run(Algorithm.HYBRID, 4, r_m=2, s_m=2, pool=48,
              distribution=Distribution.ZIPF, zipf_s=1.1,
              materialize_output=True, probe_expansion=probe_expansion)
        for probe_expansion in (False, True)
    )
    for label, res in (("spill to disk", spill), ("expand to sinks", expand)):
        rep.rows.append([
            label,
            res.paper_scale_total_s,
            res.matches,
            res.output_tuples,
            res.output_spilled_tuples,
            res.output_sink_nodes,
        ])
    rep.check(
        "both modes account for every output pair",
        spill.output_tuples + spill.output_spilled_tuples == spill.matches
        and expand.output_tuples + expand.output_spilled_tuples
        == expand.matches,
    )
    rep.check(
        "expansion keeps more of the output in cluster memory",
        expand.output_tuples > spill.output_tuples,
    )
    rep.check(
        "expansion recruits at least one output sink",
        expand.output_sink_nodes >= 1,
    )
    rep.check(
        "expansion avoids disk and finishes no slower (within 5%)",
        expand.total_s <= 1.05 * spill.total_s,
    )
    return rep


def topology(h: FigureHarness) -> FigureReport:
    """Ablation G: interconnect topology (paper future work).

    Switched per-port Ethernet (the paper's testbed) vs a single shared
    collision domain (hub).  The hub caps the *aggregate* bandwidth at one
    link, so the strategies' communication volumes translate directly into
    time.
    """
    rep = FigureReport(
        "Ablation G", "Switched vs shared-hub interconnect "
        "(4 initial nodes, R=S=10M)",
        ["topology"] + [a.value for a in _ALL],
    )
    runs = {}
    for topo in (Topology.SWITCHED, Topology.SHARED_HUB):
        row: list[object] = [topo.value]
        for a in _ALL:
            res = h.run(a, 4, topology=topo)
            runs[a, topo] = res
            row.append(res.paper_scale_total_s)
        rep.rows.append(row)
    slowdown = {
        a: runs[a, Topology.SHARED_HUB].total_s
        / runs[a, Topology.SWITCHED].total_s
        for a in _ALL
    }
    rep.rows.append(["hub/switch"] + [round(slowdown[a], 2) for a in _ALL])
    hub = {a: runs[a, Topology.SHARED_HUB].total_s for a in _ALL}
    rep.check(
        "every algorithm is slower on the shared medium",
        all(s > 1.0 for s in slowdown.values()),
    )
    rep.check(
        "on the hub, total time tracks total communication volume: "
        "broadcast-heavy replication is the slowest EHJA",
        hub[Algorithm.REPLICATE] > hub[Algorithm.SPLIT]
        and hub[Algorithm.REPLICATE] > hub[Algorithm.HYBRID],
    )
    rep.check(
        "the hub erases the hybrid's parallel-reshuffle advantage (its "
        "slowdown factor exceeds split's, whose transfers were already "
        "serialized by the barrier pointer)",
        slowdown[Algorithm.HYBRID] > slowdown[Algorithm.SPLIT],
    )
    rep.notes.append(
        "finding: the paper's hybrid-wins conclusion depends on a switched "
        "fabric — its reshuffle is an all-to-all that a shared medium "
        "serializes, while the split algorithm's transfers were serialized "
        "all along"
    )
    return rep


def scale_invariance(h: FigureHarness) -> FigureReport:
    """The co-scaling rule DESIGN.md relies on: the same paper-units
    workload at the harness's scale and at twice it (half it, above 0.5)
    gives (nearly) the same *paper-scale* results — times within a few
    percent, identical expansion counts, proportional traffic.  This is what
    justifies benchmarking at scale 1/50 and reporting paper-scale seconds.
    """
    lo, hi = ((h.scale, 2 * h.scale) if h.scale <= 0.5
              else (h.scale / 2, h.scale))
    label = {s: f"1/{round(1 / s)}" for s in (lo, hi)}
    rep = FigureReport(
        "Scale invariance", f"Paper-scale results at workload scale "
        f"{label[lo]} vs {label[hi]} (4 initial nodes)",
        ["algorithm", "scale", "total (paper s)", "nodes",
         "extra build chunks"],
    )
    algorithms = (Algorithm.SPLIT, Algorithm.REPLICATE, Algorithm.HYBRID,
                  Algorithm.OUT_OF_CORE)
    runs = {}
    for algorithm in algorithms:
        for scale in (lo, hi):
            res = h.run(algorithm, 4, scale=scale)
            runs[algorithm, scale] = res
            rep.rows.append([
                algorithm.value, label[scale],
                res.paper_scale_total_s, res.nodes_used,
                res.extra_build_chunks(),
            ])
    rep.check(
        "paper-scale totals agree across scales (within 10%)",
        all(
            abs(runs[a, lo].paper_scale_total_s
                - runs[a, hi].paper_scale_total_s)
            <= 0.10 * runs[a, hi].paper_scale_total_s
            for a in algorithms
        ),
    )
    rep.check(
        "the expansion reaches the same cluster size at both scales",
        all(
            runs[a, lo].nodes_used == runs[a, hi].nodes_used
            for a in algorithms[:3]
        ),
    )
    rep.check(
        "extra communication (in chunk units) agrees across scales "
        "(within 15%)",
        all(
            abs(runs[a, lo].extra_build_chunks()
                - runs[a, hi].extra_build_chunks())
            <= 0.15 * max(runs[a, hi].extra_build_chunks(), 1.0)
            for a in (Algorithm.SPLIT, Algorithm.HYBRID)
        ),
    )
    return rep


#: the contention study's shared pool
_POOL_NODES = 6
#: 50 MB pre-scale budget => ~1 MB hash memory per node at 1/50 scale,
#: small enough that a 2-node query must recruit (and, under contention,
#: be denied and spill) to finish its build
_NODE_MEMORY = 50 * 1024 * 1024


def contention(h: FigureHarness) -> FigureReport:
    """Multi-tenant contention: concurrent queries vs one shared pool.

    Not a paper figure: the paper runs one join at a time and asks where
    *extra* nodes should go.  This asks what happens when the "additional
    resources" are additional *because another query released them*: it
    sweeps the number of concurrent queries over a fixed 6-node pool and
    records makespan, p99 latency, queueing delay, denial counts and pool
    utilization.
    """
    from ..workload import run_workload

    rep = FigureReport(
        "Workload contention",
        f"concurrent queries vs one shared {_POOL_NODES}-node pool "
        "(fifo admission, scarce per-node memory)",
        ["queries", "makespan s", "p99 latency s", "p99 queue s",
         "denials", "spill queries", "pool util"],
    )
    runs = {}
    for n in (1, 2, 4, 6):
        res = run_workload(WorkloadConfig(
            n_queries=n,
            # Closely spaced arrivals so the queries genuinely overlap.
            arrival_times=tuple(0.05 * q for q in range(n)),
            seed=7,
            mix=(QueryMixEntry(r_tuples=2 * MTUPLES, s_tuples=2 * MTUPLES,
                               initial_nodes=2),),
            cluster=ClusterSpec(n_sources=2, n_potential_nodes=_POOL_NODES,
                                hash_memory_bytes=_NODE_MEMORY),
            scale=h.scale,
        ), validate=h.validate)
        runs[n] = res
        rep.rows.append([
            n,
            res.makespan_s,
            res.latency_percentiles()["p99"],
            res.queue_delay_percentiles()["p99"],
            res.total_denials,
            len(res.degraded_queries),
            res.pool_utilization,
        ])
    if h.validate:
        rep.check(
            "every query in every cell matches its sequential oracle",
            all(r.all_valid for r in runs.values()),
        )
    else:
        rep.notes.append("not validated: no query was checked against "
                         "its sequential oracle")
    rep.check(
        "makespan grows monotonically with offered load",
        all(runs[a].makespan_s < runs[b].makespan_s
            for a, b in ((1, 2), (2, 4), (4, 6))),
    )
    rep.check(
        "an uncontended query is never denied and never spills",
        runs[1].total_denials == 0 and not runs[1].degraded_queries,
    )
    rep.check(
        "under contention the pool denies recruits and queries degrade "
        "to the out-of-core spill path instead of erroring",
        runs[6].total_denials > 0 and len(runs[6].degraded_queries) > 0,
    )
    rep.check(
        "contention raises p99 latency over the uncontended run",
        runs[6].latency_percentiles()["p99"]
        > runs[1].latency_percentiles()["p99"],
    )
    return rep


#: entry name -> study, in report order (after the paper's entries)
STUDIES: dict[str, Callable[[FigureHarness], FigureReport]] = {
    "split_policy": split_policy,
    "hash_mixing": hash_mixing,
    "chunk_size": chunk_size,
    "data_sources": data_sources,
    "network": network,
    "output_expansion": output_expansion,
    "topology": topology,
    "scale_invariance": scale_invariance,
    "contention": contention,
}
