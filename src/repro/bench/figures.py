"""Figure-reproduction harness: one entry per paper figure or claim.

Each ``figNN`` method runs (or reuses) the simulated sweeps behind that
figure, returns a :class:`~repro.analysis.report.FigureReport` holding the
series the paper plots, and embeds the qualitative *shape checks* taken
from the paper's text (see DESIGN.md §4).  The beyond-paper claims —
ablations A-G, the scale check and the contention study — are entries too
(:mod:`.studies`).  ``repro figures`` renders any of them; ``examples/``
and EXPERIMENTS.md reuse them directly.

Runs are memoized on their full config: Figures 2-5 share one
initial-node sweep, Figures 10-13 one skew sweep, and an ablation cell
equal to a figure's runs once.  All runs validate against the sequential
oracle unless constructed with ``validate=False``.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Any

from ..analysis import FigureReport, OverheadModel, load_balance
from ..config import (
    Algorithm,
    ClusterSpec,
    CostModel,
    DEFAULT_SCALE,
    Distribution,
    MTUPLES,
    RunConfig,
    WorkloadSpec,
)
from ..core import JoinRunResult, run_join
from .studies import STUDIES

__all__ = ["FigureHarness", "ALGORITHMS", "EHJAS"]

ALGORITHMS = (
    Algorithm.REPLICATE,
    Algorithm.SPLIT,
    Algorithm.HYBRID,
    Algorithm.OUT_OF_CORE,
)
EHJAS = ALGORITHMS[:3]

_LABEL = {
    Algorithm.REPLICATE: "Replicated",
    Algorithm.SPLIT: "Split",
    Algorithm.HYBRID: "Hybrid",
    Algorithm.OUT_OF_CORE: "Out of Core",
}

#: the config class each field name of :meth:`FigureHarness.run`'s
#: overrides belongs to (no name is a field of two of them)
_OWNER = {
    f.name: cls
    for cls in (WorkloadSpec, CostModel, ClusterSpec, RunConfig)
    for f in fields(cls)
    if f.name not in ("workload", "cluster", "cost")
}


class FigureHarness:
    """Runs and caches the simulated experiments behind Figures 2-13 and
    the beyond-paper claims."""

    INITIAL_NODES = (1, 2, 4, 8, 16)
    TABLE_SIZES_M = (10, 20, 40, 80)
    TUPLE_BYTES = (100, 200, 400)
    SKEWS: tuple[float | None, ...] = (None, 0.001, 0.0001)
    #: every reproduced figure, the §4.2.4 model validation and the
    #: beyond-paper studies, in report order; :meth:`figure` runs one by name
    FIGURES = (
        "fig02", "fig03", "fig04", "fig05", "fig06", "fig07",
        "fig08", "fig09", "fig10", "fig11", "fig12", "fig13", "model",
        *STUDIES,
    )

    def __init__(self, scale: float = DEFAULT_SCALE, validate: bool = True):
        WorkloadSpec(scale=scale)  # a bad scale fails here, not in a cell
        self.scale = scale
        self.validate = validate
        self._cache: dict[RunConfig, JoinRunResult] = {}

    # ------------------------------------------------------------------
    # run plumbing
    # ------------------------------------------------------------------
    def run(
        self,
        algo: Algorithm,
        initial_nodes: int = 4,
        *,
        r_m: int = 10,
        s_m: int = 10,
        tuple_bytes: int = 100,
        sigma: float | None = None,
        pool: int = 24,
        **overrides: Any,
    ) -> JoinRunResult:
        """One memoized join at the harness's scale.

        ``overrides`` set any other field of :class:`WorkloadSpec`,
        :class:`ClusterSpec`, :class:`CostModel` or :class:`RunConfig` by
        name (``chunk_tuples=2_000``, ``net_bandwidth=1.25e6``,
        ``mix_hash=True``, ``scale=0.04``), over what the keywords derive.
        The memo key is the whole config, so a cell two entries share
        runs once.
        """
        parts: dict[type, dict[str, Any]] = {
            WorkloadSpec: dict(
                r_tuples=r_m * MTUPLES,
                s_tuples=s_m * MTUPLES,
                tuple_bytes=tuple_bytes,
                distribution=(
                    Distribution.UNIFORM if sigma is None else Distribution.GAUSSIAN
                ),
                gauss_sigma=sigma if sigma is not None else 0.001,
                scale=self.scale,
            ),
            CostModel: {},
            ClusterSpec: dict(n_potential_nodes=pool),
            RunConfig: dict(
                algorithm=algo, initial_nodes=initial_nodes, trace=False,
            ),
        }
        for name, value in overrides.items():
            if name not in _OWNER:
                raise TypeError(f"run() got an unknown config field {name!r}")
            parts[_OWNER[name]][name] = value
        cfg = RunConfig(
            workload=WorkloadSpec(**parts[WorkloadSpec]),
            cluster=ClusterSpec(cost=CostModel(**parts[CostModel]),
                                **parts[ClusterSpec]),
            **parts[RunConfig],
        )
        if cfg not in self._cache:
            self._cache[cfg] = run_join(cfg, validate=self.validate)
        return self._cache[cfg]

    def _paper_s(self, result: JoinRunResult) -> float:
        return result.paper_scale_total_s

    # ------------------------------------------------------------------
    # machine-readable baseline (regression tracking)
    # ------------------------------------------------------------------
    def baseline(self) -> dict:
        """Fig02-default baseline as a JSON-ready dict.

        Per algorithm and initial-node count: paper-scale total and build
        time, fault-free.  The simulation is deterministic, so these
        numbers are exactly reproducible — ``python -m repro figures
        --json BENCH_N.json`` snapshots them and future changes diff
        against the committed file (see docs/BENCHMARKS.md).
        """
        res = self._init_sweep()
        return {
            "benchmark": "fig02",
            "description": "paper-scale seconds, uniform R=S=10M tuples, "
                           "fault-free",
            "scale": self.scale,
            "validated": self.validate,
            "series": {
                a.value: {
                    str(k): {
                        "total_s": round(self._paper_s(res[a, k]), 6),
                        "build_s": round(
                            res[a, k].times.build_s / self.scale, 6
                        ),
                    }
                    for k in self.INITIAL_NODES
                }
                for a in ALGORITHMS
            },
        }

    # ------------------------------------------------------------------
    # Figures 2-5: initial-node sweep, R = S = 10M uniform
    # ------------------------------------------------------------------
    def _init_sweep(self) -> dict[tuple[Algorithm, int], JoinRunResult]:
        return {
            (a, k): self.run(a, k)
            for a in ALGORITHMS
            for k in self.INITIAL_NODES
        }

    def fig02(self) -> FigureReport:
        res = self._init_sweep()
        rep = FigureReport(
            "Figure 2", "Total execution time vs initial join nodes "
            "(uniform, R=S=10M tuples)",
            ["initial nodes"] + [_LABEL[a] for a in ALGORITHMS],
        )
        for k in self.INITIAL_NODES:
            rep.rows.append(
                [k] + [self._paper_s(res[a, k]) for a in ALGORITHMS]
            )
        t = {(a, k): self._paper_s(res[a, k])
             for a in ALGORITHMS for k in self.INITIAL_NODES}
        ooc = Algorithm.OUT_OF_CORE
        rep.check(
            "every algorithm improves (or holds) as initial nodes grow",
            all(
                t[a, self.INITIAL_NODES[i]] >= t[a, self.INITIAL_NODES[i + 1]] * 0.95
                for a in ALGORITHMS
                for i in range(len(self.INITIAL_NODES) - 1)
            ),
        )
        rep.check(
            "EHJAs beat Out-of-Core when initial nodes are few (<=4)",
            all(t[a, k] < t[ooc, k] for a in EHJAS for k in (1, 2, 4)),
        )
        rep.check(
            "split & hybrid beat replicated at <=4 initial nodes",
            all(
                t[a, k] < t[Algorithm.REPLICATE, k]
                for a in (Algorithm.SPLIT, Algorithm.HYBRID)
                for k in (1, 2, 4)
            ),
        )
        rep.check(
            "all four algorithms converge at 16 initial nodes (within 2%)",
            max(t[a, 16] for a in ALGORITHMS)
            <= 1.02 * min(t[a, 16] for a in ALGORITHMS),
        )
        rep.check(
            "split & hybrid are least sensitive to the initial estimate",
            all(
                t[a, 1] / t[a, 16] < t[Algorithm.REPLICATE, 1] / t[Algorithm.REPLICATE, 16]
                for a in (Algorithm.SPLIT, Algorithm.HYBRID)
            ),
        )
        return rep

    def fig03(self) -> FigureReport:
        res = self._init_sweep()
        rep = FigureReport(
            "Figure 3", "Hash table building time vs initial join nodes "
            "(uniform, R=S=10M tuples)",
            ["initial nodes"] + [_LABEL[a] for a in ALGORITHMS],
        )
        b = {
            (a, k): res[a, k].times.table_building_s / self.scale
            for a in ALGORITHMS for k in self.INITIAL_NODES
        }
        for k in self.INITIAL_NODES:
            rep.rows.append([k] + [b[a, k] for a in ALGORITHMS])
        rep.check(
            "hybrid's table-building time (build + reshuffle) exceeds "
            "replicated's at every under-provisioned start",
            all(
                b[Algorithm.HYBRID, k] > b[Algorithm.REPLICATE, k]
                for k in (1, 2, 4, 8)
            ),
        )
        rep.check(
            "replicated's plain build matches or beats split's once a few "
            "receivers exist (>= 4 initial nodes)",
            all(
                b[Algorithm.REPLICATE, k] <= 1.15 * b[Algorithm.SPLIT, k]
                for k in (4, 8)
            ),
        )
        rep.check(
            "build times converge at 16 initial nodes (within 2%)",
            max(b[a, 16] for a in ALGORITHMS)
            <= 1.02 * min(b[a, 16] for a in ALGORITHMS),
        )
        rep.notes.append(
            "at 1-2 initial nodes replicated's build is slower than "
            "split's in our model: a replica chain has a single active "
            "receiver NIC, while splits activate receivers in parallel "
            "(see EXPERIMENTS.md deviation notes)"
        )
        return rep

    def fig04(self) -> FigureReport:
        res = self._init_sweep()
        rep = FigureReport(
            "Figure 4", "Extra communication in the build phase (chunks; "
            "R = 1000 chunks)",
            ["initial nodes"] + [_LABEL[a] for a in EHJAS] + ["Size of Table R"],
        )
        size_r = 1000.0 * (res[Algorithm.SPLIT, 1].config.workload.r_tuples
                           / (10 * MTUPLES))
        e = {
            (a, k): res[a, k].extra_build_chunks()
            for a in EHJAS for k in self.INITIAL_NODES
        }
        for k in self.INITIAL_NODES:
            rep.rows.append([k] + [e[a, k] for a in EHJAS] + [size_r])
        rep.check(
            "split and hybrid both incur substantial extra build traffic "
            "at poor initial estimates (>= 3x replicated's)",
            all(
                e[a, k] > 3 * max(e[Algorithm.REPLICATE, k], 1.0)
                for a in (Algorithm.SPLIT, Algorithm.HYBRID)
                for k in (1, 2)
            ),
        )
        rep.check(
            "replicated causes the least extra build communication",
            all(
                e[Algorithm.REPLICATE, k] < e[a, k]
                for a in (Algorithm.SPLIT, Algorithm.HYBRID)
                for k in (1, 2, 4)
            ),
        )
        rep.check(
            "no extra communication at 16 initial nodes",
            all(e[a, 16] == 0 for a in EHJAS),
        )
        rep.check(
            "split's extra traffic at 1 initial node is comparable to the "
            "size of table R (>= 50%)",
            e[Algorithm.SPLIT, 1] >= 0.5 * size_r,
        )
        return rep

    def fig05(self) -> FigureReport:
        res = self._init_sweep()
        rep = FigureReport(
            "Figure 5", "Split time vs reshuffle time (uniform, R=S=10M)",
            ["initial nodes", "Split time", "Reshuffle time"],
        )
        split_t = {
            k: res[Algorithm.SPLIT, k].split_busy_s / self.scale
            for k in self.INITIAL_NODES
        }
        resh_t = {
            k: res[Algorithm.HYBRID, k].times.reshuffle_s / self.scale
            for k in self.INITIAL_NODES
        }
        for k in self.INITIAL_NODES:
            rep.rows.append([k, split_t[k], resh_t[k]])
        rep.check(
            "split overhead exceeds reshuffle overhead when the initial "
            "estimate is poor (<=4 nodes)",
            all(split_t[k] > resh_t[k] for k in (1, 2, 4)),
        )
        rep.check(
            "both overheads vanish at 16 initial nodes",
            split_t[16] == 0.0 and resh_t[16] < 1e-9 / self.scale,
        )
        rep.check(
            "both overheads shrink as the initial estimate improves",
            split_t[1] > split_t[8] and resh_t[1] > resh_t[8],
        )
        return rep

    # ------------------------------------------------------------------
    # Figure 6: table-size sweep (4 initial nodes, elastic pool)
    # ------------------------------------------------------------------
    def _size_sweep(self) -> dict[tuple[Algorithm, int], JoinRunResult]:
        return {
            (a, m): self.run(a, 4, r_m=m, s_m=m, pool=128)
            for a in ALGORITHMS
            for m in self.TABLE_SIZES_M
        }

    def fig06(self) -> FigureReport:
        res = self._size_sweep()
        rep = FigureReport(
            "Figure 6", "Total execution time vs table size "
            "(R=S, 4 initial nodes, elastic pool)",
            ["table size (M)"] + [_LABEL[a] for a in ALGORITHMS],
        )
        t = {
            (a, m): self._paper_s(res[a, m])
            for a in ALGORITHMS for m in self.TABLE_SIZES_M
        }
        for m in self.TABLE_SIZES_M:
            rep.rows.append([m] + [t[a, m] for a in ALGORITHMS])
        big, small = self.TABLE_SIZES_M[-1], self.TABLE_SIZES_M[0]
        growth = {a: t[a, big] / t[a, small] for a in ALGORITHMS}
        rep.check(
            "split and hybrid scale better with table size than replicated",
            growth[Algorithm.SPLIT] < growth[Algorithm.REPLICATE]
            and growth[Algorithm.HYBRID] < growth[Algorithm.REPLICATE],
        )
        rep.check(
            "split and hybrid beat replicated at the largest size",
            t[Algorithm.SPLIT, big] < t[Algorithm.REPLICATE, big]
            and t[Algorithm.HYBRID, big] < t[Algorithm.REPLICATE, big],
        )
        rep.notes.append(
            "pool widened to 128 potential nodes so the EHJAs can expand "
            "with the relation (see EXPERIMENTS.md)"
        )
        return rep

    # ------------------------------------------------------------------
    # Figure 7: tuple-size sweep
    # ------------------------------------------------------------------
    def _tuple_sweep(self) -> dict[tuple[Algorithm, int], JoinRunResult]:
        return {
            (a, tb): self.run(a, 4, tuple_bytes=tb, pool=80)
            for a in ALGORITHMS
            for tb in self.TUPLE_BYTES
        }

    def fig07(self) -> FigureReport:
        res = self._tuple_sweep()
        rep = FigureReport(
            "Figure 7", "Total execution time vs tuple size (R=S=10M)",
            ["tuple bytes"] + [_LABEL[a] for a in ALGORITHMS],
        )
        t = {
            (a, tb): self._paper_s(res[a, tb])
            for a in ALGORITHMS for tb in self.TUPLE_BYTES
        }
        for tb in self.TUPLE_BYTES:
            rep.rows.append([tb] + [t[a, tb] for a in ALGORITHMS])
        rep.check(
            "hybrid scales best with tuple size among the EHJAs",
            all(
                t[Algorithm.HYBRID, 400] / t[Algorithm.HYBRID, 100]
                <= t[a, 400] / t[a, 100]
                for a in (Algorithm.SPLIT, Algorithm.REPLICATE)
            ),
        )
        rep.check(
            "hybrid is fastest at the largest tuple size",
            all(
                t[Algorithm.HYBRID, 400] <= t[a, 400]
                for a in (Algorithm.SPLIT, Algorithm.REPLICATE)
            ),
        )
        return rep

    # ------------------------------------------------------------------
    # Figures 8/9: building from the larger relation
    # ------------------------------------------------------------------
    def _asym_sweep(self) -> dict[tuple[Algorithm, str], JoinRunResult]:
        out = {}
        for a in ALGORITHMS:
            out[a, "R10_S100"] = self.run(a, 4, r_m=10, s_m=100)
            out[a, "R100_S10"] = self.run(a, 4, r_m=100, s_m=10)
        return out

    def fig08(self) -> FigureReport:
        res = self._asym_sweep()
        rep = FigureReport(
            "Figure 8", "Total execution time when the larger relation "
            "builds the hash table",
            ["configuration"] + [_LABEL[a] for a in ALGORITHMS],
        )
        for key, label in (("R10_S100", "R=10M, S=100M"),
                           ("R100_S10", "R=100M, S=10M")):
            rep.rows.append(
                [label] + [self._paper_s(res[a, key]) for a in ALGORITHMS]
            )
        small = {a: self._paper_s(res[a, "R10_S100"]) for a in ALGORITHMS}
        rep.check(
            "split & hybrid win when probing with the larger relation "
            "(R=10M, S=100M)",
            all(
                small[a] < small[Algorithm.REPLICATE]
                for a in (Algorithm.SPLIT, Algorithm.HYBRID)
            ),
        )
        rep.check(
            "replicated never moves stored tuples: its extra build "
            "communication stays negligible even at R=100M, while split's "
            "grows with the expansion",
            res[Algorithm.REPLICATE, "R100_S10"].extra_build_chunks()
            < 0.2 * res[Algorithm.SPLIT, "R100_S10"].extra_build_chunks(),
        )
        repl_big = res[Algorithm.REPLICATE, "R100_S10"]
        spec = repl_big.config.effective_cluster
        dup_wire_s = (
            repl_big.probe_dup_chunks()
            * repl_big.config.workload.chunk_bytes
            / (spec.n_sources * spec.cost.net_bandwidth)
        )
        rep.check(
            "replicated's probe broadcast is cheap when S is the small "
            "relation: duplicate traffic costs < 30% of the total at "
            "R=100M, S=10M",
            dup_wire_s < 0.3 * repl_big.total_s,
        )
        rep.notes.append(
            "DEVIATION: the paper reports replication fastest overall at "
            "R=100M,S=10M; in our model the whole cluster memory is ~6x "
            "too small for R=100M, and replication funnels the overflow "
            "through the 4 active replicas' disks while split spreads it "
            "over all 24 — see EXPERIMENTS.md for the arithmetic"
        )
        return rep

    def fig09(self) -> FigureReport:
        res = self._asym_sweep()
        rep = FigureReport(
            "Figure 9", "Hash table building time when the larger relation "
            "builds the hash table",
            ["configuration"] + [_LABEL[a] for a in ALGORITHMS],
        )
        for key, label in (("R10_S100", "R=10M, S=100M"),
                           ("R100_S10", "R=100M, S=10M")):
            rep.rows.append(
                [label]
                + [res[a, key].times.table_building_s / self.scale
                   for a in ALGORITHMS]
            )
        b10 = {a: res[a, "R10_S100"].times.table_building_s for a in ALGORITHMS}
        rep.check(
            "replicated's build is cheapest (or tied) when the build "
            "relation fits the expanded cluster (R=10M case)",
            all(b10[Algorithm.REPLICATE] <= 1.15 * b10[a]
                for a in (Algorithm.SPLIT, Algorithm.HYBRID)),
        )
        rep.notes.append(
            "DEVIATION: in the R=100M case our replication build pays the "
            "concentrated-spill penalty (4 active disks vs split's 24) "
            "that dominates the paper-reported ordering; see EXPERIMENTS.md"
        )
        return rep

    # ------------------------------------------------------------------
    # Figures 10-13: skew sweep (4 initial nodes, R=S=10M)
    # ------------------------------------------------------------------
    def _skew_sweep(self) -> dict[tuple[Algorithm, float | None], JoinRunResult]:
        return {
            (a, s): self.run(a, 4, sigma=s)
            for a in ALGORITHMS
            for s in self.SKEWS
        }

    @staticmethod
    def _skew_label(sigma: float | None) -> str:
        return "uniform" if sigma is None else f"sigma = {sigma}"

    def fig10(self) -> FigureReport:
        res = self._skew_sweep()
        rep = FigureReport(
            "Figure 10", "Total execution time vs data skew "
            "(R=S=10M, 4 initial nodes)",
            ["distribution"] + [_LABEL[a] for a in ALGORITHMS],
        )
        t = {(a, s): self._paper_s(res[a, s])
             for a in ALGORITHMS for s in self.SKEWS}
        for s in self.SKEWS:
            rep.rows.append(
                [self._skew_label(s)] + [t[a, s] for a in ALGORITHMS]
            )
        rep.check(
            "extreme skew (sigma=0.0001) degrades every algorithm",
            all(t[a, 0.0001] > t[a, None] for a in ALGORITHMS),
        )
        rep.check(
            "hybrid degrades the least under extreme skew",
            all(
                t[Algorithm.HYBRID, 0.0001] / t[Algorithm.HYBRID, None]
                <= t[a, 0.0001] / t[a, None]
                for a in (Algorithm.SPLIT, Algorithm.REPLICATE)
            ),
        )
        rep.check(
            "split performs worst among the EHJAs under extreme skew",
            all(
                t[Algorithm.SPLIT, 0.0001] > t[a, 0.0001]
                for a in (Algorithm.REPLICATE, Algorithm.HYBRID)
            ),
        )
        rep.check(
            "hybrid is the best algorithm under extreme skew",
            all(
                t[Algorithm.HYBRID, 0.0001] <= t[a, 0.0001]
                for a in ALGORITHMS
            ),
        )
        return rep

    def fig11(self) -> FigureReport:
        res = self._skew_sweep()
        rep = FigureReport(
            "Figure 11", "Extra build-phase communication vs data skew "
            "(chunks; R = 1000 chunks)",
            ["distribution"] + [_LABEL[a] for a in EHJAS] + ["Size of Table R"],
        )
        e = {(a, s): res[a, s].extra_build_chunks()
             for a in EHJAS for s in self.SKEWS}
        size_r = 1000.0
        for s in self.SKEWS:
            rep.rows.append(
                [self._skew_label(s)] + [e[a, s] for a in EHJAS] + [size_r]
            )
        rep.check(
            "split moves the same tuples repeatedly under extreme skew "
            "(extra traffic comparable to table R)",
            e[Algorithm.SPLIT, 0.0001] >= 0.5 * size_r,
        )
        rep.check(
            "split's extra traffic exceeds replicated's and hybrid's under "
            "extreme skew",
            all(
                e[Algorithm.SPLIT, 0.0001] > e[a, 0.0001]
                for a in (Algorithm.REPLICATE, Algorithm.HYBRID)
            ),
        )
        rep.check(
            "replicated's extra build traffic stays small at every skew "
            "(< 20% of table R)",
            all(e[Algorithm.REPLICATE, s] < 0.2 * size_r for s in self.SKEWS),
        )
        return rep

    def fig12(self) -> FigureReport:
        return self._load_figure(None, "Figure 12")

    def fig13(self) -> FigureReport:
        return self._load_figure(0.0001, "Figure 13")

    def _load_figure(self, sigma: float | None, figure: str) -> FigureReport:
        res = self._skew_sweep()
        rep = FigureReport(
            figure,
            f"Load balance across join nodes ({self._skew_label(sigma)}; "
            "avg/max/min stored tuples in chunks)",
            ["algorithm", "Average Load", "Maximum Load", "Minimum Load",
             "max/avg"],
        )
        lbs = {a: load_balance(res[a, sigma]) for a in EHJAS}
        for a in EHJAS:
            lb = lbs[a]
            rep.rows.append(
                [_LABEL[a], lb.avg_chunks, lb.max_chunks, lb.min_chunks,
                 lb.imbalance]
            )
        if sigma is None:
            rep.check(
                "split and hybrid are well balanced under uniform data "
                "(max/avg < 1.2)",
                lbs[Algorithm.SPLIT].imbalance < 1.2
                and lbs[Algorithm.HYBRID].imbalance < 1.2,
            )
        else:
            rep.check(
                "split suffers heavy load imbalance under extreme skew",
                lbs[Algorithm.SPLIT].imbalance
                > 2.0 * lbs[Algorithm.HYBRID].imbalance,
            )
            rep.check(
                "hybrid maintains a relatively good balance under extreme "
                "skew (max/avg < 2)",
                lbs[Algorithm.HYBRID].imbalance < 2.0,
            )
        return rep

    # ------------------------------------------------------------------
    # §4.2.4 model validation
    # ------------------------------------------------------------------
    def model_validation(self) -> FigureReport:
        from ..analysis import split_moved_capacity_model

        res = self._init_sweep()
        rep = FigureReport(
            "Model (§4.2.4)",
            "Analytic overhead model vs measured transfer volumes "
            "(split: n_splits * B/2 with B = bucket capacity; "
            "reshuffle: (E-1)/E * R)",
            ["initial nodes", "expansion E", "splits", "split moved (model)",
             "split moved (measured)", "reshuffle moved (model)",
             "reshuffle moved (measured)"],
        )
        wl = res[Algorithm.SPLIT, 1].config.workload
        r_tuples = wl.real_r_tuples
        cap_tuples = (
            res[Algorithm.SPLIT, 1].config.effective_cluster.hash_memory_bytes
            // wl.tuple_bytes
        )
        model = OverheadModel(bucket_bytes=cap_tuples * wl.tuple_bytes,
                              t_w=1.0)
        ok_split = True
        ok_hyb = True
        for k in self.INITIAL_NODES:
            split_run = res[Algorithm.SPLIT, k]
            hyb_run = res[Algorithm.HYBRID, k]
            e = split_run.nodes_used / k
            pm_split = split_moved_capacity_model(split_run.n_splits, cap_tuples)
            pm_hyb = model.predicted_tuples_moved_hybrid(
                r_tuples, hyb_run.nodes_used / k
            )
            ms = split_run.split_moved_tuples
            mh = hyb_run.reshuffle_moved_tuples
            rep.rows.append(
                [k, e, split_run.n_splits, pm_split, float(ms), pm_hyb, float(mh)]
            )
            if pm_split > 0 and not (0.25 * pm_split <= ms <= 1.25 * pm_split):
                ok_split = False
            if pm_hyb > 0 and abs(mh - pm_hyb) > 0.3 * pm_hyb:
                ok_hyb = False
        rep.check(
            "measured split traffic matches n_splits * capacity/2 "
            "(within [0.25x, 1.25x])",
            ok_split,
        )
        rep.check(
            "measured reshuffle traffic within 30% of (E-1)/E * R",
            ok_hyb,
        )
        # The paper's asymptotic formulas: T_split/T_hybrid grows with E.
        ratio_small = (model.split_s(2.0) / model.hybrid_s(2.0))
        ratio_large = (model.split_s(16.0) / model.hybrid_s(16.0))
        rep.check(
            "the paper's analytic conclusion holds: T_split/T_hybrid grows "
            "with the expansion factor (asymptotic formulas)",
            ratio_large > ratio_small,
        )
        rep.notes.append(
            "measured transfer volumes follow the capacity-granular form "
            "(splits trigger at bucket capacity); the wall-clock gap of "
            "Figure 5 comes from split serialization vs parallel reshuffle"
        )
        return rep

    # ------------------------------------------------------------------
    def figure(self, name: str) -> FigureReport:
        """Run the entry of :attr:`FIGURES` called ``name``."""
        if name not in self.FIGURES:
            raise KeyError(name)
        if name in STUDIES:
            return STUDIES[name](self)
        return getattr(self, "model_validation" if name == "model" else name)()
