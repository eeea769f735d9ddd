"""Figure-reproduction harness: one entry per paper figure or claim.

The paper's figures (§5's Figures 2-13 and the §4.2.4 model check) are
views of one *figures document*.  :meth:`FigureHarness.document` runs the
sweeps behind the named figures once and records, per (sweep, algorithm)
series and x value, every number a figure reads from that run.
:data:`TABLES` lays each figure out from those numbers, :data:`CLAIMS`
states the 36 shape checks taken from the paper's text (DESIGN.md §4) as
predicates over them, and :func:`render` joins the two into a
:class:`~repro.analysis.report.FigureReport`.  A committed document
(``BENCH_2.json``) therefore re-renders every figure, and re-checks every
claim, without running a join.

The beyond-paper claims — ablations A-G, the scale check and the
contention study — are entries too (:mod:`.studies`); they run and check
inline.  ``repro figures`` renders any of them.

Runs are memoized on their full config: the fig02 sweep's 4-node cells
are the skew sweep's uniform ones, and an ablation cell equal to a
figure's runs once.  All runs validate against the sequential oracle
unless constructed with ``validate=False``.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, fields
from itertools import pairwise
from typing import Any

from ..analysis import (
    FigureReport,
    OverheadModel,
    load_balance,
    split_moved_capacity_model,
)
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

__all__ = ["FigureHarness", "ALGORITHMS", "EHJAS", "CLAIMS", "TABLES",
           "render"]

ALGORITHMS = (
    Algorithm.REPLICATE,
    Algorithm.SPLIT,
    Algorithm.HYBRID,
    Algorithm.OUT_OF_CORE,
)
EHJAS = ALGORITHMS[:3]
REP, SPL, HYB, OOC = ALGORITHMS

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


# ----------------------------------------------------------------------
# the figures document
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Sweep:
    """One parameter sweep: its x values in order, the
    :meth:`FigureHarness.run` keywords each x sets, the x's document key
    and its row label."""

    xs: tuple[Any, ...]
    cell: Callable[[Any], dict[str, Any]]
    key: Callable[[Any], str] = str
    label: Callable[[Any], object] = lambda x: x


#: the sweeps behind the paper's figures; every other run parameter is
#: :meth:`FigureHarness.run`'s default (4 initial nodes, R = S = 10M
#: uniform 100-byte tuples, a pool of 24)
SWEEPS = {
    "nodes": _Sweep((1, 2, 4, 8, 16), lambda k: {"initial_nodes": k}),
    # the pool widened so the EHJAs can expand with the relation
    "size": _Sweep((10, 20, 40, 80),
                   lambda m: {"r_m": m, "s_m": m, "pool": 128}),
    "tuple": _Sweep((100, 200, 400),
                    lambda tb: {"tuple_bytes": tb, "pool": 80}),
    "asym": _Sweep(((10, 100), (100, 10)),
                   lambda rs: {"r_m": rs[0], "s_m": rs[1]},
                   key=lambda rs: f"R{rs[0]}_S{rs[1]}",
                   label=lambda rs: f"R={rs[0]}M, S={rs[1]}M"),
    "skew": _Sweep((None, 0.001, 0.0001), lambda s: {"sigma": s},
                   key=lambda s: "uniform" if s is None else str(s),
                   label=lambda s: "uniform" if s is None else f"sigma = {s}"),
}


def _point(res: JoinRunResult) -> dict[str, float]:
    """Every number a paper figure reads from one run: times in
    paper-scale seconds, traffic and loads in paper-scale chunks, counts
    and the model's inputs as measured."""
    cfg = res.config
    wl, spec, scale = cfg.workload, cfg.effective_cluster, cfg.workload.scale
    lb = load_balance(res)
    point = {
        "total_s": res.paper_scale_total_s,
        # no figure plots it; BENCH_2/3 have pinned it since they began
        "build_s": res.times.build_s / scale,
        "table_building_s": res.times.table_building_s / scale,
        "reshuffle_s": res.times.reshuffle_s / scale,
        "split_busy_s": res.split_busy_s / scale,
        # the probe broadcast's duplicate chunks on the sources' wires
        "dup_wire_s": res.probe_dup_chunks() * wl.chunk_bytes
        / (spec.n_sources * spec.cost.net_bandwidth) / scale,
        "extra_build_chunks": res.extra_build_chunks(),
        "r_chunks": wl.r_tuples / wl.chunk_tuples,
        "avg_load": lb.avg_chunks,
        "max_load": lb.max_chunks,
        "min_load": lb.min_chunks,
        "imbalance": lb.imbalance,
        "nodes_used": res.nodes_used,
        "n_splits": res.n_splits,
        "split_moved_tuples": res.split_moved_tuples,
        "reshuffle_moved_tuples": res.reshuffle_moved_tuples,
        "r_tuples": wl.real_r_tuples,
        # the model's bucket capacity B: a node's hash memory, in tuples
        "capacity_tuples": spec.hash_memory_bytes // wl.tuple_bytes,
    }
    return {name: float(value) for name, value in point.items()}


class _View:
    """One sweep of a figures document: ``v(algorithm, x)`` is the
    figure's plotted metric of that run, ``v(algorithm, x, metric)`` any
    other."""

    def __init__(self, doc: dict[str, Any], sweep: str, metric: str | None):
        self.series, self.name, self.metric = doc["series"], sweep, metric
        self.sweep = SWEEPS[sweep]
        self.xs = self.sweep.xs
        self.scale: float = doc["scale"]

    def __call__(self, algo: Algorithm, x: Any,
                 metric: str | None = None) -> float:
        point = self.series[f"{self.name}/{algo.value}"][self.sweep.key(x)]
        return float(point[metric or self.metric])


# ----------------------------------------------------------------------
# the figure table
# ----------------------------------------------------------------------
Rows = Callable[[_View], list[list[object]]]


@dataclass(frozen=True)
class Table:
    """How one figure lays out its sweep: by default one row per x, its
    label and then ``metric`` for each algorithm."""

    figure: str
    title: str
    sweep: str
    headers: tuple[str, ...]
    #: the plotted metric, which ``v(algorithm, x)`` reads in the claims
    metric: str | None
    rows: Rows | None = None
    notes: tuple[str, ...] = ()


def _columns(*columns: tuple[Algorithm, str]) -> Rows:
    """One row per x: its label, then each (algorithm, metric) cell."""
    return lambda v: [[v.sweep.label(x), *(v(a, x, m) for a, m in columns)]
                      for x in v.xs]


def _per_algorithm(metric: str, algos: tuple[Algorithm, ...] = ALGORITHMS,
                   *extra: tuple[Algorithm, str]) -> Rows:
    return _columns(*((a, metric) for a in algos), *extra)


def _loads(sigma: float | None) -> Rows:
    """Figures 12/13: one row per EHJA at one skew."""
    metrics = ("avg_load", "max_load", "min_load", "imbalance")
    return lambda v: [[_LABEL[a], *(v(a, sigma, m) for m in metrics)]
                      for a in EHJAS]


def _model(v: _View, k: int) -> tuple[float, float, float, float]:
    """§4.2.4 at ``k`` initial nodes: split's predicted and measured moved
    tuples (``n_splits * B/2``), then the reshuffle's (``(E-1)/E * R``)."""
    pm_split = split_moved_capacity_model(
        int(v(SPL, k, "n_splits")), int(v(SPL, k, "capacity_tuples")))
    pm_hyb = OverheadModel(v(SPL, k, "capacity_tuples"), 1.0) \
        .predicted_tuples_moved_hybrid(v(SPL, k, "r_tuples"),
                                       v(HYB, k, "nodes_used") / k)
    return (pm_split, v(SPL, k, "split_moved_tuples"),
            pm_hyb, v(HYB, k, "reshuffle_moved_tuples"))


def _model_rows(v: _View) -> list[list[object]]:
    rows: list[list[object]] = []
    for k in v.xs:
        pm_split, ms, pm_hyb, mh = _model(v, k)
        rows.append([k, v(SPL, k, "nodes_used") / k, int(v(SPL, k, "n_splits")),
                     pm_split, ms, pm_hyb, mh])
    return rows


def _by_algorithm(first: str) -> tuple[str, ...]:
    return (first, *(_LABEL[a] for a in ALGORITHMS))


_R_SIZE = (SPL, "r_chunks")
_LOAD_HEADERS = ("algorithm", "Average Load", "Maximum Load", "Minimum Load",
                 "max/avg")

#: every paper entry of :attr:`FigureHarness.FIGURES`, in report order
TABLES: dict[str, Table] = {
    "fig02": Table(
        "Figure 2", "Total execution time vs initial join nodes "
        "(uniform, R=S=10M tuples)", "nodes", _by_algorithm("initial nodes"),
        "total_s"),
    "fig03": Table(
        "Figure 3", "Hash table building time vs initial join nodes "
        "(uniform, R=S=10M tuples)", "nodes", _by_algorithm("initial nodes"),
        "table_building_s",
        notes=("at 1-2 initial nodes replicated's build is slower than split's "
               "in our model: a replica chain has a single active receiver NIC, "
               "while splits activate receivers in parallel (see EXPERIMENTS.md "
               "deviation notes)",)),
    "fig04": Table(
        "Figure 4", "Extra communication in the build phase (chunks; "
        "R = 1000 chunks)", "nodes",
        ("initial nodes", *(_LABEL[a] for a in EHJAS), "Size of Table R"),
        "extra_build_chunks",
        rows=_per_algorithm("extra_build_chunks", EHJAS, _R_SIZE)),
    "fig05": Table(
        "Figure 5", "Split time vs reshuffle time (uniform, R=S=10M)",
        "nodes", ("initial nodes", "Split time", "Reshuffle time"), None,
        rows=_columns((SPL, "split_busy_s"), (HYB, "reshuffle_s"))),
    "fig06": Table(
        "Figure 6", "Total execution time vs table size "
        "(R=S, 4 initial nodes, elastic pool)", "size",
        _by_algorithm("table size (M)"), "total_s",
        notes=("pool widened to 128 potential nodes so the EHJAs can expand "
               "with the relation (see EXPERIMENTS.md)",)),
    "fig07": Table(
        "Figure 7", "Total execution time vs tuple size (R=S=10M)", "tuple",
        _by_algorithm("tuple bytes"), "total_s"),
    "fig08": Table(
        "Figure 8", "Total execution time when the larger relation "
        "builds the hash table", "asym", _by_algorithm("configuration"),
        "total_s",
        notes=("DEVIATION: the paper reports replication fastest overall at "
               "R=100M,S=10M; in our model the whole cluster memory is ~6x "
               "too small for R=100M, and replication funnels the overflow "
               "through the 4 active replicas' disks while split spreads it "
               "over all 24 — see EXPERIMENTS.md for the arithmetic",)),
    "fig09": Table(
        "Figure 9", "Hash table building time when the larger relation "
        "builds the hash table", "asym", _by_algorithm("configuration"),
        "table_building_s",
        notes=("DEVIATION: in the R=100M case our replication build pays the "
               "concentrated-spill penalty (4 active disks vs split's 24) "
               "that dominates the paper-reported ordering; see EXPERIMENTS.md",)),
    "fig10": Table(
        "Figure 10", "Total execution time vs data skew "
        "(R=S=10M, 4 initial nodes)", "skew", _by_algorithm("distribution"),
        "total_s"),
    "fig11": Table(
        "Figure 11", "Extra build-phase communication vs data skew "
        "(chunks; R = 1000 chunks)", "skew",
        ("distribution", *(_LABEL[a] for a in EHJAS), "Size of Table R"),
        "extra_build_chunks",
        rows=_per_algorithm("extra_build_chunks", EHJAS, _R_SIZE)),
    "fig12": Table(
        "Figure 12", "Load balance across join nodes (uniform; "
        "avg/max/min stored tuples in chunks)", "skew", _LOAD_HEADERS,
        "imbalance", rows=_loads(None)),
    "fig13": Table(
        "Figure 13", "Load balance across join nodes (sigma = 0.0001; "
        "avg/max/min stored tuples in chunks)", "skew", _LOAD_HEADERS,
        "imbalance", rows=_loads(0.0001)),
    "model": Table(
        "Model (§4.2.4)", "Analytic overhead model vs measured transfer "
        "volumes (split: n_splits * B/2 with B = bucket capacity; "
        "reshuffle: (E-1)/E * R)", "nodes",
        ("initial nodes", "expansion E", "splits", "split moved (model)",
         "split moved (measured)", "reshuffle moved (model)",
         "reshuffle moved (measured)"), None, rows=_model_rows,
        notes=("measured transfer volumes follow the capacity-granular form "
               "(splits trigger at bucket capacity); the wall-clock gap of "
               "Figure 5 comes from split serialization vs parallel reshuffle",)),
}


# ----------------------------------------------------------------------
# the claims table
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Claim:
    """One shape check from the paper's text: the entry it belongs to,
    the line it prints, and whether a sweep view bears it out."""

    figure: str
    text: str
    holds: Callable[[_View], bool]


def _asymptotic_ratio(v: _View, expansion: float) -> float:
    model = OverheadModel(v(SPL, 1, "capacity_tuples"), 1.0)
    return model.split_s(expansion) / model.hybrid_s(expansion)


_POOR = (1, 2, 4)  # initial estimates well below the 16 nodes R needs
_SIGMA = 0.0001    # the paper's extreme skew

CLAIMS: tuple[Claim, ...] = (
    Claim("fig02", "every algorithm improves (or holds) as initial nodes grow",
          lambda v: all(v(a, k) >= v(a, k2) * 0.95
                        for a in ALGORITHMS for k, k2 in pairwise(v.xs))),
    Claim("fig02", "EHJAs beat Out-of-Core when initial nodes are few (<=4)",
          lambda v: all(v(a, k) < v(OOC, k) for a in EHJAS for k in _POOR)),
    Claim("fig02", "split & hybrid beat replicated at <=4 initial nodes",
          lambda v: all(v(a, k) < v(REP, k)
                        for a in (SPL, HYB) for k in _POOR)),
    Claim("fig02", "all four algorithms converge at 16 initial nodes "
          "(within 2%)",
          lambda v: max(v(a, 16) for a in ALGORITHMS)
          <= 1.02 * min(v(a, 16) for a in ALGORITHMS)),
    Claim("fig02", "split & hybrid are least sensitive to the initial estimate",
          lambda v: all(v(a, 1) / v(a, 16) < v(REP, 1) / v(REP, 16)
                        for a in (SPL, HYB))),
    Claim("fig03", "hybrid's table-building time (build + reshuffle) exceeds "
          "replicated's at every under-provisioned start",
          lambda v: all(v(HYB, k) > v(REP, k) for k in (1, 2, 4, 8))),
    Claim("fig03", "replicated's plain build matches or beats split's once a "
          "few receivers exist (>= 4 initial nodes)",
          lambda v: all(v(REP, k) <= 1.15 * v(SPL, k) for k in (4, 8))),
    Claim("fig03", "build times converge at 16 initial nodes (within 2%)",
          lambda v: max(v(a, 16) for a in ALGORITHMS)
          <= 1.02 * min(v(a, 16) for a in ALGORITHMS)),
    Claim("fig04", "split and hybrid both incur substantial extra build "
          "traffic at poor initial estimates (>= 3x replicated's)",
          lambda v: all(v(a, k) > 3 * max(v(REP, k), 1.0)
                        for a in (SPL, HYB) for k in (1, 2))),
    Claim("fig04", "replicated causes the least extra build communication",
          lambda v: all(v(REP, k) < v(a, k)
                        for a in (SPL, HYB) for k in _POOR)),
    Claim("fig04", "no extra communication at 16 initial nodes",
          lambda v: all(v(a, 16) == 0 for a in EHJAS)),
    Claim("fig04", "split's extra traffic at 1 initial node is comparable to "
          "the size of table R (>= 50%)",
          lambda v: v(SPL, 1) >= 0.5 * v(SPL, 1, "r_chunks")),
    Claim("fig05", "split overhead exceeds reshuffle overhead when the "
          "initial estimate is poor (<=4 nodes)",
          lambda v: all(v(SPL, k, "split_busy_s") > v(HYB, k, "reshuffle_s")
                        for k in _POOR)),
    Claim("fig05", "both overheads vanish at 16 initial nodes",
          lambda v: v(SPL, 16, "split_busy_s") == 0.0
          and v(HYB, 16, "reshuffle_s") < 1e-9 / v.scale),
    Claim("fig05", "both overheads shrink as the initial estimate improves",
          lambda v: v(SPL, 1, "split_busy_s") > v(SPL, 8, "split_busy_s")
          and v(HYB, 1, "reshuffle_s") > v(HYB, 8, "reshuffle_s")),
    Claim("fig06", "split and hybrid scale better with table size than "
          "replicated",
          lambda v: all(v(a, 80) / v(a, 10) < v(REP, 80) / v(REP, 10)
                        for a in (SPL, HYB))),
    Claim("fig06", "split and hybrid beat replicated at the largest size",
          lambda v: all(v(a, 80) < v(REP, 80) for a in (SPL, HYB))),
    Claim("fig07", "hybrid scales best with tuple size among the EHJAs",
          lambda v: all(v(HYB, 400) / v(HYB, 100) <= v(a, 400) / v(a, 100)
                        for a in (SPL, REP))),
    Claim("fig07", "hybrid is fastest at the largest tuple size",
          lambda v: all(v(HYB, 400) <= v(a, 400) for a in (SPL, REP))),
    Claim("fig08", "split & hybrid win when probing with the larger relation "
          "(R=10M, S=100M)",
          lambda v: all(v(a, (10, 100)) < v(REP, (10, 100))
                        for a in (SPL, HYB))),
    Claim("fig08", "replicated never moves stored tuples: its extra build "
          "communication stays negligible even at R=100M, while split's "
          "grows with the expansion",
          lambda v: v(REP, (100, 10), "extra_build_chunks")
          < 0.2 * v(SPL, (100, 10), "extra_build_chunks")),
    Claim("fig08", "replicated's probe broadcast is cheap when S is the small "
          "relation: duplicate traffic costs < 30% of the total at "
          "R=100M, S=10M",
          lambda v: v(REP, (100, 10), "dup_wire_s") < 0.3 * v(REP, (100, 10))),
    Claim("fig09", "replicated's build is cheapest (or tied) when the build "
          "relation fits the expanded cluster (R=10M case)",
          lambda v: all(v(REP, (10, 100)) <= 1.15 * v(a, (10, 100))
                        for a in (SPL, HYB))),
    Claim("fig10", "extreme skew (sigma=0.0001) degrades every algorithm",
          lambda v: all(v(a, _SIGMA) > v(a, None) for a in ALGORITHMS)),
    Claim("fig10", "hybrid degrades the least under extreme skew",
          lambda v: all(v(HYB, _SIGMA) / v(HYB, None)
                        <= v(a, _SIGMA) / v(a, None) for a in (SPL, REP))),
    Claim("fig10", "split performs worst among the EHJAs under extreme skew",
          lambda v: all(v(SPL, _SIGMA) > v(a, _SIGMA) for a in (REP, HYB))),
    Claim("fig10", "hybrid is the best algorithm under extreme skew",
          lambda v: all(v(HYB, _SIGMA) <= v(a, _SIGMA) for a in ALGORITHMS)),
    Claim("fig11", "split moves the same tuples repeatedly under extreme skew "
          "(extra traffic comparable to table R)",
          lambda v: v(SPL, _SIGMA) >= 0.5 * v(SPL, _SIGMA, "r_chunks")),
    Claim("fig11", "split's extra traffic exceeds replicated's and hybrid's "
          "under extreme skew",
          lambda v: all(v(SPL, _SIGMA) > v(a, _SIGMA) for a in (REP, HYB))),
    Claim("fig11", "replicated's extra build traffic stays small at every "
          "skew (< 20% of table R)",
          lambda v: all(v(REP, s) < 0.2 * v(SPL, s, "r_chunks")
                        for s in v.xs)),
    Claim("fig12", "split and hybrid are well balanced under uniform data "
          "(max/avg < 1.2)",
          lambda v: all(v(a, None) < 1.2 for a in (SPL, HYB))),
    Claim("fig13", "split suffers heavy load imbalance under extreme skew",
          lambda v: v(SPL, _SIGMA) > 2.0 * v(HYB, _SIGMA)),
    Claim("fig13", "hybrid maintains a relatively good balance under extreme "
          "skew (max/avg < 2)",
          lambda v: v(HYB, _SIGMA) < 2.0),
    Claim("model", "measured split traffic matches n_splits * capacity/2 "
          "(within [0.25x, 1.25x])",
          lambda v: all(pm <= 0 or 0.25 * pm <= ms <= 1.25 * pm
                        for pm, ms, _, _ in (_model(v, k) for k in v.xs))),
    Claim("model", "measured reshuffle traffic within 30% of (E-1)/E * R",
          lambda v: all(pm <= 0 or abs(mh - pm) <= 0.3 * pm
                        for _, _, pm, mh in (_model(v, k) for k in v.xs))),
    # the paper's asymptotic formulas, not a measurement
    Claim("model", "the paper's analytic conclusion holds: T_split/T_hybrid "
          "grows with the expansion factor (asymptotic formulas)",
          lambda v: _asymptotic_ratio(v, 16.0) > _asymptotic_ratio(v, 2.0)),
)


def render(doc: dict[str, Any], name: str) -> FigureReport:
    """Paper entry ``name`` of a figures document: its table and notes
    from :data:`TABLES`, its checks from :data:`CLAIMS`, no join run."""
    table = TABLES[name]
    view = _View(doc, table.sweep, table.metric)
    rows = table.rows or _per_algorithm(table.metric or "")
    report = FigureReport(table.figure, table.title, list(table.headers),
                          rows=rows(view), notes=list(table.notes))
    for claim in CLAIMS:
        if claim.figure == name:
            report.check(claim.text, claim.holds(view))
    return report


class FigureHarness:
    """Runs and caches the simulated experiments behind Figures 2-13 and
    the beyond-paper claims."""

    #: every reproduced figure, the §4.2.4 model validation and the
    #: beyond-paper studies, in report order; :meth:`figure` runs one by name
    FIGURES = (*TABLES, *STUDIES)

    def __init__(self, scale: float = DEFAULT_SCALE, validate: bool = True):
        WorkloadSpec(scale=scale)  # a bad scale fails here, not in a cell
        self.scale = scale
        self.validate = validate
        self._cache: dict[RunConfig, JoinRunResult] = {}

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

    def document(self, names: Iterable[str]) -> dict[str, Any]:
        """The figures document of the paper entries ``names``: one series
        per (sweep, algorithm), named ``"<sweep>/<algorithm>"``, one point
        per x value, each run once.  The schema ``repro bench-diff``
        reads; ``"benchmark"`` lists the entries, in report order."""
        wanted = set(names)
        unknown = wanted - set(TABLES)
        if unknown:
            raise KeyError(f"not a paper figure: {sorted(unknown)}")
        entries = [name for name in TABLES if name in wanted]
        sweeps = dict.fromkeys(TABLES[name].sweep for name in entries)
        return {
            "benchmark": " ".join(entries),
            "scale": self.scale,
            "validated": self.validate,
            "series": {
                f"{sweep}/{a.value}": {
                    SWEEPS[sweep].key(x): _point(self.run(a, **SWEEPS[sweep].cell(x)))
                    for x in SWEEPS[sweep].xs
                }
                for sweep in sweeps for a in ALGORITHMS
            },
        }

    def figure(self, name: str) -> FigureReport:
        """Run the entry of :attr:`FIGURES` called ``name``."""
        if name in STUDIES:
            return STUDIES[name](self)
        if name not in TABLES:
            raise KeyError(name)
        return render(self.document([name]), name)
