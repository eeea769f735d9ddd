"""Run results: everything the paper's figures are computed from."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..config import RunConfig
from ..obs import PhaseTimeline

__all__ = ["NodeLoad", "CommStats", "PhaseTimes", "JoinRunResult"]


@dataclass(frozen=True)
class NodeUtilization:
    """Busy-time fractions of one node's hardware over the whole run."""

    node: int
    role: str
    cpu: float
    tx: float
    rx: float
    disk: float
    #: timeline/causal-log track name ("src<s>" / "join<pool index>");
    #: distinct from ``node``, which is the global node id
    track: str = ""

    def __str__(self) -> str:
        return (f"{self.role}{self.node}: cpu={self.cpu:5.1%} "
                f"tx={self.tx:5.1%} rx={self.rx:5.1%} disk={self.disk:5.1%}")


@dataclass(frozen=True)
class NodeLoad:
    """Build tuples stored on one join node at probe time."""

    node: int
    stored_tuples: int
    activated_at: float
    peak_memory: int
    spilled_r_tuples: int = 0


@dataclass
class CommStats:
    """Tuple/chunk traffic by hop kind (see messages.Hop)."""

    tuples_by_hop: dict[str, int] = field(default_factory=dict)
    chunks_by_hop: dict[str, int] = field(default_factory=dict)

    def tuples(self, *hops: str) -> int:
        return sum(self.tuples_by_hop.get(h, 0) for h in hops)

    def chunks_equivalent(self, chunk_tuples: int, *hops: str) -> float:
        """Traffic in units of full chunks (the paper's Figure 4/11 y-axis)."""
        return self.tuples(*hops) / chunk_tuples


@dataclass(frozen=True)
class PhaseTimes:
    """Simulated wall-clock boundaries of the run's phases (seconds)."""

    build_s: float
    reshuffle_s: float
    probe_s: float
    ooc_pass_s: float

    @property
    def total_s(self) -> float:
        return self.build_s + self.reshuffle_s + self.probe_s + self.ooc_pass_s

    @property
    def table_building_s(self) -> float:
        """The paper's 'hash table building time': build plus — for the
        hybrid algorithm — the reshuffling step (Figure 3's accounting)."""
        return self.build_s + self.reshuffle_s


@dataclass
class JoinRunResult:
    """Complete outcome of one simulated join run."""

    config: RunConfig
    times: PhaseTimes
    matches: int
    #: exact equi-join cardinality from the sequential oracle (None if the
    #: driver was asked to skip validation)
    reference_matches: int | None
    comm: CommStats
    loads: list[NodeLoad]
    #: join nodes used at any point (initial + recruited)
    nodes_used: int
    #: (time, node) recruitment events, in order
    expansion_trace: list[tuple[float, int]]
    n_splits: int
    split_moved_tuples: int
    #: total simulated time during which a split transfer was in progress
    split_busy_s: float
    reshuffle_moved_tuples: int
    overcommit_bytes: int
    spilled_r_tuples: int
    spilled_s_tuples: int
    #: output materialization (footnote 1); zero unless enabled
    output_tuples: int = 0
    output_spilled_tuples: int = 0
    output_sink_nodes: int = 0
    #: busy-time fractions of every node that did work (sources + joins)
    utilization: list[NodeUtilization] = field(default_factory=list)
    #: phase/span timeline (scheduler phases + per-node activity spans);
    #: feed to :func:`repro.obs.chrome_trace` for a Perfetto-loadable file
    timeline: PhaseTimeline | None = None
    #: end-of-run metrics snapshot (list of instrument dicts, see
    #: :meth:`repro.obs.MetricsRegistry.snapshot`)
    metrics: list[dict] = field(default_factory=list)
    #: raw event tracer from the run (None when tracing is disabled)
    tracer: Any | None = None
    #: causal message DAG (:class:`repro.obs.CausalLog`); feed the result
    #: to :func:`repro.obs.explain` for the critical-path report
    causal: Any | None = None

    # ------------------------------------------------------------------
    @property
    def total_s(self) -> float:
        return self.times.total_s

    @property
    def paper_scale_total_s(self) -> float:
        """Approximate full-scale seconds: simulated time divided by the
        workload scale (valid because fixed per-op costs are co-scaled)."""
        return self.total_s / self.config.workload.scale

    @property
    def is_valid(self) -> bool:
        """Distributed match count equals the sequential reference."""
        return (
            self.reference_matches is None
            or self.matches == self.reference_matches
        )

    def extra_build_chunks(self) -> float:
        """Figure 4/11 metric: build-phase communication beyond the primary
        source->node hop, in chunk units."""
        from .messages import Hop

        return self.comm.chunks_equivalent(
            self.config.workload.real_chunk_tuples, *Hop.BUILD_EXTRA
        )

    def probe_dup_chunks(self) -> float:
        """Probe-phase replica broadcast overhead, in chunk units."""
        from .messages import Hop

        return self.comm.chunks_equivalent(
            self.config.workload.real_chunk_tuples, Hop.PROBE_DUP
        )

    def load_stats(self) -> tuple[float, int, int]:
        """(average, max, min) stored tuples across used join nodes."""
        if not self.loads:
            return (0.0, 0, 0)
        stored = [l.stored_tuples for l in self.loads]
        return (sum(stored) / len(stored), max(stored), min(stored))

    def summary(self) -> str:
        """One-paragraph human-readable digest."""
        avg, mx, mn = self.load_stats()
        return (
            f"{self.config.algorithm.value:>9s}: total={self.total_s:8.2f}s "
            f"build={self.times.build_s:7.2f}s reshuffle={self.times.reshuffle_s:6.2f}s "
            f"probe={self.times.probe_s:7.2f}s ooc={self.times.ooc_pass_s:6.2f}s | "
            f"nodes={self.nodes_used:2d} splits={self.n_splits:3d} "
            f"extra_build_chunks={self.extra_build_chunks():8.1f} "
            f"probe_dup_chunks={self.probe_dup_chunks():8.1f} | "
            f"load avg/max/min={avg:9.1f}/{mx}/{mn} | "
            f"matches={self.matches}"
            + ("" if self.is_valid else f" (REF {self.reference_matches}: MISMATCH!)")
        )
