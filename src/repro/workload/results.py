"""Workload-level results: per-query stats, percentiles, pool accounting."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..config import WorkloadConfig
from ..core.results import JoinRunResult
from ..obs.streaming import Snapshot

__all__ = ["QueryStats", "WorkloadResult"]


@dataclass(frozen=True)
class QueryStats:
    """Lifecycle timing and resource outcome of one workload query.

    All times are absolute simulated seconds; the latency decomposition is
    ``latency = queue_delay + run``: arrival -> admission grant (queueing
    for initial nodes) -> finished (last FinalReport collected).
    """

    query: int
    algorithm: str
    arrival_s: float
    admitted_s: float
    finished_s: float
    initial_nodes: int
    nodes_used: int
    #: pool denials this query's expansion recruits received
    recruit_denials: int
    spilled_r_tuples: int
    spilled_s_tuples: int
    matches: int
    reference_matches: int | None

    @property
    def latency_s(self) -> float:
        return self.finished_s - self.arrival_s

    @property
    def queue_delay_s(self) -> float:
        return self.admitted_s - self.arrival_s

    @property
    def run_s(self) -> float:
        return self.finished_s - self.admitted_s

    @property
    def degraded_to_spill(self) -> bool:
        """The query hit the OOC spill path (denied or exhausted recruits)."""
        return self.spilled_r_tuples > 0 or self.spilled_s_tuples > 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "query": self.query,
            "algorithm": self.algorithm,
            "arrival_s": self.arrival_s,
            "admitted_s": self.admitted_s,
            "finished_s": self.finished_s,
            "latency_s": self.latency_s,
            "queue_delay_s": self.queue_delay_s,
            "run_s": self.run_s,
            "initial_nodes": self.initial_nodes,
            "nodes_used": self.nodes_used,
            "recruit_denials": self.recruit_denials,
            "spilled_r_tuples": self.spilled_r_tuples,
            "spilled_s_tuples": self.spilled_s_tuples,
            "degraded_to_spill": self.degraded_to_spill,
            "matches": self.matches,
            "reference_matches": self.reference_matches,
        }


@dataclass
class WorkloadResult:
    """Complete outcome of one multi-query workload run."""

    config: WorkloadConfig
    queries: list[QueryStats]
    #: per-query JoinRunResult (same index order as ``queries``)
    results: list[JoinRunResult]
    #: shared-pool accounting (:meth:`repro.core.pool.PoolStats.to_dict`)
    pool: dict[str, Any]
    #: simulated time from t=0 to the last query finishing
    makespan_s: float
    #: time-weighted mean fraction of pool nodes held by some query
    pool_utilization: float
    metrics: list[dict] = field(default_factory=list)
    timeline: Any | None = None
    tracer: Any | None = None
    #: final mergeable observability snapshot (sketches, rings, sampled
    #: spans): what the fleet layer ships between shards, and where this
    #: result's own percentiles are read from
    snapshot: Snapshot = field(
        default_factory=lambda: Snapshot(t=0.0, shards=())
    )
    #: records shed by the bounded collectors (zero unless a --obs-budget
    #: was armed; nothing is ever silently truncated)
    spans_dropped: int = 0

    # ------------------------------------------------------------------
    @property
    def n_queries(self) -> int:
        return len(self.queries)

    @property
    def all_valid(self) -> bool:
        return all(r.is_valid for r in self.results)

    @property
    def total_denials(self) -> int:
        return int(self.pool.get("denials", 0))

    @property
    def degraded_queries(self) -> list[int]:
        return [q.query for q in self.queries if q.degraded_to_spill]

    def latency_percentiles(
        self, qs: tuple[int, ...] = (50, 90, 99)
    ) -> dict[str, float]:
        """Sketch-backed (1% relative-error bound), read from ``snapshot``
        like every other report on this run; ``{}`` without queries."""
        return self.snapshot.percentiles("workload.query_latency_s", qs)

    def queue_delay_percentiles(
        self, qs: tuple[int, ...] = (50, 90, 99)
    ) -> dict[str, float]:
        return self.snapshot.percentiles("workload.queue_delay_s", qs)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """JSON-safe digest (per-query stats, percentiles, pool counters).

        The ``obs`` section appears only when a byte budget was armed, so
        unbudgeted reports are structurally unchanged.
        """
        out = {
            "n_queries": self.n_queries,
            "policy": self.config.policy.value,
            "makespan_s": self.makespan_s,
            "pool_utilization": self.pool_utilization,
            "latency": self.latency_percentiles(),
            "queue_delay": self.queue_delay_percentiles(),
            "all_valid": self.all_valid,
            "degraded_queries": self.degraded_queries,
            "pool": dict(self.pool),
            "queries": [q.to_dict() for q in self.queries],
        }
        if self.config.obs.budget_bytes is not None:
            out["obs"] = {
                "budget_bytes": self.config.obs.budget_bytes,
                "spans_dropped": self.spans_dropped,
            }
        return out

    def summary(self) -> str:
        """Multi-line human-readable digest."""
        lat = self.latency_percentiles()
        qd = self.queue_delay_percentiles()
        lat = {k: lat.get(k, 0.0) for k in ("p50", "p90", "p99")}
        qd = {k: qd.get(k, 0.0) for k in ("p50", "p90", "p99")}
        lines = [
            f"workload: {self.n_queries} queries, "
            f"policy={self.config.policy.value}, "
            f"pool={self.config.cluster.n_potential_nodes} nodes, "
            f"makespan={self.makespan_s:.2f}s, "
            f"pool_util={self.pool_utilization:5.1%}",
            f"latency    p50={lat['p50']:7.2f}s p90={lat['p90']:7.2f}s "
            f"p99={lat['p99']:7.2f}s",
            f"queue_delay p50={qd['p50']:6.2f}s p90={qd['p90']:6.2f}s "
            f"p99={qd['p99']:6.2f}s",
            f"pool: {self.pool.get('grants', 0)} grants, "
            f"{self.pool.get('denials', 0)} denials "
            f"({self.pool.get('denials_by_reason', {})}), "
            f"crashed={self.pool.get('crashed_nodes', [])}, "
            f"leaked={self.pool.get('leaked_nodes', [])}",
        ]
        if self.spans_dropped:
            lines.append(
                f"obs: budget shed {self.spans_dropped} spans (sampled "
                f"summaries remain exact for counters, ~1% for quantiles)"
            )
        for q in self.queries:
            ok = "ok" if q.matches == (
                q.reference_matches if q.reference_matches is not None
                else q.matches
            ) else "MISMATCH"
            spill = " spill" if q.degraded_to_spill else ""
            lines.append(
                f"  q{q.query}: {q.algorithm:>9s} arrive={q.arrival_s:6.2f}s "
                f"wait={q.queue_delay_s:5.2f}s run={q.run_s:6.2f}s "
                f"nodes={q.nodes_used} denials={q.recruit_denials}"
                f"{spill} matches={q.matches} [{ok}]"
            )
        return "\n".join(lines)
