"""Multi-tenant workload engine (``repro.workload``).

Runs many concurrent join queries inside one simulator against one shared
node pool — the paper's "additional resources become available" premise
made literal: resources are available to a query exactly when no other
query holds them.  See docs/WORKLOADS.md for the model, the arbitration
policies and annotated CLI output.

Layout:

* :mod:`.generator` — seeded arrivals (Poisson or trace) and query-mix
  draws; deterministic under a fixed seed.
* :mod:`.driver` — ``run_workload()``: admission via the shared
  :class:`~repro.core.pool.ResourcePoolProcess`, one unmodified
  single-query pipeline per query, per-query oracle validation.
* :mod:`.results` — :class:`WorkloadResult` with latency/queueing-delay
  percentiles, pool utilization and denial counts.
* :mod:`.fleet` — OS-process sharded fleet execution: deterministic
  cohort partitioning, workers that pull cohorts and stream mergeable
  snapshots over pipes, :class:`FleetResult` merge layer with
  structured :class:`ShardFailure` crash handling (docs/FLEET.md).
"""

from .driver import run_workload
from .fleet import (
    CohortResult,
    FleetResult,
    FleetRunner,
    ShardFailure,
    cohort_of,
    partition_cohorts,
    run_fleet,
)
from .generator import (
    ARRIVAL_PROFILES,
    QuerySpec,
    arrival_schedule,
    bursty_arrivals,
    diurnal_arrivals,
    generate_workload,
    profile_arrivals,
    query_run_config,
)
from .results import QueryStats, WorkloadResult

__all__ = [
    "ARRIVAL_PROFILES",
    "CohortResult",
    "FleetResult",
    "FleetRunner",
    "QuerySpec",
    "QueryStats",
    "ShardFailure",
    "WorkloadResult",
    "arrival_schedule",
    "bursty_arrivals",
    "cohort_of",
    "diurnal_arrivals",
    "generate_workload",
    "partition_cohorts",
    "profile_arrivals",
    "query_run_config",
    "run_fleet",
    "run_workload",
]
