"""Autoscaling-policy study: latency SLO vs pool size, per arrival shape.

The paper sizes one query's resources; the fleet layer asks the
operator's follow-on question — how many pool nodes does a *workload*
need to meet a latency SLO, and does the admission policy change the
answer?  This script sweeps admission policies x pool sizes under the
two non-Poisson arrival generators (``diurnal``: traffic follows the
sun; ``bursty``: thundering herds), runs every cell through the real
OS-process sharded fleet path (``run_fleet``), and publishes the curves
as a bench-diff-compatible baseline:

* ``series`` key — ``{profile}-{policy}`` (one curve per combination);
* point key     — pool size (the x axis);
* ``p99_latency_s`` — fleet-wide p99 query latency in simulated seconds
  (sketch-backed, merged across cohorts);
* ``slo_miss_frac`` — SLO-miss fraction: queries whose end-to-end latency
  exceeded ``SLO_S``.

Every quantity is simulated, so a regenerated file must bench-diff
byte-clean against the committed ``BENCH_4.json`` — the CI
``fleet-smoke`` job gates on exactly that.

Run with::

    PYTHONPATH=src python benchmarks/bench_fleet_autoscale.py --out BENCH_4.json
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from repro.config import (
    ClusterSpec,
    FleetConfig,
    MTUPLES,
    PoolPolicy,
    QueryMixEntry,
    WorkloadConfig,
)
from repro.workload import profile_arrivals, run_fleet

#: latency SLO in simulated seconds — ~1.4x an uncontended query's
#: end-to-end latency at this mix/scale, so a well-provisioned pool
#: meets it and an undersized one visibly misses it
SLO_S = 0.25
PROFILES = ("diurnal", "bursty")
POLICIES = (PoolPolicy.FIFO, PoolPolicy.FAIR_SHARE)
#: pool nodes *per cohort* — the fleet's sharded-service model gives each
#: cohort its own independent pool, so this is the per-cell provisioning
#: knob the study sizes (total fleet capacity = N_COHORTS x pool)
POOL_SIZES = (2, 4, 6, 10)
N_QUERIES = 24
N_COHORTS = 4
SEED = 11


def _cell_config(profile: str, policy: PoolPolicy, pool: int,
                 n_shards: int) -> FleetConfig:
    base = WorkloadConfig(
        n_queries=N_QUERIES,
        arrival_rate_qps=2.0,
        seed=SEED,
        mix=(QueryMixEntry(r_tuples=MTUPLES, s_tuples=MTUPLES,
                           initial_nodes=2),),
        policy=policy,
        cluster=ClusterSpec(n_sources=2, n_potential_nodes=pool,
                            hash_memory_bytes=200 * 1024 * 1024),
        scale=1.0 / 50.0,
    )
    wl = dataclasses.replace(
        base, arrival_times=profile_arrivals(profile, base)
    )
    return FleetConfig(workload=wl, n_cohorts=N_COHORTS, n_shards=n_shards)


def sweep(n_shards: int) -> dict:
    series: dict[str, dict[str, dict[str, float]]] = {}
    for profile in PROFILES:
        for policy in POLICIES:
            name = f"{profile}-{policy.value}"
            series[name] = {}
            for pool in POOL_SIZES:
                res = run_fleet(_cell_config(profile, policy, pool,
                                             n_shards))
                if res.exit_code != 0:
                    raise SystemExit(
                        f"{name} pool={pool}: fleet exit "
                        f"{res.exit_code} ({len(res.failures)} failures, "
                        f"all_valid={res.all_valid})"
                    )
                p99 = res.latency_percentiles()["p99"]
                misses = sum(
                    1 for q in res.queries if q["latency_s"] > SLO_S
                )
                series[name][str(pool)] = {
                    "p99_latency_s": p99,
                    "slo_miss_frac": misses / res.n_queries,
                }
                print(f"{name:16s} pool={pool:3d}  p99={p99:7.3f}s  "
                      f"slo_miss={misses}/{res.n_queries}  "
                      f"wall={res.wall_s:5.1f}s")
    return {
        "benchmark": "fleet-autoscale",
        "description": "p99 latency (p99_latency_s, simulated s) and "
                       f"SLO-miss fraction (slo_miss_frac, SLO={SLO_S}s) "
                       "vs pool size, "
                       "per arrival profile x admission policy; "
                       f"{N_QUERIES} queries in {N_COHORTS} cohorts",
        "scale": 1.0 / 50.0,
        "slo_s": SLO_S,
        "series": series,
    }


def check_shape(doc: dict) -> list[str]:
    """The study's claims, as failures a regression would surface."""
    problems = []
    for name, points in doc["series"].items():
        pools = sorted(int(p) for p in points)
        misses = [points[str(p)]["slo_miss_frac"] for p in pools]
        if misses != sorted(misses, reverse=True):
            problems.append(
                f"{name}: SLO-miss fraction not monotone non-increasing "
                f"in pool size: {misses}"
            )
        if misses[0] <= misses[-1] and misses[0] == 0.0:
            problems.append(
                f"{name}: smallest pool already meets the SLO — the "
                "sweep is not exercising contention"
            )
    return problems


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=None, metavar="PATH",
                    help="write the baseline JSON here (e.g. BENCH_4.json)")
    ap.add_argument("--shards", type=int, default=2,
                    help="worker processes per fleet cell (default 2; "
                         "results are shard-count invariant)")
    args = ap.parse_args(argv)
    doc = sweep(args.shards)
    problems = check_shape(doc)
    for p in problems:
        print(f"SHAPE FAIL: {p}", file=sys.stderr)
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=2) + "\n",
                                  encoding="utf-8")
        print(f"wrote {args.out}")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
