"""Obs-budget smoke gate: bounded observability under a real workload.

The CI ``obs-budget`` job runs this script.  It executes one seeded
multi-query workload under a hard ``--obs-budget`` and asserts the
streaming layer's whole contract at once:

1. the run sheds records *loudly* — nonzero ``obs.spans_dropped`` with a
   matching ``obs`` section in the report (never silent truncation);
2. peak traced memory (tracemalloc) stays under a hard ceiling, so an
   unbounded collector sneaking back in fails the build;
3. the serialized final snapshot is small — within a fixed multiple of
   the byte budget;
4. two identical runs produce byte-identical snapshot JSON (the
   determinism the fleet-merge wire contract depends on);
5. sketch-backed latency percentiles stay within the documented 1%
   relative-error bound of the exact per-query order statistics;
6. the report's ``latency`` section *is* the snapshot's sketch
   (``Snapshot.percentiles`` — the one quantile path), and that sketch
   did not collapse under the budget's bin cap.

Run with::

    PYTHONPATH=src python benchmarks/obs_budget_smoke.py \
        --snapshot-out obs-snapshot.jsonl
"""

from __future__ import annotations

import argparse
import sys
import tracemalloc
from pathlib import Path

import numpy as np

from repro.config import (
    ClusterSpec,
    MTUPLES,
    ObsConfig,
    QueryMixEntry,
    WorkloadConfig,
)
from repro.obs import Snapshot
from repro.workload import run_workload

#: small enough that the 8-query run's ~120 offered spans overflow the
#: budget's ~40-span floor and visibly shed
BUDGET_BYTES = 8 * 1024
#: generous CI-hardware ceiling on peak traced allocations — the whole
#: simulated run fits in a fraction of this; an unbounded span/edge log
#: regression at this query count blows well past it
PEAK_TRACED_CEILING = 512 * 1024 * 1024
#: serialized snapshot ceiling: sketches/rings/samples must stay within
#: a small multiple of the byte budget (payload dicts cost more than
#: the budget's per-record planning estimates, hence the slack)
SNAPSHOT_BYTES_CEILING = 8 * BUDGET_BYTES
LATENCY = "workload.query_latency_s"


def build_config() -> WorkloadConfig:
    n_queries = 8
    return WorkloadConfig(
        n_queries=n_queries,
        arrival_times=tuple(0.05 * q for q in range(n_queries)),
        seed=7,
        mix=(QueryMixEntry(r_tuples=2 * MTUPLES, s_tuples=2 * MTUPLES,
                           initial_nodes=2),),
        cluster=ClusterSpec(n_sources=2, n_potential_nodes=8,
                            hash_memory_bytes=200 * 1024 * 1024),
        scale=1.0 / 50.0,
        obs=ObsConfig(budget_bytes=BUDGET_BYTES),
    )


def check(ok: bool, label: str, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'}  {label}: {detail}")
    return ok


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--snapshot-out", default="obs-snapshot.jsonl",
                    help="snapshot artifact path (default %(default)s)")
    args = ap.parse_args(argv)
    cfg = build_config()

    tracemalloc.start()
    res = run_workload(cfg)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    res2 = run_workload(cfg)

    snap_json = res.snapshot.to_json()
    Path(args.snapshot_out).write_text(snap_json + "\n", encoding="utf-8")
    print(f"wrote {args.snapshot_out} ({len(snap_json)} bytes)")

    report = res.to_dict()
    latencies = [q.latency_s for q in res.queries]
    exact_p99 = float(np.percentile(latencies, 99, method="lower"))
    sketch = res.snapshot.sketches[LATENCY]
    sketch_p99 = res.snapshot.percentiles(LATENCY, (99,))["p99"]

    ok = True
    ok &= check(res.all_valid and res.n_queries == cfg.n_queries,
                "oracle", f"{res.n_queries} queries, all_valid={res.all_valid}")
    ok &= check(res.spans_dropped > 0, "shedding",
                f"spans_dropped={res.spans_dropped} under "
                f"budget={BUDGET_BYTES}B")
    ok &= check(report.get("obs", {}).get("spans_dropped")
                == res.spans_dropped,
                "report", f"obs section carries the drops: {report.get('obs')}")
    ok &= check(peak <= PEAK_TRACED_CEILING, "memory",
                f"peak traced {peak / 1e6:.1f} MB "
                f"<= {PEAK_TRACED_CEILING / 1e6:.0f} MB ceiling")
    ok &= check(len(snap_json) <= SNAPSHOT_BYTES_CEILING, "snapshot size",
                f"{len(snap_json)} B <= {SNAPSHOT_BYTES_CEILING} B")
    ok &= check(snap_json == res2.snapshot.to_json(), "determinism",
                "two runs, byte-identical snapshot JSON")
    ok &= check(
        Snapshot.from_json(snap_json).counter_total("obs.spans_dropped")
        == res.spans_dropped,
        "roundtrip", "snapshot reparses with exact drop counter",
    )
    ok &= check(abs(sketch_p99 - exact_p99) <= 0.01 * exact_p99, "quantiles",
                f"sketch p99 {sketch_p99:.4f}s within 1% of "
                f"exact {exact_p99:.4f}s")
    ok &= check(report["latency"] == res.snapshot.percentiles(LATENCY)
                and not sketch.collapsed, "one quantile path",
                f"report latency {report['latency']} is the snapshot's, "
                f"collapsed={sketch.collapsed}")
    print("obs-budget smoke:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
