"""Tier-1 guard on the event stream.

The wall-clock benchmark (``benchmarks/perf``) pins every operation's
``events`` count and simulated values, but it runs after ``pytest``.  A
kernel / process / sync change that elides, adds or reorders an event
should fail here first: the kernel may make an event *cheaper*, never make
it disappear.
"""

import gc
import hashlib
import json
from pathlib import Path
from types import GeneratorType

import pytest

from repro.config import (
    Algorithm,
    ClusterSpec,
    QueryMixEntry,
    RunConfig,
    WorkloadConfig,
    WorkloadSpec,
)
from repro.cluster import Node
from repro.core import run_join
from repro.core.joinnode import JoinProcess
from repro.core.scheduler import SchedulerProcess
from repro.faults import CrashSpec, FaultPlan
from repro.sim import Mailbox, Process, Resource
from repro.workload import run_workload
from tests.conftest import small_config, small_workload

EXPECTED = Path(__file__).resolve().parents[1] / "benchmarks/perf/expected.json"


def metric_total(res, name):
    return sum(m["value"] for m in res.metrics if m["name"] == name)


@pytest.mark.parametrize("algorithm,nodes,cell", [
    (Algorithm.HYBRID, 2, "hybrid/2/uniform"),
    (Algorithm.OUT_OF_CORE, 8, "ooc/8/uniform"),
])
def test_grid_small_cells_reproduce_the_pinned_event_counts(algorithm, nodes, cell):
    """The two quick ``grid-small`` cells of the perf benchmark, built the
    way ``benchmarks/perf/workloads.py`` builds them; the reference file is
    read, never written."""
    doc = json.loads(EXPECTED.read_text())
    want = doc["quick"]["grid-small"][cell]
    cfg = RunConfig(
        algorithm=algorithm, initial_nodes=nodes, trace=False,
        workload=WorkloadSpec(scale=0.02, seed=doc["seed"]),
    )
    res = run_join(cfg, validate=False)
    got = {
        "events": metric_total(res, "sim.events_executed"),
        "total_s": round(res.paper_scale_total_s, 6),
        "build_s": round(res.times.build_s / cfg.workload.scale, 6),
        "matches": res.matches,
    }
    assert got == {k: want[k] for k in got}


def test_trace_stream_matches_the_golden_order():
    """Same records, same order: sha256 over the ``(t, category, actor)``
    stream of one small skewed hybrid run (replications, pool exhaustion,
    spill fallback, an out-of-core pass), recorded at the parent of the
    commit that rewrote the per-event path."""
    res = run_join(small_config(
        trace=True, workload=small_workload(r=8000, s=8000, sigma=0.05)
    ))
    digest = hashlib.sha256()
    for rec in res.tracer.records:
        digest.update(f"{rec.time!r} {rec.category} {rec.actor}\n".encode())
    assert len(res.tracer.records) == 76
    assert metric_total(res, "sim.events_executed") == 11028
    assert digest.hexdigest() == (
        "9a1d39be601254eaee09ec2f791dd83942b032c700a8e37d6546212c3cb56bd2"
    )


def test_workload_trace_stream_matches_the_golden_order():
    """The same guard for the shared-cluster path: four queries (three
    replicate, one hybrid) 50 ms apart on a pool of six scarce-memory
    nodes — admissions, grants, six recruit denials, spill fallbacks,
    releases.  A reordered spawn or send in either driver moves the
    stream.  Recorded at the parent of the commit that folded the
    private/shared fork out of ``repro.core``."""
    res = run_workload(WorkloadConfig(
        n_queries=4,
        arrival_times=tuple(0.05 * q for q in range(4)),
        cluster=ClusterSpec(n_sources=2, n_potential_nodes=6,
                            hash_memory_bytes=50 * 1024 * 1024),
        mix=tuple(
            QueryMixEntry(algorithm=a, initial_nodes=2)
            for a in (Algorithm.HYBRID, Algorithm.SPLIT, Algorithm.REPLICATE)
        ),
        scale=1.0 / 50.0, seed=7, trace=True,
    ))
    assert [q.algorithm for q in res.queries] == [
        "replicate", "replicate", "replicate", "hybrid"]
    assert res.total_denials == 6
    assert len(res.tracer.records) == 124
    assert metric_total(res, "sim.events_executed") == 95480
    digest = hashlib.sha256()
    for rec in res.tracer.records:
        digest.update(f"{rec.time!r} {rec.category} {rec.actor}\n".encode())
    assert digest.hexdigest() == (
        "fb18ab5ba0b01cae58504652e2669afa7f55cd9842291411e59603429be694f4"
    )


def test_membership_armed_trace_stream_matches_the_golden_order():
    """The armed path's guard: a small skewed hybrid run whose working
    node 1 crashes mid-build and whose primary scheduler is killed before
    the detector's verdict — failover re-announcements, the standby's
    recovery cycle (fence, five purges, replay), then pool exhaustion and
    a spill fallback on the survivors.  Recorded at the parent of the
    commit that layered the membership arms out of ``core/joinnode.py``."""
    res = run_join(small_config(
        trace=True,
        workload=small_workload(sigma=1e-4),
        faults=FaultPlan(
            membership=True, heartbeat_interval_s=0.01,
            crashes=(CrashSpec(node=1, at_time=0.02),),
            kill_scheduler_at=0.06,
        ),
    ))
    digest = hashlib.sha256()
    for rec in res.tracer.records:
        digest.update(f"{rec.time!r} {rec.category} {rec.actor}\n".encode())
    assert res.matches == res.reference_matches == 8
    assert len(res.tracer.records) == 115
    assert metric_total(res, "sim.events_executed") == 21719
    assert digest.hexdigest() == (
        "a91a77a000b42a7506806be091b3ff0d9fef50ddede5b69f027707c6ec96cea5"
    )


def test_finished_run_leaves_no_process_cycles(monkeypatch):
    """Finished processes must die by reference count.  With the collector
    off during a run, whatever ``gc.collect()`` finds afterwards was held
    by a cycle — and a join process holds its hash table.  (Caching a bound
    ``_resume`` on each Process is the obvious way to get this wrong.)

    No actor is exempt: not the scheduler (its strategy points back at it),
    not a node (its memory account's clock), not a mailbox (its screened
    receive), not a ticker (its callback list).  Lockdep is off: its
    wait-for graph is keyed by process, by design.
    """
    monkeypatch.setenv("REPRO_LOCKDEP", "0")
    run_join(small_config())  # warm caches that allocate on first use
    gc.collect()
    gc.disable()
    try:
        run_join(small_config())
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        leaked = [
            o for o in gc.garbage
            if isinstance(o, (Process, GeneratorType, JoinProcess,
                              SchedulerProcess, Node, Mailbox, Resource))
        ]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert leaked == []
