"""The OS-process sharded fleet layer (``repro.workload.fleet``).

The headline contract is shard-count invariance: the merged result is a
pure function of ``(workload, n_cohorts)``, so running the same trace on
1, 2 or 7 worker processes must produce byte-identical merged snapshots,
exactly equal counters, and identical per-query stats — and the same
under every ``multiprocessing`` start method the platform offers.  On top
of that: the blake2b cohort partitioner's stability properties,
structured crash handling (a worker hard-exits, survivors run what it had
not claimed and still merge, exit code flags the run as partial; a killed
parent takes its workers with it), and the seeded arrival generators
behind the autoscaling study.
"""

import json
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    ClusterSpec,
    FleetConfig,
    MTUPLES,
    QueryMixEntry,
    WorkloadConfig,
)
from repro.workload import (
    bursty_arrivals,
    cohort_of,
    diurnal_arrivals,
    partition_cohorts,
    profile_arrivals,
    run_fleet,
)
from repro.workload import fleet
from repro.workload.fleet import (
    EXIT_CLEAN,
    EXIT_PARTIAL,
    _CRASH_ENV,
    _cohort_workload,
)
from repro.workload.generator import generate_workload

#: ~4 MB of hash memory per node post-scale — contention-free queries,
#: which keeps every worker fast
AMPLE_MEMORY = 200 * 1024 * 1024


def fleet_config(n_queries=10, n_cohorts=4, n_shards=2, **kw):
    wl_kw = dict(
        n_queries=n_queries,
        arrival_rate_qps=2.0,
        seed=11,
        mix=(QueryMixEntry(r_tuples=MTUPLES // 2, s_tuples=MTUPLES // 2,
                           initial_nodes=2),),
        scale=1.0 / 50.0,
        cluster=ClusterSpec(n_sources=2, n_potential_nodes=6,
                            hash_memory_bytes=AMPLE_MEMORY),
    )
    wl_kw.update(kw)
    return FleetConfig(
        workload=WorkloadConfig(**wl_kw),
        n_cohorts=n_cohorts,
        n_shards=n_shards,
    )


# ----------------------------------------------------------------------
# cohort partitioner
# ----------------------------------------------------------------------
@given(st.integers(min_value=0, max_value=2**40),
       st.integers(min_value=1, max_value=64))
def test_cohort_of_stable_and_in_range(qid, n):
    c = cohort_of(qid, n)
    assert 0 <= c < n
    # stable: a pure function, never dependent on call order or process
    assert cohort_of(qid, n) == c


@given(st.integers(min_value=1, max_value=200),
       st.integers(min_value=1, max_value=9))
@settings(max_examples=25, deadline=None)
def test_partition_is_exact_cover(n_queries, n_cohorts):
    cfg = fleet_config(n_queries=n_queries).workload
    cfg = WorkloadConfig(n_queries=n_queries, seed=cfg.seed, mix=cfg.mix)
    specs = generate_workload(cfg)
    cohorts = partition_cohorts(specs, n_cohorts)
    assert len(cohorts) == n_cohorts
    seen = sorted(s.query_id for group in cohorts for s in group)
    assert seen == list(range(n_queries))
    for ci, group in enumerate(cohorts):
        for s in group:
            assert cohort_of(s.query_id, n_cohorts) == ci
        # trace order is preserved within a cohort
        assert [s.query_id for s in group] == sorted(
            s.query_id for s in group)


def test_cohort_workload_renumbers_but_keeps_seeds_and_arrivals():
    cfg = fleet_config(n_queries=12, n_cohorts=3)
    specs = generate_workload(cfg.workload)
    cohorts = partition_cohorts(specs, 3)
    for ci, group in enumerate(cohorts):
        sub, local, global_ids = _cohort_workload(cfg.workload, ci, group)
        assert [s.query_id for s in local] == list(range(len(group)))
        assert global_ids == [s.query_id for s in group]
        # seeds and arrivals ride along verbatim from the global draw
        assert [s.seed for s in local] == [s.seed for s in group]
        assert [s.arrival_s for s in local] == [s.arrival_s for s in group]
        assert sub.n_queries == len(group)
        assert sub.obs.shard == f"cohort{ci}"


def test_cohort_of_rejects_bad_count():
    with pytest.raises(ValueError):
        cohort_of(3, 0)


# ----------------------------------------------------------------------
# shard-count invariance (the tentpole acceptance contract)
# ----------------------------------------------------------------------
def test_shard_count_invariance():
    results = {}
    for shards in (1, 2, 7):
        res = run_fleet(fleet_config(n_queries=10, n_cohorts=4,
                                     n_shards=shards))
        assert res.exit_code == EXIT_CLEAN
        assert res.all_valid and not res.partial
        assert res.n_queries == 10
        results[shards] = res

    ref = results[1]
    assert ref.snapshot is not None
    exact = np.array(sorted(q["latency_s"] for q in ref.queries))
    for shards, res in results.items():
        # merged snapshot is byte-identical at any shard count
        assert res.snapshot.to_json() == ref.snapshot.to_json()
        # every counter agrees exactly (key-union merge law)
        for name in ref.snapshot.counters:
            assert res.counter_total(name) == ref.counter_total(name)
        # per-query stats identical, ascending global id
        assert res.queries == ref.queries
        # the only divergence allowed is the wall-clock section
        d_ref, d_res = ref.to_dict(), res.to_dict()
        d_ref.pop("wall"), d_res.pop("wall")
        assert json.dumps(d_res, sort_keys=True) == \
            json.dumps(d_ref, sort_keys=True)
        # sketch-backed global percentiles stay within the 1% relative
        # error bound of the exact empirical quantiles; with few samples
        # the rank itself is ambiguous, so bound against the bracket of
        # neighbouring order statistics
        pcts = res.latency_percentiles()
        for q in (50, 90, 99):
            lo = float(np.quantile(exact, q / 100.0, method="lower"))
            hi = float(np.quantile(exact, q / 100.0, method="higher"))
            assert lo / 1.011 <= pcts[f"p{q:g}"] <= hi * 1.011


@pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
def test_start_method_invariance(method, monkeypatch):
    """How workers are born moves nothing: a worker derives everything from
    the pickled config, nothing from state a fork would have inherited."""
    cfg = fleet_config(n_queries=10, n_cohorts=4, n_shards=2)
    ref = run_fleet(cfg)
    monkeypatch.setattr(
        fleet, "get_context", lambda: multiprocessing.get_context(method))
    res = run_fleet(cfg)
    assert res.exit_code == EXIT_CLEAN
    assert res.snapshot.to_json() == ref.snapshot.to_json()
    for name in ref.snapshot.counters:
        assert res.counter_total(name) == ref.counter_total(name)
    assert res.queries == ref.queries


def test_every_cohort_is_claimed_exactly_once_under_contention():
    """Three times more workers than cores race for twelve short cohorts.
    A claim lost to a race would run a cohort twice — invisible in the
    merged result (same bytes, ``done`` overwritten) but one ``cohort_done``
    too many, and a run without a live interval emits exactly one merged
    snapshot per ``cohort_done``."""
    cfg = fleet_config(n_queries=24, n_cohorts=12, n_shards=6)
    nonempty = [ci for ci, group in enumerate(partition_cohorts(
        generate_workload(cfg.workload), 12)) if group]
    seen = []
    res = run_fleet(cfg, validate=False, on_snapshot=seen.append)
    assert res.exit_code == EXIT_CLEAN
    assert res.n_shards == 6
    assert [c.cohort for c in res.cohorts] == nonempty
    assert len(seen) == len(nonempty)


def test_fleet_metrics_and_wall_bookkeeping():
    # 5 shards asked for, 3 non-empty cohorts: 3 launched, 3 reported
    res = run_fleet(fleet_config(n_queries=6, n_cohorts=3, n_shards=5))
    assert res.n_shards == 3
    assert res.to_dict()["wall"]["n_shards"] == 3
    assert "on 3 shard processes" in res.summary()

    res = run_fleet(fleet_config(n_queries=6, n_cohorts=3, n_shards=2))
    by_name = {}
    for inst in res.metrics:
        by_name.setdefault(inst["name"], []).append(inst)
    assert by_name["fleet.shards_launched"][0]["value"] == 2
    assert by_name["fleet.snapshots_merged"][0]["value"] >= 3
    assert "fleet.shards_failed" not in by_name or \
        by_name["fleet.shards_failed"][0]["value"] == 0
    walls = [i for i in by_name.get("fleet.worker_wall_s", [])]
    assert {i["labels"]["shard"] for i in walls} == {"0", "1"}
    assert set(res.wall_s_by_shard) == {0, 1}
    assert res.wall_s > 0
    # per-cohort worker wall: one gauge and one `wall` entry per cohort,
    # each inside the wall of the shard that claimed it
    cohort_walls = by_name["fleet.cohort_wall_s"]
    assert {i["labels"]["cohort"] for i in cohort_walls} == {"0", "1", "2"}
    by_cohort = res.to_dict()["wall"]["wall_s_by_cohort"]
    assert sorted(by_cohort) == [0, 1, 2]
    for c in res.cohorts:
        assert 0 < by_cohort[c.cohort] <= res.wall_s_by_shard[c.shard]
    # every cohort was claimed by exactly one launched shard
    assert {c.shard for c in res.cohorts} <= {0, 1}


# ----------------------------------------------------------------------
# crash handling
# ----------------------------------------------------------------------
def test_worker_crash_becomes_structured_failure(monkeypatch):
    """A worker that dies before claiming anything loses nothing: the
    survivor pulls every cohort, and the run is still flagged partial."""
    monkeypatch.setenv(_CRASH_ENV, "1")
    res = run_fleet(fleet_config(n_queries=10, n_cohorts=4, n_shards=2))
    assert res.partial
    assert res.exit_code == EXIT_PARTIAL
    assert len(res.failures) == 1
    failure = res.failures[0]
    assert failure.shard == 1
    assert failure.kind == "crash"
    assert failure.exitcode == 17
    assert failure.cohorts == ()
    # the survivor ran the whole partition and it merged normally
    assert [c.cohort for c in res.cohorts] == list(range(4))
    assert {c.shard for c in res.cohorts} == {0}
    assert res.n_queries == 10 and res.snapshot is not None
    # summary + to_dict carry the failure
    assert "FAILED shard 1" in res.summary()
    assert res.to_dict()["failures"][0]["kind"] == "crash"


FORK_ONLY = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="monkeypatching reaches only a forked worker")


@FORK_ONLY
def test_worker_dying_with_a_claim_loses_exactly_that_cohort(monkeypatch):
    real = fleet.run_workload

    def die_on_cohort2(cfg, **kw):
        if cfg.obs.shard == "cohort2":
            os._exit(17)
        return real(cfg, **kw)

    monkeypatch.setattr(fleet, "run_workload", die_on_cohort2)
    res = run_fleet(fleet_config(n_queries=10, n_cohorts=4, n_shards=2))
    assert res.exit_code == EXIT_PARTIAL
    assert len(res.failures) == 1
    failure = res.failures[0]
    assert failure.kind == "crash" and failure.exitcode == 17
    assert failure.cohorts == (2,)
    # everything else — claimed by either worker before the death, or by
    # the survivor after it — merged
    assert [c.cohort for c in res.cohorts] == [0, 1, 3]
    assert f"FAILED shard {failure.shard}" in res.summary()


def _names_every_cohort(res, n_cohorts):
    assert res.exit_code == EXIT_PARTIAL
    assert res.cohorts == [] and res.snapshot is None
    named = sorted(ci for f in res.failures for ci in f.cohorts)
    assert named == list(range(n_cohorts))


def test_only_worker_dying_names_every_cohort(monkeypatch):
    """Nobody is left to claim: the unclaimed cohorts go to the last
    worker reaped, so a cohort is never absent from both the results and
    the failures."""
    monkeypatch.setenv(_CRASH_ENV, "0")
    res = run_fleet(fleet_config(n_queries=10, n_cohorts=4, n_shards=1))
    assert len(res.failures) == 1
    _names_every_cohort(res, 4)


@FORK_ONLY
def test_both_workers_dying_names_every_cohort(monkeypatch):
    """Each dies holding its first claim; the two cohorts neither reached
    ride on whichever was reaped last."""
    monkeypatch.setattr(fleet, "run_workload", lambda *a, **kw: os._exit(17))
    res = run_fleet(fleet_config(n_queries=10, n_cohorts=4, n_shards=2))
    assert len(res.failures) == 2
    assert sorted(len(f.cohorts) for f in res.failures) == [1, 3]
    _names_every_cohort(res, 4)


_STALLED_PARENT = """
import multiprocessing, pickle, sys, time
from repro.workload import run_fleet

def stall(_snapshot):  # first cohort_done: name the workers, stop reading
    print(*[p.pid for p in multiprocessing.active_children()], flush=True)
    time.sleep(60)

run_fleet(pickle.load(sys.stdin.buffer), validate=False, on_snapshot=stall)
"""


def _running(pid):
    """Neither gone nor a zombie awaiting its reaper."""
    try:
        stat = open(f"/proc/{pid}/stat").read()
    except OSError:
        return False
    return stat.rsplit(") ", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="needs /proc")
@pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGKILL])
def test_workers_do_not_outlive_a_killed_parent(sig):
    """The parent stops reading and is killed with most cohorts still to
    run.  A forked worker holds a read end of its own pipe, so left alone
    it would fill the pipe and block in ``send`` for good."""
    parent = subprocess.Popen(
        [sys.executable, "-c", _STALLED_PARENT], stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    try:
        parent.stdin.write(pickle.dumps(
            fleet_config(n_queries=40, n_cohorts=16, n_shards=2)))
        parent.stdin.close()
        workers = [int(pid) for pid in parent.stdout.readline().split()]
        assert len(workers) == 2 and all(map(_running, workers))
        parent.send_signal(sig)
        parent.wait(timeout=30)
    finally:
        parent.kill()
    deadline = time.monotonic() + 5
    while any(map(_running, workers)) and time.monotonic() < deadline:
        time.sleep(0.05)
    left = [pid for pid in workers if _running(pid)]
    for pid in left:
        os.kill(pid, signal.SIGKILL)  # a failing test leaves nothing either
    assert not left


def test_worker_dying_mid_pipe_write_is_end_of_pipe():
    """A worker killed mid-message leaves a length header and less payload
    than it promised: ``Connection.recv`` raises OSError (partial read), not
    EOFError (empty read).  The runner must read both as "pipe closed" —
    after keeping the complete message that came first — so the shard is
    reaped into a ``ShardFailure(kind="crash")`` instead of a traceback."""
    import os
    import struct
    from multiprocessing import Pipe

    from repro.workload.fleet import FleetRunner

    reader, writer = Pipe(duplex=False)
    writer.send(("worker_done", 1, 0.25))
    os.write(writer.fileno(), struct.pack("!i", 4096) + b"short")
    writer.close()
    walls: dict[int, float] = {}
    runner = FleetRunner(fleet_config())
    assert runner._drain_conn(reader, 1, {}, {}, walls, {}) is True
    assert walls == {1: 0.25}


def test_periodic_snapshots_are_parsed_only_for_a_reader():
    """``live`` feeds ``on_snapshot`` and nothing else: without one a
    periodic snapshot is received and dropped unparsed; with one it is
    parsed, merged and handed over."""
    from multiprocessing import Pipe

    from repro.obs.streaming import Snapshot
    from repro.workload.fleet import FleetRunner

    def drain(runner, snap_json):
        reader, writer = Pipe(duplex=False)
        writer.send(("snapshot", 3, snap_json))
        writer.close()
        live: dict[int, Snapshot] = {}
        assert runner._drain_conn(reader, 0, {}, live, {}, {}) is True
        return live

    assert drain(FleetRunner(fleet_config()), "never parsed") == {}
    seen: list[Snapshot] = []
    snap = Snapshot(t=1.5, shards=("cohort3",), counters={"q": 2.0})
    live = drain(FleetRunner(fleet_config(), on_snapshot=seen.append),
                 snap.to_json())
    assert live[3].to_json() == snap.to_json()
    assert [s.to_json() for s in seen] == [snap.to_json()]


# ----------------------------------------------------------------------
# arrival generators (the autoscaling study's inputs)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fn", [diurnal_arrivals, bursty_arrivals])
def test_arrival_generators_sorted_deterministic(fn):
    a = fn(50, seed=3)
    b = fn(50, seed=3)
    assert a == b
    assert len(a) == 50
    assert list(a) == sorted(a)
    assert all(t > 0 for t in a)
    assert fn(50, seed=4) != a


def test_profile_arrivals_dispatch():
    cfg = fleet_config(n_queries=30).workload
    assert profile_arrivals("poisson", cfg) == \
        profile_arrivals("poisson", cfg)
    for profile in ("diurnal", "bursty"):
        trace = profile_arrivals(profile, cfg)
        assert len(trace) == 30
        assert list(trace) == sorted(trace)
    with pytest.raises(ValueError):
        profile_arrivals("lunar", cfg)


def test_arrival_generators_reject_bad_args():
    with pytest.raises(ValueError):
        diurnal_arrivals(0, seed=1)
    with pytest.raises(ValueError):
        diurnal_arrivals(5, seed=1, base_qps=4.0, peak_qps=1.0)
    with pytest.raises(ValueError):
        bursty_arrivals(5, seed=1, burst_size=0)
