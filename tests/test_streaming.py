"""Streaming observability: sketches, rings, reservoirs, snapshots.

Unit coverage for :mod:`repro.obs.streaming` plus the workload-level
contracts the subsystem exists for: budgeted runs shed records *loudly*
(drop counters, never silent truncation), unbudgeted runs are
byte-for-byte unchanged, and shard snapshots merge into exactly what one
collector would have seen.
"""

import hashlib
import json
import math
import random

import numpy as np
import pytest

from repro.config import ObsConfig
from repro.core import run_join
from repro.obs import (
    CausalLog,
    ObsBudget,
    QuantileSketch,
    ReservoirSample,
    Snapshot,
    SpanLog,
    StreamingCollector,
    TimeSeriesRing,
    merge_snapshots,
)
from repro.config import FleetConfig
from repro.workload import run_fleet, run_workload

from .conftest import small_config
from .test_workload import AMPLE_MEMORY, wl_config


# ----------------------------------------------------------------------
# QuantileSketch
# ----------------------------------------------------------------------
def exact_quantile(values, q):
    """The rank convention the sketch documents: floor(q * (n - 1))."""
    return float(np.percentile(values, q * 100, method="lower"))


def test_sketch_error_bound_on_skewed_data():
    rng = np.random.default_rng(11)
    values = rng.zipf(1.5, size=5000).astype(float)
    sk = QuantileSketch()
    for v in values:
        sk.add(v)
    for q in (0.0, 0.25, 0.5, 0.9, 0.99, 1.0):
        exact = exact_quantile(values, q)
        assert abs(sk.quantile(q) - exact) <= sk.alpha * abs(exact)


def test_sketch_merge_equals_single_sketch():
    rng = random.Random(3)
    values = [rng.lognormvariate(0, 2) for _ in range(2000)]
    whole = QuantileSketch()
    parts = [QuantileSketch() for _ in range(4)]
    for i, v in enumerate(values):
        whole.add(v)
        parts[i % 4].add(v)
    merged = parts[0].merge(parts[1]).merge(parts[2]).merge(parts[3])
    assert merged == whole
    assert merged.count == whole.count == len(values)


def test_sketch_handles_negatives_and_zero():
    sk = QuantileSketch()
    for v in (-10.0, -1.0, 0.0, 1.0, 10.0):
        sk.add(v)
    assert sk.quantile(0.0) == pytest.approx(-10.0, rel=0.01)
    assert sk.quantile(1.0) == pytest.approx(10.0, rel=0.01)
    assert abs(sk.quantile(0.5)) <= 1e-12


def test_sketch_rejects_non_finite():
    sk = QuantileSketch()
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            sk.add(bad)


def test_sketch_collapse_keeps_upper_quantiles():
    sk = QuantileSketch(max_bins=32)
    values = [1.001 ** i for i in range(5000)]  # thousands of distinct bins
    for v in values:
        sk.add(v)
    assert sk.collapsed
    # The collapse folds *low* buckets; the tail stays within the bound.
    exact = exact_quantile(values, 0.99)
    assert abs(sk.quantile(0.99) - exact) <= sk.alpha * abs(exact)


def test_sketch_roundtrip_and_mean():
    sk = QuantileSketch()
    for v in (1.0, 2.0, 3.0, 4.0):
        sk.add(v)
    back = QuantileSketch.from_dict(sk.to_dict())
    assert back == sk
    assert sk.mean == pytest.approx(2.5)


def test_sketch_merge_requires_matching_shape():
    with pytest.raises(ValueError):
        QuantileSketch(alpha=0.01).merge(QuantileSketch(alpha=0.02))


# ----------------------------------------------------------------------
# TimeSeriesRing
# ----------------------------------------------------------------------
def test_ring_buckets_and_eviction():
    ring = TimeSeriesRing(resolution_s=1.0, n_buckets=4)
    for t in range(10):
        ring.observe(float(t), float(t))
    assert ring.count == 10  # count tracks every observation ever seen
    assert ring.evicted == 6  # ...but only the newest 4 buckets survive
    indices = [idx for idx, _ in ring.series()]
    assert indices == [6, 7, 8, 9]


def test_ring_merge_commutes_and_checks_resolution():
    a = TimeSeriesRing(resolution_s=0.5, n_buckets=8)
    b = TimeSeriesRing(resolution_s=0.5, n_buckets=8)
    for t in (0.1, 0.6, 1.2):
        a.observe(t, 1.0)
    for t in (0.4, 2.0):
        b.observe(t, 2.0)
    assert a.merge(b) == b.merge(a)
    with pytest.raises(ValueError):
        a.merge(TimeSeriesRing(resolution_s=1.0, n_buckets=8))


# ----------------------------------------------------------------------
# ReservoirSample
# ----------------------------------------------------------------------
def test_reservoir_is_insert_order_invariant():
    items = [(f"item{i:04d}", float(i % 7), {"i": i}) for i in range(200)]
    a = ReservoirSample(sample=16, outliers=4)
    b = ReservoirSample(sample=16, outliers=4)
    for ident, w, p in items:
        a.add(ident, w, p)
    for ident, w, p in reversed(items):
        b.add(ident, w, p)
    assert a == b
    assert a.dropped == 200 - len(a)


def test_reservoir_always_keeps_heaviest():
    r = ReservoirSample(sample=8, outliers=2)
    for i in range(100):
        r.add(f"small{i}", 1.0, None)
    r.add("huge", 1000.0, None)
    r.add("big", 500.0, None)
    assert "huge" in r and "big" in r


def test_reservoir_merge_equals_single_feed():
    items = [(f"k{i}", float((i * 37) % 11), i) for i in range(300)]
    single = ReservoirSample(sample=12, outliers=3)
    left = ReservoirSample(sample=12, outliers=3)
    right = ReservoirSample(sample=12, outliers=3)
    for i, (ident, w, p) in enumerate(items):
        single.add(ident, w, p)
        (left if i % 2 else right).add(ident, w, p)
    assert left.merge(right) == single == right.merge(left)
    assert single.total == 300


# ----------------------------------------------------------------------
# ObsBudget
# ----------------------------------------------------------------------
def test_obs_budget_floors_and_minimum():
    tiny = ObsBudget.from_bytes(4096)
    assert tiny.span_sample >= 32 and tiny.span_outliers >= 8
    assert tiny.ring_buckets >= 16 and tiny.sketch_bins >= 64
    with pytest.raises(ValueError):
        ObsBudget.from_bytes(4095)
    big = ObsBudget.from_bytes(1 << 20)
    assert big.span_sample > tiny.span_sample
    assert big.edge_sample > tiny.edge_sample


# ----------------------------------------------------------------------
# Snapshot
# ----------------------------------------------------------------------
def _snap(shard, t, counters, latencies=()):
    sk = QuantileSketch()
    for v in latencies:
        sk.add(v)
    sketches = {"workload.query_latency_s": sk} if latencies else {}
    return Snapshot(t=t, shards=(shard,), counters=dict(counters),
                    sketches=sketches)


def test_snapshot_merge_laws():
    a = _snap("shardA", 5.0, {"x": 2, "y|k=1": 3}, latencies=[1.0, 2.0])
    b = _snap("shardB", 7.0, {"x": 5, "z": 1}, latencies=[3.0])
    ab, ba = a.merge(b), b.merge(a)
    assert ab.to_json() == ba.to_json()
    assert ab.t == 7.0
    assert ab.shards == ("shardA", "shardB")
    assert ab.counters == {"x": 7, "y|k=1": 3, "z": 1}
    assert ab.counter_total("y") == 3  # label variants fold in
    assert ab.sketches["workload.query_latency_s"].count == 3


def test_snapshot_json_roundtrip_is_byte_stable():
    snap = _snap("shard0", 1.5, {"b": 2, "a": 1}, latencies=[0.5, 0.25])
    text = snap.to_json()
    again = Snapshot.from_json(text)
    assert again.to_json() == text
    assert json.loads(text)["kind"] == "repro-snapshot"


def test_snapshot_rejects_foreign_documents():
    with pytest.raises(ValueError):
        Snapshot.from_dict({"kind": "something-else", "v": 1})


def test_merge_snapshots_folds_any_grouping():
    snaps = [_snap(f"s{i}", float(i), {"n": i}) for i in range(1, 5)]
    folded = merge_snapshots(snaps)
    paired = merge_snapshots([snaps[0].merge(snaps[1]),
                              snaps[2].merge(snaps[3])])
    assert folded.to_json() == paired.to_json()
    assert folded.counters["n"] == 10


# ----------------------------------------------------------------------
# StreamingCollector
# ----------------------------------------------------------------------
def test_collector_snapshots_are_frozen():
    clock = [0.0]
    col = StreamingCollector(clock=lambda: clock[0])
    col.observe("m", 1.0)
    first = col.snapshot()
    col.observe("m", 100.0)
    clock[0] = 9.0
    second = col.snapshot()
    assert first.sketches["m"].count == 1  # later observes don't leak back
    assert second.sketches["m"].count == 2
    assert second.counters["obs.snapshots_emitted"] == 2


# ----------------------------------------------------------------------
# workload integration
# ----------------------------------------------------------------------
LATENCY = "workload.query_latency_s"


def test_percentiles_of_empty_list_is_empty_dict():
    # Regression: this used to hand numpy an empty array (ValueError) or,
    # worse, fabricate NaN placeholders.
    empty = StreamingCollector().snapshot()
    assert empty.percentiles(LATENCY, (50, 90, 99)) == {}
    # a section that exists but saw nothing is just as empty
    unfed = Snapshot(t=0.0, shards=("s",), sketches={LATENCY: QuantileSketch()})
    assert unfed.percentiles(LATENCY) == {}


def test_percentiles_track_exact_within_sketch_bound():
    values = [float(v) for v in range(1, 200)]
    col = StreamingCollector()
    for v in values:
        col.observe(LATENCY, v)
    pcts = col.snapshot().percentiles(LATENCY, (50, 90, 99))
    for q, key in ((0.50, "p50"), (0.90, "p90"), (0.99, "p99")):
        exact = exact_quantile(values, q)
        assert abs(pcts[key] - exact) <= 0.01 * exact


def test_one_quantile_path_for_workload_fleet_and_snapshot():
    cfg = wl_config(n_queries=3, pool=8, memory=AMPLE_MEMORY)
    res = run_workload(cfg)
    assert not res.snapshot.sketches[LATENCY].collapsed
    for qs in ((50, 90, 99), (50, 99)):
        assert res.latency_percentiles(qs) == res.snapshot.percentiles(
            LATENCY, qs)
        assert res.queue_delay_percentiles(qs) == res.snapshot.percentiles(
            "workload.queue_delay_s", qs)
    # a one-cohort fleet runs the same three queries in one simulator
    fleet = run_fleet(FleetConfig(workload=cfg, n_cohorts=1, n_shards=1))
    assert fleet.latency_percentiles() == res.latency_percentiles()
    assert fleet.queue_delay_percentiles() == res.queue_delay_percentiles()


def test_unbudgeted_workload_report_is_unchanged():
    res = run_workload(wl_config(n_queries=2, pool=8, memory=AMPLE_MEMORY))
    assert "obs" not in res.to_dict()
    assert not any(i["name"].startswith("obs.") for i in res.metrics)
    assert res.spans_dropped == 0
    assert res.snapshot is not None  # the snapshot itself always exists
    assert "obs:" not in res.summary()


def test_budgeted_workload_sheds_loudly_but_answers_exactly():
    base = run_workload(wl_config(n_queries=6, pool=8, memory=AMPLE_MEMORY))
    cfg = wl_config(n_queries=6, pool=8, memory=AMPLE_MEMORY,
                    obs=ObsConfig(budget_bytes=4096))
    res = run_workload(cfg)
    # observability is a pure observer: identical answers and timings
    assert [q.matches for q in res.queries] == [
        q.matches for q in base.queries
    ]
    assert res.makespan_s == base.makespan_s
    # ... but the budget visibly shed spans (6 queries >> the ~40-span
    # floor) and the report says so
    assert res.spans_dropped > 0
    obs = res.to_dict()["obs"]
    assert obs["budget_bytes"] == 4096
    assert obs["spans_dropped"] == res.spans_dropped
    assert "obs: budget shed" in res.summary()
    assert res.snapshot.counter_total("obs.spans_dropped") == res.spans_dropped


def test_budgeted_single_query_bounds_causal_log():
    res = run_join(small_config(obs_budget_bytes=4096))
    assert res.causal.bounded
    assert res.causal.dropped > 0  # small joins still send hundreds of msgs
    dropped = {
        i["name"]: i["value"] for i in res.metrics
        if i["name"].startswith("obs.")
    }
    assert dropped["obs.edges_dropped"] == res.causal.dropped
    # sampled-out edges are gone but lookups fail loudly, not wrongly
    kept = {e.eid for e in res.causal.edges}
    missing = next(i for i in range(res.causal.total) if i not in kept)
    with pytest.raises(KeyError):
        res.causal.edge(missing)


def test_unbudgeted_single_query_keeps_plain_logs():
    res = run_join(small_config())
    assert not res.causal.bounded
    assert res.causal.dropped == 0
    assert res.causal.total == len(res.causal.edges)
    assert not any(i["name"].startswith("obs.") for i in res.metrics)
    with pytest.raises(KeyError):  # unknown eid: the same loud failure
        res.causal.edge(res.causal.total)


# ----------------------------------------------------------------------
# golden values recorded from the two-class implementation (PR 12): the
# one-class logs must sample the same records, in the same order, and the
# snapshot wire bytes must not move
# ----------------------------------------------------------------------
GOLDEN_BUDGETED_SHA = (
    "c380e6d963c6353a59d6ec910a998b32a07b53663684201590d8228ddfe6f4ce")
GOLDEN_UNBUDGETED_SHA = (
    "d114119c25ae0e7c54288658019884f0f4a4ba0410f1a34fb087782ea95e6227")
GOLDEN_EIDS = [
    2, 11, 17, 25, 30, 32, 50, 74, 80, 92, 101, 104, 106, 130, 137, 176,
    187, 203, 211, 234, 254, 256, 261, 277, 290, 312, 320, 353, 372,
    379, 397, 412, 432, 452, 458,
]
GOLDEN_SPANS = [
    ('join0', 'build', 0.00020512000000000001),
    ('join1', 'build', 0.00037024000000000003),
    ('join2', 'build', 0.006500480000000002),
    ('join3', 'build', 0.009330240000000004),
    ('join4', 'build', 0.012856320000000011),
    ('join5', 'build', 0.016915839999999998),
    ('join6', 'build', 0.020565840000000002),
    ('join7', 'build', 0.028486079999999997),
    ('join8', 'build', 0.029804479999999973),
    ('join9', 'build', 0.03643167999999997),
    ('join0', 'reshuffle', 0.07717215999999996),
    ('join3', 'reshuffle', 0.07744311999999993),
    ('join5', 'reshuffle', 0.07752199999999994),
    ('join5', 'reshuffle', 0.07757191999999993),
    ('join5', 'reshuffle', 0.07761799999999994),
    ('join5', 'reshuffle', 0.07766295999999993),
    ('join7', 'reshuffle', 0.07769687999999993),
    ('join7', 'reshuffle', 0.07783799999999992),
    ('join9', 'reshuffle', 0.07787783999999992),
    ('join9', 'reshuffle', 0.07796863999999991),
    ('join10', 'reshuffle', 0.0780413599999999),
    ('join10', 'reshuffle', 0.0781226399999999),
    ('join10', 'reshuffle', 0.07816303999999989),
    ('join1', 'reshuffle', 0.07822031999999991),
    ('join1', 'reshuffle', 0.0782731999999999),
    ('join1', 'reshuffle', 0.0783195999999999),
    ('join2', 'reshuffle', 0.0784465599999999),
    ('join4', 'reshuffle', 0.07856711999999991),
    ('join4', 'reshuffle', 0.07857407999999991),
    ('join4', 'reshuffle', 0.0786663999999999),
    ('join6', 'reshuffle', 0.07879271999999991),
    ('join8', 'reshuffle', 0.0789116799999999),
    ('join8', 'reshuffle', 0.07891759999999991),
    ('join0', 'probe', 0.10226655999999987),
    ('join1', 'probe', 0.10243167999999986),
    ('join5', 'probe', 0.10309215999999982),
    ('scheduler', 'ooc', 0.14206144000000023),
]


@pytest.mark.parametrize("obs, sha", [
    (ObsConfig(budget_bytes=4096), GOLDEN_BUDGETED_SHA),
    (ObsConfig(), GOLDEN_UNBUDGETED_SHA),
], ids=["budgeted", "unbudgeted"])
def test_snapshot_wire_bytes_match_golden(obs, sha, monkeypatch):
    # recorded outside pytest, where lockdep (and its counters) is off
    monkeypatch.setenv("REPRO_LOCKDEP", "0")
    res = run_workload(wl_config(n_queries=6, pool=8, memory=AMPLE_MEMORY,
                                 obs=obs))
    wire = res.snapshot.to_json().encode()
    assert hashlib.sha256(wire).hexdigest() == sha


def test_budgeted_logs_retain_the_golden_records():
    res = run_join(small_config(obs_budget_bytes=4096))
    assert [e.eid for e in res.causal.edges] == GOLDEN_EIDS
    assert (res.causal.total, res.causal.dropped) == (473, 438)
    assert [(s.track, s.name, s.t0) for s in res.timeline.spans] == GOLDEN_SPANS
    shed = next(i["value"] for i in res.metrics
                if i["name"] == "obs.spans_dropped")
    assert (shed + len(GOLDEN_SPANS), shed) == (76, 39)  # (total, dropped)


def test_causal_queries_agree_between_unbounded_and_roomy_bounded_log():
    """Parents resolve by eid in both modes: a bounded log whose capacity
    exceeds the run answers every query exactly like an unbounded one."""
    class Msg:
        kind = "control"
        nbytes = 64

    class Req(Msg):
        pass

    class Resp(Msg):
        pass

    logs = [CausalLog(), CausalLog(sample=1000, outliers=8)]
    for log in logs:
        for i in range(20):
            req = Req()
            e = log.on_send("a", "b", req, float(i))
            log.on_deliver(e, req, i + 0.5)
            log.dequeue_hook("b")(req)
            log.on_send("b", "a", Resp(), i + 0.6)
            log.on_send("b", "c", Msg(), i + 0.7)
    plain, roomy = logs
    assert not plain.bounded and roomy.bounded and roomy.dropped == 0
    assert roomy.total == plain.total == 60

    def eids(edges):
        return [e.eid for e in edges]

    assert eids(roomy.edges) == eids(plain.edges) == list(range(60))
    pairs = plain.request_pairs("Req", "Resp")
    assert len(pairs) == 20
    assert [(eids(p)) for p in roomy.request_pairs("Req", "Resp")] == [
        eids(p) for p in pairs]
    for eid in (0, 3, 59):
        assert repr(roomy.edge(eid)) == repr(plain.edge(eid))
        assert eids(roomy.children(eid)) == eids(plain.children(eid))
    assert eids(plain.children(0)) == [1, 2]
    for log in logs:
        with pytest.raises(KeyError):
            log.edge(60)


def test_two_shard_split_merges_to_exact_counters():
    """The acceptance contract: a seeded workload split across two
    independent simulators merges via Snapshot.merge() into exact
    counters and in-bound latency quantiles."""
    shard_a = run_workload(wl_config(
        n_queries=2, pool=8, memory=AMPLE_MEMORY,
        obs=ObsConfig(shard="shardA"),
    ))
    shard_b = run_workload(wl_config(
        n_queries=3, pool=8, memory=AMPLE_MEMORY, seed=13,
        obs=ObsConfig(shard="shardB"),
    ))
    merged = shard_a.snapshot.merge(shard_b.snapshot)
    assert merged.to_json() == shard_b.snapshot.merge(
        shard_a.snapshot
    ).to_json()
    assert merged.shards == ("shardA", "shardB")
    # every catalogued counter is reported exactly: key-union sum
    for key in set(shard_a.snapshot.counters) | set(shard_b.snapshot.counters):
        assert merged.counters[key] == (
            shard_a.snapshot.counters.get(key, 0)
            + shard_b.snapshot.counters.get(key, 0)
        )
    assert merged.counter_total("workload.queries") == 5
    # latency quantiles of the merged sketch stay within the documented
    # bound of the exact combined order statistics
    latencies = [q.latency_s for q in shard_a.queries + shard_b.queries]
    pcts = merged.percentiles(LATENCY, (50, 90, 99))
    for q, key in ((0.5, "p50"), (0.9, "p90"), (0.99, "p99")):
        exact = exact_quantile(latencies, q)
        assert abs(pcts[key] - exact) <= 0.01 * abs(exact)


def test_final_snapshot_is_deterministic():
    cfg = wl_config(n_queries=3, pool=8, memory=AMPLE_MEMORY,
                    obs=ObsConfig(budget_bytes=32768))
    one = run_workload(cfg).snapshot.to_json()
    two = run_workload(cfg).snapshot.to_json()
    assert one == two


def test_live_interval_emits_periodic_snapshots():
    seen = []
    cfg = wl_config(n_queries=2, pool=8, memory=AMPLE_MEMORY,
                    obs=ObsConfig(live_interval_s=0.05))
    res = run_workload(cfg, on_snapshot=seen.append)
    assert seen, "expected at least one periodic snapshot"
    assert all(isinstance(s, Snapshot) for s in seen)
    assert [s.t for s in seen] == sorted(s.t for s in seen)
    emitted = res.snapshot.counter_total("obs.snapshots_emitted")
    # final snapshot counts itself on top of the periodic ones
    assert emitted == len(seen) + 1
    # periodic snapshots merge cleanly into the final one
    folded = merge_snapshots([*seen, res.snapshot])
    assert folded.counter_total("workload.queries") == 2


def test_bounded_span_log_drops_shortest_first():
    log = SpanLog(sample=4, outliers=2)
    assert log.bounded
    for i in range(50):
        log.add("track", f"op{i}", float(i), float(i) + 0.001 * (i + 1))
    log.add("track", "slow", 100.0, 200.0)
    assert log.total == 51
    assert log.dropped == 51 - len(log.spans)
    assert any(s.name == "slow" for s in log.spans)  # heaviest survives
    assert [s.t0 for s in log.spans] == sorted(s.t0 for s in log.spans)


def test_unbounded_span_log_keeps_recording_order():
    log = SpanLog()
    log.add("b", "late", 5.0, 6.0)
    log.add("a", "early", 1.0, 2.0)
    assert not log.bounded and log.dropped == 0 and log.total == 2
    assert [s.name for s in log.spans] == ["late", "early"]
