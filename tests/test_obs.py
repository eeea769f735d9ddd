"""Tests for the observability subsystem (repro.obs) and its wiring.

Covers the instruments/registry, span timelines, trace/metrics export
(JSONL + Chrome trace_event), the bounded tracer, and the end-to-end
wiring through a full simulated join: the chrome trace's per-node
build/probe spans must agree with the phase times in JoinRunResult.
"""

import ast
import json
from pathlib import Path

import numpy as np
import pytest

from repro.config import Algorithm
from repro.core import run_join
from repro.obs import metrics as metrics_module
from repro.obs import (
    Counter,
    Gauge,
    MetricsRegistry,
    PhaseTimeline,
    SpanLog,
    TimeWeightedHistogram,
    chrome_trace,
    metrics_to_jsonl,
    trace_to_jsonl,
)
from repro.obs.catalogue import METRICS
from repro.sim import Tracer

from .conftest import small_config


# ----------------------------------------------------------------------
# instruments
# ----------------------------------------------------------------------
def test_counter_accumulates_and_rejects_negative():
    c = Counter("bytes")
    c.inc(10)
    c.inc(5)
    assert c.value == 15
    with pytest.raises(ValueError):
        c.inc(-1)
    assert c.as_dict()["type"] == "counter"


def test_gauge_tracks_watermarks_and_bounds_timeline():
    g = Gauge("mem", max_samples=3)
    for t, v in [(0.0, 5), (1.0, 9), (2.0, 2), (3.0, 4)]:
        g.set(t, v)
    assert g.last == 4
    assert g.high == 9 and g.low == 2
    assert g.samples == 4
    assert len(g.timeline) == 3  # oldest sample evicted
    assert g.timeline[0] == (1.0, 9)  # watermarks survive eviction


def test_histogram_charges_time_at_previous_level():
    h = TimeWeightedHistogram("depth", bounds=(0, 2, 4))
    h.observe(0.0, 1)   # depth 1 from t=0
    h.observe(3.0, 5)   # 3s at depth 1 -> bucket le_2
    h.observe(4.0, 0)   # 1s at depth 5 -> overflow
    h.close(6.0)        # 2s at depth 0 -> bucket le_0
    assert h.bucket_seconds == pytest.approx([2.0, 3.0, 0.0, 1.0])
    assert h.high == 5
    assert h.time_weighted_mean() == pytest.approx((3 * 1 + 1 * 5) / 6.0)


def test_registry_memoizes_by_name_and_labels():
    reg = MetricsRegistry()
    a = reg.counter("net.sent_bytes", src="a", dst="b", kind="data")
    b = reg.counter("net.sent_bytes", dst="b", kind="data", src="a")  # label order irrelevant
    c = reg.counter("net.sent_bytes", src="a", dst="c", kind="data")
    assert a is b and a is not c
    a.inc(7)
    assert reg.find("net.sent_bytes", src="a", dst="b", kind="data").value == 7
    assert reg.find("net.sent_bytes", src="zz") is None


def test_registry_clock_feeds_convenience_publishers():
    now = [0.0]
    reg = MetricsRegistry(clock=lambda: now[0])
    reg.observe("mailbox.depth", 3, node="j0")
    now[0] = 2.0
    reg.close()
    hist = reg.find("mailbox.depth", node="j0")
    assert hist.total_seconds == pytest.approx(2.0)
    snapshot = reg.snapshot()
    assert all(json.dumps(d) for d in snapshot)  # JSON-safe


@pytest.mark.parametrize("publish, refusal", [
    (lambda reg: reg.inc("net.bytes"), "undeclared"),
    (lambda reg: reg.set_gauge("sim.events_executed", 1.0), "a counter"),
    (lambda reg: reg.observe("mailbox.depth", 1), "labelled ('node',)"),
    (lambda reg: reg.counter("net.sent_bytes", src="a", dst="b"),
     "labelled ('src', 'dst', 'kind')"),
    # one gauge across all admissions: publishing it per query would
    # rename its key in every workload snapshot
    (lambda reg: reg.set_gauge("pool.admission_wait_s", 1.0, query=3),
     "labelled ()"),
])
def test_registry_refuses_instruments_the_catalogue_does_not_declare(
        publish, refusal):
    reg = MetricsRegistry()
    with pytest.raises(ValueError, match="metric '") as err:
        publish(reg)
    assert refusal in str(err.value)
    assert reg.instruments() == []


def test_memoized_lookup_runs_no_catalogue_check(monkeypatch):
    reg = MetricsRegistry()
    first = reg.counter("disk.ops", node="j0")

    def refuse(*args):
        raise AssertionError("checked on a memoized lookup")

    monkeypatch.setattr(metrics_module, "_check_declared", refuse)
    assert reg.counter("disk.ops", node="j0") is first
    with pytest.raises(AssertionError):
        reg.counter("disk.ops", node="j1")


def test_every_declared_metric_has_a_publisher():
    src = Path(__file__).resolve().parents[1] / "src" / "repro"
    literals: set[str] = set()
    for path in sorted(src.rglob("*.py")):
        if path.relative_to(src).as_posix() == "obs/catalogue.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        literals.update(node.value for node in ast.walk(tree)
                        if isinstance(node, ast.Constant)
                        and isinstance(node.value, str))
    assert sorted(set(METRICS) - literals) == []


# ----------------------------------------------------------------------
# spans / timeline
# ----------------------------------------------------------------------
def test_spanlog_rejects_inverted_spans():
    log = SpanLog()
    log.add("join0", "build", 0.0, 1.0)
    with pytest.raises(ValueError):
        log.add("join0", "probe", 2.0, 1.0)


def test_timeline_orders_phases_and_tracks():
    log = SpanLog()
    log.add("join1", "probe", 5.0, 9.0)
    log.add("scheduler", "probe", 4.0, 9.0)
    log.add("scheduler", "build", 0.0, 4.0)
    tl = PhaseTimeline(log.spans)
    assert [s.name for s in tl.phase_spans()] == ["build", "probe"]
    assert tl.tracks() == ["scheduler", "join1"]
    assert tl.end == 9.0
    assert "join1" in tl.render()


# ----------------------------------------------------------------------
# bounded tracer
# ----------------------------------------------------------------------
def test_tracer_bounded_buffer_keeps_newest_and_counts_drops():
    tr = Tracer(maxlen=3)
    for i in range(5):
        tr.emit(float(i), "tick", "actor", i=i)
    assert len(tr) == 3
    assert tr.dropped == 2
    assert [r.time for r in tr.records] == [2.0, 3.0, 4.0]
    with pytest.raises(ValueError):
        Tracer(maxlen=0)


def test_tracer_unbounded_never_drops():
    tr = Tracer()
    for i in range(100):
        tr.emit(float(i), "tick", "actor")
    assert len(tr) == 100 and tr.dropped == 0


# ----------------------------------------------------------------------
# export
# ----------------------------------------------------------------------
def test_trace_and_metrics_jsonl_round_trip():
    tr = Tracer()
    tr.emit(1.5, "activate", "join3", tuples=np.int64(7))
    lines = list(trace_to_jsonl(tr))
    assert len(lines) == 1
    rec = json.loads(lines[0])
    assert rec == {"t": 1.5, "category": "activate", "actor": "join3",
                   "detail": {"tuples": 7}}

    reg = MetricsRegistry()
    reg.inc("sim.events_executed", 3)
    out = [json.loads(line) for line in metrics_to_jsonl(reg.snapshot())]
    assert out[0]["name"] == "sim.events_executed" and out[0]["value"] == 3


def test_chrome_trace_structure():
    log = SpanLog()
    log.add("scheduler", "build", 0.0, 2.0)
    log.add("join0", "build", 0.0, 2.0, tuples=np.int64(42))

    class FakeResult:
        timeline = PhaseTimeline(log.spans)
        tracer = Tracer()

    FakeResult.tracer.emit(1.0, "memory_full", "join0")
    doc = chrome_trace(FakeResult())
    json.dumps(doc)  # fully serializable
    events = doc["traceEvents"]
    names = {e["name"] for e in events}
    assert {"process_name", "thread_name", "build", "memory_full"} <= names
    complete = [e for e in events if e["ph"] == "X"]
    assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in complete)
    phase = next(e for e in complete if e["cat"] == "phase")
    assert phase["dur"] == pytest.approx(2e6)  # seconds -> microseconds
    # scheduler gets tid 0; instants land on their actor's track
    tid_by_name = {e["args"]["name"]: e["tid"] for e in events
                   if e["name"] == "thread_name"}
    assert tid_by_name["scheduler"] == 0
    instant = next(e for e in events if e["ph"] == "i")
    assert instant["tid"] == tid_by_name["join0"]


# ----------------------------------------------------------------------
# end-to-end wiring
# ----------------------------------------------------------------------
def test_run_attaches_timeline_metrics_and_tracer():
    res = run_join(small_config(Algorithm.SPLIT))
    phases = res.timeline.phase_spans()
    assert [s.name for s in phases][0] == "build"
    # Phase spans agree with PhaseTimes by construction.
    by_name = {s.name: s for s in phases}
    assert by_name["build"].duration == pytest.approx(res.times.build_s)
    assert by_name["probe"].duration == pytest.approx(res.times.probe_s)
    assert res.timeline.end <= res.total_s + 1e-9

    names = {m["name"] for m in res.metrics}
    assert {"sim.events_executed", "net.sent_bytes", "hash.inserted_tuples",
            "hash.matches", "mem.used_bytes", "mailbox.depth",
            "sched.drain_rounds"} <= names
    # Conservation: hash.matches across nodes equals the validated total.
    counted = sum(m["value"] for m in res.metrics
                  if m["name"] == "hash.matches")
    assert counted == res.matches
    inserted = sum(m["value"] for m in res.metrics
                   if m["name"] == "hash.inserted_tuples")
    assert inserted >= res.config.workload.r_tuples  # re-inserts on splits
    assert res.tracer is not None and len(res.tracer) > 0


def test_chrome_trace_spans_sum_to_phase_times():
    """Acceptance check: the exported per-node build/probe spans agree
    (within tolerance) with JoinRunResult's phase times."""
    res = run_join(small_config(Algorithm.SPLIT))
    doc = chrome_trace(res)
    json.dumps(doc)

    tid_names = {e["tid"]: e["args"]["name"] for e in doc["traceEvents"]
                 if e["name"] == "thread_name"}
    node_spans = [e for e in doc["traceEvents"]
                  if e["ph"] == "X" and e.get("cat") == "node"]
    assert node_spans, "per-node spans must be exported"

    # Initially-activated nodes span the whole build/probe phases; their
    # spans close when the phase-transition message arrives, so allow the
    # network-latency slack (2%).
    tol = 0.02 * res.total_s * 1e6
    initial = {f"join{j}" for j in range(res.config.initial_nodes)}
    t_build_us = res.times.table_building_s * 1e6
    t_probe_us = res.times.probe_s * 1e6
    checked = 0
    for e in node_spans:
        if tid_names[e["tid"]] not in initial:
            continue
        if e["name"] == "build":
            assert e["ts"] == pytest.approx(0.0, abs=tol)
            assert e["dur"] == pytest.approx(t_build_us, abs=tol)
            checked += 1
        elif e["name"] == "probe":
            assert e["dur"] == pytest.approx(t_probe_us, abs=tol)
            checked += 1
    assert checked == 2 * len(initial)


def test_ooc_run_records_ooc_and_disk_metrics():
    res = run_join(small_config(Algorithm.OUT_OF_CORE))
    assert res.times.ooc_pass_s > 0
    ooc_spans = [s for s in res.timeline.spans
                 if s.name == "ooc" and s.track != "scheduler"]
    assert ooc_spans, "spilling nodes must record ooc spans"
    written = sum(m["value"] for m in res.metrics
                  if m["name"] == "disk.bytes_written")
    spilled_bytes = (res.spilled_r_tuples + res.spilled_s_tuples) * \
        res.config.workload.tuple_bytes
    assert written >= spilled_bytes > 0


def test_split_run_records_split_spans_and_relief_metrics():
    res = run_join(small_config(Algorithm.SPLIT))
    assert res.n_splits > 0
    split_spans = [s for s in res.timeline.spans if s.name == "split"]
    assert len(split_spans) == res.n_splits
    assert sum(s.args["tuples"] for s in split_spans) == \
        res.split_moved_tuples
    relief = sum(m["value"] for m in res.metrics
                 if m["name"] == "sched.relief_cycles")
    assert relief >= res.n_splits


def test_trace_buffer_config_bounds_run_tracer():
    cfg = small_config(Algorithm.SPLIT, trace_buffer=10)
    res = run_join(cfg)
    assert len(res.tracer) == 10
    assert res.tracer.dropped > 0


# ----------------------------------------------------------------------
# chrome trace: track ordering, durations, causal flow events
# ----------------------------------------------------------------------
def test_track_sort_key_orders_scheduler_then_roles_numerically():
    from repro.obs.export import _track_sort_key

    tracks = ["join10", "src1", "join2", "misc", "scheduler", "join0", "src0"]
    assert sorted(tracks, key=_track_sort_key) == [
        "scheduler", "join0", "join2", "join10", "src0", "src1", "misc",
    ]


def test_chrome_trace_round_trips_with_nonnegative_durations():
    res = run_join(small_config(Algorithm.HYBRID))
    doc = json.loads(json.dumps(chrome_trace(res)))  # S4: full round-trip
    events = doc["traceEvents"]
    for e in events:
        if e["ph"] == "X":
            assert e["dur"] >= 0 and e["ts"] >= 0
        if e["ph"] in ("i", "s", "f"):
            assert e["ts"] >= 0
    tids = {e["tid"] for e in events if e["name"] == "thread_name"}
    assert all(e["tid"] in tids for e in events)


def test_chrome_trace_flow_events_mirror_causal_edges():
    res = run_join(small_config(Algorithm.SPLIT))
    doc = chrome_trace(res)
    events = doc["traceEvents"]
    tid_names = {e["tid"]: e["args"]["name"] for e in events
                 if e["name"] == "thread_name"}
    flows = [e for e in events if e.get("cat") == "causal"]
    assert flows, "a real run must export causal flow events"

    by_id: dict = {}
    for e in flows:
        by_id.setdefault(e["id"], {})[e["ph"]] = e
    edges = {e.eid: e for e in res.causal.edges}
    for eid, pair in by_id.items():
        # Every flow id is a real causal edge, exported as a start/finish
        # pair on the sender's and receiver's tracks.
        assert set(pair) == {"s", "f"}
        edge = edges[eid]
        s, f = pair["s"], pair["f"]
        assert s["name"] == f["name"] == edge.msg_type
        assert tid_names[s["tid"]] == edge.src
        assert tid_names[f["tid"]] == edge.dst
        assert s["ts"] == pytest.approx(edge.t_send * 1e6)
        assert f["ts"] == pytest.approx(edge.t_deliver * 1e6)
        assert f["ts"] >= s["ts"]
        assert f["bp"] == "e"
        # args.parent points at another exported edge (or is a root).
        parent = s["args"]["parent"]
        assert parent is None or parent in edges
    # Undelivered edges (none in a clean run) are the only ones skipped.
    delivered = [e for e in res.causal.edges if e.delivered]
    assert len(by_id) == len(delivered)
