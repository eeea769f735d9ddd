"""Causal tracing and critical-path analysis (repro.obs.causality/critpath).

Unit tests for the CausalLog and the mailbox dequeue hook, plus
whole-system assertions: every run yields a complete causal DAG, the
extracted critical path tiles the makespan (within 1%, the ISSUE's
acceptance bound — by construction it is exact up to float noise), and
the ranked report tells the paper's Figure 11 story (replication's probe
broadcast dominates under skew, while splitting pays nothing there).
"""

import math

import pytest

from repro import run_join
from repro.config import Algorithm
from repro.obs import CausalLog, critical_path, explain
from repro.obs.timeline import SpanLog
from repro.sim import Mailbox, Simulator

from .conftest import small_config, small_workload

ALL_ALGOS = (
    Algorithm.SPLIT, Algorithm.REPLICATE, Algorithm.HYBRID,
    Algorithm.OUT_OF_CORE,
)


class FakeMsg:
    kind = "control"

    def __init__(self, nbytes=64, hop=None, tuples=0):
        self.nbytes = nbytes
        if hop is not None:
            self.hop = hop
        self.tuples = tuples


# ----------------------------------------------------------------------
# mailbox dequeue hook
# ----------------------------------------------------------------------
def test_mailbox_deq_probe_fires_on_get_and_drain():
    sim = Simulator()
    box = Mailbox(sim)
    dequeued = []
    box.deq_probe = dequeued.append
    box.put("a")
    box.put("b")
    assert dequeued == []        # nothing dequeued yet
    p = sim.spawn(box.recv())
    sim.run()
    assert p.value == "a"
    assert dequeued == ["a"]
    assert box.drain() == ["b"]
    assert dequeued == ["a", "b"]


# ----------------------------------------------------------------------
# CausalLog unit behaviour
# ----------------------------------------------------------------------
def test_causal_log_records_edges_and_causes():
    log = CausalLog(aliases={"join3": "join0"})
    m1, m2 = FakeMsg(), FakeMsg(nbytes=128)
    e1 = log.on_send("scheduler0", "join3", m1, t=1.0)
    assert e1.eid == 0 and e1.dst == "join0" and e1.parent is None
    assert not e1.delivered
    log.on_deliver(e1, m1, t=1.5)
    assert e1.delivered and e1.wire_s == pytest.approx(0.5)
    # The receiver dequeues it: it becomes join0's current cause, read
    # under the track name (the node name is another node's track)...
    log.dequeue_hook("join3")(m1)
    assert log.cause_of("join0") == 0 and log.cause_of("join3") is None
    # ...so its reply is parented on it.
    e2 = log.on_send("join3", "scheduler0", m2, t=2.0)
    assert e2.parent == 0
    assert log.children(0) == [e2]
    assert log.roots() == [e1]
    assert len(log) == 2


def test_causal_log_explicit_parent_and_attempts():
    log = CausalLog()
    e1 = log.on_send("a", "b", FakeMsg(), t=0.0)
    e2 = log.on_send("a", "b", FakeMsg(), t=1.0, parent=e1.eid)
    assert e2.parent == e1.eid
    log.on_attempt(e2)
    assert e2.attempts == 2
    assert log.retransmitted() == [e2]


def test_note_dequeue_ignores_local_messages():
    log = CausalLog()
    log.dequeue_hook("a")(FakeMsg())  # never delivered via the network
    assert log.cause_of("a") is None


def test_request_pairs_matches_by_parent():
    log = CausalLog()

    class Req(FakeMsg):
        pass

    class Resp(FakeMsg):
        pass

    req, resp = Req(), Resp()
    e_req = log.on_send("sched", "join", req, t=0.0)
    log.on_deliver(e_req, req, t=0.1)
    log.dequeue_hook("join")(req)
    e_resp = log.on_send("join", "sched", resp, t=0.2)
    pairs = log.request_pairs("Req", "Resp")
    assert pairs == [(e_req, e_resp)]
    assert log.request_pairs("Resp", "Req") == []


# ----------------------------------------------------------------------
# critical_path unit behaviour
# ----------------------------------------------------------------------
def test_critical_path_tiles_interval_with_waits():
    spans = SpanLog()
    spans.add("join0", "build", 1.0, 4.0)
    spans.add("join1", "probe", 5.0, 9.0)
    phases = SpanLog()
    phases.add("scheduler", "build", 0.0, 4.0)
    phases.add("scheduler", "probe", 4.0, 10.0)
    path = critical_path(spans.spans, [], 10.0, phases.spans)
    assert sum(s.duration for s in path) == pytest.approx(10.0)
    assert path[0].t0 == 0.0 and path[-1].t1 == 10.0
    # Steps tile: each starts where the previous ended.
    for a, b in zip(path, path[1:]):
        assert a.t1 == pytest.approx(b.t0)
    names = [s.name for s in path]
    assert names == ["wait:build", "build", "wait:probe", "probe", "wait:probe"]
    kinds = [s.kind for s in path]
    assert kinds == ["wait", "node", "wait", "node", "wait"]


def test_critical_path_prefers_segment_reaching_back_earliest():
    spans = SpanLog()
    spans.add("join0", "build", 0.0, 10.0)
    spans.add("join1", "build", 8.0, 10.0)
    path = critical_path(spans.spans, [], 10.0, [])
    assert len(path) == 1
    assert path[0].track == "join0"


def test_critical_path_empty_inputs():
    assert critical_path([], [], 0.0, []) == []
    path = critical_path([], [], 1.0, [])
    assert [s.kind for s in path] == ["wait"]
    assert path[0].duration == pytest.approx(1.0)


# ----------------------------------------------------------------------
# whole-system: causal DAG properties on real runs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("algorithm", ALL_ALGOS, ids=lambda a: a.value)
def test_run_produces_complete_causal_dag(algorithm):
    res = run_join(small_config(algorithm))
    log = res.causal
    assert log is not None and len(log.edges) > 0
    for e in log.edges:
        # End of run: nothing in flight, every edge delivered in order.
        assert e.delivered
        assert e.t_deliver >= e.t_send
        assert e.attempts == 1          # fault-free run
        if e.parent is not None:        # parents precede children
            assert log.edges[e.parent].t_send <= e.t_send
        if e.kind == "data" and e.src.startswith("join") and e.parent is not None:
            # A join node's transfer hangs off a message that node got
            # (its cause is read by track, never through the node names).
            assert log.edges[e.parent].dst == e.src
    # Track names are the pool-indexed span tracks, not global node names.
    actors = {e.src for e in log.edges} | {e.dst for e in log.edges}
    assert "scheduler" in actors
    assert any(a.startswith("src") for a in actors)
    assert any(a.startswith("join") for a in actors)


@pytest.mark.parametrize("algorithm", ALL_ALGOS, ids=lambda a: a.value)
def test_recruitment_pairs_cover_activated_nodes(algorithm):
    res = run_join(small_config(algorithm))
    pairs = res.causal.request_pairs("ActivateJoin", "ActivateAck")
    # Every node that was used completed the recruitment handshake.
    assert len(pairs) >= res.nodes_used
    for req, ack in pairs:
        assert req.src == "scheduler" and ack.dst == "scheduler"
        assert req.dst == ack.src       # the recruited node answers itself
        assert ack.t_send >= req.t_deliver


# ----------------------------------------------------------------------
# whole-system: critical path and the explain report
# ----------------------------------------------------------------------
@pytest.mark.parametrize("algorithm", ALL_ALGOS, ids=lambda a: a.value)
def test_critical_path_sums_to_makespan(algorithm):
    res = run_join(small_config(algorithm))
    report = explain(res)
    assert report.makespan_s == pytest.approx(res.total_s)
    assert report.path, "critical path must not be empty"
    # ISSUE acceptance bound: within 1% of the makespan (exact by
    # construction, so this also guards against tiling bugs).
    assert report.path_total_s == pytest.approx(report.makespan_s, rel=0.01)
    for a, b in zip(report.path, report.path[1:]):
        assert a.t1 == pytest.approx(b.t0, abs=1e-9)
    assert report.path[0].t0 == pytest.approx(0.0, abs=1e-9)
    assert report.path[-1].t1 == pytest.approx(report.makespan_s)
    # Shares are a partition of the makespan.
    assert sum(b["seconds"] for b in report.bottlenecks) == pytest.approx(
        report.makespan_s
    )
    assert sum(b["share"] for b in report.bottlenecks) == pytest.approx(1.0)


def test_replication_probe_broadcast_dominates_under_skew():
    """Figure 11's story: under skew, replication pays a probe broadcast
    (every probe tuple of a replicated range goes to all replicas) that
    ends up dominating the run, while splitting broadcasts nothing."""
    skewed = small_workload(sigma=0.05)
    rep = explain(run_join(small_config(Algorithm.REPLICATE,
                                        workload=skewed)))
    spl = explain(run_join(small_config(Algorithm.SPLIT, workload=skewed)))

    # Replication duplicated a large share of the probe stream...
    assert rep.probe_broadcast["dup_tuples"] > 0
    assert rep.probe_broadcast["dup_share"] > 0.5
    # ...while splitting sent every probe tuple exactly once.
    assert spl.probe_broadcast.get("dup_tuples", 0) == 0

    # And the probe phase is replication's dominant phase: the top-ranked
    # bottleneck is probe work on some join node.
    top = rep.bottlenecks[0]
    assert top["name"] == "probe" and top["track"].startswith("join")
    probe_phase = next(p for p in rep.phases if p["name"] == "probe")
    assert probe_phase["share"] > max(
        p["share"] for p in rep.phases if p["name"] != "probe"
    )


def test_explain_report_structure_and_serialization():
    import json

    res = run_join(small_config(Algorithm.HYBRID))
    report = explain(res)
    doc = json.loads(json.dumps(report.to_dict()))
    assert doc["algorithm"] == "hybrid"
    assert doc["critical_path_total_s"] == pytest.approx(doc["makespan_s"])
    assert len(doc["critical_path"]) == len(report.path)
    # Node report: fractions in range, blocked = active - busy when positive.
    assert doc["nodes"], "utilization report must be populated"
    for n in doc["nodes"]:
        for key in ("active", "busy", "idle", "blocked"):
            assert 0.0 <= n[key] <= 1.0 + 1e-9, (n["track"], key)
        assert n["idle"] == pytest.approx(1.0 - n["active"], abs=1e-9)
    tracks = {n["track"] for n in doc["nodes"]}
    assert any(t.startswith("join") for t in tracks)
    # Phase report covers the timeline's phases with finite skew numbers.
    assert [p["name"] for p in doc["phases"]] == [
        s.name for s in res.timeline.phase_spans()
    ]
    for p in doc["phases"]:
        if p["tuple_skew"] is not None:
            assert p["tuple_skew"] >= 1.0
    text = report.to_text()
    assert "ranked bottlenecks" in text
    assert "critical path" in text


def test_explain_tolerates_results_without_observability():
    class Bare:
        pass

    report = explain(Bare())
    assert report.makespan_s == 0.0
    assert report.path == []
    assert report.bottlenecks == []
    assert report.to_text()


def test_scheduler_relief_messages_are_parented_on_memory_full():
    # The small memory budget forces MemoryFull -> relief cycles; the
    # ReliefPing each cycle sends must be parented on the reporter's
    # MemoryFull edge even though the scheduler dequeued other messages
    # in between (the _full_edges bookkeeping).
    res = run_join(small_config(Algorithm.SPLIT))
    log = res.causal
    pings = [e for e in log.edges if e.msg_type == "ReliefPing"]
    assert pings, "small memory must force at least one relief cycle"
    parent_types = {
        log.edges[p.parent].msg_type for p in pings if p.parent is not None
    }
    # A re-ping after a still-full ack is parented on that ReliefAck —
    # also correct causality — but the first ping of every cycle must
    # point back at the MemoryFull that triggered it.
    assert "MemoryFull" in parent_types
    assert parent_types <= {"MemoryFull", "ReliefAck"}
