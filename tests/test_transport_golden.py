"""Golden guard on the lossy transport (``Network.send`` under link faults).

``tests/test_event_stream.py`` pins fault-free runs only, so neither the
reliable retransmission loop nor a best-effort send under drops is covered
by a digest there.  The three runs below are:

* a reliable-transport run: payload and ack drops plus a 3x link slowdown
  for the first 0.2 simulated seconds — retransmissions, suppressed
  duplicates and slowed wire time;
* the same plan on the shared-hub topology, whose transfers serialize on
  one medium instead of a TX/RX port pair;
* a membership run with payload drops: every heartbeat is a best-effort
  send, so a drop verdict loses the ping, while the data and control
  traffic around it retransmits.

Each pins the event count, the paper-scale total, the retry and fault
counters, and a sha256 over the ``(t, category, actor)`` trace stream.
The values were recorded before ``Network.send`` was folded into one
attempt loop; any change in an event, a simulated second or an RNG draw
moves at least one of them.

The property test draws drop probabilities and checks the transport's
books: one mailbox delivery per logical message, byte conservation, and
per kind, the causal log's ``attempts`` summing to the transmissions the
network charged.
"""

import hashlib
from collections import Counter, defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import Topology
from repro.core import driver, run_join
from repro.faults import FaultPlan, LinkSlowdown
from repro.obs import CausalLog
from tests.conftest import small_cluster, small_config


def metric_total(res, name, **labels):
    return sum(
        inst["value"] for inst in res.metrics
        if inst["name"] == name
        and all(inst["labels"].get(k) == v for k, v in labels.items())
    )


RELIABLE = FaultPlan(
    drop_prob=0.05, ack_drop_prob=0.05,
    slowdowns=(LinkSlowdown(t0=0.0, t1=0.2, factor=3.0),),
)
BEST_EFFORT = FaultPlan(membership=True, heartbeat_interval_s=0.01,
                        drop_prob=0.02)


@pytest.mark.parametrize("plan,cluster,want", [
    pytest.param(RELIABLE, None, {
        "events": 8416,
        "total_s": 0.7481,
        "retries": 56,
        "faults": {"ack_drop": 27, "message_drop": 29},
        "sha256": "b166506d9844d523ce4b10b0874be034"
                  "ff865919f0cdfc6fac1f5a0091adf0d6",
    }, id="reliable"),
    pytest.param(RELIABLE, small_cluster(topology=Topology.SHARED_HUB), {
        "events": 6535,
        "total_s": 0.81158,
        "retries": 50,
        "faults": {"ack_drop": 26, "message_drop": 24},
        "sha256": "b979a6a547a809baca2f8794446526c6"
                  "68e52eda8cd591ccc82cca6463e2c0bd",
    }, id="reliable-hub"),
    pytest.param(BEST_EFFORT, None, {
        "events": 12255,
        "total_s": 0.286827,
        "retries": 8,
        "faults": {"message_drop": 13},
        "sha256": "6df697671a7001a91985539945ca2dbf"
                  "b8e587599b35c2133e357e295618adb6",
    }, id="best-effort"),
])
def test_lossy_run_matches_the_golden_stream(plan, cluster, want):
    res = run_join(small_config(trace=True, faults=plan, cluster=cluster))
    digest = hashlib.sha256()
    for rec in res.tracer.records:
        digest.update(f"{rec.time!r} {rec.category} {rec.actor}\n".encode())
    faults = {
        inst["labels"]["kind"]: inst["value"] for inst in res.metrics
        if inst["name"] == "faults_injected"
    }
    got = {
        "events": metric_total(res, "sim.events_executed"),
        "total_s": round(res.paper_scale_total_s, 6),
        "retries": metric_total(res, "retries_total"),
        "faults": faults,
        "sha256": digest.hexdigest(),
    }
    assert got == want


@settings(max_examples=12, deadline=None)
@given(
    drop=st.floats(0.0, 0.3),
    ack_drop=st.floats(0.0, 0.3),
    seed=st.integers(0, 3),
)
def test_reliable_transport_books_balance(drop, ack_drop, seed):
    """Whatever the drop rates: each logical message lands in its mailbox
    exactly once, ``sent == delivered + dropped + duplicates`` per link,
    and the causal log's ``attempts`` account for every transmission."""
    made, deposits = [], Counter()
    build, on_deliver = driver.single_query_context, CausalLog.on_deliver

    def capture(cfg):
        made.append(build(cfg))
        return made[-1]

    def count_deposit(log, edge, message, t):
        deposits[edge.eid] += 1
        return on_deliver(log, edge, message, t)

    plan = FaultPlan(seed=seed, drop_prob=drop, ack_drop_prob=ack_drop)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(driver, "single_query_context", capture)
        mp.setattr(CausalLog, "on_deliver", count_deposit)
        res = run_join(small_config(faults=plan))
    net = made[0].cluster.network
    net.assert_conserved()

    edges = res.causal.edges
    assert len(edges) == sum(net.sent_messages.values())
    assert deposits == Counter(e.eid for e in edges)
    assert set(deposits.values()) == {1}

    attempts, attempt_bytes = Counter(), Counter()
    for e in edges:
        attempts[e.kind] += e.attempts
        attempt_bytes[e.kind] += e.attempts * e.nbytes
    sent_bytes = defaultdict(int)
    for (_, _, kind), n in net.sent_bytes.items():
        sent_bytes[kind] += n
    transmissions = Counter()
    for books in (net.delivered_messages, net.dropped_messages,
                  net.duplicate_messages):
        transmissions.update(books)
    assert attempts == +transmissions
    assert attempt_bytes == +Counter(sent_bytes)
