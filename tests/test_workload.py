"""Integration tests: the multi-tenant workload engine end to end.

Every ``run_workload`` call already oracle-validates each query and
asserts byte conservation on the one shared network; these tests add the
workload-level contracts on top — admission accounting, contention
degrading to spill (never to a wrong answer), policy behaviour, node
reuse, and end-to-end determinism.
"""

import pytest

from repro.config import (
    ClusterSpec,
    MTUPLES,
    PoolPolicy,
    QueryMixEntry,
    WorkloadConfig,
)
from repro.workload import run_workload

#: ~1 MB of hash memory per node once the 1/50 scale is applied — small
#: enough that a 2-node query must recruit (or spill) to finish its build.
SCARCE_MEMORY = 50 * 1024 * 1024
#: ~4 MB per node post-scale: two initial nodes hold a whole 2M-tuple
#: build side, so nobody needs to recruit at all.
AMPLE_MEMORY = 200 * 1024 * 1024


def wl_config(n_queries=4, pool=8, memory=None, policy=PoolPolicy.FIFO,
              arrival_gap=0.05, **kw):
    kw.setdefault("mix", (QueryMixEntry(r_tuples=2 * MTUPLES,
                                        s_tuples=2 * MTUPLES,
                                        initial_nodes=2),))
    kw.setdefault("scale", 1.0 / 50.0)
    kw.setdefault("seed", 7)
    cluster = ClusterSpec(
        n_sources=2,
        n_potential_nodes=pool,
        **({"hash_memory_bytes": memory} if memory else {}),
    )
    return WorkloadConfig(
        n_queries=n_queries,
        arrival_times=tuple(arrival_gap * q for q in range(n_queries)),
        policy=policy,
        cluster=cluster,
        **kw,
    )


def metric_value(res, name, **labels):
    for inst in res.metrics:
        if inst["name"] == name and all(
            inst["labels"].get(k) == v for k, v in labels.items()
        ):
            return inst.get("value")
    return None


# ----------------------------------------------------------------------
# the headline contract: >= 4 concurrent queries, every one oracle-valid
# ----------------------------------------------------------------------
def test_concurrent_queries_all_validate():
    res = run_workload(wl_config(n_queries=4, pool=8, memory=AMPLE_MEMORY))
    assert res.n_queries == 4
    assert res.all_valid
    assert res.pool["admissions"] == 4
    assert res.pool["leaked_nodes"] == []
    assert res.total_denials == 0 and not res.degraded_queries
    assert 0.0 < res.pool_utilization <= 1.0
    for q in res.queries:
        assert q.latency_s == pytest.approx(q.queue_delay_s + q.run_s)
        assert q.finished_s <= res.makespan_s
        assert q.nodes_used >= q.initial_nodes
    # lifecycle metrics landed in the shared registry
    assert metric_value(res, "workload.makespan_s") is not None \
        or any(i["name"] == "workload.makespan_s" for i in res.metrics)
    assert sum(
        i["value"] for i in res.metrics if i["name"] == "workload.queries"
    ) == 4


def test_contention_denies_recruits_and_degrades_to_spill():
    """Demand exceeds supply: recruits are denied, the denied queries fall
    back to the out-of-core spill path, and every answer stays correct."""
    res = run_workload(wl_config(n_queries=4, pool=6, memory=SCARCE_MEMORY))
    assert res.all_valid
    assert res.total_denials > 0
    assert res.degraded_queries, "a denied query must spill, not error"
    # denials are observable in the shared metrics registry, and match
    # the pool's ledger
    assert sum(
        i["value"] for i in res.metrics
        if i["name"] == "pool.recruit_denials"
    ) == res.total_denials
    # per-query denial attribution adds up too
    assert sum(q.recruit_denials for q in res.queries) == res.total_denials
    # a degraded query spilled to disk and still matched its oracle
    degraded = res.queries[res.degraded_queries[0]]
    assert degraded.spilled_r_tuples > 0 or degraded.spilled_s_tuples > 0
    assert res.results[degraded.query].is_valid


def test_pool_nodes_are_reused_across_queries():
    """With arrivals spread out, later queries run on nodes earlier ones
    returned: total grants exceed the pool size, which is only possible
    through release-and-reuse, and reuse never corrupts an answer."""
    res = run_workload(
        wl_config(n_queries=6, pool=4, arrival_gap=0.6,
                  memory=AMPLE_MEMORY)
    )
    assert res.all_valid
    assert res.pool["grants"] > 4
    released = metric_value(res, "pool.releases")
    assert released is not None and released >= res.pool["grants"] - 4


def test_fair_share_policy_caps_expansion():
    cfg = wl_config(n_queries=4, pool=6, memory=SCARCE_MEMORY,
                    policy=PoolPolicy.FAIR_SHARE, fair_share_cap=1)
    res = run_workload(cfg)
    assert res.all_valid
    assert res.total_denials > 0
    assert "fair_share_cap" in res.pool["denials_by_reason"]
    # no query ever held more than admission + cap nodes
    for q in res.queries:
        assert q.nodes_used <= q.initial_nodes + 1


def test_memory_deficit_policy_runs_clean():
    res = run_workload(
        wl_config(n_queries=4, pool=6, memory=SCARCE_MEMORY,
                  policy=PoolPolicy.MEMORY_DEFICIT)
    )
    assert res.all_valid
    assert res.pool["requests"] > res.pool["admissions"], \
        "scarce memory must force expansion recruits"


def test_workload_is_deterministic_end_to_end():
    cfg = wl_config(n_queries=4, pool=6, memory=SCARCE_MEMORY)
    a, b = run_workload(cfg), run_workload(cfg)
    assert a.makespan_s == b.makespan_s
    assert [q.to_dict() for q in a.queries] == [
        q.to_dict() for q in b.queries
    ]
    assert a.pool == b.pool


def test_poisson_arrivals_run_to_completion():
    cfg = WorkloadConfig(
        n_queries=3,
        arrival_rate_qps=2.0,
        seed=11,
        mix=(
            QueryMixEntry(weight=2, r_tuples=MTUPLES, s_tuples=MTUPLES,
                          initial_nodes=2),
            QueryMixEntry(weight=1, r_tuples=2 * MTUPLES,
                          s_tuples=2 * MTUPLES, initial_nodes=2),
        ),
        cluster=ClusterSpec(n_sources=2, n_potential_nodes=8),
        scale=1.0 / 100.0,
    )
    res = run_workload(cfg)
    assert res.all_valid
    assert res.makespan_s >= max(q.arrival_s for q in res.queries)
    # arrivals honoured: nobody was admitted before arriving
    for q in res.queries:
        assert q.admitted_s >= q.arrival_s


def test_per_query_span_tracks_are_separate():
    res = run_workload(wl_config(n_queries=2, pool=8))
    tracks = {s.track for s in res.timeline.spans}
    assert "scheduler:q0" in tracks and "scheduler:q1" in tracks


# ----------------------------------------------------------------------
# the pool actor's dispatch table
# ----------------------------------------------------------------------
def bare_pool(free_nodes=(0, 1)):
    from repro.cluster import Network, Node
    from repro.config import CostModel
    from repro.core.pool import ResourcePoolProcess
    from repro.sim import Simulator

    sim, cost = Simulator(), CostModel()
    node = Node(sim, 0, "pool", cost)
    sched = Node(sim, 1, "sched", cost)
    pool = ResourcePoolProcess(
        sim, Network(sim, cost), node, free_nodes=list(free_nodes),
        sched_nodes={0: sched},
    )
    return sim, pool, sched


def test_pool_idle_tick_reaches_no_handler(monkeypatch):
    """With nothing parked a PollTick has nothing to expire or serve: the
    pool's screened receive drops it without waking the pool (a sparse
    workload's pool sees hundreds of thousands of these); with a request
    parked, every tick expires and serves."""
    from repro.core.messages import PollTick, RecruitRequest, Shutdown
    from repro.core.pool import ResourcePoolProcess

    served = []
    real_serve = ResourcePoolProcess._serve

    def counting_serve(self):
        served.append(self.sim.now)
        return real_serve(self)

    monkeypatch.setattr(ResourcePoolProcess, "_serve", counting_serve)
    sim, pool, sched = bare_pool(free_nodes=(0,))
    pool.poll_interval = 1.0
    proc = sim.spawn(pool.run(), name="pool")
    sim.run(until=3.5)
    assert served == []                       # three idle ticks
    # an admission the free list cannot cover parks; ticks then do work
    pool.node.mailbox.put(RecruitRequest(query=0, admission=True, want=2))
    sim.run(until=5.5)
    assert served == [3.5, 4.0, 5.0]          # the request, then two ticks
    assert len(pool._admission_q) == 1 and pool.stats.grants == 0
    pool.free.append(1)
    sim.run(until=6.5)
    assert not pool._admission_q and pool.stats.grants == 2
    assert len(sched.mailbox) == 1
    assert PollTick in pool._handlers
    pool.node.mailbox.put(Shutdown())
    sim.run()
    assert proc.value is pool.stats


def test_pool_idle_ticks_resume_no_generator(monkeypatch):
    """Idle ticks cost the pool no generator resume and build no event:
    both counts stay the same from 10 ticks to 1000, while the heap still
    pops the ticker's timeout and the pool's wake-up for each (the ticker
    re-arms one event; the screen entry is the mailbox's own).  The ticker
    is a timer, not a counted process, and a run left with only a stopped
    ticker ends cleanly."""
    from repro.core.messages import Shutdown
    from repro.sim import Event, Process, Timeout

    resumes, built = [], []
    real_resume = Process._resume

    def counting_resume(self, event):
        if event is self._waiting_on:  # not a stale wakeup
            resumes.append(self.name)
        real_resume(self, event)

    def counting_init(cls):
        real_init = cls.__init__

        def init(self, *args, **kwargs):
            built.append(cls.__name__)
            real_init(self, *args, **kwargs)
        return init

    monkeypatch.setattr(Process, "_resume", counting_resume)
    for cls in (Event, Timeout):
        monkeypatch.setattr(cls, "__init__", counting_init(cls))
    counts = []
    for n_ticks in (10, 1000):
        resumes.clear()
        sim, pool, _ = bare_pool()
        pool.poll_interval = 1.0
        proc = sim.spawn(pool.run(), name="pool")
        sim.run(until=0.5)  # both starts: the pool's receive is armed
        built.clear()
        sim.run(until=n_ticks + 0.5)
        assert sim.processed_events == 2 + 2 * n_ticks  # two starts, two a tick
        assert sim._active_processes == 1               # the pool alone
        counts.append((len(resumes), len(built)))
        pool.node.mailbox.put(Shutdown())
        sim.run()  # the ticker's last tick and end, then an empty heap
        assert proc.value is pool.stats and sim._active_processes == 0
    assert counts == [(1, 0), (1, 0)]  # the pool's start; nothing built


def test_poll_ticker_is_a_timer_with_the_ticker_process_events():
    """A zero-delay start, one timeout per tick, a zero-delay end once
    ``stopped()`` holds: the entries a ticker process pushed, with no
    process alive to count."""
    from repro.core.context import poll_ticker
    from repro.core.messages import PollTick
    from repro.sim import Mailbox, Simulator

    sim = Simulator()
    box = Mailbox(sim)
    stop = []
    poll_ticker(sim, box, 1.0, lambda: bool(stop))
    assert sim._active_processes == 0
    sim.run(until=3.5)
    assert len(box) == 3 and sim.processed_events == 4
    stop.append(True)
    sim.run()
    assert sim.now == 4.0 and sim.processed_events == 6
    assert all(type(m) is PollTick for m in box.drain())


@pytest.mark.parametrize("n_ticks", [10, 1000])
def test_poll_ticker_pushes_two_entries_plus_one_a_tick(n_ticks):
    """Its start, one entry a tick and its end: ``2 + n`` queue entries
    across the kernel's heap and its FIFO of events due now, from one
    re-armed event and the end's ``Timeout``."""
    from repro.core.context import poll_ticker
    from repro.sim import Mailbox, Simulator

    from .conftest import QueueTap

    sim = Simulator()
    box = Mailbox(sim)
    with QueueTap(sim) as tap:
        poll_ticker(sim, box, 1.0, lambda: len(box) >= n_ticks)
        sim.run()
    assert len(box) == n_ticks and sim.now == n_ticks
    assert len(tap.queued) == len(tap.ran) == sim.processed_events == 2 + n_ticks
    assert len({id(ev) for ev in tap.queued}) == 2  # the re-armed timer, the end
    assert tap.assert_heap_order() == []


def test_pool_rejects_a_message_without_a_row():
    sim, pool, _ = bare_pool()
    proc = sim.spawn(pool.run(), name="pool")
    pool.node.mailbox.put(object())
    with pytest.raises(RuntimeError, match="pool: unexpected message"):
        sim.run()
    assert not proc.is_alive
