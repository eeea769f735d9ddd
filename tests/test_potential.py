"""The scheduler's potential list: two implementations, one behaviour.

``PrivatePotential`` (a query alone on its cluster) and ``PoolClient``
(a query asking the shared pool actor) sit behind the same operations;
the scheduler cannot tell them apart, and neither may these tests — apart
from the one thing that differs by design: a private list answers without
a single simulation event.
"""

from types import SimpleNamespace

import pytest

from repro.cluster import WorkloadCluster
from repro.config import ClusterSpec
from repro.core.context import RunContext
from repro.core.driver import open_run, single_query_context
from repro.core.messages import QueryDone, StateSync
from repro.core.pool import PoolClient, ResourcePoolProcess
from repro.core.potential import PrivatePotential, take_best
from repro.core.recovery import FaultTolerantScheduler
from repro.faults import FaultPlan
from repro.obs import MetricsRegistry, SpanLog
from tests.conftest import small_config

#: five nodes, two of them bigger: most memory first, lowest index on ties
SPEC = ClusterSpec(
    n_sources=1, n_potential_nodes=5, hash_memory_bytes=100,
    node_memory_overrides=((3, 900), (1, 500)),
)
BEST_FIRST = [3, 1, 0, 2, 4]


def drain(gen):
    """Run a generator that must not yield; return its value."""
    with pytest.raises(StopIteration) as stop:
        next(gen)
    return stop.value.value


def test_take_best_is_most_memory_then_lowest_index():
    free = list(range(5))
    assert [take_best(free, SPEC.memory_of) for _ in range(5)] == BEST_FIRST
    assert free == []


def test_private_list_takes_without_yielding():
    potential = PrivatePotential(0, 5, SPEC.memory_of)
    assert potential.initial == []
    taken = [drain(potential.take(None, "build")) for _ in range(6)]
    assert taken == [*BEST_FIRST, None]      # exhausted: None, not an error
    assert potential.shutdown_targets(None) == [0, 1, 2, 3, 4]
    assert drain(potential.release(None)) is None


def test_pool_client_hands_out_the_same_order_for_the_same_free_set():
    """The same five free nodes, asked for one at a time through the pool
    actor: same order as the private list; a sixth request is denied once
    the grant timeout passes, and the caller sees None just the same."""
    run = open_run(None, SPEC.cost, trace=True)
    sim = run.sim
    wc = WorkloadCluster.build(sim, SPEC, 1, metrics=run.metrics)
    pool = ResourcePoolProcess(
        sim, wc.network, wc.pool_node, free_nodes=list(range(5)),
        sched_nodes={0: wc.views[0].scheduler_node},
        grant_timeout_s=0.01, memory_of=SPEC.memory_of,
        metrics=MetricsRegistry(),
    )
    adopted = []
    client = PoolClient(node=pool.node, query_id=0,
                        adopt=lambda ctx, j: adopted.append(j))
    ctx = RunContext(
        sim, small_config(cluster=SPEC, initial=1), cluster=wc.views[0],
        metrics=run.metrics, spans=SpanLog(), tracer=run.tracer, faults=None,
        potential=client,
    )

    def await_message(match):
        while True:
            msg = yield from ctx.scheduler_node.mailbox.recv()
            if match(msg):
                return msg

    sched = SimpleNamespace(
        ctx=ctx, node=ctx.scheduler_node, active_deficit=0,
        await_message=await_message, activated=[3, 0], dead_nodes=[4],
    )
    taken = []

    def script():
        for _ in range(6):
            taken.append((yield from client.take(sched, "build")))
        yield from client.release(sched)

    pool_proc = sim.spawn(pool.run(), name="pool")
    sim.spawn(script(), name="script")
    sim.run(until=1.0)
    assert taken == [*BEST_FIRST, None]
    assert adopted == BEST_FIRST             # adopted before it is returned
    assert [r.category for r in run.tracer.records] == ["recruit_denied"]
    # only what the query holds is stopped, only what is alive is released
    assert client.shutdown_targets(sched) == [0, 3, 4]
    assert sorted(pool.free) == [0, 3]
    assert client.rebuilt({0, 3}) is client
    assert pool_proc.is_alive
    assert QueryDone in pool._handlers


def test_takeover_rebuild_excludes_activated_and_fenced():
    potential = PrivatePotential(2, 8, lambda j: 0)
    assert potential.initial == [0, 1] and potential.free == [2, 3, 4, 5, 6, 7]
    drain(potential.take(None, "build"))
    rebuilt = potential.rebuilt({0, 1, 2, 5})
    assert rebuilt is not potential          # a deposed primary keeps its own
    assert rebuilt.free == [3, 4, 6, 7] and rebuilt.initial == [0, 1]

    # the same through the standby's adopt_snapshot
    ctx = single_query_context(small_config(faults=FaultPlan(membership=True)))
    sched = FaultTolerantScheduler(ctx)
    sched.adopt_snapshot(StateSync(
        sync_seq=1, phase="build", router=sched.router,
        activated=(0, 1, 5), fenced=(3,),
    ))
    used = {0, 1, 3, 5}
    assert sched.potential.free == [
        j for j in range(ctx.n_potential) if j not in used
    ]
    assert sched.potential is not ctx.potential
    # a standby that never got a snapshot starts from the full list again
    drain(ctx.potential.take(None, "build"))
    fresh = FaultTolerantScheduler(ctx)
    assert fresh.adopt_snapshot(None) == "fresh"
    assert fresh.potential.free == list(range(2, ctx.n_potential))
