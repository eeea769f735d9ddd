"""``ExpansionStrategy.apply`` is idempotent, per WAL'd decision kind.

A standby scheduler that takes over mid-expansion applies the logged
decision again; the primary may have completed none, some or all of it.
These tests drive ``decide`` once and ``apply`` once or twice against real
join processes and require the same end state either way: routing table
(the Litwin state included), split order, where every stored tuple lives,
and the reporter's ack.  (Without them the re-apply path is only reachable through
a whole failover run.)
"""

import numpy as np
import pytest

from tests.conftest import shares, small_config
from repro.config import Algorithm, SplitPolicy
from repro.core.driver import single_query_context
from repro.core.joinnode import JoinProcess
from repro.core.messages import DataChunk, Hop, Shutdown
from repro.core.scheduler import SchedulerProcess
from repro.hashing import RangeRouter
from repro.hashing.hashfn import VALUE_BITS

KINDS = {
    "replicate": (Algorithm.REPLICATE, SplitPolicy.LINEAR_POINTER),
    "bisect": (Algorithm.SPLIT, SplitPolicy.LINEAR_POINTER),
    "linear": (Algorithm.SPLIT, SplitPolicy.LINEAR_MOD),
}


def expand_once(kind: str, applies: int) -> dict:
    """Activate two initial nodes, load node 0, expand it; return the end
    state after ``applies`` applications of the one decision."""
    algorithm, policy = KINDS[kind]
    cfg = small_config(algorithm, initial=2, split_policy=policy)
    ctx = single_query_context(cfg)
    sim = ctx.sim
    sched = SchedulerProcess(ctx)
    joins = [JoinProcess(ctx, j) for j in range(ctx.n_potential)]
    for jp in joins:
        sim.spawn(jp.run(), name=f"join{jp.index}")
    state: dict = {}

    def script():
        yield from sched._activate_initial()
        # 300 build tuples (node 0's budget is 400) at positions 0, 6, ..,
        # 1794: node 0's under both the range table ([0, 2048)) and the
        # Litwin table (even positions), and straddling either cut.
        values = (np.arange(300, dtype=np.uint64) * np.uint64(6)) << np.uint64(
            VALUE_BITS - ctx.posmap.bits)
        assert set(shares(sched.router, ctx.posmap(values))) == {0}
        yield from ctx.send(
            ctx.source_node(0), ctx.join_node(0),
            DataChunk("R", values, cfg.workload.tuple_bytes,
                      hop=Hop.PRIMARY, origin=ctx.source_node(0).node_id))
        yield sim.timeout(0.5)

        decision = yield from sched.strategy.decide(0)
        assert decision is not None and decision.kind == kind
        for _ in range(applies):
            ack = yield from sched.strategy.apply(decision)
        yield sim.timeout(0.5)  # let the asynchronous split transfer land

        strategy = sched.strategy
        state.update(
            decision=tuple(decision),
            router=(sched.router.entries
                    if isinstance(sched.router, RangeRouter)
                    else (sched.router.level, sched.router.split_pointer,
                          sched.router.bucket_nodes)),
            version=sched.router.version,
            split_order=list(getattr(strategy, "split_order", ())),
            activated=list(sched.activated),
            n_splits=sched.outcome.n_splits,
            ack=(ack.node, ack.still_full),
            stored={jp.index: jp.store.stored_tuples for jp in joins
                    if jp.state != jp.DORMANT},
            states={jp.index: jp.state for jp in joins},
        )
        for j in range(ctx.n_potential):
            yield from sched.send_to_join(j, Shutdown())

    sim.spawn(script(), name="script")
    sim.run()
    return state


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_apply_twice_equals_apply_once(kind):
    once, twice = expand_once(kind, 1), expand_once(kind, 2)
    # The second application executes the split a second time in name only:
    # it is counted, but nothing moves and nothing else changes.
    if kind != "replicate":
        assert (once.pop("n_splits"), twice.pop("n_splits")) == (
            1, 1 if kind == "linear" else 2)
    assert twice == once
    assert sum(once["stored"].values()) == 300
    new_node = once["decision"][2]
    assert new_node in once["activated"] and new_node in once["stored"]
    if kind == "replicate":
        # node 0 is full: a non-tail member of its range's replica chain
        assert [chain for _rng, chain in once["router"]] == [(0, new_node), (1,)]
        assert once["states"][0] == JoinProcess.CLOSED
    else:
        assert 0 < once["stored"][new_node] < 300  # tuples did move, once
