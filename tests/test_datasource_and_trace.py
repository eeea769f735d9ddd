"""Unit tests for data-source buffering, the layered source's replay and
re-announcement, and the trace recorder."""

import numpy as np
import pytest

from repro.core.driver import single_query_context
from repro.core.messages import (
    DataChunk,
    ReplayDone,
    ReplayOrder,
    SchedulerFailover,
    SourceDone,
)
from repro.core.recovery import FaultTolerantDataSource
from repro.core.scheduler import SchedulerProcess
from repro.data import ChunkBuffer, RelationStream
from repro.sim import TraceRecord, Tracer
from tests.conftest import routed_to, small_config, small_workload


# ----------------------------------------------------------------------
# replay re-chunking (a ChunkBuffer with one destination)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("limit,sizes", [
    (7, [64, 64, 64, 41]),
    (11, [64, 64, 64, 64, 64, 43]),
    (0, []),
])
def test_replayed_chunk_sizes_for_a_fixed_prefix(limit, sizes):
    """The target's share of batches ``[0, limit)`` ships as full chunks
    plus one remainder, in generation order (sizes recorded before
    ``_replay_prefix`` re-chunked through a ChunkBuffer): replay receipts,
    and with them the simulated time a recovery takes, depend on it."""
    ctx = single_query_context(
        small_config(workload=small_workload(r=6000, chunk=64)))
    src = FaultTolerantDataSource(ctx, 0, SchedulerProcess(ctx).router)
    shipped = []
    src._ship = (
        lambda dest, relation, values: shipped.append(int(values.size)) or ())
    order = ReplayOrder(relation="R", target=1, recovery_id=1, router=None)
    receipt = []

    def drive():
        receipt.append((yield from src._replay_prefix(order, limit=limit)))

    ctx.sim.spawn(drive())
    ctx.sim.run()
    assert shipped == sizes
    assert receipt[0].chunks_sent == ({1: len(sizes)} if sizes else {})


# ----------------------------------------------------------------------
# the layered source: replay orders and failover re-announcement, driven
# through its two rows and ``_at_boundary`` with every send recorded
# ----------------------------------------------------------------------
TARGET = 5  # the recruit that takes over dead node 1's range


class Recorded:
    """A ``FaultTolerantDataSource`` whose context records ``(destination
    node, message)`` instead of sending (no join process is listening)."""

    def __init__(self):
        self.ctx = ctx = single_query_context(
            small_config(workload=small_workload(r=2000, s=2000, chunk=64)))
        self.sent = []
        ctx.send = lambda src, dst, msg, **kw: self.sent.append((dst, msg)) or ()
        self.live = SchedulerProcess(ctx).router  # node 0 | node 1
        self.takeover = self.live.with_takeover({1}, TARGET, version=7)
        self.src = FaultTolerantDataSource(ctx, 0, self.live)

    def run(self, steps):
        def body():
            yield from steps
        self.ctx.sim.spawn(body())
        self.ctx.sim.run()

    def deliver(self, msg, buffers=None):
        """One control message read at a boundary, then the hook."""
        self.src.dispatch(msg)
        self.run(self.src._at_boundary(buffers))

    def deliver_at(self, t, msg):
        """Put ``msg`` in the source's mailbox at simulated time ``t``."""
        def post():
            yield self.ctx.sim.timeout(t)
            self.src.node.mailbox.put(msg)
        self.ctx.sim.spawn(post())

    def to_scheduler(self, since=0):
        return [m for dst, m in self.sent[since:]
                if dst is self.ctx.scheduler_node]

    def replayed_tuples(self, receipt):
        """Tuples the replay behind ``receipt`` shipped: its chunks went out
        just before it (a replay runs inside one boundary hook)."""
        at = next(i for i, (_, m) in enumerate(self.sent) if m is receipt)
        n = receipt.chunks_sent.get(TARGET, 0)
        return sum(m.values.size for _, m in self.sent[at - n:at])

    def tuples_to(self, j):
        """Every tuple shipped to join node ``j``, live and replayed, sorted."""
        got = [m.values for dst, m in self.sent
               if dst is self.ctx.join_node(j) and isinstance(m, DataChunk)]
        return np.sort(np.concatenate(got)) if got else np.empty(0, np.uint64)

    def share(self, relation, router, j):
        """What ``j`` is owed of this source's whole ``relation`` under
        ``router``, sorted."""
        ctx = self.ctx
        stream = RelationStream(ctx.cfg.workload, relation, ctx.n_sources, 0)
        values = np.concatenate(list(stream.batches()))
        idx = routed_to(router, ctx.posmap(values), probe=relation == "S").get(j, [])
        return np.sort(values[idx])


def test_repeated_replay_order_resends_the_receipt_and_restreams_nothing():
    """Replays are idempotent (``_execute_replay``): a standby re-driving
    the recovery gets the stored ``ReplayDone`` back, not a second copy of
    the range."""
    rec = Recorded()
    rec.src.batches_done["R"] = 5
    order = ReplayOrder("R", target=TARGET, recovery_id=1, router=rec.takeover)
    rec.deliver(order)
    (receipt,) = rec.to_scheduler()
    assert isinstance(receipt, ReplayDone)
    assert receipt.chunks_sent == {TARGET: len(rec.sent) - 1}
    routed, first = rec.src.chunks_routed.value, len(rec.sent)
    rec.deliver(order)
    assert rec.sent[first:] == [(rec.ctx.scheduler_node, receipt)]
    assert rec.sent[first][1] is receipt
    assert rec.src.chunks_routed.value == routed


def test_build_tuples_buffered_at_the_order_reach_the_target_exactly_once():
    """A build-side order lands mid-stream with partial buffers held
    (``_requeue_excluding``): what they hold for the dead node's range is
    dropped from the pool — the replay of ``[0, cursor)`` re-covers it —
    and everything after the boundary flows live under the order's table.
    Live + replay, the target gets each tuple of the range once."""
    rec = Recorded()
    rec.deliver_at(
        2e-4, ReplayOrder("R", target=TARGET, recovery_id=1, router=rec.takeover))
    stream = RelationStream(rec.ctx.cfg.workload, "R", rec.ctx.n_sources, 0)
    rec.run(rec.src._stream_relation(stream, "R"))
    (receipt,) = rec.to_scheduler()
    assert 0 < rec.replayed_tuples(receipt) < rec.share("R", rec.takeover, TARGET).size
    assert rec.tuples_to(1).size > 0  # shipped live before the order: lost
    assert np.array_equal(rec.tuples_to(TARGET),
                          rec.share("R", rec.takeover, TARGET))
    assert np.array_equal(rec.tuples_to(0), rec.share("R", rec.takeover, 0))
    assert rec.src.router is rec.takeover


def test_probe_tuples_buffered_at_the_order_lose_only_the_targets_copy():
    """Probe side, the order's table serving the range by the chain
    (target, 7): the target's copy of what is buffered is dropped (its
    replay re-covers it), replica 7's copy still flows live.  The target
    ends up with every probe tuple of the range exactly once; 7 with
    what was buffered at that boundary and everything generated after."""
    rec = Recorded()
    chain = rec.takeover.with_replica(1, 7, version=8)
    rec.src._probe_router = rec.live  # streaming S under the old table
    rec.deliver_at(2e-4, ReplayOrder("S", target=TARGET, recovery_id=1, router=chain))
    stream = RelationStream(rec.ctx.cfg.workload, "S", rec.ctx.n_sources, 0)
    rec.run(rec.src._stream_relation(stream, "S"))
    (receipt,) = rec.to_scheduler()
    owed = rec.share("S", chain, TARGET)
    assert 0 < rec.replayed_tuples(receipt) < owed.size
    assert np.array_equal(rec.tuples_to(TARGET), owed)
    assert np.array_equal(rec.tuples_to(0), rec.share("S", chain, 0))
    late = rec.tuples_to(7)
    assert 0 < late.size < owed.size
    assert np.isin(late, owed).all() and np.unique(late).size == late.size


def test_build_order_while_streaming_s_does_not_install_its_table():
    """An ``R`` replay ordered in the probe phase re-streams under the
    order's table but leaves the live probe table — and what is buffered
    under it — alone: the scheduler flips that one separately, once the
    target has rebuilt."""
    rec = Recorded()
    rec.src._probe_router = rec.live  # the probe signal has arrived
    rec.src.batches_done["R"] = 3
    buffers = ChunkBuffer(64)
    buffers.append(1, np.arange(10, dtype=np.uint64))
    rec.deliver(ReplayOrder("R", target=TARGET, recovery_id=1, router=rec.takeover),
                buffers)
    assert rec.src.router is rec.live
    assert buffers.destinations() == [1] and buffers.total_buffered == 10
    chunks = [m for _, m in rec.sent if isinstance(m, DataChunk)]
    assert chunks
    assert {dst for dst, m in rec.sent if isinstance(m, DataChunk)} \
        == {rec.ctx.join_node(TARGET)}


def test_failover_resends_one_source_done_per_relation_and_every_receipt():
    """``_announce_to_scheduler``: what the dead primary took to its grave."""
    rec = Recorded()
    rec.deliver(SchedulerFailover(new_scheduler=2))
    assert rec.to_scheduler() == []  # nothing finished yet
    rec.run(rec.src._report_done("R"))
    rec.src.batches_done["R"] = 2
    rec.deliver(ReplayOrder("R", target=TARGET, recovery_id=1, router=rec.takeover))
    receipt = rec.to_scheduler()[-1]
    mark = len(rec.sent)
    rec.deliver(SchedulerFailover(new_scheduler=2))
    again = rec.to_scheduler(mark)
    assert [type(m) for m in again] == [SourceDone, ReplayDone]
    assert again[0].relation == "R" and again[1] is receipt
    rec.run(rec.src._report_done("S"))
    mark = len(rec.sent)
    rec.deliver(SchedulerFailover(new_scheduler=2))
    again = rec.to_scheduler(mark)
    assert [getattr(m, "relation", None) for m in again] == ["R", "S", "R"]
    assert [type(m) for m in again] == [SourceDone, SourceDone, ReplayDone]


# ----------------------------------------------------------------------
# ChunkBuffer (the shared columnar per-destination buffer)
# ----------------------------------------------------------------------
def arr(*values):
    return np.array(values, dtype=np.uint64)


def test_buffers_accumulate_and_flush_exact_chunks():
    buf = ChunkBuffer(chunk_tuples=3)
    buf.append(1, arr(10, 11))
    assert buf.pop_full_chunk(1) is None  # not enough yet
    buf.append(1, arr(12, 13))
    chunk = buf.pop_full_chunk(1)
    assert chunk.tolist() == [10, 11, 12]
    assert buf.total_buffered == 1
    assert buf.pop_full_chunk(1) is None


def test_buffers_pop_all_clears_destination():
    buf = ChunkBuffer(chunk_tuples=100)
    buf.append(2, arr(1, 2, 3))
    assert buf.pop_all(2).tolist() == [1, 2, 3]
    assert buf.pop_all(2) is None
    assert buf.destinations() == []


def test_buffers_destinations_sorted_and_nonempty_only():
    buf = ChunkBuffer(chunk_tuples=10)
    buf.append(5, arr(1))
    buf.append(2, arr(2))
    buf.append(9, np.empty(0, dtype=np.uint64))  # ignored
    assert buf.destinations() == [2, 5]


def test_buffers_drain_everything_pools_all_destinations():
    buf = ChunkBuffer(chunk_tuples=10)
    buf.append(1, arr(1, 2))
    buf.append(3, arr(3))
    pool = buf.drain_everything()
    assert sorted(pool.tolist()) == [1, 2, 3]
    assert buf.total_buffered == 0
    assert buf.drain_everything().size == 0


def test_buffers_preserve_order_within_destination():
    buf = ChunkBuffer(chunk_tuples=2)
    buf.append(0, arr(1))
    buf.append(0, arr(2))
    buf.append(0, arr(3))
    assert buf.pop_full_chunk(0).tolist() == [1, 2]
    assert buf.pop_all(0).tolist() == [3]


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
def test_tracer_records_and_selects():
    tr = Tracer()
    tr.emit(1.0, "split", "join0", moved=10)
    tr.emit(2.0, "activate", "join1")
    tr.emit(3.0, "split", "join2", moved=20)
    assert len(tr) == 3
    splits = list(tr.select("split"))
    assert [r.actor for r in splits] == ["join0", "join2"]
    assert splits[1].detail["moved"] == 20


def test_tracer_disabled_records_nothing():
    tr = Tracer(enabled=False)
    tr.emit(1.0, "x", "y")
    assert len(tr) == 0


def test_trace_record_formatting():
    rec = TraceRecord(1.5, "split", "join0", {"moved": 3})
    text = str(rec)
    assert "split" in text and "join0" in text and "moved=3" in text
    tr = Tracer()
    tr.emit(1.5, "split", "join0", moved=3)
    assert tr.format() == str(tr.records[0])
