"""Unit tests for data-source buffering and the trace recorder."""

import numpy as np
import pytest

from repro.core.datasource import DataSourceProcess
from repro.core.driver import single_query_context
from repro.core.messages import ReplayOrder
from repro.core.scheduler import SchedulerProcess
from repro.data import ChunkBuffer
from repro.sim import TraceRecord, Tracer
from tests.conftest import small_config, small_workload


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
    src = DataSourceProcess(ctx, 0, SchedulerProcess(ctx).router)
    shipped = []
    src._send_replay_chunk = (
        lambda order, values: shipped.append(int(values.size)) or ())
    order = ReplayOrder(relation="R", target=1, recovery_id=1, router=None)
    receipt = []

    def drive():
        receipt.append((yield from src._replay_prefix(order, limit=limit)))

    ctx.sim.spawn(drive())
    ctx.sim.run()
    assert shipped == sizes
    assert receipt[0].tuples == sum(sizes)
    assert receipt[0].chunks_sent == ({1: len(sizes)} if sizes else {})


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


def test_tracer_category_filter():
    tr = Tracer(categories={"keep"})
    tr.emit(1.0, "keep", "a")
    tr.emit(2.0, "drop", "b")
    assert [r.category for r in tr.records] == ["keep"]


def test_trace_record_formatting():
    rec = TraceRecord(1.5, "split", "join0", {"moved": 3})
    text = str(rec)
    assert "split" in text and "join0" in text and "moved=3" in text
    tr = Tracer()
    tr.emit(1.5, "split", "join0", moved=3)
    assert tr.format() == str(tr.records[0])
