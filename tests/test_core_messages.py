"""Unit tests for protocol messages (sizes, hop tags, validation)."""

import numpy as np
import pytest

from repro.core.messages import (
    CONTROL_BYTES,
    ActivateJoin,
    CountVector,
    DataChunk,
    Hop,
    MemoryFull,
    ReshuffleOrder,
    RouteUpdate,
    SourceDone,
    StartProbe,
    StatusReport,
)
from repro.hashing import (
    HashRange,
    NodeHashStore,
    PositionMap,
    RangeRouter,
    partition_positions,
)


def test_data_chunk_size_is_logical_tuple_bytes():
    chunk = DataChunk("R", np.arange(10, dtype=np.uint64), tuple_bytes=100)
    assert chunk.tuples == 10
    assert chunk.nbytes == 1000
    assert chunk.kind == "data"


def test_data_chunk_validation():
    v = np.arange(3, dtype=np.uint64)
    with pytest.raises(ValueError):
        DataChunk("X", v, 100)
    with pytest.raises(ValueError):
        DataChunk("R", v, 100, hop="teleport")


def test_hop_categories():
    assert set(Hop.BUILD_EXTRA) == {Hop.FORWARD, Hop.SPLIT, Hop.RESHUFFLE}
    assert Hop.PRIMARY not in Hop.BUILD_EXTRA
    assert Hop.PROBE in Hop.ALL and Hop.PROBE_DUP in Hop.ALL


def test_control_messages_have_fixed_size():
    for msg in (MemoryFull(3), ActivateJoin(1, hash_range=HashRange(0, 10)),
                StatusReport(1, 2, 3, 4, 5, 6, 7, False)):
        assert msg.nbytes == CONTROL_BYTES
        assert msg.kind == "control"


def test_route_update_size_tracks_router():
    router = RangeRouter.initial(partition_positions(1 << 10, 4),
                                 [0, 1, 2, 3], 1 << 10)
    upd = RouteUpdate(router)
    assert upd.nbytes == router.wire_bytes()


def test_start_probe_size_with_and_without_router():
    router = RangeRouter.initial(partition_positions(1 << 10, 2),
                                 [0, 1], 1 << 10)
    assert StartProbe(router=None).nbytes == CONTROL_BYTES
    assert StartProbe(router=router).nbytes == CONTROL_BYTES + router.wire_bytes()


def test_count_vector_wire_scaling():
    """The wire size is the dense 8 B a position, however few are carried."""
    offsets = np.array([0, 17, 999], dtype=np.uint16)
    counts = np.array([4, 1, 2], dtype=np.int64)
    full = CountVector(0, 0, 1000, offsets, counts, wire_scale=1.0)
    scaled = CountVector(0, 0, 1000, offsets, counts, wire_scale=0.02)
    assert full.nbytes == 32 + 8000
    assert scaled.nbytes == 32 + 160
    assert scaled.kind == "counts"


def test_count_vector_carries_only_occupied_positions():
    store = NodeHashStore(PositionMap(1 << 18))
    store.insert(np.array([3, 1 << 20, 1 << 20, 5 << 28, (1 << 32) - 1],
                          dtype=np.uint64))
    lo, hi = 0, 1 << 18
    offsets, counts = store.position_counts(lo, hi)
    vec = CountVector(0, lo, hi, offsets, counts, wire_scale=1.0)
    assert vec.offsets.size == vec.counts.size <= 5
    assert int(vec.counts.sum()) == 5
    assert vec.nbytes == 32 + int(8 * (hi - lo) * 1.0)


def test_reshuffle_order_size_tracks_assignments():
    a1 = ReshuffleOrder(assignments=((0, HashRange(0, 5)),))
    a3 = ReshuffleOrder(assignments=(
        (0, HashRange(0, 5)), (1, HashRange(5, 9)), (2, None)))
    assert a3.nbytes > a1.nbytes


def test_source_done_carries_counters():
    done = SourceDone(source=2, relation="S",
                      chunks_sent={1: 10, 3: 5},
                      dup_tuples=500)
    assert done.nbytes == CONTROL_BYTES
    assert sum(done.chunks_sent.values()) == 15
