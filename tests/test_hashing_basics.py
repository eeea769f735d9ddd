"""Unit tests for position maps, hash ranges and the node hash store."""

import tracemalloc

import numpy as np
import pytest

from repro.data import KEY_DTYPE
from repro.hashing import (
    HashRange,
    NodeHashStore,
    PositionMap,
    partition_positions,
    ranges_partition_space,
    splitmix64,
)
from repro.seqjoin import match_count


# ----------------------------------------------------------------------
# PositionMap
# ----------------------------------------------------------------------
def test_position_map_is_order_preserving():
    pm = PositionMap(1 << 16)
    values = np.sort(np.random.default_rng(0).integers(
        0, 1 << 32, 1000, dtype=np.uint64))
    pos = pm(values)
    assert (np.diff(pos) >= 0).all()
    assert pos.min() >= 0 and pos.max() < (1 << 16)


def test_position_map_full_range_coverage():
    pm = PositionMap(256)
    lo = pm(np.array([0], dtype=np.uint64))[0]
    hi = pm(np.array([(1 << 32) - 1], dtype=np.uint64))[0]
    assert lo == 0 and hi == 255


def test_position_map_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        PositionMap(1000)
    with pytest.raises(ValueError):
        PositionMap(0)


def test_position_map_mixing_destroys_locality():
    pm = PositionMap(1 << 16, mix=True)
    base = np.arange(1000, dtype=np.uint64) + np.uint64(1 << 20)
    pos = pm(base)
    # Mixed positions of adjacent values should be scattered widely.
    assert np.abs(np.diff(pos.astype(np.int64))).mean() > 1000
    assert pos.min() >= 0 and pos.max() < (1 << 16)


def test_splitmix64_is_deterministic_and_bijective_sample():
    x = np.arange(10_000, dtype=np.uint64)
    a, b = splitmix64(x), splitmix64(x)
    assert np.array_equal(a, b)
    assert np.unique(a).size == x.size  # no collisions on a small sample


def test_position_of_scalar():
    pm = PositionMap(1 << 10)
    assert pm.position_of(0) == 0


@pytest.mark.parametrize("mix", [False, True])
@pytest.mark.parametrize("positions", [1, 1 << 10, 1 << 32])
def test_position_map_is_the_high_bits_as_one_int64_array(positions, mix):
    """The shift is made once and the result is the ``>>`` output viewed as
    int64 — no second copy — and the same numbers the per-call
    ``np.uint64(shift)`` + ``astype`` form gave, at both ends of the
    position space; the cached shift is no field (==, hash, pickle)."""
    import pickle

    from repro.data import VALUE_BITS

    pm = PositionMap(positions, mix=mix)
    values = np.random.default_rng(3).integers(
        0, 1 << 32, 5000, dtype=np.uint64)
    values[:2] = 0, (1 << 32) - 1
    bits = positions.bit_length() - 1
    v = splitmix64(values) if mix else values
    want = (v >> np.uint64((64 if mix else VALUE_BITS) - bits)).astype(np.int64)
    got = pm(values)
    assert got.dtype == np.int64 and np.array_equal(got, want)
    assert got.base is not None and got.base.dtype == np.uint64
    assert 0 <= got.min() and got.max() < positions
    clone = pickle.loads(pickle.dumps(pm))
    assert clone == pm and hash(clone) == hash(pm)
    assert np.array_equal(clone(values), want)


# ----------------------------------------------------------------------
# HashRange
# ----------------------------------------------------------------------
def test_hash_range_basics():
    r = HashRange(10, 20)
    assert r.width == 10
    assert r.contains(10) and r.contains(19) and not r.contains(20)
    left, right = r.bisect()
    assert left == HashRange(10, 15) and right == HashRange(15, 20)
    assert r.overlaps(HashRange(19, 30)) and not r.overlaps(HashRange(20, 30))


def test_hash_range_validation():
    with pytest.raises(ValueError):
        HashRange(5, 5)
    with pytest.raises(ValueError):
        HashRange(-1, 5)
    with pytest.raises(ValueError):
        HashRange(6, 5)


def test_atomic_range_cannot_bisect():
    with pytest.raises(ValueError):
        HashRange(3, 4).bisect()


def test_partition_positions_tiles_space():
    for positions, parts in ((256, 4), (100, 7), (1 << 18, 24), (5, 5)):
        ranges = partition_positions(positions, parts)
        assert len(ranges) == parts
        assert ranges_partition_space(ranges, positions)
        widths = [r.width for r in ranges]
        assert max(widths) - min(widths) <= 1


def test_partition_positions_validation():
    with pytest.raises(ValueError):
        partition_positions(4, 5)
    with pytest.raises(ValueError):
        partition_positions(4, 0)


def test_ranges_partition_space_detects_gaps_and_overlaps():
    assert ranges_partition_space([HashRange(0, 5), HashRange(5, 10)], 10)
    assert not ranges_partition_space([HashRange(0, 5), HashRange(6, 10)], 10)
    assert not ranges_partition_space([HashRange(0, 6), HashRange(5, 10)], 10)
    assert not ranges_partition_space([HashRange(0, 10)], 11)
    assert ranges_partition_space([], 0)


# ----------------------------------------------------------------------
# NodeHashStore
# ----------------------------------------------------------------------
def test_store_probe_counts_matches():
    pm = PositionMap(1 << 16)
    store = NodeHashStore(pm)
    rng = np.random.default_rng(1)
    r = rng.integers(0, 1000, 5000, dtype=np.uint64)
    s = rng.integers(0, 1000, 3000, dtype=np.uint64)
    store.insert(r[:2500].copy())
    store.insert(r[2500:].copy())
    assert store.stored_tuples == 5000
    assert store.probe(s) == match_count(r, s)


def test_store_probe_empty_cases():
    store = NodeHashStore(PositionMap(256))
    assert store.probe(np.array([1], dtype=np.uint64)) == 0
    store.insert(np.array([1], dtype=np.uint64))
    assert store.probe(np.empty(0, dtype=np.uint64)) == 0


def test_store_extract_position_range_partitions_content():
    pm = PositionMap(1 << 16)
    store = NodeHashStore(pm)
    rng = np.random.default_rng(2)
    values = rng.integers(0, 1 << 32, 10_000, dtype=np.uint64)
    store.insert(values.copy())
    out = store.extract_position_range(0, 1 << 15)
    assert out.size + store.stored_tuples == values.size
    assert (pm(out) < (1 << 15)).all()
    remaining = store.extract_position_range(0, 1 << 16)
    assert (pm(remaining) >= (1 << 15)).all()
    assert store.stored_tuples == 0


def test_store_extract_linear_bucket():
    pm = PositionMap(1 << 16)
    store = NodeHashStore(pm)
    values = np.arange(0, 1 << 32, 1 << 18, dtype=np.uint64)
    store.insert(values.copy())
    modulus, new_bucket = 4, 6  # h_{i+1}(p) = p mod 8 == 6
    out = store.extract_linear_bucket(new_bucket, modulus)
    assert (pm(out) % 8 == 6).all()
    kept = store.extract_position_range(0, 1 << 16)
    assert not (pm(kept) % 8 == 6).any()


def test_store_position_counts():
    pm = PositionMap(16)
    store = NodeHashStore(pm)
    # values mapping to positions 0 and 1
    v0 = np.zeros(5, dtype=np.uint64)
    v1 = np.full(3, 1 << 28, dtype=np.uint64)  # position 1 of 16
    store.insert(v0)
    store.insert(v1)
    offsets, counts = store.position_counts(0, 16)
    assert dict(zip(offsets.tolist(), counts.tolist())) == {0: 5, 1: 3}
    assert counts.dtype == np.int64 and counts.sum() == 8
    offsets, counts = store.position_counts(1, 3)  # offsets relative to lo
    assert dict(zip(offsets.tolist(), counts.tolist())) == {0: 3}
    with pytest.raises(ValueError):
        store.position_counts(5, 5)


def test_store_probe_after_extract_is_consistent():
    pm = PositionMap(1 << 16)
    store = NodeHashStore(pm)
    rng = np.random.default_rng(3)
    r = rng.integers(0, 500, 4000, dtype=np.uint64)
    s = rng.integers(0, 500, 4000, dtype=np.uint64)
    store.insert(r.copy())
    moved = store.extract_position_range(0, 1 << 15)
    other = NodeHashStore(pm)
    other.insert(moved)
    assert store.probe(s) + other.probe(s) == match_count(r, s)


# ----------------------------------------------------------------------
# NodeHashStore dtype validation (insert accepts only lossless grid keys)
# ----------------------------------------------------------------------
def test_store_insert_coerces_lossless_integer_dtypes():
    store = NodeHashStore(PositionMap(256))
    store.insert(np.array([1, 2, 3], dtype=np.int32))
    store.insert(np.array([4, 5], dtype=np.uint16))
    store.insert(np.array([6.0, 7.0], dtype=np.float64))  # integral floats
    assert store.stored_tuples == 7
    assert store.probe(np.array([5], dtype=np.uint64)) == 1
    assert store.probe(np.arange(10, dtype=np.uint64)) == 7
    # storage is uniformly KEY_DTYPE, whatever dtype each chunk arrived in
    out = store.extract_position_range(0, 256)
    assert out.dtype == KEY_DTYPE
    assert sorted(out.tolist()) == [1, 2, 3, 4, 5, 6, 7]
    assert store.stored_tuples == 0


def test_store_insert_rejects_negative_values():
    store = NodeHashStore(PositionMap(256))
    with pytest.raises(ValueError, match="non-negative"):
        store.insert(np.array([3, -1], dtype=np.int64))
    with pytest.raises(ValueError, match="non-negative"):
        store.insert(np.array([-2.0], dtype=np.float32))
    assert store.stored_tuples == 0


def test_store_insert_rejects_lossy_floats():
    store = NodeHashStore(PositionMap(256))
    with pytest.raises(ValueError, match="lossy"):
        store.insert(np.array([1.5], dtype=np.float64))
    with pytest.raises(ValueError, match="finite"):
        store.insert(np.array([np.nan], dtype=np.float64))
    with pytest.raises(ValueError, match="finite"):
        store.insert(np.array([np.inf], dtype=np.float64))
    # float64 cannot represent 2**53 + 1 exactly either way, but a huge
    # magnitude that overflows uint64 entirely must be rejected too
    with pytest.raises(ValueError):
        store.insert(np.array([1e20], dtype=np.float64))
    assert store.stored_tuples == 0


def test_store_insert_rejects_non_numeric_dtypes():
    store = NodeHashStore(PositionMap(256))
    with pytest.raises(TypeError, match="numeric"):
        store.insert(np.array(["a", "b"]))
    with pytest.raises(TypeError, match="numeric"):
        store.insert(np.array([True, False]))
    assert store.stored_tuples == 0


def test_store_insert_key_dtype_passthrough_is_zero_copy():
    store = NodeHashStore(PositionMap(256))
    values = np.array([9, 10], dtype=KEY_DTYPE)
    store.insert(values)
    assert store._chunks[0] is values  # caller cedes ownership, no copy


@pytest.mark.parametrize("ceded", ["whole", "view"])
def test_store_finalize_never_sorts_a_ceded_chunk_in_place(ceded):
    """``_insert_or_park`` inserts ``values[:fit]`` — a view of a chunk
    whose tail is parked and whose payload the at-least-once transport may
    still hold for retransmission — so sorting for the probe must copy."""
    payload = np.random.default_rng(11).integers(0, 1 << 20, 500, dtype=np.uint64)
    before = payload.copy()
    chunk = payload if ceded == "whole" else payload[:300]
    store = NodeHashStore(PositionMap(256))
    store.insert(chunk)
    store.finalize()
    assert store.probe(before) == match_count(chunk, before)
    assert np.array_equal(payload, before)


def test_finalized_store_keeps_one_array_and_a_filter():
    """A finalized table costs its 8 B join attribute plus 1-2 B of filter
    a tuple (it was 24 B: chunk + unique + counts) — what ``join-large``'s
    ``peak_rss_mb`` pays for every node at once."""
    n = 200_000
    rng = np.random.default_rng(5)
    store = NodeHashStore(PositionMap(1 << 16))
    tracemalloc.start()
    try:
        for _ in range(20):
            store.insert(rng.integers(1 << 28, 1 << 29, n // 20, dtype=np.uint64))
        store.finalize()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert store.stored_tuples == n
    assert held <= 11 * n
