"""Property-based tests for hash machinery invariants (hypothesis)."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tests.conftest import shares
from repro.data.distributions import VALUE_BITS
from repro.hashing import (
    HashRange,
    LinearHashRouter,
    NodeHashStore,
    PositionMap,
    RangeRouter,
    greedy_contiguous_partition,
    partition_positions,
    partition_range_by_counts,
    ranges_partition_space,
)

P = 1 << 10


@given(parts=st.integers(1, 64), positions=st.integers(64, 4096))
@settings(max_examples=200, deadline=None)
def test_partition_positions_always_tiles(parts, positions):
    parts = min(parts, positions)
    ranges = partition_positions(positions, parts)
    assert ranges_partition_space(ranges, positions)
    assert sum(r.width for r in ranges) == positions


@given(
    n_ops=st.integers(0, 12),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_range_router_tiles_after_any_mutation_sequence(n_ops, seed):
    """Replicas and bisections, in any order, keep the space tiled and
    every position routed to exactly one build destination."""
    rng = np.random.default_rng(seed)
    router = RangeRouter.initial(partition_positions(P, 4), [0, 1, 2, 3], P)
    next_node = 10
    for _ in range(n_ops):
        idx = int(rng.integers(0, len(router.entries)))
        rng_entry, chain = router.entries[idx]
        if rng.random() < 0.5:
            router = router.with_replica(idx, next_node, router.version + 1)
        elif len(chain) == 1 and rng_entry.width >= 2:
            router = router.with_bisection(idx, chain[0], next_node,
                                           router.version + 1)
        else:
            continue
        next_node += 1
    ranges = [r for r, _ in router.entries]
    assert ranges_partition_space(ranges, P)
    positions = np.arange(P, dtype=np.int64)
    build = shares(router, positions)
    assert sum(v.size for v in build.values()) == P
    merged = np.sort(np.concatenate(list(build.values())))
    assert np.array_equal(merged, positions), "each position exactly once"
    # probe covers every position at least once
    probe = shares(router, positions, probe=True)
    covered = np.unique(np.concatenate(list(probe.values())))
    assert covered.size == P


@given(splits=st.integers(0, 20), n0=st.integers(1, 6))
@settings(max_examples=100, deadline=None)
def test_litwin_split_fold_agrees_with_the_join_node_shed(splits, n0):
    """Fold ``with_split`` the way the scheduler installs it.  After every
    split the table routes each position to exactly one node, and the
    tuples the donor's store sheds for the split (the join node's
    ``extract_linear_bucket`` predicate) are exactly the ones the new
    table routes to the new node."""
    posmap = PositionMap(P)
    positions = np.arange(P, dtype=np.int64)
    values = positions.astype(np.uint64) << np.uint64(VALUE_BITS - posmap.bits)
    router = LinearHashRouter(n0, 0, 0, tuple(range(n0)))
    for new_node in range(100, 100 + splits):
        donor = router.bucket_nodes[router.split_pointer]
        store = NodeHashStore(posmap)
        store.insert(values[shares(router, positions)[donor]])
        new_bucket, modulus = router.n_buckets, router.modulus
        router = router.with_split(new_node, router.version + 1)
        build = shares(router, positions)
        merged = np.sort(np.concatenate(list(build.values())))
        assert np.array_equal(merged, positions), "each position exactly once"
        shed = store.extract_linear_bucket(new_bucket, modulus)
        assert np.array_equal(np.sort(posmap(shed)), np.sort(build[new_node]))
        assert store.stored_tuples == build[donor].size
    assert router.n_buckets == n0 + splits


@given(
    weights=st.lists(st.integers(0, 1000), min_size=1, max_size=300),
    parts=st.integers(1, 24),
)
@settings(max_examples=300, deadline=None)
def test_greedy_partition_contiguity_coverage_balance(weights, parts):
    w = np.array(weights, dtype=np.int64)
    slices = greedy_contiguous_partition(w, parts)
    assert len(slices) == parts
    # contiguity + coverage
    assert slices[0][0] == 0 and slices[-1][1] == len(w)
    for (a, b), (c, d) in zip(slices, slices[1:]):
        assert b == c and a <= b and c <= d
    # the paper's balance guarantee: no slice exceeds ideal + max weight
    total = int(w.sum())
    if total > 0:
        bound = total / parts + int(w.max())
        for lo, hi in slices:
            assert int(w[lo:hi].sum()) <= bound + 1e-9


@given(
    width=st.integers(2, 500),
    parts=st.integers(1, 10),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_partition_range_by_counts_tiles_the_range(width, parts, seed):
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 50, width)
    hr = HashRange(100, 100 + width)
    cuts = partition_range_by_counts(hr, counts, parts)
    assert len(cuts) == parts
    spans = [c for c in cuts if c is not None]
    assert ranges_partition_space(
        [HashRange(c.lo - 100, c.hi - 100) for c in spans], width
    )


@given(
    bits=st.integers(1, 14),
    mix=st.booleans(),
    members=st.integers(1, 8),
    empty=st.integers(0, 7),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_folded_sparse_counts_equal_dense_reference(bits, mix, members, empty, seed):
    """The reshuffle's cut depends only on the summed per-position counts:
    folding each member's occupied ``(offsets, counts)`` into one total
    equals summing dense ``np.bincount`` vectors, so the cuts are the same."""
    rng = np.random.default_rng(seed)
    pm = PositionMap(1 << bits, mix=mix)
    lo = int(rng.integers(0, pm.positions))
    hi = int(rng.integers(lo + 1, pm.positions + 1))
    width = hi - lo
    # a small key pool: duplicate keys within and across members
    pool = rng.integers(0, 1 << 32, int(rng.integers(1, 400)), dtype=np.uint64)
    folded = np.zeros(width, dtype=np.int64)
    reference = np.zeros(width, dtype=np.int64)
    for m in range(members):
        n = 0 if m == empty % members else int(rng.integers(1, 600))
        values = rng.choice(pool, n)
        store = NodeHashStore(pm)
        store.insert(values.copy())
        offsets, counts = store.position_counts(lo, hi)
        assert offsets.dtype.kind == "u" and counts.dtype == np.int64
        assert (np.diff(offsets.astype(np.int64)) > 0).all() and (counts > 0).all()
        folded[offsets] += counts
        pos = pm(values)
        reference += np.bincount(pos[(pos >= lo) & (pos < hi)] - lo, minlength=width)
    assert np.array_equal(folded, reference)
    hr = HashRange(lo, hi)
    assert (partition_range_by_counts(hr, folded, members)
            == partition_range_by_counts(hr, reference, members))


@st.composite
def counted_stores(draw):
    """``(bits, lo, hi, chunks)``: a ``[lo, hi)`` of a ``2**bits`` position
    space, and the positions of stored tuples in chunks — drawn from
    anywhere, or from ``lo - 1``, ``lo``, ``hi - 1`` and ``hi``."""
    bits = draw(st.integers(1, 20))
    lo = draw(st.integers(0, (1 << bits) - 1))
    hi = draw(st.integers(lo + 1, 1 << bits))
    near = st.sampled_from([p for p in (lo - 1, lo, hi - 1, hi) if 0 <= p < 1 << bits])
    position = st.integers(0, (1 << bits) - 1) | near
    return bits, lo, hi, draw(st.lists(st.lists(position, max_size=60), max_size=4))


@given(case=counted_stores(), seed=st.integers(0, 2**32 - 1))
@example(case=(20, 0, 1 << 20, [[0, 0, (1 << 20) - 1], [1 << 16]]), seed=0)  # 32-bit offsets
@example(case=(20, 3, (1 << 16) + 4, [[3, (1 << 16) + 3, 2, (1 << 16) + 4]]), seed=1)
@example(case=(12, 100, 200, [[99, 200, 4095], [0]]), seed=2)  # no tuple in range
@example(case=(12, 100, 200, []), seed=3)                      # an empty store
# the dense/sparse switch: a 4-wide range holding 4 tuples (dense), 5
# (dense) and 3 (sorted), with tuples just outside it that must not count
@example(case=(12, 100, 104, [[99, 100, 101], [101, 103, 104]]), seed=4)
@example(case=(12, 100, 104, [[100, 100, 101, 102], [103, 99]]), seed=5)
@example(case=(12, 100, 104, [[100, 103, 104, 104], [103]]), seed=6)
@settings(max_examples=150, deadline=None)
def test_position_counts_equal_a_dense_bincount(case, seed):
    """``position_counts`` is the occupied slots of a dense ``bincount``
    over ``[lo, hi)``: the same offsets, ascending, in the narrowest
    unsigned dtype holding ``hi - lo - 1``, and their int64 counts."""
    bits, lo, hi, chunks = case
    pm = PositionMap(1 << bits)
    rng = np.random.default_rng(seed)
    store = NodeHashStore(pm)
    for positions in chunks:  # a tuple anywhere in its position's slot
        pos = np.array(positions, dtype=np.uint64)
        low = rng.integers(0, 1 << (VALUE_BITS - bits), pos.size, dtype=np.uint64)
        store.insert((pos << np.uint64(VALUE_BITS - bits)) | low)
    offsets, counts = store.position_counts(lo, hi)

    pos = np.array([p for c in chunks for p in c], dtype=np.int64)
    dense = np.bincount(pos[(pos >= lo) & (pos < hi)] - lo, minlength=hi - lo)
    assert offsets.dtype == np.min_scalar_type(hi - lo - 1)
    assert counts.dtype == np.int64
    assert offsets.tolist() == np.flatnonzero(dense).tolist()
    assert counts.tolist() == dense[dense > 0].tolist()


@given(bits=st.integers(1, 20), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_position_map_bounds_and_monotonicity(bits, seed):
    pm = PositionMap(1 << bits)
    rng = np.random.default_rng(seed)
    values = np.sort(rng.integers(0, 1 << 32, 500, dtype=np.uint64))
    pos = pm(values)
    assert pos.min() >= 0 and pos.max() < (1 << bits)
    assert (np.diff(pos) >= 0).all()


# ----------------------------------------------------------------------
# greedy_contiguous_partition: the documented slice-weight bound
# ----------------------------------------------------------------------
@given(
    weights=st.lists(st.integers(0, 10_000), min_size=1, max_size=512),
    parts=st.integers(1, 32),
)
@settings(max_examples=300, deadline=None)
def test_greedy_partition_weight_bound(weights, parts):
    """Every slice's weight is at most total/parts + max(weights), and the
    slices tile [0, n) in order — the function's documented guarantee."""
    w = np.asarray(weights, dtype=np.int64)
    slices = greedy_contiguous_partition(w, parts)
    assert len(slices) == parts
    # tiling: ordered, contiguous, covering
    assert slices[0][0] == 0 and slices[-1][1] == len(w)
    for (_, hi), (lo, _) in zip(slices, slices[1:]):
        assert hi == lo
    bound = w.sum() / parts + w.max()
    for lo, hi in slices:
        assert w[lo:hi].sum() <= bound + 1e-9


@given(n=st.integers(1, 256), parts=st.integers(1, 32))
@settings(max_examples=100, deadline=None)
def test_greedy_partition_all_zero_weights(n, parts):
    """Zero total weight must still tile the range without crashing."""
    slices = greedy_contiguous_partition(np.zeros(n, dtype=np.int64), parts)
    assert len(slices) == parts
    assert slices[0][0] == 0 and slices[-1][1] == n
    for (_, hi), (lo, _) in zip(slices, slices[1:]):
        assert hi == lo


@given(
    n=st.integers(1, 256),
    hot=st.integers(0, 255),
    weight=st.integers(1, 10_000),
    parts=st.integers(1, 32),
)
@settings(max_examples=200, deadline=None)
def test_greedy_partition_single_hot_position(n, hot, weight, parts):
    """All weight on one position: exactly one slice carries it and the
    bound degenerates to max(weights) <= total/parts + max(weights)."""
    hot = hot % n
    w = np.zeros(n, dtype=np.int64)
    w[hot] = weight
    slices = greedy_contiguous_partition(w, parts)
    carriers = [(lo, hi) for lo, hi in slices if lo <= hot < hi]
    assert len(carriers) == 1
    lo, hi = carriers[0]
    assert w[lo:hi].sum() == weight <= weight + weight / parts
