"""The columnar data plane (docs/DATA_PLANE.md).

Property tests for the chunk format and the vectorized kernels: the bulk
probe/route/build paths must agree exactly with straightforward
per-tuple reference implementations, chunk admission must be atomic, and
the whole-system simulated-time series must be invariant to everything
the data plane is allowed to vary (and byte-stable run to run) — the
per-chunk == per-tuple cost-equivalence argument of DATA_PLANE.md §3,
checked end to end for all four algorithms plus one chaos run.
"""

from collections import Counter
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tests.conftest import (
    groups_of,
    routed_to,
    shares,
    small_cluster,
    small_config,
    small_workload,
)
from repro.config import Algorithm
from repro.core import joinnode, run_join
from repro.core.datasource import DataSourceProcess
from repro.core.driver import single_query_context
from repro.core.messages import RouteUpdate, Shutdown, StartProbe
from repro.core.recovery import _share
from repro.core.scheduler import SchedulerProcess
from repro.data import (
    KEY_DTYPE,
    VALUE_BITS,
    VALUE_SPACE,
    ChunkBuffer,
    RelationStream,
    as_key_chunk,
    chunk_slices,
)
from repro.faults import CrashSpec, FaultPlan
from repro.hashing import (
    HashRange,
    LinearHashRouter,
    NodeHashStore,
    PositionMap,
    RangeRouter,
    Router,
    group_order,
)
from repro.hashing import routing, table
from repro.hashing.routing import _LUT_CAP

REPO = Path(__file__).resolve().parent.parent

#: the largest key on the value grid
KEY_MAX = VALUE_SPACE - 1

grid_arrays = hnp.arrays(
    dtype=KEY_DTYPE,
    shape=st.integers(0, 400),
    elements=st.integers(0, KEY_MAX),
)
small_key_arrays = hnp.arrays(
    dtype=KEY_DTYPE,
    shape=st.integers(0, 300),
    elements=st.integers(0, 50),  # dense keys -> many duplicate matches
)



@st.composite
def wide_and_clustered_keys(draw):
    """``(stored, probes)`` shaped to stress the store's filter geometry:
    the grid's whole span, span 0, one tuple, one heavy key, and the striped range
    a ``LinearHashRouter`` bucket holds — probed inside the stored range,
    entirely below it, entirely above it, and straddling both."""
    shape = draw(st.sampled_from(
        ["extremes", "all-equal", "single", "heavy-key", "stripes"]))
    if shape == "extremes":
        stored = [0, KEY_MAX, *draw(grid_arrays).tolist()]
    elif shape == "all-equal":
        stored = [draw(st.integers(0, KEY_MAX))] * draw(st.integers(2, 300))
    elif shape == "single":
        stored = [draw(st.integers(0, KEY_MAX))]
    elif shape == "heavy-key":
        base = draw(st.integers(0, KEY_MAX - 10**6))
        distinct = draw(st.lists(st.integers(0, 10**6), min_size=1,
                                 max_size=100, unique=True))
        stored = [base + d for d in distinct]
        stored += stored[:1] * draw(st.integers(1000, 1500))
    else:  # positions congruent to b (mod m), `width` values a position
        width = 1 << draw(st.integers(0, 19))  # (500 * 16 + 15) << 19 < 2**32
        m = draw(st.integers(2, 16))
        b = draw(st.integers(0, m - 1))
        cells = draw(st.lists(
            st.tuples(st.integers(0, 500), st.integers(0, width - 1)),
            min_size=1, max_size=200))
        stored = [(k * m + b) * width + off for k, off in cells]
    stored = draw(st.permutations(stored))
    lo, hi = min(stored), max(stored)
    near = st.sampled_from(stored).flatmap(
        lambda v: st.integers(max(v - 2, 0), min(v + 2, KEY_MAX)))
    below = st.integers(0, lo - 1) if lo > 0 else near
    above = st.integers(hi + 1, KEY_MAX) if hi < KEY_MAX else near
    where = draw(st.sampled_from(
        [near, below, above, st.one_of(near, below, above)]))
    probes = draw(st.lists(where, max_size=200))
    return (np.array(stored, dtype=KEY_DTYPE),
            np.array(probes, dtype=KEY_DTYPE))


#: what the three probe properties below run on
key_pairs = st.one_of(st.tuples(small_key_arrays, small_key_arrays),
                      wide_and_clustered_keys())


def counter_total(res, name, **labels):
    return sum(
        inst["value"] for inst in res.metrics
        if inst["name"] == name and inst["type"] == "counter"
        and all(inst["labels"].get(k) == v for k, v in labels.items())
    )


# ----------------------------------------------------------------------
# bulk probe == per-tuple reference
# ----------------------------------------------------------------------
def per_tuple_probe(stored: np.ndarray, probes: np.ndarray) -> int:
    """The per-tuple ancestor: one dict lookup per probe tuple."""
    table = Counter(stored.tolist())
    return sum(table[v] for v in probes.tolist())


def two_pass_probe(stored: np.ndarray, probes: np.ndarray) -> int:
    """The previous vectorized implementation (two searchsorted passes)."""
    if stored.size == 0 or probes.size == 0:
        return 0
    s = np.sort(stored)
    left = np.searchsorted(s, probes, side="left")
    right = np.searchsorted(s, probes, side="right")
    return int((right - left).sum())


@given(pair=key_pairs)
@settings(max_examples=200, deadline=None)
def test_bulk_probe_matches_both_references(pair):
    stored, probes = pair
    store = NodeHashStore(PositionMap(1 << 10))
    store.insert(stored)
    got = store.probe(probes)
    assert got == per_tuple_probe(stored, probes)
    assert got == two_pass_probe(stored, probes)


@given(pair=key_pairs, cut=st.integers(0, 300))
@settings(max_examples=100, deadline=None)
def test_probe_count_invariant_to_chunking(pair, cut):
    """Inserting/probing in one chunk or many yields the same pair count
    — the store-level face of the per-chunk cost-equivalence argument."""
    stored, probes = pair
    one = NodeHashStore(PositionMap(1 << 10))
    one.insert(stored)
    many = NodeHashStore(PositionMap(1 << 10))
    k = min(cut, stored.size)
    many.insert(stored[:k])
    many.insert(stored[k:])
    assert one.stored_tuples == many.stored_tuples
    j = min(cut, probes.size)
    assert one.probe(probes) == many.probe(probes[:j]) + many.probe(probes[j:])


@given(pair=key_pairs)
@settings(max_examples=50, deadline=None)
def test_probe_after_interleaved_insert_stays_exact(pair):
    """finalize() caches must invalidate on every mutation."""
    stored, probes = pair
    store = NodeHashStore(PositionMap(1 << 10))
    k = stored.size // 2
    store.insert(stored[:k])
    first = store.probe(probes)       # forces consolidation
    assert first == per_tuple_probe(stored[:k], probes)
    store.insert(stored[k:])          # mutate after finalize
    assert store.probe(probes) == per_tuple_probe(stored, probes)


# ----------------------------------------------------------------------
# admission on insert (regression: no partial apply on a bad chunk)
# ----------------------------------------------------------------------
def test_insert_rejects_without_appending():
    store = NodeHashStore(PositionMap(1 << 10))
    good = np.array([1, 2, 3], dtype=np.uint64)
    store.insert(good)
    store.finalize()
    with pytest.raises(ValueError, match="lossy"):
        store.insert(np.array([1.5, 2.5]))  # lossy floats
    # the store, its sorted array and filter included, is as it was
    assert store.stored_tuples == 3
    assert store.probe(good) == 3
    store.insert(good)
    assert store.stored_tuples == 6 and store.probe(good) == 6


def test_insert_rejects_an_object_chunk():
    store = NodeHashStore(PositionMap(1 << 10))
    with pytest.raises(TypeError, match="numeric"):
        store.insert(np.array([7, "x"], dtype=object))
    assert store.stored_tuples == 0


@given(values=hnp.arrays(dtype=np.int64, shape=st.integers(1, 50),
                         elements=st.integers(0, KEY_MAX)))
@settings(max_examples=50, deadline=None)
def test_as_key_chunk_lossless_roundtrip(values):
    chunk = as_key_chunk(values)
    assert chunk.dtype == KEY_DTYPE
    assert np.array_equal(chunk.astype(np.int64), values)


def test_as_key_chunk_rejections():
    with pytest.raises(ValueError, match="non-negative"):
        as_key_chunk(np.array([-1], dtype=np.int64))
    with pytest.raises(ValueError, match="finite"):
        as_key_chunk(np.array([np.inf]))
    with pytest.raises(ValueError, match="range"):
        as_key_chunk(np.array([2.0**65]))
    with pytest.raises(TypeError, match="numeric"):
        as_key_chunk(np.array(["a"]))


@pytest.mark.parametrize("dtype", [np.uint64, np.int64, np.float64])
def test_a_key_off_the_value_grid_is_refused(dtype):
    """A position map places values below ``VALUE_SPACE`` only (a 2**40
    key once landed at position 262144 of a 1024-position table), so
    admission takes the grid's last key and refuses the next one: at the
    chokepoint and at both store entries, before the store changes."""
    last, past = np.array([KEY_MAX], dtype), np.array([VALUE_SPACE], dtype)
    assert as_key_chunk(last).tolist() == [KEY_MAX]
    with pytest.raises(ValueError, match=f"{VALUE_BITS}-bit value grid"):
        as_key_chunk(past)
    rows = []
    store = NodeHashStore(PositionMap(1 << 10))
    store.probe_rows_counter = SimpleNamespace(inc=rows.append)
    store.insert(last)
    store.finalize()
    with pytest.raises(ValueError, match="value grid"):
        store.insert(past)
    with pytest.raises(ValueError, match="value grid"):
        store.probe(past)
    assert rows == [] and store.stored_tuples == 1
    assert store.probe(last) == 1 and rows == [1]
    assert store.posmap(store.extract_position_range(0, 1 << 10)).tolist() == [1023]


def test_keys_never_widen_in_a_run(monkeypatch):
    """Every chunk a store admits in a run already has ``KEY_DTYPE``, and
    a finalized store holds 4 bytes a tuple.  Under NumPy 2's promotion
    ``uint32 - np.uint64(x)`` and ``concatenate([uint64 empty, uint32])``
    are silently ``uint64``; admission narrows them back, one copy a
    chunk, so only counting what arrives shows a widening.  The runs: all
    four algorithms, an out-of-core pass that recurses, a hybrid
    reshuffle and a split cascade."""
    arrived, per_tuple, spill_stores = Counter(), set(), []
    admit, finalize = table.as_key_chunk, NodeHashStore.finalize

    def spy(values):
        arrived[values.dtype] += 1
        return admit(values)

    def finalize_and_weigh(store):
        finalize(store)
        if store.stored_tuples:
            per_tuple.add(store._chunks[0].nbytes / store.stored_tuples)

    class Recorded(joinnode.SpillStore):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            spill_stores.append(self)

    monkeypatch.setattr(table, "as_key_chunk", spy)
    monkeypatch.setattr(NodeHashStore, "finalize", finalize_and_weigh)
    monkeypatch.setattr(joinnode, "SpillStore", Recorded)
    for algorithm in Algorithm:
        assert run_join(small_config(algorithm, 2)).is_valid
    run_join(small_config(
        Algorithm.OUT_OF_CORE, 2,
        workload=small_workload(r=8000, s=4000, sigma=0.00005),
        cluster=small_cluster(memory=20_000)))
    assert any(s.recursive_passes for s in spill_stores)
    skewed = small_workload(sigma=1e-5)
    assert run_join(small_config(Algorithm.HYBRID, 2, workload=skewed)
                    ).reshuffle_moved_tuples > 0
    assert run_join(small_config(Algorithm.SPLIT, 2, workload=skewed)).n_splits > 0
    assert set(arrived) == {KEY_DTYPE} and arrived[KEY_DTYPE] > 100
    assert per_tuple == {4.0}


# ----------------------------------------------------------------------
# routing: vectorized grouping == per-tuple reference
# ----------------------------------------------------------------------
@given(
    keys=hnp.arrays(dtype=np.int64, shape=st.integers(0, 300),
                    elements=st.integers(0, 2**40)),
    # uint8 keys up to 256 groups, uint16 up to 65 536, wide keys above
    n_groups=st.sampled_from([1, 2, 8, 255, 256, 257, 70_000]),
)
@settings(max_examples=150, deadline=None)
def test_group_indices_matches_per_tuple_grouping(keys, n_groups):
    keys = keys % n_groups
    order, cuts = group_order(keys, n_groups)
    assert cuts.size == n_groups + 1 and cuts[0] == 0
    reference: dict[int, list[int]] = {}
    for i, k in enumerate(keys.tolist()):  # the per-tuple ancestor
        reference.setdefault(k, []).append(i)
    # stable: indices appear in original order within each group
    assert order.tolist() == [i for k in sorted(reference) for i in reference[k]]
    assert np.array_equal(np.diff(cuts),
                          np.bincount(keys, minlength=n_groups))


def per_tuple_routing(router, positions):
    """``(chain, indices)`` per non-empty range, in range order, found by
    scanning the entries for each position."""
    per_entry = [[] for _ in router.entries]
    for i, p in enumerate(positions.tolist()):
        (e,) = [k for k, (rng, _) in enumerate(router.entries) if rng.contains(p)]
        per_entry[e].append(i)
    return [(chain, idx) for (_, chain), idx in zip(router.entries, per_entry)
            if idx]


@st.composite
def range_routers(draw):
    """A tiling of [0, positions) with replica chains: bounds aligned to a
    drawn power of two (a short table) or not at all (one slot a position),
    ``positions`` itself not always a power of two."""
    align = draw(st.sampled_from([1, 1, 8, 64]))
    blocks = draw(st.integers(1, 40))
    positions = blocks * align
    cuts = sorted(draw(st.sets(st.integers(1, blocks - 1), max_size=12))
                  if blocks > 1 else [])
    bounds = [0, *(c * align for c in cuts), positions]
    nodes = iter(range(1000))
    entries = tuple(
        (HashRange(lo, hi),
         tuple(next(nodes) for _ in range(draw(st.integers(1, 3)))))
        for lo, hi in zip(bounds, bounds[1:])
    )
    return RangeRouter(positions, entries, version=draw(st.integers(0, 5)))


@given(router=range_routers(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_range_routing_matches_per_tuple_reference(router, data):
    """Every receiver's slice of ``route_by_destination``, and a takeover
    target's share recovery cuts out of it, is what a scan of the entries
    gives it position by position — group by group, arrival order within
    a group.  The two adapters the layer probes time agree too."""
    positions = data.draw(hnp.arrays(
        dtype=np.int64, shape=st.integers(0, 200),
        elements=st.integers(0, router.positions - 1)))
    for probe in (False, True):
        want = routed_to(router, positions, probe=probe)
        got = shares(router, positions, probe=probe)
        assert {n: idx.tolist() for n, idx in got.items()} == want
        for node in router.owners() | {-1}:
            assert _share(router, positions, node, probe=probe).tolist() \
                == want.get(node, [])
    assert [(chain, idx.tolist()) for chain, idx in router.probe_groups(positions)] \
        == per_tuple_routing(router, positions)
    assert {n: idx.tolist() for n, idx in router.partition_build(positions).items()} \
        == routed_to(router, positions)


def test_a_takeover_share_is_group_major_when_the_target_owns_several_ranges():
    """A takeover target can own non-adjacent ranges; its share comes in
    the partition's order (range by range), not the batch's."""
    router = RangeRouter(12, (
        (HashRange(0, 4), (9,)), (HashRange(4, 8), (1,)), (HashRange(8, 12), (9,)),
    ))
    positions = np.array([10, 1, 5, 9, 0, 11], dtype=np.int64)
    assert _share(router, positions, 9, probe=False).tolist() == [1, 4, 0, 3, 5]
    assert shares(router, positions)[9].tolist() == [1, 4, 0, 3, 5]


@pytest.mark.parametrize("positions, table", [
    (_LUT_CAP, True),        # unaligned cuts: one slot a position, at the cap
    (2 * _LUT_CAP, False),   # over it: the binary search is the fallback
])
def test_table_size_cap_selects_the_fallback(positions, table):
    cuts = [0, 3, positions // 3, positions // 2 + 1, positions - 5, positions]
    router = RangeRouter(positions, tuple(
        (HashRange(lo, hi), (n,)) for n, (lo, hi) in enumerate(zip(cuts, cuts[1:]))
    ))
    assert "_table" not in router.__dict__, "built on first use only"
    edges = np.array([0, positions - 1,
                      *(c + d for c in cuts[1:-1] for d in (-1, 0, 1))])
    rand = np.random.default_rng(3).integers(0, positions, 2000)
    pos = np.concatenate([edges, rand]).astype(np.int64)
    index, dests, counts = router.route_by_destination(pos, pos.size, probe=False)
    shift, lut = router.__dict__["_table"]
    assert shift == 0 and (lut is not None) == table
    want = [np.flatnonzero((pos >= lo) & (pos < hi)) for lo, hi in zip(cuts, cuts[1:])]
    assert dests.tolist() == list(range(len(want)))
    assert counts.tolist() == [[w.size for w in want]]
    assert index.tolist() == np.concatenate(want).tolist()


@given(
    n0=st.integers(1, 5), level=st.integers(0, 3), data=st.data(),
    positions=hnp.arrays(dtype=np.int64, shape=st.integers(0, 200),
                         elements=st.integers(0, 1 << 18)),
)
@settings(max_examples=100, deadline=None)
def test_linear_routing_matches_per_tuple_reference(n0, level, data, positions):
    m = n0 << level
    pointer = data.draw(st.integers(0, m - 1))  # anywhere, mid-level included
    # several buckets may share a node (after a takeover)
    nodes = tuple(data.draw(st.lists(st.integers(0, 6), min_size=m + pointer,
                                     max_size=m + pointer)))
    router = LinearHashRouter(n0, level, pointer, nodes)
    per_bucket: dict[int, list[int]] = {}
    for i, p in enumerate(positions.tolist()):  # Litwin's address function
        b = p % m
        if b < pointer:
            b = p % (2 * m)
        per_bucket.setdefault(b, []).append(i)
    want: dict[int, list[int]] = {}
    for b in sorted(per_bucket):
        want.setdefault(nodes[b], []).extend(per_bucket[b])
    for probe in (False, True):  # one receiver a bucket: the phases agree
        got = shares(router, positions, probe=probe)
        assert {n: idx.tolist() for n, idx in got.items()} == dict(sorted(want.items()))
    for node in set(nodes):
        assert _share(router, positions, node, probe=True).tolist() \
            == want.get(node, [])


@given(kind=st.sampled_from(["ranges", "single", "linear", "linear-wide"]),
       batch=st.integers(1, 60), cap=st.sampled_from([1, 16, 1 << 16]),
       data=st.data())
@settings(max_examples=200, deadline=None)
def test_routing_a_block_of_batches_equals_routing_each_batch(kind, batch, cap, data):
    """``route_batches`` is, run by run, the stable order of the runs'
    positions by group and their count per group, each position's group
    found alone — with a ragged last run, and when ``runs * n_groups`` is past
    the radix key space (``cap``: patched low, or 400 runs of 300 buckets
    under the real one) and the block takes several sorts."""
    if kind == "ranges":
        router = data.draw(range_routers())
    elif kind == "single":
        router = RangeRouter(1 << 10, ((HashRange(0, 1 << 10), (3, 9)),))
    else:
        n0 = 300 if kind == "linear-wide" else data.draw(st.integers(1, 5))
        pointer = data.draw(st.integers(0, n0 - 1))
        router = LinearHashRouter(n0, 0, pointer, tuple(range(n0 + pointer)))
    top = router.positions if isinstance(router, RangeRouter) else 1 << 18
    positions = data.draw(hnp.arrays(
        dtype=np.int64, shape=st.integers(0, 400),
        elements=st.integers(0, top - 1)))

    with mock.patch.object(routing, "_RADIX_KEYS", cap):
        order, counts = router.route_batches(positions, batch)

    n_groups = len(router._chains())
    groups = groups_of(router, positions)
    assert order.dtype == np.intp
    assert counts.shape == (-(-positions.size // batch), n_groups)
    for r, run in enumerate(counts.tolist()):
        lo = r * batch
        keys = groups[lo:lo + batch]
        assert (order[lo:lo + batch] - lo).tolist() \
            == sorted(range(len(keys)), key=keys.__getitem__)
        assert run == [keys.count(g) for g in range(n_groups)]


@given(router=range_routers(), batch=st.integers(1, 60), probe=st.booleans(),
       cap=st.sampled_from([1, 1 << 16]), data=st.data())
@settings(max_examples=200, deadline=None)
def test_destination_major_routing_is_route_run_by_run(router, batch, probe, cap, data):
    """``route_by_destination`` lays each receiver's tuples end to end —
    run by run, each run range by range, a probe tuple once per replica —
    exactly as routing each run alone, position by position, and collecting
    per receiver would."""
    positions = data.draw(hnp.arrays(
        dtype=np.int64, shape=st.integers(0, 400),
        elements=st.integers(0, router.positions - 1)))
    with mock.patch.object(routing, "_RADIX_KEYS", cap):
        index, dests, counts = router.route_by_destination(positions, batch, probe=probe)

    receivers = sorted({d for chain in router._chains()
                        for d in (chain if probe else chain[-1:])})
    assert dests.tolist() == receivers
    want: dict[int, list[int]] = {d: [] for d in receivers}
    want_counts = []
    for lo in range(0, positions.size, batch):
        run = routed_to(router, positions[lo:lo + batch], probe=probe)
        for d in receivers:
            want[d] += [i + lo for i in run.get(d, [])]
        want_counts.append([len(run.get(d, [])) for d in receivers])
    assert counts.reshape(-1, len(receivers)).tolist() == want_counts
    assert index.tolist() == [i for d in receivers for i in want[d]]


@given(router=range_routers(), data=st.data(), probe=st.booleans(),
       skip=st.booleans())
@settings(max_examples=150, deadline=None)
def test_buffering_a_routed_batch_keeps_the_append_order(router, data, probe, skip):
    """One gather + slices fills the buffers exactly as one gather per
    destination did: per-destination tuple order *and* the order
    destinations are first appended in (what ``drain_everything`` walks)."""
    positions = data.draw(hnp.arrays(
        dtype=np.int64, shape=st.integers(0, 200),
        elements=st.integers(0, router.positions - 1)))
    values = (positions * 7 + 3).astype(np.uint64)
    skipped = data.draw(st.sampled_from(sorted(router.owners()))) if skip else None

    want = ChunkBuffer(16)
    parts = routed_to(router, positions, probe=probe)
    for dest, idx in parts.items():
        if dest != skipped:
            want.append(dest, values[idx])
    got = ChunkBuffer(16)
    copies = DataSourceProcess._buffer_routed(
        SimpleNamespace(router=router), got, values, positions,
        probe=probe, skip=skipped)

    assert copies == sum(map(len, parts.values()))
    assert got.destinations() == want.destinations()
    assert [(d, v.tolist()) for d, v in got.contents()] \
        == [(d, v.tolist()) for d, v in want.contents()]
    assert np.array_equal(got.drain_everything(), want.drain_everything())


class ScriptedSource(DataSourceProcess):
    """A source that records its buffers and ``dup_tuples`` at every batch
    boundary and every chunk it ships, and whose table is replaced at
    scripted boundaries — keyed by ``(R batches done, S batches done)`` —
    either by a message left in its mailbox for the next batch to absorb
    (the scheduler's ``RouteUpdate`` / ``StartProbe``) or outright, as the
    fault layer's ``_at_boundary`` installs a takeover table."""

    def __init__(self, ctx, router, script):
        super().__init__(ctx, 0, router)
        self.script = script
        self.seen = []
        self.shipped = []

    def _at_boundary(self, buffers):
        if buffers is not None:
            self.seen.append((
                dict(self.batches_done), self.dup_tuples, self.router.version,
                [(d, values.tolist()) for d, values in buffers.contents()]))
        for action in self.script.get(
                (self.batches_done["R"], self.batches_done["S"]), ()):
            if isinstance(action, Router):
                self.router = action
            else:
                self.node.mailbox.put(action)
        return ()

    def _ship(self, dest, relation, values):
        self.shipped.append((dest, relation, values.tolist(), self.router.version))
        return ()


class PerBatchSource(ScriptedSource):
    """The reference: position-map, route and gather one batch at a time
    (the loop ``_stream_relation`` was before it looked a block ahead)."""

    def _route_into(self, buffers, values, relation):
        yield from self._charge_routing(values.size)
        copies = self._buffer_routed(buffers, values, self.ctx.posmap(values),
                                     probe=relation == "S")
        self.dup_tuples += copies - int(values.size)

    def _stream_relation(self, stream, relation):
        buffers = ChunkBuffer(self.chunk_tuples)
        for batch in stream.batches():
            yield from self._produce(batch)
            if self._absorb_control() and buffers.total_buffered:
                pool = buffers.drain_everything()
                yield from self._route_into(buffers, pool, relation)
            yield from self._route_into(buffers, batch, relation)
            self.batches_done[relation] += 1
            yield from self._at_boundary(buffers)
            for dest in buffers.full():
                while (chunk := buffers.pop_full_chunk(dest)) is not None:
                    yield from self._send_chunk(dest, relation, chunk)
        self._absorb_control()
        yield from self._at_boundary(buffers)
        for dest in buffers.destinations():
            values = buffers.pop_all(dest)
            if values is not None:
                yield from self._send_chunk(dest, relation, values)


@pytest.mark.parametrize("block_tuples", [64, 64 * 10, 1 << 14])
def test_a_table_replaced_mid_block_buffers_what_the_per_batch_loop_buffers(
        block_tuples):
    """The lookahead's one invalidation rule: whenever ``self.router`` is
    another object, the rest of the block is routed again.  Replicate
    expansions and a bisection during the build, the build -> probe switch,
    and tables installed at the boundary itself (in consecutive batches and
    across a block edge) leave buffers, ``dup_tuples``, shipped chunks and
    ``chunks_routed`` exactly as the per-batch loop leaves them."""
    from repro.data import relation as relation_module

    def run(cls):
        ctx = single_query_context(small_config(
            workload=small_workload(r=4000, s=4000, chunk=64)))
        ctx.send = lambda src, dst, msg, **kw: ()
        v0 = SchedulerProcess(ctx).router           # node 0 | node 1
        v1 = v0.with_replica(1, 5, version=1)       # replicate expansion
        v2 = v1.with_bisection(0, 0, 6, version=2)
        v3 = v2.with_replica(2, 7, version=3)
        probe = v3.with_replica(0, 8, version=4)    # chains of 2, 1 and 3
        v5 = probe.with_takeover({5}, 9, version=5)
        v6 = v5.with_replica(0, 10, version=6)
        script = {
            (3, 0): [RouteUpdate(v1)],
            (4, 0): [RouteUpdate(v2)],              # the very next batch
            (9, 0): [v3],                           # installed, last of a block
            (31, 0): [StartProbe(router=probe)],
            (32, 5): [RouteUpdate(v5, phase="probe")],
            (32, 6): [v6],
            (32, 32): [Shutdown()],
        }
        src = cls(ctx, v0, script)
        with mock.patch.object(relation_module, "BLOCK_TUPLES", block_tuples):
            ctx.sim.spawn(src.run())
            ctx.sim.run()
        assert src.batches_done == {"R": 32, "S": 32} and src._stopped
        return src

    got, want = run(ScriptedSource), run(PerBatchSource)
    assert len(got.seen) == len(want.seen) == 66
    for a, b in zip(got.seen, want.seen):
        assert a == b
    assert {v for _, _, v, _ in got.seen} == {0, 1, 2, 3, 4, 5, 6}
    assert got.shipped == want.shipped
    assert got.dup_tuples == want.dup_tuples > 0
    assert got.chunks_routed.value == want.chunks_routed.value > 64


# ----------------------------------------------------------------------
# chunk plumbing
# ----------------------------------------------------------------------
@given(total=st.integers(0, 5000), chunk=st.integers(1, 700))
@settings(max_examples=100, deadline=None)
def test_chunk_slices_tile_exactly(total, chunk):
    spans = list(chunk_slices(total, chunk))
    assert sum(hi - lo for lo, hi in spans) == total
    pos = 0
    for lo, hi in spans:
        assert lo == pos and lo < hi
        assert hi - lo <= chunk
        pos = hi
    if spans:
        assert all(hi - lo == chunk for lo, hi in spans[:-1])


@given(
    appends=st.lists(
        st.tuples(st.integers(0, 3), small_key_arrays), max_size=20
    ),
    chunk=st.integers(1, 50),
)
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_chunk_buffer_preserves_order_and_multiset(appends, chunk):
    buf = ChunkBuffer(chunk)
    expect: dict[int, list[int]] = {}
    for dest, values in appends:
        buf.append(dest, values)
        expect.setdefault(dest, []).extend(values.tolist())
    for dest in buf.destinations():
        out = []
        while (c := buf.pop_full_chunk(dest)) is not None:
            assert c.size == chunk
            out.extend(c.tolist())
        rest = buf.pop_all(dest)
        if rest is not None:
            assert rest.size < chunk
            out.extend(rest.tolist())
        assert out == expect[dest]
    assert buf.total_buffered == 0


@given(
    ops=st.lists(st.one_of(
        st.tuples(st.just("append"), st.integers(0, 3), small_key_arrays),
        st.tuples(st.just("pop_full_chunk"), st.integers(0, 4)),
        st.tuples(st.just("pop_all"), st.integers(0, 4)),
        st.tuples(st.just("drain_everything")),
    ), max_size=40),
    chunk=st.integers(1, 60),
)
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_chunk_buffer_against_a_list_model(ops, chunk):
    """Any interleaving of the four operations against plain lists: what
    each pop returns, ``destinations()``, and the order ``drain_everything``
    concatenates in — destinations by *first append since the last drain*,
    a destination emptied by pops keeping its place."""
    buf = ChunkBuffer(chunk)
    model: dict[int, list[int]] = {}  # insertion order == first-append order
    for op, *args in ops:
        if op == "append":
            dest, values = args
            before = values.copy()
            buf.append(dest, values)
            if values.size:
                model.setdefault(dest, []).extend(values.tolist())
            assert np.array_equal(values, before), "appended arrays are never mutated"
        elif op == "pop_full_chunk":
            got = buf.pop_full_chunk(args[0])
            have = model.get(args[0], [])
            if len(have) < chunk:
                assert got is None
            else:
                assert got.tolist() == have[:chunk]
                del have[:chunk]
        elif op == "pop_all":
            got = buf.pop_all(args[0])
            have = model.get(args[0], [])
            assert (got is None) if not have else (got.tolist() == have)
            have.clear()
        else:
            got = buf.drain_everything()
            assert got.dtype == KEY_DTYPE
            assert got.tolist() == [v for have in model.values() for v in have]
            model.clear()
        assert buf.destinations() == sorted(d for d, have in model.items() if have)
        assert buf.total_buffered == sum(len(have) for have in model.values())


block_plans = st.lists(  # batches of a block: per destination, its tuples
    st.dictionaries(st.integers(0, 3), hnp.arrays(
        dtype=np.uint64, shape=st.integers(0, 30), elements=st.integers(0, 50)),
        max_size=4),
    min_size=1, max_size=5)


@given(
    ops=st.lists(st.one_of(
        st.tuples(st.just("append"), st.integers(0, 3), small_key_arrays),
        st.tuples(st.just("plan"), block_plans),
        st.tuples(st.just("show")),
        st.tuples(st.just("pop_full_chunk"), st.integers(0, 4)),
        st.tuples(st.just("pop_all"), st.integers(0, 4)),
        st.tuples(st.just("drain_everything")),
    ), max_size=40),
    chunk=st.integers(1, 60),
)
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_chunk_buffer_plan_against_a_list_model(ops, chunk):
    """Plans interleaved with appends, pops and drains, against plain
    lists where each shown batch is appended destination by destination,
    ascending — the per-batch loop: what each pop returns, ``full()``,
    ``contents()`` (first-visible order), and that any other way in drops
    what a plan had not shown yet."""
    buf = ChunkBuffer(chunk)
    model: dict[int, list[int]] = {}
    pending: list[dict] = []
    for op, *args in ops:
        if op == "append":
            dest, values = args
            buf.append(dest, values)
            if values.size:
                pending = []
                model.setdefault(dest, []).extend(values.tolist())
        elif op == "plan":
            batches = args[0]
            dests = sorted({d for batch in batches for d in batch})
            empty = np.empty(0, dtype=np.uint64)
            gather = np.concatenate([empty] + [batch.get(d, empty) for d in dests
                                               for batch in batches])
            counts = np.array([[batch[d].size if d in batch else 0 for d in dests]
                               for batch in batches], dtype=np.intp).reshape(len(batches), -1)
            buf.plan(gather, np.array(dests, dtype=np.intp), counts)
            pending = list(batches)
            assert buf.batches_ahead == len(batches)
        elif op == "show":
            if not pending:
                continue
            batch = pending.pop(0)
            assert buf.show() == sum(v.size for v in batch.values())
            for dest in sorted(batch):
                if batch[dest].size:
                    model.setdefault(dest, []).extend(batch[dest].tolist())
        elif op == "pop_full_chunk":
            got = buf.pop_full_chunk(args[0])
            have = model.get(args[0], [])
            if len(have) < chunk:
                assert got is None
            else:
                assert got.tolist() == have[:chunk]
                del have[:chunk]
        elif op == "pop_all":
            got = buf.pop_all(args[0])
            have = model.get(args[0], [])
            assert (got is None) if not have else (got.tolist() == have)
            have.clear()
        else:
            got = buf.drain_everything()
            assert got.tolist() == [v for have in model.values() for v in have]
            model.clear()
            pending = []
        assert buf.batches_ahead == len(pending)
        assert buf.full() == sorted(d for d, have in model.items() if len(have) >= chunk)
        assert [(d, v.tolist()) for d, v in buf.contents()] \
            == [(d, have) for d, have in model.items() if have]
        assert buf.total_buffered == sum(len(have) for have in model.values())


def test_popping_one_large_append_copies_each_tuple_once():
    """A 40-chunk re-partition pool popped chunk by chunk: every chunk is a
    fresh array (the pool is not pinned by what was sent) and the backlog
    is never re-concatenated — it stays a view of the one append."""
    pool = np.arange(4000, dtype=np.uint64)
    buf = ChunkBuffer(100)
    buf.append(0, pool)
    for k in range(39):
        chunk = buf.pop_full_chunk(0)
        assert chunk.base is None and chunk[0] == 100 * k
        (rest,) = buf._parts[0]
        assert rest.base is pool
    assert buf.pop_full_chunk(0).tolist() == list(range(3900, 4000))
    assert buf.pop_full_chunk(0) is None and buf.total_buffered == 0


def test_relation_stream_limit_is_a_prefix():
    wl = small_workload(r=2000, s=500, chunk=150)
    stream = RelationStream(wl, "R", 2, 0)
    full = list(stream.batches())
    assert len(full) == stream.n_batches
    for k in (0, 1, 3, len(full), len(full) + 5):
        prefix = list(stream.batches(limit=k))
        assert len(prefix) == min(k, len(full))
        for a, b in zip(prefix, full):
            assert np.array_equal(a, b)


# ----------------------------------------------------------------------
# whole-system: chunked plane reproduces the per-tuple cost model
# ----------------------------------------------------------------------
@pytest.mark.parametrize("algorithm", list(Algorithm))
def test_simulated_series_deterministic_and_oracle_exact(algorithm):
    """Every algorithm: oracle-exact matches and a byte-stable simulated
    makespan across repeated runs of the chunked plane."""
    wl = small_workload(r=3000, s=3000, sigma=0.001, seed=11)
    cfg = small_config(algorithm, initial=2, workload=wl,
                       cluster=small_cluster(pool=10))
    first = run_join(cfg)   # validate=True: asserts matches == oracle
    second = run_join(cfg)
    assert first.is_valid and second.is_valid
    assert first.matches == second.matches
    assert first.total_s == second.total_s  # byte-identical, not approx
    assert counter_total(first, "dataplane.chunks_routed") > 0
    assert counter_total(first, "dataplane.bulk_probe_rows") >= wl.s_tuples


@pytest.mark.chaos
def test_chaos_run_stays_exact_on_the_chunked_plane():
    """PR-2-style adversity (message/ack drops + one dormant-node crash)
    perturbs timing and retries only: the chunked data plane still
    produces the fault-free run's exact match count."""
    plan = FaultPlan(
        seed=1234,
        drop_prob=0.02,
        ack_drop_prob=0.02,
        crashes=(CrashSpec(node=15, at_phase="build"),),
    )
    wl = small_workload(sigma=1e-5)
    base = run_join(small_config(Algorithm.HYBRID, initial=2, workload=wl))
    res = run_join(small_config(Algorithm.HYBRID, initial=2, workload=wl,
                                faults=plan))
    assert res.matches == base.matches == res.reference_matches


# ----------------------------------------------------------------------
# docs wiring (satellite: the new docs are linked from the indexes)
# ----------------------------------------------------------------------
def test_dataplane_docs_are_linked_from_indexes():
    readme = (REPO / "README.md").read_text()
    assert "docs/DATA_PLANE.md" in readme
    assert "docs/PERFORMANCE.md" in readme
    arch = (REPO / "docs" / "ARCHITECTURE.md").read_text()
    assert "DATA_PLANE.md" in arch
    assert "PERFORMANCE.md" in arch
    # the data-plane metrics are declared, so the generated catalogue lists them
    obs = (REPO / "docs" / "OBSERVABILITY.md").read_text()
    assert "`dataplane.chunks_routed`" in obs
    assert "`dataplane.bulk_probe_rows`" in obs
