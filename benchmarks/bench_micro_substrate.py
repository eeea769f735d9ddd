"""Micro-benchmarks of the substrate hot paths (real wall-clock timing).

Unlike the figure benches (which time simulated protocol runs), these
measure the Python/NumPy implementation itself, guarding against
performance regressions in the per-chunk code the simulator executes
millions of times: position mapping, routing partitions, store probing,
the reshuffle's position counts and greedy cut, raw event throughput
of the DES kernel, and the host cost of one idle poll tick and of one
event due now, each beside a bare heap loop timed in the same process.
"""

from heapq import heappop, heappush
from time import perf_counter

import numpy as np
import pytest

from repro.config import Algorithm, ClusterSpec, RunConfig, WorkloadSpec
from repro.core import run_join
from repro.core.context import poll_ticker
from repro.core.messages import PollTick
from repro.data import KEY_DTYPE, ChunkBuffer
from repro.hashing import (
    HashRange,
    NodeHashStore,
    PositionMap,
    RangeRouter,
    greedy_contiguous_partition,
    partition_positions,
)
from repro.seqjoin import match_count
from repro.sim import Mailbox, Resource, Simulator

RNG = np.random.default_rng(42)
# keys are drawn in 64 bits and narrowed, as ``draw_values`` does: the
# timed calls see the program's key dtype, never a narrowing copy
VALUES = RNG.integers(0, 1 << 32, 100_000, dtype=np.uint64).astype(KEY_DTYPE)
POSMAP = PositionMap(1 << 18)
POSITIONS = POSMAP(VALUES)


def test_position_map_throughput(benchmark):
    out = benchmark(POSMAP, VALUES)
    assert out.size == VALUES.size


def test_range_router_partition_throughput(benchmark):
    router = RangeRouter.initial(
        partition_positions(1 << 18, 16), list(range(16)), 1 << 18
    )
    index, dests, counts = benchmark(
        router.route_by_destination, POSITIONS, POSITIONS.size, probe=False)
    assert dests.tolist() == list(range(16)) and counts.sum() == POSITIONS.size


def _bisected(initial: int, entries: int) -> RangeRouter:
    """``initial`` equal ranges, the widest bisected until ``entries``:
    the tables a split-based run of ``join-large`` ends up routing by."""
    router = RangeRouter.initial(
        partition_positions(1 << 18, initial), list(range(initial)), 1 << 18
    )
    while len(router.entries) < entries:
        i = max(range(len(router.entries)),
                key=lambda k: router.entries[k][0].width)
        router = router.with_bisection(
            i, router.entries[i][1][0], len(router.entries), router.version + 1
        )
    return router


def _replicated() -> RangeRouter:
    """4 ranges, the hot one a chain of 8: the replication-based table."""
    router = _bisected(4, 4)
    for node in range(4, 11):
        router = router.with_replica(1, node, router.version + 1)
    return router


def _reshuffled() -> RangeRouter:
    """The hybrid's post-reshuffle table: the hot range re-cut at arbitrary
    (odd) positions, so the lookup table has one slot per position."""
    lo, hi = 1 << 16, 1 << 17
    cuts = [lo + (hi - lo) * k // 8 | 1 for k in range(1, 8)]
    bounds = [0, lo, *cuts, hi, 3 << 16, 1 << 18]
    return RangeRouter(1 << 18, tuple(
        (HashRange(a, b), (n,)) for n, (a, b) in enumerate(zip(bounds, bounds[1:]))
    ))


@pytest.mark.parametrize("router", [
    pytest.param(_bisected(4, 4), id="4-entries"),
    pytest.param(_bisected(4, 8), id="8-entries"),
    pytest.param(_bisected(8, 18), id="18-entries"),
    pytest.param(_replicated(), id="replica-chain-x8"),
    pytest.param(_reshuffled(), id="reshuffle-unaligned-cuts"),
])
def test_route_one_generation_batch(benchmark, router):
    """What a source pays per 10 000-tuple batch at scale 1.0: the routing
    kernel laid out by receiver, the one gather and the per-receiver
    slices."""
    values, positions = VALUES[:10_000], POSITIONS[:10_000]

    def route_batch():
        index, _, counts = router.route_by_destination(
            positions, positions.size, probe=False)
        return np.split(values[index], np.cumsum(counts[0])[:-1])

    slices = benchmark(route_batch)
    assert sum(s.size for s in slices) == positions.size


@pytest.mark.parametrize("batch,runs", [
    pytest.param(200, 80, id="200x80"),      # grid-small: a 16 k-tuple block
    pytest.param(10_000, 1, id="10000x1"),   # join-large: a block of one
])
def test_route_block_of_batches(benchmark, batch, runs):
    """What a source pays per block: the position map, one sort of all the
    block's runs, one gather — against ``runs`` calls of each."""
    router = _bisected(4, 8)
    values = VALUES[:batch * runs]

    def route_block():
        order, counts = router.route_batches(POSMAP(values), batch)
        return values[order], counts

    gathered, counts = benchmark(route_block)
    assert counts.shape == (runs, len(router.entries))
    for r, run in enumerate(counts.tolist()):
        lo = r * batch
        order, want = router.route_batches(POSMAP(values[lo:lo + batch]), batch)
        assert run == want[0].tolist()
        assert np.array_equal(gathered[lo:lo + batch], values[lo:lo + batch][order])


def _per_batch_chunks(router, values, batch, probe):
    """The reference the buffer plan replaced: route each batch alone,
    append each destination's slice in ascending order, ship full chunks."""
    buf, shipped = ChunkBuffer(batch), []
    for lo in range(0, values.size, batch):
        part = values[lo:lo + batch]
        index, dests, counts = router.route_by_destination(
            POSMAP(part), batch, probe=probe)
        pieces = np.split(part[index], np.cumsum(counts[0])[:-1])
        for dest, piece in zip(dests.tolist(), pieces):
            if piece.size:
                buf.append(dest, piece)
        for dest in buf.destinations():
            while (chunk := buf.pop_full_chunk(dest)) is not None:
                shipped.append((dest, chunk.tolist()))
    return shipped + [(d, buf.pop_all(d).tolist()) for d in buf.destinations()]


@pytest.mark.parametrize("probe", [False, True], ids=["build", "probe"])
@pytest.mark.parametrize("batch,runs", [
    pytest.param(200, 81, id="200x81"),      # grid-small: a 16 k-tuple block
    pytest.param(10_000, 2, id="10000x1"),   # join-large: blocks of one
])
def test_buffer_plan_of_a_block(benchmark, batch, runs, probe):
    """What a source pays to buffer and ship a block: one destination-major
    routing of it, one plan, then a show and the full chunks per batch — the
    chunks, the partial ones flushed at the end, their destinations and
    their order those of the per-batch loop (replica chains in the probe
    phase; at 10 000 tuples two blocks of one, the second carrying the
    first's partial buffers)."""
    router = _replicated()
    values = VALUES[:batch * runs]
    blocks = [values] if runs > 2 else [values[:batch], values[batch:]]

    def plan_blocks():
        buf, shipped = ChunkBuffer(batch), []
        for block in blocks:
            index, dests, counts = router.route_by_destination(
                POSMAP(block), batch, probe=probe)
            buf.plan(block[index], dests, counts)
            while buf.batches_ahead:
                buf.show()
                for dest in buf.full():
                    while (chunk := buf.pop_full_chunk(dest)) is not None:
                        shipped.append((dest, chunk))
        return shipped + [(d, buf.pop_all(d)) for d in buf.destinations()]

    shipped = benchmark(plan_blocks)
    assert [(d, c.tolist()) for d, c in shipped] \
        == _per_batch_chunks(router, values, batch, probe)
    assert sum(c.size for _, c in shipped) >= values.size


#: a node's share of ``join-large``: 2M tuples over 16 nodes, and the
#: contiguous sixteenth of the 2**32 value space an order-preserving
#: position map confines them to
_NODE_TUPLES = 125_000
_NODE_LO, _NODE_WIDTH = 5 << 28, 1 << 28


def _uniform(n: int) -> np.ndarray:
    return RNG.integers(_NODE_LO, _NODE_LO + _NODE_WIDTH, n, dtype=np.uint64).astype(KEY_DTYPE)


def _gaussian(n: int) -> np.ndarray:
    """fig10's skew (sigma = 0.001 of the value space), cut to the central
    band holding a sixteenth of the mass: a hot node's dense, narrow range."""
    sigma = 0.001 * 2.0 ** 32
    draws = RNG.normal(2.0 ** 31, sigma, 20 * n)
    return draws[np.abs(draws - 2.0 ** 31) < 0.0784 * sigma][:n].astype(KEY_DTYPE)


def _stripes(n: int, modulus: int = 16, bucket: int = 5) -> np.ndarray:
    """What a ``LinearHashRouter`` bucket holds: positions congruent to
    ``bucket`` (mod ``modulus``) — stripes across the whole value space."""
    per_position = np.uint64((1 << 32) // POSMAP.positions)
    k = RNG.integers(0, POSMAP.positions // modulus, n, dtype=np.uint64)
    return ((k * np.uint64(modulus) + np.uint64(bucket)) * per_position
            + RNG.integers(0, per_position, n, dtype=np.uint64)).astype(KEY_DTYPE)


@pytest.mark.parametrize("draw, chunk", [
    pytest.param(_uniform, 10_000, id="uniform-10k-chunk"),
    pytest.param(_gaussian, 10_000, id="gaussian-10k-chunk"),
    pytest.param(_uniform, 200, id="small-200-chunk"),
    pytest.param(_stripes, 10_000, id="linear-bucket-stripes"),
])
def test_store_probe_throughput(benchmark, draw, chunk):
    """One probe chunk against a node-sized store, in the shapes runs
    produce: scale-1.0 chunks (few matches / ~10 % matches), a scale-0.02
    chunk, and the striped store the filter can reject little of."""
    stored, probe = draw(_NODE_TUPLES), draw(chunk)
    store = NodeHashStore(POSMAP)
    store.insert(stored)
    store.finalize()
    count = benchmark(store.probe, probe)
    assert count == match_count(stored, probe)


def test_store_finalize_throughput(benchmark):
    """Insert + finalize of a node's build side, as 10 000-tuple chunks."""
    chunks = np.split(_uniform(_NODE_TUPLES), range(10_000, _NODE_TUPLES, 10_000))

    def build():
        store = NodeHashStore(POSMAP)
        for chunk in chunks:
            store.insert(chunk)
        store.finalize()
        return store

    assert benchmark(build).stored_tuples == _NODE_TUPLES


def test_position_counts_throughput(benchmark):
    """A reshuffle member's count reply: 2.5 M stored tuples over a
    2**16-wide range, returned as occupied offsets and their counts."""
    posmap = PositionMap(1 << 16)
    values = RNG.integers(0, 1 << 32, 2_500_000, dtype=np.uint64).astype(KEY_DTYPE)
    store = NodeHashStore(posmap)
    store.insert(values)
    lo, hi = 0, 1 << 16
    offsets, counts = benchmark(store.position_counts, lo, hi)
    pos = posmap(values)
    dense = np.bincount(pos[(pos >= lo) & (pos < hi)] - lo, minlength=hi - lo)
    folded = np.zeros(hi - lo, dtype=np.int64)
    folded[offsets] += counts
    assert np.array_equal(folded, dense)


def _spill_parts_reference(positions: np.ndarray, lo: int, hi: int, k: int) -> np.ndarray:
    """``SpillStore``'s sub-range of each position, the clip/floor-division
    way: clipped into ``[lo, hi)``, then ``(p - lo) * k // (hi - lo)``."""
    width = hi - lo
    rel = np.clip(positions - lo, 0, width - 1)
    return np.minimum(rel * k // width, k - 1)


@pytest.mark.parametrize("lo, width", [
    pytest.param(1 << 16, 1 << 16, id="divisible"),
    pytest.param(12_345, 40_003, id="width-not-divisible-by-k"),
    pytest.param(7, 5, id="narrower-than-k"),
])
def test_spill_parts_of_a_chunk(benchmark, lo, width):
    """The spill sub-partition of each tuple of a 200-tuple chunk — positions
    below the node's range, inside it and at or above its end — is what the
    clip/floor-division reference gives it: the one searchsorted a spilled
    chunk pays."""
    from repro.core.driver import single_query_context
    from repro.core.spill import SpillStore

    hi = lo + width
    ctx = single_query_context(RunConfig(
        algorithm=Algorithm.OUT_OF_CORE, trace=False, lockdep=False,
        hash_positions=POSMAP.positions))
    store = SpillStore(ctx, 0, k_parts=8, hash_range=HashRange(lo, hi))
    per_position = (1 << 32) // POSMAP.positions
    positions = np.concatenate([
        RNG.integers(max(lo - 50, 0), lo + 1, 40),          # below lo, and lo
        RNG.integers(lo, hi, 120),                          # inside
        RNG.integers(hi, min(hi + 50, POSMAP.positions), 40),  # at or above hi
    ])
    chunk = (positions.astype(np.uint64) * np.uint64(per_position)
             + RNG.integers(0, per_position, positions.size, dtype=np.uint64)).astype(KEY_DTYPE)
    assert np.array_equal(ctx.posmap(chunk), positions)

    parts = benchmark(store._parts, chunk)
    assert np.array_equal(parts, _spill_parts_reference(positions, lo, hi, 8))


def test_greedy_cut_throughput(benchmark):
    weights = RNG.integers(0, 1000, 1 << 16)
    cuts = benchmark(greedy_contiguous_partition, weights, 24)
    assert len(cuts) == 24


def test_kernel_event_throughput(benchmark):
    """Raw DES events/second: ping-pong between two processes."""

    def run_kernel():
        sim = Simulator()

        def ping(sim, n):
            for _ in range(n):
                yield sim.timeout(0.001)

        for _ in range(4):
            sim.spawn(ping(sim, 2500))
        sim.run()
        return sim.processed_events

    events = benchmark(run_kernel)
    assert events >= 10_000


def _bare_heap_us(n: int = 50_000) -> float:
    """µs per entry of a bare ``(time, seq, obj)`` push/pop loop over a
    two-entry heap: the floor under any kernel event on this host."""
    obj = object()
    heap = [(0.0, 0, obj), (0.5, 1, obj)]
    t0 = perf_counter()
    for seq in range(2, n + 2):
        when = heappop(heap)[0]
        heappush(heap, (when + 1.0, seq, obj))
    return (perf_counter() - t0) / n * 1e6


def test_bare_heap_floor(benchmark):
    """The floor itself, as a benchmark of its own."""
    assert benchmark(_bare_heap_us) > 0


def _beside_the_floor(benchmark, us_per_event: float) -> None:
    floor = _bare_heap_us()
    benchmark.extra_info["us_per_event"] = round(us_per_event, 3)
    benchmark.extra_info["floor_us_per_event"] = round(floor, 3)
    print(f"{us_per_event:.2f} us an event, {us_per_event / floor:.1f}x "
          f"the bare heap's {floor:.3f} us")


def test_idle_tick_cost(benchmark):
    """Host cost of one idle poll tick: a ticker and a screened receiver
    that refuses every tick.  A tick is two events (the ticker's timeout
    off the heap and the receiver's screen entry, due now) and resumes no
    generator; ``us_per_tick`` lands in the benchmark's extra info."""
    n_ticks = 20_000

    def run_ticks():
        sim = Simulator()
        box = Mailbox(sim)

        def receiver():
            yield from box.recv(lambda m: type(m) is not PollTick)

        sim.spawn(receiver())
        poll_ticker(sim, box, 1.0, lambda: False)
        t0 = perf_counter()
        sim.run(until=n_ticks + 0.5)
        return sim.processed_events, (perf_counter() - t0) / n_ticks * 1e6

    events, us_per_tick = benchmark(run_ticks)
    assert events == 2 + 2 * n_ticks  # the two starts, then two a tick
    benchmark.extra_info["us_per_tick"] = round(us_per_tick, 3)
    _beside_the_floor(benchmark, us_per_tick / 2)


def test_zero_delay_handoff_cost(benchmark):
    """Host cost of an event due now: two processes ping-pong a message
    through two mailboxes at one instant, and the echoing side holds an
    uncontended resource for zero seconds on the way.  A round is four
    events (the echo's wake-up, its grant, its zero-length hold, the
    reply's wake-up), all due now: the heap is never touched."""
    rounds = 10_000

    def run_rounds():
        sim = Simulator()
        ping, pong, cpu = Mailbox(sim), Mailbox(sim), Resource(sim)

        def caller():
            for i in range(rounds):
                pong.put(i)
                assert (yield from ping.recv()) == i

        def echo():
            for _ in range(rounds):
                msg = yield from pong.recv()
                yield from cpu.use(0.0)
                ping.put(msg)

        sim.spawn(caller())
        sim.spawn(echo())
        t0 = perf_counter()
        sim.run()
        elapsed = perf_counter() - t0
        assert sim.now == 0.0
        return sim.processed_events, elapsed / sim.processed_events * 1e6

    events, us_per_event = benchmark(run_rounds)
    assert events == 4 + 4 * rounds  # two starts, two ends, four a round
    _beside_the_floor(benchmark, us_per_event)


def test_end_to_end_small_join(benchmark):
    """Wall-clock cost of one complete small simulated join."""
    cfg = RunConfig(
        algorithm=Algorithm.HYBRID,
        initial_nodes=2,
        workload=WorkloadSpec(r_tuples=4000, s_tuples=4000,
                              chunk_tuples=200, scale=1.0),
        cluster=ClusterSpec(n_sources=2, n_potential_nodes=16,
                            hash_memory_bytes=40_000),
        hash_positions=1 << 12,
        trace=False,
    )
    res = benchmark.pedantic(run_join, args=(cfg,),
                             kwargs={"validate": False},
                             rounds=3, iterations=1)
    assert res.nodes_used > 2
