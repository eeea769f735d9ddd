"""Direct unit tests for the Grace-style SpillStore (recursion included)."""

from pathlib import Path

import numpy as np

import repro.core.joinnode as joinnode
import repro.core.spill as spill
from tests.conftest import small_cluster, small_config, small_workload
from repro.config import Algorithm
from repro.core import run_join
from repro.core.driver import single_query_context
from repro.core.spill import SpillStore
from repro.hashing import HashRange
from repro.seqjoin import match_count


def make_store(memory=10_000, k_parts=4, rng_width=1 << 12):
    cfg = small_config(Algorithm.OUT_OF_CORE, initial=2)
    ctx = single_query_context(cfg)
    node = ctx.join_node(0)
    node.memory.capacity = memory
    store = SpillStore(ctx, 0, k_parts=k_parts,
                       hash_range=HashRange(0, rng_width))
    return ctx, node, store


def drive(ctx, gen):
    p = ctx.sim.spawn(gen)
    ctx.sim.run()
    return p.value


def joined_partitions(ctx, store):
    """Run the final passes, recording the ``(R_p, S_p)`` pair each
    sub-partition hands the in-core join (which is skipped)."""
    joined = []

    def join_partition(r_p, s_p, depth):
        joined.append((r_p, s_p))
        return 0
        yield

    store._join_partition = join_partition
    drive(ctx, store.final_passes())
    return joined


def test_write_r_partitions_by_position():
    ctx, node, store = make_store()
    values = np.random.default_rng(0).integers(0, 1 << 32, 2000,
                                               dtype=np.uint64)
    drive(ctx, store.write_r(values.copy()))
    assert store.spilled_r == 2000
    assert node.disk.bytes_written == 2000 * 100
    # The node's range is [0, 4096) of the position space: every position
    # past it lands in the last of the 4 sub-ranges of 1024 positions.
    part = np.minimum(ctx.posmap(values) // 1024, 3)
    want = [values[part == p] for p in range(4) if (part == p).any()]
    joined = joined_partitions(ctx, store)
    assert [r_p.tolist() for r_p, _ in joined] == [w.tolist() for w in want]
    assert all(s_p.size == 0 for _, s_p in joined)


def test_write_s_only_touches_parts_with_spilled_r():
    ctx, node, store = make_store(k_parts=4, rng_width=1 << 12)
    # R only in the first quarter of the range -> positions < 2^30 approx
    r = np.random.default_rng(1).integers(0, 1 << 30, 500, dtype=np.uint64)
    drive(ctx, store.write_r(r.copy()))

    def run_s():
        s = np.random.default_rng(2).integers(0, 1 << 32, 1000,
                                              dtype=np.uint64)
        written = yield from store.write_s(s)
        return written

    written = drive(ctx, run_s())
    assert 0 < written < 1000, "only the hot quarter's S tuples spill"
    assert store.spilled_s == written


def test_final_passes_match_oracle_without_recursion():
    ctx, node, store = make_store(memory=1_000_000)
    rng = np.random.default_rng(3)
    r = rng.integers(0, 1000, 3000, dtype=np.uint64)
    s = rng.integers(0, 1000, 3000, dtype=np.uint64)
    drive(ctx, store.write_r(r.copy()))

    def run_all():
        yield from store.write_s(s)
        found = yield from store.final_passes()
        return found

    found = drive(ctx, run_all())
    assert found == match_count(r, s)
    assert store.recursive_passes == 0


def test_final_passes_recurse_on_oversized_partition_and_stay_exact():
    # capacity of 100 tuples; 3000 tuples into 2 parts -> heavy recursion;
    # 500 distinct keys -> duplicates on both sides of every bucket pair
    ctx, node, store = make_store(memory=100 * 100, k_parts=2)
    rng = np.random.default_rng(4)
    r = rng.integers(0, 500, 3000, dtype=np.uint64)
    s = rng.integers(0, 500, 3000, dtype=np.uint64)
    drive(ctx, store.write_r(r.copy()))

    def run_all():
        yield from store.write_s(s)
        found = yield from store.final_passes()
        return found

    found = drive(ctx, run_all())
    assert found == match_count(r, s)
    assert store.recursive_passes > 0
    # recursion charges extra disk traffic beyond the plain readback
    plain = (store.spilled_r + store.spilled_s) * 100
    assert node.disk.bytes_read > plain


def test_recursion_depth_is_bounded():
    """Identical join values cannot be split apart: the recursion must
    stop at MAX_RECURSION and join in core anyway (exactly)."""
    ctx, node, store = make_store(memory=50 * 100, k_parts=2)
    r = np.full(2000, 7, dtype=np.uint64)  # one hot value
    s = np.full(10, 7, dtype=np.uint64)
    drive(ctx, store.write_r(r.copy()))

    def run_all():
        yield from store.write_s(s)
        found = yield from store.final_passes()
        return found

    found = drive(ctx, run_all())
    assert found == 2000 * 10
    assert store.recursive_passes <= SpillStore.MAX_RECURSION * 2


def test_an_ooc_run_whose_final_pass_recurses(monkeypatch):
    """Skew puts one node's spilled sub-partition far over its memory
    budget: its final pass re-partitions recursively, and the number of
    extra round trips, the disk traffic and the answer are pinned."""
    stores = []

    class Recorded(SpillStore):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            stores.append(self)

    monkeypatch.setattr(joinnode, "SpillStore", Recorded)
    res = run_join(small_config(
        Algorithm.OUT_OF_CORE, initial=2,
        workload=small_workload(r=8000, s=4000, sigma=0.00005),
        cluster=small_cluster(memory=20_000),  # 200 tuples per node
    ))  # oracle-checked
    assert res.is_valid and res.matches == 40
    # (spilled R, spilled S, recursive passes) of each spilled node
    assert [(s.spilled_r, s.spilled_s, s.recursive_passes) for s in stores] \
        == [(3990, 2008, 8), (4010, 1992, 8)]
    assert [(s.node.disk.bytes_read, s.node.disk.bytes_written)
            for s in stores] == [(5_398_200, 5_398_200), (5_401_800, 5_401_800)]


def test_the_spill_pass_does_not_call_the_oracle():
    """A bucket pair is joined by a ``NodeHashStore`` (sort + filter), the
    run is validated by ``seqjoin.match_count`` (unique + searchsorted):
    the out-of-core answer and its reference share no code.  The only
    module under ``repro.core`` that names ``seqjoin`` is the validator."""
    assert not hasattr(joinnode, "match_count")
    assert not hasattr(spill, "match_count")
    core = Path(joinnode.__file__).parent
    assert [p.name for p in sorted(core.glob("*.py"))
            if "seqjoin" in p.read_text()] == ["driver.py"]
