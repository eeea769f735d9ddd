"""Direct unit tests for the Grace-style SpillStore (recursion included)."""

from pathlib import Path

import numpy as np

import repro.core.joinnode as joinnode
from tests.conftest import small_config
from repro.config import Algorithm
from repro.core.driver import single_query_context
from repro.core.joinnode import SpillStore
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


def test_write_r_partitions_by_position():
    ctx, node, store = make_store()
    values = np.random.default_rng(0).integers(0, 1 << 32, 2000,
                                               dtype=np.uint64)
    drive(ctx, store.write_r(values.copy()))
    assert store.spilled_r == 2000
    total = sum(sum(a.size for a in part) for part in store._r_parts)
    assert total == 2000
    assert node.disk.bytes_written == 2000 * 100


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


def test_the_spill_pass_does_not_call_the_oracle():
    """A bucket pair is joined by a ``NodeHashStore`` (sort + filter), the
    run is validated by ``seqjoin.match_count`` (unique + searchsorted):
    the out-of-core answer and its reference share no code.  The only
    module under ``repro.core`` that names ``seqjoin`` is the validator."""
    assert not hasattr(joinnode, "match_count")
    core = Path(joinnode.__file__).parent
    assert [p.name for p in sorted(core.glob("*.py"))
            if "seqjoin" in p.read_text()] == ["driver.py"]
