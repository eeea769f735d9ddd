"""SpillStore's pass-time partitions against the k-mask reference."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tests.conftest import small_config
from repro.config import Algorithm
from repro.core.driver import single_query_context
from repro.core.spill import SpillStore
from repro.hashing import HashRange

keys = hnp.arrays(dtype=np.uint64, shape=st.integers(0, 300),
                  elements=st.integers(0, (1 << 32) - 1))


@given(r_chunks=st.lists(keys, max_size=3), s_chunks=st.lists(keys, max_size=3),
       k=st.sampled_from([1, 2, 3, 8, 300]),
       lo=st.integers(0, 1 << 11), width=st.integers(1, 1 << 11))
@settings(max_examples=100, deadline=None)
def test_split_writes_what_one_mask_per_partition_writes(r_chunks, s_chunks, k, lo, width):
    """The final passes join, sub-partition by sub-partition, the tuples
    the per-partition boolean masks select chunk by chunk, in arrival
    order — and S spills only where R had spilled before it."""
    ctx = single_query_context(small_config(Algorithm.OUT_OF_CORE, initial=2))
    store = SpillStore(ctx, 0, k_parts=k, hash_range=HashRange(lo, lo + width))
    want_r = [[] for _ in range(k)]
    want_s = [[] for _ in range(k)]

    def part_of(values):
        """A position's sub-range: clipped into the node's range, then
        ``(p - lo) * k // width``."""
        rel = np.clip(ctx.posmap(values) - lo, 0, width - 1)
        return np.minimum(rel * k // width, k - 1)

    for values in r_chunks:
        parts = part_of(values)
        for p in range(k):
            want_r[p] += values[parts == p].tolist()
    for values in s_chunks:
        parts = part_of(values)
        for p in range(k):
            if want_r[p]:
                want_s[p] += values[parts == p].tolist()

    joined = []

    def join_partition(r_p, s_p, depth):  # what the pass joins, recorded
        joined.append((r_p.tolist(), s_p.tolist(), depth))
        return 0
        yield

    store._join_partition = join_partition

    def drive():
        for values in r_chunks:
            yield from store.write_r(values)
        written = 0
        for values in s_chunks:
            written += yield from store.write_s(values)
        yield from store.final_passes()
        return written

    proc = ctx.sim.spawn(drive())
    ctx.sim.run()
    assert joined == [(want_r[p], want_s[p], 0) for p in range(k) if want_r[p]]
    assert store.spilled_r == sum(map(len, want_r))
    assert proc.value == store.spilled_s == sum(map(len, want_s))
