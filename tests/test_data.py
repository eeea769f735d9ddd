"""Unit tests for synthetic relation generation."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import Distribution, WorkloadSpec
from repro.data import (
    KEY_DTYPE,
    VALUE_SPACE,
    RelationStream,
    draw_values,
    materialize_relation,
    source_share,
)


def spec(**kw):
    defaults = dict(r_tuples=50_000, s_tuples=30_000, scale=1.0,
                    chunk_tuples=1000)
    defaults.update(kw)
    return WorkloadSpec(**defaults)


# ----------------------------------------------------------------------
# distributions
# ----------------------------------------------------------------------
def test_uniform_values_cover_space():
    rng = np.random.default_rng(0)
    v = draw_values(rng, 100_000, spec())
    assert v.dtype == KEY_DTYPE
    assert int(v.max()) < VALUE_SPACE
    # coarse uniformity: each quartile holds 20-30%
    counts, _ = np.histogram(v.astype(np.float64), bins=4,
                             range=(0, VALUE_SPACE))
    assert all(0.2 < c / v.size < 0.3 for c in counts)


def test_gaussian_concentrates_mass():
    rng = np.random.default_rng(0)
    s = spec(distribution=Distribution.GAUSSIAN, gauss_sigma=0.0001)
    v = draw_values(rng, 100_000, s)
    center = 0.5 * VALUE_SPACE
    width = 0.001 * VALUE_SPACE
    inside = ((v.astype(np.float64) > center - width)
              & (v.astype(np.float64) < center + width)).mean()
    assert inside > 0.99


def test_gaussian_sigma_controls_spread():
    rng1, rng2 = np.random.default_rng(1), np.random.default_rng(1)
    tight = draw_values(rng1, 50_000,
                        spec(distribution=Distribution.GAUSSIAN,
                             gauss_sigma=0.0001))
    loose = draw_values(rng2, 50_000,
                        spec(distribution=Distribution.GAUSSIAN,
                             gauss_sigma=0.01))
    assert tight.astype(np.float64).std() < loose.astype(np.float64).std()


def test_gaussian_requires_positive_sigma():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        draw_values(rng, 10, spec(distribution=Distribution.GAUSSIAN,
                                  gauss_sigma=0.0))


def test_zipf_produces_heavy_hitters():
    rng = np.random.default_rng(0)
    v = draw_values(rng, 100_000, spec(distribution=Distribution.ZIPF,
                                       zipf_s=1.2))
    _, counts = np.unique(v, return_counts=True)
    assert counts.max() > 100  # the head rank dominates


def test_zipf_requires_exponent_above_one():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        draw_values(rng, 10, spec(distribution=Distribution.ZIPF, zipf_s=1.0))


def test_draw_values_empty_and_negative():
    rng = np.random.default_rng(0)
    assert draw_values(rng, 0, spec()).size == 0
    with pytest.raises(ValueError):
        draw_values(rng, -1, spec())


# ----------------------------------------------------------------------
# streams
# ----------------------------------------------------------------------
def test_source_share_sums_to_total():
    for total in (0, 1, 7, 100, 12345):
        for n in (1, 3, 4, 8):
            shares = [source_share(total, n, i) for i in range(n)]
            assert sum(shares) == total
            assert max(shares) - min(shares) <= 1


def test_source_share_bad_index():
    with pytest.raises(IndexError):
        source_share(100, 4, 4)


def test_stream_batches_sum_to_share():
    s = spec()
    stream = RelationStream(s, "R", 4, 1)
    batches = list(stream.batches())
    assert sum(b.size for b in batches) == stream.total_tuples
    assert all(b.size <= s.real_chunk_tuples for b in batches)


def per_batch_stream(stream, limit=None):
    """The reference: one ``draw_values`` call a batch (the loop
    ``batches()`` was before it drew by the block)."""
    rng = stream._rng()
    remaining = stream.total_tuples
    out = []
    while remaining > 0 and (limit is None or len(out) < limit):
        n = min(stream.spec.real_chunk_tuples, remaining)
        out.append(draw_values(rng, n, stream.spec, relation=stream.relation))
        remaining -= n
    return out


@given(
    distribution=st.sampled_from(list(Distribution)),
    relation=st.sampled_from(["R", "S"]),
    batch=st.sampled_from([1, 7, 64, 199, 200, 1000]),
    # a relation holds at least one tuple (WorkloadSpec refuses fewer);
    # 0 drew the same single tuple as 1 through real_r_tuples' floor
    total=st.integers(1, 5000),
    n_sources=st.integers(1, 4),
    block=st.sampled_from([1, 100, 1500, 1 << 14]),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_block_drawn_batches_are_the_per_batch_stream(
        distribution, relation, batch, total, n_sources, block, data):
    """Drawing a block of batches per NumPy call changes no value: NumPy's
    generators are split-consistent for all three distributions, ragged
    last batch and last block included; ``limit=k`` is a prefix that draws
    no tuple past batch ``k``."""
    from repro.data import relation as relation_module

    wl = spec(r_tuples=total, s_tuples=total, chunk_tuples=batch,
              distribution=distribution, zipf_s=1.3)
    source = data.draw(st.integers(0, n_sources - 1))
    stream = RelationStream(wl, relation, n_sources, source)
    want = per_batch_stream(stream)
    assert len(want) == stream.n_batches
    limit = data.draw(st.integers(-1, stream.n_batches + 2))

    drawn = []

    def counting_draw(rng, n, *args, **kw):
        drawn.append(n)
        return draw_values(rng, n, *args, **kw)

    with mock.patch.object(relation_module, "BLOCK_TUPLES", block), \
            mock.patch.object(relation_module, "draw_values", counting_draw):
        got = list(stream.batches())
        blocks = list(stream.blocks())
        drawn.clear()
        prefix = list(stream.batches(limit=limit))
        drawn_for_prefix = sum(drawn)

    assert [b.tolist() for b in got] == [b.tolist() for b in want]
    # a block is a whole number of batches (but for the stream's tail), at
    # least one and as many as fit the constant
    assert all(b.size == max(block // batch, 1) * batch for b in blocks[:-1])
    assert np.array_equal(np.concatenate(blocks or [np.empty(0, np.uint64)]),
                          np.concatenate(want or [np.empty(0, np.uint64)]))
    k = min(max(limit, 0), len(want))
    assert [b.tolist() for b in prefix] == [b.tolist() for b in want[:k]]
    assert drawn_for_prefix == sum(b.size for b in want[:k])


def test_stream_is_deterministic():
    s = spec()
    a = np.concatenate(list(RelationStream(s, "R", 4, 2).batches()))
    b = np.concatenate(list(RelationStream(s, "R", 4, 2).batches()))
    assert np.array_equal(a, b)


def test_streams_differ_across_sources_and_relations():
    s = spec()
    r0 = np.concatenate(list(RelationStream(s, "R", 4, 0).batches()))
    r1 = np.concatenate(list(RelationStream(s, "R", 4, 1).batches()))
    s0 = np.concatenate(list(RelationStream(s, "S", 4, 0).batches()))
    assert not np.array_equal(r0[:100], r1[:100])
    assert not np.array_equal(r0[:100], s0[:100])


def test_stream_rejects_bad_relation():
    with pytest.raises(ValueError):
        RelationStream(spec(), "X", 4, 0)


def test_materialize_equals_union_of_streams():
    s = spec()
    full = materialize_relation(s, "S", 3)
    assert full.size == s.real_s_tuples
    parts = [
        np.concatenate(list(RelationStream(s, "S", 3, i).batches()))
        for i in range(3)
    ]
    assert np.array_equal(full, np.concatenate(parts))


def test_scale_reduces_real_counts():
    s = spec(scale=0.1)
    assert s.real_r_tuples == 5_000
    assert s.real_s_tuples == 3_000
    assert s.real_chunk_tuples == 100
    assert materialize_relation(s, "R", 2).size == 5_000


def test_per_relation_distribution_overrides():
    """Paper §5: mean/sigma can be set individually per relation."""
    s = spec(distribution=Distribution.GAUSSIAN, gauss_mean=0.2,
             gauss_sigma=0.001, s_gauss_mean=0.8)
    r = materialize_relation(s, "R", 2).astype(np.float64) / VALUE_SPACE
    sv = materialize_relation(s, "S", 2).astype(np.float64) / VALUE_SPACE
    assert abs(r.mean() - 0.2) < 0.01
    assert abs(sv.mean() - 0.8) < 0.01


def test_disjoint_means_produce_no_matches():
    from repro.seqjoin import match_count

    s = spec(distribution=Distribution.GAUSSIAN, gauss_mean=0.2,
             gauss_sigma=0.0001, s_gauss_mean=0.8, s_gauss_sigma=0.0001)
    r = materialize_relation(s, "R", 2)
    sv = materialize_relation(s, "S", 2)
    assert match_count(r, sv) == 0


def test_mixed_distributions_per_relation():
    s = spec(distribution=Distribution.UNIFORM,
             s_distribution=Distribution.GAUSSIAN, s_gauss_sigma=0.0001)
    r = materialize_relation(s, "R", 2).astype(np.float64)
    sv = materialize_relation(s, "S", 2).astype(np.float64)
    assert r.std() > 3 * sv.std()
