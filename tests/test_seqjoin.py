"""Unit tests for the sequential reference joins."""

import numpy as np
import pytest

from repro.seqjoin import hash_join_count, match_count


def arrays(seed=0, n=2000, values=200):
    rng = np.random.default_rng(seed)
    return (rng.integers(0, values, n, dtype=np.uint64),
            rng.integers(0, values, n, dtype=np.uint64))


def brute_force(r, s):
    return sum(int((r == v).sum()) for v in s.tolist())


def test_match_count_against_brute_force():
    r, s = arrays(n=300, values=50)
    assert match_count(r, s) == brute_force(r, s)


def test_match_count_empty():
    empty = np.empty(0, dtype=np.uint64)
    r, _ = arrays()
    assert match_count(empty, r) == 0
    assert match_count(r, empty) == 0


def test_match_count_duplicates_count_pairs():
    r = np.array([7, 7, 7], dtype=np.uint64)
    s = np.array([7, 7], dtype=np.uint64)
    assert match_count(r, s) == 6


def test_algorithm1_agrees_with_vectorized():
    r, s = arrays(seed=1)
    assert hash_join_count(r, s) == match_count(r, s)
    assert hash_join_count(r, s, n_buckets=7) == match_count(r, s)


def test_algorithm1_validates_buckets():
    r, s = arrays()
    with pytest.raises(ValueError):
        hash_join_count(r, s, n_buckets=0)
