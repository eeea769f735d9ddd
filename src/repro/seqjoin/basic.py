"""Algorithm 1 from the paper: the basic (sequential, in-core) hash join.

Two implementations of the same semantics:

* :func:`hash_join_count` — a literal rendering of Algorithm 1 with a
  bucketed hash table (kept for documentation value and as an independent
  cross-check in tests; O(|R| + |S| * bucket occupancy)).
* :func:`match_count` — the vectorized reference used as ground truth by
  the whole test suite (unique + searchsorted, exact pair counting).

Both count matching (r, s) pairs; the distributed algorithms are validated
by comparing their total match counts against these.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

__all__ = ["hash_join_count", "match_count", "match_count_by_value"]


def hash_join_count(r_values: np.ndarray, s_values: np.ndarray, n_buckets: int = 1024) -> int:
    """Literal Algorithm 1: build a bucketed table on R, probe with S.

    HashTable[h] holds the R elements hashing there; each S element scans
    its bucket for join-attribute equality.  Intended for small inputs.
    """
    if n_buckets < 1:
        raise ValueError("n_buckets must be >= 1")
    table: dict[int, list[int]] = defaultdict(list)
    for r in r_values.tolist():
        table[hash(r) % n_buckets].append(r)
    matches = 0
    for s in s_values.tolist():
        for r in table.get(hash(s) % n_buckets, ()):
            if r == s:
                matches += 1
    return matches


def match_count(r_values: np.ndarray, s_values: np.ndarray) -> int:
    """Exact equi-join pair count, vectorized (the reference oracle).

    Deduplicating R first (unique + counts) makes the binary-search pass
    walk ``|unique(R)|`` elements instead of ``|R|``, and sorting the
    probe side keeps that walk cache-local; the count is
    order-independent.  Deliberately *not* how ``NodeHashStore.probe``
    counts (one sorted array with duplicates, a bit filter, ``right -
    left``): the runs this validates must not share code with it.
    """
    if r_values.size == 0 or s_values.size == 0:
        return 0
    r_uniq, r_counts = np.unique(r_values, return_counts=True)
    queries = np.sort(s_values)
    idx = np.searchsorted(r_uniq, queries, side="left")
    np.minimum(idx, r_uniq.size - 1, out=idx)
    hit = r_uniq[idx] == queries
    return int(r_counts[idx[hit]].sum())


def match_count_by_value(r_values: np.ndarray, s_values: np.ndarray) -> dict[int, int]:
    """Per-join-value pair counts (diagnostics for skew analysis)."""
    r_vals, r_cnt = np.unique(r_values, return_counts=True)
    s_vals, s_cnt = np.unique(s_values, return_counts=True)
    common, r_idx, s_idx = np.intersect1d(r_vals, s_vals, return_indices=True)
    return {
        int(v): int(rc * sc)
        for v, rc, sc in zip(common, r_cnt[r_idx], s_cnt[s_idx])
    }
