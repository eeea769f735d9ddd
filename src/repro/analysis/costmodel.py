"""The paper's §4.2.4 analytic overhead model.

With bucket size ``B`` bytes, ``O`` original buckets, ``F`` final buckets
and expansion factor ``E = F / O``, and ``t_w`` seconds per byte across the
network, the paper derives:

* split-based overhead    ``T_split  = log2(E) * (B / 2) * t_w``
  (per original bucket: each of the ``log2 E`` doubling rounds transfers
  half a bucket's worth of data),
* hybrid (reshuffle)      ``T_hybrid = ((E - 1) / E) * B * t_w``
  (each tuple moves at most once; in expectation the fraction that ends up
  on a different node is ``(E-1)/E``).

The model predicts the split overhead grows faster with E — validated by
``repro figures --only model`` against measured transfers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..config import CostModel

__all__ = ["OverheadModel", "split_overhead_s", "hybrid_overhead_s"]


def split_overhead_s(bucket_bytes: float, expansion: float, t_w: float) -> float:
    """``T_split`` per original bucket (seconds)."""
    if expansion < 1:
        raise ValueError("expansion factor must be >= 1")
    if expansion == 1:
        return 0.0
    return math.log2(expansion) * (bucket_bytes / 2.0) * t_w


def hybrid_overhead_s(bucket_bytes: float, expansion: float, t_w: float) -> float:
    """``T_hybrid`` per original bucket (seconds)."""
    if expansion < 1:
        raise ValueError("expansion factor must be >= 1")
    return ((expansion - 1.0) / expansion) * bucket_bytes * t_w


@dataclass(frozen=True)
class OverheadModel:
    """Convenience wrapper binding the model to a workload/cluster shape."""

    #: bytes initially assigned per original bucket (relation share)
    bucket_bytes: float
    #: seconds per byte on the wire
    t_w: float

    @classmethod
    def from_run(cls, relation_bytes: int, original_buckets: int,
                 cost: CostModel) -> OverheadModel:
        return cls(
            bucket_bytes=relation_bytes / original_buckets,
            t_w=1.0 / cost.net_bandwidth,
        )

    def split_s(self, expansion: float) -> float:
        return split_overhead_s(self.bucket_bytes, expansion, self.t_w)

    def hybrid_s(self, expansion: float) -> float:
        return hybrid_overhead_s(self.bucket_bytes, expansion, self.t_w)

    def crossover_expansion(self) -> float:
        """Expansion factor above which the split overhead exceeds the
        hybrid overhead: solve log2(E)/2 = (E-1)/E numerically."""
        lo, hi = 1.0 + 1e-9, 2.0
        # f(E) = log2(E)/2 - (E-1)/E; f(1+) < 0, find sign change upward
        def f(e: float) -> float:
            return math.log2(e) / 2.0 - (e - 1.0) / e
        while f(hi) < 0:
            hi *= 2.0
            if hi > 1e9:  # pragma: no cover - defensive
                raise RuntimeError("no crossover found")
        for _ in range(200):
            mid = (lo + hi) / 2.0
            if f(mid) < 0:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2.0

    def predicted_tuples_moved_split(self, relation_tuples: int, expansion: float) -> float:
        """Paper's asymptotic split traffic in tuples (B = final bucket
        content): each original bucket transfers half of itself once per
        doubling round."""
        if expansion <= 1:
            return 0.0
        return math.log2(expansion) * relation_tuples / 2.0

    def predicted_tuples_moved_hybrid(self, relation_tuples: int, expansion: float) -> float:
        """Model's total reshuffle traffic in tuples: the fraction of
        tuples whose final owner differs from where they were built."""
        return ((expansion - 1.0) / expansion) * relation_tuples


def split_moved_capacity_model(n_splits: int, capacity_tuples: int) -> float:
    """Measured-granularity split-traffic prediction.

    §4.2.4 defines B as "the bucket size" — at split time a bucket holds at
    most the node's memory capacity, and each split ships half of it, so a
    run with ``n_splits = F - O`` completed splits moves at most
    ``n_splits * capacity / 2`` tuples.  This is the form the measured
    transfer volumes are validated against (the asymptotic log2 form above
    over-counts when splits trigger at capacity rather than at the end of
    the build, which is exactly what the expanding algorithms do).
    """
    if n_splits < 0 or capacity_tuples < 0:
        raise ValueError("negative inputs")
    return n_splits * capacity_tuples / 2.0
