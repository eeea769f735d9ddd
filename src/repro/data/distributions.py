"""Join-attribute value distributions (paper §5, 'Data Generation').

The paper generates 64-bit join attributes from either a Uniform or a
Gaussian distribution, with Gaussian mean/sigma expressed on the value
range ("standard deviation of 0.001 / 0.0001" of the range).  We draw in
the unit interval and scale onto a ``VALUE_BITS``-wide integer grid; with
the default order-preserving position map, value skew becomes hash-table
position skew exactly as on the paper's cluster.

A Zipf distribution is included as an extension (heavy-hitter skew with
*duplicate* values rather than *clustered* values).
"""

from __future__ import annotations

import numpy as np

from ..config import Distribution, WorkloadSpec
from .chunks import KEY_DTYPE, VALUE_BITS, VALUE_SPACE, empty_chunk

__all__ = ["VALUE_BITS", "VALUE_SPACE", "draw_values"]


def draw_values(rng: np.random.Generator, n: int, spec: WorkloadSpec,
                relation: str = "R") -> np.ndarray:
    """Draw ``n`` join-attribute values as a key chunk in [0, VALUE_SPACE).

    ``relation`` selects the per-relation distribution parameters (the
    paper sets mean/sigma individually for R and S; see
    ``WorkloadSpec.params_for``).
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return empty_chunk()
    distribution, mean, sigma = spec.params_for(relation)
    if distribution is Distribution.UNIFORM:
        # drawn in 64 bits and narrowed: a 32-bit draw is another stream
        return rng.integers(0, VALUE_SPACE, size=n, dtype=np.uint64).astype(KEY_DTYPE)
    if distribution is Distribution.GAUSSIAN:
        return _gaussian(rng, n, mean, sigma)
    if distribution is Distribution.ZIPF:
        return _zipf(rng, n, spec.zipf_s)
    raise ValueError(f"unknown distribution: {distribution}")


def _gaussian(rng: np.random.Generator, n: int, mean: float, sigma: float) -> np.ndarray:
    """Gaussian on the unit range, clipped, scaled to the value grid.

    Clipping (rather than rejection) matches the paper's "user-specified
    mean and standard deviation ... value range": out-of-range draws pile on
    the borders, a negligible mass for the paper's (mean=0.5, sigma<=0.001)
    settings.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    unit = rng.normal(loc=mean, scale=sigma, size=n)
    np.clip(unit, 0.0, 1.0 - 2.0**-53, out=unit)
    return (unit * VALUE_SPACE).astype(KEY_DTYPE)


def _zipf(rng: np.random.Generator, n: int, s: float) -> np.ndarray:
    """Zipf-distributed *ranks* spread over the value grid.

    Rank k (1-based) maps to a fixed pseudo-random grid point so that the
    hottest values are not adjacent — isolating duplicate-skew from
    cluster-skew (the Gaussian case).
    """
    if s <= 1.0:
        raise ValueError("zipf exponent must be > 1")
    ranks = rng.zipf(s, size=n).astype(np.uint64)
    # Golden-ratio multiplicative hash sends rank -> grid point, bijective
    # on the 2**VALUE_BITS grid because the multiplier is odd.
    golden = np.uint64(0x9E3779B97F4A7C15)
    mask = np.uint64(VALUE_SPACE - 1)
    return ((ranks * golden) & mask).astype(KEY_DTYPE)
