"""Value -> hash-table-position mapping.

The paper assigns nodes contiguous "hash table ranges", so the hash
function that turns a 64-bit join attribute into a hash-table position must
be **order preserving** for the paper's skew results to materialize
(Gaussian-clustered values land on clustered positions, overloading the
node that owns the hot range).  The default map takes the high bits of the
value.  A mixing variant (SplitMix64 finalizer) is provided as an ablation:
it destroys value locality and with it the skew pathology — measured by
``repro figures --only hash_mixing`` (ablation B).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.chunks import KEY_DTYPE, VALUE_BITS

__all__ = ["PositionMap", "splitmix64"]


def splitmix64(values: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer: a high-quality 64-bit mixing function."""
    x = values.astype(np.uint64, copy=True)
    x += np.uint64(0x9E3779B97F4A7C15)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


@dataclass(frozen=True)
class PositionMap:
    """Maps join-attribute values to hash-table positions in [0, positions).

    ``positions`` must be a power of two no larger than the value space.
    """

    positions: int
    mix: bool = False

    def __post_init__(self) -> None:
        if self.positions < 1 or (self.positions & (self.positions - 1)) != 0:
            raise ValueError(f"positions must be a power of two, got {self.positions}")
        if self.positions > (1 << VALUE_BITS):
            raise ValueError("positions exceeds the value space")
        # Mixed values occupy the full 64-bit space.  A 0-d array made once
        # (not a field), not a scalar built per call.
        width = 64 if self.mix else VALUE_BITS
        object.__setattr__(self, "_shift", np.array(width - self.bits, np.uint64))

    @property
    def bits(self) -> int:
        return self.positions.bit_length() - 1

    def __call__(self, values: np.ndarray) -> np.ndarray:
        """Vectorized value -> position (key chunk in, int64 out)."""
        v = splitmix64(values) if self.mix else values
        # a uint64 shift widens as it shifts; positions < 2**32 view as int64
        return (v >> self._shift).view(np.int64)  # type: ignore[attr-defined]

    def position_of(self, value: int) -> int:
        """Scalar convenience wrapper."""
        return int(self(np.array([value], dtype=KEY_DTYPE))[0])
