"""Per-join-node hash-table storage with vectorized probe.

Stores the build-relation tuples a node has accepted.  Values are appended
chunk-wise (cheap) and consolidated lazily, when the probe phase needs
ordered access, into the **one** array the store keeps — all stored values,
duplicates included, sorted — behind a **bit filter** over
``(value - min) >> shift``.  The position map is order-preserving, so a
node's values sit in a narrow range and 8-16 filter slots a tuple (1-2
bytes) reject most probe tuples that cannot match.  Probing a chunk tests
every tuple against the filter with a handful of whole-chunk operations and
sorts and binary-searches only the survivors; see docs/DATA_PLANE.md §2 for
the geometry and the cost argument.

Only the join attributes are materialized, 4 bytes a tuple (``KEY_DTYPE``);
the 64-bit attribute's and the payload/index bytes are charged to the
node's :class:`~repro.cluster.memory.MemoryAccount` by the join process
(see DESIGN.md §2 on accounted-but-not-materialized bytes).
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

import numpy as np

from ..data.chunks import KEY_DTYPE, as_key_chunk, empty_chunk
from .hashfn import PositionMap

__all__ = ["NodeHashStore"]


class NodeHashStore:
    """Build-side tuple store for one join node."""

    def __init__(self, posmap: PositionMap) -> None:
        self.posmap = posmap
        self._chunks: list[np.ndarray] = []
        #: packed bit filter; ``None`` until ``finalize()``, and again after
        #: any mutation.  While set, ``_chunks`` is one sorted array.
        self._filter: np.ndarray | None = None
        #: the filter's geometry, as 0-d arrays (a scalar operand is
        #: converted on every whole-chunk op: ~0.4 us each on 200 tuples)
        self._shift = self._sentinel = np.zeros((), KEY_DTYPE)
        self._count = 0
        #: optional metric counters (objects with ``inc(n)``; wired by the
        #: owning join process)
        self.inserted_counter: Any | None = None
        self.match_counter: Any | None = None
        self.probe_rows_counter: Any | None = None

    # ------------------------------------------------------------------
    @property
    def stored_tuples(self) -> int:
        return self._count

    def insert(self, values: np.ndarray) -> None:
        """Append a chunk of build tuples (no copy; caller cedes ownership).

        Raises ``TypeError``/``ValueError`` unless ``values`` is — or
        losslessly coerces to — a key chunk; a rejected chunk leaves
        the store as it was.
        """
        values = as_key_chunk(values)
        if values.size == 0:
            return
        self._chunks.append(values)
        self._count += int(values.size)
        self._filter = None
        if self.inserted_counter is not None:
            self.inserted_counter.inc(int(values.size))

    # ------------------------------------------------------------------
    def _all_values(self) -> np.ndarray:
        if len(self._chunks) == 0:
            return empty_chunk()
        if len(self._chunks) > 1:
            self._chunks = [np.concatenate(self._chunks)]
        return self._chunks[0]

    def finalize(self) -> None:
        """Sort the stored values into one array and build its bit filter.

        Idempotent; invalidated by any mutation (insert/extract).
        Duplicates stay in the array — a probe counts them as
        ``right - left`` — so nothing but the filter is kept beside it.
        """
        if self._filter is not None or self._count == 0:
            return
        # np.sort copies: a ceded chunk may be a view of an array its sender
        # still holds for retransmission, so it is never sorted in place.
        values = np.sort(self._all_values())
        self._chunks = [values]
        # 8-16 slots a stored tuple, fewer when the values span fewer ...
        span = int(values[-1] - values[0])
        self._shift = np.array((span // (16 * self._count)).bit_length(), KEY_DTYPE)
        # fewer than 16 slots a tuple: below 2**31, so an int32 view holds them
        slots = ((values - values[0]) >> self._shift).view(np.int32)
        # ... and one always-clear slot past the last (see probe)
        self._sentinel = np.array(slots[-1] + 1, KEY_DTYPE)
        bits = np.zeros((int(self._sentinel) // 64 + 1) * 64, dtype=bool)
        bits[slots] = True
        self._filter = np.packbits(bits, bitorder="little").view("<u8")

    def probe(self, values: np.ndarray) -> int:
        """Number of join matches between ``values`` and the stored tuples.

        Equi-join semantics: a probe tuple matches every stored tuple with
        an equal join attribute, so the result counts pairs.
        """
        values = as_key_chunk(values)
        if self.probe_rows_counter is not None and values.size:
            self.probe_rows_counter.inc(int(values.size))
        if values.size == 0 or self._count == 0:
            return 0
        self.finalize()
        assert self._filter is not None
        stored = self._chunks[0]
        # Below-min values wrap high in KEY_DTYPE, so one clamp sends both
        # sides of [min, max] to the always-clear sentinel slot.
        slots = values - stored[0]
        slots >>= self._shift
        np.minimum(slots, self._sentinel, out=slots)
        words = self._filter[slots.view(np.int32) >> 6]
        slots &= 63
        words >>= slots
        words &= 1
        queries = values[words.astype(bool)]
        if queries.size == 0:
            return 0
        # Sorting the survivors keeps the searchsorted walk cache-local;
        # the total is order-independent so this is free.
        queries.sort()
        left = stored.searchsorted(queries, side="left")
        # a survivor above max (sharing its slot) clips onto max: no hit
        hit = stored.take(left, mode="clip") == queries
        if not np.count_nonzero(hit):
            return 0
        right = stored.searchsorted(queries[hit], side="right")
        found = int((right - left[hit]).sum())
        if self.match_counter is not None:
            self.match_counter.inc(found)
        return found

    # ------------------------------------------------------------------
    # extraction (splits / reshuffle)
    # ------------------------------------------------------------------
    def extract_where(self, predicate: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """Remove and return stored values whose *positions* satisfy
        ``predicate(positions) -> bool mask``."""
        values = self._all_values()
        if values.size == 0:
            return empty_chunk()
        mask = predicate(self.posmap(values))
        out = values[mask]
        keep = values[~mask]
        self._chunks = [keep] if keep.size else []
        self._count = int(keep.size)
        self._filter = None
        return out

    def extract_position_range(self, lo: int, hi: int) -> np.ndarray:
        """Remove and return values with position in ``[lo, hi)``."""
        return self.extract_where(lambda pos: (pos >= lo) & (pos < hi))

    def extract_linear_bucket(self, new_bucket: int, modulus: int) -> np.ndarray:
        """Remove values rehashing to ``new_bucket`` under ``h_{i+1}``.

        ``modulus`` is ``m = n0 * 2^i`` at split time; the new bucket index
        is ``m + s`` and ``h_{i+1}(p) = p mod 2m``.
        """
        return self.extract_where(lambda pos: (pos % (2 * modulus)) == new_bucket)

    # ------------------------------------------------------------------
    def position_counts(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Tuples stored per occupied hash position of ``[lo, hi)``
        (reshuffle input), as ``(offsets, counts)``.

        ``offsets`` are ascending, relative to ``lo``, in the smallest
        unsigned dtype that holds ``hi - lo - 1``; ``counts`` are int64 and
        positive.  Positions holding no tuple are left out: the result, and
        every array built for it, scales with the tuples stored, never with
        the range width.
        """
        if hi <= lo:
            raise ValueError("empty counting range")
        pos = self.posmap(self._all_values())
        inside = pos[(pos >= lo) & (pos < hi)] - lo
        if hi - lo <= inside.size:  # no wider than the tuples: count, don't sort
            dense = np.bincount(inside, minlength=hi - lo)
            offsets = np.flatnonzero(dense)
            counts = dense[offsets]
        else:
            offsets, counts = np.unique(inside, return_counts=True)
        return (offsets.astype(np.min_scalar_type(hi - lo - 1)),
                counts.astype(np.int64, copy=False))
