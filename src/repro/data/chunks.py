"""The columnar chunk format: the unit every hot path moves data in.

Relations flow through the system as **key chunks** — C-contiguous NumPy
``KEY_DTYPE`` (``uint32``) arrays of join-attribute values, one array per
communication chunk.  Every stage of the data plane (generation, hashing,
routing, build insert, probe matching, split migration, spill partitioning)
operates on whole chunks with vectorized NumPy kernels; no hot path ever
touches a Python tuple object.  docs/DATA_PLANE.md specifies the format,
its ownership rules, and the argument for why per-chunk cost accounting
reproduces the paper's per-tuple model exactly.

This module is the *single* validation chokepoint: :func:`as_key_chunk`
is the only place a foreign array is admitted into the data plane, and it
either returns a lossless ``KEY_DTYPE`` view/copy or raises — atomically,
before any downstream state is touched.  Once a chunk is inside, every
stage may assume ``KEY_DTYPE`` and the value grid without re-checking.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import accumulate, compress

import numpy as np

__all__ = [
    "VALUE_BITS",
    "VALUE_SPACE",
    "KEY_DTYPE",
    "as_key_chunk",
    "empty_chunk",
    "chunk_slices",
    "ChunkBuffer",
]

#: width of the join-attribute value grid (values lie in [0, 2**VALUE_BITS))
VALUE_BITS = 32
VALUE_SPACE = 1 << VALUE_BITS

#: the one dtype join-attribute columns are allowed to have inside the
#: data plane: the narrowest that holds the grid (the paper's 64-bit
#: attribute is charged by the cost model, through ``tuple_bytes``)
KEY_DTYPE = np.min_scalar_type(VALUE_SPACE - 1)


def as_key_chunk(values: np.ndarray) -> np.ndarray:
    """Validate/coerce one chunk of join attributes to ``KEY_DTYPE``.

    The data plane relies on every chunk sharing one dtype — a
    mixed-dtype concatenation silently up-casts (to ``uint64``, or to
    float64 and corrupts large keys).  Coercion must be lossless: a value
    that is negative, non-finite, fractional or off the value grid raises
    instead of joining on a mangled key.  Validation is all-or-nothing —
    the function raises before returning anything, so a caller validates
    a chunk before it mutates its own state (see
    :meth:`NodeHashStore.insert`).
    """
    values = np.asarray(values)
    if values.dtype == KEY_DTYPE:
        return values
    if values.dtype.kind not in "uif":
        raise TypeError(
            f"join attributes must be numeric, got dtype {values.dtype}"
        )
    if values.size:
        if values.dtype.kind == "f" and not np.isfinite(values).all():
            raise ValueError("join attributes must be finite")
        if values.min() < 0:
            raise ValueError("join attributes must be non-negative")
        if values.max() >= VALUE_SPACE:
            raise ValueError(f"join attributes exceed the range of the "
                             f"{VALUE_BITS}-bit value grid [0, 2**{VALUE_BITS})")
    cast = values.astype(KEY_DTYPE)
    if not np.array_equal(cast, values):
        raise ValueError(f"lossy conversion of join attributes from {values.dtype}")
    return cast


def empty_chunk() -> np.ndarray:
    """A zero-length key chunk (the canonical 'no tuples' value)."""
    return np.empty(0, dtype=KEY_DTYPE)


def chunk_slices(total: int, chunk_tuples: int) -> Iterator[tuple[int, int]]:
    """``(lo, hi)`` spans cutting ``total`` rows into chunk-sized pieces.

    The last span may be short; ``total == 0`` yields nothing.  Used by
    every path that re-chunks a large array for the wire (split
    transfers, replay streams), so chunk-count accounting — what the
    simulator charges per-message costs on — is defined in one place.
    """
    if chunk_tuples < 1:
        raise ValueError(f"chunk_tuples must be >= 1, got {chunk_tuples}")
    for lo in range(0, total, chunk_tuples):
        yield lo, min(lo + chunk_tuples, total)


class ChunkBuffer:
    """Per-destination columnar accumulation with fixed-size chunk flushing.

    Data sources (and anything else that re-partitions a stream) append
    index-selected slices of generation batches per destination, or plan a
    block of batches at once and show it batch by batch; the buffer
    consolidates them lazily and hands back exactly ``chunk_tuples``-sized
    chunks for the wire.  Handed-in arrays are *owned* by the buffer
    (callers must not mutate them afterwards) and are assumed to already be
    key chunks — admission validation happens upstream at
    :func:`as_key_chunk`.
    """

    def __init__(self, chunk_tuples: int) -> None:
        if chunk_tuples < 1:
            raise ValueError(f"chunk_tuples must be >= 1, got {chunk_tuples}")
        self.chunk_tuples = chunk_tuples
        self._parts: dict[int, list[np.ndarray]] = {}
        #: visible tuples per destination, a plan's shown ones included, in
        #: the order each first got tuples; and those holding a chunk
        self._counts: dict[int, int] = {}
        self._full: set[int] = set()
        self._gather, self._dests, self._rows, self._lo, self._hi = None, [], [], [], []

    def append(self, dest: int, values: np.ndarray) -> None:
        if values.size == 0:
            return
        self._end_plan()
        self._parts.setdefault(dest, []).append(values)
        self._counts[dest] = count = self._counts.get(dest, 0) + int(values.size)
        if count >= self.chunk_tuples:
            self._full.add(dest)

    def plan(self, gather: np.ndarray, dests: np.ndarray, counts: np.ndarray) -> None:
        """Take a block at once: ``gather`` holds the tuples of each of
        ``dests`` (ascending) end to end, ``counts[b, i]`` of ``dests[i]``'s
        from batch ``b``, each invisible until :meth:`show` reaches its
        batch.  Ends the previous plan, as :meth:`append` does."""
        self._end_plan()
        # the batches not shown (last first); per destination the span of
        # the gather shown and not popped
        self._gather, self._dests, self._rows = gather, dests.tolist(), counts.tolist()[::-1]
        self._lo = list(accumulate(counts.sum(axis=0).tolist(), initial=0))
        self._hi = self._lo[:]

    @property
    def batches_ahead(self) -> int:
        return len(self._rows)

    def show(self) -> int:
        """Make the plan's next batch visible; returns its tuple count."""
        row = self._rows.pop()
        counts, hi, chunk = self._counts, self._hi, self.chunk_tuples
        # the batch's empty cells are skipped in C, not in the loop body
        for i, dest, n in compress(zip(range(len(row)), self._dests, row), row):
            hi[i] += n
            counts[dest] = count = counts.get(dest, 0) + n
            if count >= chunk:
                self._full.add(dest)
        return sum(row)

    def _end_plan(self) -> None:
        """Copy what the plan showed and nobody popped out as parts of their
        own — a view would pin the whole block while a cold destination
        slowly fills a chunk — and drop what it did not show."""
        for dest, lo, hi in zip(self._dests, self._lo, self._hi):
            if hi > lo:
                self._parts.setdefault(dest, []).append(self._gather[lo:hi].copy())
        self._gather, self._dests, self._rows, self._lo, self._hi = None, [], [], [], []

    def _take(self, dest: int, n: int) -> np.ndarray:
        """Remove the oldest ``n`` tuples of one destination as a fresh
        array — parts first, then the plan's.  A part cut short stays as a
        view of its tail, so every tuple is copied once however many chunks
        one append is popped in."""
        self._counts[dest] = count = self._counts[dest] - n
        if count < self.chunk_tuples:
            self._full.discard(dest)
        parts = self._parts.get(dest, [])
        taken = []
        while n and parts:
            head = parts.pop(0)
            if head.size > n:
                parts.insert(0, head[n:])
                head = head[:n]
            taken.append(head)
            n -= int(head.size)
        if n:
            i = self._dests.index(dest)
            taken.append(self._gather[self._lo[i]:self._lo[i] + n])
            self._lo[i] += n
        return taken[0].copy() if len(taken) == 1 else np.concatenate(taken)

    def pop_full_chunk(self, dest: int) -> np.ndarray | None:
        """Remove exactly ``chunk_tuples`` tuples if available."""
        if dest not in self._full:
            return None
        return self._take(dest, self.chunk_tuples)

    def pop_all(self, dest: int) -> np.ndarray | None:
        """Remove and return everything buffered for one destination."""
        count = self._counts.get(dest, 0)
        return self._take(dest, count) if count else None

    def full(self) -> list[int]:
        """Destinations holding at least ``chunk_tuples`` tuples, ascending."""
        return sorted(self._full)

    def destinations(self) -> list[int]:
        """Destinations with at least one buffered tuple, ascending."""
        return sorted(d for d, c in self._counts.items() if c > 0)

    def contents(self) -> list[tuple[int, np.ndarray]]:
        """``(dest, tuples)`` per destination holding any, in the order
        each first got tuples (since the last drain)."""
        shown = {dest: [self._gather[lo:hi]]
                 for dest, lo, hi in zip(self._dests, self._lo, self._hi)}
        return [(dest, np.concatenate([*self._parts.get(dest, ()), *shown.get(dest, ())]))
                for dest, count in self._counts.items() if count]

    def drain_everything(self) -> np.ndarray:
        """Remove and return every buffered tuple (for re-partitioning);
        a plan ends with it."""
        drained = [values for _, values in self.contents()]
        self._parts.clear()
        self._counts.clear()
        self._full.clear()
        self._dests = []  # its shown tuples are drained: nothing to carry over
        self._end_plan()
        return np.concatenate(drained) if drained else empty_chunk()

    @property
    def total_buffered(self) -> int:
        return sum(self._counts.values())
