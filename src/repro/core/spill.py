"""Grace-style disk partitions for one join node's overflow (paper §2).

Spilled R and S tuples are kept in arrival order and cut into ``k_parts``
position sub-ranges once, when the final passes start; S spills only
where R already has.  A pair whose R side still exceeds the node's memory
is **recursively re-partitioned** (classic Grace behaviour), an extra
disk round trip a level.  docs/DATA_PLANE.md §2 has the layout.
"""

from __future__ import annotations

from collections.abc import Generator
from typing import Any

import numpy as np

from ..data import empty_chunk
from ..hashing import HashRange, NodeHashStore, group_order
from .context import RunContext

__all__ = ["SpillStore"]


def _pairs(r: np.ndarray, s: np.ndarray, r_keys: np.ndarray, s_keys: np.ndarray,
           k: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """``(R_q, S_q)`` for every sub-partition ``q < k`` holding R, ``q``
    ascending, each side in arrival order: one stable counting sort and one
    gather a side, the pairs slices of the gathered copies."""
    (r_order, r_cuts), (s_order, s_cuts) = group_order(r_keys, k), group_order(s_keys, k)
    r, s = r[r_order], s[s_order]
    return [(r[r_cuts[q]:r_cuts[q + 1]], s[s_cuts[q]:s_cuts[q + 1]])
            for q in np.flatnonzero(np.diff(r_cuts)).tolist()]


class SpillStore:
    """One node's spilled tuples and their final passes."""

    MAX_RECURSION = 8

    def __init__(self, ctx: RunContext, node_index: int, k_parts: int = 8,
                 hash_range: HashRange | None = None) -> None:
        self.ctx = ctx
        self.node = ctx.join_node(node_index)
        self.k = k_parts
        # Sub-partition over the node's own range (a bucket only ever sees
        # its own positions); bucket-addressed nodes (LINEAR_MOD) fall back
        # to the full table.
        lo = hash_range.lo if hash_range else 0
        width = (hash_range.hi if hash_range else ctx.cfg.hash_positions) - lo
        # Sub-range q starts where (p - lo) * k // width reaches q; a position
        # outside the range lands in the sub-range nearest it.
        starts = (-(-q * width // self.k) for q in range(1, self.k))
        self._cuts = lo + np.array([a for a in starts if a < width], dtype=np.int64)
        #: spilled tuples, chunk by chunk in arrival order
        self._r: list[np.ndarray] = []
        self._s: list[np.ndarray] = []
        #: sub-partitions holding spilled R: the ones S spills to
        self._holds_r = np.zeros(self.k, dtype=bool)
        self.spilled_r = 0
        self.spilled_s = 0
        #: extra disk round trips caused by recursive re-partitioning
        self.recursive_passes = 0
        self._tb = ctx.cfg.workload.tuple_bytes
        self._cap_tuples = max(1, self.node.memory.capacity // self._tb)

    def _parts(self, values: np.ndarray) -> np.ndarray:
        """The sub-partition of each of ``values``."""
        return self._cuts.searchsorted(self.ctx.posmap(values), side="right")

    def write_r(self, values: np.ndarray) -> Generator[Any, Any, None]:
        self._holds_r[self._parts(values)] = True
        if values.size:
            self._r.append(values)
        self.spilled_r += int(values.size)
        yield from self.node.disk.write(int(values.size) * self._tb)

    def write_s(self, values: np.ndarray) -> Generator[Any, Any, int]:
        """Spill only probe tuples whose sub-partition has spilled R."""
        spilled = values[self._holds_r[self._parts(values)]]
        written = int(spilled.size)
        if written:
            self._s.append(spilled)
            self.spilled_s += written
            yield from self.node.disk.write(written * self._tb)
        return written

    def _spilled_pairs(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """The spilled ``(R_p, S_p)`` pairs.  The chunks are let go: from
        here on the pairs hold the only copy."""
        r, s = (np.concatenate([empty_chunk(), *side]) for side in (self._r, self._s))
        self._r, self._s = [], []
        return _pairs(r, s, self._parts(r), self._parts(s), self.k)

    def final_passes(self) -> Generator[Any, Any, int]:
        """Join every spilled (R_p, S_p) pair, once; returns match count."""
        matches = 0
        for r_p, s_p in self._spilled_pairs():
            matches += yield from self._join_partition(r_p, s_p, depth=0)
        return matches

    def _join_partition(
        self, r_p: np.ndarray, s_p: np.ndarray, depth: int
    ) -> Generator[Any, Any, int]:
        """In-core join of one bucket pair, recursing while R overflows."""
        cost = self.ctx.cost
        yield from self.node.disk.read(int(r_p.size) * self._tb)
        if r_p.size > self._cap_tuples and depth < self.MAX_RECURSION:
            # Classic Grace recursion: re-partition both sides on disk and
            # join the finer bucket pairs (one extra write per level; the
            # reads happen in the recursive calls).
            self.recursive_passes += 1
            yield from self.node.disk.read(int(s_p.size) * self._tb)
            yield from self.node.disk.write(
                (int(r_p.size) + int(s_p.size)) * self._tb
            )
            yield from self.node.compute_per_tuple(
                cost.cpu_route_tuple, r_p.size + s_p.size
            )
            sub = max(2, -(-int(r_p.size) // self._cap_tuples))
            matches = 0
            for r_q, s_q in _pairs(r_p, s_p, self.ctx.posmap(r_p) % sub,
                                   self.ctx.posmap(s_p) % sub, sub):
                matches += yield from self._join_partition(r_q, s_q, depth + 1)
            return matches
        yield from self.node.compute_per_tuple(cost.cpu_insert_tuple, r_p.size)
        if s_p.size == 0:
            return 0
        yield from self.node.disk.read(int(s_p.size) * self._tb)
        yield from self.node.compute_per_tuple(cost.cpu_probe_tuple, s_p.size)
        store = NodeHashStore(self.ctx.posmap)
        store.insert(r_p)
        found = store.probe(s_p)
        yield from self.node.compute_per_tuple(cost.cpu_output_match, found)
        return found
