"""Routing tables: which join node receives a tuple with a given position.

Data sources hold a versioned router and re-partition every generation
batch with it.  Two families:

* :class:`RangeRouter` — contiguous hash ranges, each owned by one node or
  (replication-based algorithm) a *replica chain*.  During the build phase
  a range's tuples flow to the newest replica only; during the probe phase
  a tuple is **broadcast to every replica** of its range (paper §4.2.2).
* :class:`LinearHashRouter` — the Litwin/Larson linear-hashing address
  function used by the split-based algorithm's LINEAR_MOD policy:
  buckets are addressed by ``h_i(p) = p mod (n0 * 2^i)`` and, left of the
  split pointer, ``h_{i+1}``.  (LINEAR_POINTER bisects the contiguous
  ranges of a :class:`RangeRouter`.)

Both reduce positions to small integer *group keys* (one per range /
bucket) and share one partitioning kernel, :meth:`Router.route_batches`: a
stable counting sort of the keys, of a whole block of generation batches at
once — on a 200-tuple batch a sort costs its call, not its data.  Its one
view is :meth:`Router.route_by_destination`, the same sort laid out
receiver by receiver, as a data source's buffer takes it and as recovery
slices a takeover target's share out of it.  docs/DATA_PLANE.md §2 has
the cost argument and the order invariant.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from .ranges import HashRange, ranges_partition_space

__all__ = ["Router", "RangeRouter", "LinearHashRouter", "group_order"]

#: largest position -> entry lookup table a RangeRouter builds (slots);
#: above it the per-tuple binary search is the fallback
_LUT_CAP = 1 << 20
#: keys NumPy's stable argsort still radix-sorts (16 bits); a merge sort above
_RADIX_KEYS = 1 << 16


def group_order(keys: np.ndarray, n_groups: int) -> tuple[np.ndarray, np.ndarray]:
    """Stable-partition ``arange(len(keys))`` by integer key in [0, n_groups).

    Returns ``(order, cuts)``: group ``g`` is ``order[cuts[g]:cuts[g + 1]]``,
    its indices ascending.  Keys are narrowed first: NumPy's stable sort is
    a radix (counting) sort for 8- and 16-bit keys, a merge sort above."""
    keys = keys.astype(np.min_scalar_type(n_groups - 1), copy=False)
    order = keys.argsort(kind="stable")  # methods skip NumPy's dispatch wrappers
    cuts = np.full(n_groups + 1, keys.size, dtype=np.intp)
    cuts[0] = 0
    cuts[1:-1] = keys[order].searchsorted(np.arange(1, n_groups, dtype=keys.dtype))
    return order, cuts


class Router(ABC):
    """Maps hash-table positions to destination join nodes."""

    #: monotone version number; sources apply only newer tables
    version: int

    @abstractmethod
    def _chains(self) -> Sequence[tuple[int, ...]]:
        """Destination chain of every routing group (range / bucket), by
        group key.  The last member receives the group's build tuples;
        every member receives its probe tuples."""

    @abstractmethod
    def _keys(self, positions: np.ndarray) -> np.ndarray:
        """Group key of each position (an index into :meth:`_chains`)."""

    def route_batches(
        self, positions: np.ndarray, batch: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """The routing kernel, over consecutive runs of ``batch`` positions
        (the last may be short): ``(order, counts)`` — one stable
        permutation of all of ``positions``, run by run and group by group,
        and ``counts[r, g]`` tuples of run ``r`` in group ``g``.  A tuple is
        keyed by ``run * n_groups + group`` and the runs are sorted together
        — as many a sort as keep the keys on the 16-bit radix path."""
        n, n_groups = int(positions.size), len(self._chains())
        n_runs = -(-n // batch)
        if n_groups == 1 or not n:
            # One group owning the whole space: the order is the identity.
            runs = np.diff(np.minimum(np.arange(n_runs + 1) * batch, n))
            return np.arange(n, dtype=np.intp), np.repeat(runs[:, None], n_groups, axis=1)
        keys = self._keys(positions)
        step = max(_RADIX_KEYS // n_groups, 1) * batch
        orders, counts = [], []
        for start in range(0, n, step):
            part = keys[start:start + step]
            n_keys = -(-part.size // batch) * n_groups
            if n_keys > n_groups:
                dtype = np.min_scalar_type(n_keys - 1)
                part = part.astype(dtype, copy=False) + np.repeat(
                    np.arange(0, n_keys, n_groups, dtype=dtype), batch)[:part.size]
            order, cuts = group_order(part, n_keys)
            orders.append(order + start if start else order)
            counts.append(cuts[1:] - cuts[:-1])
        order = orders[0] if len(orders) == 1 else np.concatenate(orders)
        return order, np.concatenate(counts).reshape(n_runs, n_groups)

    @cached_property
    def _receivers(self) -> list[tuple[np.ndarray, ...]]:
        """Per phase (``[False]`` build, ``[True]`` probe) every (receiver,
        group) pair, receiver-major: ``(dests, slot, groups)`` — receivers
        ascending, each pair's index into them, its group."""
        pairs = [np.array(sorted((d, g) for g, chain in enumerate(self._chains())
                                 for d in (chain if probe else chain[-1:])))
                 for probe in (False, True)]
        return [(*np.unique(p[:, 0], return_inverse=True), p[:, 1]) for p in pairs]

    def route_by_destination(
        self, positions: np.ndarray, batch: int, *, probe: bool
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`route_batches` receiver by receiver: ``(index, dests,
        counts)`` — ``values[index]`` holds each of ``dests``' (ascending)
        tuples end to end, run by run and group by group (a probe tuple once
        per replica), ``counts[r, i]`` of them from run ``r``.  Built from
        the (run, group) cells, never a pass per destination."""
        order, counts = self.route_batches(positions, batch)
        dests, slot, groups = self._receivers[probe]
        cells = counts[:, groups]  # tuples per (run, receiver pair)
        if slot.size > dests.size:  # a receiver of several groups
            cells = np.add.reduceat(cells, np.flatnonzero(np.diff(slot, prepend=-1)), axis=1)
        if len(counts) == 1:  # one run: its cells are slices of ``order``
            if (pairs := groups.tolist()) != list(range(counts.size)):
                cuts = [0, *accumulate(counts[0].tolist())]
                order = np.concatenate([order[cuts[g]:cuts[g + 1]] for g in pairs])
        elif order.size:  # receiver by receiver, each run by run, pair by pair
            cell = np.argsort(np.arange(len(counts))[:, None] + slot * len(counts),
                              axis=None, kind="stable")
            sizes = counts[:, groups].ravel()[cell]
            starts = (np.cumsum(counts) - counts.ravel()).reshape(counts.shape)
            starts = starts[:, groups].ravel()[cell]
            order = order[np.repeat(starts - np.cumsum(sizes) + sizes, sizes)
                          + np.arange(sizes.sum())]
        return order, dests, cells

    @abstractmethod
    def owners(self) -> set[int]:
        """All node ids reachable through this router."""

    @abstractmethod
    def wire_bytes(self) -> int:
        """Serialized size when the scheduler broadcasts this table."""


@dataclass(frozen=True)
class RangeRouter(Router):
    """Contiguous ranges, each with an ordered replica chain.

    ``entries`` must tile ``[0, positions)``; each entry's destination
    tuple lists replicas oldest-first — the **last** one is the active
    receiver in the build phase.
    """

    positions: int
    entries: tuple[tuple[HashRange, tuple[int, ...]], ...]
    version: int = 0

    def __post_init__(self) -> None:
        ranges = [r for r, _ in self.entries]
        if not ranges_partition_space(ranges, self.positions):
            raise ValueError("RangeRouter entries must tile the position space")
        if sorted(ranges) != list(ranges):
            raise ValueError("RangeRouter entries must be sorted by range")
        for r, dests in self.entries:
            if not dests:
                raise ValueError(f"range {r} has no destination")
            if len(set(dests)) != len(dests):
                raise ValueError(f"range {r} repeats a destination: {dests}")
        object.__setattr__(
            self, "_bounds", np.array([r.lo for r in ranges], dtype=np.int64)
        )

    @classmethod
    def initial(cls, ranges: list[HashRange], nodes: list[int], positions: int) -> RangeRouter:
        """The paper's initial assignment: range k -> initial node k."""
        if len(ranges) != len(nodes):
            raise ValueError("one node per initial range required")
        return cls(
            positions=positions,
            entries=tuple((r, (n,)) for r, n in zip(ranges, nodes)),
            version=0,
        )

    # ------------------------------------------------------------------
    def _chains(self) -> Sequence[tuple[int, ...]]:
        return [dests for _, dests in self.entries]

    @cached_property
    def _table(self) -> tuple[int, np.ndarray | None]:
        """``(shift, lut)``: every bound is a multiple of ``2**shift`` (the
        largest such power), so ``lut`` has one slot per aligned block.
        Built by the first batch routed and not a dataclass field: ==,
        hash, repr and the functional updates never see it.  ``lut`` is
        None over the cap."""
        low = 1 << (self.positions - 1).bit_length()  # never zero
        for rng, _ in self.entries:
            low |= rng.lo
        shift = (low & -low).bit_length() - 1
        slots = ((self.positions - 1) >> shift) + 1
        if slots > _LUT_CAP:
            return shift, None
        lut = self._search(np.arange(slots, dtype=np.int64) << shift)
        return shift, lut.astype(np.min_scalar_type(len(self.entries) - 1))

    def _keys(self, positions: np.ndarray) -> np.ndarray:
        shift, lut = self._table
        if lut is None:  # binary search per tuple
            return self._search(positions)
        return lut[positions >> shift]

    def _search(self, positions: np.ndarray) -> np.ndarray:
        bounds: np.ndarray = self._bounds  # type: ignore[attr-defined]
        return np.searchsorted(bounds, positions, side="right") - 1

    # Two adapters over the kernel that only benchmarks/perf/probes.py's
    # routing probes call; the program reads route_by_destination alone.
    def partition_build(self, positions: np.ndarray) -> dict[int, np.ndarray]:
        """node -> indices it receives in the build phase: one batch of
        :meth:`route_by_destination`, cut per receiver."""
        index, dests, counts = self.route_by_destination(
            positions, max(positions.size, 1), probe=False)
        shares = np.split(index, np.cumsum(counts.sum(axis=0))[:-1])
        return {d: idx for d, idx in zip(dests.tolist(), shares) if idx.size}

    def probe_groups(
        self, positions: np.ndarray
    ) -> list[tuple[tuple[int, ...], np.ndarray]]:
        """``(replica chain, indices)`` per range with probe tuples, range
        by range: the kernel's one-batch order cut per range."""
        order, counts = self.route_batches(positions, max(positions.size, 1))
        cuts = [0, *accumulate(counts.sum(axis=0).tolist())]
        return [(chain, order[lo:hi]) for chain, lo, hi
                in zip(self._chains(), cuts, cuts[1:]) if hi > lo]

    def owners(self) -> set[int]:
        return {n for _, dests in self.entries for n in dests}

    def wire_bytes(self) -> int:
        # lo, hi: 8B each; each destination id: 4B; header 16B
        return 16 + sum(16 + 4 * len(dests) for _, dests in self.entries)

    # ------------------------------------------------------------------
    # functional updates used by the strategies
    # ------------------------------------------------------------------
    def entry_index_for(self, position: int) -> int:
        return int(self._search(np.int64(position)))

    def entry_index_of(self, node: int) -> int:
        """Index of the entry whose replica chain holds ``node``."""
        for i, (_rng, chain) in enumerate(self.entries):
            if node in chain:
                return i
        raise LookupError(f"node {node} owns no range")

    def with_replica(self, range_index: int, new_node: int, version: int) -> RangeRouter:
        """Append a replica to one range's chain (replication expansion)."""
        entries = list(self.entries)
        rng, dests = entries[range_index]
        entries[range_index] = (rng, dests + (new_node,))
        return RangeRouter(self.positions, tuple(entries), version)

    def with_bisection(
        self, range_index: int, keeper: int, new_node: int, version: int
    ) -> RangeRouter:
        """Bisect one single-owner range between keeper and new node."""
        entries = list(self.entries)
        rng, dests = entries[range_index]
        if len(dests) != 1:
            raise ValueError("cannot bisect a replicated range")
        left, right = rng.bisect()
        entries[range_index: range_index + 1] = [
            (left, (keeper,)),
            (right, (new_node,)),
        ]
        return RangeRouter(self.positions, tuple(entries), version)

    def replicated_groups(self) -> list[tuple[HashRange, tuple[int, ...]]]:
        """Ranges with more than one replica (hybrid reshuffle input)."""
        return [(r, d) for r, d in self.entries if len(d) > 1]

    def with_takeover(
        self, lost: set[int], target: int, version: int
    ) -> RangeRouter:
        """Crash recovery: every entry touching a lost node goes to ``target``.

        Replica chains hold *disjoint temporal segments*, not copies, so a
        chain that lost any member cannot serve its range from survivors;
        the whole entry collapses to the single fresh ``target`` and the
        sources re-stream the range to it (see repro.core.recovery).
        Adjacent collapsed entries are merged so the target ends up owning
        one contiguous range — exactly what its ActivateJoin advertised —
        and a later bisection of the target stays well-defined.
        """
        collapsed = [
            (rng, (target,)) if set(dests) & lost else (rng, dests)
            for rng, dests in self.entries
        ]
        merged: list[tuple[HashRange, tuple[int, ...]]] = []
        for rng, dests in collapsed:
            if (
                merged
                and dests == (target,)
                and merged[-1][1] == (target,)
                and merged[-1][0].hi == rng.lo
            ):
                prev, _ = merged.pop()
                merged.append((HashRange(prev.lo, rng.hi), dests))
            else:
                merged.append((rng, dests))
        return RangeRouter(self.positions, tuple(merged), version)


class LinearHashRouter(Router):
    """Linear-hashing bucket addressing (split-based, LINEAR_MOD policy).

    State mirrors Litwin's scheme on the *position* key space: ``n0``
    initial buckets, level ``i``, split pointer ``s``.  Bucket ``b`` of a
    position ``p``::

        m = n0 * 2**i
        b = p mod m
        if b < s:  b = p mod 2m        # either b or b + m

    Buckets map to nodes through ``bucket_nodes``.  The table is the whole
    Litwin state: the scheduler splits by installing :meth:`with_split`,
    and its serialized relief cycles are the barrier split pointer (no
    bucket splits while a split is in flight).
    """

    def __init__(self, n0: int, level: int, split_pointer: int,
                 bucket_nodes: tuple[int, ...], version: int = 0) -> None:
        if n0 < 1 or level < 0:
            raise ValueError("invalid linear hash parameters")
        m = n0 << level
        if not (0 <= split_pointer < m):
            raise ValueError(f"split pointer {split_pointer} out of [0, {m})")
        if len(bucket_nodes) != m + split_pointer:
            raise ValueError(
                f"expected {m + split_pointer} buckets, got {len(bucket_nodes)}"
            )
        self.n0 = n0
        self.level = level
        self.split_pointer = split_pointer
        self.bucket_nodes = bucket_nodes
        self.version = version

    @property
    def n_buckets(self) -> int:
        return len(self.bucket_nodes)

    @property
    def modulus(self) -> int:
        """``m = n0 * 2**level``."""
        return self.n0 << self.level

    def bucket_of(self, positions: np.ndarray) -> np.ndarray:
        m = np.int64(self.modulus)
        b = (positions % m).astype(np.int64)
        pre = b < self.split_pointer
        if pre.any():
            b[pre] = positions[pre] % (m * 2)
        return b

    # split-based never replicates: every bucket is a chain of one
    def _chains(self) -> Sequence[tuple[int, ...]]:
        return [(n,) for n in self.bucket_nodes]

    _keys = bucket_of

    def owners(self) -> set[int]:
        return set(self.bucket_nodes)

    def wire_bytes(self) -> int:
        return 32 + 4 * self.n_buckets

    def with_split(self, new_node: int, version: int) -> LinearHashRouter:
        """Split the bucket at the split pointer: the new bucket ``m + s``
        goes to ``new_node`` and the pointer advances; a full round of
        splits doubles the modulus and wraps the pointer to 0."""
        level, pointer = self.level, self.split_pointer + 1
        if pointer == self.modulus:
            level, pointer = level + 1, 0
        return LinearHashRouter(
            self.n0, level, pointer, (*self.bucket_nodes, new_node), version
        )

    def with_takeover(
        self, lost: set[int], target: int, version: int
    ) -> LinearHashRouter:
        """Crash recovery: every bucket owned by a lost node moves to
        ``target`` (the sources then re-stream those buckets to it)."""
        return LinearHashRouter(
            self.n0, self.level, self.split_pointer,
            tuple(target if n in lost else n for n in self.bucket_nodes),
            version,
        )
