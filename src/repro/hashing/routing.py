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
once — on a 200-tuple batch a sort costs its call, not its data.
:meth:`Router.route` is the one-batch case.  docs/DATA_PLANE.md §2 has the
cost argument and the order invariant.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..data.chunks import chunk_slices
from .ranges import HashRange, ranges_partition_space

__all__ = ["Router", "RangeRouter", "LinearHashRouter"]

#: largest position -> entry lookup table a RangeRouter builds (slots);
#: above it the per-tuple binary search is the fallback
_LUT_CAP = 1 << 20
#: keys NumPy's stable argsort still radix-sorts (16 bits); a merge sort above
_RADIX_KEYS = 1 << 16


def _group_order(keys: np.ndarray, n_groups: int) -> tuple[np.ndarray, np.ndarray]:
    """Stable-partition ``arange(len(keys))`` by integer key in [0, n_groups).

    Returns ``(order, cuts)``: group ``g`` is ``order[cuts[g]:cuts[g + 1]]``,
    its indices ascending.  Keys are narrowed first: NumPy's stable sort is
    a radix (counting) sort for 8- and 16-bit keys, a merge sort above."""
    keys = keys.astype(np.min_scalar_type(n_groups - 1), copy=False)
    order = np.argsort(keys, kind="stable")
    cuts = np.full(n_groups + 1, keys.size, dtype=np.intp)
    cuts[0] = 0
    cuts[1:-1] = np.searchsorted(keys[order], np.arange(1, n_groups, dtype=keys.dtype))
    return order, cuts


def _per_node(
    shares: Iterable[tuple[Iterable[int], np.ndarray]]
) -> dict[int, np.ndarray]:
    """Collect ``(nodes, indices)`` shares into node -> indices, a node's
    shares concatenated in the order given."""
    out: dict[int, list[np.ndarray]] = {}
    for nodes, idx in shares:
        for n in nodes:
            out.setdefault(n, []).append(idx)
    return {n: np.concatenate(parts) if len(parts) > 1 else parts[0]
            for n, parts in out.items()}


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

    def route(
        self, positions: np.ndarray
    ) -> tuple[np.ndarray, list[tuple[tuple[int, ...], int, int]]]:
        """One batch through the routing kernel: ``(order, spans)``.

        ``order`` is the stable permutation bringing each group's tuples
        together; ``spans`` lists ``(chain, lo, hi)`` for every non-empty
        group, by group key: ``order[lo:hi]`` are its tuples, ascending.
        A caller gathers ``values[order]`` once and slices it per span."""
        order, runs = self.route_batches(positions, max(int(positions.size), 1))
        return order, runs[0] if runs else []

    def route_batches(
        self, positions: np.ndarray, batch: int
    ) -> tuple[np.ndarray, list[list[tuple[tuple[int, ...], int, int]]]]:
        """The routing kernel, over consecutive runs of ``batch`` positions
        (the last may be short): ``(order, runs)``.  ``runs[r]`` is run
        ``r``'s ``spans`` as :meth:`route` defines them, indexing the one
        ``order`` over all of ``positions``.  A tuple is keyed by ``run *
        n_groups + group`` and the runs are sorted together — as many a
        sort as keep the keys on the 16-bit radix path."""
        chains = self._chains()
        n, n_groups = int(positions.size), len(chains)
        if n_groups == 1 or not n:
            # One group owning the whole space: the order is the identity.
            return np.arange(n, dtype=np.intp), [
                [(chains[0], lo, hi)] for lo, hi in chunk_slices(n, batch)]
        keys = self._keys(positions)
        step = max(_RADIX_KEYS // n_groups, 1) * batch
        orders, runs = [], []
        for start in range(0, n, step):
            part = keys[start:start + step]
            n_keys = -(-part.size // batch) * n_groups
            if n_keys > n_groups:
                dtype = np.min_scalar_type(n_keys - 1)
                part = part.astype(dtype, copy=False) + np.repeat(
                    np.arange(0, n_keys, n_groups, dtype=dtype), batch)[:part.size]
            order, cuts = _group_order(part, n_keys)
            orders.append(order + start if start else order)
            cuts = (cuts + start).tolist()
            runs += [[(chain, lo, hi) for chain, lo, hi in zip(
                          chains, cuts[r:r + n_groups], cuts[r + 1:r + n_groups + 1])
                      if hi > lo] for r in range(0, n_keys, n_groups)]
        return orders[0] if len(orders) == 1 else np.concatenate(orders), runs

    def partition_build(self, positions: np.ndarray) -> dict[int, np.ndarray]:
        """node_id -> indices of ``positions`` to send there (build phase)."""
        order, spans = self.route(positions)
        return _per_node((chain[-1:], order[lo:hi]) for chain, lo, hi in spans)

    def partition_probe(self, positions: np.ndarray) -> dict[int, np.ndarray]:
        """node_id -> indices (probe phase; may duplicate indices across nodes)."""
        order, spans = self.route(positions)
        return _per_node((chain, order[lo:hi]) for chain, lo, hi in spans)

    def probe_groups(
        self, positions: np.ndarray
    ) -> list[tuple[tuple[int, ...], np.ndarray]]:
        """Probe routing grouped by replica chain: ``(dests, indices)`` pairs.

        Every destination in ``dests`` receives the *same* index set.  The
        default covers non-replicating routers: each destination is its
        own singleton group.
        """
        return [((n,), idx)
                for n, idx in sorted(self.partition_probe(positions).items())]

    def share_of(
        self, positions: np.ndarray, node: int, *, probe: bool
    ) -> np.ndarray:
        """Indices ``node`` receives in one phase — ``partition_build`` /
        ``partition_probe`` ``.get(node)``, empty if none — read off the
        group keys with one mask, the other nodes' shares never formed."""
        keys = self._keys(positions)
        hit = np.array([node in chain if probe else node == chain[-1]
                        for chain in self._chains()])
        idx = np.flatnonzero(hit[keys])
        if hit.sum() > 1:  # several groups: group-major, as the partition is
            idx = idx[np.argsort(keys[idx], kind="stable")]
        return idx

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

    def probe_groups(
        self, positions: np.ndarray
    ) -> list[tuple[tuple[int, ...], np.ndarray]]:
        """One ``(replica chain, indices)`` pair per range with probe tuples.

        Chains longer than one are exactly the broadcast groups of
        paper §4.2.2."""
        order, spans = self.route(positions)
        return [(chain, order[lo:hi]) for chain, lo, hi in spans]

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
        sources re-stream the range to it (see repro.core.membership).
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

    Buckets map to nodes through ``bucket_nodes``.
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

    def bucket_of(self, positions: np.ndarray) -> np.ndarray:
        m = np.int64(self.n0 << self.level)
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
