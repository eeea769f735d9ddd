"""Routing tables: which join node receives a tuple with a given position.

Data sources hold a versioned router and re-partition every generation
batch with it.  Two families:

* :class:`RangeRouter` — contiguous hash ranges, each owned by one node or
  (replication-based algorithm) a *replica chain*.  During the build phase
  a range's tuples flow to the newest replica only; during the probe phase
  a tuple is **broadcast to every replica** of its range (paper §4.2.2).
* :class:`LinearHashRouter` — the Litwin/Larson linear-hashing address
  function used by the split-based algorithm's LINEAR_POINTER policy:
  buckets are addressed by ``h_i(p) = p mod (n0 * 2^i)`` and, left of the
  split pointer, ``h_{i+1}``.

Both partition vectorized batches of positions into per-node index arrays.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .ranges import HashRange, ranges_partition_space

__all__ = ["Router", "RangeRouter", "LinearHashRouter"]


def _group_indices(keys: np.ndarray, n_groups: int) -> list[np.ndarray]:
    """Stable-partition ``arange(len(keys))`` by integer key in [0, n_groups)."""
    if n_groups == 1:
        # One group: every key is 0 and the stable order is the identity.
        return [np.arange(keys.size, dtype=np.intp)]
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    cuts = np.searchsorted(sorted_keys, np.arange(n_groups + 1))
    return [order[cuts[g]: cuts[g + 1]] for g in range(n_groups)]


class Router(ABC):
    """Maps hash-table positions to destination join nodes."""

    #: monotone version number; sources apply only newer tables
    version: int

    @abstractmethod
    def partition_build(self, positions: np.ndarray) -> dict[int, np.ndarray]:
        """node_id -> indices of ``positions`` to send there (build phase)."""

    @abstractmethod
    def partition_probe(self, positions: np.ndarray) -> dict[int, np.ndarray]:
        """node_id -> indices (probe phase; may duplicate indices across nodes)."""

    def probe_groups(
        self, positions: np.ndarray
    ) -> list[tuple[tuple[int, ...], np.ndarray]]:
        """Probe routing grouped by replica chain: ``(dests, indices)`` pairs.

        Every destination in ``dests`` receives the *same* index set, so a
        caller can materialize ``values[indices]`` once per group and hand
        the shared array to each replica instead of gathering one private
        copy per destination (the probe-broadcast amplification of the
        replication-based algorithm).  The default covers non-replicating
        routers: each destination is its own singleton group.
        """
        return [((n,), idx)
                for n, idx in sorted(self.partition_probe(positions).items())]

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
    def _range_indices(self, positions: np.ndarray) -> list[np.ndarray]:
        if len(self.entries) == 1:
            # Single range owning the whole space: no search needed.
            return [np.arange(positions.size, dtype=np.intp)]
        bounds: np.ndarray = self._bounds  # type: ignore[attr-defined]
        keys = np.searchsorted(bounds, positions, side="right") - 1
        return _group_indices(keys, len(self.entries))

    def partition_build(self, positions: np.ndarray) -> dict[int, np.ndarray]:
        out: dict[int, list[np.ndarray]] = {}
        for (rng, dests), idx in zip(self.entries, self._range_indices(positions)):
            if idx.size:
                out.setdefault(dests[-1], []).append(idx)
        return {n: np.concatenate(parts) if len(parts) > 1 else parts[0]
                for n, parts in out.items()}

    def partition_probe(self, positions: np.ndarray) -> dict[int, np.ndarray]:
        out: dict[int, list[np.ndarray]] = {}
        for (rng, dests), idx in zip(self.entries, self._range_indices(positions)):
            if idx.size:
                for n in dests:
                    out.setdefault(n, []).append(idx)
        return {n: np.concatenate(parts) if len(parts) > 1 else parts[0]
                for n, parts in out.items()}

    def probe_groups(
        self, positions: np.ndarray
    ) -> list[tuple[tuple[int, ...], np.ndarray]]:
        """One ``(replica chain, indices)`` pair per range with probe tuples.

        Chains longer than one are exactly the broadcast groups of
        paper §4.2.2; sharing the gathered array across a chain removes
        the per-replica duplicate materialization."""
        return [(dests, idx)
                for (rng, dests), idx
                in zip(self.entries, self._range_indices(positions))
                if idx.size]

    def owners(self) -> set[int]:
        return {n for _, dests in self.entries for n in dests}

    def wire_bytes(self) -> int:
        # lo, hi: 8B each; each destination id: 4B; header 16B
        return 16 + sum(16 + 4 * len(dests) for _, dests in self.entries)

    # ------------------------------------------------------------------
    # functional updates used by the strategies
    # ------------------------------------------------------------------
    def entry_index_for(self, position: int) -> int:
        bounds: np.ndarray = self._bounds  # type: ignore[attr-defined]
        return int(np.searchsorted(bounds, position, side="right") - 1)

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
    """Linear-hashing bucket addressing (split-based, LINEAR_POINTER policy).

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

    def partition_build(self, positions: np.ndarray) -> dict[int, np.ndarray]:
        buckets = self.bucket_of(positions)
        out: dict[int, list[np.ndarray]] = {}
        for b, idx in enumerate(_group_indices(buckets, self.n_buckets)):
            if idx.size:
                out.setdefault(self.bucket_nodes[b], []).append(idx)
        return {n: np.concatenate(parts) if len(parts) > 1 else parts[0]
                for n, parts in out.items()}

    # split-based never replicates: probe routing == build routing
    partition_probe = partition_build

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
