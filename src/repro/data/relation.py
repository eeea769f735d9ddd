"""On-the-fly relation streams, partitioned across data sources.

The paper generates relations R and S *as the join progresses*, on multiple
source nodes ("simulates data streaming from a distributed database or
table streams in a multi-join operation").  :class:`RelationStream` gives
each source an independent, seeded, reproducible stream of generation
batches; concatenating all sources' batches yields the full relation, which
is what the sequential reference join consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterator

import numpy as np

from ..config import WorkloadSpec
from .chunks import chunk_slices, empty_chunk
from .distributions import draw_values

__all__ = ["RelationStream", "source_share", "materialize_relation"]

#: tuples a source draws (and routes: core/datasource.py) per NumPy call —
#: at 200 a call costs its overhead, not its data (PERFORMANCE.md §7: sweep)
BLOCK_TUPLES = 1 << 14


def source_share(total: int, n_sources: int, source_index: int) -> int:
    """Tuples assigned to one source: even split, remainder to low indices."""
    if not (0 <= source_index < n_sources):
        raise IndexError(f"source {source_index} out of {n_sources}")
    base, rem = divmod(total, n_sources)
    return base + (1 if source_index < rem else 0)


@dataclass(frozen=True)
class RelationStream:
    """One source's view of one relation (R or S)."""

    spec: WorkloadSpec
    relation: str  # "R" or "S"
    n_sources: int
    source_index: int

    def __post_init__(self) -> None:
        if self.relation not in ("R", "S"):
            raise ValueError(f"relation must be 'R' or 'S', got {self.relation!r}")

    @property
    def total_tuples(self) -> int:
        whole = (
            self.spec.real_r_tuples if self.relation == "R" else self.spec.real_s_tuples
        )
        return source_share(whole, self.n_sources, self.source_index)

    def _rng(self) -> np.random.Generator:
        # Independent, reproducible stream per (seed, relation, source).
        root = np.random.SeedSequence(
            entropy=self.spec.seed,
            spawn_key=(0 if self.relation == "R" else 1, self.source_index),
        )
        return np.random.default_rng(root)

    @property
    def n_batches(self) -> int:
        """Generation batches this source will yield (ceil division)."""
        batch = self.spec.real_chunk_tuples
        return -(-self.total_tuples // batch)

    def blocks(self, limit: int | None = None) -> Iterator[np.ndarray]:
        """The stream a *block* at a time: a whole number of generation
        batches (``BLOCK_TUPLES`` worth, at least one) from one
        ``draw_values`` call.  NumPy's generators are split-consistent —
        ``n`` draws then ``m`` are one draw of ``n + m`` — so this is bit for
        bit the per-batch stream.  ``limit`` counts *batches*: nothing past
        the ``limit``-th is drawn."""
        batch = self.spec.real_chunk_tuples
        remaining = self.total_tuples
        if limit is not None:
            remaining = min(remaining, max(limit, 0) * batch)
        block = max(BLOCK_TUPLES // batch, 1) * batch
        rng = self._rng()
        while remaining > 0:
            n = min(block, remaining)
            yield draw_values(rng, n, self.spec, relation=self.relation)
            remaining -= n

    def batches(self, limit: int | None = None) -> Iterator[np.ndarray]:
        """Generation batches of join-attribute values (key chunks),
        each a view of its :meth:`blocks` block.

        Batch size equals the communication chunk size: the source fills
        its per-destination buffers one generation batch at a time.
        ``limit`` stops after that many batches without drawing the rest —
        a pure wall-clock saving for replay cursors (each call uses a
        fresh seeded RNG, so a truncated iteration is a prefix of the
        full one).
        """
        batch = self.spec.real_chunk_tuples
        for block in self.blocks(limit):
            for lo, hi in chunk_slices(block.size, batch):
                yield block[lo:hi]


def materialize_relation(spec: WorkloadSpec, relation: str, n_sources: int) -> np.ndarray:
    """The full relation as one array (exactly the union of source streams).

    Used by the sequential reference join to validate distributed results.
    """
    parts = []
    for s in range(n_sources):
        stream = RelationStream(spec, relation, n_sources, s)
        parts.extend(stream.blocks())
    if not parts:
        return empty_chunk()
    return np.concatenate(parts)
