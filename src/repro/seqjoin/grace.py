"""Single-node Grace-style out-of-core hash join (paper §2, last paragraph).

The basic out-of-core algorithm: partition R into ``k`` position-range
buckets on disk, partition S the same way, then join bucket pairs in core.
A standalone sequential join (no cluster, no scheduler) that also estimates
the disk traffic and time the out-of-core plan implies; nothing else in the
package calls it, and its tests check it on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import CostModel
from ..hashing import PositionMap
from .basic import match_count

__all__ = ["GraceJoinResult", "grace_join"]


@dataclass
class GraceJoinResult:
    """Outcome of a sequential Grace join."""

    matches: int
    partitions: int
    #: bytes written to / read from disk (both relations)
    disk_write_bytes: int = 0
    disk_read_bytes: int = 0
    #: estimated time under the given cost model (seconds)
    estimated_time: float = 0.0
    partition_r_tuples: list[int] = field(default_factory=list)


def grace_join(
    r_values: np.ndarray,
    s_values: np.ndarray,
    memory_tuples: int,
    tuple_bytes: int,
    cost: CostModel,
    posmap: PositionMap | None = None,
) -> GraceJoinResult:
    """Run the out-of-core join, counting matches and disk traffic.

    ``memory_tuples`` is the in-core capacity; the partition count is
    chosen as ``ceil(|R| / memory_tuples)`` (perfect knowledge — the
    sequential baseline, unlike the distributed algorithms, is allowed to
    know |R| so it models the best case for OOC).
    """
    if memory_tuples < 1:
        raise ValueError("memory_tuples must be >= 1")
    posmap = posmap or PositionMap(1 << 18)

    if r_values.size <= memory_tuples:
        # Entirely in core: no disk traffic at all.
        return GraceJoinResult(
            matches=match_count(r_values, s_values),
            partitions=1,
            estimated_time=(
                cost.cpu_insert_tuple * r_values.size
                + cost.cpu_probe_tuple * s_values.size
            ),
            partition_r_tuples=[int(r_values.size)],
        )

    k = -(-int(r_values.size) // memory_tuples)  # ceil division
    positions = posmap.positions
    r_part = np.minimum(posmap(r_values) * k // positions, k - 1)
    s_part = np.minimum(posmap(s_values) * k // positions, k - 1)

    matches = 0
    part_sizes: list[int] = []
    for p in range(k):
        r_p = r_values[r_part == p]
        s_p = s_values[s_part == p]
        part_sizes.append(int(r_p.size))
        matches += match_count(r_p, s_p)

    write_bytes = (int(r_values.size) + int(s_values.size)) * tuple_bytes
    read_bytes = write_bytes
    io_time = sum(
        cost.disk_time(n * tuple_bytes)
        for n in (list(map(int, part_sizes)) + [int(s_values.size)])
    ) * 2  # write + read, batched per partition (S modeled as one stream)
    cpu_time = (
        cost.cpu_insert_tuple * r_values.size * 2  # partition pass + build
        + cost.cpu_probe_tuple * s_values.size * 2  # partition pass + probe
    )
    return GraceJoinResult(
        matches=matches,
        partitions=k,
        disk_write_bytes=write_bytes,
        disk_read_bytes=read_bytes,
        estimated_time=io_time + cpu_time,
        partition_r_tuples=part_sizes,
    )
