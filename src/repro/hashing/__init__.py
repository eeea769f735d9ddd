"""Hash-table machinery: position maps, ranges, routers (range and
linear-hash), per-node stores, and the hybrid reshuffle partitioner."""

from .hashfn import PositionMap, splitmix64
from .ranges import HashRange, partition_positions, ranges_partition_space
from .reshuffle import greedy_contiguous_partition, partition_range_by_counts
from .routing import LinearHashRouter, RangeRouter, Router, group_order
from .table import NodeHashStore

__all__ = [
    "HashRange",
    "LinearHashRouter",
    "NodeHashStore",
    "PositionMap",
    "RangeRouter",
    "Router",
    "greedy_contiguous_partition",
    "group_order",
    "partition_positions",
    "partition_range_by_counts",
    "ranges_partition_space",
    "splitmix64",
]
