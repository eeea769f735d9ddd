"""Byte-granular memory accounting for join nodes.

Models the paper's per-node memory budget for hash-table buckets.  A join
process *tries* to allocate space for incoming tuples; a failed allocation
is exactly the paper's "memory full" condition that triggers expansion.
"""

from __future__ import annotations

from typing import Any

__all__ = ["MemoryAccount", "MemoryFullError"]


class MemoryFullError(Exception):
    """Raised by :meth:`MemoryAccount.alloc` when the budget is exceeded."""

    def __init__(self, requested: int, available: int) -> None:
        super().__init__(
            f"requested {requested} bytes, only {available} available"
        )
        self.requested = requested
        self.available = available


class MemoryAccount:
    """Tracks bytes used against a fixed capacity."""

    def __init__(self, capacity: int, name: str = "memory") -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = capacity
        self.name = name
        self._used = 0
        #: high-water mark (diagnostics / load metrics)
        self.peak = 0
        #: optional usage timeline (any object with ``set(time, bytes)``;
        #: wired by the cluster's metrics setup); paired ``clock`` supplies
        #: timestamps since the account itself is simulator-agnostic
        self.usage_probe: Any | None = None
        self.clock: Any = None

    def _sample_usage(self) -> None:
        if self.usage_probe is not None:
            self.usage_probe.set(self.clock() if self.clock else 0.0, self._used)

    @property
    def used(self) -> int:
        return self._used

    @property
    def available(self) -> int:
        return self.capacity - self._used

    @property
    def is_full(self) -> bool:
        return self._used >= self.capacity

    def fits(self, nbytes: int) -> bool:
        return self._used + nbytes <= self.capacity

    def try_alloc(self, nbytes: int) -> bool:
        """Allocate if it fits; return whether the allocation happened."""
        if nbytes < 0:
            raise ValueError("cannot allocate a negative size")
        if not self.fits(nbytes):
            return False
        self._used += nbytes
        if self._used > self.peak:
            self.peak = self._used
        self._sample_usage()
        return True

    def alloc(self, nbytes: int) -> None:
        """Allocate or raise :class:`MemoryFullError`."""
        if not self.try_alloc(nbytes):
            raise MemoryFullError(nbytes, self.available)

    def reset(self) -> None:
        """Forget all usage *and* the high-water mark.

        Workload mode reuses physical join nodes across queries: the pool
        hands a released node to the next query, whose fresh JoinProcess
        must see an empty account and a per-query peak (FinalReport reads
        ``peak``).  The usage probe is sampled so the shared metrics
        timeline shows the release."""
        self._used = 0
        self.peak = 0
        self._sample_usage()

    def free(self, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError("cannot free a negative size")
        if nbytes > self._used:
            raise ValueError(
                f"freeing {nbytes} bytes but only {self._used} are in use"
            )
        self._used -= nbytes
        self._sample_usage()
