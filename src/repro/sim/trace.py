"""Lightweight structured tracing for simulation runs.

Algorithm processes emit trace records ("node 7 recruited at t=3.2s",
"split #4: bucket [lo,hi) -> ...") that the driver collects into the run
result.  Tracing is cheap enough to stay on by default; ``maxlen`` bounds
the buffer for long runs (oldest records are evicted, ``dropped`` counts
them).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from collections.abc import Iterator, Sequence
from typing import Any

__all__ = ["TraceRecord", "Tracer"]


@dataclass(frozen=True)
class TraceRecord:
    """One trace entry: (simulated time, category, actor, detail mapping)."""

    time: float
    category: str
    actor: str
    detail: dict[str, Any] = field(default_factory=dict)

    def cells(self) -> tuple[str, str, str, str]:
        """Column cells for tabular rendering (no padding applied)."""
        kv = " ".join(f"{k}={v}" for k, v in self.detail.items())
        return (f"[{self.time:.6f}]", self.category, self.actor, kv)

    def __str__(self) -> str:
        return " ".join(self.cells()).rstrip()


class Tracer:
    """Collects :class:`TraceRecord` entries in simulation order.

    ``maxlen=None`` (the default) keeps every record; a positive value
    turns the buffer into a ring that retains only the newest ``maxlen``
    records — the bounded mode long benchmark runs should use.
    """

    def __init__(
        self,
        enabled: bool = True,
        maxlen: int | None = None,
    ) -> None:
        if maxlen is not None and maxlen < 1:
            raise ValueError(f"maxlen must be positive, got {maxlen}")
        self.enabled = enabled
        self.maxlen = maxlen
        self.records: Sequence[TraceRecord] = (
            deque(maxlen=maxlen) if maxlen is not None else []
        )
        #: records evicted from a bounded buffer (0 in unbounded mode)
        self.dropped = 0

    def emit(self, time: float, category: str, actor: str, **detail: Any) -> None:
        if not self.enabled:
            return
        if self.maxlen is not None and len(self.records) == self.maxlen:
            self.dropped += 1
        self.records.append(TraceRecord(time, category, actor, detail))  # type: ignore[attr-defined]

    def select(self, category: str) -> Iterator[TraceRecord]:
        """Iterate records of one category, in time order."""
        return (r for r in self.records if r.category == category)

    def format(self) -> str:
        """All records as text, columns padded to the widest cell."""
        rows = [r.cells() for r in self.records]
        if not rows:
            return ""
        widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
        return "\n".join(
            " ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
            for row in rows
        )

    def __len__(self) -> int:
        return len(self.records)
