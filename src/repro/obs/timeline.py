"""Run timelines: named spans on per-actor tracks.

Actors record :class:`Span` entries ("join3 ran its build phase from
t=0.01 to t=2.4", "join5 shipped a split from t=1.1 to t=1.3") into a
shared :class:`SpanLog`.  The driver folds them — together with the
scheduler's phase boundaries — into a :class:`PhaseTimeline` attached to
``JoinRunResult``, which renders as a report and feeds the Chrome
``trace_event`` exporter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .reservoir import SampledLog

__all__ = ["Span", "SpanLog", "PhaseTimeline"]

#: track name used for the run-wide phase spans
SCHEDULER_TRACK = "scheduler"

#: span names the scheduler track uses, in phase order
PHASE_NAMES = ("build", "reshuffle", "probe", "ooc")


@dataclass(frozen=True)
class Span:
    """A named closed interval on one actor's track."""

    track: str
    name: str
    t0: float
    t1: float
    args: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def cells(self) -> tuple[str, str, str, str, str]:
        """Column cells for tabular rendering (no padding applied)."""
        kv = " ".join(f"{k}={v}" for k, v in self.args.items())
        return (self.track, self.name,
                f"[{self.t0:.6f}, {self.t1:.6f}]",
                f"dur={self.duration:.6f}", kv)


class SpanLog(SampledLog):
    """Collection of spans: every one, in recording order, or — given a
    capacity — a bounded sample weighted by duration, sorted by start.

    Bounded, the ``outliers`` longest spans are always retained (the ones
    critical-path and phase reports care about).  Either way ``spans`` is
    a list, so ``PhaseTimeline``, exporters and reports read both alike.
    """

    @property
    def spans(self) -> list[Span]:
        return self._view(lambda s: (s.t0, s.t1, s.track, s.name))

    def add(self, track: str, name: str, t0: float, t1: float,
            **args: Any) -> Span:
        if t1 < t0:
            raise ValueError(f"span {name!r} ends before it starts")
        span = Span(track, name, t0, t1, args)
        if self._reservoir is None:
            self._records.append(span)
        else:
            self._offer(f"{self.total:08d}|{track}|{name}", t1 - t0, span)
        return span


@dataclass
class PhaseTimeline:
    """Everything that happened, when, on which node.

    ``spans`` holds the scheduler's phase spans (track ``"scheduler"``,
    names ``build``/``reshuffle``/``probe``/``ooc``) plus every per-node
    span the actors recorded (``build``, ``probe``, ``split``,
    ``reshuffle``, ``ooc`` on tracks ``join<N>``).
    """

    spans: list[Span] = field(default_factory=list)

    def phase_spans(self) -> list[Span]:
        """The run-wide phase spans, in phase order."""
        by_name = {s.name: s for s in self.spans if s.track == SCHEDULER_TRACK}
        return [by_name[n] for n in PHASE_NAMES if n in by_name]

    def tracks(self) -> list[str]:
        """All track names, scheduler first, then actors in name order."""
        seen = {s.track for s in self.spans}
        rest = sorted(t for t in seen if t != SCHEDULER_TRACK)
        return ([SCHEDULER_TRACK] if SCHEDULER_TRACK in seen else []) + rest

    def for_track(self, track: str) -> list[Span]:
        return sorted(
            (s for s in self.spans if s.track == track),
            key=lambda s: (s.t0, s.t1),
        )

    @property
    def end(self) -> float:
        return max((s.t1 for s in self.spans), default=0.0)

    def render(self) -> str:
        """Human-readable phase report: one line per span, per track,
        columns padded to the widest cell (not hard-coded widths)."""
        rows = [
            span.cells()
            for track in self.tracks()
            for span in self.for_track(track)
        ]
        if not rows:
            return ""
        widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
        return "\n".join(
            "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
            for row in rows
        )
