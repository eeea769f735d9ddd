"""Metric instruments and the per-run registry.

Three instrument kinds cover everything the simulator needs to report:

* :class:`Counter` — monotonically increasing totals (bytes sent, chunks
  processed, relief cycles).
* :class:`Gauge` — a sampled value with a bounded ``(time, value)``
  timeline plus high/low-water marks (memory usage, relief latencies).
* :class:`TimeWeightedHistogram` — how long a quantity *stayed* at each
  level, bucketed (mailbox queue depths: a queue that is 50 deep for one
  microsecond is very different from one that is 5 deep for a second).

Instruments are addressed by ``(name, labels)``; the registry memoizes
them, so publishing sites can call ``registry.counter(...)`` every time
or hold on to the instrument — both are cheap.  Creating one checks it
against :data:`repro.obs.catalogue.METRICS`.  All timestamps come from
the registry's ``clock`` (wired to ``Simulator.now`` in a run).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterable
from typing import Any

from .catalogue import METRICS

__all__ = ["Counter", "Gauge", "TimeWeightedHistogram", "MetricsRegistry"]

#: default bound on gauge timelines (old samples are evicted FIFO; the
#: high/low-water marks and the last value are exact regardless)
DEFAULT_TIMELINE_SAMPLES = 4096

#: default bucket upper bounds for time-weighted histograms (the last
#: bucket is open-ended)
DEFAULT_BUCKETS = (0, 1, 2, 4, 8, 16, 32, 64, 128)

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _check_declared(name: str, kind: str, labels: LabelKey) -> None:
    """Refuse an instrument the catalogue does not declare as given."""
    m = METRICS.get(name)
    keys = tuple(k for k, _ in labels)
    if m is None or m.kind != kind or keys != tuple(sorted(m.labels)):
        declared = ("undeclared" if m is None
                    else f"declared as a {m.kind} labelled {m.labels}")
        raise ValueError(f"metric {name!r} is {declared} in "
                         f"repro.obs.catalogue, not a {kind} labelled {keys}")


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey = ()):
        self.name = name
        self.labels = labels
        self.value: float = 0

    def inc(self, value: float = 1) -> None:
        if value < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += value

    def as_dict(self) -> dict[str, Any]:
        return {
            "type": "counter",
            "name": self.name,
            "labels": dict(self.labels),
            "value": self.value,
        }


class Gauge:
    """A sampled value with a bounded timeline and watermark tracking."""

    __slots__ = ("name", "labels", "timeline", "last", "high", "low", "samples")

    def __init__(
        self,
        name: str,
        labels: LabelKey = (),
        max_samples: int = DEFAULT_TIMELINE_SAMPLES,
    ):
        self.name = name
        self.labels = labels
        #: bounded (time, value) history, oldest evicted first
        self.timeline: deque[tuple[float, float]] = deque(maxlen=max_samples)
        self.last: float | None = None
        self.high: float | None = None
        self.low: float | None = None
        self.samples = 0

    def set(self, time: float, value: float) -> None:
        self.timeline.append((time, value))
        self.last = value
        self.samples += 1
        if self.high is None or value > self.high:
            self.high = value
        if self.low is None or value < self.low:
            self.low = value

    def mean(self) -> float:
        """Arithmetic mean over the retained timeline samples."""
        if not self.timeline:
            return 0.0
        return sum(v for _, v in self.timeline) / len(self.timeline)

    def as_dict(self) -> dict[str, Any]:
        return {
            "type": "gauge",
            "name": self.name,
            "labels": dict(self.labels),
            "last": self.last,
            "high": self.high,
            "low": self.low,
            "samples": self.samples,
            "mean": self.mean(),
        }


class TimeWeightedHistogram:
    """Duration spent at each value level, bucketed by upper bounds.

    ``observe(t, v)`` closes the interval since the previous observation
    and charges it to the previous value's bucket; call :meth:`close` at
    end of run to flush the final interval.
    """

    __slots__ = (
        "name", "labels", "bounds", "bucket_seconds",
        "_last_t", "_last_v", "high", "weighted_sum", "total_seconds",
    )

    def __init__(
        self,
        name: str,
        labels: LabelKey = (),
        bounds: Iterable[float] = DEFAULT_BUCKETS,
    ):
        self.name = name
        self.labels = labels
        self.bounds = tuple(sorted(bounds))
        if not self.bounds:
            raise ValueError("histogram needs at least one bucket bound")
        #: seconds spent at a level <= bounds[i]; [-1] is the overflow bucket
        self.bucket_seconds = [0.0] * (len(self.bounds) + 1)
        self._last_t: float | None = None
        self._last_v: float = 0.0
        self.high: float = 0.0
        self.weighted_sum = 0.0
        self.total_seconds = 0.0

    def _bucket_of(self, value: float) -> int:
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                return i
        return len(self.bounds)

    def observe(self, time: float, value: float) -> None:
        if self._last_t is not None and time > self._last_t:
            held = time - self._last_t
            self.bucket_seconds[self._bucket_of(self._last_v)] += held
            self.weighted_sum += self._last_v * held
            self.total_seconds += held
        self._last_t = time
        self._last_v = value
        if value > self.high:
            self.high = value

    def close(self, time: float) -> None:
        """Flush the interval from the last observation up to ``time``."""
        self.observe(time, self._last_v)

    def time_weighted_mean(self) -> float:
        if self.total_seconds == 0.0:
            return 0.0
        return self.weighted_sum / self.total_seconds

    def as_dict(self) -> dict[str, Any]:
        buckets = {}
        for i, bound in enumerate(self.bounds):
            if self.bucket_seconds[i]:
                buckets[f"le_{bound:g}"] = self.bucket_seconds[i]
        if self.bucket_seconds[-1]:
            buckets["overflow"] = self.bucket_seconds[-1]
        return {
            "type": "histogram",
            "name": self.name,
            "labels": dict(self.labels),
            "high": self.high,
            "time_weighted_mean": self.time_weighted_mean(),
            "total_seconds": self.total_seconds,
            "bucket_seconds": buckets,
        }


class MetricsRegistry:
    """One registry per run; every subsystem publishes into it.

    The ``clock`` callable supplies timestamps (``lambda: sim.now`` in a
    simulation); instruments are memoized by ``(name, labels)``.  Creating
    an instrument the catalogue does not declare with that kind and those
    label keys raises ``ValueError``; a memoized lookup checks nothing.
    """

    def __init__(self, clock: Callable[[], float] | None = None):
        self.clock: Callable[[], float] = clock or (lambda: 0.0)
        self._counters: dict[tuple[str, LabelKey], Counter] = {}
        self._gauges: dict[tuple[str, LabelKey], Gauge] = {}
        self._histograms: dict[tuple[str, LabelKey], TimeWeightedHistogram] = {}

    # ------------------------------------------------------------------
    # instrument access (memoized)
    # ------------------------------------------------------------------
    def counter(self, name: str, **labels: Any) -> Counter:
        key = (name, _label_key(labels))
        inst = self._counters.get(key)
        if inst is None:
            _check_declared(name, "counter", key[1])
            inst = self._counters[key] = Counter(name, key[1])
        return inst

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = (name, _label_key(labels))
        inst = self._gauges.get(key)
        if inst is None:
            _check_declared(name, "gauge", key[1])
            inst = self._gauges[key] = Gauge(name, key[1])
        return inst

    def histogram(
        self,
        name: str,
        bounds: Iterable[float] = DEFAULT_BUCKETS,
        **labels: Any,
    ) -> TimeWeightedHistogram:
        key = (name, _label_key(labels))
        inst = self._histograms.get(key)
        if inst is None:
            _check_declared(name, "histogram", key[1])
            inst = self._histograms[key] = TimeWeightedHistogram(
                name, key[1], bounds
            )
        return inst

    # ------------------------------------------------------------------
    # convenience publishers
    # ------------------------------------------------------------------
    def inc(self, name: str, value: float = 1, **labels: Any) -> None:
        self.counter(name, **labels).inc(value)

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        self.gauge(name, **labels).set(self.clock(), value)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        self.histogram(name, **labels).observe(self.clock(), value)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Flush open histogram intervals up to the current clock time."""
        now = self.clock()
        for hist in self._histograms.values():
            hist.close(now)

    def instruments(self) -> list[Any]:
        """All instruments, counters first, in name order."""
        def order(inst: Any) -> tuple[str, LabelKey]:
            return (inst.name, inst.labels)

        return (
            sorted(self._counters.values(), key=order)
            + sorted(self._gauges.values(), key=order)
            + sorted(self._histograms.values(), key=order)
        )

    def snapshot(self) -> list[dict[str, Any]]:
        """Export every instrument as a plain-dict list (JSON-safe)."""
        return [inst.as_dict() for inst in self.instruments()]

    def find(self, name: str, **labels: Any) -> Any | None:
        """Look up an existing instrument without creating it."""
        key = (name, _label_key(labels))
        for table in (self._counters, self._gauges, self._histograms):
            if key in table:
                return table[key]
        return None
