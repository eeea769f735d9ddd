"""Streaming, mergeable observability: sketches, rings, bounded logs.

Everything in this module holds **O(budget)** state no matter how many
events a run produces, and everything merges:

* :class:`QuantileSketch` — a DDSketch-style logarithmic-bucket quantile
  sketch.  For ``alpha = 0.01`` every quantile estimate is within 1%
  *relative* error of the exact order statistic at rank
  ``floor(q * (n - 1))`` (``np.percentile(..., method="lower")``).
  Merging two sketches is bucket-wise addition, so merge is associative,
  commutative and insert-order invariant — the laws the fleet layer
  (ROADMAP item 2) needs to sum shard results in any order.
* :class:`TimeSeriesRing` — a fixed-resolution ring of per-interval
  aggregates ``(count, sum, min, max, last)`` keyed by the *absolute*
  bucket index ``floor(t / resolution)``, so rings from independent
  shards align by simulated time when merged.
* :class:`~repro.obs.reservoir.ReservoirSample` — the deterministic
  sample behind a snapshot's span section and behind a ``SpanLog`` /
  ``CausalLog`` that was given a capacity (described in its own module).
* :class:`Snapshot` — the frozen, JSON-stable union of counters,
  gauge/histogram summaries, sketches, rings and sampled spans.
  ``Snapshot.merge()`` is the wire contract between future fleet
  processes: associative, commutative, and byte-identical across
  repeated runs (``to_json()`` sorts keys and uses canonical floats).
* :class:`ObsBudget` — translates a ``--obs-budget`` byte budget (or
  ``None``: unbounded logs, default capacities) into per-collector
  capacities with documented per-record byte estimates.
* :class:`StreamingCollector` — the per-run owner of the above, with a
  registry-to-snapshot converter used by the workload driver and the
  ``--live`` emitter.

Like the rest of ``repro.obs`` this module imports nothing from the rest
of ``repro`` and nothing beyond the stdlib.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from .reservoir import ReservoirSample, take
from .timeline import SpanLog

__all__ = [
    "DEFAULT_ALPHA",
    "ObsBudget",
    "QuantileSketch",
    "Snapshot",
    "StreamingCollector",
    "TimeSeriesRing",
    "instrument_key",
    "merge_snapshots",
]

#: default sketch relative-error bound (1%)
DEFAULT_ALPHA = 0.01

#: default cap on sketch buckets per sign (collapse beyond this); at
#: alpha=0.01 each decade of dynamic range costs ~115 buckets, so 4096
#: covers ~35 decades — collapse is a pathological-input escape hatch
DEFAULT_MAX_BINS = 4096

#: values with magnitude at or below this land in the zero bucket
_MIN_TRACKABLE = 1e-12

#: unbudgeted snapshot-time defaults
DEFAULT_RING_BUCKETS = 512
DEFAULT_SPAN_SAMPLE = 256
DEFAULT_SPAN_OUTLIERS = 32

#: ring resolution (simulated seconds per bucket), fixed for every run so
#: rings from any shard merge
RING_RESOLUTION_S = 0.25

# wire-field kinds and converters for the ``from_dict`` codecs (``take``)
_NUMBER = (int, float)
_OPT_NUMBER = (int, float, type(None))


def _int_keys(m: dict[str, int]) -> dict[int, int]:
    return {int(k): int(c) for k, c in m.items()}


def _numbers(m: dict[str, float]) -> dict[str, float]:
    for k, v in m.items():
        if not isinstance(v, _NUMBER):
            raise ValueError(f"{k!r} is not a number")
    return dict(m)


def _shard_names(names: list[str]) -> tuple[str, ...]:
    if not all(isinstance(n, str) for n in names):
        raise ValueError("shard names are strings")
    return tuple(names)


def _each(convert: Callable[[Any], Any]) -> Callable[[dict], dict]:
    """Lift a per-value decoder over a ``{key: value}`` section."""
    return lambda m: {k: convert(v) for k, v in m.items()}


def _ring_buckets(m: dict[str, list[float]]) -> dict[int, list[float]]:
    out = {int(k): list(v) for k, v in m.items()}
    if not all(len(b) == 6 and all(isinstance(x, _NUMBER) for x in b)
               for b in out.values()):
        raise ValueError(
            "a bucket is six numbers: count, sum, min, max, t_last, v_last"
        )
    return out


# ----------------------------------------------------------------------
# quantile sketch
# ----------------------------------------------------------------------
class QuantileSketch:
    """DDSketch-style mergeable quantile sketch.

    Values are binned by ``k = ceil(log_gamma(|v|))`` with
    ``gamma = (1 + alpha) / (1 - alpha)``; the estimate for bucket ``k``
    is the bucket midpoint ``2 * gamma^k / (gamma + 1)``, which is within
    ``alpha`` relative error of every value in the bucket.  Negative
    values use a mirrored bucket table; ``|v| <= 1e-12`` lands in an
    exact zero bucket.  Estimates are clamped to the observed
    ``[min, max]``, so the bound also holds at the extremes.

    ``merge`` is bucket-wise addition — associative, commutative, and
    independent of insertion order.  If a pathological input produces
    more than ``max_bins`` buckets per sign, the lowest buckets are
    collapsed upward deterministically and ``collapsed`` is set (the
    error bound then only holds above the collapse point).
    """

    __slots__ = ("alpha", "max_bins", "gamma", "_log_gamma",
                 "count", "total", "vmin", "vmax", "zero_count",
                 "_pos", "_neg", "collapsed")

    def __init__(self, alpha: float = DEFAULT_ALPHA,
                 max_bins: int = DEFAULT_MAX_BINS) -> None:
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        if max_bins < 2:
            raise ValueError(f"max_bins must be >= 2, got {max_bins}")
        self.alpha = alpha
        self.max_bins = max_bins
        self.gamma = (1.0 + alpha) / (1.0 - alpha)
        self._log_gamma = math.log(self.gamma)
        self.count = 0
        self.total = 0.0
        self.vmin: float | None = None
        self.vmax: float | None = None
        self.zero_count = 0
        self._pos: dict[int, int] = {}
        self._neg: dict[int, int] = {}
        self.collapsed = False

    # -- ingest --------------------------------------------------------
    def _key(self, magnitude: float) -> int:
        return math.ceil(math.log(magnitude) / self._log_gamma)

    def add(self, value: float, count: int = 1) -> None:
        if not math.isfinite(value):
            raise ValueError(f"sketch value must be finite, got {value!r}")
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        value = float(value)
        if abs(value) <= _MIN_TRACKABLE:
            self.zero_count += count
        elif value > 0:
            k = self._key(value)
            self._pos[k] = self._pos.get(k, 0) + count
            self._collapse(self._pos)
        else:
            k = self._key(-value)
            self._neg[k] = self._neg.get(k, 0) + count
            self._collapse(self._neg)
        self.count += count
        self.total += value * count
        if self.vmin is None or value < self.vmin:
            self.vmin = value
        if self.vmax is None or value > self.vmax:
            self.vmax = value

    def _collapse(self, bins: dict[int, int]) -> None:
        while len(bins) > self.max_bins:
            keys = sorted(bins)
            bins[keys[1]] += bins.pop(keys[0])
            self.collapsed = True

    # -- merge ---------------------------------------------------------
    def merge(self, other: QuantileSketch) -> QuantileSketch:
        """Bucket-wise sum of two sketches (same ``alpha``/``max_bins``)."""
        if (self.alpha, self.max_bins) != (other.alpha, other.max_bins):
            raise ValueError(
                "cannot merge sketches with different parameters: "
                f"alpha {self.alpha} vs {other.alpha}, "
                f"max_bins {self.max_bins} vs {other.max_bins}"
            )
        out = QuantileSketch(self.alpha, self.max_bins)
        for src in (self, other):
            for k, c in src._pos.items():
                out._pos[k] = out._pos.get(k, 0) + c
            for k, c in src._neg.items():
                out._neg[k] = out._neg.get(k, 0) + c
            out.zero_count += src.zero_count
            out.count += src.count
            out.total += src.total
            if src.vmin is not None and (out.vmin is None or src.vmin < out.vmin):
                out.vmin = src.vmin
            if src.vmax is not None and (out.vmax is None or src.vmax > out.vmax):
                out.vmax = src.vmax
            out.collapsed = out.collapsed or src.collapsed
        out._collapse(out._pos)
        out._collapse(out._neg)
        return out

    # -- query ---------------------------------------------------------
    def _estimate(self, key: int) -> float:
        return 2.0 * self.gamma ** key / (self.gamma + 1.0)

    def _clamp(self, value: float) -> float:
        assert self.vmin is not None and self.vmax is not None
        return min(max(value, self.vmin), self.vmax)

    def quantile(self, q: float) -> float:
        """Estimate the order statistic at rank ``floor(q * (count-1))``.

        Returns 0.0 on an empty sketch.  The estimate is within
        ``alpha`` relative error of the exact rank value (unless
        ``collapsed``).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = math.floor(q * (self.count - 1))
        cum = 0
        # ascending value order: most-negative first (largest |v| key)
        for k in sorted(self._neg, reverse=True):
            cum += self._neg[k]
            if cum > rank:
                return self._clamp(-self._estimate(k))
        cum += self.zero_count
        if cum > rank:
            return self._clamp(0.0)
        for k in sorted(self._pos):
            cum += self._pos[k]
            if cum > rank:
                return self._clamp(self._estimate(k))
        return self.vmax  # type: ignore[return-value]  # count > 0

    def percentiles(self, qs: tuple[float, ...] = (50, 90, 99)) -> dict[str, float]:
        """``{"p50": ..., ...}`` for percentile points in [0, 100]."""
        return {f"p{q:g}": self.quantile(q / 100.0) for q in qs}

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    # -- codec ---------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "alpha": self.alpha,
            "max_bins": self.max_bins,
            "count": self.count,
            "total": self.total,
            "min": self.vmin,
            "max": self.vmax,
            "zero": self.zero_count,
            "pos": {str(k): c for k, c in sorted(self._pos.items())},
            "neg": {str(k): c for k, c in sorted(self._neg.items())},
            "collapsed": self.collapsed,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> QuantileSketch:
        what = "sketch"
        out = cls(take(d, "alpha", float, what), take(d, "max_bins", int, what))
        out.count = take(d, "count", int, what)
        out.total = take(d, "total", _NUMBER, what, float)
        out.vmin = take(d, "min", _OPT_NUMBER, what)
        out.vmax = take(d, "max", _OPT_NUMBER, what)
        out.zero_count = take(d, "zero", int, what)
        out._pos = take(d, "pos", dict, what, _int_keys)
        out._neg = take(d, "neg", dict, what, _int_keys)
        out.collapsed = take(d, "collapsed", bool, what)
        return out

    def __eq__(self, other: object) -> bool:
        """Structural equality: buckets/counts/extremes exact; ``total``
        (a float accumulator) within rounding, since float addition is
        not associative in the last ulp."""
        if not isinstance(other, QuantileSketch):
            return NotImplemented
        a, b = self.to_dict(), other.to_dict()
        ta, tb = a.pop("total"), b.pop("total")
        return a == b and math.isclose(ta, tb, rel_tol=1e-9, abs_tol=1e-12)

    def __repr__(self) -> str:
        return (f"QuantileSketch(alpha={self.alpha}, count={self.count}, "
                f"bins={len(self._pos) + len(self._neg)})")


# ----------------------------------------------------------------------
# fixed-resolution time-series ring
# ----------------------------------------------------------------------
class TimeSeriesRing:
    """Per-interval aggregates keyed by absolute bucket index.

    Each bucket is ``[count, sum, min, max, t_last, v_last]`` over the
    observations in ``[idx * res, (idx + 1) * res)``.  Only the newest
    ``n_buckets`` buckets are retained; evicted observation counts are
    tracked in ``evicted``.  Merging aligns buckets by index (both rings
    must share a resolution), so shard rings line up on simulated time.
    """

    __slots__ = ("resolution_s", "n_buckets", "evicted", "_buckets")

    def __init__(self, resolution_s: float, n_buckets: int) -> None:
        if resolution_s <= 0:
            raise ValueError(f"resolution must be positive, got {resolution_s}")
        if n_buckets < 1:
            raise ValueError(f"ring needs >= 1 bucket, got {n_buckets}")
        self.resolution_s = float(resolution_s)
        self.n_buckets = int(n_buckets)
        self.evicted = 0
        self._buckets: dict[int, list[float]] = {}

    def observe(self, t: float, value: float) -> None:
        idx = math.floor(t / self.resolution_s)
        self._fold(self._buckets, idx, [1, value, value, value, t, value])
        self._trim()

    @staticmethod
    def _fold(buckets: dict[int, list[float]], idx: int,
              b: list[float]) -> None:
        """Merge one bucket's aggregates into ``buckets[idx]``."""
        cur = buckets.get(idx)
        if cur is None:
            buckets[idx] = list(b)
        else:
            cur[0] += b[0]
            cur[1] += b[1]
            cur[2] = min(cur[2], b[2])
            cur[3] = max(cur[3], b[3])
            if (b[4], b[5]) >= (cur[4], cur[5]):
                cur[4], cur[5] = b[4], b[5]

    def _trim(self) -> None:
        if len(self._buckets) <= self.n_buckets:
            return
        for idx in sorted(self._buckets)[: len(self._buckets) - self.n_buckets]:
            self.evicted += int(self._buckets.pop(idx)[0])

    def merge(self, other: TimeSeriesRing) -> TimeSeriesRing:
        if self.resolution_s != other.resolution_s:
            raise ValueError(
                f"cannot merge rings with different resolutions: "
                f"{self.resolution_s} vs {other.resolution_s}"
            )
        out = TimeSeriesRing(self.resolution_s,
                             max(self.n_buckets, other.n_buckets))
        out.evicted = self.evicted + other.evicted
        for src in (self, other):
            for idx, b in src._buckets.items():
                self._fold(out._buckets, idx, b)
        out._trim()
        return out

    @property
    def count(self) -> int:
        return self.evicted + sum(int(b[0]) for b in self._buckets.values())

    def series(self) -> list[tuple[int, list[float]]]:
        """Retained ``(index, bucket)`` pairs in time order."""
        return [(idx, list(self._buckets[idx]))
                for idx in sorted(self._buckets)]

    def to_dict(self) -> dict[str, Any]:
        return {
            "resolution_s": self.resolution_s,
            "n": self.n_buckets,
            "evicted": self.evicted,
            "buckets": {str(idx): list(b)
                        for idx, b in sorted(self._buckets.items())},
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> TimeSeriesRing:
        what = "ring"
        out = cls(take(d, "resolution_s", _NUMBER, what), take(d, "n", int, what))
        out.evicted = take(d, "evicted", int, what)
        out._buckets = take(d, "buckets", dict, what, _ring_buckets)
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TimeSeriesRing):
            return NotImplemented
        return self.to_dict() == other.to_dict()


# ----------------------------------------------------------------------
# byte budget
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ObsBudget:
    """Per-collector capacities: the unbounded defaults, or a byte budget's.

    ``ObsBudget()`` keeps every span and causal edge (``*_sample`` is
    ``None``) and sizes the rest generously.  A ``--obs-budget`` is split
    40% spans / 30% causal edges / 15% rings / 15% sketch buckets, using
    conservative per-record byte estimates (span ≈ 160 B, edge ≈ 200 B,
    ring bucket ≈ 48 B, sketch bucket ≈ 16 B) with floors that keep tiny
    budgets functional.
    """

    budget_bytes: int | None = None
    span_sample: int | None = None
    span_outliers: int = 0
    edge_sample: int | None = None
    edge_outliers: int = 0
    ring_buckets: int = DEFAULT_RING_BUCKETS
    sketch_bins: int = DEFAULT_MAX_BINS
    #: capacity of a snapshot's span section (a bounded span log's own)
    snapshot_spans: int = DEFAULT_SPAN_SAMPLE
    snapshot_outliers: int = DEFAULT_SPAN_OUTLIERS

    MIN_BYTES = 4096
    SPAN_BYTES = 160
    EDGE_BYTES = 200
    RING_BUCKET_BYTES = 48
    SKETCH_BIN_BYTES = 16

    @classmethod
    def from_bytes(cls, budget_bytes: int | None) -> ObsBudget:
        if budget_bytes is None:
            return cls()
        if budget_bytes < cls.MIN_BYTES:
            raise ValueError(
                f"obs budget must be >= {cls.MIN_BYTES} bytes, "
                f"got {budget_bytes}"
            )
        span_total = max(40, int(0.40 * budget_bytes) // cls.SPAN_BYTES)
        span_outliers = max(8, span_total // 5)
        span_sample = max(32, span_total - span_outliers)
        edge_total = max(40, int(0.30 * budget_bytes) // cls.EDGE_BYTES)
        edge_outliers = max(8, edge_total // 5)
        return cls(
            budget_bytes=int(budget_bytes),
            span_sample=span_sample,
            span_outliers=span_outliers,
            edge_sample=max(32, edge_total - edge_outliers),
            edge_outliers=edge_outliers,
            ring_buckets=max(16, int(0.15 * budget_bytes)
                             // cls.RING_BUCKET_BYTES),
            sketch_bins=max(64, int(0.15 * budget_bytes)
                            // cls.SKETCH_BIN_BYTES),
            snapshot_spans=span_sample,
            snapshot_outliers=span_outliers,
        )


# ----------------------------------------------------------------------
# snapshot
# ----------------------------------------------------------------------
def instrument_key(name: str, labels: tuple[tuple[str, str], ...]) -> str:
    """Flatten ``(name, labels)`` into the snapshot's string key."""
    if not labels:
        return name
    return name + "|" + ",".join(f"{k}={v}" for k, v in sorted(labels))


SNAPSHOT_KIND = "repro-snapshot"
SNAPSHOT_VERSION = 1


@dataclass(frozen=True)
class Snapshot:
    """A frozen, JSON-stable, mergeable summary of one (partial) run.

    The merge laws, per section:

    * ``counters`` — key-union sum;
    * ``gauges`` — ``high`` max, ``low`` min, ``samples`` sum (the
      point-in-time ``last``/``mean`` of a gauge are not mergeable and
      are deliberately not carried);
    * ``histograms`` — bucket-wise second sums, ``high`` max (bounds
      must match);
    * ``sketches`` / ``rings`` / ``spans`` — delegated to
      :class:`QuantileSketch` / :class:`TimeSeriesRing` /
      :class:`ReservoirSample` merges;
    * ``t`` — max; ``shards`` — sorted union.

    Every law is associative and commutative, so a fleet can fold shard
    snapshots in any order and get byte-identical ``to_json()`` output.
    """

    t: float
    shards: tuple[str, ...]
    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, dict[str, float]] = field(default_factory=dict)
    histograms: dict[str, dict[str, Any]] = field(default_factory=dict)
    sketches: dict[str, QuantileSketch] = field(default_factory=dict)
    rings: dict[str, TimeSeriesRing] = field(default_factory=dict)
    spans: ReservoirSample = field(
        default_factory=lambda: ReservoirSample(
            DEFAULT_SPAN_SAMPLE, DEFAULT_SPAN_OUTLIERS
        )
    )

    # -- merge ---------------------------------------------------------
    def merge(self, other: Snapshot) -> Snapshot:
        counters = dict(self.counters)
        for k, v in other.counters.items():
            counters[k] = counters.get(k, 0) + v

        gauges = {k: dict(v) for k, v in self.gauges.items()}
        for k, g in other.gauges.items():
            cur = gauges.get(k)
            if cur is None:
                gauges[k] = dict(g)
            else:
                cur["high"] = max(cur["high"], g["high"])
                cur["low"] = min(cur["low"], g["low"])
                cur["samples"] = cur["samples"] + g["samples"]

        histograms = {k: _copy_hist(v) for k, v in self.histograms.items()}
        for k, h in other.histograms.items():
            cur = histograms.get(k)
            if cur is None:
                histograms[k] = _copy_hist(h)
            elif cur["bounds"] != h["bounds"]:
                raise ValueError(
                    f"cannot merge histogram {k!r}: bucket bounds differ"
                )
            else:
                cur["high"] = max(cur["high"], h["high"])
                cur["total_seconds"] += h["total_seconds"]
                cur["weighted_sum"] += h["weighted_sum"]
                for label, sec in h["buckets"].items():
                    cur["buckets"][label] = cur["buckets"].get(label, 0.0) + sec

        sketches = dict(self.sketches)
        for k, s in other.sketches.items():
            sketches[k] = sketches[k].merge(s) if k in sketches else s

        rings = dict(self.rings)
        for k, r in other.rings.items():
            rings[k] = rings[k].merge(r) if k in rings else r

        return Snapshot(
            t=max(self.t, other.t),
            shards=tuple(sorted(set(self.shards) | set(other.shards))),
            counters=counters,
            gauges=gauges,
            histograms=histograms,
            sketches=sketches,
            rings=rings,
            spans=self.spans.merge(other.spans),
        )

    # -- queries -------------------------------------------------------
    def counter_total(self, name: str) -> float:
        """Sum of a counter across all label variants."""
        return sum(v for k, v in self.counters.items()
                   if k == name or k.startswith(name + "|"))

    def percentiles(
        self, metric: str, qs: tuple[float, ...] = (50, 90, 99)
    ) -> dict[str, float]:
        """``{"p50": ..., ...}`` of one sketched metric — the definition
        every report reads.  Never observed: ``{}``, not placeholder zeros."""
        sk = self.sketches.get(metric)
        return sk.percentiles(qs) if sk is not None and sk.count else {}

    def describe(self) -> str:
        """One-line progress summary for ``--live`` / ``repro tail``."""
        parts = [f"t={self.t:9.3f}s"]
        sk = self.sketches.get("workload.query_latency_s")
        # Mid-run the registry counter lags (queries are counted at
        # post-run assembly); the latency sketch sees each finish live.
        queries = self.counter_total("workload.queries") or (
            sk.count if sk is not None else 0
        )
        if queries:
            parts.append(f"queries={queries:g}")
        if sk is not None and sk.count:
            parts.append(f"lat p50={sk.quantile(0.50):.3f}s "
                         f"p99={sk.quantile(0.99):.3f}s")
        parts.append(f"spans={len(self.spans)}")
        dropped = (self.counter_total("obs.spans_dropped")
                   + self.counter_total("obs.edges_dropped"))
        if dropped:
            parts.append(f"dropped={dropped:g}")
        parts.append(f"shards={','.join(self.shards)}")
        return "  ".join(parts)

    # -- codec ---------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": SNAPSHOT_KIND,
            "v": SNAPSHOT_VERSION,
            "t": self.t,
            "shards": list(self.shards),
            "counters": dict(sorted(self.counters.items())),
            "gauges": {k: dict(sorted(v.items()))
                       for k, v in sorted(self.gauges.items())},
            "histograms": {
                k: {
                    "bounds": list(v["bounds"]),
                    "high": v["high"],
                    "total_seconds": v["total_seconds"],
                    "weighted_sum": v["weighted_sum"],
                    "buckets": dict(sorted(v["buckets"].items())),
                }
                for k, v in sorted(self.histograms.items())
            },
            "sketches": {k: v.to_dict()
                         for k, v in sorted(self.sketches.items())},
            "rings": {k: v.to_dict() for k, v in sorted(self.rings.items())},
            "spans": self.spans.to_dict(),
        }

    def to_json(self) -> str:
        """Canonical bytes: sorted keys, no whitespace, repr floats."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_dict(cls, d: Any) -> Snapshot:
        """Decode a wire document; anything non-conforming is a
        ``ValueError`` that names the offending field."""
        what = "snapshot"
        if take(d, "kind", str, what) != SNAPSHOT_KIND:
            raise ValueError(
                f"not a {SNAPSHOT_KIND} document (kind={d['kind']!r})"
            )
        if take(d, "v", int, what) != SNAPSHOT_VERSION:
            raise ValueError(f"unsupported snapshot version {d['v']!r}")
        return cls(
            t=take(d, "t", _NUMBER, what, float),
            shards=take(d, "shards", list, what, _shard_names),
            counters=take(d, "counters", dict, what, _numbers),
            gauges=take(d, "gauges", dict, what, _each(
                lambda g: {k: take(g, k, _NUMBER, "gauge")
                           for k in ("high", "low", "samples")})),
            histograms=take(d, "histograms", dict, what, _each(lambda h: {
                "bounds": take(h, "bounds", list, "histogram", tuple),
                "high": take(h, "high", _NUMBER, "histogram"),
                "total_seconds": take(h, "total_seconds", _NUMBER, "histogram"),
                "weighted_sum": take(h, "weighted_sum", _NUMBER, "histogram"),
                "buckets": take(h, "buckets", dict, "histogram", _numbers),
            })),
            sketches=take(d, "sketches", dict, what,
                          _each(QuantileSketch.from_dict)),
            rings=take(d, "rings", dict, what, _each(TimeSeriesRing.from_dict)),
            spans=take(d, "spans", dict, what, ReservoirSample.from_dict),
        )

    @classmethod
    def from_json(cls, text: str) -> Snapshot:
        return cls.from_dict(json.loads(text))


def _copy_hist(h: dict[str, Any]) -> dict[str, Any]:
    out = dict(h)
    out["buckets"] = dict(h["buckets"])
    return out


def merge_snapshots(snapshots: list[Snapshot]) -> Snapshot:
    """Left-fold of :meth:`Snapshot.merge` (order-independent result)."""
    if not snapshots:
        raise ValueError("need at least one snapshot to merge")
    out = snapshots[0]
    for snap in snapshots[1:]:
        out = out.merge(snap)
    return out


# ----------------------------------------------------------------------
# collector
# ----------------------------------------------------------------------
class StreamingCollector:
    """Per-run owner of the streaming state + registry→snapshot bridge.

    Every capacity comes from its :class:`ObsBudget`: by default every
    span is kept and the drop counters stay zero; a byte budget makes the
    span log a bounded sample and shrinks sketches and rings to fit.
    """

    def __init__(self, clock: Any = None,
                 budget: ObsBudget = ObsBudget(),
                 shard: str = "shard0",
                 alpha: float = DEFAULT_ALPHA) -> None:
        self.clock = clock or (lambda: 0.0)
        self.budget = budget
        self.shard = shard
        self.alpha = alpha
        self.spans = SpanLog(budget.span_sample, budget.span_outliers)
        self.sketches: dict[str, QuantileSketch] = {}
        self.rings: dict[str, TimeSeriesRing] = {}
        self.snapshots_emitted = 0

    # -- ingest --------------------------------------------------------
    def observe(self, name: str, value: float, t: float | None = None) -> None:
        """Feed one sample into the metric's sketch and time ring."""
        t = self.clock() if t is None else t
        sk = self.sketches.get(name)
        if sk is None:
            sk = self.sketches[name] = QuantileSketch(
                self.alpha, self.budget.sketch_bins)
        sk.add(value)
        ring = self.rings.get(name)
        if ring is None:
            ring = self.rings[name] = TimeSeriesRing(
                RING_RESOLUTION_S, self.budget.ring_buckets)
        ring.observe(t, value)

    # -- snapshot ------------------------------------------------------
    def snapshot(self, registry: Any = None, t: float | None = None) -> Snapshot:
        """Freeze the current state (plus a registry's instruments).

        ``registry`` is duck-typed on ``MetricsRegistry.instruments()``;
        each instrument is folded into the mergeable summary shape
        (counters exactly, gauges as watermarks, histograms as bucket
        seconds).  Increments ``obs.snapshots_emitted``.
        """
        self.snapshots_emitted += 1
        t = self.clock() if t is None else t
        counters: dict[str, float] = {}
        gauges: dict[str, dict[str, float]] = {}
        histograms: dict[str, dict[str, Any]] = {}
        if registry is not None:
            for inst in registry.instruments():
                key = instrument_key(inst.name, inst.labels)
                d = inst.as_dict()
                if d["type"] == "counter":
                    counters[key] = inst.value
                elif d["type"] == "gauge":
                    if inst.samples:
                        gauges[key] = {
                            "high": inst.high,
                            "low": inst.low,
                            "samples": inst.samples,
                        }
                else:
                    histograms[key] = {
                        "bounds": tuple(inst.bounds),
                        "high": inst.high,
                        "total_seconds": inst.total_seconds,
                        "weighted_sum": inst.weighted_sum,
                        "buckets": d["bucket_seconds"],
                    }
        counters["obs.snapshots_emitted"] = float(self.snapshots_emitted)
        counters["obs.spans_dropped"] = float(self.spans.dropped)
        # A workload has no causal log (interleaved queries would corrupt
        # one), so nothing can shed edges here; the key is wire format.
        counters["obs.edges_dropped"] = 0.0

        spans = ReservoirSample(self.budget.snapshot_spans,
                                self.budget.snapshot_outliers)
        for i, s in enumerate(self.spans.spans):
            ident = f"{self.shard}|{i:08d}|{s.track}|{s.name}"
            spans.add(ident, s.duration, {
                "track": s.track,
                "name": s.name,
                "t0": s.t0,
                "t1": s.t1,
                "args": {k: str(v) for k, v in sorted(s.args.items())},
            })
        spans.total = self.spans.total

        return Snapshot(
            t=t,
            shards=(self.shard,),
            counters=counters,
            gauges=gauges,
            histograms=histograms,
            sketches={k: QuantileSketch.from_dict(v.to_dict())
                      for k, v in self.sketches.items()},
            rings={k: TimeSeriesRing.from_dict(v.to_dict())
                   for k, v in self.rings.items()},
            spans=spans,
        )
