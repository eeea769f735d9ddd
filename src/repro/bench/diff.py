"""Benchmark baseline comparison: the ``repro bench-diff`` regression gate.

Compares two ``BENCH_*.json`` baselines produced by ``repro figures
--json`` (see :meth:`repro.bench.FigureHarness.baseline`): per-algorithm /
per-node-count deltas on every timing metric, with a percentage threshold
separating noise from regressions.  Structural differences (different
benchmark name or scale, series present in one file but not the other)
are hard failures — a diff that silently skipped a vanished series would
wave regressions through.

Timings come from the deterministic simulator, so on identical code a
self-diff is exactly zero; any nonzero delta is a real model change.
The CLI exits nonzero when :attr:`BenchDiff.ok` is false, which CI uses
to guard the perf trajectory (see ``docs/BENCHMARKS.md``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..obs.streaming import Snapshot

__all__ = ["BaselineError", "Delta", "BenchDiff", "load_baseline",
           "load_document", "diff_baselines", "diff_snapshots",
           "is_snapshot_doc"]

#: metrics carried per (algorithm, node-count) series point
METRICS = ("total_s", "build_s")

#: sketch quantiles compared per snapshot sketch
SKETCH_QUANTILES = (("p50", 0.50), ("p90", 0.90), ("p99", 0.99))


class BaselineError(ValueError):
    """A baseline file is missing, unparsable, or schema-invalid."""


def load_document(path: str | Path) -> dict[str, Any]:
    """Load one comparison document: baseline JSON or a snapshot stream.

    A ``--snapshot-out`` file is JSONL (one snapshot per line, final
    snapshot last); for those the last non-empty line is the document —
    the run's end state is what regression gates care about.
    """
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise BaselineError(f"{p}: cannot read baseline: {exc}") from exc
    lines = [ln for ln in text.splitlines() if ln.strip()]
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        if len(lines) < 2:
            raise BaselineError(f"{p}: not valid JSON") from None
        try:
            doc = json.loads(lines[-1])
        except json.JSONDecodeError as exc:
            raise BaselineError(
                f"{p}: neither JSON nor JSONL (last line: {exc})"
            ) from exc
    if not isinstance(doc, dict):
        raise BaselineError(f"{p}: baseline must be a JSON object")
    return doc


def is_snapshot_doc(doc: dict[str, Any]) -> bool:
    """Is this a ``repro-snapshot`` document (vs a figure baseline)?"""
    return doc.get("kind") == "repro-snapshot"


def load_baseline(path: str | Path) -> dict[str, Any]:
    """Load and schema-check one figure-baseline JSON file."""
    p = Path(path)
    doc = load_document(p)
    for key in ("benchmark", "scale", "series"):
        if key not in doc:
            raise BaselineError(f"{p}: baseline is missing {key!r}")
    series = doc["series"]
    if not isinstance(series, dict) or not series:
        raise BaselineError(f"{p}: 'series' must be a non-empty object")
    for algo, points in series.items():
        if not isinstance(points, dict) or not points:
            raise BaselineError(
                f"{p}: series[{algo!r}] must be a non-empty object"
            )
        for nodes, point in points.items():
            for metric in METRICS:
                value = point.get(metric) if isinstance(point, dict) else None
                if not isinstance(value, (int, float)) or not math.isfinite(
                    float(value)
                ):
                    raise BaselineError(
                        f"{p}: series[{algo!r}][{nodes!r}][{metric!r}] "
                        "must be a finite number"
                    )
    return doc


@dataclass(frozen=True)
class Delta:
    """One metric's change between baselines."""

    algorithm: str
    nodes: str
    metric: str
    old: float
    new: float

    @property
    def pct(self) -> float:
        """Percent change relative to old (+inf for 0 -> nonzero)."""
        if self.old == 0.0:
            return 0.0 if self.new == 0.0 else math.inf
        return (self.new - self.old) / self.old * 100.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "algorithm": self.algorithm,
            "nodes": self.nodes,
            "metric": self.metric,
            "old": self.old,
            "new": self.new,
            "pct": self.pct,
        }


@dataclass
class BenchDiff:
    """Full comparison of two baselines."""

    threshold_pct: float
    deltas: list[Delta] = field(default_factory=list)
    #: structural problems (missing/extra series, benchmark/scale mismatch)
    mismatches: list[str] = field(default_factory=list)

    @property
    def regressions(self) -> list[Delta]:
        """Slowdowns beyond the threshold (time metrics: bigger is worse)."""
        return [d for d in self.deltas if d.pct > self.threshold_pct]

    @property
    def improvements(self) -> list[Delta]:
        return [d for d in self.deltas if d.pct < -self.threshold_pct]

    @property
    def ok(self) -> bool:
        return not self.regressions and not self.mismatches

    def to_dict(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "threshold_pct": self.threshold_pct,
            "regressions": [d.to_dict() for d in self.regressions],
            "improvements": [d.to_dict() for d in self.improvements],
            "mismatches": list(self.mismatches),
            "deltas": [d.to_dict() for d in self.deltas],
        }

    def to_text(self) -> str:
        lines = [
            f"bench-diff: {len(self.deltas)} series points compared, "
            f"threshold {self.threshold_pct:g}%"
        ]
        for m in self.mismatches:
            lines.append(f"  MISMATCH  {m}")
        for d in self.regressions:
            lines.append(
                f"  REGRESSED {d.algorithm}/{d.nodes} {d.metric}: "
                f"{d.old:g} -> {d.new:g} ({d.pct:+.2f}%)"
            )
        for d in self.improvements:
            lines.append(
                f"  improved  {d.algorithm}/{d.nodes} {d.metric}: "
                f"{d.old:g} -> {d.new:g} ({d.pct:+.2f}%)"
            )
        lines.append("PASS" if self.ok else "FAIL")
        return "\n".join(lines)


def diff_baselines(
    old: dict[str, Any], new: dict[str, Any], threshold_pct: float = 1.0
) -> BenchDiff:
    """Compare two loaded baselines (see :func:`load_baseline`)."""
    if threshold_pct < 0:
        raise ValueError(f"threshold_pct must be >= 0, got {threshold_pct}")
    diff = BenchDiff(threshold_pct=threshold_pct)
    for key in ("benchmark", "scale"):
        if old.get(key) != new.get(key):
            diff.mismatches.append(
                f"{key} differs: old={old.get(key)!r} new={new.get(key)!r}"
            )
    old_series, new_series = old["series"], new["series"]
    for algo in sorted(set(old_series) | set(new_series)):
        if algo not in new_series:
            diff.mismatches.append(f"series {algo!r} missing from NEW")
            continue
        if algo not in old_series:
            diff.mismatches.append(f"series {algo!r} missing from OLD")
            continue
        old_pts, new_pts = old_series[algo], new_series[algo]
        for nodes in sorted(
            set(old_pts) | set(new_pts), key=lambda n: (len(n), n)
        ):
            if nodes not in new_pts:
                diff.mismatches.append(f"{algo}/{nodes} missing from NEW")
                continue
            if nodes not in old_pts:
                diff.mismatches.append(f"{algo}/{nodes} missing from OLD")
                continue
            for metric in METRICS:
                diff.deltas.append(Delta(
                    algorithm=algo,
                    nodes=nodes,
                    metric=metric,
                    old=float(old_pts[nodes][metric]),
                    new=float(new_pts[nodes][metric]),
                ))
    return diff


def diff_snapshots(
    old: Snapshot, new: Snapshot, threshold_pct: float = 1.0
) -> BenchDiff:
    """Compare two observability snapshots (``repro.obs.Snapshot``).

    Counters are compared *exactly* — the simulator is deterministic, so
    any counter difference is a real behaviour change and fails the gate
    as a mismatch, like a vanished series would.  Sketch quantiles
    (p50/p90/p99 per sketch) go through the percentage threshold like
    timing metrics, since the sketch itself carries a ~1% relative-error
    bound.
    """
    if threshold_pct < 0:
        raise ValueError(f"threshold_pct must be >= 0, got {threshold_pct}")
    diff = BenchDiff(threshold_pct=threshold_pct)
    if tuple(old.shards) != tuple(new.shards):
        diff.mismatches.append(
            f"shards differ: old={list(old.shards)} new={list(new.shards)}"
        )
    for key in sorted(set(old.counters) | set(new.counters)):
        if key not in old.counters:
            diff.mismatches.append(f"counter {key!r} missing from OLD")
        elif key not in new.counters:
            diff.mismatches.append(f"counter {key!r} missing from NEW")
        elif old.counters[key] != new.counters[key]:
            diff.mismatches.append(
                f"counter {key!r} differs: old={old.counters[key]:g} "
                f"new={new.counters[key]:g}"
            )
    for key in sorted(set(old.sketches) | set(new.sketches)):
        if key not in new.sketches:
            diff.mismatches.append(f"sketch {key!r} missing from NEW")
            continue
        if key not in old.sketches:
            diff.mismatches.append(f"sketch {key!r} missing from OLD")
            continue
        osk, nsk = old.sketches[key], new.sketches[key]
        for label, q in SKETCH_QUANTILES:
            diff.deltas.append(Delta(
                algorithm=key,
                nodes="sketch",
                metric=label,
                old=osk.quantile(q),
                new=nsk.quantile(q),
            ))
    return diff
