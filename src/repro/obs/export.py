"""Trace and metrics export: JSONL, Chrome ``trace_event`` JSON and the
plain-text tables of ``repro metrics`` and ``repro tail``.

The Chrome format (one JSON object with a ``traceEvents`` list) loads
directly into ``chrome://tracing`` or https://ui.perfetto.dev.  Simulated
seconds are exported as microseconds (the format's native unit), so a
2.4-second simulated run renders as a 2.4 s timeline.

Everything here is duck-typed: ``chrome_trace`` accepts any object with
``timeline`` (:class:`~repro.obs.timeline.PhaseTimeline`) and optionally
``tracer`` (an object with ``records``) attributes — in practice a
``JoinRunResult`` — keeping this package import-cycle free.
"""

from __future__ import annotations

import json
import re
from collections.abc import Callable, Iterable, Iterator, Sequence
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any

from .timeline import SCHEDULER_TRACK, PhaseTimeline

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from .streaming import Snapshot

__all__ = ["trace_to_jsonl", "metrics_to_jsonl", "chrome_trace",
           "format_table", "metrics_table", "render_snapshot_stream",
           "snapshot_sink"]

_SECONDS_TO_US = 1e6

_TRACK_RE = re.compile(r"^([a-z]+)(\d+)$")


def _json_default(obj: Any) -> Any:
    """Fallback encoder for numpy scalars/arrays and other odd values."""
    if hasattr(obj, "item"):
        return obj.item()
    if hasattr(obj, "tolist"):
        return obj.tolist()
    return str(obj)


def _dumps(obj: Any) -> str:
    return json.dumps(obj, default=_json_default)


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------
def trace_to_jsonl(tracer: Any) -> Iterator[str]:
    """One JSON object per :class:`~repro.sim.trace.TraceRecord` line.

    Keys: ``t`` (simulated seconds), ``category``, ``actor``, ``detail``.
    """
    for r in tracer.records:
        yield _dumps({
            "t": r.time,
            "category": r.category,
            "actor": r.actor,
            "detail": r.detail,
        })


def metrics_to_jsonl(snapshot: Iterable[dict[str, Any]]) -> Iterator[str]:
    """One JSON object per instrument (see ``MetricsRegistry.snapshot``)."""
    for inst in snapshot:
        yield _dumps(inst)


# ----------------------------------------------------------------------
# plain-text tables
# ----------------------------------------------------------------------
def format_table(headers: Sequence[str],
                 rows: Sequence[Sequence[object]]) -> str:
    """Plain fixed-width table: right-aligned columns, floats to one
    decimal."""
    cells = [[str(h) for h in headers]] + [
        [f"{c:.1f}" if isinstance(c, float) else str(c) for c in row]
        for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    for k, row in enumerate(cells):
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        if k == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def metrics_table(snapshot: Iterable[dict[str, Any]]) -> tuple[str, int]:
    """``repro metrics --format table``: the instruments that fired, one
    row each, and how many rows there are.  The registry instruments every
    pool node up front, so this view hides the idle ones; the JSONL view
    (:func:`metrics_to_jsonl`) keeps them."""
    rows = []
    for inst in snapshot:
        labels = ",".join(f"{k}={v}" for k, v in sorted(inst["labels"].items()))
        if inst["type"] == "counter":
            if not inst["value"]:
                continue
            value = f"{inst['value']:g}"
        elif inst["type"] == "gauge":
            if inst["samples"] == 0:
                continue
            value = f"last={inst['last']:g} high={inst['high']:g}"
        else:
            if not inst["total_seconds"]:
                continue
            value = (f"mean={inst['time_weighted_mean']:.3f} "
                     f"high={inst['high']:g}")
        rows.append([inst["name"], labels, inst["type"], value])
    return format_table(["metric", "labels", "type", "value"], rows), len(rows)


@contextmanager
def snapshot_sink(path: str | None,
                  live: bool) -> Iterator[Callable[[Snapshot], None]]:
    """The ``on_snapshot`` callback of ``--live`` and ``--snapshot-out``:
    one ``live:`` progress line per snapshot when ``live``, and one JSON
    line appended to ``path`` (when given), flushed so the stream can be
    followed while the run goes on."""
    fh = open(path, "w", encoding="utf-8") if path else None

    def on_snapshot(snap: Snapshot) -> None:
        if live:
            print(f"live: {snap.describe()}")
        if fh is not None:
            fh.write(snap.to_json() + "\n")
            fh.flush()

    try:
        yield on_snapshot
    finally:
        if fh is not None:
            fh.close()


def render_snapshot_stream(path: str) -> str:
    """``repro tail``: a ``--snapshot-out`` stream read back, one progress
    line per snapshot, then the final snapshot's counters and sketch
    percentiles.  An unreadable, empty or malformed stream raises a
    ValueError naming the file (and the line)."""
    from .streaming import Snapshot

    try:
        with open(path, encoding="utf-8") as fh:
            lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    if not lines:
        raise ValueError(f"{path}: empty snapshot stream")
    snaps = []
    for lineno, line in enumerate(lines, 1):
        try:
            snaps.append(Snapshot.from_json(line))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    last = snaps[-1]
    rows = [[name, f"{value:g}"]
            for name, value in sorted(last.counters.items()) if value]
    for name, sk in sorted(last.sketches.items()):
        if sk.count:
            pcts = sk.percentiles((50, 90, 99))
            rows.append([name, f"p50={pcts['p50']:g} p90={pcts['p90']:g} "
                               f"p99={pcts['p99']:g} (n={sk.count})"])
    return "\n".join([
        *(snap.describe() for snap in snaps), "",
        f"final snapshot: {len(snaps)} snapshot(s), "
        f"shards={','.join(last.shards)}, {len(last.spans)} sampled spans "
        f"({last.spans.dropped} shed)",
        format_table(["metric", "value"], rows)])


# ----------------------------------------------------------------------
# Chrome trace_event
# ----------------------------------------------------------------------
def _track_sort_key(track: str) -> tuple[int, str, int]:
    """Scheduler first, then actors grouped by role in numeric order."""
    if track == SCHEDULER_TRACK:
        return (0, "", 0)
    m = _TRACK_RE.match(track)
    if m:
        return (1, m.group(1), int(m.group(2)))
    return (2, track, 0)


def chrome_trace(result: Any) -> dict[str, Any]:
    """Build a Chrome ``trace_event`` document from a run result.

    Emits one thread (track) per actor: complete events (``ph: "X"``) for
    every timeline span — the scheduler's phase spans plus per-node
    build/probe/split/reshuffle/ooc spans — instant events (``ph: "i"``)
    for every collected trace record, and flow events (``ph: "s"``/``"f"``)
    for every delivered causal message edge, drawn as arrows between
    sender and receiver tracks in Perfetto.  Flow events bind by ``id``
    (the causal edge id) and carry the edge's ``parent`` provenance in
    ``args``, so the on-screen arrows are the causal DAG.
    """
    timeline: PhaseTimeline | None = getattr(result, "timeline", None)
    tracer = getattr(result, "tracer", None)
    causal = getattr(result, "causal", None)
    edges = list(causal.edges) if causal is not None else []
    if timeline is None:
        timeline = PhaseTimeline()

    tracks = list(timeline.tracks())
    if tracer is not None:
        for r in tracer.records:
            if r.actor not in tracks:
                tracks.append(r.actor)
    for e in edges:
        for track in (e.src, e.dst):
            if track not in tracks:
                tracks.append(track)
    tracks.sort(key=_track_sort_key)
    tids = {track: i for i, track in enumerate(tracks)}

    events: list[dict[str, Any]] = [
        {
            "ph": "M", "pid": 0, "tid": 0, "name": "process_name",
            "args": {"name": "repro simulated join"},
        },
    ]
    for track, tid in tids.items():
        events.append({
            "ph": "M", "pid": 0, "tid": tid, "name": "thread_name",
            "args": {"name": track},
        })

    for span in timeline.spans:
        events.append({
            "ph": "X",
            "pid": 0,
            "tid": tids[span.track],
            "ts": span.t0 * _SECONDS_TO_US,
            "dur": span.duration * _SECONDS_TO_US,
            "name": span.name,
            "cat": "phase" if span.track == SCHEDULER_TRACK else "node",
            "args": dict(span.args),
        })

    if tracer is not None:
        for r in tracer.records:
            events.append({
                "ph": "i",
                "pid": 0,
                "tid": tids[r.actor],
                "ts": r.time * _SECONDS_TO_US,
                "name": r.category,
                "s": "t",
                "args": dict(r.detail),
            })

    for e in edges:
        if not e.delivered:
            continue
        args = {
            "edge": e.eid,
            "parent": e.parent,
            "kind": e.kind,
            "hop": e.hop,
            "nbytes": e.nbytes,
            "attempts": e.attempts,
        }
        common = {"pid": 0, "name": e.msg_type, "cat": "causal", "id": e.eid}
        events.append({
            "ph": "s", "tid": tids[e.src],
            "ts": e.t_send * _SECONDS_TO_US, "args": args, **common,
        })
        events.append({
            "ph": "f", "bp": "e", "tid": tids[e.dst],
            "ts": e.t_deliver * _SECONDS_TO_US, "args": args, **common,
        })

    doc: dict[str, Any] = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"tool": "repro", "time_unit": "simulated seconds x 1e6"},
    }
    config = getattr(result, "config", None)
    if config is not None:
        doc["otherData"]["algorithm"] = getattr(
            getattr(config, "algorithm", None), "value", None
        )
    # Round-trip through the tolerant encoder so numpy scalars in span/trace
    # args can't make the document unserializable for callers using a plain
    # json.dump.
    return json.loads(_dumps(doc))
