"""Observability: structured metrics, span timelines, trace/metrics export.

This package is the measurement substrate for the whole reproduction.
Every layer publishes into one :class:`MetricsRegistry` per run — the
simulator (events executed), the network (bytes per (src, dst, kind)),
disks (bytes/ops per node), memory accounts (usage timelines with
high-water marks), mailboxes (queue depths), the hash stores (inserted
tuples / matches) and the scheduler (relief-cycle latencies, drain
rounds).  Phase and transfer *spans* land in a :class:`SpanLog` and are
attached to ``JoinRunResult`` as a :class:`PhaseTimeline`, exportable as
JSONL or Chrome ``trace_event`` JSON (``chrome://tracing`` / Perfetto).
Network sends additionally land in a :class:`CausalLog` — a causal DAG of
``send -> deliver`` edges with parent provenance — from which
:func:`explain` extracts the makespan's critical path and a ranked
bottleneck report (``repro explain``).

Deliberately dependency-free: ``repro.obs`` imports nothing from the rest
of ``repro``, so the simulation substrate, the cluster model and the join
protocol can all publish into it without import cycles.  Every metric
name is declared once, in :mod:`repro.obs.catalogue`; see
``docs/OBSERVABILITY.md`` for the generated catalogue and CLI usage.

The names below resolve on first use, as :mod:`repro`'s do: reading
``ObsBudget`` loads :mod:`repro.obs.streaming` and what it imports, not
the critical-path analysis or the exporters.
"""

import importlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - the same names, for type checkers
    from .causality import CausalLog, MessageEdge
    from .critpath import ExplainReport, PathStep, critical_path, explain
    from .export import (chrome_trace, format_table, metrics_table, metrics_to_jsonl,
                         render_snapshot_stream, snapshot_sink, trace_to_jsonl)
    from .harvest import harvest
    from .metrics import Counter, Gauge, MetricsRegistry, TimeWeightedHistogram
    from .reservoir import ReservoirSample
    from .streaming import (ObsBudget, QuantileSketch, Snapshot, StreamingCollector,
                            TimeSeriesRing, merge_snapshots)
    from .timeline import PHASE_NAMES, SCHEDULER_TRACK, PhaseTimeline, Span, SpanLog

#: the smallest ``--obs-budget`` (:meth:`ObsBudget.from_bytes`); here, not
#: in :mod:`.streaming`, so ``repro --help`` can name it without loading it
MIN_BUDGET_BYTES = 4096

#: public name -> the submodule that defines it, imported on first access
_SOURCES = {name: module for module, names in {
    "causality": ("CausalLog", "MessageEdge"),
    "critpath": ("ExplainReport", "PathStep", "critical_path", "explain"),
    "export": ("chrome_trace", "format_table", "metrics_table", "metrics_to_jsonl",
               "render_snapshot_stream", "snapshot_sink", "trace_to_jsonl"),
    "harvest": ("harvest",),
    "metrics": ("Counter", "Gauge", "MetricsRegistry", "TimeWeightedHistogram"),
    "reservoir": ("ReservoirSample",),
    "streaming": ("ObsBudget", "QuantileSketch", "Snapshot", "StreamingCollector",
                  "TimeSeriesRing", "merge_snapshots"),
    "timeline": ("PHASE_NAMES", "SCHEDULER_TRACK", "PhaseTimeline", "Span", "SpanLog"),
}.items() for name in names}

__all__ = sorted([*_SOURCES, "MIN_BUDGET_BYTES"])


def __getattr__(name: str) -> object:
    try:
        module = _SOURCES[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
