"""End-of-run harvesting of substrate counters into the registry.

Hot-path components (the kernel's event loop, the network's per-pair byte
tables) keep their own plain-int counters and are folded into the
:class:`~repro.obs.metrics.MetricsRegistry` once, at end of run — the
cheap half of "everything publishes into one registry".  Live timelines
(memory usage, mailbox depth) are instead wired up front by
``Cluster.build``.  All parameters are duck-typed to keep this package
free of ``repro`` imports.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Any

from .metrics import MetricsRegistry

__all__ = ["harvest"]


def harvest(registry: MetricsRegistry, sim: Any, network: Any,
            nodes: Iterable[Any]) -> None:
    """Publish a finished run's substrate totals: kernel events, network
    bytes/messages, per-node memory peaks, disk ops and mailbox traffic."""
    registry.counter("sim.events_executed").inc(sim.processed_events)

    # Per-(src, dst, kind) byte totals and per-kind message totals.
    for (src, dst, kind), nbytes in network.sent_bytes.items():
        registry.counter(
            "net.sent_bytes", src=src, dst=dst, kind=kind
        ).inc(nbytes)
    for (src, dst, kind), nbytes in network.delivered_bytes.items():
        registry.counter(
            "net.delivered_bytes", src=src, dst=dst, kind=kind
        ).inc(nbytes)
    for kind, count in network.sent_messages.items():
        registry.counter("net.sent_messages", kind=kind).inc(count)
    for kind, count in network.delivered_messages.items():
        registry.counter("net.delivered_messages", kind=kind).inc(count)
    # Fault-injection accounting (all zero / absent on fault-free runs).
    for (src, dst, kind), nbytes in network.dropped_bytes.items():
        registry.counter(
            "net.dropped_bytes", src=src, dst=dst, kind=kind
        ).inc(nbytes)
    for (src, dst, kind), nbytes in network.duplicate_bytes.items():
        registry.counter(
            "net.duplicate_bytes", src=src, dst=dst, kind=kind
        ).inc(nbytes)
    for kind, count in network.dropped_messages.items():
        registry.counter("net.dropped_messages", kind=kind).inc(count)
    for kind, count in network.duplicate_messages.items():
        registry.counter("net.duplicate_messages", kind=kind).inc(count)
    if network.in_flight_peak:
        registry.set_gauge("net.in_flight_peak", network.in_flight_peak)

    # Disk *byte* totals are published live by the wired-up ``Disk``
    # counters; only the op count is folded in here.
    for node in nodes:
        name = node.name
        if node.disk.ops:
            registry.counter("disk.ops", node=name).inc(node.disk.ops)
        if node.memory.peak:
            registry.set_gauge("mem.peak_bytes", node.memory.peak, node=name)
        if node.mailbox.total_put:
            registry.counter("mailbox.messages", node=name).inc(
                node.mailbox.total_put
            )
