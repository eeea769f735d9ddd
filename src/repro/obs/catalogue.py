"""The metric vocabulary: every name the code publishes, declared once.

``MetricsRegistry`` refuses, with a ``ValueError``, to create an
instrument whose name is not a key of :data:`METRICS` or whose kind or
label keys differ from its row.  The "Metric catalogue" table in
``docs/OBSERVABILITY.md`` is :func:`catalogue_table`'s output, and a test
fails when the two differ.  Adding a metric is one row here.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["METRICS", "Metric", "catalogue_table"]


class Metric(NamedTuple):
    """One declared metric: instrument kind, label keys, what it counts."""

    kind: str                 # "counter" | "gauge" | "histogram"
    labels: tuple[str, ...]   # label keys, in the order the docs list them
    meaning: str


METRICS: dict[str, Metric] = {
    "dataplane.bulk_probe_rows": Metric(
        "counter", ("node",), "`NodeHashStore`, live, probe-side tuples matched through the "
        "bulk path"),
    "dataplane.chunks_routed": Metric(
        "counter", ("node",), "data source, one per vectorized routing pass (generation, "
        "re-partition, replay; [DATA_PLANE.md](DATA_PLANE.md))"),
    "disk.bytes_read": Metric("counter", ("node",), "`Disk`, live, on transfer *completion*"),
    "disk.bytes_written": Metric("counter", ("node",), "`Disk`, live, on transfer *completion*"),
    "disk.ops": Metric("counter", ("node",), "harvested"),
    "faults_duplicates_suppressed": Metric(
        "counter", ("node",), "join node, one per deduplicated re-delivery"),
    "faults_injected": Metric(
        "counter", ("kind",), "fault injector, live; `kind` is `crash`, `message_drop`, "
        "`ack_drop` or `scheduler_crash`"),
    "faults_recruit_failures": Metric(
        "counter", ("phase",), "scheduler, one per recruit ack-deadline miss"),
    "fleet.cohort_wall_s": Metric(
        "gauge", ("cohort",), "fleet parent, the claiming worker's wall-clock for one cohort "
        "(claim to `cohort_done`), reported cohorts only — read against `fleet.worker_wall_s` "
        "to see who was the busiest shard and why"),
    "fleet.shards_failed": Metric(
        "counter", (), "fleet parent, one per `ShardFailure` (crash/timeout/error)"),
    "fleet.shards_launched": Metric(
        "counter", (), "fleet parent, one per worker process started ([FLEET.md](FLEET.md))"),
    "fleet.snapshots_merged": Metric(
        "counter", (), "fleet parent, cohort snapshots folded into merged emissions"),
    "fleet.worker_wall_s": Metric(
        "gauge", ("shard",), "fleet parent, per-worker wall-clock as self-reported at clean exit"),
    "hash.inserted_tuples": Metric("counter", ("node",), "`NodeHashStore`, live"),
    "hash.matches": Metric("counter", ("node",), "`NodeHashStore`, live"),
    "lockdep.cycles_detected": Metric(
        "counter", (), "runtime deadlock detector, one per wait-for cycle closed (a detected "
        "deadlock; the run fails with the report)"),
    "lockdep.waits_tracked": Metric(
        "counter", (), "runtime deadlock detector, one per blocking wait registered "
        "([STATIC_ANALYSIS.md](STATIC_ANALYSIS.md))"),
    "mailbox.depth": Metric("histogram", ("node",), "`Mailbox`, live, time-weighted"),
    "mailbox.messages": Metric("counter", ("node",), "harvested"),
    "mem.peak_bytes": Metric("gauge", ("node",), "harvested high-water mark"),
    "mem.used_bytes": Metric("gauge", ("node",), "`MemoryAccount`, live, on every alloc/free"),
    "membership.deaths_declared": Metric(
        "counter", (), "failure detector, one per confirmed death verdict"),
    "membership.false_positive": Metric(
        "counter", (), "failure detector, one per suspicion cleared by a late ack"),
    "membership.pings": Metric("counter", (), "failure detector, one per heartbeat transmitted"),
    "membership.suspected": Metric(
        "counter", (), "failure detector, one per node entering suspicion"),
    "net.delivered_bytes": Metric("counter", ("src", "dst", "kind"), "network (harvested)"),
    "net.delivered_messages": Metric("counter", ("kind",), "network (harvested)"),
    "net.dropped_bytes": Metric("counter", ("src", "dst", "kind"), "network (harvested)"),
    "net.dropped_messages": Metric("counter", ("kind",), "network (harvested)"),
    "net.duplicate_bytes": Metric("counter", ("src", "dst", "kind"), "network (harvested)"),
    "net.duplicate_messages": Metric("counter", ("kind",), "network (harvested)"),
    "net.in_flight_peak": Metric(
        "gauge", (), "network high-water mark of concurrently in-flight messages (harvested)"),
    "net.sent_bytes": Metric("counter", ("src", "dst", "kind"), "network (harvested)"),
    "net.sent_messages": Metric("counter", ("kind",), "network (harvested)"),
    "node.dedup_window": Metric(
        "gauge", ("node",), "join node, size of the bounded duplicate-suppression window"),
    "obs.edges_dropped": Metric(
        "counter", (), "bounded causal log, message edges shed under `--obs-budget` (the "
        "registry has it only when budgeted; every workload snapshot carries it, `0.0` since a "
        "workload keeps no causal log)"),
    "obs.snapshots_emitted": Metric(
        "counter", (), "live telemetry emitter, one per periodic snapshot (the registry has it "
        "under `--live` only; every workload snapshot carries it, `1.0` on a non-live run)"),
    "obs.spans_dropped": Metric(
        "counter", (), "bounded span log, spans shed under `--obs-budget` (the registry has it "
        "only when budgeted; every workload snapshot carries it, `0.0` when nothing was shed)"),
    "pool.admission_wait_s": Metric(
        "gauge", (), "resource pool, queueing delay of an admission at its grant; one gauge "
        "across all admissions, `high`/`low` span them"),
    "pool.free_nodes": Metric("gauge", (), "resource pool, sampled on every grant/release/crash"),
    "pool.node_crashes": Metric(
        "counter", (), "resource pool, one per dormant node lost to a crash"),
    "pool.nodes_in_use": Metric(
        "histogram", (), "resource pool, time-weighted; mean/total = pool utilization"),
    "pool.recruit_denials": Metric(
        "counter", ("reason",), "resource pool, one per denied recruit; `reason` is `timeout` "
        "or `fair_share_cap`"),
    "pool.recruit_grants": Metric("counter", (), "resource pool, one per node granted"),
    "pool.recruit_requests": Metric(
        "counter", ("admission",), "resource pool, one per arriving request (admission vs "
        "expansion recruit)"),
    "pool.releases": Metric(
        "counter", (), "resource pool, one per node returned by a finished query"),
    "retries_total": Metric(
        "counter", ("kind",), "network retransmissions + scheduler re-recruits; `kind` is "
        "`data`, `control` or `recruit`"),
    "sched.drain_rounds": Metric("counter", ("phase",), "scheduler, one per poll round"),
    "sched.failover_count": Metric("counter", (), "backup scheduler, one per standby takeover"),
    "sched.recovery_cycles": Metric(
        "counter", ("phase",), "scheduler, one per working-node recovery cycle"),
    "sched.recovery_latency_s": Metric("gauge", ("phase",), "scheduler, per-recovery latency"),
    "sched.relief_cycles": Metric("counter", ("phase",), "scheduler, one per relief cycle"),
    "sched.relief_latency_s": Metric("gauge", ("phase",), "scheduler, per-cycle latency"),
    "sim.events_executed": Metric("counter", (), "kernel (harvested at end of run)"),
    "workload.makespan_s": Metric(
        "gauge", (), "workload driver, time to the last query finishing"),
    "workload.queries": Metric(
        "counter", ("algorithm",), "workload driver, one per completed query"),
    "workload.query_latency_s": Metric(
        "gauge", ("query",), "workload driver, arrival-to-finish per query"),
    "workload.queue_delay_s": Metric(
        "gauge", ("query",), "workload driver, arrival-to-admission per query"),
}


def catalogue_table() -> str:
    """The docs' markdown table: one row per metric, in name order."""
    rows = ["| metric | kind | labels | meaning |", "|---|---|---|---|"]
    for name, m in sorted(METRICS.items()):
        labels = ", ".join(f"`{k}`" for k in m.labels) or "—"
        rows.append(f"| `{name}` | {m.kind} | {labels} | {m.meaning} |")
    return "\n".join(rows) + "\n"
