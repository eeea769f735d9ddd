"""Cluster assembly: build all simulated nodes from a :class:`ClusterSpec`.

Node layout mirrors the paper's system architecture (§4.1): one scheduler
node, ``n_sources`` data-source nodes, and a pool of ``n_potential_nodes``
join nodes of which ``initial_nodes`` are working at start and the rest are
*potential* join nodes the scheduler may recruit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

from ..config import ClusterSpec, Topology
from ..sim import Simulator
from .network import Network
from .node import Node

__all__ = ["Cluster", "WorkloadCluster"]


def _instrument(node: Node, metrics: Any) -> None:
    """Wire one node's hardware into the metrics registry.

    Mailbox depth becomes a time-weighted histogram, the memory account
    gains a usage-timeline gauge, and disk transfers publish byte counters
    as they complete (see ``docs/OBSERVABILITY.md`` for the catalogue).
    """
    node.mailbox.depth_probe = metrics.histogram(
        "mailbox.depth", node=node.name
    )
    node.disk.written_counter = metrics.counter(
        "disk.bytes_written", node=node.name
    )
    node.disk.read_counter = metrics.counter("disk.bytes_read", node=node.name)
    if node.memory.capacity > 0:
        node.memory.usage_probe = metrics.gauge("mem.used_bytes", node=node.name)
        sim = node.sim  # not the node: the node holds the account
        node.memory.clock = lambda: sim.now


class _Hardware:
    """What both layouts are made of: the interconnect, and nodes handed
    out with consecutive global ids in creation order — the ids are metric
    labels, so the order each layout asks in is part of its snapshot."""

    def __init__(self, sim: Simulator, spec: ClusterSpec,
                 metrics: Any | None, faults: Any | None) -> None:
        self.sim = sim
        self.spec = spec
        self.metrics = metrics
        self._ids = itertools.count()
        self.network = Network(
            sim, spec.cost,
            shared_hub=spec.topology is Topology.SHARED_HUB,
            faults=faults,
        )

    def node(self, role: str, hash_memory_bytes: int = 0) -> Node:
        node = Node(self.sim, next(self._ids), role, self.spec.cost,
                    hash_memory_bytes=hash_memory_bytes)
        if self.metrics is not None:
            _instrument(node, self.metrics)
        return node

    def nodes(self, role: str, n: int) -> list[Node]:
        return [self.node(role) for _ in range(n)]

    def join_pool(self) -> list[Node]:
        return [
            self.node("join", self.spec.memory_of(j))
            for j in range(self.spec.n_potential_nodes)
        ]


@dataclass
class Cluster:
    """All simulated machines plus the shared interconnect."""

    sim: Simulator
    spec: ClusterSpec
    network: Network
    scheduler_node: Node
    source_nodes: list[Node]
    join_nodes: list[Node] = field(default_factory=list)
    #: standby scheduler machine (control-plane fault tolerance); only
    #: built when the fault plan arms the membership layer, so fault-free
    #: topology — node ids, metric labels — is unchanged
    backup_node: Node | None = None

    @classmethod
    def build(
        cls, sim: Simulator, spec: ClusterSpec, metrics: Any | None = None,
        faults: Any | None = None,
    ) -> Cluster:
        hw = _Hardware(sim, spec, metrics, faults)
        return cls(
            sim=sim,
            spec=spec,
            network=hw.network,
            scheduler_node=hw.node("sched"),
            source_nodes=hw.nodes("src", spec.n_sources),
            join_nodes=hw.join_pool(),
            # Appended after the join pool so every pre-existing global
            # node id is unchanged whether or not the backup exists.
            backup_node=(
                hw.node("sched-backup")
                if faults is not None and faults.plan.membership_active
                else None
            ),
        )

    @property
    def all_nodes(self) -> list[Node]:
        nodes = [self.scheduler_node, *self.source_nodes, *self.join_nodes]
        if self.backup_node is not None:
            nodes.append(self.backup_node)
        return nodes


@dataclass
class WorkloadCluster:
    """Shared-cluster layout for multi-tenant workloads (repro.workload).

    One interconnect, one communal join-node pool, plus *per query*: a
    scheduler node and a private set of source nodes.  ``views[q]`` is a
    plain :class:`Cluster` facade over the shared hardware — the per-query
    :class:`~repro.core.context.RunContext` consumes it unchanged, which is
    what lets every single-query actor run unmodified in workload mode.

    Node-id layout: pool coordinator first, then the per-query scheduler
    and source nodes, then the shared join pool (so join-node global ids —
    and with them trace/metric labels — are stable in the query count).
    """

    sim: Simulator
    spec: ClusterSpec
    network: Network
    pool_node: Node
    join_nodes: list[Node]
    views: list[Cluster]

    @classmethod
    def build(
        cls, sim: Simulator, spec: ClusterSpec, n_queries: int,
        metrics: Any | None = None, faults: Any | None = None,
    ) -> WorkloadCluster:
        hw = _Hardware(sim, spec, metrics, faults)
        pool_node = hw.node("pool")
        scheduler_nodes = hw.nodes("sched", n_queries)
        source_nodes = [hw.nodes("src", spec.n_sources)
                        for _ in range(n_queries)]
        join_nodes = hw.join_pool()
        views = [
            Cluster(
                sim=sim, spec=spec, network=hw.network,
                scheduler_node=scheduler_nodes[q],
                source_nodes=source_nodes[q],
                join_nodes=join_nodes,
            )
            for q in range(n_queries)
        ]
        return cls(
            sim=sim, spec=spec, network=hw.network, pool_node=pool_node,
            join_nodes=join_nodes, views=views,
        )

    @property
    def all_nodes(self) -> list[Node]:
        nodes = [self.pool_node]
        for view in self.views:
            nodes.append(view.scheduler_node)
            nodes.extend(view.source_nodes)
        nodes.extend(self.join_nodes)
        return nodes

    def reset_join_node(self, index: int) -> None:
        """Return a released pool node to factory state for its next tenant.

        The previous query's JoinProcess has exited (its Shutdown was
        answered with a FinalReport and the drain protocol guarantees no
        data is still in flight), but exit does not free hardware state:
        the memory account (and its peak), any unclaimed receive credits,
        and stray mailbox items must be cleared before a fresh JoinProcess
        adopts the node.
        """
        node = self.join_nodes[index]
        node.mailbox.drain()
        node.memory.reset()
        credits = node.recv_credits
        assert credits.queue_length == 0, (
            f"reset of {node.name} with senders still waiting for credits"
        )
        for _ in range(credits.in_use):
            credits.give()
