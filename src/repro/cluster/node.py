"""A simulated cluster node: CPU, NIC links, memory budget, disk, mailbox.

Every actor in the reproduction (scheduler, data source, join process) runs
as a simulation process bound to one :class:`Node`.  The node owns the
serially shared hardware: a single CPU (the Pentium III), full-duplex NIC
modelled as independent TX and RX links (switched Ethernet port), a
hash-table memory budget, and a local disk.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Any

from ..config import CostModel
from ..sim import CreditWindow, Mailbox, Resource, Simulator
from .disk import Disk
from .memory import MemoryAccount

__all__ = ["Node"]


class Node:
    """One machine in the simulated cluster."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        role: str,
        cost: CostModel,
        hash_memory_bytes: int = 0,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.role = role
        self.name = f"{role}{node_id}"
        self.cost = cost
        self.cpu = Resource(sim, capacity=1, name=f"{self.name}.cpu")
        self.tx = Resource(sim, capacity=1, name=f"{self.name}.tx")
        self.rx = Resource(sim, capacity=1, name=f"{self.name}.rx")
        #: receive-window credits for data chunks (see Network docstring);
        #: the consuming process gives back one credit per retired chunk
        self.recv_credits = CreditWindow(
            sim, capacity=cost.recv_window_chunks, name=f"{self.name}.rwnd"
        )
        self.mailbox = Mailbox(sim, name=f"{self.name}.mailbox")
        self.memory = MemoryAccount(hash_memory_bytes, name=f"{self.name}.mem")
        self.disk = Disk(sim, cost, name=f"{self.name}.disk")

    def compute_per_tuple(self, cost_per_tuple: float, n: int) -> Iterable[Any]:
        """Charge a vectorized per-tuple CPU cost for ``n`` tuples
        (yield-from in a process; nothing to wait for when ``n`` is 0)."""
        return self.cpu.use(cost_per_tuple * n) if n else ()
