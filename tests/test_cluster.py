"""Unit tests for the cluster substrate: memory, disk, nodes, assembly."""

import pytest

from repro.cluster import Cluster, MemoryAccount, MemoryFullError, Node
from repro.config import ClusterSpec, CostModel
from repro.sim import Interrupt, Simulator


# ----------------------------------------------------------------------
# MemoryAccount
# ----------------------------------------------------------------------
def test_memory_alloc_and_free_roundtrip():
    mem = MemoryAccount(100)
    assert mem.try_alloc(60)
    assert mem.used == 60 and mem.available == 40
    mem.free(20)
    assert mem.used == 40
    assert mem.peak == 60


def test_memory_rejects_overflow():
    mem = MemoryAccount(100)
    assert not mem.try_alloc(101)
    assert mem.used == 0
    with pytest.raises(MemoryFullError) as err:
        mem.alloc(150)
    assert err.value.requested == 150
    assert err.value.available == 100


def test_memory_exact_fill_is_full():
    mem = MemoryAccount(10)
    assert mem.try_alloc(10)
    assert mem.is_full
    assert mem.fits(0)
    assert not mem.fits(1)


def test_memory_free_more_than_used_raises():
    mem = MemoryAccount(10)
    mem.alloc(5)
    with pytest.raises(ValueError):
        mem.free(6)


def test_memory_negative_operations_rejected():
    mem = MemoryAccount(10)
    with pytest.raises(ValueError):
        mem.try_alloc(-1)
    with pytest.raises(ValueError):
        mem.free(-1)
    with pytest.raises(ValueError):
        MemoryAccount(-5)


# ----------------------------------------------------------------------
# Disk
# ----------------------------------------------------------------------
def test_disk_charges_seek_plus_transfer():
    sim = Simulator()
    cost = CostModel()
    node = Node(sim, 0, "join", cost, hash_memory_bytes=0)

    def writer(sim, node):
        yield from node.disk.write(cost.disk_bandwidth)  # exactly 1 second

    sim.spawn(writer(sim, node))
    sim.run()
    assert sim.now == pytest.approx(cost.disk_seek + 1.0)
    assert node.disk.bytes_written == cost.disk_bandwidth
    assert node.disk.ops == 1


def test_disk_serializes_requests():
    sim = Simulator()
    cost = CostModel()
    node = Node(sim, 0, "join", cost)

    def io(sim, node):
        yield from node.disk.write(0)
        yield from node.disk.read(0)

    sim.spawn(io(sim, node))
    sim.run()
    assert sim.now == pytest.approx(2 * cost.disk_seek)
    assert node.disk.busy_time == pytest.approx(2 * cost.disk_seek)


class _Counter:
    """Minimal duck-typed metric counter (see Disk.written_counter)."""

    def __init__(self):
        self.value = 0

    def inc(self, n):
        self.value += n


def test_disk_accounting_conserved_under_interrupts():
    """Byte/op counters must reflect only *completed* transfers: a writer
    interrupted while queued for the device, or mid-transfer, performed no
    I/O.  Regression test for counters being credited before the device
    was even acquired."""
    sim = Simulator()
    cost = CostModel()
    node = Node(sim, 0, "join", cost)
    node.disk.written_counter = _Counter()
    completed = []

    def writer(tag, nbytes):
        try:
            yield from node.disk.write(nbytes)
            completed.append((tag, nbytes))
        except Interrupt:
            pass

    # a holds the device; b is interrupted while queued; a is interrupted
    # mid-transfer; c (spawned after the carnage) must still complete.
    a = sim.spawn(writer("a", 4 * cost.disk_bandwidth))  # ~4s transfer
    b = sim.spawn(writer("b", cost.disk_bandwidth))

    def saboteur(sim):
        yield sim.timeout(0.5)
        b.interrupt("cancel queued write")
        yield sim.timeout(0.5)
        a.interrupt("cancel in-flight write")
        yield sim.timeout(0.0)
        sim.spawn(writer("c", 2 * cost.disk_bandwidth))

    sim.spawn(saboteur(sim))
    sim.run()

    assert completed == [("c", 2 * cost.disk_bandwidth)]
    assert node.disk.bytes_written == 2 * cost.disk_bandwidth
    assert node.disk.ops == 1
    assert node.disk.written_counter.value == node.disk.bytes_written


def test_disk_read_accounting_conserved_under_interrupts():
    sim = Simulator()
    cost = CostModel()
    node = Node(sim, 0, "join", cost)
    node.disk.read_counter = _Counter()

    def reader(sim, node):
        try:
            yield from node.disk.read(10 * cost.disk_bandwidth)
        except Interrupt:
            pass

    p = sim.spawn(reader(sim, node))

    def saboteur(sim):
        yield sim.timeout(1.0)
        p.interrupt("abort read")

    sim.spawn(saboteur(sim))
    sim.run()
    assert node.disk.bytes_read == 0
    assert node.disk.ops == 0
    assert node.disk.read_counter.value == 0


def test_disk_rejects_negative_sizes():
    sim = Simulator()
    node = Node(sim, 0, "join", CostModel())
    with pytest.raises(ValueError):
        next(node.disk.write(-1))
    with pytest.raises(ValueError):
        next(node.disk.read(-1))


# ----------------------------------------------------------------------
# Node & Cluster
# ----------------------------------------------------------------------
def test_node_compute_occupies_cpu():
    sim = Simulator()
    node = Node(sim, 3, "src", CostModel())

    def worker(sim, node):
        yield from node.cpu.use(1.5)
        yield from node.compute_per_tuple(2.0, 3)

    sim.spawn(worker(sim, node))
    sim.run()
    assert sim.now == pytest.approx(7.5)
    assert node.name == "src3"


def test_cluster_build_layout():
    sim = Simulator()
    spec = ClusterSpec(n_sources=3, n_potential_nodes=5,
                       hash_memory_bytes=1000)
    cluster = Cluster.build(sim, spec)
    assert cluster.scheduler_node.role == "sched"
    assert len(cluster.source_nodes) == 3
    assert len(cluster.join_nodes) == 5
    ids = [n.node_id for n in cluster.all_nodes]
    assert ids == sorted(set(ids)), "node ids must be unique and ordered"
    assert all(n.memory.capacity == 1000 for n in cluster.join_nodes)


def test_cluster_memory_overrides():
    sim = Simulator()
    spec = ClusterSpec(
        n_potential_nodes=4,
        hash_memory_bytes=100,
        node_memory_overrides=((2, 999),),
    )
    cluster = Cluster.build(sim, spec)
    assert cluster.join_nodes[2].memory.capacity == 999
    assert cluster.join_nodes[1].memory.capacity == 100
    assert spec.memory_of(2) == 999
    assert spec.memory_of(0) == 100


def test_node_recv_credits_match_cost_model():
    sim = Simulator()
    cost = CostModel(recv_window_chunks=7)
    node = Node(sim, 0, "join", cost)
    assert node.recv_credits.capacity == 7
