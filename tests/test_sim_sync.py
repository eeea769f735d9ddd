"""Unit tests for mailboxes and resources."""

import pytest

from repro.sim import Mailbox, Resource, Simulator
from repro.sim.errors import SimulationError


# ----------------------------------------------------------------------
# Mailbox
# ----------------------------------------------------------------------
def test_mailbox_fifo_order():
    sim = Simulator()
    box = Mailbox(sim)
    got = []

    def consumer(sim, box):
        for _ in range(3):
            msg = yield box.get()
            got.append(msg)

    sim.spawn(consumer(sim, box))
    for i in range(3):
        box.put(i)
    sim.run()
    assert got == [0, 1, 2]


def test_mailbox_blocking_get_waits_for_put():
    sim = Simulator()
    box = Mailbox(sim)

    def consumer(sim, box):
        msg = yield box.get()
        return (msg, sim.now)

    def producer(sim, box):
        yield sim.timeout(5.0)
        box.put("late")

    c = sim.spawn(consumer(sim, box))
    sim.spawn(producer(sim, box))
    sim.run()
    assert c.value == ("late", 5.0)


def test_mailbox_multiple_getters_fifo():
    sim = Simulator()
    box = Mailbox(sim)
    results = []

    def consumer(sim, box, name):
        msg = yield box.get()
        results.append((name, msg))

    sim.spawn(consumer(sim, box, "first"))
    sim.spawn(consumer(sim, box, "second"))

    def producer(sim, box):
        yield sim.timeout(1.0)
        box.put("a")
        box.put("b")

    sim.spawn(producer(sim, box))
    sim.run()
    assert results == [("first", "a"), ("second", "b")]


def test_mailbox_drain_and_len():
    sim = Simulator()
    box = Mailbox(sim)
    box.put(1)
    box.put(2)
    assert len(box) == 2
    assert box.drain() == [1, 2]
    assert len(box) == 0
    assert box.total_put == 2


# ----------------------------------------------------------------------
# Resource
# ----------------------------------------------------------------------
def test_resource_serializes_users_fifo():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    done = []

    def user(sim, res, i):
        yield from res.use(1.0)
        done.append((i, sim.now))

    for i in range(3):
        sim.spawn(user(sim, res, i))
    sim.run()
    assert done == [(0, 1.0), (1, 2.0), (2, 3.0)]
    assert res.busy_time == pytest.approx(3.0)


def test_resource_capacity_allows_parallelism():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    done = []

    def user(sim, res, i):
        yield from res.use(1.0)
        done.append((i, sim.now))

    for i in range(4):
        sim.spawn(user(sim, res, i))
    sim.run()
    assert [t for _, t in done] == [1.0, 1.0, 2.0, 2.0]


def test_resource_release_of_idle_raises():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    with pytest.raises(SimulationError):
        res.release()


def test_resource_invalid_capacity():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


def test_resource_negative_duration_rejected():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def user(sim, res):
        yield from res.use(-1.0)

    sim.spawn(user(sim, res))
    with pytest.raises(ValueError):
        sim.run()


def test_resource_queue_length_and_in_use():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def holder(sim, res):
        yield from res.use(10.0)

    def waiter(sim, res):
        yield from res.use(1.0)

    sim.spawn(holder(sim, res))
    sim.spawn(waiter(sim, res))
    sim.run(until=5.0)
    assert res.in_use == 1
    assert res.queue_length == 1


def test_resource_handoff_keeps_in_use_stable():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def user(sim, res):
        yield from res.use(1.0)

    for _ in range(3):
        sim.spawn(user(sim, res))
    sim.run(until=1.5)
    assert res.in_use == 1  # handed directly to the next waiter
