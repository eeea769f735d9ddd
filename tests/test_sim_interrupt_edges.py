"""Regression tests for interrupt/failure edge cases in the kernel.

These were found by adversarial review: interrupts racing process
termination, abandoned resource/mailbox waiters, multiple failures in one
step, and time regression via run(until=...).
"""

import pytest

from repro.sim import Interrupt, Mailbox, Resource, Simulator


def test_interrupt_racing_termination_is_harmless():
    """Interrupt called while the target is alive, but whose wakeup fires
    after the target finished in the same tick: must be a no-op, not a
    throw into an exhausted generator."""
    sim = Simulator()
    target_holder = []

    def interrupter(sim):
        yield sim.timeout(5.0)
        target = target_holder[0]
        assert target.is_alive          # genuinely alive at call time
        target.interrupt("racing")      # wakeup fires after target's event

    def quick(sim):
        yield sim.timeout(5.0)          # same timestamp, later heap seq
        return "finished"

    sim.spawn(interrupter(sim))         # spawned first -> runs first at t=5
    p = sim.spawn(quick(sim))
    target_holder.append(p)
    sim.run()
    assert p.value == "finished"


def test_interrupted_resource_waiter_does_not_leak_slot():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def holder(sim, res):
        yield from res.use(10.0)
        order.append(("holder", sim.now))

    def impatient(sim, res):
        try:
            yield from res.use(1.0)
            order.append(("impatient", sim.now))
        except Interrupt:
            order.append(("interrupted", sim.now))

    def patient(sim, res):
        yield sim.timeout(2.0)
        yield from res.use(1.0)
        order.append(("patient", sim.now))

    h = sim.spawn(holder(sim, res))
    imp = sim.spawn(impatient(sim, res))
    sim.spawn(patient(sim, res))

    def killer(sim, target):
        yield sim.timeout(1.0)
        target.interrupt()

    sim.spawn(killer(sim, imp))
    sim.run()
    # The slot freed by the holder must reach the patient process, not the
    # abandoned waiter.
    assert ("interrupted", 1.0) in order
    assert ("patient", 11.0) in order
    assert res.in_use == 0


def test_cancelled_mailbox_getter_does_not_eat_messages():
    sim = Simulator()
    box = Mailbox(sim)
    got = []

    def abandoner(sim, box):
        ev = box.get()
        try:
            yield ev
        except Interrupt:
            box.cancel_get(ev)
            return "gone"

    def consumer(sim, box):
        msg = yield box.get()
        got.append(msg)

    a = sim.spawn(abandoner(sim, box))
    sim.spawn(consumer(sim, box))

    def driver(sim, a, box):
        yield sim.timeout(1.0)
        a.interrupt()
        yield sim.timeout(1.0)
        box.put("precious")

    sim.spawn(driver(sim, a, box))
    sim.run()
    assert got == ["precious"], "the message must reach the live consumer"


def test_multiple_unobserved_failures_in_one_step_still_raise():
    sim = Simulator()
    gate = sim.timeout(1.0)  # wakes both failers in one step

    def failer(sim, gate, msg):
        yield gate
        raise RuntimeError(msg)

    sim.spawn(failer(sim, gate, "first"))
    sim.spawn(failer(sim, gate, "second"))
    with pytest.raises(RuntimeError):
        sim.run()


def test_observed_failure_plus_unobserved_failure():
    """If one failure is observed by a waiter and another is not, the
    unobserved one must still surface from run()."""
    sim = Simulator()
    gate = sim.timeout(1.0)  # wakes both failers in one step

    def failer(sim, gate, msg):
        yield gate
        raise RuntimeError(msg)

    observed = sim.spawn(failer(sim, gate, "observed"))

    def watcher(sim, target):
        try:
            yield target
        except RuntimeError:
            return "caught"

    sim.spawn(watcher(sim, observed))
    sim.spawn(failer(sim, gate, "unobserved"))
    with pytest.raises(RuntimeError, match="unobserved"):
        sim.run()


def test_run_until_cannot_move_time_backwards():
    sim = Simulator()
    sim.timeout(20.0)
    sim.run(until=10.0)
    assert sim.now == 10.0
    with pytest.raises(ValueError):
        sim.run(until=5.0)
    sim.run(until=10.0)  # equal is fine
    assert sim.now == 10.0


def test_interrupted_grab_waiter_does_not_leak_slot():
    """grab() is the interrupt-safe bare acquire: a waiter killed while
    queued must withdraw its request, or the next release hands the slot
    to the corpse and the resource is held forever."""
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def holder(sim, res):
        yield from res.use(10.0)

    def doomed(sim, res):
        try:
            yield from res.grab()
        except Interrupt:
            order.append(("interrupted", sim.now))
            return
        res.release()

    def patient(sim, res):
        yield sim.timeout(2.0)
        yield from res.grab()
        order.append(("patient", sim.now))
        res.release()

    sim.spawn(holder(sim, res))
    d = sim.spawn(doomed(sim, res))
    sim.spawn(patient(sim, res))

    def killer(sim, target):
        yield sim.timeout(1.0)
        target.interrupt()

    sim.spawn(killer(sim, d))
    sim.run()
    assert ("interrupted", 1.0) in order
    assert ("patient", 10.0) in order
    assert res.in_use == 0
