"""Regression tests for interrupt/failure edge cases in the kernel.

These were found by adversarial review: interrupts racing process
termination, abandoned resource/mailbox waiters, multiple failures in one
step, and time regression via run(until=...).
"""

import pytest

from repro.sim import Interrupt, LockdepMonitor, Mailbox, Resource, Simulator


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
        try:
            yield from box.recv()
        except Interrupt:
            return "gone"

    def consumer(sim, box):
        msg = yield from box.recv()
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
    """A ``with res.request()`` hold killed while queued must withdraw its
    request, or the next release hands the slot to the corpse and the
    resource is held forever."""
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def holder(sim, res):
        yield from res.use(10.0)

    def doomed(sim, res):
        try:
            with res.request() as req:
                yield req
        except Interrupt:
            order.append(("interrupted", sim.now))

    def patient(sim, res):
        yield sim.timeout(2.0)
        with res.request() as req:
            yield req
            order.append(("patient", sim.now))

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


def _recovering_receiver(sim, box, got, wait=0.0):
    """Receive once, shrug off an interrupt, then receive again."""
    if wait:
        yield sim.timeout(wait)
    try:
        got.append((yield from box.recv()))
    except Interrupt:
        got.append("interrupted")
    got.append((yield from box.recv()))


def test_interrupt_before_a_same_tick_put_keeps_the_message():
    """The interrupt is scheduled first, then a put in the same tick hands
    the message to the still-registered getter.  The withdrawn receive
    must put it back: on a crashed join node a lost chunk is one receive
    credit that is never returned."""
    sim = Simulator()
    box = Mailbox(sim)
    got = []
    r = sim.spawn(_recovering_receiver(sim, box, got))

    def driver(sim):
        yield sim.timeout(1.0)
        r.interrupt()
        box.put("precious")

    sim.spawn(driver(sim))
    sim.run()
    assert got == ["interrupted", "precious"]
    assert len(box) == 0


def test_interrupt_before_a_same_tick_immediate_receive_keeps_the_message():
    """Same race from the other side: the message was already queued, the
    receiver takes it in the tick its interrupt is pending, and the
    interrupt lands before the receive completes."""
    sim = Simulator()
    box = Mailbox(sim)
    got = []

    def driver(sim):
        yield sim.timeout(1.0)  # fires before the receiver's own timeout
        r.interrupt()
        box.put("precious")

    sim.spawn(driver(sim))
    r = sim.spawn(_recovering_receiver(sim, box, got, wait=1.0))
    sim.run()
    assert got == ["interrupted", "precious"]
    assert len(box) == 0


def test_interrupt_before_a_same_tick_grant_releases_the_slot():
    """The interrupt is scheduled first, then the holder's release hands
    the slot to the queued request in the same tick: the withdrawn hold
    must release it again, not strand it."""
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def holder(sim):
        yield sim.timeout(0.5)
        with res.request() as req:
            yield req
            yield sim.timeout(0.5)  # leaves at t=1, after the interrupt

    def doomed(sim):
        yield sim.timeout(0.5)
        try:
            with res.request() as req:
                yield req
                order.append("doomed held")
        except Interrupt:
            order.append(("interrupted", sim.now))

    def patient(sim):
        yield sim.timeout(2.0)
        yield from res.use(1.0)
        order.append(("patient", sim.now))

    def killer(sim):
        yield sim.timeout(1.0)  # queued before the holder's timeout
        d.interrupt()

    sim.spawn(killer(sim))
    sim.spawn(holder(sim))
    d = sim.spawn(doomed(sim))
    sim.spawn(patient(sim))
    sim.run()
    assert order == [("interrupted", 1.0), ("patient", 3.0)]
    assert res.in_use == 0 and res.queue_length == 0


# ----------------------------------------------------------------------
# the screened receive (``Mailbox.recv(keep)``) under interrupts
# ----------------------------------------------------------------------
def _screened_receiver(sim, box, got):
    """A screened receive that rejects ``"noise"``; after an interrupt,
    one plain receive."""
    try:
        got.append((yield from box.recv(lambda m: m != "noise")))
    except Interrupt:
        got.append("interrupted")
    got.append((yield from box.recv()))


def _watched_box():
    sim = Simulator()
    return sim, LockdepMonitor(sim).install(), Mailbox(sim)


@pytest.mark.parametrize("interrupt_first", [True, False])
def test_interrupt_in_the_tick_of_a_rejected_message(interrupt_first):
    """A rejected message and an interrupt land in one tick.  Interrupt
    first: the withdrawn receive puts the message back at the queue head,
    where the plain receive after the interrupt finds it, as it would
    with no screen.  Message first: the screen rejects it and re-arms a
    getter, which the interrupt then withdraws, so the next put reaches
    the live receive.  No getter and no lockdep wait is left behind."""
    sim, monitor, box = _watched_box()
    got = []
    r = sim.spawn(_screened_receiver(sim, box, got))

    def driver():
        yield sim.timeout(1.0)
        if interrupt_first:
            r.interrupt()
            box.put("noise")
        else:
            box.put("noise")
            r.interrupt()
        yield sim.timeout(1.0)
        box.put("precious")

    sim.spawn(driver())
    sim.run()
    if interrupt_first:
        assert got == ["interrupted", "noise"] and list(box._items) == ["precious"]
    else:
        assert got == ["interrupted", "precious"] and len(box) == 0
    assert not box._getters
    assert not monitor._waits and not monitor._by_event


@pytest.mark.parametrize("queued", [False, True])
def test_interrupt_while_the_screened_wait_is_re_armed(queued):
    """The screen rejected a message and re-armed the wait: on a fresh
    getter, or (``queued``) on the next queued message, whose hand-off
    is still on the heap when the interrupt lands.  The interrupt
    withdraws the re-armed wait, not the spent one: the getter leaves
    the queue, the message goes back to its head, and the plain receive
    after the interrupt gets it."""
    sim, monitor, box = _watched_box()
    got = []
    r = sim.spawn(_screened_receiver(sim, box, got))

    def driver():
        yield sim.timeout(1.0)
        box.put("noise")
        if queued:
            box.put("precious")  # the re-arm takes it off the queue...
            r.interrupt()        # ...and this lands before it is handed over
            return
        yield sim.timeout(1.0)
        assert len(box._getters) == 1 and monitor._waits[r].primitive is box
        r.interrupt()
        yield sim.timeout(1.0)
        box.put("precious")

    sim.spawn(driver())
    sim.run()
    assert got == ["interrupted", "precious"]
    assert len(box) == 0 and not box._getters
    assert not monitor._waits and not monitor._by_event


def test_interrupt_with_a_screen_entry_on_the_heap_then_a_same_tick_re_receive():
    """A put hands a message to the screened receive through its screen
    entry, but an interrupt scheduled first lands before the entry is
    processed.  The message goes back to the head of the queue, ahead of
    one queued behind it, and the receiver screens again in the same tick.
    The stranded entry is still on the heap: it is replaced, not reused,
    and when it pops it does nothing.  The new receive gets the message
    once, then the next one; no getter and no lockdep wait is left."""
    sim, monitor, box = _watched_box()
    got = []
    keep = lambda m: m != "noise"

    def receiver():
        try:
            got.append((yield from box.recv(keep)))
        except Interrupt:
            got.append(("interrupted", list(box._items)))
            got.append((yield from box.recv(keep)))  # same tick: a fresh entry
        got.append((yield from box.recv(keep)))

    r = sim.spawn(receiver())
    stranded = []

    def driver():
        yield sim.timeout(1.0)
        r.interrupt()
        box.put("first")   # to the armed getter, through the screen entry
        box.put("second")  # queued behind it
        stranded.append(box._entry)

    sim.spawn(driver())
    sim.run()
    assert got == [("interrupted", ["first", "second"]), "first", "second"]
    assert box._entry is not stranded[0]
    assert stranded[0].callbacks is None  # popped once, as a no-op
    assert len(box) == 0 and not box._getters
    assert not monitor._waits and not monitor._by_event
