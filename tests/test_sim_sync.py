"""Unit tests for mailboxes and resources."""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    CreditWindow,
    Interrupt,
    LockdepMonitor,
    Mailbox,
    Resource,
    Simulator,
)
from repro.sim.errors import SimulationError

from .conftest import QueueTap


# ----------------------------------------------------------------------
# Mailbox
# ----------------------------------------------------------------------
def test_mailbox_fifo_order():
    sim = Simulator()
    box = Mailbox(sim)
    got = []

    def consumer(sim, box):
        for _ in range(3):
            msg = yield from box.recv()
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
        msg = yield from box.recv()
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
        msg = yield from box.recv()
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
# Mailbox: the screened receive
# ----------------------------------------------------------------------
STOP = "stop"


def _screen_run(bursts, work, screened, lockdep):
    """One receiver over ``bursts`` of puts, returning what it kept, the
    processed ``(time, scheduling index)`` stream of both kernel queues
    (:class:`~tests.conftest.QueueTap`), the event count, what the mailbox's
    dequeue and depth probes saw and the lockdep waits.

    The predicate reads state the receiver changes (as the pool's and the
    drain's do); ``screened`` reads with ``recv(keep)``, else with the
    reference loop: ``recv()``, then ``continue`` on a rejected message."""
    sim = Simulator()
    monitor = LockdepMonitor(sim).install() if lockdep else None
    box = Mailbox(sim)
    probed = []
    box.deq_probe = lambda item: probed.append(("deq", sim.now, item))
    box.depth_probe = mock.Mock(
        observe=lambda t, depth: probed.append(("depth", t, depth)))
    state = {"mod": 2}
    kept = []

    def keep(msg):
        return msg == STOP or msg % state["mod"] == 0

    def receiver():
        while True:
            if screened:
                msg = yield from box.recv(keep)
            else:
                msg = yield from box.recv()
                if not keep(msg):
                    continue
            if msg == STOP:
                return
            kept.append((sim.now, msg))
            state["mod"] = msg % 3 + 1
            if work:
                yield sim.timeout(work)  # let messages queue up meanwhile

    def producer():
        for gap, items in bursts:
            yield sim.timeout(gap)
            for item in items:
                box.put(item)
        box.put(STOP)

    with QueueTap(sim) as tap:
        sim.spawn(receiver(), name="receiver")
        sim.spawn(producer(), name="producer")
        sim.run()
    tap.assert_heap_order()
    assert len(box) == 0 and not box._getters
    waits = None
    if monitor is not None:
        assert not monitor._waits and not monitor._by_event
        waits = monitor.waits_tracked
    return kept, tap.ran, sim.processed_events, probed, waits


@given(
    bursts=st.lists(st.tuples(st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                              st.lists(st.integers(0, 30), max_size=4)),
                    max_size=12),
    work=st.sampled_from([0.0, 0.5, 1.5]),
    lockdep=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_screened_receive_matches_the_receive_and_continue_loop(bursts, work, lockdep):
    """Same processed ``(time, scheduling index)`` stream, in the order of
    one heap keyed by both, same event count, same messages
    kept at the same times, same probe calls, same lockdep waits: a
    rejected message is consumed and the wait re-armed exactly as the
    loop would re-arm it, whether it came by a put hand-off or off the
    queue."""
    assert _screen_run(bursts, work, True, lockdep) \
        == _screen_run(bursts, work, False, lockdep)


def test_a_rejected_message_resumes_no_generator():
    """The receiver's generator runs once per kept message (plus its
    start): the wake-ups of rejected ones end in the stale-wakeup drop."""
    sim = Simulator()
    box = Mailbox(sim)
    sends = []

    def receiver():
        while True:
            sends.append(sim.now)
            msg = yield from box.recv(lambda m: m != "noise")
            if msg == STOP:
                return

    def producer():
        for _ in range(50):
            yield sim.timeout(1.0)
            box.put("noise")
        box.put(STOP)

    sim.spawn(receiver())
    sim.spawn(producer())
    sim.run()
    assert sends == [0.0]


def test_a_re_armed_wait_keeps_one_lockdep_hook():
    """Each rejection reports the same getter's wait to lockdep again,
    and lockdep hooks the getter once: its callback list stays two long
    (lockdep's hook, the receiver's resume) however many messages the
    screen rejects, and every wait is cleared at the end."""
    sim = Simulator()
    monitor = LockdepMonitor(sim).install()
    box = Mailbox(sim)

    def receiver():
        return (yield from box.recv(lambda m: m != "noise"))

    def producer():
        for _ in range(50):
            yield sim.timeout(1.0)
            box.put("noise")
        yield sim.timeout(1.0)
        assert len(box._armed.callbacks) == 2
        box.put(STOP)

    r = sim.spawn(receiver())
    sim.spawn(producer())
    sim.run()
    assert r.value == STOP and monitor.waits_tracked == 51
    assert not monitor._waits and not monitor._by_event


@pytest.mark.parametrize("screened", [True, False])
def test_lockdep_clears_a_kept_wait_before_the_receiver_resumes(screened):
    """The first message is queued before the receive and rejected, so
    the screened getter is yielded to before lockdep first hooks it.
    Lockdep's hook still runs ahead of the receiver's resume, as in the
    ``recv(); continue`` loop: the receiver wakes with no wait on record."""
    sim = Simulator()
    monitor = LockdepMonitor(sim).install()
    box = Mailbox(sim)
    box.put("noise")
    box.put("noise")
    woke_waiting = []

    def receiver():
        me = sim.current_process
        while True:
            if screened:
                msg = yield from box.recv(lambda m: m != "noise")
            else:
                msg = yield from box.recv()
                if msg == "noise":
                    continue
            woke_waiting.append(me in monitor._waits)
            if msg == STOP:
                return

    def producer():
        for item in ("noise", "kept", "noise", STOP):
            yield sim.timeout(1.0)
            box.put(item)

    sim.spawn(receiver())
    sim.spawn(producer())
    sim.run()
    assert woke_waiting == [False, False]
    assert not monitor._waits and not monitor._by_event


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
    # A CreditWindow's give() is the one release not paired with a hold.
    sim = Simulator()
    window = CreditWindow(sim, capacity=1)
    with pytest.raises(SimulationError):
        window.give()


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


def test_request_block_holds_until_left():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    seen = []

    def holder(sim, res, i):
        with res.request() as req:
            yield req
            seen.append((i, sim.now, res.in_use))
            yield sim.timeout(1.0)
        seen.append((i, "left", res.in_use))

    sim.spawn(holder(sim, res, 0))
    sim.spawn(holder(sim, res, 1))
    sim.run()
    # FIFO; the slot passes straight from the first block to the second.
    assert seen == [(0, 0.0, 1), (0, "left", 1), (1, 1.0, 1), (1, "left", 0)]


def test_request_block_releases_on_exception():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def failing(sim, res):
        with res.request() as req:
            yield req
            raise ValueError("inside the hold")

    def watcher(sim, target):
        try:
            yield target
        except ValueError:
            return "caught"

    p = sim.spawn(failing(sim, res))
    w = sim.spawn(watcher(sim, p))
    sim.run()
    assert w.value == "caught"
    assert res.in_use == 0 and res.queue_length == 0


def test_credit_window_take_waits_for_a_give():
    sim = Simulator()
    window = CreditWindow(sim, capacity=1)
    taken = []

    def sender(sim):
        for _ in range(3):
            yield from window.take()
            taken.append(sim.now)

    def consumer(sim):
        for _ in range(3):
            yield sim.timeout(1.0)
            window.give()

    sim.spawn(sender(sim))
    sim.spawn(consumer(sim))
    sim.run()
    assert taken == [0.0, 1.0, 2.0]
    assert window.in_use == 0


def test_credit_window_take_withdraws_on_interrupt():
    sim = Simulator()
    window = CreditWindow(sim, capacity=1)
    got = []

    def hog(sim):
        yield from window.take()  # never given back until the consumer runs

    def doomed(sim):
        try:
            yield from window.take()
        except Interrupt:
            return
        got.append("doomed")

    def patient(sim):
        yield sim.timeout(2.0)
        yield from window.take()
        got.append(("patient", sim.now))

    sim.spawn(hog(sim))
    d = sim.spawn(doomed(sim))
    sim.spawn(patient(sim))

    def driver(sim):
        yield sim.timeout(1.0)
        d.interrupt()
        yield sim.timeout(2.0)
        window.give()  # the hog's credit: must reach the patient sender

    sim.spawn(driver(sim))
    sim.run()
    assert got == [("patient", 3.0)]
    assert window.in_use == 1 and window.queue_length == 0


def test_sync_primitives_expose_only_safe_forms():
    """Every blocking wait and every hold comes with its own withdrawal:
    the raw forms a crashed process could abandon are not public."""
    for name in ("get", "cancel_get"):
        assert not hasattr(Mailbox, name)
    for name in ("acquire", "release", "grab", "cancel"):
        assert not hasattr(Resource, name)
        assert not hasattr(CreditWindow, name)
