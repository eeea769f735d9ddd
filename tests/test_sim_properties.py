"""Property-based tests for the simulation kernel (hypothesis)."""

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


@given(delays=st.lists(st.floats(min_value=0.0, max_value=1e6,
                                 allow_nan=False), min_size=1, max_size=50))
@settings(max_examples=200, deadline=None)
def test_events_always_fire_in_nondecreasing_time_order(delays):
    sim = Simulator()
    fired = []
    for d in delays:
        ev = sim.event()
        ev.add_callback(lambda e, d=d: fired.append(sim.now))
        ev.succeed(None, delay=d)
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(delays=st.lists(st.floats(min_value=0.0, max_value=100.0,
                                 allow_nan=False), min_size=1, max_size=30))
@settings(max_examples=100, deadline=None)
def test_equal_time_events_fire_in_creation_order(delays):
    sim = Simulator()
    fired = []
    # Mix the given delays with a block of equal-time events.
    for i, d in enumerate(delays):
        ev = sim.event()
        ev.add_callback(lambda e, i=i: fired.append(i))
        ev.succeed(None, delay=50.0)  # all equal
    sim.run()
    assert fired == list(range(len(delays)))


@given(
    capacity=st.integers(min_value=1, max_value=5),
    durations=st.lists(st.floats(min_value=0.001, max_value=10.0,
                                 allow_nan=False), min_size=1, max_size=30),
)
@settings(max_examples=100, deadline=None)
def test_resource_never_exceeds_capacity(capacity, durations):
    sim = Simulator()
    res = Resource(sim, capacity=capacity)
    max_seen = 0

    def user(sim, res, d):
        nonlocal max_seen
        with res.request() as req:
            yield req
            max_seen = max(max_seen, res.in_use)
            assert res.in_use <= capacity
            yield sim.timeout(d)

    for d in durations:
        sim.spawn(user(sim, res, d))
    sim.run()
    assert 1 <= max_seen <= capacity
    assert res.in_use == 0


@given(
    messages=st.lists(st.integers(), min_size=1, max_size=50),
    consumer_delay=st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
)
@settings(max_examples=100, deadline=None)
def test_mailbox_preserves_message_order(messages, consumer_delay):
    sim = Simulator()
    box = Mailbox(sim)
    got = []

    def consumer(sim, box, n):
        for _ in range(n):
            msg = yield from box.recv()
            got.append(msg)
            if consumer_delay:
                yield sim.timeout(consumer_delay)

    def producer(sim, box):
        for m in messages:
            yield sim.timeout(0.5)
            box.put(m)

    sim.spawn(consumer(sim, box, len(messages)))
    sim.spawn(producer(sim, box))
    sim.run()
    assert got == messages


@given(n_procs=st.integers(min_value=1, max_value=20),
       duration=st.floats(min_value=0.1, max_value=2.0, allow_nan=False))
@settings(max_examples=50, deadline=None)
def test_serial_resource_total_time_is_sum(n_procs, duration):
    """FIFO single-capacity resource: makespan == n * duration exactly."""
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def user(sim, res):
        yield from res.use(duration)

    for _ in range(n_procs):
        sim.spawn(user(sim, res))
    sim.run()
    assert sim.now == sum([duration] * n_procs)


# Times are small integers so that interrupts, puts, grants and releases
# keep landing in the same tick — the races the primitives must survive.
_OP = st.tuples(st.sampled_from(["use", "hold", "take", "recv"]),
                st.integers(min_value=0, max_value=3))
_MAX_OPS = 5
_MAX_WORKERS = 4


@given(
    capacity=st.integers(min_value=1, max_value=2),
    # >= 2: lockdep (rightly) treats a capacity-1 window as a mutex, and
    # the consumer's cross-actor give is not a holder it can see.
    credits=st.integers(min_value=2, max_value=3),
    plans=st.lists(st.lists(_OP, min_size=1, max_size=_MAX_OPS),
                   min_size=1, max_size=_MAX_WORKERS),
    put_times=st.lists(st.integers(min_value=0, max_value=12),
                       min_size=_MAX_OPS * _MAX_WORKERS,
                       max_size=_MAX_OPS * _MAX_WORKERS),
    interrupts=st.lists(
        st.tuples(st.integers(min_value=0, max_value=12),
                  st.integers(min_value=0, max_value=_MAX_WORKERS - 1),
                  st.booleans()),  # True: a put follows in the same tick
        max_size=8),
    give_every=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=300, deadline=None)
def test_interrupts_never_leak_a_slot_or_lose_a_message(
        capacity, credits, plans, put_times, interrupts, give_every):
    """Processes doing ``use``, ``with request()`` holds, credit takes and
    ``recv()`` are interrupted at random ticks.  Whatever the timing,
    every Resource ends idle and every message put is received exactly
    once or still queued."""
    sim = Simulator()
    LockdepMonitor(sim).install()
    res = Resource(sim, capacity=capacity, name="res")
    window = CreditWindow(sim, capacity=credits, name="window")
    box = Mailbox(sim, name="box")
    sent: list[int] = []
    received: list[int] = []
    owed = [0]  # credits taken and not yet given back

    def put() -> None:
        sent.append(len(sent))
        box.put(sent[-1])

    def worker(plan):
        for op, d in plan:
            try:
                if op == "use":
                    yield from res.use(d)
                elif op == "hold":
                    with res.request() as req:
                        yield req
                        yield sim.timeout(d)
                elif op == "take":
                    yield from window.take()
                    owed[0] += 1
                else:
                    received.append((yield from box.recv()))
            except Interrupt:
                pass  # recover and go on with the next step

    workers = [sim.spawn(worker(plan), name=f"w{i}")
               for i, plan in enumerate(plans)]

    def producer():
        # One message per receive in any plan, so no receiver waits forever.
        n_recv = sum(op == "recv" for plan in plans for op, _ in plan)
        for t in sorted(put_times[:n_recv]):
            yield sim.timeout(t - sim.now)
            put()

    def interrupter():
        for t, w, then_put in sorted(interrupts):
            yield sim.timeout(t - sim.now)
            target = workers[w % len(workers)]
            if target.is_alive:
                target.interrupt("chaos")
            if then_put:
                put()

    def consumer():
        # The credits' other side: gives back everything taken so far.
        while True:
            yield sim.timeout(give_every)
            while owed[0]:
                owed[0] -= 1
                window.give()
            if not any(p.is_alive for p in workers):
                return

    sim.spawn(producer(), name="producer")
    sim.spawn(interrupter(), name="interrupter")
    sim.spawn(consumer(), name="consumer")
    sim.run(until=1000)
    assert not any(p.is_alive for p in workers), "a worker never finished"
    for r in (res, window):
        assert r.in_use == 0 and r.queue_length == 0, r.name
    assert sorted(received) == sorted(set(received)), "received twice"
    assert sorted(received + box.drain()) == sent, "a message was lost"
    assert sim.lockdep._waits == {} and sim.lockdep._holders == {}
