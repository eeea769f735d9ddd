"""Unit tests for the discrete-event kernel (events, time, determinism)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import DeadlockError, Event, Interrupt, Mailbox, Resource, Simulator
from repro.sim.errors import SimulationError

from .conftest import QueueTap


def test_new_simulator_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0
    assert sim.processed_events == 0


def test_timeout_advances_clock():
    sim = Simulator()
    sim.timeout(2.5)
    sim.run()
    assert sim.now == 2.5


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_event_succeed_carries_value():
    sim = Simulator()
    ev = sim.event()
    seen = []
    ev.add_callback(lambda e: seen.append(e.value))
    ev.succeed(42)
    sim.run()
    assert seen == [42]


def test_event_fail_carries_exception():
    sim = Simulator()
    ev = sim.event()
    ev.fail(RuntimeError("boom"))
    sim.run()
    assert ev.processed and not ev.ok
    with pytest.raises(RuntimeError):
        _ = ev.value


def test_event_cannot_trigger_twice():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)
    with pytest.raises(SimulationError):
        ev.fail(RuntimeError())


def test_fail_requires_exception_instance():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.event().fail("not an exception")  # type: ignore[arg-type]


def test_untriggered_event_has_no_ok_or_value():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        _ = ev.ok
    with pytest.raises(SimulationError):
        _ = ev.value


def test_callback_after_processed_runs_immediately():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("x")
    sim.run()
    late = []
    ev.add_callback(lambda e: late.append(e.value))
    assert late == ["x"]


def test_same_time_events_fire_in_scheduling_order():
    sim = Simulator()
    order = []
    for i in range(10):
        ev = sim.event()
        ev.add_callback(lambda e, i=i: order.append(i))
        ev.succeed(None, delay=1.0)
    sim.run()
    assert order == list(range(10))


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    for delay in (5.0, 1.0, 3.0, 2.0, 4.0):
        ev = sim.event()
        ev.add_callback(lambda e, d=delay: order.append(d))
        ev.succeed(None, delay=delay)
    sim.run()
    assert order == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_run_until_stops_the_clock():
    sim = Simulator()
    fired = []
    for delay in (1.0, 2.0, 3.0):
        ev = sim.event()
        ev.add_callback(lambda e, d=delay: fired.append(d))
        ev.succeed(None, delay=delay)
    sim.run(until=2.5)
    assert fired == [1.0, 2.0]
    assert sim.now == 2.5
    sim.run()
    assert fired == [1.0, 2.0, 3.0]


def test_run_until_processes_only_the_events_due():
    sim = Simulator()
    sim.timeout(1.0)
    sim.timeout(2.0)
    sim.run(until=1.0)
    assert sim.now == 1.0
    assert sim.processed_events == 1


def test_deadlock_detection():
    sim = Simulator()

    def stuck(sim):
        yield sim.event()  # never triggered

    sim.spawn(stuck(sim))
    with pytest.raises(DeadlockError):
        sim.run()


def test_schedule_into_past_rejected():
    sim = Simulator()
    ev = Event(sim)
    with pytest.raises(ValueError):
        sim._schedule(ev, delay=-0.1)


def test_determinism_two_identical_runs():
    def build_and_run():
        sim = Simulator()
        log = []

        def proc(sim, name, delay):
            for _ in range(3):
                yield sim.timeout(delay)
                log.append((name, sim.now))

        sim.spawn(proc(sim, "a", 1.0))
        sim.spawn(proc(sim, "b", 1.0))
        sim.spawn(proc(sim, "c", 0.5))
        sim.run()
        return log

    assert build_and_run() == build_and_run()


# ----------------------------------------------------------------------
# the single event loop (step() and run() share it)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("later", [None, 9.0])
def test_run_until_always_ends_at_until(later):
    """Whether an event remains beyond ``until`` or the queue drained
    before it, the clock ends at exactly ``until``."""
    sim = Simulator()
    sim.timeout(1.0)
    if later is not None:
        sim.timeout(later)
    sim.run(until=5.0)
    assert sim.now == 5.0
    assert sim.processed_events == 1


def test_run_until_processes_events_at_until_itself():
    sim = Simulator()
    fired = []
    sim.timeout(2.0).add_callback(lambda e: fired.append(sim.now))
    sim.run(until=2.0)
    assert fired == [2.0]


def test_run_until_still_reports_deadlock_when_queue_drains_early():
    sim = Simulator()

    def stuck(sim):
        yield sim.event()

    sim.spawn(stuck(sim))
    with pytest.raises(DeadlockError):
        sim.run(until=5.0)


def test_raising_callback_leaves_the_loop_reentrant():
    sim = Simulator()
    fired = []

    def boom(ev):
        fired.append(sim.now)
        raise RuntimeError("callback")

    sim.timeout(1.0).add_callback(boom)
    with pytest.raises(RuntimeError):
        sim.run()
    sim.timeout(1.0).add_callback(boom)  # the loop is re-entrant after a raise
    with pytest.raises(RuntimeError):
        sim.run()
    assert fired == [1.0, 2.0]


def test_event_count_includes_every_popped_event_when_run_raises():
    """``processed_events`` counts every event the loop popped — the ones
    before a raise and the one whose callback or process raised — and keeps
    counting across ``run(until=...)`` calls and a run after a raise."""
    sim = Simulator()
    sim.timeout(1.0)
    sim.timeout(2.0).add_callback(lambda e: 1 / 0)
    sim.timeout(3.0)
    with pytest.raises(ZeroDivisionError):
        sim.run()
    assert sim.processed_events == 2  # the raising event is counted

    def dies(sim):
        yield sim.timeout(1.0)
        raise KeyError("unobserved")

    sim.spawn(dies(sim))  # start at 2.0, its timeout at 3.0 (after the 3.0 one)
    with pytest.raises(KeyError):
        sim.run()
    # the process start, the 3.0 timeout, the process's timeout
    assert sim.processed_events == 5

    for delay in (1.0, 2.0, 3.0):
        sim.timeout(delay)
    sim.run(until=sim.now + 2.0)
    # the dead process's own (failed) event, then two of the three timeouts
    assert sim.processed_events == 8
    sim.run(until=sim.now + 5.0)
    assert sim.processed_events == 9


def test_event_state_follows_its_lifecycle():
    sim = Simulator()
    ev = sim.event()
    assert not ev.triggered and not ev.processed
    ev.succeed(None)  # a None value still counts as triggered
    assert ev.triggered and not ev.processed and ev.ok
    sim.run()
    assert ev.triggered and ev.processed and ev.value is None
    t = sim.timeout(1.0, value="v")
    assert t.triggered and not t.processed


NANS = [float("nan"), -float("nan")]


@pytest.mark.parametrize("nan", NANS, ids=["nan", "-nan"])
@pytest.mark.parametrize("schedule", [
    lambda sim, d: sim.timeout(d),
    lambda sim, d: sim.event().succeed(None, delay=d),
    lambda sim, d: sim.event().fail(RuntimeError("x"), delay=d),
], ids=["timeout", "succeed", "fail"])
def test_nan_delay_rejected(schedule, nan):
    """``delay < 0`` is False for NaN; a NaN on the heap compares false
    with every key and can end a run early, so it is refused up front."""
    sim = Simulator()
    with pytest.raises(ValueError):
        schedule(sim, nan)
    assert not sim._queue and not sim._due


@pytest.mark.parametrize("nan", NANS, ids=["nan", "-nan"])
def test_nan_hold_rejected(nan):
    from repro.sim import Resource
    sim = Simulator()
    with pytest.raises(ValueError):
        next(Resource(sim).use(nan))


def test_a_nan_timeout_never_ends_a_run_silently():
    """One process waits a NaN delay beside three that wait 1, 2 and 3 s.
    A NaN on the heap let ``run()`` return at t = 0 with all four stuck
    at their first yield and no DeadlockError; now the run raises."""
    sim = Simulator()
    woke = []

    def proc(delay):
        yield sim.timeout(delay)
        woke.append(delay)

    for delay in (1.0, float("nan"), 2.0, 3.0):
        sim.spawn(proc(delay))
    try:
        sim.run()
    except ValueError:
        return
    assert woke == [1.0, 2.0, 3.0] and sim.now == 3.0


# ----------------------------------------------------------------------
# Two queues, one order: the FIFO of events due now against one heap
# ----------------------------------------------------------------------
#: a positive delay that ``now + d == now`` swallows once the clock is at
#: 1.0 or later (but not at 0.0): such an event is due now, not later
TINY = 1e-17
DELAYS = st.sampled_from([0.0, 0.0, 0.5, 1.0, TINY])

OPS = st.one_of(
    st.tuples(st.just("timeout"), DELAYS),
    st.tuples(st.just("succeed"), DELAYS),
    st.tuples(st.just("fail"), DELAYS),
    st.tuples(st.just("interrupt"), st.integers(0, 3)),
    st.tuples(st.just("use"), st.integers(0, 1), DELAYS),
    st.tuples(st.just("put"), st.integers(0, 1)),
    st.tuples(st.just("recv"), st.integers(0, 1)),
    st.tuples(st.just("raise"), st.just(None)),
)


def _run_program(programs, stops):
    """Run one process per program under a :class:`QueueTap`, stopping at
    each ``run(until)`` in ``stops`` and re-entering the loop after every
    fail-fast raise, and return the tap."""
    sim = Simulator()
    resources = [Resource(sim, 1), Resource(sim, 2)]
    boxes = [Mailbox(sim), Mailbox(sim)]
    procs = []

    def op(kind, arg, *rest):
        if kind == "timeout":
            yield sim.timeout(arg)
        elif kind == "succeed":
            yield sim.event().succeed("v", delay=arg)
        elif kind == "fail":
            try:
                yield sim.event().fail(KeyError("f"), delay=arg)
            except KeyError:
                pass
        elif kind == "interrupt":
            if arg < len(procs) and procs[arg].is_alive \
                    and procs[arg] is not sim.current_process:
                procs[arg].interrupt()
        elif kind == "use":
            yield from resources[arg].use(rest[0])
        elif kind == "put":
            boxes[arg].put(arg)
        elif kind == "recv":
            yield from boxes[arg].recv()
        else:
            raise RuntimeError("unobserved")  # fail-fast, mid-instant

    def process(ops):
        for step in ops:
            try:
                yield from op(*step)
            except Interrupt:
                pass

    with QueueTap(sim) as tap:
        procs.extend(sim.spawn(process(ops)) for ops in programs)
        for until in [*stops, None]:
            while True:
                try:
                    sim.run(until if until is None else max(until, sim.now))
                except DeadlockError:
                    break  # a receive nobody answers: nothing left to run
                except RuntimeError:
                    continue  # what is still due now runs next, in order
                break
    return tap


@given(
    programs=st.lists(st.lists(OPS, max_size=8), min_size=1, max_size=4),
    stops=st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5]), max_size=3),
)
@settings(max_examples=200, deadline=None)
def test_the_fifo_keeps_the_order_of_one_heap(programs, stops):
    """Timeouts, ``succeed``, ``fail``, interrupts, resource grants and
    mailbox hand-offs, at zero, positive and swallowed delays, with runs
    stopped by ``until`` and by fail-fast raises: every processed event is
    the one a single heap keyed ``(time, scheduling index)`` would pop."""
    tap = _run_program(programs, sorted(stops))
    tap.assert_heap_order()
    assert tap.ran


def test_a_stopped_run_resumes_the_events_due_at_its_last_instant():
    """``run(until)`` ends an instant's FIFO before it returns, and a
    resumed run takes the next instant's heap entries before its FIFO."""
    sim = Simulator()
    order = []
    with QueueTap(sim) as tap:
        def note(tag):
            return lambda ev: order.append((sim.now, tag))

        sim.timeout(1.0).add_callback(note("heap-a"))
        sim.timeout(2.0).add_callback(note("heap-b"))
        sim.timeout(1.0).add_callback(
            lambda ev: sim.timeout(0.0).add_callback(note("fifo-a")))
        sim.run(until=1.0)
        assert order == [(1.0, "heap-a"), (1.0, "fifo-a")] and sim.now == 1.0
        sim.timeout(1.0).add_callback(note("heap-c"))  # due 2.0, after heap-b
        sim.timeout(0.0).add_callback(note("fifo-b"))  # due now: before both
        sim.run()
    assert order[2:] == [(1.0, "fifo-b"), (2.0, "heap-b"), (2.0, "heap-c")]
    assert tap.assert_heap_order() == []


def test_a_fail_fast_raise_mid_instant_leaves_the_rest_of_it_in_order():
    """An unobserved process failure raises out of ``run()`` part-way
    through an instant; the events still due at that instant — heap
    entries moved to the FIFO and zero-delay events alike — run first, in
    order, when the loop is re-entered."""
    sim = Simulator()
    order = []

    def dies():
        yield sim.timeout(1.0)
        order.append("dies")
        raise KeyError("unobserved")

    def later(tag, first):
        yield sim.timeout(first)
        order.append(tag)
        yield sim.timeout(0.0)
        order.append(tag + "+0")

    with QueueTap(sim) as tap:
        sim.spawn(dies())
        sim.spawn(later("a", 1.0))
        sim.spawn(later("b", 1.0))
        with pytest.raises(KeyError):
            sim.run()
        assert order == ["dies"] and sim.now == 1.0 and sim._due
        sim.run()
    assert order == ["dies", "a", "b", "a+0", "b+0"]
    assert tap.assert_heap_order() == []
