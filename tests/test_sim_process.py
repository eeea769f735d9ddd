"""Unit tests for generator processes (suspension, failure, composition)."""

import pytest

from repro.sim import AllOf, Interrupt, Simulator
from repro.sim.errors import SimulationError


def test_process_returns_generator_value():
    sim = Simulator()

    def worker(sim):
        yield sim.timeout(1.0)
        return "done"

    p = sim.spawn(worker(sim))
    sim.run()
    assert p.value == "done"
    assert not p.is_alive


def test_spawn_requires_generator():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.spawn(lambda: None)  # type: ignore[arg-type]


def test_yield_non_event_raises_inside_process():
    sim = Simulator()

    def bad(sim):
        yield 42

    sim.spawn(bad(sim))
    with pytest.raises(SimulationError):
        sim.run()


def test_timeout_value_passes_through():
    sim = Simulator()

    def worker(sim):
        got = yield sim.timeout(1.0, value="payload")
        return got

    p = sim.spawn(worker(sim))
    sim.run()
    assert p.value == "payload"


def test_process_waits_on_another_process():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(2.0)
        return 7

    def parent(sim):
        c = sim.spawn(child(sim))
        v = yield c
        return v * 3

    p = sim.spawn(parent(sim))
    sim.run()
    assert p.value == 21
    assert sim.now == 2.0


def test_unobserved_process_failure_surfaces_from_run():
    sim = Simulator()

    def boom(sim):
        yield sim.timeout(1.0)
        raise ValueError("kaput")

    sim.spawn(boom(sim))
    with pytest.raises(ValueError, match="kaput"):
        sim.run()


def test_observed_process_failure_propagates_to_waiter():
    sim = Simulator()

    def boom(sim):
        yield sim.timeout(1.0)
        raise ValueError("inner")

    def waiter(sim, child):
        try:
            yield child
        except ValueError:
            return "caught"
        return "missed"

    child = sim.spawn(boom(sim))
    w = sim.spawn(waiter(sim, child))
    sim.run()
    assert w.value == "caught"


def test_interrupt_reaches_process():
    sim = Simulator()

    def sleeper(sim):
        try:
            yield sim.timeout(100.0)
            return "slept"
        except Interrupt as exc:
            return ("interrupted", exc.cause)

    def interrupter(sim, target):
        yield sim.timeout(1.0)
        target.interrupt(cause="wakeup")

    p = sim.spawn(sleeper(sim))
    sim.spawn(interrupter(sim, p))
    sim.run(until=5.0)
    assert p.value == ("interrupted", "wakeup")


def test_interrupt_finished_process_is_error():
    sim = Simulator()

    def quick(sim):
        yield sim.timeout(0.1)

    p = sim.spawn(quick(sim))
    sim.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_allof_collects_all_values():
    sim = Simulator()

    def worker(sim, d):
        yield sim.timeout(d)
        return d

    def parent(sim):
        kids = [sim.spawn(worker(sim, d)) for d in (3.0, 1.0, 2.0)]
        values = yield AllOf(sim, kids)
        return values

    p = sim.spawn(parent(sim))
    sim.run()
    assert p.value == [3.0, 1.0, 2.0]
    assert sim.now == 3.0


def test_allof_empty_fires_immediately():
    sim = Simulator()

    def parent(sim):
        values = yield AllOf(sim, [])
        return values

    p = sim.spawn(parent(sim))
    sim.run()
    assert p.value == []


def test_immediate_resume_on_processed_event():
    """Yielding an already-processed event resumes without a queue trip."""
    sim = Simulator()

    def worker(sim):
        t = sim.timeout(1.0, value="v")
        yield sim.timeout(2.0)  # t is processed by now
        got = yield t
        return (got, sim.now)

    p = sim.spawn(worker(sim))
    sim.run()
    assert p.value == ("v", 2.0)


def test_non_event_error_is_thrown_into_the_process():
    """The process — not just ``run()`` — sees the SimulationError, and
    may recover from it."""
    sim = Simulator()

    def sloppy(sim):
        try:
            yield None
        except SimulationError as exc:
            yield sim.timeout(1.0)
            return f"recovered: {exc}"

    p = sim.spawn(sloppy(sim), name="sloppy")
    sim.run()
    assert p.value.startswith("recovered: process 'sloppy' yielded non-event")
    assert sim.now == 1.0


def test_stale_wakeup_after_interrupt_is_dropped():
    """The abandoned event still fires later; the process must not be
    resumed a second time by it."""
    sim = Simulator()
    resumes = []

    def sleeper(sim):
        try:
            yield sim.timeout(1.0, value="stale")
            resumes.append("timeout")
        except Interrupt:
            resumes.append("interrupt")
        got = yield sim.timeout(5.0, value="fresh")
        resumes.append(got)

    p = sim.spawn(sleeper(sim))

    def poker(sim):
        yield sim.timeout(0.5)
        p.interrupt()

    sim.spawn(poker(sim))
    sim.run()
    assert resumes == ["interrupt", "fresh"]
    assert sim.now == 5.5


def test_current_process_is_restored_around_nested_resumes():
    """A process body that synchronously finishes another (processed-event
    fast path) must get ``current_process`` back afterwards."""
    sim = Simulator()
    seen = []

    def inner(sim):
        seen.append(("inner", sim.current_process.name))
        yield sim.timeout(0.0)

    def outer(sim):
        child = sim.spawn(inner(sim), name="inner")
        yield child
        seen.append(("outer", sim.current_process.name))

    sim.spawn(outer(sim), name="outer")
    sim.run()
    assert seen == [("inner", "inner"), ("outer", "outer")]
    assert sim.current_process is None
