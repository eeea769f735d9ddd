"""Generator-based simulation processes.

A process wraps a Python generator.  Each value the generator yields must be
an :class:`~repro.sim.kernel.Event`; the process suspends until the event is
processed, then resumes with the event's value (or the event's exception is
thrown into the generator).  A process is itself an event that fires with
the generator's return value, so processes can wait on each other.
"""

from __future__ import annotations

from types import GeneratorType
from collections.abc import Iterable
from typing import Any

from .errors import Interrupt, SimulationError
from .kernel import PENDING, Event, Simulator, Timeout

__all__ = ["Process", "AllOf"]


class Process(Event):
    """A running simulation process (also an event: fires on termination)."""

    __slots__ = ("name", "_generator", "_waiting_on", "_wake")

    def __init__(self, sim: Simulator, generator: Iterable, name: str = "") -> None:
        if not isinstance(generator, GeneratorType):
            raise TypeError(
                f"Process requires a generator, got {type(generator).__name__}"
            )
        super().__init__(sim)
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        sim._active_processes += 1
        #: ``self._resume`` bound once; a cycle, so dropped when the generator ends
        self._wake = wake = self._resume
        # Kick off at the current time, but via the queue so that spawning
        # order == first-execution order (deterministic).
        start = Timeout(sim, 0.0)
        start.callbacks.append(wake)
        self._waiting_on: Event | None = start

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The event the process was waiting on is abandoned (its stale wakeup
        is dropped when it fires); the process decides how to recover.
        The sync primitives withdraw their own abandoned waits
        (``Mailbox.recv``, ``Resource.use``, a ``with res.request()``
        hold, ``CreditWindow.take``).  If the abandoned event was a
        *process* that later fails, this waiter no longer observes the
        failure — it surfaces from ``Simulator.run`` only if no other
        observer exists.
        """
        if self._value is not PENDING:
            raise SimulationError(f"cannot interrupt finished process {self.name}")
        wakeup = Event(self.sim)
        wakeup.callbacks.append(self._interrupted)
        wakeup.fail(Interrupt(cause))

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _interrupted(self, wakeup: Event) -> None:
        # The target may have finished between the interrupt call and this
        # wakeup firing (both in the same tick); throwing into an exhausted
        # generator would corrupt the process accounting.
        if self._value is PENDING:
            self._waiting_on = wakeup  # abandon whatever it was waiting on
            self._resume(wakeup)

    def _resume(self, event: Event) -> None:
        """The trampoline: feed ``event``'s outcome to the generator and
        keep stepping it until it yields an event that has yet to fire."""
        if event is not self._waiting_on:
            # The process was interrupted while waiting on this event and
            # has since moved on; drop the stale wakeup.
            return
        self._waiting_on = None
        sim = self.sim
        gen = self._generator
        value, exc = event._value, event._exc
        # Mark this process as the one executing, so sync primitives can
        # attribute blocking waits (lockdep).  Saved/restored because a
        # process body can synchronously trigger events that resume others.
        prev = sim._current_process
        sim._current_process = self
        try:
            while True:
                try:
                    target = gen.send(value) if exc is None else gen.throw(exc)
                except StopIteration as stop:
                    sim._active_processes -= 1
                    self._wake = None
                    self.succeed(stop.value)
                    return
                # The trampoline does not swallow: the exception is re-routed
                # into the event graph via fail() and re-raised at await sites.
                except BaseException as err:  # repro: allow[fault-swallowed]
                    sim._active_processes -= 1
                    self._wake = None
                    self.fail(_annotate(err, self.name))
                    sim._failed_processes.append(self)
                    return
                if not isinstance(target, Event):
                    value, exc = None, SimulationError(
                        f"process {self.name!r} yielded non-event {target!r}"
                    )
                    continue
                if target.callbacks is not None:
                    self._waiting_on = target
                    target.callbacks.append(self._wake)
                    return
                # Already processed: resume immediately (same tick) without
                # bouncing through the queue.
                value, exc = target._value, target._exc
        finally:
            sim._current_process = prev


def _annotate(exc: BaseException, name: str) -> BaseException:
    if hasattr(exc, "add_note"):  # add_note is 3.11+; 3.10 loses the note
        exc.add_note(f"(raised in simulation process {name!r})")
    return exc


class AllOf(Event):
    """Fires once all given events have fired; value is the list of values.

    Fails fast with the first failure among its children.
    """

    __slots__ = ("_events", "_remaining")

    def __init__(self, sim: Simulator, events: list[Event]) -> None:
        super().__init__(sim)
        self._events = list(events)
        self._remaining = len(self._events)
        if self._remaining == 0:
            self.succeed([])
            return
        for ev in self._events:
            ev.add_callback(self._on_child)

    def _on_child(self, ev: Event) -> None:
        if self.triggered:
            return
        if ev._exc is not None:
            self.fail(ev._exc)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([e._value for e in self._events])

