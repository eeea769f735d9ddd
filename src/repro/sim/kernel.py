"""Discrete-event simulation kernel.

A self-contained, deterministic event loop in the style of SimPy: the
simulation advances by taking the earliest scheduled :class:`Event` and
running its callbacks.  Generator-based processes (see
:mod:`repro.sim.process`) suspend themselves by yielding events and are
resumed from an event callback.

Determinism: events scheduled for the same timestamp fire in scheduling
order.  Events due later wait on a heap keyed ``(time, seq)``; an event
due now goes onto a FIFO instead.  A heap entry due at ``T`` was
scheduled before the clock reached ``T``, so before anything the FIFO
receives at ``T``: the loop runs the heap's entries due at ``T`` first,
and the two queues fire in the order of one heap.  Given identical
seeds, two runs produce identical traces.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterable
from heapq import heappop, heappush
from math import inf
from typing import Any

from .errors import DeadlockError, SimulationError

__all__ = ["Event", "Timeout", "Simulator", "PENDING"]


class _Pending:
    """Sentinel for 'this event has no value yet'."""


PENDING = _Pending()


class Event:
    """A happening at a point in simulated time.

    An event starts *pending*; it becomes *triggered* once given a value via
    :meth:`succeed` or an exception via :meth:`fail` and scheduled on the
    simulator queue.  When the simulator pops it, the event is *processed*:
    its callbacks run exactly once, in registration order.

    Events are the only synchronization primitive the kernel knows about;
    mailboxes, resources and processes are all built on top of them.
    """

    __slots__ = ("sim", "callbacks", "_value", "_exc")

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        #: callables invoked with this event once it is processed; None
        #: from then on (that *is* the processed flag)
        self.callbacks: list[Callable[[Event], None]] | None = []
        #: PENDING until triggered (that *is* the triggered flag)
        self._value: Any = PENDING
        self._exc: BaseException | None = None

    # ------------------------------------------------------------------
    # state inspection
    # ------------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value/exception and is queued to fire."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (valid only once triggered)."""
        if self._value is PENDING:
            raise SimulationError("event has not been triggered yet")
        return self._exc is None

    @property
    def value(self) -> Any:
        """The event's value (raises the failure exception if it failed)."""
        if self._exc is not None:
            raise self._exc
        if self._value is PENDING:
            raise SimulationError("event has no value yet")
        return self._value

    # ------------------------------------------------------------------
    # triggering
    # ------------------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> Event:
        """Schedule this event to fire successfully after ``delay``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self.sim._schedule(self, delay)
        self._value = value
        return self

    def fail(self, exc: BaseException, delay: float = 0.0) -> Event:
        """Schedule this event to fire with an exception after ``delay``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self.sim._schedule(self, delay)
        self._exc = exc
        self._value = None
        return self

    def add_callback(self, fn: Callable[[Event], None]) -> None:
        """Run ``fn(event)`` when the event is processed.

        If the event was already processed the callback runs immediately —
        this keeps late waiters correct without racy re-checks.
        """
        if self.callbacks is None:
            fn(self)
        else:
            self.callbacks.append(fn)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "processed" if self.processed
            else "triggered" if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` simulated seconds after creation.

    It is born triggered, so ``Timeout(sim, 0.0, value)`` is also the
    cheapest way to say "this already happened" — an immediate resource
    grant, a message that was waiting, a process start: one constructor
    where ``Event(sim).succeed(value)`` is two calls.
    """

    __slots__ = ()

    def __init__(self, sim: Simulator, delay: float, value: Any = None) -> None:
        # Event.__init__ + succeed(), flattened.
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._exc = None
        sim._schedule(self, delay)


class Simulator:
    """The event loop.

    Usage::

        sim = Simulator()
        sim.spawn(my_generator_fn(sim))     # see repro.sim.process
        sim.run()
    """

    def __init__(self) -> None:
        self._now: float = 0.0
        self._queue: list[tuple[float, int, Event]] = []  # due after now
        self._seq = 0
        #: due now, in firing order: the sync primitives append here
        self._due: deque[Event] = deque()
        #: number of processes currently alive (maintained by Process)
        self._active_processes = 0
        self._processed_events = 0
        #: processes that died with an exception (maintained by Process)
        self._failed_processes: list = []
        #: process whose generator is executing right now (maintained by
        #: Process._resume); sync primitives use it to attribute waits
        self._current_process: Any | None = None
        #: optional runtime deadlock detector (see repro.sim.lockdep);
        #: the sync primitives report blocking transitions to it when set
        self.lockdep: Any | None = None

    # ------------------------------------------------------------------
    # time & scheduling
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Events processed by finished (returned or raised) runs."""
        return self._processed_events

    @property
    def current_process(self) -> Any | None:
        """The process whose generator is executing right now (None when
        no process is on the stack, e.g. during setup code).  Lockdep uses
        it to attribute a blocking wait to its owner."""
        return self._current_process

    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        if not delay >= 0:  # NaN too
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        self._after(event, delay)

    def _after(self, event: Event, delay: float) -> None:
        """:meth:`_schedule` for a ``delay`` known to be ``>= 0`` (a timer
        checks its interval once, not on every re-arm)."""
        when = self._now + delay
        if when == self._now:  # a tiny positive delay too: due now
            self._due.append(event)
        else:
            self._seq += 1
            heappush(self._queue, (when, self._seq, event))

    def event(self) -> Event:
        """Create a fresh pending event bound to this simulator."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing after ``delay`` simulated seconds."""
        return Timeout(self, delay, value)

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def run(self, until: float | None = None) -> None:
        """Run until the queue drains or simulated time exceeds ``until``.

        With ``until`` given the clock always ends at exactly ``until`` —
        whether events remain beyond it or the queue drained before it.

        Raises :class:`DeadlockError` if processes are still alive when the
        queue drains — that always indicates a protocol bug (a process is
        waiting on an event nobody will ever trigger).
        """
        if until is not None and until < self._now:
            raise ValueError(
                f"run(until={until}) would move time backwards (now={self._now})"
            )
        self._loop(inf if until is None else until)
        if not self._queue and not self._due and self._active_processes > 0:
            msg = (
                f"event queue empty but {self._active_processes} "
                "process(es) still waiting"
            )
            if self.lockdep is not None:
                report = self.lockdep.render_stall_report()
                if report:
                    msg = f"{msg}\n{report}"
            raise DeadlockError(msg)
        if until is not None:
            self._now = until

    def _loop(self, until: float) -> None:
        """The one event loop: run the events due now; when none is left,
        advance the clock to the heap's next time — if it is no later than
        ``until`` — and run its entries due then, ahead of anything their
        callbacks schedule for now."""
        queue, due = self._queue, self._due
        next_due = due.popleft
        failed = self._failed_processes
        popped = 0  # booked on the way out, by a raise too
        try:
            while True:
                if due:
                    event = next_due()
                else:  # the FIFO is empty: the heap's next time is due
                    if not queue or queue[0][0] > until:
                        return
                    when, _, event = heappop(queue)
                    self._now = when
                    while queue and queue[0][0] == when:  # after this one
                        due.append(heappop(queue)[2])
                popped += 1
                callbacks, event.callbacks = event.callbacks, None
                for fn in callbacks:
                    fn(event)
                if failed:
                    # Fail fast: an unobserved process death would otherwise
                    # show up only as a mysterious livelock or deadlock later.
                    # Several processes can fail in one step (e.g. two waiters
                    # of one event both raise once it fires): raise the first
                    # *unobserved* failure; observed ones propagate to their
                    # waiters.
                    for proc in failed:
                        if not proc.callbacks and proc._exc is not None:
                            failed.clear()
                            raise proc._exc
                    failed.clear()
        finally:
            self._processed_events += popped

    # Convenience used by Process
    def spawn(self, generator: Iterable, name: str = "") -> Any:
        """Start a generator as a simulation process (see Process)."""
        return Process(self, generator, name=name)


# Bottom import: process.py needs Event/Simulator from this module, and
# spawn() needs Process on every call (repro.sim imports kernel first).
from .process import Process  # noqa: E402
