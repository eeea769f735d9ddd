"""Synchronization primitives built on kernel events.

These cover everything the cluster substrate needs:

* :class:`Mailbox` — unbounded FIFO message queue with blocking ``get()``
  (models a node's incoming message queue).
* :class:`Resource` — FIFO server with integer capacity (models NICs, CPUs
  and disks: one request holds a slot for a computed service time).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Generator
from typing import Any

from .errors import SimulationError
from .kernel import Event, Simulator, Timeout

__all__ = ["Mailbox", "Resource"]


class Mailbox:
    """Unbounded FIFO queue of messages with event-based blocking ``get``."""

    def __init__(self, sim: Simulator, name: str = "mailbox") -> None:
        self.sim = sim
        self.name = name
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()
        #: total messages ever put (diagnostics)
        self.total_put = 0
        #: optional queue-depth instrument (any object with
        #: ``observe(time, depth)``; wired by the cluster's metrics setup)
        self.depth_probe: Any | None = None
        #: optional dequeue hook, called with each item the moment the
        #: owning actor takes it out (immediate get, put hand-off or
        #: drain); wired to the run's causal log by RunContext
        self.deq_probe: Any | None = None

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit a message; wakes the oldest waiting getter, if any."""
        self.total_put += 1
        if self._getters:
            getter = self._getters.popleft()
            # Provenance: the hand-off resumes the getter from whatever
            # event is firing right now (one hop, so no long chains).
            getter.parent = self.sim._current_event
            if self.deq_probe is not None:
                self.deq_probe(item)
            getter.succeed(item)
        else:
            self._items.append(item)
            if self.depth_probe is not None:
                self.depth_probe.observe(self.sim._now, len(self._items))

    def get(self) -> Event:
        """Return an event that fires with the next message (FIFO).

        A process that abandons a pending get (e.g. recovering from an
        :class:`~repro.sim.errors.Interrupt`) must call :meth:`cancel_get`
        with the event, or the next put() would be consumed by the dead
        getter and the message silently lost.
        """
        sim = self.sim
        if self._items:
            item = self._items.popleft()
            if self.deq_probe is not None:
                self.deq_probe(item)
            ev: Event = Timeout(sim, 0.0, item)  # it was waiting
            ev.parent = sim._current_event
            if self.depth_probe is not None:
                self.depth_probe.observe(sim._now, len(self._items))
        else:
            ev = Event(sim)
            self._getters.append(ev)
            ld = sim.lockdep
            if ld is not None:
                ld.blocked(self, ev)
        return ev

    def cancel_get(self, ev: Event) -> None:
        """Withdraw a pending getter (no-op if it already fired)."""
        try:
            self._getters.remove(ev)
        except ValueError:
            return
        ld = self.sim.lockdep
        if ld is not None:
            ld.unblocked(ev)

    def recv(self) -> Generator[Event, Any, Any]:
        """Blocking receive, interrupt-safe: ``msg = yield from box.recv()``.

        Wraps :meth:`get` so an exception thrown into the waiting process
        (crash injection, shutdown) withdraws the pending getter before
        propagating — the manual ``cancel_get`` dance :meth:`get` demands.
        Use this instead of ``yield box.get()`` in any process a
        :class:`~repro.faults.FaultPlan` can kill (the ``rs-mailbox-get``
        lint rule enforces it)."""
        ev = self.get()
        try:
            item = yield ev
        except BaseException:
            self.cancel_get(ev)
            raise
        return item

    def drain(self) -> list[Any]:
        """Remove and return all currently queued messages (non-blocking)."""
        items = list(self._items)
        self._items.clear()
        if self.deq_probe is not None:
            for item in items:
                self.deq_probe(item)
        return items


class Resource:
    """A FIFO server with ``capacity`` identical slots.

    ``acquire()`` returns an event that fires when a slot is granted;
    ``release()`` frees a slot.  The common hold-for-a-duration pattern is
    packaged as :meth:`use`, a generator to be ``yield from``-ed inside a
    process::

        yield from nic.use(nbytes / bandwidth)
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "resource") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._in_use = 0
        self._waiters: deque[Event] = deque()
        #: cumulative busy time integrated over slots (utilization metric)
        self.busy_time = 0.0

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def acquire(self) -> Event:
        sim = self.sim
        ld = sim.lockdep
        if self._in_use < self.capacity:
            self._in_use += 1
            ev: Event = Timeout(sim, 0.0)  # granted on the spot
            if ld is not None:
                ld.acquired(self)
        else:
            ev = Event(sim)
            self._waiters.append(ev)
            if ld is not None:
                try:
                    ld.blocked(self, ev)
                except BaseException:
                    # A wait-for cycle just closed: withdraw the doomed
                    # request so the report's state stays consistent.
                    self.cancel(ev)
                    raise
        return ev

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        ld = self.sim.lockdep
        if self._waiters:
            # Hand the slot straight to the next waiter; _in_use unchanged.
            waiter = self._waiters.popleft()
            if ld is not None:
                ld.handed_off(self, waiter)
            waiter.succeed(None)
        else:
            self._in_use -= 1
            if ld is not None:
                ld.released(self)

    def cancel(self, ev: Event) -> None:
        """Withdraw an acquire that will never be consumed.

        If the request is still queued it is removed; if the slot was
        already granted it is released.  Required when a process abandons
        a pending acquire (e.g. on :class:`~repro.sim.errors.Interrupt`) —
        otherwise a later release() would hand the slot to the dead waiter
        and leak it forever.
        """
        try:
            self._waiters.remove(ev)
        except ValueError:
            if ev.triggered:
                self.release()
            return
        ld = self.sim.lockdep
        if ld is not None:
            ld.unblocked(ev)

    def grab(self) -> Generator[Event, Any, None]:
        """Acquire one slot, interrupt-safely, without a fixed duration.

        ``yield from res.grab()`` instead of ``yield res.acquire()``
        whenever the waiting process can be interrupted (crash injection):
        a bare ``acquire()`` abandoned mid-wait leaves its request queued,
        and the next ``release()`` hands the slot to the dead waiter —
        leaking it forever.  The caller still owns the eventual
        ``release()`` (typically in a ``finally``)."""
        req = self.acquire()
        try:
            yield req
        except BaseException:
            self.cancel(req)
            raise

    def use(self, duration: float) -> Generator[Event, Any, None]:
        """Hold one slot for ``duration`` simulated seconds (FIFO order).

        Interrupt-safe: an Interrupt while waiting for the slot cancels the
        request; an Interrupt while holding it releases the slot."""
        if duration < 0:
            raise ValueError(f"negative duration: {duration}")
        req = self.acquire()
        try:
            yield req
        except BaseException:
            self.cancel(req)
            raise
        try:
            yield Timeout(self.sim, duration)
            self.busy_time += duration
        finally:
            self.release()

