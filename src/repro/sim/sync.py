"""Synchronization primitives built on kernel events.

These cover everything the cluster substrate needs, and offer only forms
that survive an exception thrown into a waiting or holding process (crash
injection, shutdown) without leaking a slot or losing a message:

* :class:`Mailbox` — unbounded FIFO message queue, read with
  ``msg = yield from box.recv()`` (models a node's incoming message queue).
* :class:`Resource` — FIFO server with integer capacity (models NICs, CPUs
  and disks).  ``yield from res.use(seconds)`` holds one slot for a
  computed service time; ``with res.request() as req: yield req`` holds it
  for the rest of the block.
* :class:`CreditWindow` — a Resource whose slots one actor takes and
  another gives back (the TCP-like receive window).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Generator
from typing import Any

from .errors import SimulationError
from .kernel import PENDING, Event, Simulator, Timeout

__all__ = ["CreditWindow", "Mailbox", "Request", "Resource"]


class Mailbox:
    """Unbounded FIFO queue of messages with an interrupt-safe ``recv``."""

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
        #: owning actor takes it out (immediate receive, put hand-off or
        #: drain); wired to the run's causal log by RunContext
        self.deq_probe: Any | None = None
        #: the screened receive in progress (:meth:`recv`): its predicate,
        #: its process, its getter and its entry's callbacks, each a path
        #: back to this mailbox, so all dropped when the receive ends; and
        #: the screen entry, reused until a withdrawal strands it
        self._keep: Any = None
        self._receiver: Any = None
        self._armed: Any = None
        self._screen_cbs: list[Any] | None = None
        self._entry = Event(sim)

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit a message; wakes the oldest waiting receiver, if any."""
        self.total_put += 1
        if self._getters:
            getter = self._getters.popleft()
            if self.deq_probe is not None:
                self.deq_probe(item)
            if getter is self._armed:  # the screen entry offers it the item
                getter = self._entry
                getter.callbacks = self._screen_cbs
            getter._value = item  # getter.succeed(item), flattened
            self.sim._due.append(getter)
        else:
            self._items.append(item)
            if self.depth_probe is not None:
                self.depth_probe.observe(self.sim._now, len(self._items))

    def recv(
        self, keep: Callable[[Any], bool] | None = None,
    ) -> Generator[Event, Any, Any]:
        """Blocking receive: ``msg = yield from box.recv()`` (FIFO).

        An exception thrown into the waiting process withdraws its claim
        before propagating: a pending getter leaves the queue, and a
        message already handed to it goes back to the head of the queue,
        so the next receiver gets it instead of a dead waiter.

        ``keep`` screens the wake-up: a pure predicate run when the queue
        entry that would resume the receiver is processed.  A message it
        rejects is consumed there, and the same getter re-armed as a
        ``recv(); continue`` loop would re-arm its wait (same queue
        entries, probes and lockdep wait), resuming no generator and
        allocating nothing.  One screened receive per mailbox at a time."""
        getter = None
        if keep is not None:
            getter = self._armed = Event(self.sim)
            self._keep, self._receiver = keep, self.sim._current_process
            self._screen_cbs = [self._screen]  # bound once per receive
        ev = self._arm(getter)
        try:
            item = yield ev
        except BaseException:
            self._withdraw(ev)
            raise
        return item

    def _arm(self, getter: Event | None) -> Event:
        """One receive's wake-up: a queued item now, else a getter.  The
        screened receive brings its getter, and a queued item reaches it
        through the screen entry."""
        sim = self.sim
        items = self._items
        if not items:  # park: the common case, a screened one allocates nothing
            if getter is None:
                getter = Event(sim)
            self._getters.append(getter)
            if sim.lockdep is not None:
                sim.lockdep.blocked(self, getter)
            return getter
        item = items.popleft()
        if self.deq_probe is not None:
            self.deq_probe(item)
        if getter is None:
            getter = Timeout(sim, 0.0, item)  # it was waiting
        else:  # the screen entry, at that Timeout's place
            entry = self._entry
            entry.callbacks, entry._value = self._screen_cbs, item
            sim._due.append(entry)
        if self.depth_probe is not None:
            self.depth_probe.observe(sim._now, len(items))
        return getter

    def _screen(self, entry: Event) -> None:
        """A screen entry is processed: a withdrawn wait's does nothing, a
        kept item ends the receive and resumes the receiver inline, a
        rejected one re-arms."""
        if entry is not self._entry:
            return  # its wait was withdrawn and its item requeued
        getter, item = self._armed, entry._value
        if self._keep(item):
            self._keep = self._receiver = self._armed = self._screen_cbs = None
            getter._value = item
            callbacks, getter.callbacks = getter.callbacks, None
            for fn in callbacks:
                fn(getter)
            return
        sim = self.sim
        ld = sim.lockdep
        if ld is None:
            self._arm(getter)
            return
        ld.unblocked(getter)  # as the spent wake-up's own hook would
        prev, sim._current_process = sim._current_process, self._receiver
        self._arm(getter)
        sim._current_process = prev

    def drain(self) -> list[Any]:
        """Remove and return all currently queued messages (non-blocking)."""
        items = list(self._items)
        self._items.clear()
        if self.deq_probe is not None:
            for item in items:
                self.deq_probe(item)
        return items

    def _withdraw(self, ev: Event) -> None:
        """Undo a :meth:`recv` whose event the receiver will never consume."""
        ld = self.sim.lockdep
        if ld is not None:
            ld.unblocked(ev)
        armed = ev is self._armed
        if armed:  # the screened receive ends here
            self._keep = self._receiver = self._armed = self._screen_cbs = None
        if ev in self._getters:
            self._getters.remove(ev)
            return
        # Already handed a message (a put, or a queued item, landed in the
        # same tick as the interrupt): requeue it, oldest first.  A screen
        # entry still queued is stranded: it finds itself replaced.
        if armed:
            ev, self._entry = self._entry, Event(self.sim)
        self._items.appendleft(ev._value)
        if self.depth_probe is not None:
            self.depth_probe.observe(self.sim._now, len(self._items))


class Request(Event):
    """One claim on a :class:`Resource` slot; fires when the slot is granted.

    A context manager: leaving the ``with`` block — normally or by an
    exception — withdraws the claim if it is still queued, or releases
    the slot if it was granted."""

    __slots__ = ("resource",)

    def __init__(self, resource: Resource) -> None:
        # Event.__init__, flattened (one of these per hold).
        self.sim = resource.sim
        self.callbacks = []
        self._value = PENDING
        self._exc = None
        self.resource = resource

    def __enter__(self) -> Request:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.resource._cancel(self)


class Resource:
    """A FIFO server with ``capacity`` identical slots.

    A slot is held either for a duration or for a block of process code::

        yield from nic.use(nbytes / bandwidth)

        with port.request() as req:
            yield req                 # wait for the slot (FIFO)
            ...                       # held until the block is left

    Both forms are interrupt-safe: an exception thrown into the process
    while it waits withdraws its request, and one thrown while it holds
    the slot releases it — so a crashed process never takes a slot with
    it.
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "resource") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._in_use = 0
        self._waiters: deque[Request] = deque()
        #: cumulative busy time integrated over slots (utilization metric)
        self.busy_time = 0.0

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def request(self) -> Request:
        """Claim one slot: ``with res.request() as req: yield req``."""
        sim = self.sim
        ld = sim.lockdep
        req = Request(self)
        if self._in_use < self.capacity:
            self._in_use += 1
            # Granted on the spot: fires now, like a zero-delay Timeout.
            req._value = None
            sim._due.append(req)
            if ld is not None:
                ld.acquired(self)
        else:
            self._waiters.append(req)
            if ld is not None:
                try:
                    ld.blocked(self, req)
                except BaseException:
                    # A wait-for cycle just closed: withdraw the doomed
                    # request so the report's state stays consistent.
                    self._cancel(req)
                    raise
        return req

    def use(self, duration: float) -> Generator[Event, Any, None]:
        """Hold one slot for ``duration`` simulated seconds (FIFO order)."""
        if not duration >= 0:  # NaN too
            raise ValueError(f"negative duration: {duration}")
        req = self.request()
        try:  # the ``with`` block's exit, without its two calls
            yield req
            yield Timeout(self.sim, duration)
            self.busy_time += duration
        finally:
            self._cancel(req)

    def _release(self) -> None:
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

    def _cancel(self, req: Request) -> None:
        """Withdraw ``req``: release its slot if it was granted, else take
        it out of the queue."""
        if req._value is not PENDING:
            self._release()
            return
        self._waiters.remove(req)
        ld = self.sim.lockdep
        if ld is not None:
            ld.unblocked(req)


class CreditWindow(Resource):
    """Credits that one actor takes and another gives back.

    The receive window of the network's flow control: a sender takes one
    credit per data chunk before transmitting, and the receiving actor
    gives it back when it retires the chunk.  The take and the give run
    in different processes, so they cannot share a ``with`` block; this
    pair is the only way to hold a slot without one.
    """

    def take(self) -> Generator[Event, Any, None]:
        """Wait for one credit: ``yield from window.take()``.  An exception
        thrown into the waiting process withdraws the request, so a
        crashed sender never strands a credit."""
        req = self.request()
        try:
            yield req
        except BaseException:
            self._cancel(req)
            raise

    def give(self) -> None:
        """Return one credit; the oldest waiting taker gets it."""
        self._release()
