"""Deterministic discrete-event simulation kernel.

This package is the bottom substrate of the reproduction: a SimPy-style
event loop with generator processes, used by :mod:`repro.cluster` to model
the OSUMed PC cluster the paper evaluated on.

Public surface::

    from repro.sim import Simulator, Process, Mailbox, Resource

    sim = Simulator()

    def worker(sim, box):
        msg = yield from box.recv()
        yield sim.timeout(1.5)
        return msg * 2

    box = Mailbox(sim)
    p = sim.spawn(worker(sim, box))
    box.put(21)
    sim.run()
    assert p.value == 42 and sim.now == 1.5
"""

from .errors import DeadlockError, Interrupt, SimulationError
from .kernel import Event, Simulator, Timeout
from .lockdep import LockdepError, LockdepMonitor
from .process import AllOf, Process
from .sync import CreditWindow, Mailbox, Resource
from .trace import TraceRecord, Tracer

__all__ = [
    "AllOf",
    "CreditWindow",
    "DeadlockError",
    "Event",
    "Interrupt",
    "LockdepError",
    "LockdepMonitor",
    "Mailbox",
    "Process",
    "Resource",
    "SimulationError",
    "Simulator",
    "Timeout",
    "TraceRecord",
    "Tracer",
]
