"""Exception types raised by the discrete-event simulation kernel."""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for all kernel-level errors."""


class DeadlockError(SimulationError):
    """Raised by :meth:`Simulator.run` when processes remain suspended but
    the event queue is empty, i.e. no event can ever wake them again."""


class Interrupt(SimulationError):
    """Thrown into a process when another process interrupts it.

    The ``cause`` attribute carries the value supplied by the interrupter.
    """

    def __init__(self, cause: object = None) -> None:
        super().__init__(cause)
        self.cause = cause

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Interrupt(cause={self.cause!r})"
