"""Runtime deadlock detector (lockdep) for the simulation kernel.

A simulation-time wait-for graph over the synchronization primitives in
:mod:`repro.sim.sync`.  Every time a process blocks on a
:class:`~repro.sim.sync.Resource` or :class:`~repro.sim.sync.Mailbox`, the
monitor records *who* waits on *what*; every time a resource slot is
granted it records *who holds what*.  Two detections fall out:

* **Cycles** — a process blocks on a resource whose holder chain leads
  back to itself (classic ABBA deadlock).  Detected synchronously, the
  moment the closing edge is added: :meth:`LockdepMonitor.blocked` raises
  :class:`LockdepError` with a report naming every waiter in the cycle,
  so the run fails at the first bad acquire instead of hanging until the
  event queue drains.
* **Stalls** — the event queue drains while processes are still blocked
  (no cycle through resources, e.g. a mailbox wait whose sender died).
  :meth:`Simulator.run` appends :meth:`render_stall_report` to its
  :class:`~repro.sim.errors.DeadlockError` so the failure names each
  stuck process, the primitive it waits on, the resources it holds and —
  when a causal log is attached — the message chain that led it there.

The monitor is attached as ``sim.lockdep`` (see
:meth:`LockdepMonitor.install`); the primitives check the attribute on
every blocking transition, so an unattached simulator pays one attribute
load per wait and nothing else.  The run drivers attach it when the
config's ``lockdep`` is set, which the CLI exposes as ``--lockdep`` and
the test suite defaults on (``REPRO_LOCKDEP=0`` opts out).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from .errors import SimulationError
from .kernel import Event, Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .process import Process

__all__ = ["LockdepError", "LockdepMonitor", "WaitRecord"]


class LockdepError(SimulationError):
    """A wait-for cycle was closed: the run would deadlock.

    Raised synchronously from the acquire that closes the cycle, inside
    the acquiring process, so it propagates like any process failure and
    carries a full who-waits-on-whom report in its message.
    """


class WaitRecord:
    """One blocked process: what it waits on and since when."""

    __slots__ = ("proc", "primitive", "event", "since")

    def __init__(self, proc: Process, primitive: Any, event: Event, since: float) -> None:
        self.proc = proc
        self.primitive = primitive
        self.event = event
        self.since = since


def _prim_name(primitive: Any) -> str:
    name = getattr(primitive, "name", None)
    kind = type(primitive).__name__
    return f"{kind}({name!r})" if name else kind


class LockdepMonitor:
    """Wait-for graph over sync primitives; see module docstring.

    ``metrics`` (optional) is any object with ``counter(name) -> c`` where
    ``c.inc()`` exists — the run's metrics registry.  ``causal`` (optional)
    is a :class:`repro.obs.causality.CausalLog`; when present, stall
    reports include each stuck actor's causal parent chain, read off the
    track a process named ``<track>`` or ``<track>-q<query>`` runs.
    """

    def __init__(
        self,
        sim: Simulator,
        metrics: Any | None = None,
        causal: Any | None = None,
    ) -> None:
        self.sim = sim
        self.causal = causal
        # proc -> WaitRecord (a process waits on at most one event)
        self._waits: dict[Process, WaitRecord] = {}
        # event -> the proc blocked on it (every wait mints its own event)
        self._by_event: dict[Event, Process] = {}
        # resource -> holder procs, oldest first
        self._holders: dict[Any, list[Process]] = {}
        self.waits_tracked = 0
        self.cycles_detected = 0
        self._m_waits = metrics.counter("lockdep.waits_tracked") if metrics else None
        self._m_cycles = metrics.counter("lockdep.cycles_detected") if metrics else None

    # ------------------------------------------------------------------
    # attachment
    # ------------------------------------------------------------------
    def install(self) -> LockdepMonitor:
        """Attach to ``self.sim`` so the sync primitives report to us."""
        self.sim.lockdep = self
        return self

    # ------------------------------------------------------------------
    # hooks called by repro.sim.sync
    # ------------------------------------------------------------------
    def blocked(self, primitive: Any, event: Event) -> None:
        """A wait queued on ``primitive``; ``event`` fires when it's over.

        Captures the currently-running process, registers the wait edge
        and checks for a resource cycle — raising :class:`LockdepError`
        into the acquiring process if one just closed.
        """
        proc = self.sim._current_process
        if proc is None or not proc.is_alive:
            return
        rec = WaitRecord(proc, primitive, event, self.sim._now)
        self._waits[proc] = rec
        self._by_event[event] = proc
        hooks = event.callbacks  # pending: the wait was just queued
        if hooks is not None and self._on_fired not in hooks:
            # Ahead of the waiter's resume, as on a fresh wait, even for a
            # re-armed one the waiter already yielded; and hooked once.
            hooks.insert(0, self._on_fired)
        self.waits_tracked += 1
        if self._m_waits is not None:
            self._m_waits.inc()
        cycle = self._find_cycle(proc)
        if cycle is not None:
            self.cycles_detected += 1
            if self._m_cycles is not None:
                self._m_cycles.inc()
            raise LockdepError(self._render_cycle(cycle))

    def unblocked(self, event: Event) -> None:
        """A pending wait was withdrawn (the waiting process was interrupted)."""
        self._clear_event(event)

    def acquired(self, resource: Any) -> None:
        """A resource slot was granted immediately to the running process."""
        proc = self.sim._current_process
        if proc is not None:
            self._holders.setdefault(resource, []).append(proc)

    def handed_off(self, resource: Any, event: Event) -> None:
        """A released slot is being handed to the waiter behind ``event``."""
        self.released(resource)  # the releaser drops its hold first
        proc = self._clear_event(event)
        if proc is not None:
            self._holders.setdefault(resource, []).append(proc)

    def released(self, resource: Any) -> None:
        """A slot went back to the pool (no waiter to hand it to).

        The releaser need not be the acquirer (the credit protocol splits
        acquire and release across actors), so: drop the running process
        if it holds the resource, else the oldest holder.
        """
        holders = self._holders.get(resource)
        if not holders:
            return
        proc = self.sim._current_process
        if proc is not None and proc in holders:
            holders.remove(proc)
        else:
            holders.pop(0)
        if not holders:
            del self._holders[resource]

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _on_fired(self, event: Event) -> None:
        self._clear_event(event)

    def _clear_event(self, event: Event) -> Process | None:
        """Forget the wait behind ``event``; return the process it was."""
        proc = self._by_event.pop(event, None)
        if proc is not None:
            rec = self._waits.get(proc)
            if rec is not None and rec.event is event:
                del self._waits[proc]
        return proc

    def _find_cycle(self, start: Process) -> list[WaitRecord] | None:
        """DFS along proc -waits-on-> resource -held-by-> proc edges.

        Only capacity-1 (mutex-like) resources contribute holder edges:
        on a multi-slot resource (receive-window credits, port pools) a
        waiter needs *any* slot, so "a holder is blocked" does not imply
        deadlock — one of the other holders can still release.  Mailbox
        waits and multi-slot waits are leaves of the graph: they show up
        in stall reports but cannot close a cycle here.
        """
        path: list[WaitRecord] = []
        on_path: set[int] = set()

        def visit(proc: Process) -> bool:
            rec = self._waits.get(proc)
            if rec is None or rec.event.triggered:
                return False
            if getattr(rec.primitive, "capacity", 0) != 1:
                return False
            path.append(rec)
            on_path.add(id(proc))
            for holder in self._holders.get(rec.primitive, ()):
                if holder is start:
                    return True
                if not holder.is_alive or id(holder) in on_path:
                    continue
                if visit(holder):
                    return True
            path.pop()
            on_path.discard(id(proc))
            return False

        return path if visit(start) else None

    # ------------------------------------------------------------------
    # reports
    # ------------------------------------------------------------------
    def _held_by(self, proc: Process) -> list[str]:
        return [
            _prim_name(res)
            for res, holders in self._holders.items()
            if proc in holders
        ]

    def _causal_line(self, proc: Process) -> str | None:
        if self.causal is None:
            return None
        try:
            eid = self.causal.cause_of(proc.name.split("-q", 1)[0])
        except (KeyError, AttributeError):  # pragma: no cover - best effort
            return None
        if eid is None:
            return None
        chain: list[str] = []
        hops = 0
        while eid is not None and hops < 6:
            try:
                edge = self.causal.edge(eid)
            except (KeyError, IndexError):  # pragma: no cover - best effort
                break
            chain.append(f"{edge.msg_type}({edge.src}->{edge.dst})")
            eid = edge.parent
            hops += 1
        if not chain:
            return None
        return "last delivered: " + " <- ".join(chain)

    def _render_cycle(self, cycle: list[WaitRecord]) -> str:
        lines = [
            f"lockdep: wait-for cycle of {len(cycle)} process(es) "
            f"at t={self.sim.now:.6f}"
        ]
        for rec in cycle:
            lines.append(
                f"  {rec.proc.name!r} waits on {_prim_name(rec.primitive)} "
                f"(since t={rec.since:.6f}), holds "
                f"[{', '.join(self._held_by(rec.proc)) or 'nothing'}]"
            )
        lines.append("  each waits on a resource held by the next; none can advance")
        return "\n".join(lines)

    def render_stall_report(self) -> str:
        """Describe every still-blocked process (for DeadlockError)."""
        recs = [
            rec
            for rec in self._waits.values()
            if rec.proc.is_alive and not rec.event.triggered
        ]
        if not recs:
            return ""
        recs.sort(key=lambda r: (r.since, r.proc.name))
        lines = [f"lockdep: {len(recs)} blocked process(es):"]
        for rec in recs:
            lines.append(
                f"  {rec.proc.name!r} waits on {_prim_name(rec.primitive)} "
                f"(since t={rec.since:.6f}), holds "
                f"[{', '.join(self._held_by(rec.proc)) or 'nothing'}]"
            )
            causal = self._causal_line(rec.proc)
            if causal:
                lines.append(f"    {causal}")
        return "\n".join(lines)
