"""Causal message log: the run's send -> deliver DAG.

Flat spans and counters say *what* happened; causality says *why*.  Every
network send is recorded as a :class:`MessageEdge` carrying a ``parent``
provenance tag — the edge of the message its sender was processing when it
sent — so a run yields a causal DAG of message edges (Dapper-style) that
the critical-path analysis (:mod:`repro.obs.critpath`) and the Chrome
trace's flow events are computed from.

Capture points (all duck-typed, wired by ``RunContext``):

* ``Network.send`` calls :meth:`CausalLog.on_send` before its first yield,
  so the sending actor's *current cause* is read synchronously, and
  :meth:`CausalLog.on_attempt` on every fault-injected retransmission.
* ``Network._deliver`` calls :meth:`CausalLog.on_deliver` just before the
  mailbox deposit.
* Every node mailbox's ``deq_probe`` hook (:meth:`CausalLog.dequeue_hook`)
  notes the dequeue when an actor takes a message out, which
  updates that actor's current cause — actors are single-threaded state
  machines with at most one pending ``get()``, so dequeue order equals
  processing order and the per-actor cause is exact.
* Actors that send *asynchronously* (spawned transfer processes) capture
  :meth:`CausalLog.cause_of` at spawn time and pass it as an explicit
  ``parent``, because their main loop keeps dequeuing concurrently.

Like the rest of ``repro.obs`` this module imports nothing from the rest
of ``repro``: messages are duck-typed (``kind``, ``nbytes``, optional
``hop``/``tuples``) and node names are translated to track names through a
plain alias dict supplied at construction.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from .reservoir import SampledLog

__all__ = ["MessageEdge", "CausalLog"]


@dataclass(slots=True)
class MessageEdge:
    """One network message: a timed edge of the causal DAG."""

    eid: int
    src: str
    dst: str
    kind: str
    msg_type: str
    hop: str | None
    nbytes: int
    tuples: int
    t_send: float
    t_deliver: float = math.nan
    #: wire transmissions of this logical message (1 + retransmissions)
    attempts: int = 1
    #: eid of the edge whose delivery caused this send (None for roots)
    parent: int | None = None

    @property
    def delivered(self) -> bool:
        return self.t_deliver == self.t_deliver  # not NaN

    @property
    def wire_s(self) -> float:
        """Send-to-deliver latency (NaN while in flight)."""
        return self.t_deliver - self.t_send


class CausalLog(SampledLog):
    """Log of message edges plus per-actor cause tracking.

    Keeps every edge, or — given a capacity — a bounded sample weighted
    by wire bytes (the heaviest transfers always survive).  Either way
    eids count every send, edge objects are shared with the network
    (delivery stamps and retransmission counts mutate the same object
    whether or not it is retained), and queries resolve parents by eid:
    an edge that is not in the log is a ``KeyError``, never another edge.
    """

    def __init__(self, aliases: dict[str, str] | None = None,
                 sample: int | None = None, outliers: int = 0) -> None:
        super().__init__(sample, outliers)
        self._aliases = dict(aliases or {})
        #: actor (track name) -> eid of the message it last dequeued
        self._cause: dict[str, int] = {}
        #: id(message) -> eid, from delivery until the actor dequeues it
        self._pending: dict[int, int] = {}

    @property
    def edges(self) -> list[MessageEdge]:
        return self._view(lambda e: e.eid)

    def __len__(self) -> int:
        return len(self.edges)

    # ------------------------------------------------------------------
    # network hooks
    # ------------------------------------------------------------------
    def on_send(self, src: str, dst: str, message: Any, t: float,
                parent: int | None = None) -> MessageEdge:
        """Record a send; must run before the sender's first yield so the
        per-actor cause is still the message being processed."""
        aliases = self._aliases
        src = aliases.get(src, src)
        if parent is None:
            parent = self._cause.get(src)
        res = self._reservoir
        edge = MessageEdge(
            len(self._records) if res is None else res.total,
            src, aliases.get(dst, dst), message.kind, type(message).__name__,
            getattr(message, "hop", None), message.nbytes,
            getattr(message, "tuples", 0), t, math.nan, 1, parent,
        )
        if res is None:
            self._records.append(edge)
        else:
            self._offer(f"{edge.eid:012d}", float(edge.nbytes), edge)
        return edge

    def on_attempt(self, edge: MessageEdge) -> None:
        """Count one retransmission of an already-recorded edge."""
        edge.attempts += 1

    def on_deliver(self, edge: MessageEdge, message: Any, t: float) -> None:
        """Stamp the delivery time; must run before the mailbox deposit so
        an immediate hand-off to a waiting getter finds the edge."""
        edge.t_deliver = t
        self._pending[id(message)] = edge.eid

    # ------------------------------------------------------------------
    # actor hooks
    # ------------------------------------------------------------------
    def dequeue_hook(self, actor: str) -> Callable[[Any], None]:
        """The ``deq_probe`` of ``actor``'s mailbox, its track resolved once:
        a message the actor takes out becomes its current cause
        (locally-originated messages are no-ops)."""
        track, pending, cause = self._aliases.get(actor, actor), self._pending, self._cause

        def dequeued(message: Any) -> None:
            eid = pending.pop(id(message), None)
            if eid is not None:
                cause[track] = eid
        return dequeued

    def cause_of(self, track: str) -> int | None:
        """The eid of the message the actor on ``track`` is processing.
        A track name, never a node name: the two can collide (``join7``
        is pool index 7 as a track, global id 7 as a node)."""
        return self._cause.get(track)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _by_eid(self) -> dict[int, MessageEdge]:
        return {e.eid: e for e in self.edges}

    def edge(self, eid: int) -> MessageEdge:
        try:
            return self._by_eid()[eid]
        except KeyError:
            raise KeyError(f"edge {eid} is not in the log "
                           f"(kept {len(self.edges)}/{self.total})") from None

    def children(self, eid: int) -> list[MessageEdge]:
        """Edges sent while processing edge ``eid``."""
        return [e for e in self.edges if e.parent == eid]

    def roots(self) -> list[MessageEdge]:
        """Edges with no recorded cause (the run's spontaneous sends)."""
        return [e for e in self.edges if e.parent is None]

    def request_pairs(
        self, request_type: str, response_type: str
    ) -> list[tuple[MessageEdge, MessageEdge]]:
        """Matched request -> response edge pairs, e.g. the recruitment
        handshake ``("ActivateJoin", "ActivateAck")``: a response pairs
        with a request when the request's delivery caused the response."""
        by_eid = self._by_eid()
        out: list[tuple[MessageEdge, MessageEdge]] = []
        for e in self.edges:
            if e.msg_type != response_type:
                continue
            p = by_eid.get(e.parent)
            if p is not None and p.msg_type == request_type:
                out.append((p, e))
        return out

    def retransmitted(self) -> list[MessageEdge]:
        """Edges that needed more than one wire transmission."""
        return [e for e in self.edges if e.attempts > 1]
