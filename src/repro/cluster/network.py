"""Switched-Ethernet network model with byte-conservation accounting.

Transfer model for one message of ``n`` payload bytes from node *a* to
node *b* (100 Mb/s full-duplex switched Ethernet, non-blocking switch,
TCP-like flow control):

1. sender CPU handles the message (``net_per_message_cpu``),
2. the sender acquires its TX link, waits one propagation ``net_latency``,
3. acquires the receiver's RX link, and holds **both** links for the wire
   time ``n / bandwidth`` — so a message clocks out at the bottleneck of
   the two ports and, crucially, the *sender blocks* while the receiver's
   port is saturated.  This is the congestion-window view of TCP: without
   it, many senders could pour data into one 12.5 MB/s port at unbounded
   rate and the backlog would hide in fictitious in-flight buffers (the
   paper's testbed throttles senders exactly this way),
4. receiver CPU handles it, then it lands in *b*'s mailbox.

Per-pair FIFO ordering is preserved (FIFO links + deterministic
tie-breaking in the kernel).  No deadlock is possible: an RX link is only
ever held across a plain timeout, never while waiting for another
resource.

**One attempt loop.**  Every ``send`` runs the same loop: transmit a
copy, take the drop verdict, deliver it (or count a duplicate), then
return or back off and retransmit.  It ends in one of three ways:

* *fault-free* — no :class:`~repro.faults.FaultInjector` with link faults
  is attached, or the message is loopback: no verdict is taken, the first
  copy is delivered and the loop returns;
* *best effort* (heartbeats) — one payload verdict, no ack, no retry: a
  dropped copy is lost;
* *reliable* — at-least-once: a lost payload is retransmitted after a
  backoff (``FaultInjector.rto``: doubling, capped) until it lands; a
  lost ack means the payload already landed, so the retransmission is
  counted as a duplicate and suppressed.  The loop returns after one ack
  propagation delay.  Exactly one mailbox delivery per logical message
  keeps receive-window credits and the drain protocol's counts balanced.

A message that exhausts ``MAX_ATTEMPTS`` raises
:class:`~repro.faults.UnrecoverableFaultError` instead of deadlocking.

The network keeps per-(src, dst, kind) byte and message counters, and
each transmitted copy lands in exactly one of delivered, dropped or
duplicate: :meth:`assert_conserved` checks ``sent == delivered + dropped
+ duplicates`` per link at end of run — a cheap full-system invariant the
test suite leans on.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Generator
from typing import TYPE_CHECKING, Any, Protocol

import numpy as np

from ..config import CostModel
from ..faults import MAX_ATTEMPTS, UnrecoverableFaultError
from ..sim import Process, Resource, Simulator, Timeout
from .node import Node

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..faults import FaultInjector

__all__ = ["Network", "Wireable"]


class Wireable(Protocol):
    """Anything the network can carry: must report its payload size."""

    @property
    def nbytes(self) -> int: ...

    @property
    def kind(self) -> str: ...


class Network:
    """The cluster interconnect."""

    def __init__(self, sim: Simulator, cost: CostModel,
                 shared_hub: bool = False,
                 faults: FaultInjector | None = None) -> None:
        self.sim = sim
        self.cost = cost
        #: fault injector (None = perfectly reliable links)
        self.faults = faults
        # Deterministic jitter stream (only consulted when net_jitter > 0).
        self._jitter_rng = np.random.default_rng(
            np.random.SeedSequence(entropy=0, spawn_key=(74,))
        )
        # SHARED_HUB topology: one half-duplex collision domain — every
        # transfer serializes on this single medium instead of the
        # per-node TX/RX port pair.
        self._hub: Resource | None = (
            Resource(sim, capacity=1, name="hub-medium") if shared_hub
            else None
        )
        self.sent_bytes: dict[tuple[int, int, str], int] = defaultdict(int)
        self.delivered_bytes: dict[tuple[int, int, str], int] = defaultdict(int)
        self.sent_messages: dict[str, int] = defaultdict(int)
        self.delivered_messages: dict[str, int] = defaultdict(int)
        #: payload transmissions lost to injected faults (per link+kind)
        self.dropped_bytes: dict[tuple[int, int, str], int] = defaultdict(int)
        self.dropped_messages: dict[str, int] = defaultdict(int)
        #: retransmissions of an already-delivered payload (lost ack);
        #: the receiver-side sequence check suppresses these
        self.duplicate_bytes: dict[tuple[int, int, str], int] = defaultdict(int)
        self.duplicate_messages: dict[str, int] = defaultdict(int)
        self._in_flight = 0
        #: high-water mark of concurrent in-flight messages
        self.in_flight_peak = 0
        #: optional causal log (duck-typed: on_send/on_attempt/on_deliver;
        #: see repro.obs.causality), wired by RunContext
        self.causality: Any | None = None
        #: (src, dst) -> the name of that link's delivery processes
        self._names: dict[tuple[Node, Node], str] = {}

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def send(self, src: Node, dst: Node, message: Wireable,
             parent: int | None = None,
             best_effort: bool = False) -> Generator[Any, Any, None]:
        """Send ``message`` from ``src`` to ``dst`` (yield-from in a process).

        Returns once the message has cleared both NICs (flow control: a
        saturated receiver port blocks the sender); the final receiver-CPU
        handling and mailbox deposit complete asynchronously.

        ``parent`` optionally pins the causal-log provenance of this send
        to a specific edge id; by default the log attributes it to the
        message the sender is currently processing.

        The module docstring describes the attempt loop and its three
        outcomes.  With link faults injected the send is reliable unless
        ``best_effort=True`` (heartbeats): then a dropped copy is simply
        lost — which is the point, because a failure detector built on a
        reliable transport would never observe the faults it exists to
        detect.  Byte conservation still holds either way.
        """
        nbytes = message.nbytes
        if nbytes < 0:
            raise ValueError("message reports a negative size")
        kind = message.kind
        key = (src.node_id, dst.node_id, kind)
        sim = self.sim
        self.sent_messages[kind] += 1
        self._in_flight += 1
        if self._in_flight > self.in_flight_peak:
            self.in_flight_peak = self._in_flight
        # Record the causal edge before the first yield: the sender's
        # current cause must be read while it is still processing the
        # message that triggered this send.
        edge: Any | None = None
        if self.causality is not None:
            edge = self.causality.on_send(src.name, dst.name, message, sim._now, parent)
        # The verdict source: None when no verdict is ever taken (no link
        # faults, or loopback, which never touches a link).
        faults = self.faults
        if faults is not None and (not faults.links_active or src is dst):
            faults = None
        hub, cost, latency = self._hub, self.cost, self.cost.net_latency
        # A fail-stop interrupt (crashed sender) can land on any yield in
        # here; the try/finally keeps the conservation books exact in that
        # case: an attempt whose verdict never resolved is charged as
        # dropped (the sender's NIC died mid-transmission) and an
        # undelivered logical message leaves the in-flight count.  The holds
        # are ``with res.request()`` unrolled: fewer calls a hold.
        delivered = False      # a copy was handed to _deliver
        attempt_open = False   # bytes charged to sent_* with no verdict yet
        credit = None          # the data message's receive-window claim
        try:
            cpu = src.cpu
            held = cpu.request()
            try:
                yield held
                yield Timeout(sim, cost.net_per_message_cpu)
                cpu.busy_time += cost.net_per_message_cpu
            finally:
                cpu._cancel(held)
            if kind == "data":
                # Receive-window credit: held until the receiving process
                # retires the chunk.  Acquired first — even for loopback
                # delivery — because the receiver releases one credit per
                # retired data chunk unconditionally; and before any link
                # (TCP checks the window before transmitting) so that links
                # are only ever held for bounded wire/latency times — holding
                # TX while waiting on a credit deadlocks two nodes that
                # stream at each other while their control replies queue
                # behind the jammed TX (observed in the reshuffle step).
                # One credit covers the logical message across every
                # retransmission attempt (TCP's window tracks sequence space,
                # not wire copies), so duplicates cannot leak credits.  The
                # matching give() is on the *consumer* (the join node
                # retires the chunk) — that asymmetry is the credit
                # protocol, not a leak; an undelivered message's is given back.
                credit = dst.recv_credits.request()
                yield credit
            attempt = 0
            while True:
                attempt_open = True
                self.sent_bytes[key] += nbytes
                if src is not dst:
                    # Clock one copy through the interconnect.
                    wire = cost.wire_time(nbytes)
                    if faults is not None:
                        wire *= faults.slowdown_factor(src.node_id, dst.node_id, sim._now)
                    if hub is not None:
                        medium = hub.request()
                        try:
                            yield medium
                            yield Timeout(sim, latency + wire)
                            hub.busy_time += wire
                        finally:
                            hub._cancel(medium)
                    else:
                        tx, rx = src.tx.request(), None
                        try:
                            yield tx
                            yield Timeout(sim, latency)
                            rx = dst.rx.request()
                            yield rx
                            yield Timeout(sim, wire)
                            src.tx.busy_time += wire
                            dst.rx.busy_time += wire
                        finally:
                            if rx is not None:
                                dst.rx._cancel(rx)
                            src.tx._cancel(tx)
                attempt_open = False
                if faults is not None and faults.roll_drop(
                        src.node_id, dst.node_id):
                    self.dropped_bytes[key] += nbytes
                    self.dropped_messages[kind] += 1
                    lost = True
                else:
                    if delivered:
                        self.duplicate_bytes[key] += nbytes
                        self.duplicate_messages[kind] += 1
                    else:
                        link = (src, dst)  # the f-string runs once a link
                        name = self._names.get(link) or self._names.setdefault(
                            link, f"net:{src.name}->{dst.name}")
                        Process(sim, self._deliver(dst, message, nbytes, key, edge), name)
                        delivered = True
                    lost = not best_effort and faults is not None and (
                        faults.roll_ack_drop(src.node_id, dst.node_id))
                if faults is None or best_effort:
                    return  # no ack to wait for: delivered, or lost for good
                if not lost:
                    # Cumulative ack propagates back (control-sized, modelled
                    # as pure propagation delay on the reverse path).
                    yield Timeout(sim, latency)
                    return
                attempt += 1
                if attempt >= MAX_ATTEMPTS:
                    raise UnrecoverableFaultError(
                        f"message {src.name}->{dst.name} ({kind}, "
                        f"{nbytes} B) exhausted {MAX_ATTEMPTS} "
                        "transmission attempts; the configured drop "
                        "probability is beyond the transport's recovery "
                        "envelope"
                    )
                faults.count_retry(kind)
                if edge is not None:
                    self.causality.on_attempt(edge)
                yield Timeout(sim, faults.rto(attempt))
        finally:
            if attempt_open:
                self.dropped_bytes[key] += nbytes
                self.dropped_messages[kind] += 1
            if not delivered:
                self._in_flight -= 1
                if credit is not None:
                    dst.recv_credits._cancel(credit)

    def _deliver(self, dst: Node, message: Wireable, nbytes: int,
                 key: tuple[int, int, str],
                 edge: Any | None) -> Generator[Any, Any, None]:
        sim, cost = self.sim, self.cost
        if cost.net_jitter > 0.0:
            # Chaos knob: a random stack/scheduling delay after the wire,
            # holding no link — so messages may arrive REORDERED, which the
            # protocol must tolerate (exercised by the chaos tests).
            yield Timeout(sim, float(self._jitter_rng.uniform(0.0, cost.net_jitter)))
        yield from dst.cpu.use(cost.net_per_message_cpu)
        self.delivered_bytes[key] += nbytes
        self.delivered_messages[key[2]] += 1
        self._in_flight -= 1
        if edge is not None:
            # Before the deposit: an immediate hand-off to a blocked getter
            # fires the mailbox's dequeue hook synchronously.
            self.causality.on_deliver(edge, message, sim._now)
        dst.mailbox.put(message)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def assert_conserved(self) -> None:
        """Check that every sent byte is accounted for (end of run).

        Fault-free: ``sent == delivered`` per (src, dst, kind).  Under
        fault injection each transmitted copy is still accounted exactly
        once: ``sent == delivered + dropped + duplicates`` — drops burned
        the wire but never reached a mailbox, duplicates reached the
        receiver's NIC but were suppressed by the sequence check.
        """
        if self._in_flight != 0:
            raise AssertionError(f"{self._in_flight} messages still in flight")
        keys = (
            set(self.sent_bytes) | set(self.delivered_bytes)
            | set(self.dropped_bytes) | set(self.duplicate_bytes)
        )
        bad = {}
        for k in keys:
            sent = self.sent_bytes.get(k, 0)
            accounted = (
                self.delivered_bytes.get(k, 0)
                + self.dropped_bytes.get(k, 0)
                + self.duplicate_bytes.get(k, 0)
            )
            if sent != accounted:
                bad[k] = (sent, accounted)
        if bad:
            raise AssertionError(
                "byte conservation violated (sent != delivered + dropped "
                f"+ duplicates): {bad}"
            )
