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

The network keeps per-(src, dst, kind) byte and message counters;
:meth:`assert_conserved` verifies at end of run that every byte sent was
delivered — a cheap full-system invariant the test suite leans on.

**Reliable transport under fault injection.**  When a
:class:`~repro.faults.FaultInjector` with link faults is attached, every
inter-node ``send`` runs an at-least-once loop: transmit, consult the
seeded drop verdicts, and either finish after one ack propagation delay or
back off (``FaultInjector.rto``: doubling, capped) and retransmit.
A lost *payload* is retransmitted until it lands; a lost *ack* means the
payload already landed, so the retransmission is counted as a duplicate
and suppressed — exactly one mailbox delivery per logical message, so
receive-window credits and the drain protocol's message counts stay
balanced.  Dropped and duplicate bytes are accounted per link and
:meth:`assert_conserved` then checks ``sent == delivered + dropped +
duplicates``.  A message that exhausts ``MAX_ATTEMPTS`` raises
:class:`~repro.faults.UnrecoverableFaultError` instead of deadlocking.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Generator
from typing import TYPE_CHECKING, Any, Protocol

import numpy as np

from ..config import CostModel
from ..faults import MAX_ATTEMPTS, UnrecoverableFaultError
from ..sim import Resource, Simulator
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
        self.retransmissions = 0
        self._in_flight = 0
        #: high-water mark of concurrent in-flight messages
        self.in_flight_peak = 0
        #: optional causal log (duck-typed: on_send/on_attempt/on_deliver;
        #: see repro.obs.causality), wired by RunContext
        self.causality: Any | None = None

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

        With link faults injected this becomes an at-least-once exchange:
        the sender retransmits on a seeded drop verdict with exponential
        backoff, waits one ack propagation delay on success, and counts a
        lost-ack retransmission as a suppressed duplicate (the payload is
        delivered to the mailbox exactly once either way).  See the module
        docstring for the full recovery semantics.

        ``best_effort=True`` (heartbeats) sends exactly one copy and never
        waits for an ack: a drop verdict simply loses the message — which
        is the point, because a failure detector built on a reliable
        transport would never observe the faults it exists to detect.
        Byte conservation still holds (the loss lands in ``dropped_*``).
        """
        nbytes = message.nbytes
        if nbytes < 0:
            raise ValueError("message reports a negative size")
        key = (src.node_id, dst.node_id, message.kind)
        self.sent_messages[message.kind] += 1
        self._in_flight += 1
        if self._in_flight > self.in_flight_peak:
            self.in_flight_peak = self._in_flight
        # Record the causal edge before the first yield: the sender's
        # current cause must be read while it is still processing the
        # message that triggered this send.
        edge: Any | None = None
        if self.causality is not None:
            edge = self.causality.on_send(
                src.name, dst.name, message, self.sim.now, parent
            )
        # A fail-stop interrupt (crashed sender) can land on any yield in
        # here; the try/finally keeps the conservation books exact in that
        # case: an attempt whose verdict never resolved is charged as
        # dropped (the sender's NIC died mid-transmission) and an
        # undelivered logical message leaves the in-flight count.
        delivered = False      # a copy was handed to _spawn_deliver
        attempt_open = False   # bytes charged to sent_* with no verdict yet
        try:
            yield from src.cpu.use(self.cost.net_per_message_cpu)
            if message.kind == "data":
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
                # protocol, not a leak.
                yield from dst.recv_credits.take()
            faults = self.faults
            if faults is None or not faults.links_active or src is dst:
                attempt_open = True
                self.sent_bytes[key] += nbytes
                yield from self._transmit(src, dst, nbytes)
                attempt_open = False
                self._spawn_deliver(src, dst, message, nbytes, key, edge)
                delivered = True
                return
            if best_effort:
                attempt_open = True
                self.sent_bytes[key] += nbytes
                yield from self._transmit(src, dst, nbytes)
                attempt_open = False
                if faults.roll_drop(src.node_id, dst.node_id):
                    self.dropped_bytes[key] += nbytes
                    self.dropped_messages[message.kind] += 1
                else:
                    self._spawn_deliver(src, dst, message, nbytes, key, edge)
                    delivered = True
                return
            # Reliable transport: transmit / await ack / back off and retry.
            attempt = 0
            while True:
                attempt_open = True
                self.sent_bytes[key] += nbytes
                yield from self._transmit(src, dst, nbytes)
                attempt_open = False
                if faults.roll_drop(src.node_id, dst.node_id):
                    self.dropped_bytes[key] += nbytes
                    self.dropped_messages[message.kind] += 1
                    lost = True
                else:
                    if delivered:
                        self.duplicate_bytes[key] += nbytes
                        self.duplicate_messages[message.kind] += 1
                    else:
                        self._spawn_deliver(src, dst, message, nbytes, key, edge)
                        delivered = True
                    lost = faults.roll_ack_drop(src.node_id, dst.node_id)
                if not lost:
                    # Cumulative ack propagates back (control-sized, modelled
                    # as pure propagation delay on the reverse path).
                    yield self.sim.timeout(self.cost.net_latency)
                    return
                attempt += 1
                if attempt >= MAX_ATTEMPTS:
                    raise UnrecoverableFaultError(
                        f"message {src.name}->{dst.name} ({message.kind}, "
                        f"{nbytes} B) exhausted {MAX_ATTEMPTS} "
                        "transmission attempts; the configured drop "
                        "probability is beyond the transport's recovery "
                        "envelope"
                    )
                self.retransmissions += 1
                faults.count_retry(message.kind)
                if edge is not None:
                    self.causality.on_attempt(edge)
                yield self.sim.timeout(faults.rto(attempt))
        finally:
            if attempt_open:
                self.dropped_bytes[key] += nbytes
                self.dropped_messages[message.kind] += 1
            if not delivered:
                self._in_flight -= 1

    def _transmit(self, src: Node, dst: Node, nbytes: int) -> Generator[Any, Any, None]:
        """Clock one copy of the payload through the interconnect."""
        if src is dst:
            return
        wire = self.cost.wire_time(nbytes)
        if self.faults is not None:
            wire *= self.faults.slowdown_factor(
                src.node_id, dst.node_id, self.sim.now
            )
        if self._hub is not None:
            with self._hub.request() as medium:
                yield medium
                yield self.sim.timeout(self.cost.net_latency + wire)
                self._hub.busy_time += wire
        else:
            with src.tx.request() as tx:
                yield tx
                yield self.sim.timeout(self.cost.net_latency)
                with dst.rx.request() as rx:
                    yield rx
                    yield self.sim.timeout(wire)
                    src.tx.busy_time += wire
                    dst.rx.busy_time += wire

    def _spawn_deliver(
        self,
        src: Node,
        dst: Node,
        message: Wireable,
        nbytes: int,
        key: tuple[int, int, str],
        edge: Any | None = None,
    ) -> None:
        self.sim.spawn(
            self._deliver(dst, message, nbytes, key, edge),
            name=f"net:{src.name}->{dst.name}",
        )

    def _deliver(
        self,
        dst: Node,
        message: Wireable,
        nbytes: int,
        key: tuple[int, int, str],
        edge: Any | None = None,
    ) -> Generator[Any, Any, None]:
        if self.cost.net_jitter > 0.0:
            # Chaos knob: a random stack/scheduling delay after the wire,
            # holding no link — so messages may arrive REORDERED, which the
            # protocol must tolerate (exercised by the chaos tests).
            yield self.sim.timeout(
                float(self._jitter_rng.uniform(0.0, self.cost.net_jitter))
            )
        yield from dst.cpu.use(self.cost.net_per_message_cpu)
        self.delivered_bytes[key] += nbytes
        self.delivered_messages[message.kind] += 1
        self._in_flight -= 1
        if edge is not None:
            # Before the deposit: an immediate hand-off to a blocked getter
            # fires the mailbox's dequeue hook synchronously.
            self.causality.on_deliver(edge, message, self.sim.now)
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
