"""Unit tests for the network model: timing, conservation, flow control."""

from dataclasses import dataclass

import pytest

from repro.cluster import Network, Node
from repro.config import CostModel
from repro.sim import Simulator


@dataclass
class Msg:
    nbytes: int
    kind: str = "data"


@dataclass
class Ctrl:
    nbytes: int = 64
    kind: str = "control"


def make_pair(cost=None):
    sim = Simulator()
    cost = cost or CostModel()
    net = Network(sim, cost)
    a = Node(sim, 0, "src", cost)
    b = Node(sim, 1, "join", cost)
    return sim, net, a, b, cost


def test_single_transfer_timing():
    sim, net, a, b, cost = make_pair()
    msg = Msg(nbytes=int(cost.net_bandwidth))  # 1 second of wire time

    def sender(sim, net, a, b):
        yield from net.send(a, b, msg)

    sim.spawn(sender(sim, net, a, b))
    sim.run()
    # cpu(sender) + latency + wire + cpu(receiver)
    expected = 2 * cost.net_per_message_cpu + cost.net_latency + 1.0
    assert sim.now == pytest.approx(expected)
    assert len(b.mailbox) == 1


def test_byte_conservation_and_counters():
    sim, net, a, b, cost = make_pair()

    def sender(sim, net, a, b):
        for size in (100, 200, 300):
            yield from net.send(a, b, Msg(nbytes=size))

    sim.spawn(sender(sim, net, a, b))
    sim.run()
    net.assert_conserved()
    assert dict(net.sent_bytes) == {(0, 1, "data"): 600}
    assert dict(net.delivered_bytes) == {(0, 1, "data"): 600}
    assert net.sent_messages["data"] == 3
    assert b.mailbox.total_put == 3


def test_conservation_detects_in_flight():
    sim, net, a, b, cost = make_pair()

    def sender(sim, net, a, b):
        yield from net.send(a, b, Msg(nbytes=10**7))

    sim.spawn(sender(sim, net, a, b))
    sim.run(until=1e-9)
    with pytest.raises(AssertionError):
        net.assert_conserved()
    sim.run()
    net.assert_conserved()


def test_per_pair_fifo_ordering():
    sim, net, a, b, cost = make_pair()
    tags = []

    def sender(sim, net, a, b):
        for i in range(5):
            yield from net.send(a, b, Msg(nbytes=1000))

    def receiver(sim, b):
        for _ in range(5):
            msg = yield from b.mailbox.recv()
            tags.append(msg.nbytes)
            b.recv_credits.give()  # retire the chunk

    sim.spawn(sender(sim, net, a, b))
    sim.spawn(receiver(sim, b))
    sim.run()
    assert len(tags) == 5


def test_negative_size_rejected():
    sim, net, a, b, _ = make_pair()

    def sender(sim, net, a, b):
        yield from net.send(a, b, Msg(nbytes=-1))

    sim.spawn(sender(sim, net, a, b))
    with pytest.raises(ValueError):
        sim.run()


def test_receive_window_blocks_data_senders():
    """With a window of K chunks, a non-consuming receiver stalls senders."""
    cost = CostModel(recv_window_chunks=2)
    sim, net, a, b, cost = make_pair(cost)
    sent_times = []

    def sender(sim, net, a, b):
        for _ in range(4):
            yield from net.send(a, b, Msg(nbytes=1000))
            sent_times.append(sim.now)

    sim.spawn(sender(sim, net, a, b))
    sim.timeout(99.0)  # keep-alive: the blocked sender is intentional
    sim.run(until=10.0)
    # Only the first two clear; the rest wait on credits forever (nobody
    # consumes b's mailbox or releases credits).
    assert len(sent_times) == 2
    assert b.recv_credits.in_use == 2


def test_control_messages_bypass_receive_window():
    cost = CostModel(recv_window_chunks=1)
    sim, net, a, b, cost = make_pair(cost)

    def sender(sim, net, a, b):
        yield from net.send(a, b, Msg(nbytes=1000))   # consumes the credit
        yield from net.send(a, b, Msg(nbytes=1000))   # blocks on credit
        raise AssertionError("unreachable")

    def control_sender(sim, net, a, b):
        yield sim.timeout(1.0)
        yield from net.send(a, b, Ctrl())

    sim.spawn(sender(sim, net, a, b))
    sim.spawn(control_sender(sim, net, b, b))  # b -> b local (no links)
    sim.spawn(control_sender(sim, net, a, b))  # a -> b over the wire
    sim.timeout(99.0)  # keep-alive: the blocked data sender is intentional
    sim.run(until=5.0)
    kinds = [type(m).__name__ for m in b.mailbox.drain()]
    assert kinds.count("Ctrl") == 2, "control traffic must keep flowing"


def test_local_delivery_skips_links():
    sim, net, a, b, cost = make_pair()

    def sender(sim, net, a):
        yield from net.send(a, a, Msg(nbytes=10**9))

    sim.spawn(sender(sim, net, a))
    sim.run()
    # No wire time for local messages: only the two CPU charges.
    assert sim.now == pytest.approx(2 * cost.net_per_message_cpu)
    assert len(a.mailbox) == 1


def test_receiver_credit_release_unblocks_sender():
    cost = CostModel(recv_window_chunks=1)
    sim, net, a, b, cost = make_pair(cost)
    done = []

    def sender(sim, net, a, b):
        for i in range(3):
            yield from net.send(a, b, Msg(nbytes=1000))
        done.append(sim.now)

    def consumer(sim, b):
        for _ in range(3):
            yield from b.mailbox.recv()
            yield sim.timeout(0.5)       # processing time
            b.recv_credits.give()        # retire the chunk

    sim.spawn(sender(sim, net, a, b))
    sim.spawn(consumer(sim, b))
    sim.run()
    assert done and done[0] > 1.0  # sender was paced by the consumer
    assert b.recv_credits.in_use == 0


def test_loopback_data_send_consumes_a_credit():
    """The receiver gives back one credit per retired data chunk regardless
    of where it came from, so loopback delivery must take one too."""
    sim, net, a, b, cost = make_pair()

    def sender(sim, net, a):
        yield from net.send(a, a, Msg(nbytes=1000))

    sim.spawn(sender(sim, net, a))
    sim.run()
    assert a.recv_credits.in_use == 1
    a.recv_credits.give()  # the consumer's retire balances it
    assert a.recv_credits.in_use == 0


def test_sender_killed_while_queued_does_not_jam_the_port():
    """Regression: a process crashed while *queued* for a busy rx port
    must withdraw its request.  Otherwise the next release hands the slot
    to the corpse and every later sender to that node wedges forever
    (observed as a cluster-wide livelock when the primary scheduler was
    killed mid-transmit)."""
    from repro.sim import Interrupt

    sim, net, a, b, cost = make_pair()
    c = Node(sim, 2, "peer", cost)
    big = Ctrl(nbytes=int(cost.net_bandwidth))  # 1 second on b's rx

    def long_sender(sim):
        yield from net.send(a, b, big)

    def doomed_sender(sim):
        try:
            yield from net.send(c, b, Ctrl())
        except Interrupt:
            return  # crashed while queued on b.rx

    def late_sender(sim):
        yield sim.timeout(3.0)
        yield from net.send(c, b, Ctrl())

    sim.spawn(long_sender(sim))
    d = sim.spawn(doomed_sender(sim))
    sim.spawn(late_sender(sim))

    def killer(sim):
        yield sim.timeout(0.5)  # mid-wire: doomed is queued on b.rx
        d.interrupt()

    sim.spawn(killer(sim))
    sim.run()
    assert b.mailbox.total_put == 2, "the late send must still deliver"
    assert b.rx.in_use == 0 and a.tx.in_use == 0 and c.tx.in_use == 0


#: (topology, wait) -> (what a blocker holds from t=0 to t=100, when the
#: sender is interrupted, what it must be waiting on then, and whether the
#: attempt was open — bytes charged to sent_* with no verdict yet).  Each
#: stage lasts one second: sender CPU [0, 1), latency [1, 2), wire [2, 3);
#: on the hub the medium is held for latency + wire, [1, 3).
SEND_WAITS = {
    ("switched", "cpu grant"): ("a.cpu", 0.5, "a.cpu", False),
    ("switched", "cpu hold"): (None, 0.5, "timeout", False),
    ("switched", "credit wait"): ("b.rwnd", 1.5, "b.rwnd", False),
    ("switched", "tx wait"): ("a.tx", 1.5, "a.tx", True),
    ("switched", "latency"): (None, 1.5, "timeout", True),
    ("switched", "rx wait"): ("b.rx", 2.5, "b.rx", True),
    ("switched", "wire"): (None, 2.5, "timeout", True),
    ("hub", "cpu grant"): ("a.cpu", 0.5, "a.cpu", False),
    ("hub", "cpu hold"): (None, 0.5, "timeout", False),
    ("hub", "credit wait"): ("b.rwnd", 1.5, "b.rwnd", False),
    ("hub", "medium wait"): ("hub", 1.5, "hub", True),
    ("hub", "medium hold"): (None, 2.5, "timeout", True),
}


@pytest.mark.parametrize("topology, wait", list(SEND_WAITS))
def test_sender_crash_at_every_wait_frees_everything(topology, wait):
    """A sender interrupted at any wait of ``Network.send`` — queued for a
    slot or holding one — leaves every CPU slot, NIC slot, hub slot and
    receive credit free, books an open attempt as dropped, and keeps the
    network's books conserved."""
    from repro.sim import Interrupt, Timeout
    from repro.sim.sync import Request

    cost = CostModel(net_per_message_cpu=1.0, net_latency=1.0,
                     net_bandwidth=1000.0, recv_window_chunks=1)
    sim = Simulator()
    net = Network(sim, cost, shared_hub=topology == "hub")
    a, b = Node(sim, 0, "src", cost), Node(sim, 1, "join", cost)
    msg = Msg(nbytes=1000)  # one second of wire
    held_by_blocker, at, waiting_on, opened = SEND_WAITS[topology, wait]
    resources = {"a.cpu": a.cpu, "a.tx": a.tx, "b.rx": b.rx,
                 "b.rwnd": b.recv_credits, "hub": net._hub}

    def blocker():
        if held_by_blocker == "b.rwnd":
            yield from b.recv_credits.take()
            yield sim.timeout(100.0)
            b.recv_credits.give()
        else:
            with resources[held_by_blocker].request() as req:
                yield req
                yield sim.timeout(100.0)

    def sender():
        try:
            yield from net.send(a, b, msg)
        except Interrupt:
            return "crashed"
        return "sent"

    if held_by_blocker is not None:
        sim.spawn(blocker())
    proc = sim.spawn(sender())

    def killer():
        yield sim.timeout(at)
        target = proc._waiting_on
        if waiting_on == "timeout":
            assert type(target) is Timeout
        else:
            assert isinstance(target, Request) and not target.triggered
            assert target.resource is resources[waiting_on]
        proc.interrupt()

    sim.spawn(killer())
    sim.run()
    assert proc.value == "crashed"
    for name, res in resources.items():
        if res is not None:
            assert (res.in_use, res.queue_length) == (0, 0), name
    assert (b.cpu.in_use, b.mailbox.total_put) == (0, 0)
    key = (0, 1, "data")
    booked = {key: 1000} if opened else {}
    assert dict(net.sent_bytes) == dict(net.dropped_bytes) == booked
    assert net.dropped_messages["data"] == (1 if opened else 0)
    net.assert_conserved()
