"""Runtime deadlock detector (repro.sim.lockdep) tests.

The monitor is a pure observer: with it attached, every clean run must
finish bit-identically, and every wait-for cycle must be reported the
moment the closing edge is added — naming each waiter, what it waits on
and what it holds — instead of surfacing as a bare DeadlockError after
the queue drains.
"""

from dataclasses import replace

import pytest

from repro.config import Algorithm, FaultPlan, RunConfig
from repro.core import run_join
from repro.core.context import lockdep_enabled
from repro.core.driver import single_query_context
from repro.core.messages import HeartbeatAck, ReliefPing, StatusRequest
from repro.sim import (
    CreditWindow,
    LockdepError,
    LockdepMonitor,
    Mailbox,
    Resource,
    Simulator,
)
from repro.sim.errors import DeadlockError, Interrupt
from tests.conftest import small_config


def monitored_sim():
    sim = Simulator()
    LockdepMonitor(sim).install()
    return sim


# ----------------------------------------------------------------------
# cycle detection
# ----------------------------------------------------------------------
def test_abba_cycle_detected_naming_both_waiters():
    """The seeded two-resource cycle: detected the moment the second
    process blocks (well under one simulated second), with both waiters
    and both resources in the report."""
    sim = monitored_sim()
    a = Resource(sim, 1, name="A")
    b = Resource(sim, 1, name="B")

    def p1(sim):
        with a.request() as ra:
            yield ra
            yield sim.timeout(0.01)
            with b.request() as rb:
                yield rb

    def p2(sim):
        with b.request() as rb:
            yield rb
            yield sim.timeout(0.01)
            with a.request() as ra:
                yield ra

    sim.spawn(p1(sim), name="p1")
    sim.spawn(p2(sim), name="p2")
    with pytest.raises(LockdepError) as exc:
        sim.run()
    msg = str(exc.value)
    assert "wait-for cycle" in msg
    assert "'p1'" in msg and "'p2'" in msg
    assert "Resource('A')" in msg and "Resource('B')" in msg
    assert sim.now < 1.0
    assert sim.lockdep.cycles_detected == 1


def test_three_party_cycle_detected():
    sim = monitored_sim()
    res = {n: Resource(sim, 1, name=n) for n in "ABC"}

    def worker(sim, mine, then):
        with res[mine].request() as held:
            yield held
            yield sim.timeout(0.01)
            with res[then].request() as wanted:
                yield wanted

    for mine, then in [("A", "B"), ("B", "C"), ("C", "A")]:
        sim.spawn(worker(sim, mine, then), name=f"w{mine}")
    with pytest.raises(LockdepError) as exc:
        sim.run()
    assert "cycle of 3 process(es)" in str(exc.value)


def test_clean_contended_run_is_silent():
    sim = monitored_sim()
    res = Resource(sim, 1, name="R")
    order = []

    def worker(sim, i):
        yield from res.use(0.1)
        order.append(i)

    for i in range(4):
        sim.spawn(worker(sim, i), name=f"w{i}")
    sim.run()
    assert order == [0, 1, 2, 3]
    assert sim.lockdep.cycles_detected == 0
    assert sim.lockdep.waits_tracked == 3  # w0 acquired without waiting
    assert sim.lockdep._waits == {} and sim.lockdep._holders == {}


def test_multislot_self_wait_is_not_a_cycle():
    """The credit-protocol shape: a producer holding receive-window slots
    waits for one more while another actor releases.  On a multi-slot
    resource "a holder is blocked" does not imply deadlock, so the cycle
    DFS must not follow holder edges through it."""
    sim = monitored_sim()
    credits = CreditWindow(sim, 2, name="credits")
    done = []

    def producer(sim):
        yield from credits.take()
        yield from credits.take()
        yield from credits.take()  # blocks holding both slots
        done.append(sim.now)

    def consumer(sim):
        yield sim.timeout(0.05)
        credits.give()  # cross-actor give, as the join node does

    sim.spawn(producer(sim), name="producer")
    sim.spawn(consumer(sim), name="consumer")
    sim.run()
    assert done == [0.05]
    assert sim.lockdep.cycles_detected == 0


# ----------------------------------------------------------------------
# stall reports
# ----------------------------------------------------------------------
def test_stall_report_names_mailbox_waiter():
    sim = monitored_sim()
    box = Mailbox(sim, name="inbox")

    def lonely(sim):
        msg = yield from box.recv()
        return msg

    sim.spawn(lonely(sim), name="lonely")
    with pytest.raises(DeadlockError) as exc:
        sim.run()
    msg = str(exc.value)
    assert "lockdep:" in msg
    assert "'lonely'" in msg and "Mailbox('inbox')" in msg


def test_stall_report_includes_held_resources():
    sim = monitored_sim()
    lock = Resource(sim, 1, name="lock")
    box = Mailbox(sim, name="phase")

    def stuck(sim):
        with lock.request() as req:
            yield req
            yield from box.recv()  # nobody ever sends

    sim.spawn(stuck(sim), name="stuck")
    with pytest.raises(DeadlockError) as exc:
        sim.run()
    msg = str(exc.value)
    assert "Mailbox('phase')" in msg
    assert "holds [Resource('lock')]" in msg


def test_stall_report_prints_each_stuck_actors_own_chain():
    """A stuck actor's causal chain is read off its track, not through
    the node-name map: node names carry global ids (with four sources,
    join node 7 is ``join12`` and node ``join7`` is join node 2), so that
    map once gave ``join7`` join node 2's chain and the scheduler none."""
    ctx = single_query_context(RunConfig(lockdep=True))
    log = ctx.causal

    def deliver(src, dst, msg):
        edge = log.on_send(src.name, dst.name, msg, t=0.0)
        log.on_deliver(edge, msg, t=0.0)
        log.dequeue_hook(dst.name)(msg)

    sched = ctx.scheduler_node
    deliver(sched, ctx.join_node(2), ReliefPing())
    deliver(sched, ctx.join_node(7), StatusRequest(7))
    deliver(ctx.join_node(7), sched, HeartbeatAck(7, 1))

    def stuck():
        yield from Mailbox(ctx.sim).recv()  # nobody ever sends

    for name in ("join2", "join7", "scheduler-q0"):
        ctx.sim.spawn(stuck(), name=name)
    with pytest.raises(DeadlockError) as exc:
        ctx.sim.run()
    lines = str(exc.value).splitlines()
    chain = {
        line.split("'")[1]: nxt.strip()
        for line, nxt in zip(lines, lines[1:]) if line.startswith("  '")
    }
    assert chain == {
        "join2": "last delivered: ReliefPing(scheduler->join2)",
        "join7": "last delivered: StatusRequest(scheduler->join7)",
        "scheduler-q0": "last delivered: HeartbeatAck(join7->scheduler) "
                        "<- StatusRequest(scheduler->join7)",
    }


def test_without_monitor_plain_deadlock_error():
    sim = Simulator()
    box = Mailbox(sim)

    def lonely(sim):
        yield from box.recv()

    sim.spawn(lonely(sim), name="lonely")
    with pytest.raises(DeadlockError) as exc:
        sim.run()
    assert "lockdep" not in str(exc.value)


# ----------------------------------------------------------------------
# wait withdrawal (interrupt/cancel paths)
# ----------------------------------------------------------------------
def test_interrupt_withdraws_wait_records():
    sim = monitored_sim()
    res = Resource(sim, 1, name="R")

    def holder(sim):
        yield from res.use(1.0)

    def waiter(sim):
        try:
            with res.request() as req:
                yield req
        except Interrupt:
            return "bailed"
        return "acquired"

    sim.spawn(holder(sim), name="holder")
    w = sim.spawn(waiter(sim), name="waiter")

    def killer(sim):
        yield sim.timeout(0.1)
        w.interrupt()

    sim.spawn(killer(sim), name="killer")
    sim.run()
    assert w.value == "bailed"
    assert sim.lockdep._waits == {} and sim.lockdep._holders == {}


def test_mailbox_recv_interrupt_withdraws_getter():
    sim = monitored_sim()
    box = Mailbox(sim, name="inbox")
    got = []

    def impatient(sim):
        try:
            yield from box.recv()
        except Interrupt:
            pass

    def patient(sim):
        got.append((yield from box.recv()))

    p1 = sim.spawn(impatient(sim), name="impatient")
    sim.spawn(patient(sim), name="patient")

    def driver(sim):
        yield sim.timeout(0.1)
        p1.interrupt()
        yield sim.timeout(0.1)
        box.put("msg")  # must reach 'patient', not the withdrawn getter

    sim.spawn(driver(sim), name="driver")
    sim.run()
    assert got == ["msg"]
    assert sim.lockdep._waits == {}


@pytest.mark.parametrize("interrupt_at,last_done", [
    (0.5, 1.5),   # victim still queued behind the holder: never held
    (1.5, 2.0),   # victim holding the slot, mid-timeout: released early
])
def test_use_interrupted_queued_or_holding_leaves_graph_clean(
        interrupt_at, last_done):
    """``Resource.use`` withdraws its request (queued) or releases its slot
    (holding) on Interrupt; the monitor must end with no wait and no
    holder, and must attribute both to the right process — the trampoline
    saves and restores ``current_process`` around every resume."""
    sim = monitored_sim()
    res = Resource(sim, 1, name="R")
    order = []

    def user(sim, name, hold):
        try:
            yield from res.use(hold)
            order.append((name, "done", sim.now))
        except Interrupt:
            order.append((name, "interrupted", sim.now))

    sim.spawn(user(sim, "first", 1.0), name="first")
    victim = sim.spawn(user(sim, "victim", 5.0), name="victim")
    sim.spawn(user(sim, "last", 0.5), name="last")

    def killer(sim):
        yield sim.timeout(interrupt_at)
        assert (victim in sim.lockdep._waits) == (interrupt_at < 1.0)
        assert (victim in sim.lockdep._holders.get(res, [])) == (interrupt_at > 1.0)
        victim.interrupt()

    sim.spawn(killer(sim), name="killer")
    sim.run()
    assert ("victim", "interrupted", interrupt_at) in order
    assert [(name, t) for name, what, t in order if what == "done"] == [
        ("first", 1.0), ("last", last_done)
    ]
    assert res.in_use == 0 and res.queue_length == 0
    assert sim.lockdep._waits == {} and sim.lockdep._holders == {}
    assert sim.current_process is None


# ----------------------------------------------------------------------
# enablement plumbing
# ----------------------------------------------------------------------
def test_lockdep_enabled_precedence(monkeypatch):
    cfg = RunConfig()
    # under pytest (PYTEST_CURRENT_TEST set) the default is on ...
    monkeypatch.delenv("REPRO_LOCKDEP", raising=False)
    assert lockdep_enabled(cfg)
    # ... REPRO_LOCKDEP always wins, both ways ...
    monkeypatch.setenv("REPRO_LOCKDEP", "0")
    assert not lockdep_enabled(cfg)
    monkeypatch.setenv("REPRO_LOCKDEP", "1")
    assert lockdep_enabled(cfg)
    # ... outside pytest, the config flag decides.
    monkeypatch.delenv("REPRO_LOCKDEP")
    monkeypatch.delenv("PYTEST_CURRENT_TEST")
    assert not lockdep_enabled(cfg)
    assert lockdep_enabled(replace(cfg, lockdep=True))


def test_run_attaches_monitor_and_publishes_metrics():
    res = run_join(small_config(Algorithm.SPLIT, lockdep=True))
    assert res.is_valid
    names = {m["name"] for m in res.metrics}
    assert "lockdep.waits_tracked" in names
    cycles = next(m for m in res.metrics
                  if m["name"] == "lockdep.cycles_detected")
    assert cycles["value"] == 0


# ----------------------------------------------------------------------
# chaos matrix: lockdep must stay silent on every algorithm under faults
# ----------------------------------------------------------------------
@pytest.mark.chaos
@pytest.mark.lockdep
@pytest.mark.parametrize("algorithm", list(Algorithm))
def test_lockdep_silent_on_chaos_matrix(algorithm):
    plan = FaultPlan(seed=5, drop_prob=0.05, ack_drop_prob=0.02)
    res = run_join(small_config(algorithm, initial=2,
                                faults=plan, lockdep=True))
    assert res.is_valid  # oracle-exact with the detector armed
    cycles = next(m for m in res.metrics
                  if m["name"] == "lockdep.cycles_detected")
    assert cycles["value"] == 0
