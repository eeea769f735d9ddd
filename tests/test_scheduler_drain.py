"""White-box tests for the scheduler's counting-drain stability logic.

The drain rule (scheduler docstring): a phase is complete only when two
consecutive polling rounds return identical counters AND the flow balances
(sent == received == processed) AND nobody is busy / queued / in relief.
These tests drive ``_on_status_report`` directly with synthetic reports.
"""

from dataclasses import dataclass

import pytest

from tests.conftest import small_config
from repro.config import Algorithm
from repro.core.driver import single_query_context
from repro.core.messages import StatusReport
from repro.core.scheduler import SchedulerProcess


def make_sched(initial=2):
    cfg = small_config(Algorithm.REPLICATE, initial=initial)
    ctx = single_query_context(cfg)
    sched = SchedulerProcess(ctx)
    sched._draining = "build"
    sched._source_done["R"] = set(range(ctx.n_sources))
    return sched


def report(node, token, rb, pb, eb, busy=False):
    return StatusReport(node=node, token=token, received_build=rb,
                        processed_build=pb, emitted_build=eb,
                        received_probe=0, processed_probe=0, busy=busy)


def feed_round(sched, reports):
    sched._poll_token += 1
    sched._round_nodes = tuple(sorted({r.node for r in reports}))
    sched._round_reports = {}
    for r in reports:
        r.token = sched._poll_token
        sched._on_status_report(r)


def test_balanced_identical_rounds_drain():
    sched = make_sched()
    sched._source_chunk_maps["R"] = {0: 6, 1: 4}
    round_ = [report(0, 0, rb=6, pb=6, eb=1),
              report(1, 0, rb=5, pb=5, eb=0)]
    feed_round(sched, round_)
    assert not sched._drained, "one balanced round is not enough"
    feed_round(sched, round_)
    assert sched._drained


def test_imbalance_never_drains():
    sched = make_sched()
    sched._source_chunk_maps["R"] = {0: 5, 1: 5}
    # one chunk still in flight: received < sent
    round_ = [report(0, 0, rb=5, pb=5, eb=0),
              report(1, 0, rb=4, pb=4, eb=0)]
    feed_round(sched, round_)
    feed_round(sched, round_)
    assert not sched._drained


def test_busy_node_blocks_drain():
    sched = make_sched()
    sched._source_chunk_maps["R"] = {0: 6, 1: 4}
    round_ = [report(0, 0, rb=6, pb=6, eb=1, busy=True),
              report(1, 0, rb=5, pb=5, eb=0)]
    feed_round(sched, round_)
    feed_round(sched, round_)
    assert not sched._drained


def test_changing_counters_reset_stability():
    sched = make_sched()
    sched._source_chunk_maps["R"] = {0: 6, 1: 4}
    feed_round(sched, [report(0, 0, rb=5, pb=5, eb=0),
                       report(1, 0, rb=4, pb=4, eb=0)])
    # activity happened: now balanced, but this is the FIRST balanced round
    feed_round(sched, [report(0, 0, rb=6, pb=6, eb=1),
                       report(1, 0, rb=5, pb=5, eb=0)])
    assert not sched._drained
    feed_round(sched, [report(0, 0, rb=6, pb=6, eb=1),
                       report(1, 0, rb=5, pb=5, eb=0)])
    assert sched._drained


def test_stale_token_reports_are_ignored():
    sched = make_sched()
    sched._source_chunk_maps["R"] = {0: 1}
    sched._poll_token = 5
    sched._round_nodes = (0, 1)
    sched._round_reports = {}
    stale = report(0, token=3, rb=1, pb=1, eb=0)
    sched._on_status_report(stale)
    assert sched._round_reports == {}
    foreign = report(7, token=5, rb=1, pb=1, eb=0)
    sched._on_status_report(foreign)
    assert sched._round_reports == {}


def test_expansion_during_round_discards_it():
    sched = make_sched()
    sched._source_chunk_maps["R"] = {0: 6, 1: 5}
    feed_round(sched, [report(0, 0, rb=6, pb=6, eb=1),
                       report(1, 0, rb=5, pb=5, eb=0)])
    # a node was recruited after the round was requested
    sched.activated.append(9)
    feed_round(sched, [report(0, 0, rb=6, pb=6, eb=1),
                       report(1, 0, rb=5, pb=5, eb=0)])
    assert not sched._drained, "round node set no longer matches activated"


def test_memory_full_resets_previous_round():
    from repro.core.messages import MemoryFull

    sched = make_sched()
    sched._source_chunk_maps["R"] = {0: 6, 1: 4}
    round_ = [report(0, 0, rb=6, pb=6, eb=1),
              report(1, 0, rb=5, pb=5, eb=0)]
    feed_round(sched, round_)
    sched.dispatch(MemoryFull(0))
    assert sched.full_queue and sched._prev_round is None
    sched.full_queue.clear()
    feed_round(sched, round_)
    assert not sched._drained, "stability must restart after a relief event"


def test_a_message_without_a_row_names_the_scheduler():
    sched = make_sched()
    with pytest.raises(RuntimeError, match="^scheduler: unexpected message"):
        sched.dispatch(object())


def test_probe_phase_balance_includes_emitted_probe():
    sched = make_sched()
    sched._draining = "probe"
    sched._source_done["S"] = set(range(sched.ctx.n_sources))
    sched._source_chunk_maps["S"] = {0: 4}

    def probe_report(node, rp, pp, ep):
        return StatusReport(node=node, token=0, received_build=0,
                            processed_build=0, emitted_build=0,
                            received_probe=rp, processed_probe=pp,
                            busy=False, emitted_probe=ep)

    # node 0 forwarded 2 output chunks to sink node 1
    round_ = [probe_report(0, rp=4, pp=4, ep=2),
              probe_report(1, rp=2, pp=2, ep=0)]
    feed_round(sched, round_)
    feed_round(sched, round_)
    assert sched._drained


# ----------------------------------------------------------------------
# relief-cycle waits screen the drain's ticks
# ----------------------------------------------------------------------
@dataclass
class Ack:
    node: int = 0


def drive(sched, wait, script):
    """Run ``wait`` as the scheduler process under a 1 s drain ticker, with
    ``script`` feeding the mailbox; return what the wait returned (or
    raised) and when it ended, and the simulated times the scheduler
    resumed at (stale wakeups aside)."""
    from repro.core.context import poll_ticker
    from repro.sim import Process

    sim = sched.ctx.sim
    out, resumes = {}, []
    real_resume = Process._resume

    def counting_resume(self, event):
        if event is self._waiting_on and self.name == "scheduler":
            resumes.append(sim.now)
        real_resume(self, event)

    def scheduler():
        try:
            out["value"] = yield from wait
        except Exception as e:  # the test inspects what the wait raised
            out["raised"] = e
        out["at"] = sim.now
        sched._background_stopped = True

    Process._resume = counting_resume
    try:
        poll_ticker(sim, sched.node.mailbox, 1.0,
                    lambda: sched._background_stopped)
        sim.spawn(scheduler(), name="scheduler")
        sim.spawn(script(sim, sched.node.mailbox))
        sim.run()
    finally:
        Process._resume = real_resume
    return out, resumes


def test_await_message_screens_ticks_it_would_only_ignore():
    """``await_message`` (every wait inside a relief cycle) lets a tick
    it does not wait for wake nobody: the scheduler resumes for its start
    and for the two messages it waits for, never for the 50 ticks between,
    and no tick reaches the dispatcher.  Other traffic still does.  A wait
    that names ``PollTick`` (``_probe_recovery``'s one-tick sleep) gets
    the next tick."""
    from repro.core.messages import PollTick

    sched = make_sched()
    dispatched, got = [], []
    sched._handlers = {PollTick: lambda s, m: dispatched.append(m),
                       str: lambda s, m: dispatched.append(m)}

    def waits():
        got.append((yield from sched.await_message(Ack)))
        got.append((yield from sched.await_message(PollTick)))

    def sender(sim, box):
        yield sim.timeout(20.5)
        box.put("other traffic")
        yield sim.timeout(30.0)
        box.put(Ack())

    _, resumes = drive(sched, waits(), sender)
    assert dispatched == ["other traffic"]
    assert got[0] == Ack() and type(got[1]) is PollTick
    assert resumes == [0.0, 20.5, 50.5, 51.0]


def test_await_message_where_sends_other_fields_to_the_dispatcher():
    sched = make_sched()
    dispatched = []
    sched._handlers = {Ack: lambda s, m: dispatched.append(m)}

    def sender(sim, box):
        yield sim.timeout(1.5)
        box.put(Ack(1))
        box.put(Ack(2))

    out, _ = drive(sched, sched.await_message(Ack, where={"node": 2}), sender)
    assert out["value"] == Ack(2) and dispatched == [Ack(1)]


# ----------------------------------------------------------------------
# gather: one reply from each sender
# ----------------------------------------------------------------------
def test_gather_returns_once_every_sender_replied():
    """Replies come back by sender; the set is emptied in place; a reply
    from outside it and a second one from a sender already heard reach
    the dispatcher; no tick wakes a gather without a timeout."""
    sched = make_sched()
    dispatched = []
    sched._handlers = {Ack: lambda s, m: dispatched.append(m)}
    senders = {0, 1, 2}

    def sender(sim, box):
        for node in (2, 7, 0, 2, 1):
            yield sim.timeout(2.5)
            box.put(Ack(node))

    out, resumes = drive(sched, sched.gather(Ack, senders), sender)
    assert out["value"] == {2: Ack(2), 0: Ack(0), 1: Ack(1)}
    assert list(out["value"]) == [2, 0, 1]  # arrival order
    assert senders == set()
    assert dispatched == [Ack(7), Ack(2)]
    assert resumes == [0.0, 2.5, 5.0, 7.5, 10.0, 12.5]


def test_a_node_death_mid_gather_leaves_exactly_the_unheard_senders():
    """A ``_NodeDied`` raised by the dispatcher unwinds the gather; the
    set it was given then holds the senders not yet heard, which is what
    the fault layer's initial-activation wait retries with."""
    from repro.core.messages import ActivateAck, DeathVerdict
    from repro.core.recovery import _NodeDied

    sched = make_sched()

    def died(s, msg):
        raise _NodeDied(msg.node)

    sched._handlers = {**sched._handlers, DeathVerdict: died}
    senders = {0, 1, 2, 3}

    def sender(sim, box):
        yield sim.timeout(1.5)
        box.put(ActivateAck(1))
        box.put(ActivateAck(3))
        yield sim.timeout(1.0)
        box.put(DeathVerdict(2))
        box.put(ActivateAck(0))  # after the unwind: never consumed

    out, _ = drive(sched, sched.gather(ActivateAck, senders), sender)
    assert isinstance(out["raised"], _NodeDied) and out["raised"].node == 2
    assert senders == {0, 2}
    assert ActivateAck(0) in sched.node.mailbox.drain()


def test_gather_times_out_only_after_a_quiet_window():
    """With ``timeout=3``: a reply at 2.5 pushes the deadline to 5.5, so
    the gather does not give up at 3.0 but on the first tick at or past
    5.5 (6.0), with the silent sender left in the set."""
    sched = make_sched()
    senders = {0, 1}

    def sender(sim, box):
        yield sim.timeout(2.5)
        box.put(Ack(0))

    out, _ = drive(sched, sched.gather(Ack, senders, timeout=3.0), sender)
    assert out["value"] == {0: Ack(0)} and senders == {1}
    assert out["at"] == 6.0


def test_a_join_with_relief_cycles_dispatches_no_tick(monkeypatch):
    """End to end: the relief cycles' waits screen every tick, so
    :meth:`SchedulerProcess._on_poll_tick` never sees one (a tick used to
    reach it for each tick that fell inside a relief cycle)."""
    from repro.core import run_join
    from repro.core.messages import PollTick

    ignored = []

    def counting_ignore(self, msg):
        ignored.append(type(msg))
        SchedulerProcess._on_poll_tick(self, msg)

    monkeypatch.setattr(SchedulerProcess, "_handlers", {
        **SchedulerProcess._handlers, PollTick: counting_ignore})
    res = run_join(small_config(Algorithm.HYBRID), validate=True)
    assert res.nodes_used > 2  # relief cycles ran
    assert PollTick not in ignored


def test_shutdown_records_a_zombies_final_report_through_the_dispatcher():
    """``_shutdown`` gathers the activated nodes' FinalReports; a zombie
    recruit's (timed out, yet alive) reaches the dispatcher, which
    records it too, and does not end the wait early."""
    from repro.core.messages import FinalReport

    sched = make_sched()
    sched.activated = [0, 1]

    def report(node):
        return FinalReport(node=node, stored_tuples=0, matches=node,
                           peak_memory=0, overcommit_bytes=0,
                           spilled_r_tuples=0, spilled_s_tuples=0,
                           activated_at=0.0)

    def joins(sim, box):
        for node in (1, 4, 0):  # 4: the zombie
            yield sim.timeout(1.5)
            box.put(report(node))

    out, _ = drive(sched, sched._shutdown(), joins)
    assert "raised" not in out and out["at"] == 4.5
    assert sched.outcome.final_reports == {n: report(n) for n in (0, 1, 4)}
