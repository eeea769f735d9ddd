"""White-box tests for the scheduler's counting-drain stability logic.

The drain rule (scheduler docstring): a phase is complete only when two
consecutive polling rounds return identical counters AND the flow balances
(sent == received == processed) AND nobody is busy / queued / in relief.
These tests drive ``_collect_report`` directly with synthetic reports.
"""

from tests.conftest import small_config
from repro.config import Algorithm
from repro.core.driver import single_query_context
from repro.core.messages import StatusReport
from repro.core.scheduler import SchedulerProcess


def make_sched(initial=2):
    cfg = small_config(Algorithm.REPLICATE, initial=initial)
    ctx = single_query_context(cfg)
    sched = SchedulerProcess(ctx)
    sched._phase = "build"
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
        sched._collect_report(r)


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
    sched._collect_report(stale)
    assert sched._round_reports == {}
    foreign = report(7, token=5, rb=1, pb=1, eb=0)
    sched._collect_report(foreign)
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
    sched._dispatch_common(MemoryFull(0))
    assert sched.full_queue and sched._prev_round is None
    sched.full_queue.clear()
    feed_round(sched, round_)
    assert not sched._drained, "stability must restart after a relief event"


def test_probe_phase_balance_includes_emitted_probe():
    sched = make_sched()
    sched._phase = "probe"
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
def test_await_message_screens_ticks_it_would_only_ignore(monkeypatch):
    """``await_message`` (every wait inside a relief cycle) lets a tick
    its match refuses wake nobody: the scheduler resumes for its start and
    for the two messages it waits for, never for the 50 ticks between, and
    no tick reaches the dispatcher.  Other traffic still does.  A match
    that accepts a ``PollTick`` (``_probe_recovery``'s one-tick sleep)
    gets the next tick."""
    from repro.core.context import poll_ticker
    from repro.core.messages import PollTick
    from repro.sim import Process

    sched = make_sched()
    sim, box = sched.ctx.sim, sched.node.mailbox
    dispatched, resumes, got = [], [], []
    sched._handlers = {PollTick: lambda s, m: dispatched.append(m),
                       str: lambda s, m: dispatched.append(m)}
    real_resume = Process._resume

    def counting_resume(self, event):
        if event is self._waiting_on and self.name == "scheduler":
            resumes.append(sim.now)  # not a stale wakeup
        real_resume(self, event)

    monkeypatch.setattr(Process, "_resume", counting_resume)

    def scheduler():
        got.append((yield from sched.await_message(lambda m: m == "ack")))
        got.append((yield from sched.await_message(
            lambda m: isinstance(m, PollTick))))
        sched._background_stopped = True

    def sender():
        yield sim.timeout(20.5)
        box.put("other traffic")
        yield sim.timeout(30.0)
        box.put("ack")

    poll_ticker(sim, box, 1.0, lambda: sched._background_stopped)
    sim.spawn(scheduler(), name="scheduler")
    sim.spawn(sender())
    sim.run()
    assert dispatched == ["other traffic"]
    assert got[0] == "ack" and type(got[1]) is PollTick
    assert resumes == [0.0, 20.5, 50.5, 51.0]


def test_a_join_with_relief_cycles_dispatches_no_tick(monkeypatch):
    """End to end: the relief cycles' waits screen every tick, so
    :meth:`SchedulerProcess._ignore` never sees one (it used to, once for
    each tick that fell inside a relief cycle)."""
    from repro.core import run_join
    from repro.core.messages import PollTick

    ignored = []
    real_ignore = SchedulerProcess._ignore

    def counting_ignore(self, msg):
        ignored.append(type(msg))
        real_ignore(self, msg)

    monkeypatch.setattr(SchedulerProcess, "_ignore", counting_ignore)
    res = run_join(small_config(Algorithm.HYBRID), validate=True)
    assert res.nodes_used > 2  # relief cycles ran
    assert PollTick not in ignored
