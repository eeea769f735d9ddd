"""Control-plane fault tolerance: detector, failover, node recovery.

These are whole-system chaos runs (marked ``chaos``) plus fast CLI-level
checks.  The scenarios mirror docs/FAULTS.md §"Control-plane failure
model":

* the primary scheduler fail-stops mid-build and the standby takes over
  (every algorithm, exact oracle counts);
* a *working* join node crashes during build and during probe and its
  hash range is re-streamed to a fresh node (every algorithm);
* a slowed link produces a false suspicion that must resolve without a
  failover or a lost query (the detector has no oracle);
* a death during the standby's re-drive is recovered, and one during the
  hybrid reshuffle (its drain, or a wait on a member's reply) is refused
  with an error that names the phase.

All runs validate against the sequential join oracle, so "recovered"
means *exactly* right, not merely "terminated".
"""

import signal

import pytest

from tests.conftest import small_cluster, small_config, small_workload
from repro.cli import main
from repro.config import Algorithm, SplitPolicy
from repro.core import run_join
from repro.core import driver
from repro.core.driver import single_query_context
from repro.core.recovery import FaultTolerantScheduler
from repro.faults import CrashSpec, FaultPlan, LinkSlowdown, UnrecoverableFaultError

ALGOS = (
    Algorithm.SPLIT,
    Algorithm.REPLICATE,
    Algorithm.HYBRID,
    Algorithm.OUT_OF_CORE,
)

#: per-algorithm primary-kill times (simulated s) that land mid-build
KILL_AT = {
    Algorithm.SPLIT: 0.1,
    Algorithm.REPLICATE: 0.03,
    Algorithm.HYBRID: 0.03,
    Algorithm.OUT_OF_CORE: 0.06,
}


def counter_total(res, name):
    return sum(
        inst["value"] for inst in res.metrics if inst["name"] == name
    )


def membership_plan(**kw) -> FaultPlan:
    """Detector armed with a fast heartbeat so tests stay short."""
    return FaultPlan(membership=True, heartbeat_interval_s=0.01, **kw)


def run_with(algorithm, plan, *, pool=16, **kw):
    cfg = small_config(
        algorithm,
        workload=small_workload(sigma=1e-5),  # 89 oracle matches
        cluster=small_cluster(pool=pool),
        faults=plan,
        **kw,
    )
    return run_join(cfg)


# ---------------------------------------------------------------------------
# scheduler fail-stop -> standby takeover
# ---------------------------------------------------------------------------


@pytest.mark.chaos
@pytest.mark.parametrize("algorithm", ALGOS)
def test_scheduler_killed_mid_build_fails_over(algorithm):
    """The primary dies mid-build; the standby adopts the WAL'd snapshot,
    redrives the in-flight decision and finishes with exact counts."""
    res = run_with(
        algorithm, membership_plan(kill_scheduler_at=KILL_AT[algorithm])
    )
    assert res.matches == res.reference_matches == 89
    assert counter_total(res, "sched.failover_count") == 1


@pytest.mark.chaos
def test_scheduler_killed_before_first_sync_restarts_fresh():
    """The primary dies before it replicated anything: the standby has no
    snapshot to adopt and runs the query from scratch (re-activation is
    idempotent at the joins).  Used to hang: the from-scratch path started
    the background loops twice and orphaned a ticker."""
    res = run_with(Algorithm.HYBRID, membership_plan(kill_scheduler_at=5e-5))
    assert res.matches == res.reference_matches == 89
    assert counter_total(res, "sched.failover_count") == 1


#: (algorithm, split policy, kill time) landing inside an expansion of each
#: WAL'd decision kind on the uniform small workload
MID_EXPANSION = {
    "replicate": (Algorithm.REPLICATE, SplitPolicy.LINEAR_POINTER, 0.007),
    "bisect": (Algorithm.SPLIT, SplitPolicy.TARGETED_BISECT, 0.007),
    "linear": (Algorithm.SPLIT, SplitPolicy.LINEAR_MOD, 0.01),
}


@pytest.mark.chaos
@pytest.mark.parametrize("kind", sorted(MID_EXPANSION))
def test_failover_mid_expansion_reapplies_the_logged_decision(kind):
    """Killed between logging a decision and finishing it, the primary
    leaves the standby a pending ``Decision``; the standby hands it to the
    same ``apply`` the primary was executing and ends oracle-exact."""
    algorithm, policy, kill_at = MID_EXPANSION[kind]
    cfg = small_config(
        algorithm, split_policy=policy, trace=True,
        faults=membership_plan(kill_scheduler_at=kill_at),
    )
    res = run_join(cfg)
    assert res.matches == res.reference_matches
    redriven = [r.detail["pending"] for r in res.tracer.select("redrive")]
    assert [p[0] for p in redriven] == [kind]


@pytest.mark.chaos
def test_failover_mid_recovery_redrives_the_logged_recovery():
    """Killed inside node 0's recovery cycle (t = 0.23366 onwards), after
    it WAL'd the decision with the target pinned, the primary leaves the
    standby a pending ``recover`` decision; the standby runs the cycle
    again on the same target and ends oracle-exact."""
    plan = membership_plan(crashes=(CrashSpec(node=0, at_time=0.02),),
                           kill_scheduler_at=0.2352)
    res = run_with(Algorithm.HYBRID, plan, trace=True)
    assert res.matches == res.reference_matches == 89
    redriven = [r.detail["pending"] for r in res.tracer.select("redrive")]
    assert [p[0] for p in redriven] == ["recover"]
    assert counter_total(res, "sched.recovery_cycles") == 2
    assert counter_total(res, "sim.events_executed") == 16575


@pytest.mark.chaos
def test_a_death_during_the_standbys_redrive_is_recovered():
    """The primary dies while its split of node 2 onto node 4 is logged,
    and the split's donor dies with it.  The standby's re-drive waits for
    the donor's relief ack, the detector declares the donor dead, and the
    standby recovers it as its drain loop would.  It used to refuse: "join
    node 2 declared dead during the build phase — working-node recovery is
    supported only in the build and probe phases"."""
    plan = FaultPlan(membership=True, kill_scheduler_at=0.0205,
                     crashes=(CrashSpec(node=2, at_time=0.0205),))
    res = run_with(Algorithm.SPLIT, plan, trace=True)
    assert res.matches == res.reference_matches == 89
    redriven = [r.detail["pending"] for r in res.tracer.select("redrive")]
    assert redriven == [["bisect", 2, 4, 2, 1536]]
    assert [r.detail["dead"] for r in res.tracer.select("recovery_begin")] == [2]
    assert counter_total(res, "sched.failover_count") == 1


@pytest.mark.chaos
def test_a_redrive_that_hears_no_ack_ends_in_the_concurrent_failure_error():
    """A link from the scheduler (global id 0) to the backup (19) slowed
    300 000-fold fires the standby's dead-man timer mid-build.  From its
    takeover on, the standby hears no heartbeat ack and declares all five
    working nodes dead at once, while it re-drives the logged split.  It
    recovers the first and refuses the second, with the error that names
    the cut: concurrent working-node failures."""
    plan = membership_plan(
        slowdowns=(LinkSlowdown(0.02, 1.02, 3e5, src=0, dst=19),))
    with pytest.raises(UnrecoverableFaultError,
                       match="join node 1 declared dead while recovering"):
        run_with(Algorithm.SPLIT, plan)


# ---------------------------------------------------------------------------
# the reshuffle drain is outside the recovery envelope
# ---------------------------------------------------------------------------


def test_the_detector_grades_the_reshuffle_drain_but_not_its_transfers():
    """No node acks.  While the reshuffle moves data (the build drain
    over), the pings go on but no node is suspected; once the reshuffle's
    own drain runs, the same silence is."""
    cfg = small_config(Algorithm.HYBRID, faults=membership_plan())
    sched = FaultTolerantScheduler(single_query_context(cfg))
    sched._phase = "reshuffle"  # as ``_run_from`` sets it
    sched._drained = True  # the build drain is over
    sim = sched.ctx.sim
    sim.spawn(sched._detect(), name="membership")
    sim.run(until=3 * sched._suspect_s)
    assert not sched.suspected
    assert sched.ctx.metrics.find("membership.suspected") is None
    assert sched.ctx.metrics.find("membership.pings").value > 0
    sched.drain("build")
    sim.run(until=6 * sched._suspect_s)
    assert sched.suspected == set(sched.activated)


@pytest.mark.chaos
def test_a_crash_during_the_reshuffle_drain_ends_in_the_reshuffle_refusal():
    """Node 0 dies at t = 0.085, in the hybrid reshuffle's drain (its cuts
    at 0.080, its end at 0.102 without the crash).  The detector declares
    it, and the refusal names the reshuffle phase; it used to name build."""
    plan = membership_plan(crashes=(CrashSpec(node=0, at_time=0.085),))
    with pytest.raises(UnrecoverableFaultError,
                       match="dead during the reshuffle phase"):
        run_with(Algorithm.HYBRID, plan)


@pytest.mark.chaos
@pytest.mark.parametrize("crash, silent", [
    (CrashSpec(node=0, at_phase="reshuffle"), "CountVector"),
    (CrashSpec(node=1, at_time=0.0787), "ReshuffleDone"),
])
def test_a_member_silent_in_the_reshuffle_ends_in_the_reshuffle_refusal(crash, silent):
    """A member dead before it answers the reshuffle's count request, or
    its redistribution order, leaves a wait the paused detector never
    ends: the wait's deadline does, naming the phase.  It used to hang;
    a 20 s wall-clock alarm makes a hang fail."""

    def overrun(*_):
        raise AssertionError("the run was still going after 20 s")

    previous = signal.signal(signal.SIGALRM, overrun)
    signal.setitimer(signal.ITIMER_REAL, 20)
    try:
        with pytest.raises(UnrecoverableFaultError,
                           match=f"sent no {silent} during the reshuffle phase"):
            run_with(Algorithm.HYBRID, membership_plan(crashes=(crash,)))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.chaos
@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "a working-node crash in the out-of-core phase hangs: the scheduler "
    "waits for the dead node's PassDone with no deadline, and the detector "
    "grades only build and probe (docs/FAULTS.md)"))
@pytest.mark.parametrize("algorithm", [
    Algorithm.OUT_OF_CORE, Algorithm.HYBRID, Algorithm.SPLIT])
def test_a_working_node_crash_in_the_out_of_core_phase_ends(algorithm):
    """Node 0 dies as the out-of-core pass starts.  The run must end, in
    an answer or a typed error, long before 5 simulated seconds: crash-free
    it takes 1.61 (ooc), 0.14 (hybrid) and 1.62 s (split).  Run to a
    horizon rather than to the end, so the hang fails in bounded time."""
    cfg = small_config(
        algorithm, workload=small_workload(sigma=1e-5),
        cluster=small_cluster(pool=16),
        faults=membership_plan(crashes=(CrashSpec(node=0, at_phase="ooc"),)))
    ctx = single_query_context(cfg)
    scheduler = driver.spawn_scheduler(ctx)
    driver._spawn_all_joins(ctx, scheduler)
    driver.spawn_sources(ctx, scheduler)
    try:
        ctx.sim.run(until=5.0)
    except UnrecoverableFaultError:
        return
    assert not scheduler.proc.is_alive, "the scheduler is still waiting at t = 5 s"


# ---------------------------------------------------------------------------
# working-node crash -> heartbeat detection -> range re-stream
# ---------------------------------------------------------------------------


@pytest.mark.chaos
@pytest.mark.parametrize("algorithm, policy", [
    *(pytest.param(a, SplitPolicy.TARGETED_BISECT, id=str(a)) for a in ALGOS),
    pytest.param(Algorithm.SPLIT, SplitPolicy.LINEAR_MOD,
                 id="Algorithm.SPLIT-linear_mod"),
])
def test_working_node_crash_during_build_recovers(algorithm, policy):
    """Join node 0 (an *initial* node, activated from the start) crashes
    while the build stream is live; the detector declares it, the range
    collapses onto a recruit and the sources replay from their cursors.
    Under Litwin addressing the takeover rewrites the bucket map, and the
    splits that follow run off the rewritten table."""
    plan = membership_plan(crashes=(CrashSpec(node=0, at_phase="build"),))
    res = run_with(algorithm, plan, split_policy=policy)
    assert res.matches == res.reference_matches == 89
    assert counter_total(res, "membership.deaths_declared") >= 1
    assert counter_total(res, "sched.recovery_cycles") >= 1
    assert counter_total(res, "sched.failover_count") == 0


@pytest.mark.chaos
@pytest.mark.parametrize("algorithm", ALGOS)
def test_working_node_crash_during_probe_recovers(algorithm):
    """Probe-phase crash: the stored build range is gone mid-probe, so
    recovery must rebuild it *and* re-cover the probe tuples the dead
    node absorbed.  Split needs pool headroom (it expands to 24 nodes on
    this workload); the replicate-chain case drives the target past its
    memory budget, exercising the spill degradation mid-replay."""
    pool = 32 if algorithm is Algorithm.SPLIT else 16
    plan = membership_plan(crashes=(CrashSpec(node=0, at_phase="probe"),))
    res = run_with(algorithm, plan, pool=pool)
    assert res.matches == res.reference_matches == 89
    assert counter_total(res, "sched.recovery_cycles") >= 1
    assert counter_total(res, "sched.failover_count") == 0


@pytest.mark.chaos
def test_crash_mid_parked_retry_returns_every_receive_credit(run_contexts):
    """A working node dies while a bisect order's retry of its parked
    backlog holds a chunk *popped* from the backlog (charging the CPU to
    repack what it shed): that chunk is in neither backlog nor the message
    in dispatch, and its receive credit used to leak — the corpse's window
    stayed one short for the rest of the run.  The tombstone now returns
    what the node owes by its own counters (received − processed)."""
    def cfg(*crashes):
        return small_config(
            Algorithm.SPLIT, trace=True,
            workload=small_workload(sigma=1e-5),
            cluster=small_cluster(pool=32),
            faults=membership_plan(crashes=crashes),
        )

    pilot = run_join(cfg())
    bisect = next(r for r in pilot.tracer.select("bisect")
                  if r.actor == "join0" and r.detail["moved"])
    res = run_join(cfg(CrashSpec(node=0, at_time=bisect.time + 1e-5)))
    assert res.matches == res.reference_matches == 89
    # The crash landed right after the order executed: 10 us into the 16 us
    # of CPU the retry charges to repack the first parked chunk it shed.
    assert [r.time for r in res.tracer.select("bisect")
            if r.actor == "join0"] == [bisect.time]
    window = run_contexts[-1].join_node(0).recv_credits
    assert window.in_use == 0, f"{window.in_use} of {window.capacity} leaked"


@pytest.mark.chaos
def test_probe_crash_with_exhausted_pool_is_unrecoverable():
    """No spare node to adopt the dead node's range -> documented abort,
    not a hang or a wrong answer (split uses the whole default pool)."""
    plan = membership_plan(crashes=(CrashSpec(node=0, at_phase="probe"),))
    with pytest.raises(Exception, match="pool exhausted"):
        run_with(Algorithm.SPLIT, plan)


# ---------------------------------------------------------------------------
# false positives: suspicion without death
# ---------------------------------------------------------------------------


@pytest.mark.chaos
def test_slow_link_false_suspicion_never_aborts_the_query():
    """A drastically slowed ack link makes join node 0 (global id 3)
    look dead past the suspect timeout.  With the confirm timeout still
    generous the late acks must clear every suspicion: no death verdict,
    no failover, exact counts — the false positive is observable only as
    a metric."""
    plan = FaultPlan(
        membership=True,
        heartbeat_interval_s=0.01,
        suspect_timeout_s=0.03,
        confirm_timeout_s=30.0,
        slowdowns=(
            LinkSlowdown(t0=0.02, t1=0.2, factor=50_000.0, src=3, dst=0),
        ),
    )
    res = run_with(Algorithm.HYBRID, plan)
    assert res.matches == res.reference_matches == 89
    assert counter_total(res, "membership.suspected") >= 1
    assert counter_total(res, "membership.false_positive") >= 1
    assert counter_total(res, "membership.deaths_declared") == 0
    assert counter_total(res, "sched.failover_count") == 0


@pytest.mark.chaos
def test_membership_under_chaos_links_stays_exact():
    """Detector armed on a lossy fabric with no crash at all: dropped
    heartbeats must not translate into deaths under default timeouts."""
    plan = FaultPlan(
        membership=True, heartbeat_interval_s=0.01,
        drop_prob=0.02, ack_drop_prob=0.02, seed=11,
    )
    res = run_with(Algorithm.HYBRID, plan)
    assert res.matches == res.reference_matches == 89
    assert counter_total(res, "membership.deaths_declared") == 0
    assert counter_total(res, "sched.failover_count") == 0
    # the dedup-window gauge (satellite: bounded _seen_seqs) is exported
    assert any(
        inst["name"] == "node.dedup_window" and inst["type"] == "gauge"
        for inst in res.metrics
    )


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


def cli_small(extra):
    return extra + [
        "--r-tuples", "0.004", "--s-tuples", "0.004",
        "--scale", "1.0", "--chunk-tuples", "200",
        "--pool", "8", "--sources", "2", "--node-memory-mb", "0.04",
    ]


@pytest.mark.chaos
def test_cli_run_with_scheduler_kill(capsys):
    rc = main(cli_small([
        "run", "--algorithm", "hybrid", "--initial-nodes", "2",
        "--kill-scheduler-at", "0.03", "--heartbeat-interval", "0.01",
    ]))
    out = capsys.readouterr().out
    assert rc == 0
    assert "hybrid" in out


@pytest.mark.chaos
def test_cli_unrecoverable_fault_is_one_line_and_exit_3(capsys):
    """A working node dies with no spare in the pool of 8: the typed,
    explained error reaches the terminal as its message, not a traceback."""
    with pytest.raises(SystemExit) as exit_:
        main(cli_small([
            "run", "--algorithm", "hybrid", "--initial-nodes", "2",
            "--membership", "--crash-node", "1@0.02",
        ]))
    err = capsys.readouterr().err
    assert exit_.value.code == 3
    assert err.startswith("repro: unrecoverable fault: pool exhausted")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_cli_workload_rejects_membership_flags(capsys):
    rc = main(["workload", "--queries", "1", "--membership"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "single-query only" in err


def test_cli_workload_rejects_kill_scheduler(capsys):
    rc = main(["workload", "--queries", "1", "--kill-scheduler-at", "1.0"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "single-query only" in err


def test_cli_arrival_times_tolerates_trailing_comma(capsys):
    rc = main([
        "workload", "--queries", "2", "--mix", "hybrid:1:0.004:0.004:2",
        "--pool", "8", "--sources", "2", "--node-memory-mb", "0.04",
        "--scale", "1.0", "--arrival-times", " 0.0, 0.5, ",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "queries" in out


def test_cli_arrival_times_bad_segment_is_a_friendly_error(capsys):
    rc = main([
        "workload", "--queries", "1", "--arrival-times", "1.0,abc,2.0",
    ])
    err = capsys.readouterr().err
    assert rc == 2
    assert "--arrival-times" in err
    assert "'abc'" in err
