"""Fault-injection & recovery tests (``repro.faults``).

The headline invariant, asserted per algorithm: a run under an adversarial
fault plan (message drops on every link, lost acks, a node crash) produces
**exactly** the same join-match count as the fault-free run — recovery is
exact, not best-effort.  ``run_join(validate=True)`` additionally checks the
count against the sequential oracle and byte conservation on every run
here.

Slow whole-system chaos runs carry ``@pytest.mark.chaos`` so CI can run
them as a dedicated job; plan validation / JSON / unit tests stay in the
default sweep.
"""

import json

import numpy as np
import pytest

from tests.conftest import small_cluster, small_config, small_workload
from repro.config import Algorithm
from repro.core import run_join
from repro.core.driver import single_query_context
from repro.core.joinnode import JoinProcess
from repro.core.messages import DataChunk, Hop
from repro.faults import (
    CrashSpec,
    FaultInjector,
    FaultPlan,
    FaultPlanError,
    LinkSlowdown,
    UnrecoverableFaultError,
    crash_specs_from_cli,
)
from repro.sim import Simulator

ALGOS = list(Algorithm)


def counter_total(res, name, **labels):
    """Sum a counter family over all label sets matching ``labels``."""
    return sum(
        inst["value"] for inst in res.metrics
        if inst["name"] == name and inst["type"] == "counter"
        and all(inst["labels"].get(k) == v for k, v in labels.items())
    )


# ----------------------------------------------------------------------
# plan validation & serialization
# ----------------------------------------------------------------------
def test_plan_rejects_bad_probabilities():
    with pytest.raises(FaultPlanError):
        FaultPlan(drop_prob=1.0)
    with pytest.raises(FaultPlanError):
        FaultPlan(ack_drop_prob=-0.1)


def test_crash_spec_needs_exactly_one_trigger():
    with pytest.raises(FaultPlanError):
        CrashSpec(node=1)
    with pytest.raises(FaultPlanError):
        CrashSpec(node=1, at_time=1.0, at_phase="build")
    with pytest.raises(FaultPlanError):
        CrashSpec(node=1, at_phase="warmup")
    with pytest.raises(FaultPlanError):
        CrashSpec(node=-1, at_time=0.0)


def test_slowdown_validation():
    with pytest.raises(FaultPlanError):
        LinkSlowdown(t0=0.0, t1=1.0, factor=0.5)
    with pytest.raises(FaultPlanError):
        LinkSlowdown(t0=2.0, t1=1.0, factor=2.0)
    s = LinkSlowdown(t0=0.0, t1=1.0, factor=2.0, src=3)
    assert s.matches(3, 9, 0.5)
    assert not s.matches(4, 9, 0.5)
    assert not s.matches(3, 9, 1.0)  # window is half-open


def test_plan_json_roundtrip():
    plan = FaultPlan(
        seed=42,
        drop_prob=0.05,
        ack_drop_prob=0.01,
        crashes=(CrashSpec(node=3, at_phase="build"),
                 CrashSpec(node=4, at_time=1.5)),
        slowdowns=(LinkSlowdown(t0=0.0, t1=2.0, factor=3.0, dst=7),),
        kill_scheduler_at=0.5,
    )
    assert FaultPlan.from_json(plan.to_json()) == plan


def test_plan_rejects_unknown_keys_and_bad_json():
    with pytest.raises(FaultPlanError):
        FaultPlan.from_dict({"seed": 1, "drop_probability": 0.1})
    # the derived transport and recruit timers are not plan settings
    for key in ("rto_s", "rto_backoff", "rto_max_s", "max_attempts",
                "recruit_timeout_s", "recruit_backoff_max_s"):
        with pytest.raises(FaultPlanError, match="unknown fault-plan keys"):
            FaultPlan.from_dict({key: 1})
    with pytest.raises(FaultPlanError):
        FaultPlan.from_json("{not json")
    with pytest.raises(FaultPlanError):
        FaultPlan.from_json("[1, 2]")


@pytest.mark.parametrize("doc", [
    {"drop_prob": "0.1"}, {"seed": 1.5}, {"seed": True}, {"seed": None},
    {"membership": 1}, {"kill_scheduler_at": "soon"},
], ids=lambda doc: next(iter(doc)))
def test_plan_rejects_wrongly_typed_scalars(doc):
    """Each used to reach ``__post_init__`` (a bare ``TypeError``) or, for
    the fractional seed, ``numpy.random.SeedSequence`` at run start."""
    (key,) = doc
    with pytest.raises(FaultPlanError, match=f"'{key}' must be"):
        FaultPlan.from_dict(doc)


def test_plan_accepts_ints_for_floats_and_null_for_optionals():
    plan = FaultPlan.from_dict(
        {"drop_prob": 0, "kill_scheduler_at": 1, "heartbeat_interval_s": None})
    assert plan == FaultPlan(drop_prob=0, kill_scheduler_at=1)


def test_inactive_plan_is_detected():
    assert not FaultPlan().active
    assert FaultPlan(drop_prob=0.1).active
    assert FaultPlan(crashes=(CrashSpec(node=1, at_time=0.0),)).active
    assert not FaultPlan(crashes=(CrashSpec(node=1, at_time=0.0),)).any_link_faults


def test_crash_specs_from_cli():
    specs = crash_specs_from_cli(["3", "4@1.5", "5@phase:probe"])
    assert specs == (
        CrashSpec(node=3, at_time=0.0),
        CrashSpec(node=4, at_time=1.5),
        CrashSpec(node=5, at_phase="probe"),
    )
    with pytest.raises(FaultPlanError):
        crash_specs_from_cli(["x"])
    with pytest.raises(FaultPlanError):
        crash_specs_from_cli(["3@soon"])


def test_attach_rejects_out_of_pool_crash_target(config_factory):
    cfg = config_factory(faults=FaultPlan(
        crashes=(CrashSpec(node=99, at_time=0.0),)
    ))
    with pytest.raises(FaultPlanError):
        run_join(cfg)


# ----------------------------------------------------------------------
# unit: receiver-side duplicate suppression
# ----------------------------------------------------------------------
def test_joinnode_suppresses_duplicate_chunks():
    cfg = small_config()
    ctx = single_query_context(cfg)
    jp = JoinProcess(ctx, 0)
    node = ctx.join_node(0)

    def chunk(seq, origin=1):
        return DataChunk(relation="R", values=np.arange(8, dtype=np.uint64),
                         tuple_bytes=100, hop=Hop.PRIMARY, origin=origin,
                         transfer_seq=seq)

    # The network holds one receive credit per delivered data chunk; take
    # one so the duplicate's give-back has something to return.
    ctx.sim.spawn(node.recv_credits.take())
    ctx.sim.run()
    assert node.recv_credits.in_use == 1
    assert not jp._suppress_duplicate(chunk(5))      # first sighting
    assert jp._suppress_duplicate(chunk(5))          # re-delivery
    # The duplicate is counted received AND processed (drain stays balanced)
    assert jp.received_build == jp.processed_build == 1
    assert not jp._suppress_duplicate(chunk(5, origin=2))  # other sender
    assert not jp._suppress_duplicate(chunk(6))      # next sequence
    assert not jp._suppress_duplicate(chunk(-1))     # unstamped: never dedup
    assert ctx.metrics.snapshot()
    assert sum(
        inst["value"] for inst in ctx.metrics.snapshot()
        if inst["name"] == "faults_duplicates_suppressed"
    ) == 1


# ----------------------------------------------------------------------
# unit: injector determinism & RNG frugality
# ----------------------------------------------------------------------
def test_injector_draws_no_rng_when_probability_zero():
    cfg = small_config()
    ctx = single_query_context(cfg)
    inj = FaultInjector(FaultPlan(crashes=(CrashSpec(node=1, at_time=0.0),)),
                        ctx.sim, ctx.metrics, ctx.cost)
    state_before = inj._rng.bit_generator.state["state"]
    assert not inj.roll_drop(1, 2)
    assert not inj.roll_ack_drop(1, 2)
    assert inj._rng.bit_generator.state["state"] == state_before


def test_injector_loopback_never_drops():
    cfg = small_config()
    ctx = single_query_context(cfg)
    inj = FaultInjector(FaultPlan(drop_prob=0.999), ctx.sim, ctx.metrics,
                        ctx.cost)
    assert not any(inj.roll_drop(4, 4) for _ in range(50))


def test_rto_backoff_is_exponential_and_capped():
    cfg = small_config()
    ctx = single_query_context(cfg)
    inj = FaultInjector(FaultPlan(drop_prob=0.1), ctx.sim, ctx.metrics,
                        ctx.cost)
    base = 4.0 * (ctx.cost.net_latency + ctx.cost.wire_time(64 * 1024))
    assert [inj.rto(k) for k in range(1, 9)] == [
        base, 2 * base, 4 * base, 8 * base, 16 * base, 32 * base,
        32 * base, 32 * base,
    ]


# ----------------------------------------------------------------------
# whole-system chaos: exact answers under adversity
# ----------------------------------------------------------------------
def chaos_plan(crash_node=15):
    """≥1% drop on every link + lost acks + one pool-node crash."""
    return FaultPlan(
        seed=1234,
        drop_prob=0.02,
        ack_drop_prob=0.02,
        crashes=(CrashSpec(node=crash_node, at_phase="build"),),
    )


@pytest.mark.chaos
@pytest.mark.parametrize("algorithm", ALGOS)
def test_chaos_preserves_exact_match_count(algorithm):
    # Skewed keys so the join has real matches to get wrong.
    wl = small_workload(sigma=1e-5)
    base = run_join(small_config(algorithm, initial=2, workload=wl))
    res = run_join(small_config(algorithm, initial=2, workload=wl,
                                faults=chaos_plan(crash_node=15)))
    # validate=True already checked res.matches against the oracle; the
    # acceptance criterion is equality with the fault-free run.
    assert res.matches == base.matches == res.reference_matches
    assert base.matches > 0
    assert counter_total(res, "faults_injected") > 0
    assert counter_total(res, "faults_injected", kind="message_drop") > 0
    assert counter_total(res, "retries_total") > 0
    assert counter_total(res, "faults_crashes") == 1
    assert counter_total(res, "net.dropped_bytes") > 0
    # The fault-free run must carry no fault accounting at all.
    assert counter_total(base, "faults_injected") == 0
    assert counter_total(base, "net.dropped_bytes") == 0


@pytest.mark.chaos
@pytest.mark.parametrize("algorithm", ALGOS)
def test_crash_of_unused_dormant_node_is_invisible(algorithm):
    """A pure crash plan (no link faults) that kills a node the run never
    recruits must not perturb the result or the timing at all — no RNG is
    drawn and the fast network path stays engaged."""
    base = run_join(small_config(algorithm, initial=12))
    plan = FaultPlan(crashes=(CrashSpec(node=14, at_time=0.0),))
    res = run_join(small_config(algorithm, initial=12, faults=plan))
    assert res.matches == base.matches
    assert res.times == base.times
    assert counter_total(res, "faults_crashes") == 1
    assert counter_total(res, "retries_total") == 0


@pytest.mark.chaos
def test_crash_of_active_node_is_unrecoverable():
    """Crashing a node that holds join state exceeds the documented
    recovery envelope (fail-stop of dormant nodes only)."""
    plan = FaultPlan(crashes=(CrashSpec(node=0, at_phase="probe"),))
    with pytest.raises(UnrecoverableFaultError):
        run_join(small_config(Algorithm.HYBRID, initial=2, faults=plan))


@pytest.mark.chaos
def test_recruit_failure_degrades_to_spill(run_contexts):
    """Kill the whole potential pool: every recruitment times out, the
    scheduler retries different candidates, and on pool exhaustion the
    overflowing node degrades to the out-of-core spill path — still
    producing the exact join answer, with the corpses' receive windows
    fully returned."""
    plan = FaultPlan(crashes=tuple(
        CrashSpec(node=n, at_time=0.0) for n in (2, 3)
    ))
    wl = small_workload(sigma=1e-5)
    cfg = small_config(Algorithm.SPLIT, initial=2, workload=wl,
                       cluster=small_cluster(pool=4), faults=plan)
    base = run_join(small_config(Algorithm.SPLIT, initial=2, workload=wl,
                                 cluster=small_cluster(pool=4)))
    res = run_join(cfg)
    assert res.matches == base.matches == res.reference_matches
    assert res.spilled_r_tuples > 0
    assert counter_total(res, "faults_recruit_failures") == 2
    assert counter_total(res, "retries_total", kind="recruit") == 2
    assert counter_total(res, "faults_crashes") == 2
    assert res.nodes_used == 2  # nobody joined the party
    assert [run_contexts[-1].join_node(n).recv_credits.in_use
            for n in (2, 3)] == [0, 0]


@pytest.mark.chaos
def test_link_slowdown_slows_the_run():
    plan = FaultPlan(slowdowns=(
        LinkSlowdown(t0=0.0, t1=float("1e12"), factor=4.0),
    ))
    base = run_join(small_config(Algorithm.REPLICATE, initial=2))
    res = run_join(small_config(Algorithm.REPLICATE, initial=2, faults=plan))
    assert res.matches == base.matches
    assert res.times.total_s > base.times.total_s


@pytest.mark.chaos
def test_chaos_runs_are_deterministic():
    cfg1 = small_config(Algorithm.HYBRID, initial=2, faults=chaos_plan())
    cfg2 = small_config(Algorithm.HYBRID, initial=2, faults=chaos_plan())
    r1, r2 = run_join(cfg1), run_join(cfg2)
    assert r1.matches == r2.matches
    assert r1.times == r2.times
    assert (counter_total(r1, "faults_injected")
            == counter_total(r2, "faults_injected"))
    assert (counter_total(r1, "retries_total")
            == counter_total(r2, "retries_total"))


@pytest.mark.chaos
def test_lost_acks_force_suppressed_duplicates():
    """With only ack loss (payloads always arrive), every retransmission
    is a duplicate the network suppresses — delivered exactly once."""
    plan = FaultPlan(seed=5, ack_drop_prob=0.05)
    base = run_join(small_config(Algorithm.REPLICATE, initial=2))
    res = run_join(small_config(Algorithm.REPLICATE, initial=2, faults=plan))
    assert res.matches == base.matches
    assert counter_total(res, "faults_injected", kind="ack_drop") > 0
    assert counter_total(res, "net.duplicate_messages") > 0
    assert counter_total(res, "net.dropped_bytes") == 0


# ----------------------------------------------------------------------
# concurrent-workload chaos (repro.workload on the shared pool)
# ----------------------------------------------------------------------
@pytest.mark.chaos
def test_workload_chaos_every_query_stays_exact():
    """Concurrent queries under link drops plus a dormant-node crash: the
    pool shrinks, recovery retransmits, and *every* query still matches
    its own sequential oracle — and the fault-free run's answer."""
    from repro.config import (
        ClusterSpec,
        Distribution,
        MTUPLES,
        QueryMixEntry,
        WorkloadConfig,
    )
    from repro.workload import run_workload

    def wl_cfg(faults=None):
        return WorkloadConfig(
            n_queries=4,
            arrival_times=(0.0, 0.05, 0.1, 0.15),
            seed=7,
            # Skewed keys so each join has real matches to get wrong.
            mix=(QueryMixEntry(
                r_tuples=MTUPLES, s_tuples=MTUPLES, initial_nodes=2,
                distribution=Distribution.GAUSSIAN, gauss_sigma=1e-5,
            ),),
            cluster=ClusterSpec(n_sources=2, n_potential_nodes=8,
                                hash_memory_bytes=50 * 1024 * 1024),
            scale=1.0 / 50.0,
            faults=faults,
        )

    base = run_workload(wl_cfg())
    assert base.all_valid
    assert any(q.matches > 0 for q in base.queries)

    plan = FaultPlan(
        seed=11,
        drop_prob=0.02,
        # Node 7 is still dormant at t=0.01: admissions grant
        # best-memory-first from a uniform 8-node pool, and only q0's two
        # nodes are out by then.
        crashes=(CrashSpec(node=7, at_time=0.01),),
    )
    res = run_workload(wl_cfg(faults=plan))
    assert res.all_valid, "every query must still match its oracle"
    assert res.pool["crashed_nodes"] == [7]
    assert [q.matches for q in res.queries] == [
        q.matches for q in base.queries
    ], "recovery must be exact, not best-effort"
    assert counter_total(res, "faults_injected", kind="message_drop") > 0
    # workload crashes execute at the pool, not the per-query injector
    assert counter_total(res, "pool.node_crashes") == 1
    assert counter_total(res, "retries_total") > 0
    assert counter_total(res, "net.dropped_bytes") > 0
    # the fault-free workload carries no fault accounting
    assert counter_total(base, "faults_injected") == 0


# ----------------------------------------------------------------------
# conservation accounting
# ----------------------------------------------------------------------
def test_assert_conserved_balances_drops_and_duplicates():
    from repro.cluster.network import Network
    from repro.config import CostModel

    net = Network(Simulator(), CostModel())
    key = (0, 1, "data")
    net.sent_bytes[key] = 300
    net.delivered_bytes[key] = 100
    net.dropped_bytes[key] = 100
    net.duplicate_bytes[key] = 100
    net.assert_conserved()  # balanced: sent == delivered + dropped + dups
    net.dropped_bytes[key] = 50
    with pytest.raises(AssertionError, match="conservation"):
        net.assert_conserved()


# ----------------------------------------------------------------------
# the transport's typed end: a message out of attempts
# ----------------------------------------------------------------------
def test_send_exhausting_attempts_raises_with_bytes_conserved():
    from repro.cluster import Network, Node
    from repro.config import CostModel
    from repro.core.messages import CONTROL_BYTES, StartProbe
    from repro.faults import MAX_ATTEMPTS
    from repro.obs import MetricsRegistry

    sim, cost = Simulator(), CostModel()
    inj = FaultInjector(FaultPlan(drop_prob=0.999), sim,
                        MetricsRegistry(clock=lambda: sim.now), cost)
    net = Network(sim, cost, faults=inj)
    a, b = Node(sim, 0, "src", cost), Node(sim, 1, "join", cost)

    def sender():
        yield from net.send(a, b, StartProbe(router=None))

    sim.spawn(sender())
    with pytest.raises(UnrecoverableFaultError,
                       match=f"exhausted {MAX_ATTEMPTS} transmission"):
        sim.run()
    key = (0, 1, "control")
    assert MAX_ATTEMPTS == 50
    assert net.sent_bytes[key] == net.dropped_bytes[key] \
        == MAX_ATTEMPTS * CONTROL_BYTES == 3200
    assert net.retransmissions == MAX_ATTEMPTS - 1
    assert net.delivered_bytes[key] == 0 and len(b.mailbox) == 0
    net.assert_conserved()  # nothing left in flight


def test_drop_only_plan_beyond_the_envelope_is_a_typed_error():
    """A lossy-enough link ends the run in the typed error, not a hang."""
    cfg = small_config(faults=FaultPlan(seed=1, drop_prob=0.99))
    with pytest.raises(UnrecoverableFaultError):
        run_join(cfg)


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------
def cli_args(extra):
    return extra + [
        "--r-tuples", "0.004", "--s-tuples", "0.004",
        "--scale", "1.0", "--chunk-tuples", "200",
        "--pool", "8", "--sources", "2", "--node-memory-mb", "0.04",
    ]


@pytest.mark.chaos
def test_cli_run_with_fault_flags(capsys):
    from repro.cli import main

    rc = main(cli_args(["run", "--algorithm", "hybrid",
                        "--initial-nodes", "2",
                        "--drop-prob", "0.02", "--crash-node", "7"]))
    assert rc == 0
    assert "phases" in capsys.readouterr().out


@pytest.mark.chaos
def test_cli_metrics_reports_fault_counters(capsys):
    from repro.cli import main

    rc = main(cli_args(["metrics", "--algorithm", "split",
                        "--initial-nodes", "2", "--drop-prob", "0.02"]))
    out = capsys.readouterr().out
    assert rc == 0
    assert "faults_injected" in out
    assert "retries_total" in out


def test_cli_fault_plan_file(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "plan.json"
    path.write_text(FaultPlan(seed=3, drop_prob=0.01).to_json())
    rc = main(cli_args(["run", "--algorithm", "replicate",
                        "--initial-nodes", "2", "--fault-plan", str(path)]))
    assert rc == 0


def test_cli_rejects_malformed_fault_plan(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"drop_probability": 0.5}))
    with pytest.raises(SystemExit):
        main(cli_args(["run", "--fault-plan", str(path)]))
    assert "unknown fault-plan keys" in capsys.readouterr().err


@pytest.mark.parametrize("doc,needle", [
    ({"drop_prob": "0.1"}, "'drop_prob' must be float"),
    ({"seed": None}, "'seed' must be int"),
    ({"seed": 1.5}, "'seed' must be int"),
    (None, "cannot read fault plan"),
], ids=["str-for-float", "null-for-int", "float-seed", "no-such-file"])
def test_cli_bad_fault_plan_is_a_one_line_error(doc, needle, tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "plan.json"
    if doc is not None:
        path.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exit_:
        main(cli_args(["run", "--fault-plan", str(path)]))
    err = capsys.readouterr().err
    assert exit_.value.code == 2
    assert needle in err and "Traceback" not in err


def test_cli_rejects_bad_crash_spec(capsys):
    from repro.cli import main

    with pytest.raises(SystemExit):
        main(cli_args(["run", "--crash-node", "2@whenever"]))
    assert "crash-node" in capsys.readouterr().err
