"""The order of events due at one instant is not part of the answer.

The kernel runs the events due now in the order they were scheduled, but
nothing in the paper's system orders two things that happen at the same
simulated time.  :class:`~tests.conftest.ShuffledDue` runs them in a
seeded-random order instead.  A fault-free join must give the same
answer and pass the same conservation checks in every order; under a
fault plan every run must still end in a valid answer or an
:class:`~repro.faults.UnrecoverableFaultError`, never a hang, a
working-node crash included.  Lockdep is armed throughout, so a wait
cycle an order exposes fails too.

The simulated time is *not* order-free, fault-free runs included: which
of two ties runs first can decide which node fills first, and the split
cascade and the drain polls follow.  The last test pins one such run.
"""

import signal
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import DRAIN_POLL_S, Algorithm
from repro.core import driver, run_join
from repro.faults import CrashSpec, FaultPlan, UnrecoverableFaultError
from tests.conftest import ShuffledDue, small_cluster, small_config, small_workload

#: wall-clock seconds one small run may take before it counts as a hang
DEADLINE_S = 20


class Hung(Exception):
    pass


@contextmanager
def shuffled(order_seed):
    """Runs made inside use a :class:`ShuffledDue` simulator and must end
    within :data:`DEADLINE_S` wall-clock seconds."""

    def overrun(*_):
        raise Hung(f"run still going after {DEADLINE_S} s")

    previous = signal.signal(signal.SIGALRM, overrun)
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    try:
        with mock.patch.object(driver, "Simulator",
                               lambda: ShuffledDue(order_seed)):
            yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def config(algorithm, initial, sigma, chunk, **kw):
    return small_config(
        algorithm, initial,
        workload=small_workload(r=3000, s=3000, sigma=sigma, chunk=chunk),
        cluster=small_cluster(pool=16),
        lockdep=True,
        **kw,
    )


CELLS = dict(
    algorithm=st.sampled_from(list(Algorithm)),
    initial=st.sampled_from([1, 2, 4]),
    sigma=st.sampled_from([None, 1e-3, 1e-5]),
    chunk=st.sampled_from([100, 200, 500]),
    order_seed=st.integers(0, 2**32 - 1),
)


@given(**CELLS)
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_a_fault_free_answer_is_the_same_in_every_same_instant_order(
        algorithm, initial, sigma, chunk, order_seed):
    cfg = config(algorithm, initial, sigma, chunk)
    fifo = run_join(cfg)
    with shuffled(order_seed):
        res = run_join(cfg)  # validate=True: oracle and conservation checks
    assert res.matches == fifo.matches == res.reference_matches


def fault_plan(kind, algorithm, seed):
    if kind == "lossy":
        return FaultPlan(drop_prob=0.05, ack_drop_prob=0.02, seed=seed)
    membership = dict(membership=True, heartbeat_interval_s=0.01, seed=seed)
    if kind == "failover":
        kill_at = 0.1 if algorithm is Algorithm.SPLIT else 0.03
        return FaultPlan(kill_scheduler_at=kill_at, **membership)
    return FaultPlan(crashes=(CrashSpec(node=1, at_time=0.02),), **membership)


def run_faulted(algorithm, initial, sigma, chunk, order_seed, kind, plan_seed):
    cfg = config(algorithm, initial, sigma, chunk,
                 faults=fault_plan(kind, algorithm, plan_seed))
    with shuffled(order_seed):
        try:
            res = run_join(cfg)
        except UnrecoverableFaultError:
            return
    assert res.is_valid and res.reference_matches is not None


@given(**CELLS, kind=st.sampled_from(["lossy", "failover"]),
       plan_seed=st.integers(0, 2**16))
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_a_faulted_run_ends_valid_or_typed_in_every_same_instant_order(
        algorithm, initial, sigma, chunk, order_seed, kind, plan_seed):
    run_faulted(algorithm, initial, sigma, chunk, order_seed, kind, plan_seed)


@given(**CELLS, plan_seed=st.integers(0, 2**16))
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_a_crashed_run_ends_valid_or_typed_in_every_same_instant_order(
        algorithm, initial, sigma, chunk, order_seed, plan_seed):
    """The same law under a working-node crash at 0.02 s."""
    run_faulted(algorithm, initial, sigma, chunk, order_seed, "crash",
                plan_seed)


def test_a_crash_mid_split_keeps_every_build_tuple():
    """Node 1 of a 2-node split dies at 0.02 s, after bisecting twice (to
    nodes 2 and 4) and while it may still owe node 4 tuples along its shed
    chain.  The recovery target takes over the range node 1 started the
    build with, its heirs 2, 4 and 5 purged, and the sources re-stream
    all of it: every build tuple is stored once (``run_join`` checks)."""
    cfg = config(Algorithm.SPLIT, 2, None, 100,
                 faults=fault_plan("crash", Algorithm.SPLIT, 0))
    res = run_join(cfg)
    assert res.is_valid
    recovered = [r.detail for r in res.tracer.records
                 if r.category == "recovery_done"]
    assert recovered == [{"dead": 1, "target": 8, "purged": [2, 4, 5]}]


def test_same_instant_order_moves_the_simulated_time():
    """Both nodes of a 2-node split fill at nearly the same time; in this
    order the other one reports full first, the bisect cascade runs the
    other way round, the sources finish 0.7 ms sooner and the probe's
    drain check passes one poll (DRAIN_POLL_S) earlier.  Same answer,
    different ``total_s``."""
    cfg = config(Algorithm.SPLIT, 2, None, 100)
    fifo = run_join(cfg)
    with shuffled(0):
        res = run_join(cfg)
    assert res.matches == fifo.matches == res.reference_matches
    assert res.total_s == pytest.approx(fifo.total_s - DRAIN_POLL_S)
