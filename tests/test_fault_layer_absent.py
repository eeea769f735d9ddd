"""The paper's protocol runs with the fault-tolerance layer absent.

``repro.core.recovery`` (failure detector, standby, WAL replication,
node recovery, takeover; the join process's fencing, purge and
re-announcement; the data source's replay and re-announcement) is wrapped
*around* the paper's three actors, chosen by the driver only when the
fault plan arms it.  So the fault-free path must neither import it nor
miss it: with it made unimportable, all four algorithms still return the
oracle's answer.
"""

import os
import subprocess
import sys

import pytest

from tests.conftest import small_config, small_workload
from repro.config import Algorithm
from repro.core import driver, run_join
from repro.core.datasource import DataSourceProcess
from repro.core.joinnode import JoinProcess
from repro.core.messages import (
    HeartbeatPing,
    NodeLost,
    ReplayOrder,
    RouteUpdate,
    SchedulerFailover,
    Shutdown,
    StartProbe,
)
from repro.faults import FaultPlan

FAULT_LAYER = ("repro.core.recovery",)


@pytest.mark.parametrize("algorithm", list(Algorithm), ids=lambda a: a.value)
def test_fault_free_join_runs_without_the_fault_layer(algorithm, monkeypatch):
    for name in FAULT_LAYER:
        # None in sys.modules makes any ``import`` of the name raise.
        monkeypatch.setitem(sys.modules, name, None)
    with pytest.raises(ImportError):
        import repro.core.recovery  # noqa: F401  (the block is real)
    res = run_join(small_config(algorithm, workload=small_workload(sigma=1e-5)))
    assert res.matches == res.reference_matches == 89


def test_armed_plan_needs_the_layer(monkeypatch):
    """The other direction: a membership-active plan gets the full layer
    from the driver, so blocking it must fail loudly, not run unprotected."""
    for name in FAULT_LAYER:
        monkeypatch.setitem(sys.modules, name, None)
    cfg = small_config(Algorithm.HYBRID, faults=FaultPlan(membership=True))
    with pytest.raises(ImportError):
        run_join(cfg)
    with pytest.raises(ImportError):  # one chooser: no actor is built plain
        driver.actor_classes(driver.single_query_context(cfg))


@pytest.mark.parametrize("faults", [None, FaultPlan(drop_prob=0.02, seed=3)],
                         ids=["fault-free", "drop-only"])
def test_unarmed_runs_build_the_plain_join_process(faults, monkeypatch):
    """No membership layer, no layered join process: lossy links alone
    change the transport, not the actors.  The plain table has no row for
    the layer's three messages, and says so if one ever reaches it."""
    built = []
    spawn_join = driver.spawn_join

    def capture(ctx, j, name):
        made = spawn_join(ctx, j, name)
        built.append(made[0])
        return made

    monkeypatch.setattr(driver, "spawn_join", capture)
    cfg = small_config(faults=faults, workload=small_workload(sigma=1e-5))
    res = run_join(cfg)
    assert res.matches == res.reference_matches == 89
    layer_rows = (HeartbeatPing(token=1), NodeLost(dead=1),
                  SchedulerFailover(new_scheduler=3))
    assert len(built) == cfg.cluster.n_potential_nodes
    for jp in built:
        assert type(jp) is JoinProcess
        assert not {type(m) for m in layer_rows} & set(jp._handlers)
    for msg in layer_rows:
        with pytest.raises(RuntimeError, match=r"^join\d+: unexpected message"):
            built[0].dispatch(msg)


@pytest.fixture
def built_sources(monkeypatch):
    """The data sources of every ``run_join`` the test makes."""
    built = []
    spawn_sources = driver.spawn_sources

    def capture(ctx, scheduler):
        built.extend(spawn_sources(ctx, scheduler))

    monkeypatch.setattr(driver, "spawn_sources", capture)
    return built


@pytest.mark.parametrize("faults", [None, FaultPlan(drop_prob=0.02, seed=3)],
                         ids=["fault-free", "drop-only"])
def test_unarmed_runs_build_the_plain_data_source(faults, built_sources):
    """The third actor: exactly the paper's three rows, and a replay order
    or a failover notice reaching a plain source is an error, not a no-op."""
    cfg = small_config(faults=faults, workload=small_workload(sigma=1e-5))
    res = run_join(cfg)
    assert res.matches == res.reference_matches == 89
    assert len(built_sources) == cfg.cluster.n_sources
    for src in built_sources:
        assert type(src) is DataSourceProcess
        assert set(src._handlers) == {RouteUpdate, StartProbe, Shutdown}
    for msg in (ReplayOrder("R", target=1, recovery_id=1, router=None),
                SchedulerFailover(new_scheduler=3)):
        with pytest.raises(RuntimeError, match=r"^source \d+: unexpected message"):
            built_sources[0].dispatch(msg)


def test_armed_plan_builds_the_layered_data_source(built_sources):
    from repro.core.recovery import FaultTolerantDataSource

    cfg = small_config(faults=FaultPlan(membership=True),
                       workload=small_workload(sigma=1e-5))
    res = run_join(cfg)
    assert res.matches == res.reference_matches == 89
    assert [type(src) for src in built_sources] \
        == [FaultTolerantDataSource] * cfg.cluster.n_sources


def test_importing_the_scheduler_does_not_import_the_fault_layer():
    """Checked in a fresh interpreter: this process has long since imported
    the layer on behalf of other tests."""
    code = (
        "import sys, repro.core, repro.core.scheduler, repro.core.driver\n"
        "import repro.core.joinnode, repro.core.datasource\n"
        "import repro.workload.driver\n"
        f"loaded = [m for m in {FAULT_LAYER!r} if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=120)
