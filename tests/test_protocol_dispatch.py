"""Runtime mirror of the static protocol-exhaustiveness pass.

The static pass (``repro.checkers.protocol``) reasons about source text;
this suite re-derives the same invariant from the *imported* runtime
objects, so the two catch drift in each other: a message class added
without a handler fails both; a refactor that moves dispatch somewhere
the static pass cannot see fails only the static pass (prompting a
checker fix); a checker bug that stops seeing real handlers fails here.

The dispatch inventory is the union of the live handler tables — the
``_handlers`` dict of a constructed join process, scheduler, their
fault-tolerant layers, data source and resource pool — and the
``isinstance`` arms of the protocol waits, which are not table-driven.
"""

from __future__ import annotations

import ast
import dataclasses
import functools
import inspect
import textwrap

import numpy as np
import pytest

import repro.core.datasource
import repro.core.hybrid
import repro.core.joinnode
import repro.core.pool
import repro.core.recovery
import repro.core.replicate
import repro.core.scheduler
import repro.core.split
from repro.core import messages as messages_mod
from repro.core.driver import single_query_context
from repro.faults import FaultPlan
from repro.hashing import HashRange, RangeRouter
from repro.obs import MetricsRegistry
from tests.conftest import small_config

#: every module that may legitimately dispatch protocol messages
DISPATCH_MODULES = (
    repro.core.joinnode,
    repro.core.scheduler,
    repro.core.recovery,
    repro.core.datasource,
    repro.core.split,
    repro.core.replicate,
    repro.core.hybrid,
    repro.core.pool,
)


def handler_tables() -> dict[str, dict[type, object]]:
    """The ``{message type: handler}`` table of each table-driven actor,
    read off live instances."""
    ctx = single_query_context(small_config())
    ft_ctx = single_query_context(
        small_config(faults=FaultPlan(membership=True))
    )
    return {
        "JoinProcess": repro.core.joinnode.JoinProcess(ctx, 0)._handlers,
        "FaultTolerantJoinProcess":
            repro.core.recovery.FaultTolerantJoinProcess(ft_ctx, 0)._handlers,
        "SchedulerProcess":
            repro.core.scheduler.SchedulerProcess(ctx)._handlers,
        "FaultTolerantScheduler":
            repro.core.recovery.FaultTolerantScheduler(ft_ctx)._handlers,
        "DataSourceProcess": repro.core.datasource.DataSourceProcess(
            ctx, 0, repro.core.scheduler.SchedulerProcess(ctx).router,
        )._handlers,
        "FaultTolerantDataSource": repro.core.recovery.FaultTolerantDataSource(
            ft_ctx, 0, repro.core.scheduler.SchedulerProcess(ft_ctx).router,
        )._handlers,
        "ResourcePoolProcess": repro.core.pool.ResourcePoolProcess(
            ctx.sim, ctx.cluster.network, ctx.scheduler_node,
            free_nodes=[], sched_nodes={}, metrics=MetricsRegistry(),
        )._handlers,
    }


def concrete_message_classes() -> list[type]:
    out = []
    for name in dir(messages_mod):
        obj = getattr(messages_mod, name)
        if (isinstance(obj, type) and dataclasses.is_dataclass(obj)
                and obj.__module__ == messages_mod.__name__
                and not name.startswith("_")):
            out.append(obj)
    return sorted(out, key=lambda c: c.__name__)


@functools.cache
def dispatched_names() -> frozenset[str]:
    """Class names in a live handler table, or referenced as isinstance
    targets in the live modules."""
    refs = {
        cls.__name__ for table in handler_tables().values() for cls in table
    }
    for mod in DISPATCH_MODULES:
        tree = ast.parse(textwrap.dedent(inspect.getsource(mod)))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance"
                    and len(node.args) == 2):
                second = node.args[1]
                elts = second.elts if isinstance(second, ast.Tuple) else [second]
                for e in elts:
                    if isinstance(e, ast.Name):
                        refs.add(e.id)
    return frozenset(refs)


def synthesize(cls: type):
    """Construct a message instance with plausible dummy field values."""
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.default is not dataclasses.MISSING \
                or f.default_factory is not dataclasses.MISSING:
            continue
        ann = f.type if isinstance(f.type, str) else str(f.type)
        if f.name == "relation":
            kwargs[f.name] = "R"
        elif "np.ndarray" in ann:
            kwargs[f.name] = np.zeros(4, dtype=np.uint64)
        elif ann.startswith("tuple"):
            kwargs[f.name] = ((0, HashRange(0, 8)),)
        elif "Router" in ann:
            kwargs[f.name] = RangeRouter.initial(
                [HashRange(0, 8)], [0], positions=8)
        elif "HashRange" in ann:
            kwargs[f.name] = HashRange(0, 8)
        elif ann.startswith("float"):
            kwargs[f.name] = 0.0
        elif ann.startswith("bool"):
            kwargs[f.name] = False
        elif ann.startswith("str"):
            kwargs[f.name] = "build"
        else:
            kwargs[f.name] = 0
    return cls(**kwargs)


@pytest.mark.parametrize("cls", concrete_message_classes(),
                         ids=lambda c: c.__name__)
def test_every_message_class_is_dispatchable(cls):
    """Each concrete protocol message has a live dispatch arm: a row in
    some actor's handler table, or an isinstance arm."""
    assert cls.__name__ in dispatched_names(), (
        f"{cls.__name__} is defined in core/messages.py but is missing "
        f"from every handler table and no module in repro/core dispatches "
        f"it — receivers would drop or deadlock"
    )


def test_unregistered_message_is_noticed(monkeypatch):
    """The inventory is not vacuous: a message class added to messages.py
    without a handler row anywhere shows up as undispatched."""
    @dataclasses.dataclass
    class Unrouted(messages_mod._Control):
        node: int = 0

    Unrouted.__module__ = messages_mod.__name__
    monkeypatch.setattr(messages_mod, "Unrouted", Unrouted, raising=False)
    assert Unrouted in concrete_message_classes()
    assert "Unrouted" not in dispatched_names()


def test_handler_tables_are_the_actors_dispatch():
    """every table row maps a registered message class to a handler
    of its actor; the fault layer only *adds* to the three actors'
    tables."""
    registered = set(concrete_message_classes())
    tables = handler_tables()
    for actor, table in tables.items():
        assert table, actor
        for cls, handler in table.items():
            assert cls in registered, (actor, cls)
            assert callable(handler), (actor, cls)
    base, layered = tables["SchedulerProcess"], tables["FaultTolerantScheduler"]
    assert set(base) < set(layered)
    assert {m.__name__ for m in set(layered) - set(base)} == {
        "HeartbeatAck", "DeathVerdict", "ReplayDone", "NodeLostAck",
        "Depose", "ReliefAck",
    }
    base, layered = tables["JoinProcess"], tables["FaultTolerantJoinProcess"]
    assert set(base) < set(layered)
    assert {m.__name__ for m in set(layered) - set(base)} == {
        "HeartbeatPing", "NodeLost", "SchedulerFailover",
    }
    base, layered = tables["DataSourceProcess"], tables["FaultTolerantDataSource"]
    assert set(base) < set(layered)
    assert {m.__name__ for m in set(layered) - set(base)} == {
        "ReplayOrder", "SchedulerFailover",
    }


def test_data_source_control_path_is_one_table():
    """Everything a scheduler broadcasts to the sources has a row (the
    paper's three in the base), and the source reads its mailbox through
    that table alone."""
    rows = {cls.__name__ for cls in handler_tables()["DataSourceProcess"]}
    assert rows == {"RouteUpdate", "StartProbe", "Shutdown"}
    tree = ast.parse(textwrap.dedent(inspect.getsource(repro.core.datasource)))
    assert not [
        n for n in ast.walk(tree)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
        and n.func.id == "isinstance"
    ]


@pytest.mark.parametrize("faults,cls", [
    (None, repro.core.joinnode.JoinProcess),
    (FaultPlan(membership=True), repro.core.recovery.FaultTolerantJoinProcess),
], ids=["base", "layered"])
def test_handler_table_does_not_make_the_actor_a_reference_cycle(faults, cls):
    """Rows are plain functions, not bound methods: a join process (and
    the hash table it holds) must be freed by reference counting when the
    run drops it, not whenever the cycle collector next runs — that delay
    is what the benchmark's ``peak_rss_mb`` would pay for."""
    import gc
    import weakref

    ctx = single_query_context(small_config(faults=faults))
    gc.disable()
    try:
        jp = cls(ctx, 0)
        ref = weakref.ref(jp)
        del jp
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("cls", concrete_message_classes(),
                         ids=lambda c: c.__name__)
def test_every_message_is_constructible_and_priced(cls):
    """Every message can be built and carries the transport contract."""
    msg = synthesize(cls)
    assert isinstance(msg.nbytes, int) and msg.nbytes >= 0
    assert msg.kind in ("control", "data", "counts", "tick")


def test_every_message_is_exported():
    exported = set(messages_mod.__all__)
    for cls in concrete_message_classes():
        assert cls.__name__ in exported, (
            f"{cls.__name__} missing from messages.__all__"
        )


def test_pool_protocol_has_both_ends():
    """The workload pool protocol is dispatched on both sides of the wire.

    The pool actor must consume what schedulers send it (requests, query
    completion) and the query's pool client — the scheduler's potential
    list, same module — must consume what the pool answers (grants,
    denials); a one-sided arm would deadlock a workload run.
    """
    def arms(mod) -> set[str]:
        refs: set[str] = set()
        tree = ast.parse(textwrap.dedent(inspect.getsource(mod)))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance"
                    and len(node.args) == 2):
                second = node.args[1]
                elts = (second.elts if isinstance(second, ast.Tuple)
                        else [second])
                refs.update(e.id for e in elts if isinstance(e, ast.Name))
        return refs

    pool_rows = {cls.__name__ for cls in handler_tables()["ResourcePoolProcess"]}
    assert {"RecruitRequest", "QueryDone", "PollTick", "Shutdown"} <= pool_rows
    assert {"RecruitGrant", "RecruitDeny"} <= arms(repro.core.pool)


def test_mirror_agrees_with_static_pass():
    """The runtime ground truth and the static checker see the same world.

    If the static pass ever reports an unhandled message while this suite
    says all are dispatched (or vice versa), one of the two is blind.
    """
    from pathlib import Path

    from repro.checkers import run_lint

    root = Path(__file__).resolve().parents[1]
    static_unhandled = {
        v for v in run_lint(root, select=["protocol"])
        if v.rule == "proto-unhandled"
    }
    runtime_unhandled = {
        cls.__name__ for cls in concrete_message_classes()
        if cls.__name__ not in dispatched_names()
    }
    assert not static_unhandled and not runtime_unhandled
