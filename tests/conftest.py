"""Shared fixtures: small, fast join-run configurations.

The integration tests run the full simulated system on shrunken workloads
(thousands of tuples) so the whole suite stays fast while still exercising
every protocol path: expansion, forwarding, splits, reshuffle, spilling,
drain detection and probe broadcast.
"""

import pytest

from repro.config import (
    Algorithm,
    ClusterSpec,
    Distribution,
    RunConfig,
    WorkloadSpec,
)

SMALL_MEMORY = 40_000  # bytes -> 400 tuples of 100B per node


def small_workload(r=4000, s=4000, sigma=None, tuple_bytes=100, chunk=200,
                   seed=7, **kw):
    """Tiny workload in *real* tuples (scale=1)."""
    kw.setdefault(
        "distribution",
        Distribution.UNIFORM if sigma is None else Distribution.GAUSSIAN,
    )
    return WorkloadSpec(
        r_tuples=r,
        s_tuples=s,
        tuple_bytes=tuple_bytes,
        gauss_sigma=sigma if sigma is not None else 0.001,
        chunk_tuples=chunk,
        scale=1.0,
        seed=seed,
        **kw,
    )


def small_cluster(pool=16, memory=SMALL_MEMORY, sources=2, **kw):
    return ClusterSpec(
        n_sources=sources,
        n_potential_nodes=pool,
        hash_memory_bytes=memory,
        **kw,
    )


def small_config(algorithm=Algorithm.HYBRID, initial=2, *, workload=None,
                 cluster=None, **kw):
    kw.setdefault("hash_positions", 1 << 12)
    return RunConfig(
        algorithm=algorithm,
        initial_nodes=initial,
        workload=workload or small_workload(),
        cluster=cluster or small_cluster(),
        **kw,
    )


@pytest.fixture
def config_factory():
    return small_config


@pytest.fixture
def run_contexts(monkeypatch):
    """The ``RunContext`` of every ``run_join`` the test makes, in order —
    for assertions on hardware state the result does not carry."""
    from repro.core import driver

    made = []
    build = driver.single_query_context

    def capture(cfg):
        made.append(build(cfg))
        return made[-1]

    monkeypatch.setattr(driver, "single_query_context", capture)
    return made
