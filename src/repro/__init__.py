"""repro — reproduction of "Strategies for Using Additional Resources in
Parallel Hash-based Join Algorithms" (Zhang et al., HPDC 2004).

Quick start::

    from repro import Algorithm, RunConfig, WorkloadSpec, run_join

    cfg = RunConfig(
        algorithm=Algorithm.HYBRID,
        initial_nodes=4,
        workload=WorkloadSpec(r_tuples=10_000_000, s_tuples=10_000_000),
    )
    result = run_join(cfg)
    print(result.summary())

Package map (see DESIGN.md for the full inventory):

- :mod:`repro.sim`      — discrete-event simulation kernel
- :mod:`repro.cluster`  — simulated PC cluster (nodes, NICs, disks, memory)
- :mod:`repro.data`     — synthetic relation streams (uniform / Gaussian / Zipf)
- :mod:`repro.hashing`  — hash functions, routers, node hash stores, reshuffle
- :mod:`repro.seqjoin`  — sequential reference joins (correctness oracles)
- :mod:`repro.core`     — the expanding hash-join algorithms + run driver
- :mod:`repro.faults`   — deterministic fault injection + recovery plans
- :mod:`repro.obs`      — metrics registry, span timelines, trace export
- :mod:`repro.analysis` — §4.2.4 cost model, load-balance stats, reports
- :mod:`repro.bench`    — figure-reproduction harness used by benchmarks/
- :mod:`repro.workload` — multi-tenant workloads on one shared node pool
- :mod:`repro.checkers` — the repo's own static-analysis passes (``repro lint``)

The top-level names below resolve on first use: ``import repro`` loads no
subpackage, so ``import repro.sim`` loads only the kernel, and reading
``repro.run_join`` is what imports :mod:`repro.core`.
"""

import importlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - the same names, for type checkers
    from .config import (
        DEFAULT_SCALE,
        MTUPLES,
        Algorithm,
        ClusterSpec,
        CostModel,
        Distribution,
        PoolPolicy,
        QueryMixEntry,
        RunConfig,
        SplitPolicy,
        WorkloadConfig,
        WorkloadSpec,
    )
    from .core import JoinRunResult, run_join
    from .faults import (
        CrashSpec,
        FaultPlan,
        FaultPlanError,
        LinkSlowdown,
        UnrecoverableFaultError,
    )
    from .workload import QueryStats, WorkloadResult, run_workload

__version__ = "1.0.0"

#: public name -> the submodule that defines it, imported on first access
_SOURCES = {
    "Algorithm": "config",
    "ClusterSpec": "config",
    "CostModel": "config",
    "CrashSpec": "faults",
    "DEFAULT_SCALE": "config",
    "Distribution": "config",
    "FaultPlan": "faults",
    "FaultPlanError": "faults",
    "JoinRunResult": "core",
    "LinkSlowdown": "faults",
    "MTUPLES": "config",
    "PoolPolicy": "config",
    "QueryMixEntry": "config",
    "QueryStats": "workload",
    "RunConfig": "config",
    "SplitPolicy": "config",
    "UnrecoverableFaultError": "faults",
    "WorkloadConfig": "config",
    "WorkloadResult": "workload",
    "WorkloadSpec": "config",
    "run_join": "core",
    "run_workload": "workload",
}

__all__ = [*_SOURCES, "__version__"]


def __getattr__(name: str) -> object:
    try:
        module = _SOURCES[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
