"""Seeded workload generation: arrival schedule + per-query configs.

Arrivals are a Poisson process (seeded exponential inter-arrival gaps) or
an explicit trace from :class:`~repro.config.WorkloadConfig.arrival_times`.
Query classes are drawn from the weighted mix.  Every draw comes from its
own ``numpy`` ``SeedSequence`` spawn key, so the three random decisions —
arrival gaps, mix choice, per-query data seeds — are independent streams
that are each fully determined by ``WorkloadConfig.seed``: the same seed
always produces the identical workload, which is what makes concurrent
chaos runs bisectable.

Arrival times are *simulated seconds* and are deliberately not multiplied
by the workload ``scale``: the operator dials the contention level
directly against scaled query durations (see docs/WORKLOADS.md).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import QueryMixEntry, RunConfig, WorkloadConfig, WorkloadSpec

__all__ = ["QuerySpec", "arrival_schedule", "generate_workload",
           "query_run_config", "diurnal_arrivals", "bursty_arrivals",
           "profile_arrivals", "ARRIVAL_PROFILES"]

#: SeedSequence spawn keys — one independent stream per random decision
_ARRIVAL_KEY = 101
_MIX_KEY = 102
_QUERY_SEED_KEY = 103
_DIURNAL_KEY = 104
_BURSTY_KEY = 105


@dataclass(frozen=True)
class QuerySpec:
    """One generated query: who it is, when it arrives, what data it joins."""

    query_id: int
    arrival_s: float
    entry: QueryMixEntry
    #: per-query data seed (drives relation generation and the oracle)
    seed: int


def arrival_schedule(cfg: WorkloadConfig) -> tuple[float, ...]:
    """Arrival times in simulated seconds, one per query.

    With an explicit trace, the trace verbatim; otherwise cumulative sums
    of seeded exponential gaps at ``arrival_rate_qps`` (Poisson process).
    """
    if cfg.arrival_times:
        return tuple(float(t) for t in cfg.arrival_times)
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=cfg.seed, spawn_key=(_ARRIVAL_KEY,))
    )
    gaps = rng.exponential(1.0 / cfg.arrival_rate_qps, size=cfg.n_queries)
    return tuple(float(t) for t in np.cumsum(gaps))


def diurnal_arrivals(
    n_queries: int,
    seed: int,
    *,
    period_s: float = 10.0,
    base_qps: float = 0.5,
    peak_qps: float = 4.0,
) -> tuple[float, ...]:
    """Sinusoidal day/night arrival trace (inhomogeneous Poisson process).

    The instantaneous rate swings between ``base_qps`` (trough) and
    ``peak_qps`` (peak) once per ``period_s`` simulated seconds, starting
    at the trough.  Sampled by Lewis-Shedler thinning of a homogeneous
    ``peak_qps`` process, so the trace is exactly Poisson at every
    instant and fully determined by ``seed`` — the autoscaling study's
    "traffic follows the sun" input (docs/WORKLOADS.md).
    """
    if n_queries < 1 or period_s <= 0 or not 0 < base_qps <= peak_qps:
        raise ValueError(
            f"need n_queries >= 1, period_s > 0, 0 < base_qps <= peak_qps; "
            f"got {n_queries}, {period_s}, {base_qps}, {peak_qps}"
        )
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(_DIURNAL_KEY,))
    )
    arrivals: list[float] = []
    t = 0.0
    while len(arrivals) < n_queries:
        t += float(rng.exponential(1.0 / peak_qps))
        phase = (1.0 - np.cos(2.0 * np.pi * t / period_s)) / 2.0
        rate = base_qps + (peak_qps - base_qps) * phase
        if rng.random() < rate / peak_qps:
            arrivals.append(t)
    return tuple(arrivals)


def bursty_arrivals(
    n_queries: int,
    seed: int,
    *,
    burst_size: int = 8,
    burst_rate_qps: float = 20.0,
    idle_gap_s: float = 2.0,
) -> tuple[float, ...]:
    """Burst/idle arrival trace (on-off source).

    Queries arrive in bursts of ``burst_size`` at ``burst_rate_qps``
    (seeded exponential gaps), separated by exponential idle periods with
    mean ``idle_gap_s`` — the thundering-herd input of the autoscaling
    study: admission queues drain between bursts and saturate inside
    them.  Fully determined by ``seed``.
    """
    if n_queries < 1 or burst_size < 1 or burst_rate_qps <= 0 or idle_gap_s <= 0:
        raise ValueError(
            f"need n_queries/burst_size >= 1 and positive rates; got "
            f"{n_queries}, {burst_size}, {burst_rate_qps}, {idle_gap_s}"
        )
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(_BURSTY_KEY,))
    )
    arrivals: list[float] = []
    t = 0.0
    while len(arrivals) < n_queries:
        t += float(rng.exponential(idle_gap_s))
        for _ in range(min(burst_size, n_queries - len(arrivals))):
            t += float(rng.exponential(1.0 / burst_rate_qps))
            arrivals.append(t)
    return tuple(arrivals)


#: named arrival profiles the CLI/benchmarks select by string
ARRIVAL_PROFILES = ("poisson", "diurnal", "bursty")


def profile_arrivals(
    profile: str, cfg: WorkloadConfig
) -> tuple[float, ...]:
    """The arrival trace of one named profile for ``cfg``'s query count.

    ``poisson`` defers to :func:`arrival_schedule` (the config's own
    trace or rate); ``diurnal``/``bursty`` scale their default rates off
    ``cfg.arrival_rate_qps`` so one ``--arrival-rate`` knob moves every
    profile coherently.
    """
    if profile == "poisson":
        return arrival_schedule(cfg)
    if profile == "diurnal":
        return diurnal_arrivals(
            cfg.n_queries, cfg.seed,
            base_qps=cfg.arrival_rate_qps,
            peak_qps=8.0 * cfg.arrival_rate_qps,
        )
    if profile == "bursty":
        return bursty_arrivals(
            cfg.n_queries, cfg.seed,
            burst_rate_qps=40.0 * cfg.arrival_rate_qps,
            idle_gap_s=2.0 / cfg.arrival_rate_qps,
        )
    raise ValueError(
        f"unknown arrival profile {profile!r} (one of {ARRIVAL_PROFILES})"
    )


def generate_workload(cfg: WorkloadConfig) -> list[QuerySpec]:
    """The full deterministic workload: arrivals + mix draws + data seeds."""
    arrivals = arrival_schedule(cfg)
    mix_rng = np.random.default_rng(
        np.random.SeedSequence(entropy=cfg.seed, spawn_key=(_MIX_KEY,))
    )
    weights = np.array([entry.weight for entry in cfg.mix], dtype=np.float64)
    choices = mix_rng.choice(
        len(cfg.mix), size=cfg.n_queries, p=weights / weights.sum()
    )
    specs = []
    for q in range(cfg.n_queries):
        seed = int(
            np.random.SeedSequence(
                entropy=cfg.seed, spawn_key=(_QUERY_SEED_KEY, q)
            ).generate_state(1)[0]
        )
        specs.append(
            QuerySpec(
                query_id=q,
                arrival_s=arrivals[q],
                entry=cfg.mix[int(choices[q])],
                seed=seed,
            )
        )
    return specs


def query_run_config(cfg: WorkloadConfig, spec: QuerySpec) -> RunConfig:
    """The single-query :class:`RunConfig` equivalent of one workload query.

    Shares the workload's cluster spec, scale and fault
    plan; data shape and algorithm come from the drawn mix entry, the data
    seed from the generator — so each query joins *different* relations
    and is validated against its own oracle.
    """
    entry = spec.entry
    return RunConfig(
        algorithm=entry.algorithm,
        initial_nodes=entry.initial_nodes,
        workload=WorkloadSpec(
            r_tuples=entry.r_tuples,
            s_tuples=entry.s_tuples,
            tuple_bytes=entry.tuple_bytes,
            distribution=entry.distribution,
            gauss_sigma=entry.gauss_sigma,
            scale=cfg.scale,
            seed=spec.seed,
        ),
        cluster=cfg.cluster,
        trace=cfg.trace,
        faults=cfg.faults,
        lockdep=cfg.lockdep,
    )
