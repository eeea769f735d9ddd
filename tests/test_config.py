"""Unit tests for configuration, validation, and the co-scaling rule."""

import dataclasses

import pytest

from repro.config import (
    DRAIN_POLL_S,
    Algorithm,
    ClusterSpec,
    CostModel,
    Distribution,
    FleetConfig,
    MTUPLES,
    ObsConfig,
    PoolPolicy,
    QueryMixEntry,
    RunConfig,
    SplitPolicy,
    WorkloadConfig,
    WorkloadSpec,
)
from repro.faults import CrashSpec, FaultPlan, LinkSlowdown


def test_algorithm_expanding_flag():
    assert Algorithm.SPLIT.is_expanding
    assert Algorithm.REPLICATE.is_expanding
    assert Algorithm.HYBRID.is_expanding
    assert not Algorithm.OUT_OF_CORE.is_expanding


def test_workload_real_counts_scale():
    wl = WorkloadSpec(r_tuples=10 * MTUPLES, s_tuples=20 * MTUPLES,
                      chunk_tuples=10_000, scale=0.01)
    assert wl.real_r_tuples == 100_000
    assert wl.real_s_tuples == 200_000
    assert wl.real_chunk_tuples == 100
    assert wl.chunk_bytes == 100 * wl.tuple_bytes


def test_workload_validation():
    with pytest.raises(ValueError):
        WorkloadSpec(tuple_bytes=8)  # smaller than the two 64-bit fields
    with pytest.raises(ValueError):
        WorkloadSpec(scale=0.0)
    with pytest.raises(ValueError):
        WorkloadSpec(scale=1.5)
    with pytest.raises(ValueError):
        WorkloadSpec(chunk_tuples=0)
    with pytest.raises(ValueError, match="r_tuples must be >= 1, got 0"):
        WorkloadSpec(r_tuples=0)
    with pytest.raises(ValueError, match="s_tuples must be >= 1, got -5"):
        WorkloadSpec(s_tuples=-5)


def test_cost_model_derived_times():
    cost = CostModel(net_bandwidth=10e6, disk_bandwidth=5e6, disk_seek=0.01)
    assert cost.wire_time(10e6) == pytest.approx(1.0)
    assert cost.disk_time(5e6) == pytest.approx(1.01)


def test_cost_model_scaling_rule():
    cost = CostModel()
    half = cost.scaled(0.5)
    # fixed per-op costs shrink with scale
    assert half.net_latency == pytest.approx(cost.net_latency * 0.5)
    assert half.net_per_message_cpu == pytest.approx(
        cost.net_per_message_cpu * 0.5)
    assert half.disk_seek == pytest.approx(cost.disk_seek * 0.5)
    # per-byte / per-tuple costs are untouched
    assert half.net_bandwidth == cost.net_bandwidth
    assert half.cpu_insert_tuple == cost.cpu_insert_tuple
    assert half.disk_bandwidth == cost.disk_bandwidth
    # receive window is counted in chunks: scale-invariant
    assert half.recv_window_chunks == cost.recv_window_chunks
    assert cost.scaled(1.0) is cost


def test_cluster_spec_scaling_shrinks_memory_and_costs():
    spec = ClusterSpec(hash_memory_bytes=1000,
                       node_memory_overrides=((3, 2000),))
    scaled = spec.scaled(0.1)
    assert scaled.hash_memory_bytes == 100
    assert scaled.memory_of(3) == 200
    assert scaled.memory_of(0) == 100
    assert scaled.cost.disk_seek == pytest.approx(spec.cost.disk_seek * 0.1)


@pytest.mark.parametrize("kw,needle", [
    ({"n_sources": 0}, "n_sources must be >= 1, got 0"),
    ({"n_potential_nodes": 0}, "n_potential_nodes must be >= 1, got 0"),
    ({"hash_memory_bytes": 0}, "hash_memory_bytes must be >= 1, got 0"),
    ({"hash_memory_bytes": -1}, "hash_memory_bytes must be >= 1, got -1"),
    ({"node_memory_overrides": ((2, 0),)}, "node 2's memory override"),
])
def test_cluster_spec_refuses_an_empty_cluster(kw, needle):
    with pytest.raises(ValueError, match=needle):
        ClusterSpec(**kw)


def test_cluster_spec_scaling_never_refuses_a_tiny_budget():
    """Co-scaling floors every budget at one byte, so a valid spec stays
    valid at any scale."""
    spec = ClusterSpec(hash_memory_bytes=1, node_memory_overrides=((0, 1),))
    assert spec.scaled(0.001).memory_of(0) == 1


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(initial_nodes=0)
    with pytest.raises(ValueError):
        RunConfig(initial_nodes=25, cluster=ClusterSpec(n_potential_nodes=24))
    with pytest.raises(ValueError):
        RunConfig(hash_positions=8, cluster=ClusterSpec(n_potential_nodes=24))


def test_run_config_effective_cluster_scales_with_workload():
    cfg = RunConfig(workload=WorkloadSpec(scale=0.5))
    eff = cfg.effective_cluster
    assert eff.hash_memory_bytes == ClusterSpec().hash_memory_bytes // 2
    assert cfg.effective_drain_poll == pytest.approx(DRAIN_POLL_S * 0.5)


def test_default_calibration_sixteen_nodes_hold_ten_million_tuples():
    """Figure 2's anchor: 16 nodes' budget just covers 10M 100-byte tuples."""
    wl = WorkloadSpec()  # 10M x 100B
    spec = ClusterSpec()
    per_node_tuples = spec.hash_memory_bytes // wl.tuple_bytes
    assert 14 * per_node_tuples < wl.r_tuples <= 16 * per_node_tuples


def test_split_policy_enum_values():
    assert SplitPolicy("bisect") is SplitPolicy.TARGETED_BISECT
    assert SplitPolicy("linear") is SplitPolicy.LINEAR_POINTER
    assert SplitPolicy("linear_mod") is SplitPolicy.LINEAR_MOD
    assert RunConfig().split_policy is SplitPolicy.TARGETED_BISECT


def test_distribution_enum_roundtrip():
    assert Distribution("uniform") is Distribution.UNIFORM
    assert Distribution("gaussian") is Distribution.GAUSSIAN
    assert Distribution("zipf") is Distribution.ZIPF


def test_pool_policy_enum_values():
    assert PoolPolicy("fifo") is PoolPolicy.FIFO
    assert PoolPolicy("fair") is PoolPolicy.FAIR_SHARE
    assert PoolPolicy("deficit") is PoolPolicy.MEMORY_DEFICIT
    assert WorkloadConfig().policy is PoolPolicy.FIFO


def test_query_mix_entry_validation():
    with pytest.raises(ValueError):
        QueryMixEntry(weight=0)
    with pytest.raises(ValueError):
        QueryMixEntry(weight=-1.5)
    with pytest.raises(ValueError):
        QueryMixEntry(r_tuples=0)
    with pytest.raises(ValueError):
        QueryMixEntry(initial_nodes=0)
    with pytest.raises(ValueError):
        QueryMixEntry(tuple_bytes=8)  # cannot hold the two u64 fields


def test_workload_config_validation():
    with pytest.raises(ValueError):
        WorkloadConfig(n_queries=0)
    with pytest.raises(ValueError):
        WorkloadConfig(arrival_rate_qps=0.0)
    with pytest.raises(ValueError):
        WorkloadConfig(arrival_rate_qps=-2.0)
    with pytest.raises(ValueError):
        WorkloadConfig(mix=())
    with pytest.raises(ValueError):
        WorkloadConfig(fair_share_cap=0)
    with pytest.raises(ValueError):
        WorkloadConfig(grant_timeout_s=0.0)
    with pytest.raises(ValueError):
        WorkloadConfig(grant_timeout_s=float("inf"))
    # trace length must match the query count, entries must be >= 0
    with pytest.raises(ValueError):
        WorkloadConfig(n_queries=3, arrival_times=(0.0, 1.0))
    with pytest.raises(ValueError):
        WorkloadConfig(n_queries=2, arrival_times=(0.0, -1.0))
    # a trace overrides the rate, so a bogus rate is then irrelevant
    cfg = WorkloadConfig(n_queries=2, arrival_times=(0.0, 1.0),
                         arrival_rate_qps=-1.0)
    assert cfg.arrival_times == (0.0, 1.0)
    # a mix entry may not want more initial nodes than the pool holds
    with pytest.raises(ValueError):
        WorkloadConfig(
            mix=(QueryMixEntry(initial_nodes=9),),
            cluster=ClusterSpec(n_potential_nodes=8),
        )


def test_workload_config_fault_restrictions():
    with pytest.raises(ValueError):
        WorkloadConfig(faults=FaultPlan(ack_drop_prob=0.05))
    with pytest.raises(ValueError):
        WorkloadConfig(faults=FaultPlan(
            crashes=(CrashSpec(node=1, at_phase="build"),)
        ))
    # at_time crashes and link drops are the supported workload faults
    cfg = WorkloadConfig(faults=FaultPlan(
        drop_prob=0.01, crashes=(CrashSpec(node=1, at_time=0.5),)
    ))
    assert cfg.faults is not None and cfg.faults.active


@pytest.mark.parametrize("plan", [
    FaultPlan(membership=True),
    FaultPlan(membership=True, kill_scheduler_at=0.1),
    FaultPlan(heartbeat_interval_s=0.01),
    FaultPlan(kill_scheduler_at=0.1),
], ids=["membership", "membership+kill", "heartbeat", "kill-scheduler"])
def test_workload_config_refuses_a_control_plane_plan(plan):
    """A workload (and so a fleet, which carries one) cannot run the
    control-plane layer: the library refuses the plan, as the CLI does,
    instead of running fault-free and reporting every query valid."""
    with pytest.raises(ValueError, match="single-query only"):
        WorkloadConfig(faults=plan)


def test_workload_config_effective_grant_timeout():
    assert WorkloadConfig(grant_timeout_s=1.25).effective_grant_timeout \
        == pytest.approx(1.25)
    derived = WorkloadConfig(scale=0.02)
    assert derived.effective_grant_timeout == pytest.approx(
        200.0 * DRAIN_POLL_S * 0.02)


def test_settable_surface():
    """Every field of the config dataclasses, by name.  A new setting must
    change this list, so it shows up in review with its caller."""
    surface = {
        cls.__name__: [f.name for f in dataclasses.fields(cls)]
        for cls in (CostModel, ClusterSpec, WorkloadSpec, ObsConfig,
                    QueryMixEntry, WorkloadConfig, FleetConfig, RunConfig,
                    CrashSpec, LinkSlowdown, FaultPlan)
    }
    assert surface == {
        "CostModel": [
            "net_bandwidth", "net_latency", "net_jitter",
            "net_per_message_cpu", "cpu_generate_tuple", "cpu_route_tuple",
            "cpu_insert_tuple", "cpu_probe_tuple", "cpu_output_match",
            "cpu_repack_tuple", "disk_bandwidth", "disk_seek",
            "recv_window_chunks",
        ],
        "ClusterSpec": [
            "n_sources", "n_potential_nodes", "hash_memory_bytes",
            "node_memory_overrides", "cost", "topology",
        ],
        "WorkloadSpec": [
            "r_tuples", "s_tuples", "tuple_bytes", "distribution",
            "gauss_mean", "gauss_sigma", "zipf_s", "s_distribution",
            "s_gauss_mean", "s_gauss_sigma", "chunk_tuples", "scale", "seed",
        ],
        "ObsConfig": ["budget_bytes", "live_interval_s", "shard"],
        "QueryMixEntry": [
            "weight", "algorithm", "r_tuples", "s_tuples", "tuple_bytes",
            "distribution", "gauss_sigma", "initial_nodes",
        ],
        "WorkloadConfig": [
            "n_queries", "arrival_rate_qps", "arrival_times", "seed", "mix",
            "policy", "fair_share_cap", "grant_timeout_s", "cluster",
            "scale", "trace", "faults", "lockdep", "obs",
        ],
        "FleetConfig": [
            "workload", "n_cohorts", "n_shards", "worker_timeout_s",
        ],
        "RunConfig": [
            "algorithm", "initial_nodes", "workload", "cluster",
            "split_policy", "hash_positions", "mix_hash",
            "materialize_output", "probe_expansion", "sources_from_disk",
            "trace", "trace_buffer", "faults", "lockdep", "obs_budget_bytes",
        ],
        "CrashSpec": ["node", "at_time", "at_phase"],
        "LinkSlowdown": ["t0", "t1", "factor", "src", "dst"],
        "FaultPlan": [
            "seed", "drop_prob", "ack_drop_prob", "crashes", "slowdowns",
            "membership", "heartbeat_interval_s", "suspect_timeout_s",
            "confirm_timeout_s", "kill_scheduler_at",
        ],
    }
    assert sum(map(len, surface.values())) == 94
