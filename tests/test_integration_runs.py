"""Integration tests: full simulated runs of every algorithm.

``run_join(cfg, validate=True)`` already asserts the two global
invariants (distributed match count == sequential oracle; stored+spilled
build tuples == generated) and network byte conservation — these tests add
algorithm-specific structural assertions on top.
"""

import tracemalloc

import pytest

from tests.conftest import small_cluster, small_config, small_workload
from repro.config import Algorithm, Distribution, RunConfig, WorkloadSpec
from repro.core import run_join
from repro.core.messages import Hop


# ----------------------------------------------------------------------
# basic runs, no expansion
# ----------------------------------------------------------------------
@pytest.mark.parametrize("algorithm", list(Algorithm))
def test_no_expansion_when_memory_suffices(algorithm):
    cfg = small_config(algorithm, initial=12)  # 12 * 400 = 4800 >= 4000
    res = run_join(cfg)
    assert res.is_valid
    assert res.nodes_used == 12
    assert res.n_splits == 0
    assert res.extra_build_chunks() == 0
    assert res.probe_dup_chunks() == 0
    assert res.spilled_r_tuples == 0
    assert res.matches > 0 or res.reference_matches == 0


@pytest.mark.parametrize("algorithm", list(Algorithm))
def test_expansion_or_spill_under_pressure(algorithm):
    cfg = small_config(algorithm, initial=2)
    res = run_join(cfg)
    assert res.is_valid
    if algorithm is Algorithm.OUT_OF_CORE:
        assert res.nodes_used == 2
        assert res.spilled_r_tuples > 0
        assert res.times.ooc_pass_s > 0
    else:
        assert res.nodes_used > 2
        assert res.expansion_trace, "recruitments must be recorded"
        times = [t for t, _ in res.expansion_trace]
        assert times == sorted(times)


def test_single_initial_node_still_works():
    for algorithm in Algorithm:
        res = run_join(small_config(algorithm, initial=1))
        assert res.is_valid


# ----------------------------------------------------------------------
# algorithm-specific structure
# ----------------------------------------------------------------------
def test_split_produces_split_traffic_not_duplicates():
    res = run_join(small_config(Algorithm.SPLIT, initial=2))
    assert res.n_splits > 0
    assert res.split_moved_tuples > 0
    assert res.split_busy_s > 0
    assert res.comm.tuples_by_hop.get(Hop.SPLIT, 0) == res.split_moved_tuples
    assert res.probe_dup_chunks() == 0
    assert res.reshuffle_moved_tuples == 0


def test_replicate_broadcasts_probe_and_never_moves_tuples():
    res = run_join(small_config(Algorithm.REPLICATE, initial=2))
    assert res.n_splits == 0
    assert res.comm.tuples_by_hop.get(Hop.SPLIT, 0) == 0
    assert res.probe_dup_chunks() > 0
    # forwarding of pending buffers is allowed, reshuffle is not
    assert res.reshuffle_moved_tuples == 0


def test_hybrid_reshuffles_and_probes_single_destination():
    res = run_join(small_config(Algorithm.HYBRID, initial=2))
    assert res.reshuffle_moved_tuples > 0
    assert res.times.reshuffle_s > 0
    assert res.probe_dup_chunks() == 0
    assert res.comm.tuples_by_hop.get(Hop.RESHUFFLE, 0) == \
        res.reshuffle_moved_tuples
    # reshuffle balances the stored load
    avg, mx, mn = res.load_stats()
    assert mx <= avg * 1.5 + 1


def test_hybrid_reshuffle_host_memory_tracks_tuples_not_positions():
    """BENCH_2's hybrid/2 cell (10M x 10M, scale 0.02): 16 chain members
    over two 131 072-position ranges.  With one dense count vector per
    member the traced peak was 22.4 MiB under pytest (lockdep on); with the
    occupied positions only, and one dense total a group, it is 8.7 MiB."""
    cfg = RunConfig(algorithm=Algorithm.HYBRID, initial_nodes=2, trace=False,
                    workload=WorkloadSpec(scale=0.02))
    tracemalloc.start()
    try:
        res = run_join(cfg, validate=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.nodes_used == 16 and res.reshuffle_moved_tuples > 0
    assert peak <= 14 << 20


def test_ooc_spills_and_joins_on_disk():
    res = run_join(small_config(Algorithm.OUT_OF_CORE, initial=2))
    assert res.spilled_r_tuples > 0
    assert res.spilled_s_tuples > 0
    assert res.times.ooc_pass_s > 0
    assert res.is_valid


def test_phase_times_are_nonnegative_and_ordered():
    for algorithm in Algorithm:
        res = run_join(small_config(algorithm, initial=2))
        t = res.times
        assert t.build_s > 0
        assert t.reshuffle_s >= 0
        assert t.probe_s > 0
        assert t.ooc_pass_s >= 0
        assert res.total_s == pytest.approx(
            t.build_s + t.reshuffle_s + t.probe_s + t.ooc_pass_s)


def test_loads_sum_to_relation_size():
    for algorithm in Algorithm:
        res = run_join(small_config(algorithm, initial=2))
        stored = sum(l.stored_tuples for l in res.loads)
        spilled = sum(l.spilled_r_tuples for l in res.loads)
        assert stored + spilled == res.config.workload.real_r_tuples


# ----------------------------------------------------------------------
# skew
# ----------------------------------------------------------------------
@pytest.mark.parametrize("algorithm", list(Algorithm))
def test_skewed_runs_validate(algorithm):
    cfg = small_config(algorithm, initial=4,
                       workload=small_workload(sigma=0.0001))
    res = run_join(cfg)
    assert res.is_valid


def test_skew_imbalances_split_but_not_hybrid():
    wl = small_workload(r=6000, s=6000, sigma=0.0001)
    split = run_join(small_config(Algorithm.SPLIT, initial=4, workload=wl,
                                  cluster=small_cluster(pool=24)))
    hybrid = run_join(small_config(Algorithm.HYBRID, initial=4, workload=wl,
                                   cluster=small_cluster(pool=24)))
    s_avg, s_max, _ = split.load_stats()
    h_avg, h_max, _ = hybrid.load_stats()
    assert s_max / max(s_avg, 1) > h_max / max(h_avg, 1)


# ----------------------------------------------------------------------
# distributions / hashing options
# ----------------------------------------------------------------------
def test_zipf_distribution_runs_and_validates():
    wl = small_workload(distribution=Distribution.ZIPF)
    res = run_join(small_config(Algorithm.HYBRID, initial=2, workload=wl))
    assert res.is_valid


def test_hash_mixing_defeats_gaussian_skew():
    wl = small_workload(r=6000, s=6000, sigma=0.0001)
    plain = run_join(small_config(Algorithm.SPLIT, initial=4, workload=wl,
                                  cluster=small_cluster(pool=24)))
    mixed = run_join(small_config(Algorithm.SPLIT, initial=4, workload=wl,
                                  cluster=small_cluster(pool=24),
                                  mix_hash=True))
    assert mixed.is_valid
    _, p_max, _ = plain.load_stats()
    _, m_max, _ = mixed.load_stats()
    assert m_max < p_max  # mixing spreads the hotspot


# ----------------------------------------------------------------------
# pool exhaustion / fallback
# ----------------------------------------------------------------------
@pytest.mark.parametrize("algorithm",
                         [Algorithm.SPLIT, Algorithm.REPLICATE,
                          Algorithm.HYBRID])
def test_pool_exhaustion_degrades_to_spill(algorithm):
    cfg = small_config(algorithm, initial=2,
                       workload=small_workload(r=8000, s=2000),
                       cluster=small_cluster(pool=4))
    res = run_join(cfg)
    assert res.is_valid
    assert res.spilled_r_tuples > 0
    assert res.nodes_used == 4


def test_atomic_range_forces_spill_fallback():
    """A range of width 1 cannot be bisected; the node must spill."""
    cfg = small_config(
        Algorithm.SPLIT, initial=2,
        workload=small_workload(r=4000, s=1000, sigma=0.00001),
        cluster=small_cluster(pool=24, memory=10_000),
        hash_positions=32,  # tiny table: ranges quickly become atomic
    )
    res = run_join(cfg)
    assert res.is_valid
    assert res.spilled_r_tuples > 0


# ----------------------------------------------------------------------
# heterogeneous pool / scheduler selection
# ----------------------------------------------------------------------
def test_scheduler_recruits_largest_memory_first():
    big_node = 9
    cfg = small_config(
        Algorithm.REPLICATE, initial=2,
        cluster=small_cluster(
            pool=16,
            node_memory_overrides=((big_node, SMALL := 40_000 * 4),),
        ),
    )
    res = run_join(cfg)
    assert res.is_valid
    first_recruit = res.expansion_trace[0][1]
    assert first_recruit == big_node


# ----------------------------------------------------------------------
# misc result plumbing
# ----------------------------------------------------------------------
def test_summary_and_paper_scale():
    res = run_join(small_config(Algorithm.HYBRID, initial=2))
    text = res.summary()
    assert "hybrid" in text and "matches=" in text
    assert res.paper_scale_total_s == pytest.approx(res.total_s)  # scale=1


def test_validate_false_skips_oracle():
    res = run_join(small_config(Algorithm.SPLIT, initial=2), validate=False)
    assert res.reference_matches is None
    assert res.is_valid  # vacuously


def test_tracer_records_protocol_events():
    cfg = small_config(Algorithm.SPLIT, initial=2)
    res = run_join(cfg)
    cats = {r.category for r in res.tracer.records}
    assert "memory_full" in cats
    assert "activate" in cats
    assert "phase" in cats
