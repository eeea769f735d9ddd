"""Unit tests for the figure-reproduction harness plumbing (micro scale)."""

import json

import pytest

from repro.bench import (
    ALGORITHMS,
    CLAIMS,
    EHJAS,
    TABLES,
    FigureHarness,
    diff_files,
    load_baseline,
    render,
)
from repro.config import Algorithm


@pytest.fixture(scope="module")
def harness():
    # 10M paper tuples -> 10k real tuples: each run takes well under a second
    return FigureHarness(scale=0.001, validate=True)


def test_run_results_are_memoized(harness):
    a = harness.run(Algorithm.SPLIT, 2)
    b = harness.run(Algorithm.SPLIT, 2)
    assert a is b, "identical configs must reuse the cached run"
    c = harness.run(Algorithm.SPLIT, 4)
    assert c is not a


def test_run_applies_parameters(harness):
    res = harness.run(Algorithm.OUT_OF_CORE, 3, r_m=5, s_m=2, pool=12)
    cfg = res.config
    assert cfg.algorithm is Algorithm.OUT_OF_CORE
    assert cfg.initial_nodes == 3
    assert cfg.workload.r_tuples == 5_000_000
    assert cfg.workload.s_tuples == 2_000_000
    assert cfg.cluster.n_potential_nodes == 12
    assert cfg.workload.scale == 0.001


def test_skew_parameter_switches_distribution(harness):
    from repro.config import Distribution

    uni = harness.run(Algorithm.SPLIT, 2)
    skew = harness.run(Algorithm.SPLIT, 2, sigma=0.001)
    assert uni.config.workload.distribution is Distribution.UNIFORM
    assert skew.config.workload.distribution is Distribution.GAUSSIAN


def test_algorithm_tuples_exported():
    assert len(ALGORITHMS) == 4
    assert len(EHJAS) == 3
    assert Algorithm.OUT_OF_CORE not in EHJAS


def test_fig12_report_structure(harness):
    report = harness.figure("fig12")
    assert report.figure == "Figure 12"
    assert len(report.rows) == 3           # the three EHJAs
    assert len(report.headers) == 5
    assert report.checks, "shape checks must be attached"
    # CSV export round-trips the table shape
    lines = report.to_csv().strip().splitlines()
    assert len(lines) == 1 + len(report.rows)


def test_run_overrides_set_config_fields_and_share_equal_cells(harness):
    from repro.config import SplitPolicy

    res = harness.run(Algorithm.SPLIT, 2, chunk_tuples=20_000,
                      net_bandwidth=125e6, n_sources=2,
                      split_policy=SplitPolicy.LINEAR_MOD)
    cfg = res.config
    assert cfg.workload.chunk_tuples == 20_000
    assert cfg.cluster.cost.net_bandwidth == 125e6
    assert cfg.cluster.n_sources == 2
    assert cfg.split_policy is SplitPolicy.LINEAR_MOD
    assert cfg.workload.scale == 0.001
    # an override equal to the default is the same config: one run
    assert harness.run(Algorithm.SPLIT, 2, net_bandwidth=12.5e6) is \
        harness.run(Algorithm.SPLIT, 2)
    with pytest.raises(TypeError, match="bandwith"):
        harness.run(Algorithm.SPLIT, 2, bandwith=1.0)


def test_every_override_name_belongs_to_one_config_class():
    from dataclasses import fields

    from repro.bench.figures import _OWNER
    from repro.config import ClusterSpec, CostModel, RunConfig, WorkloadSpec

    names = [f.name for c in (WorkloadSpec, CostModel, ClusterSpec, RunConfig)
             for f in fields(c)]
    assert len(_OWNER) == len(names) - 3  # less workload, cluster, cost


def test_figures_lists_every_entry():
    import inspect

    from repro.bench import studies

    paper = tuple(f"fig{n:02d}" for n in range(2, 14))
    assert FigureHarness.FIGURES == (*paper, "model", *studies.STUDIES)
    assert tuple(TABLES) == (*paper, "model")
    assert {c.figure for c in CLAIMS} == set(TABLES)
    defined = {
        name for name, fn in vars(studies).items()
        if inspect.isfunction(fn) and fn.__module__ == studies.__name__
        and not name.startswith("_")
    }
    assert defined == set(studies.STUDIES)
    with pytest.raises(KeyError):
        FigureHarness(scale=0.001).figure("fig01")


def test_a_study_entry_renders_its_table(harness):
    report = harness.figure("chunk_size")
    assert report.figure == "Ablation C"
    assert report.headers == ["chunk tuples (paper units)", "total (paper s)",
                              "extra build chunks", "data messages"]
    assert [row[0] for row in report.rows] == [2_000, 10_000, 50_000]
    assert all(len(row) == len(report.headers) for row in report.rows)
    assert len(report.checks) == 2
    # the 10 000-tuple cell is the paper's default chunk: fig02's run
    assert harness.run(Algorithm.HYBRID, 4, chunk_tuples=10_000) is \
        harness.run(Algorithm.HYBRID, 4)


def test_the_skew_figures_render_from_one_shared_sweep(harness):
    """Figures 10-13 read one skew sweep (4 algorithms x 3 skews at 4
    initial nodes), run once for all four."""
    distributions = ["uniform", "sigma = 0.001", "sigma = 0.0001"]
    fig10 = harness.figure("fig10")
    assert fig10.headers == ["distribution", "Replicated", "Split", "Hybrid",
                             "Out of Core"]
    assert [row[0] for row in fig10.rows] == distributions
    assert len(fig10.checks) == 4
    fig11 = harness.figure("fig11")
    assert fig11.headers == ["distribution", "Replicated", "Split", "Hybrid",
                             "Size of Table R"]
    assert [row[0] for row in fig11.rows] == distributions
    assert {row[-1] for row in fig11.rows} == {1000.0}
    assert len(fig11.checks) == 3
    cells = len(harness._cache)
    for name, figure, n_checks in (("fig12", "Figure 12", 1),
                                   ("fig13", "Figure 13", 2)):
        report = harness.figure(name)
        assert report.figure == figure
        assert report.headers == ["algorithm", "Average Load", "Maximum Load",
                                  "Minimum Load", "max/avg"]
        assert [row[0] for row in report.rows] == ["Replicated", "Split",
                                                   "Hybrid"]
        assert all(len(row) == 5 for row in report.rows)
        assert len(report.checks) == n_checks
    assert len(harness._cache) == cells  # Figures 12-13 ran no new cell
    for a in ALGORITHMS:
        for sigma in (None, 0.001, 0.0001):
            assert harness.run(a, 4, sigma=sigma).is_valid


def test_the_fig02_baseline_is_a_clean_bench_diff_document(harness, tmp_path):
    doc = harness.document(["fig02"])
    assert doc["benchmark"] == "fig02" and doc["scale"] == 0.001
    assert set(doc["series"]) == {f"nodes/{a.value}" for a in ALGORITHMS}
    assert all(set(points) == {"1", "2", "4", "8", "16"}
               for points in doc["series"].values())
    path = tmp_path / "fig02.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    assert load_baseline(path) == doc
    assert diff_files(path, path, threshold_pct=0).ok
    # the file holds full-precision floats: the report it renders is the
    # one the runs render, cell for cell
    assert render(load_baseline(path), "fig02") == harness.figure("fig02")


def test_every_paper_figure_renders_from_the_committed_document(monkeypatch):
    """BENCH_2.json is the document of every paper figure: each renders
    from it without a join, and every one of the paper's claims holds."""
    import repro.bench.figures as figures

    def no_join(*args, **kwargs):
        raise AssertionError("rendering a document ran a join")

    monkeypatch.setattr(figures, "run_join", no_join)
    doc = load_baseline("BENCH_2.json")
    assert doc["benchmark"] == " ".join(TABLES) and doc["validated"]
    reports = [render(doc, name) for name in TABLES]
    checks = [f"{r.figure}: {c}" for r in reports for c in r.checks]
    assert len(checks) == len(CLAIMS) == 36
    failed = [c for c in checks if "[FAIL]" in c]
    assert not failed, failed
    # Figures 8/9 reproduce partially: the deviation is a note, not a check
    deviating = [r.figure for r in reports
                 if any(n.startswith("DEVIATION") for n in r.notes)]
    assert deviating == ["Figure 8", "Figure 9"]


def test_unvalidated_contention_claims_no_oracle_verdict():
    report = FigureHarness(scale=0.001, validate=False).figure("contention")
    assert len(report.rows) == 4
    assert not [c for c in report.checks if "oracle" in c.description]
    assert any("not validated" in n for n in report.notes)
