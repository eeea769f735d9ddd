"""The bench-diff regression gate (repro.bench.diff + CLI wiring).

The gate's contract: a self-diff of any baseline passes exactly (the
simulator is deterministic, so identical code gives identical timings),
an injected slowdown beyond the threshold fails with exit 1, and a
structurally broken comparison (missing series, different benchmark)
fails rather than silently skipping the vanished points.
"""

import json
import math

import pytest

from repro.bench import (
    BaselineError,
    diff_baselines,
    diff_files,
    load_baseline,
    run_baseline,
)
from repro.bench.diff import Delta
from repro.cli import main


def make_baseline(**overrides):
    doc = {
        "benchmark": "fig_parallelism",
        "scale": 0.02,
        "series": {
            "split": {
                "2": {"total_s": 10.0, "build_s": 4.0},
                "4": {"total_s": 6.0, "build_s": 2.5},
                "16": {"total_s": 3.0, "build_s": 1.0},
            },
            "replicate": {
                "2": {"total_s": 12.0, "build_s": 4.5},
            },
        },
    }
    doc.update(overrides)
    return doc


def write_baseline(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


# ----------------------------------------------------------------------
# load_baseline schema validation
# ----------------------------------------------------------------------
def test_load_baseline_round_trip(tmp_path):
    p = write_baseline(tmp_path / "b.json", make_baseline())
    assert load_baseline(p) == make_baseline()


def test_load_baseline_missing_file(tmp_path):
    with pytest.raises(BaselineError, match="cannot read"):
        load_baseline(tmp_path / "nope.json")


def test_load_baseline_invalid_json(tmp_path):
    p = tmp_path / "b.json"
    p.write_text("{not json")
    with pytest.raises(BaselineError, match="not valid JSON"):
        load_baseline(p)


@pytest.mark.parametrize("doc,msg", [
    ([1, 2], "must be a JSON object"),
    ({"scale": 1, "series": {"a": {"2": {}}}}, "missing 'benchmark'"),
    ({"benchmark": "x", "series": {"a": {"2": {}}}}, "missing 'scale'"),
    ({"benchmark": "x", "scale": 1}, "missing 'series'"),
    ({"benchmark": "x", "scale": 1, "series": {}}, "non-empty"),
    ({"benchmark": "x", "scale": 1, "series": {"a": {}}}, "non-empty"),
    ({"benchmark": "x", "scale": 1,
      "series": {"a": {"2": {"total_s": "fast"}}}}, "finite number"),
    ({"benchmark": "x", "scale": 1,
      "series": {"a": {"2": {}}}}, "finite number"),  # a point of no metric
], ids=["array", "no-benchmark", "no-scale", "no-series", "empty-series",
        "empty-points", "non-numeric", "missing-metric"])
def test_load_baseline_schema_errors(tmp_path, doc, msg):
    p = write_baseline(tmp_path / "b.json", doc)
    with pytest.raises(BaselineError, match=msg):
        load_baseline(p)


def test_load_baseline_rejects_nan(tmp_path):
    p = (tmp_path / "b.json")
    p.write_text(json.dumps(make_baseline()).replace("10.0", "NaN"))
    with pytest.raises(BaselineError, match="finite number"):
        load_baseline(p)


def test_real_checked_in_baseline_loads():
    doc = load_baseline("BENCH_2.json")
    assert doc["series"], "repo baseline must satisfy the diff schema"


# ----------------------------------------------------------------------
# diff_baselines semantics
# ----------------------------------------------------------------------
def test_self_diff_is_exactly_zero():
    diff = diff_baselines(make_baseline(), make_baseline())
    assert diff.ok
    assert not diff.regressions and not diff.improvements
    assert len(diff.deltas) == 8  # 4 series points x 2 metrics
    assert all(d.pct == 0.0 for d in diff.deltas)
    assert diff.to_text().endswith("PASS")


def test_regression_beyond_threshold_fails():
    new = make_baseline()
    new["series"]["split"]["4"]["total_s"] = 6.3  # +5%
    diff = diff_baselines(make_baseline(), new, threshold_pct=1.0)
    assert not diff.ok
    [reg] = diff.regressions
    assert (reg.algorithm, reg.nodes, reg.metric) == ("split", "4", "total_s")
    assert reg.pct == pytest.approx(5.0)
    text = diff.to_text()
    assert "REGRESSED split/4 total_s" in text and text.endswith("FAIL")


def test_threshold_is_respected_both_ways():
    new = make_baseline()
    new["series"]["split"]["4"]["total_s"] = 6.3   # +5% slower
    new["series"]["split"]["2"]["build_s"] = 3.0   # -25% faster
    assert not diff_baselines(make_baseline(), new, threshold_pct=4.9).ok
    wide = diff_baselines(make_baseline(), new, threshold_pct=5.1)
    assert wide.ok                       # regression inside threshold
    assert not wide.improvements == []   # improvement still reported...
    [imp] = wide.improvements
    assert imp.pct == pytest.approx(-25.0)
    assert wide.to_text().endswith("PASS")  # ...but never fails the gate


def test_negative_threshold_rejected():
    with pytest.raises(ValueError, match=">= 0"):
        diff_baselines(make_baseline(), make_baseline(), threshold_pct=-1)


@pytest.mark.parametrize("mutate,expect", [
    (lambda d: d.update(benchmark="other"), "benchmark differs"),
    (lambda d: d.update(scale=0.5), "scale differs"),
    (lambda d: d["series"].pop("replicate"), "'replicate' missing from NEW"),
    (lambda d: d["series"]["split"].pop("16"), "split/16 missing from NEW"),
], ids=["benchmark", "scale", "series", "point"])
def test_structural_mismatches_fail(mutate, expect):
    new = make_baseline()
    mutate(new)
    diff = diff_baselines(make_baseline(), new)
    assert not diff.ok
    assert any(expect in m for m in diff.mismatches)
    assert diff.to_text().count("MISMATCH") == len(diff.mismatches)


def test_a_metric_only_one_side_carries_is_a_mismatch():
    # A point is any mapping of metric names to numbers, so a renamed or
    # vanished metric must fail the gate rather than drop out of it.
    new = make_baseline()
    new["series"]["split"]["4"]["p99_s"] = new["series"]["split"]["4"].pop(
        "build_s")
    diff = diff_baselines(make_baseline(), new)
    assert not diff.ok
    assert diff.mismatches == ["split/4 'build_s' missing from NEW",
                               "split/4 'p99_s' missing from OLD"]
    assert len(diff.deltas) == 7  # the other metrics are still compared


def test_series_added_in_new_is_also_a_mismatch():
    # Symmetric check: a series present only in NEW means the two files
    # aren't comparable either (e.g. diffing against the wrong baseline).
    old = make_baseline()
    old["series"].pop("replicate")
    diff = diff_baselines(old, make_baseline())
    assert not diff.ok
    assert any("missing from OLD" in m for m in diff.mismatches)


def test_delta_pct_edge_cases():
    d = Delta("a", "2", "total_s", old=0.0, new=0.0)
    assert d.pct == 0.0
    d = Delta("a", "2", "total_s", old=0.0, new=1.0)
    assert d.pct == math.inf
    assert json.dumps(diff_baselines(
        make_baseline(), make_baseline()).to_dict())  # JSON-serializable


def test_to_dict_shape():
    new = make_baseline()
    new["series"]["split"]["2"]["total_s"] = 20.0
    doc = diff_baselines(make_baseline(), new).to_dict()
    assert doc["ok"] is False
    assert doc["threshold_pct"] == 1.0
    assert [r["pct"] for r in doc["regressions"]] == [pytest.approx(100.0)]
    assert len(doc["deltas"]) == 8


# ----------------------------------------------------------------------
# CLI exit semantics
# ----------------------------------------------------------------------
def test_cli_self_diff_exits_zero(tmp_path, capsys):
    p = write_baseline(tmp_path / "b.json", make_baseline())
    rc = main(["bench-diff", p, p])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in out and "8 series points" in out


def test_cli_regression_exits_one(tmp_path, capsys):
    old = write_baseline(tmp_path / "old.json", make_baseline())
    doc = make_baseline()
    doc["series"]["split"]["2"]["total_s"] = 11.0  # +10%
    new = write_baseline(tmp_path / "new.json", doc)
    rc = main(["bench-diff", old, new, "--threshold", "5"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "REGRESSED" in out and "FAIL" in out
    # A generous threshold waves the same delta through.
    assert main(["bench-diff", old, new, "--threshold", "15"]) == 0


def test_cli_bad_baseline_exits_two(tmp_path, capsys):
    good = write_baseline(tmp_path / "good.json", make_baseline())
    rc = main(["bench-diff", good, str(tmp_path / "missing.json")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "cannot read" in err


def test_cli_json_format(tmp_path, capsys):
    p = write_baseline(tmp_path / "b.json", make_baseline())
    rc = main(["bench-diff", p, p, "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["ok"] is True and doc["mismatches"] == []


def test_cli_self_diff_of_checked_in_baseline():
    # The exact invocation CI runs as its gate sanity check.
    assert main(["bench-diff", "BENCH_2.json", "BENCH_2.json"]) == 0


# ----------------------------------------------------------------------
# snapshot diffing (repro workload --snapshot-out streams)
# ----------------------------------------------------------------------
def make_snapshot(counters, latencies=()):
    from repro.obs import QuantileSketch, Snapshot

    sk = QuantileSketch()
    for v in latencies:
        sk.add(v)
    return Snapshot(
        t=1.0, shards=("shard0",), counters=dict(counters),
        sketches={"workload.query_latency_s": sk} if latencies else {},
    )


def test_snapshot_self_diff_passes():
    from repro.bench import diff_snapshots

    snap = make_snapshot({"workload.queries": 4}, latencies=[1.0, 2.0])
    diff = diff_snapshots(snap, snap, threshold_pct=1.0)
    assert diff.ok
    assert {d.metric for d in diff.deltas} == {"p50", "p90", "p99"}


def test_snapshot_counter_change_is_a_hard_mismatch():
    from repro.bench import diff_snapshots

    old = make_snapshot({"workload.queries": 4})
    new = make_snapshot({"workload.queries": 5, "extra": 1})
    diff = diff_snapshots(old, new)
    assert not diff.ok
    text = diff.to_text()
    assert "counter 'workload.queries' differs" in text
    assert "counter 'extra' missing from OLD" in text


def test_snapshot_quantile_regression_respects_threshold():
    from repro.bench import diff_snapshots

    old = make_snapshot({"n": 1}, latencies=[1.0] * 10)
    new = make_snapshot({"n": 1}, latencies=[1.5] * 10)
    assert not diff_snapshots(old, new, threshold_pct=10.0).ok
    assert diff_snapshots(old, new, threshold_pct=60.0).ok


def test_load_document_takes_last_jsonl_line(tmp_path):
    from repro.bench import is_snapshot_doc, load_document

    p = tmp_path / "stream.jsonl"
    p.write_text(
        '{"kind": "repro-snapshot", "t": 1}\n'
        '{"kind": "repro-snapshot", "t": 2}\n'
    )
    doc = load_document(p)
    assert is_snapshot_doc(doc)
    assert doc["t"] == 2


def test_a_run_baseline_is_a_one_point_figure_baseline(tmp_path):
    """``workload/fleet --baseline``: the makespan and the p99 latency,
    named for what they hold, at the query count."""
    class Run:
        makespan_s = 4.5

        def latency_percentiles(self):
            return {"p50": 1.0, "p99": 2.25}

    doc = run_baseline(Run(), "workload", "fifo", 0.02, 4)
    assert doc == {"benchmark": "workload", "scale": 0.02, "series": {
        "fifo": {"4": {"makespan_s": 4.5, "p99_latency_s": 2.25}}}}
    path = write_baseline(tmp_path / "wl.json", doc)
    assert load_baseline(path) == doc
    assert diff_files(path, path, threshold_pct=0).ok
