"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def small_args(extra):
    """Keep CLI test runs tiny and fast."""
    return extra + [
        "--r-tuples", "0.004", "--s-tuples", "0.004",
        "--scale", "1.0", "--chunk-tuples", "200",
        "--pool", "8", "--sources", "2", "--node-memory-mb", "0.04",
    ]


def test_run_command_prints_summary(capsys):
    rc = main(small_args(["run", "--algorithm", "hybrid",
                          "--initial-nodes", "2"]))
    out = capsys.readouterr().out
    assert rc == 0
    assert "hybrid" in out
    assert "phases (paper-scale s)" in out


def test_run_command_goes_through_the_single_join_helper(monkeypatch, capsys):
    """``run`` builds and runs its join the way ``trace``/``metrics``/
    ``explain`` do; it writes no file, so it has nothing to refuse."""
    import repro.cli as cli

    calls = []
    real = cli._run_single

    def spy(args, command, **kw):
        calls.append((command, args.out, args.force))
        return real(args, command, **kw)

    monkeypatch.setattr(cli, "_run_single", spy)
    assert main(small_args(["run", "--initial-nodes", "2"])) == 0
    assert calls == [("run", None, False)]
    assert "phases (paper-scale s)" in capsys.readouterr().out


def test_workload_and_single_join_share_one_cluster_spec():
    """Both command families build their ``ClusterSpec`` from the flags
    its fields declare, through ``_from_args``."""
    from repro.cli import _config, _from_args, _workload_config
    from repro.config import ClusterSpec

    flags = ["--pool", "10", "--sources", "3", "--node-memory-mb", "1.5",
             "--topology", "hub"]
    wl = build_parser().parse_args(["workload", *flags])
    one = build_parser().parse_args(["run", *flags])
    cluster = _from_args(ClusterSpec, wl)
    assert _workload_config(wl).cluster == cluster \
        == _config(one, initial_nodes=2).cluster == _from_args(ClusterSpec, one)
    assert cluster.n_potential_nodes == 10 and cluster.n_sources == 3
    assert cluster.hash_memory_bytes == int(1.5 * 1024 * 1024)
    assert cluster.topology.value == "hub"


def test_run_command_with_trace(capsys):
    rc = main(small_args(["run", "--algorithm", "split",
                          "--initial-nodes", "2", "--trace"]))
    out = capsys.readouterr().out
    assert rc == 0
    assert "trace:" in out
    assert "memory_full" in out


def test_run_command_skew_and_policy(capsys):
    rc = main(small_args(["run", "--algorithm", "split",
                          "--initial-nodes", "2", "--sigma", "0.001",
                          "--split-policy", "linear"]))
    assert rc == 0


def test_run_zipf_with_output_materialization(capsys):
    rc = main(small_args(["run", "--algorithm", "replicate",
                          "--initial-nodes", "2", "--zipf", "1.2",
                          "--materialize-output", "--probe-expansion"]))
    assert rc == 0


def test_sweep_command_builds_table(capsys):
    rc = main(small_args(["sweep", "--initial-nodes", "2,4",
                          "--algorithms", "split,ooc"]))
    out = capsys.readouterr().out
    assert rc == 0
    assert "initial nodes" in out and "split" in out and "ooc" in out
    assert len(out.strip().splitlines()) == 4  # header + rule + 2 rows


def test_figures_command_rejects_unknown(capsys):
    rc = main(["figures", "--only", "fig99"])
    assert rc == 2
    assert "unknown figures" in capsys.readouterr().err


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_no_validate_flag(capsys):
    rc = main(small_args(["run", "--algorithm", "ooc",
                          "--initial-nodes", "2", "--no-validate"]))
    out = capsys.readouterr().out
    assert rc == 0
    assert "MISMATCH" not in out


def test_zipf_and_sigma_together_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(small_args(["run", "--zipf", "1.2", "--sigma", "0.001"]))
    assert exc.value.code == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_zipf_exponent_must_exceed_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(small_args(["run", "--zipf", "1.0"]))
    assert exc.value.code == 2
    assert "must be > 1" in capsys.readouterr().err


def test_trace_command_writes_chrome_json(tmp_path, capsys):
    import json

    out = tmp_path / "trace.json"
    rc = main(small_args(["trace", "--algorithm", "split",
                          "--initial-nodes", "2", "--out", str(out)]))
    assert rc == 0
    doc = json.loads(out.read_text())
    phs = {e["ph"] for e in doc["traceEvents"]}
    assert {"M", "X", "i"} <= phs
    printed = capsys.readouterr().out
    assert "scheduler" in printed  # phase timeline report follows the write


def test_trace_command_jsonl_to_stdout(capsys):
    import json

    rc = main(small_args(["trace", "--algorithm", "hybrid",
                          "--initial-nodes", "2", "--format", "jsonl"]))
    assert rc == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln]
    assert lines and all("category" in json.loads(ln) for ln in lines)


def test_trace_command_respects_trace_buffer(capsys):
    import json

    rc = main(small_args(["trace", "--algorithm", "split",
                          "--initial-nodes", "2", "--format", "jsonl",
                          "--trace-buffer", "5"]))
    assert rc == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln]
    assert len(lines) == 5
    assert all(json.loads(ln) for ln in lines)


def test_metrics_command_table_and_jsonl(capsys):
    rc = main(small_args(["metrics", "--algorithm", "split",
                          "--initial-nodes", "2"]))
    out = capsys.readouterr().out
    assert rc == 0
    assert "hash.inserted_tuples" in out and "mailbox.depth" in out

    import json

    rc = main(small_args(["metrics", "--algorithm", "split",
                          "--initial-nodes", "2", "--format", "jsonl"]))
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln]
    assert rc == 0
    names = {json.loads(ln)["name"] for ln in lines}
    assert "sim.events_executed" in names


def test_metrics_out_writes_table_like_stdout(tmp_path, capsys):
    """--out must honor the table format too, not just jsonl, and the
    file contents must match what stdout would have shown."""
    rc = main(small_args(["metrics", "--algorithm", "split",
                          "--initial-nodes", "2"]))
    stdout_table = capsys.readouterr().out
    assert rc == 0

    out = tmp_path / "metrics.txt"
    rc = main(small_args(["metrics", "--algorithm", "split",
                          "--initial-nodes", "2", "--out", str(out)]))
    printed = capsys.readouterr().out
    assert rc == 0
    assert "wrote" in printed and "active instruments" in printed
    assert out.read_text() == stdout_table  # deterministic run, same table
    assert "net.in_flight_peak" in stdout_table


def test_explain_command_text(capsys):
    rc = main(small_args(["explain", "--algorithm", "replicate",
                          "--initial-nodes", "2", "--sigma", "0.05"]))
    out = capsys.readouterr().out
    assert rc == 0
    assert "ranked bottlenecks" in out
    assert "probe broadcast" in out  # skewed replication amplifies probes
    assert "phases (duration, top critical contributor, skew)" in out


def test_explain_command_json_out(tmp_path, capsys):
    import json

    out = tmp_path / "explain.json"
    rc = main(small_args(["explain", "--algorithm", "split",
                          "--initial-nodes", "2", "--format", "json",
                          "--out", str(out)]))
    printed = capsys.readouterr().out
    assert rc == 0
    assert "wrote" in printed
    doc = json.loads(out.read_text())
    assert doc["algorithm"] == "split"
    assert doc["critical_path"], "path must be non-empty"
    assert doc["critical_path_total_s"] == pytest.approx(
        doc["makespan_s"], rel=0.01
    )


# ----------------------------------------------------------------------
# overwrite guards (--force)
# ----------------------------------------------------------------------
def test_metrics_out_refuses_overwrite_without_force(tmp_path, capsys):
    out = tmp_path / "metrics.txt"
    out.write_text("precious\n")
    rc = main(small_args(["metrics", "--out", str(out)]))
    err = capsys.readouterr().err
    assert rc == 2
    assert "refusing to overwrite" in err and "--force" in err
    assert out.read_text() == "precious\n"  # untouched
    rc = main(small_args(["metrics", "--out", str(out), "--force"]))
    assert rc == 0
    assert out.read_text() != "precious\n"


def test_trace_out_refuses_overwrite_without_force(tmp_path, capsys):
    out = tmp_path / "trace.json"
    out.write_text("{}")
    rc = main(small_args(["trace", "--out", str(out)]))
    err = capsys.readouterr().err
    assert rc == 2
    assert "refusing to overwrite" in err
    assert out.read_text() == "{}"


def test_explain_out_refuses_overwrite_without_force(tmp_path, capsys):
    out = tmp_path / "explain.json"
    out.write_text("precious")
    rc = main(small_args(["explain", "--out", str(out)]))
    assert rc == 2
    assert "refusing to overwrite" in capsys.readouterr().err
    assert out.read_text() == "precious"


def test_figures_out_refuses_overwrite_without_force(tmp_path, capsys):
    out = tmp_path / "reports.md"
    out.write_text("precious")
    rc = main(["figures", "--only", "fig02", "--out", str(out)])
    assert rc == 2
    assert "refusing to overwrite" in capsys.readouterr().err
    assert out.read_text() == "precious"


def test_workload_outputs_refuse_overwrite_without_force(tmp_path, capsys):
    # every workload writer flag goes through the same guard, before any
    # simulation work happens
    for flag in ("--out", "--metrics-out", "--baseline", "--snapshot-out"):
        target = tmp_path / f"wl{flag}.json"
        target.write_text("precious")
        rc = main(["workload", "--queries", "1", flag, str(target)])
        assert rc == 2, flag
        assert "refusing to overwrite" in capsys.readouterr().err
        assert target.read_text() == "precious"


def test_fleet_outputs_refuse_overwrite_without_force(tmp_path, capsys):
    target = tmp_path / "fleet.snap.jsonl"
    target.write_text("precious")
    rc = main(["fleet", "--queries", "1", "--snapshot-out", str(target)])
    assert rc == 2
    assert "refusing to overwrite" in capsys.readouterr().err
    assert target.read_text() == "precious"


class _JoinStarted(Exception):
    """Raised by a patched ``Simulator``: the command got past its checks."""


@pytest.fixture
def no_simulator(monkeypatch):
    """Building a simulator raises ``_JoinStarted`` instead."""
    from repro.sim import Simulator

    def started(self, *args, **kwargs):
        raise _JoinStarted

    monkeypatch.setattr(Simulator, "__init__", started)


@pytest.mark.parametrize("argv", [
    small_args(["trace", "--out", "MISSING/t.json"]),
    small_args(["metrics", "--out", "MISSING/m.txt"]),
    small_args(["explain", "--out", "MISSING/e.txt"]),
    ["workload", "--queries", "1", "--snapshot-out", "MISSING/s.jsonl"],
    ["workload", "--queries", "1", "--metrics-out", "MISSING/m.jsonl"],
    ["figures", "--only", "fig02", "--json", "MISSING/b.json"],
    ["figures", "--only", "fig02", "--out", "MISSING/r.md"],
], ids=["trace-out", "metrics-out", "explain-out", "workload-snapshot-out",
        "workload-metrics-out", "figures-json", "figures-out"])
def test_output_in_a_missing_directory_is_refused_before_the_run(
        argv, tmp_path, no_simulator, capsys):
    """One stderr line naming the path, exit 2, and no simulator built."""
    missing = tmp_path / "missing"
    argv = [a.replace("MISSING", str(missing)) for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert str(missing) in err and "Traceback" not in err
    assert not missing.exists()


def test_csv_dir_may_be_missing_because_figures_creates_it(
        tmp_path, no_simulator):
    with pytest.raises(_JoinStarted):  # past the output checks
        main(["figures", "--only", "fig02",
              "--csv-dir", str(tmp_path / "new" / "csv")])


# ----------------------------------------------------------------------
# live telemetry: --live / --snapshot-out / tail / snapshot bench-diff
# ----------------------------------------------------------------------
def wl_args(extra):
    """A tiny three-query workload (sizes in Mtuples via --mix)."""
    return extra + [
        "--queries", "3", "--mix", "hybrid:1:0.004:0.004:2",
        "--arrival-times", "0,0.05,0.1", "--scale", "1.0",
        "--pool", "8", "--sources", "2", "--seed", "7",
    ]


def test_workload_live_snapshot_stream(tmp_path, capsys):
    import json as _json

    snap_path = tmp_path / "run.snap.jsonl"
    rc = main(wl_args(["workload", "--live", "--live-interval", "0.05",
                       "--obs-budget", "4096",
                       "--snapshot-out", str(snap_path)]))
    out = capsys.readouterr().out
    assert rc == 0
    assert "live: t=" in out
    lines = [ln for ln in snap_path.read_text().splitlines() if ln.strip()]
    assert len(lines) >= 2  # periodic snapshot(s) + the final one
    for line in lines:
        assert _json.loads(line)["kind"] == "repro-snapshot"

    rc = main(["tail", str(snap_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "final snapshot" in out
    assert "workload.query_latency_s" in out

    # a snapshot stream self-diffs clean through bench-diff
    rc = main(["bench-diff", str(snap_path), str(snap_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in out


def test_fleet_command_end_to_end(tmp_path, capsys):
    import json as _json

    snap_path = tmp_path / "fleet.snap.jsonl"
    out_path = tmp_path / "fleet.json"
    rc = main(wl_args(["fleet", "--shards", "2", "--cohorts", "2",
                       "--format", "json", "--out", str(out_path),
                       "--snapshot-out", str(snap_path)]))
    printed = capsys.readouterr().out
    assert rc == 0
    assert "wrote" in printed
    doc = _json.loads(out_path.read_text())
    assert doc["n_queries"] == 3
    assert doc["all_valid"] is True and doc["partial"] is False
    assert doc["wall"]["n_shards"] == 2
    assert [q["query"] for q in doc["queries"]] == [0, 1, 2]
    lines = [ln for ln in snap_path.read_text().splitlines() if ln.strip()]
    assert lines  # final merged snapshot is always appended
    final = _json.loads(lines[-1])
    assert final["kind"] == "repro-snapshot"
    # the merged snapshot carries every cohort's shard tag
    assert set(final["shards"]) == {"cohort0", "cohort1"}

    # the stream renders through `repro tail` like a workload stream
    rc = main(["tail", str(snap_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "final snapshot" in out


def test_bench_diff_rejects_mixed_document_kinds(tmp_path, capsys):
    snap = tmp_path / "snap.json"
    snap.write_text('{"kind": "repro-snapshot", "v": 1, "t": 0, '
                    '"shards": ["s"], "counters": {}, "gauges": {}, '
                    '"histograms": {}, "sketches": {}, "rings": {}, '
                    '"spans": {"sample": 1, "outliers": 0, "total": 0, '
                    '"items": []}}\n')
    rc = main(["bench-diff", str(snap), "BENCH_2.json"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "cannot compare" in err


def test_tail_rejects_garbage(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    rc = main(["tail", str(bad)])
    assert rc == 2
    assert "bad.jsonl:1" in capsys.readouterr().err


_VALID_SNAPSHOT = (
    '{"kind": "repro-snapshot", "v": 1, "t": 0.5, "shards": ["s"], '
    '"counters": {"n": 1}, "gauges": {}, "histograms": {}, '
    '"sketches": {}, "rings": {}, "spans": {"sample": 1, "outliers": 0, '
    '"total": 0, "items": []}}'
)


@pytest.mark.parametrize("line, names", [
    ("[]", "object"),                                      # non-object line
    ('{"kind": "repro-snapshot", "v": 1}', "'t'"),         # missing section
    (_VALID_SNAPSHOT.replace('{"n": 1}', "[]"), "'counters'"),  # wrong type
    (_VALID_SNAPSHOT.replace('"sample": 1, ', ""), "'sample'"),  # nested
    (_VALID_SNAPSHOT[: len(_VALID_SNAPSHOT) // 2], ""),    # cut mid-record
], ids=["non-object", "missing-section", "wrong-type", "nested", "truncated"])
def test_malformed_snapshot_is_a_one_line_error(tmp_path, capsys, line, names):
    """Valid-JSON-but-not-a-snapshot and truncated documents exit 2 with
    one ``file: message`` line naming what is wrong — never a traceback
    (``main`` would let one propagate and fail this test)."""
    good = tmp_path / "good.jsonl"
    good.write_text(_VALID_SNAPSHOT + "\n")
    assert main(["tail", str(good)]) == 0
    capsys.readouterr()

    bad = tmp_path / "bad.jsonl"
    bad.write_text(_VALID_SNAPSHOT + "\n" + line + "\n")
    for argv in (["tail", str(bad)], ["bench-diff", str(good), str(bad)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "bad.jsonl" in err and names in err
        assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["tail", "BAD"],
    ["bench-diff", "BAD", "BENCH_2.json"],
    ["bench-diff", "BENCH_2.json", "BAD"],
], ids=["tail", "bench-diff-old", "bench-diff-new"])
def test_non_utf8_input_is_a_one_line_error_naming_the_file(
        argv, tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff\xfe")
    assert main([str(bad) if a == "BAD" else a for a in argv]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert str(bad) in err and "Traceback" not in err


def test_failed_out_write_leaves_existing_file_intact(
        tmp_path, capsys, monkeypatch):
    """--out/--baseline/--json go through one atomic writer: a disk that
    fills mid-write must not truncate the file --force is replacing."""
    import builtins
    import os

    out = tmp_path / "metrics.txt"
    out.write_text("precious\n")
    real_open = builtins.open

    class FullDisk:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[:10])
            self.fh.flush()
            raise OSError(28, "No space left on device")

    def full_disk_open(path, mode="r", *args, **kwargs):
        fh = real_open(path, mode, *args, **kwargs)
        under_test = "w" in mode and str(path).startswith(str(tmp_path))
        return FullDisk(fh) if under_test else fh

    monkeypatch.setattr(builtins, "open", full_disk_open)
    with pytest.raises(OSError):
        main(small_args(["metrics", "--algorithm", "split",
                         "--initial-nodes", "2", "--out", str(out),
                         "--force"]))
    monkeypatch.undo()
    assert out.read_text() == "precious\n"
    assert os.listdir(tmp_path) == ["metrics.txt"]  # no temp file left


# ----------------------------------------------------------------------
# numbers and configs from outside: one line, exit 2, never a traceback
# ----------------------------------------------------------------------
@pytest.mark.parametrize("command", [
    "run", "sweep", "trace", "metrics", "explain", "figures", "workload",
    "fleet",
])
def test_a_refused_config_is_one_line_naming_the_command(
        command, no_simulator, capsys):
    """``--scale 2`` fails the config validators: every command prints
    ``<command>: <message>`` and exits 2 before any simulator is built."""
    assert main([command, "--scale", "2"]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [f"{command}: scale must be in (0, 1], got 2.0"]


REFUSED_SIZES = [
    (["run", "--sources", "0"], "n_sources must be >= 1, got 0"),
    (["workload", "--sources", "0"], "n_sources must be >= 1, got 0"),
    (["run", "--r-tuples", "-1"], "r_tuples must be >= 1, got -1000000"),
    (["run", "--node-memory-mb", "0"], "hash_memory_bytes must be >= 1, got 0"),
    *(([command, "--initial-nodes", "2,4"],
       "--initial-nodes takes one value (sweep takes a list)")
      for command in ("run", "trace", "metrics", "explain")),
]


@pytest.mark.parametrize("argv,message", REFUSED_SIZES,
                         ids=["-".join(argv) for argv, _ in REFUSED_SIZES])
def test_a_refused_size_is_one_line_naming_the_command(
        argv, message, no_simulator, capsys):
    """Cluster and relation sizes are refused by the config dataclasses,
    and a list of initial nodes by every command but ``sweep``: one
    ``<command>: <message>`` line, exit 2, no simulator built."""
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [f"{argv[0]}: {message}"]


@pytest.mark.parametrize("argv", [
    ["bench-diff", "--threshold", "nan", "BENCH_2.json", "BENCH_2.json"],
    ["workload", "--arrival-rate", "nan"],
    ["workload", "--live-interval", "nan"],
    ["run", "--heartbeat-interval", "inf"],
    ["run", "--sigma", "nan"],
    ["run", "--zipf", "nan"],
    ["run", "--node-memory-mb", "nan"],
    ["run", "--r-tuples=-inf"],
    ["figures", "--scale", "nan"],
    ["run", "--crash-node", "3@nan"],
], ids=lambda argv: "-".join(argv[:3]))
def test_a_non_finite_flag_is_refused_by_the_parser(
        argv, no_simulator, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    err = capsys.readouterr().err
    assert exit_.value.code == 2
    assert "finite" in err.splitlines()[-1] and "Traceback" not in err


@pytest.mark.parametrize("argv,needle", [
    (["workload", "--mix", "hybrid:nan"], "mix entry 'hybrid:nan'"),
    (["workload", "--mix", "hybrid:1:2:inf"], "'inf' is not a finite"),
    (["workload", "--arrival-times", "0,nan"], "--arrival-times: 'nan'"),
], ids=["mix-weight", "mix-size", "arrival-times"])
def test_a_non_finite_list_field_is_a_one_line_error(
        argv, needle, no_simulator, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and needle in err


@pytest.mark.parametrize("plan", [
    '{"slowdowns": [{"t0": 0, "t1": 1, "factor": NaN}]}',
    '{"crashes": [{"node": 1, "at_time": NaN}]}',
    '{"heartbeat_interval_s": Infinity}',
    '{"kill_scheduler_at": -Infinity}',
    '{"drop_prob": 1e400}',
], ids=["factor", "at-time", "heartbeat", "kill-at", "overflow"])
def test_a_non_finite_fault_plan_literal_is_refused(
        plan, tmp_path, no_simulator, capsys):
    from repro.faults import FaultPlan, FaultPlanError

    with pytest.raises(FaultPlanError, match="not a finite number"):
        FaultPlan.from_json(plan)
    path = tmp_path / "plan.json"
    path.write_text(plan)
    with pytest.raises(SystemExit) as exit_:
        main(["run", "--fault-plan", str(path)])
    err = capsys.readouterr().err
    assert exit_.value.code == 2
    assert "not a finite number" in err and "Traceback" not in err
