"""Self-test of the perf harness.  Run explicitly (not part of tier-1):

    PYTHONPATH=src python -m pytest benchmarks/perf/test_perfbench.py

Everything goes through ``run.py`` as a subprocess, in ``--quick`` sizes
(1 timed pass, ``grid-small`` cut to 2 cells, 10- and 8-query workloads).
"""

import copy
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*argv, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    """One traced --quick run of all four workloads: (document, seconds)."""
    out = tmp_path_factory.mktemp("perf") / "quick.json"
    t0 = time.perf_counter()
    proc = run("--quick", "--traced", "--seconds", "1", "--out", str(out))
    elapsed = time.perf_counter() - t0
    failed = [line for line in proc.stdout.splitlines() if "FAILED" in line]
    assert proc.returncode == 0, (failed, proc.stderr[-2000:])
    return json.loads(out.read_text()), elapsed, out


def test_quick_mode_is_quick_and_clean(quick):
    doc, elapsed, _ = quick
    assert elapsed < 60, f"--quick --traced took {elapsed:.0f} s"
    for name, res in doc["workloads"].items():
        assert res["failed"] == 0 and res["attempted"] > 0, (name, res["failures"])
        assert res["passes"] == 1
    env = doc["env"]
    for key in ("cpu", "nproc", "python", "numpy", "git_commit", "git_dirty",
                "loadavg_start", "loadavg_end"):
        assert key in env


def test_schema_matches_benchmark_json(quick):
    """Every workload and metric BENCHMARK.json names is reported, with the
    same unit, and nothing is reported that it does not name."""
    doc, _, _ = quick
    assert [w["name"] for w in SPEC["workloads"]] == list(doc["workloads"])
    for res in doc["workloads"].values():
        for section in ("end_to_end", "per_layer"):
            want = {m["name"]: m["unit"] for m in SPEC[section]}
            got = {name: m["unit"] for name, m in res[section].items()}
            assert got == want, (section, set(got) ^ set(want))


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_driver_line(trace, section):
    proc = run("--quick", "--workload", "grid-small", "--seed", "7",
               "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 < line["attempted"]
    assert set(line["metrics"]) == {m["name"] for m in SPEC[section]}
    for m in SPEC[section]:
        got = line["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"]
    if section == "end_to_end":
        assert all(m["value"] > 0 for m in line["metrics"].values())


def test_wrong_reference_fails_operations(tmp_path):
    expected = json.loads((HERE / "expected.json").read_text())
    expected["quick"]["grid-small"]["hybrid/2/uniform"]["matches"] += 1
    wrong = tmp_path / "expected.json"
    wrong.write_text(json.dumps(expected))
    proc = run("--quick", "--workload", "grid-small", "--seconds", "1",
               "--expected", str(wrong))
    assert proc.returncode == 1
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    # the cell fails in the timed pass and again in the validated pass
    assert line["correct"] is False and line["failed"] == 2
    assert "failed_frac" in proc.stdout and "differs from the reference" in proc.stdout


def test_compare_against_itself_and_against_a_slower_copy(quick, tmp_path):
    doc, _, path = quick
    same = run("compare", str(path), str(path))
    assert same.returncode == 0 and "PASS" in same.stdout, same.stdout
    slower = copy.deepcopy(doc)
    wall = slower["workloads"]["join-large"]["end_to_end"]["wall_s"]
    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "wall_s")
    factor = 1.0 + 2.0 * bound
    for key in ("median", "q1", "q3"):
        wall[key] *= factor
    wall["values"] = [v * factor for v in wall["values"]]
    slow_path = tmp_path / "slower.json"
    slow_path.write_text(json.dumps(slower))
    worse = run("compare", str(path), str(slow_path))
    assert worse.returncode == 1 and "regression" in worse.stdout, worse.stdout
    # the other direction reads as better, not as a regression
    assert run("compare", str(slow_path), str(path)).returncode == 0


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files there is nothing to measure: non-zero exit, no result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("--workload", "grid-small", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path,
               script=tmp_path / "benchmarks" / "perf" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _alive(pid):
    """Running or sleeping — neither gone nor a zombie awaiting its reaper."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(") ", 1)[1].split()[0] != "Z"


@pytest.mark.parametrize("sig, code", [(signal.SIGTERM, 143), (signal.SIGKILL, -9)])
def test_nothing_outlives_a_stopped_run(sig, code):
    """Signalled or killed outright mid-pass, ``run.py`` takes the worker, the
    two shard processes and multiprocessing's resource tracker with it."""
    sys.path.insert(0, str(HERE))
    from procs import descendants
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--quick", "--workload",
         "fleet-sparse", "--seconds", "60"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    try:
        below = set()
        deadline = time.monotonic() + 60
        while len(below) < 4 and time.monotonic() < deadline:
            time.sleep(0.2)  # worker + resource tracker + 2 shards
            below = set(descendants(proc.pid))
        assert len(below) >= 4, below
        proc.send_signal(sig)
        out, _ = proc.communicate(timeout=30)
    finally:
        proc.kill()
    assert proc.returncode == code
    assert '"metrics"' not in out
    deadline = time.monotonic() + 5
    while any(map(_alive, below)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(map(_alive, below)), [p for p in below if _alive(p)]
