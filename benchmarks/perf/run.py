"""The wall-clock benchmark: what it costs in host time to get the model's answer.

    python benchmarks/perf/run.py [--workload NAME]... [--seed N] [--seconds S]
                                  [--traced] [--probes] [--quick]
                                  [--out FILE] [--write-expected]
    python benchmarks/perf/run.py compare A.json B.json

Runs each workload in its own fresh, single-threaded interpreter
(``worker.py``), checks every operation's simulated values, and prints every
metric by name with its unit.  *Host* time is measured; *simulated* time,
match counts and event counts are the model's answer — checked, never
scored.  With one ``--workload`` the last line of standard output is the JSON
object BENCHMARK.json's driver reads.  See README.md.
"""

from __future__ import annotations

import argparse
import functools
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from calibrate import REFERENCE_S, Scale
from compare import compare
from procs import (Stopped, become_subreaper, die_with_parent, raise_on_signals,
                   stop_descendants)
from worker import DEFAULT_SEED, HERE, ROOT

WORKLOAD_NAMES = ("grid-small", "join-large", "workload-contended", "fleet-sparse")
IMPORT_RUNS = 7
#: single-threaded numerics: set before any child imports NumPy
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
OUT = HERE / "out"
#: the driver allows a run of one workload 180 s; past this the harness stops
#: itself cleanly
DEADLINE_S = 150


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    # the program reads these: lockdep must follow the configs (off in timed
    # passes, on in its probe), not pytest's presence or the caller's shell
    for var in ("REPRO_LOCKDEP", "PYTEST_CURRENT_TEST", "REPRO_FLEET_CRASH_SHARD"):
        env.pop(var, None)
    # exported, not sys.path-patched: run_fleet's spawn children need it too
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    return env


def _run(argv: list[str], **kwargs: Any) -> subprocess.CompletedProcess:
    """``subprocess.run`` of a child that cannot outlive this process."""
    return subprocess.run(
        argv, preexec_fn=functools.partial(die_with_parent, os.getpid()),
        check=True, **kwargs)


def _git(*argv: str) -> str | None:
    try:
        return _run(["git", "-C", str(ROOT), *argv], capture_output=True,
                    text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None  # a checkout without git: the driver's


def fingerprint() -> dict[str, Any]:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    status = _git("status", "--porcelain")
    return {
        "cpu": cpu,
        "nproc": nproc(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "git_commit": _git("rev-parse", "HEAD") or "unknown",
        "git_dirty": None if status is None else bool(status),
        "loadavg_start": os.getloadavg(),
    }


def measure_import(env: dict[str, str]) -> list[float]:
    """Fresh-interpreter ``import repro.cli``, start to exit, IMPORT_RUNS times,
    each scaled to the reference speed of the host."""
    walls = []
    scale = Scale()
    scale.tick()
    for _ in range(IMPORT_RUNS):
        t0 = time.perf_counter()
        _run([sys.executable, "-c", "import repro.cli"], env=env)
        wall = time.perf_counter() - t0
        scale.tick()
        walls.append(scale.scaled(wall))
    return walls


def run_child(script: str, argv: list[str], env: dict[str, str],
              result: Path) -> dict[str, Any]:
    """Run one harness script to completion and load the document it wrote."""
    OUT.mkdir(exist_ok=True)
    result.unlink(missing_ok=True)
    _run([sys.executable, str(HERE / script), *argv, "--result", str(result)],
         env=env, stdout=sys.stderr)
    return json.loads(result.read_text())


def summarize(values: list[float], unit: str) -> dict[str, Any]:
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0],) * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "unit": unit, "values": values}


def workload_result(doc: dict[str, Any], import_walls: list[float],
                    probes: dict[str, Any] | None) -> dict[str, Any]:
    """Fold a worker's document into named metrics."""
    samples = doc["samples"]
    end_to_end = {
        "wall_s": summarize(samples["wall_s"], "s"),
        "cpu_s": summarize(samples["cpu_s"], "s"),
        "tuples_per_s": summarize(samples["tuples_per_s"], "1/s"),
        "peak_rss_mb": summarize([doc["peak_rss_mb"]], "MB"),
        "setup_s": summarize([w + doc["inputs_s"] for w in import_walls], "s"),
    }
    wall = end_to_end["wall_s"]["median"]
    counts = doc["counts"]
    events = counts.get("sim.events", 0.0)

    def metric(value: float, unit: str) -> dict[str, Any]:
        return {"value": value, "unit": unit}

    per_layer = {key: metric(value, "count") for key, value in counts.items()
                 if key not in ("queries", "dataplane.chunks_routed")}
    per_layer.update({
        "sim.events_per_chunk": metric(
            events / max(counts.get("dataplane.chunks_routed", 0.0), 1.0), "count"),
        "sim.events_per_query": metric(
            events / max(counts.get("queries", 0.0), 1.0), "count"),
        "sim.events_per_s": metric(events / wall, "1/s"),
        # in one process there is no fleet: nothing on top, nothing to balance
        "workload.fleet.overhead_s": metric(
            doc["host"].get("workload.fleet.overhead_s", 0.0), "s"),
        "workload.fleet.shard_imbalance": metric(
            doc["host"].get("workload.fleet.shard_imbalance", 1.0), "ratio"),
        "seqjoin.validate_s": metric(
            doc["validated_wall_s"] - statistics.median(doc["raw"]["wall_s"]), "s"),
        "host.slowdown": metric(doc["host_slowdown"], "ratio"),
    })
    if "layers" in doc:
        for layer, bucket in doc["layers"].items():
            per_layer[f"{layer}.self_s"] = metric(bucket["self_s"], "s")
            per_layer[f"{layer}.calls"] = metric(bucket["calls"], "count")
        per_layer["trace.overhead_frac"] = metric(doc["trace_overhead_frac"], "frac")
    per_layer.update(probes or {})
    return {
        "passes": end_to_end["wall_s"]["n"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "failed_frac": doc["failed"] / doc["attempted"],
        "failures": doc["failures"],
        "tuples": doc["tuples"],
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "raw": doc["raw"],
        "counts": counts,
        "ops": doc["ops"],
        "op_wall_s": doc["op_wall_s"],
    }


def print_report(name: str, res: dict[str, Any], spec: dict[str, Any]) -> None:
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    print(f"\n== {name}: {res['passes']} timed passes + 1 validated, "
          f"{res['tuples']} tuples a pass")
    for key, m in res["end_to_end"].items():
        how = bounds.get(key)
        note = (f"{how['better']} is better, bound {how['bound']:.0%}"
                if how else "")
        print(f"  {key:14s} {m['median']:14.6g} {m['unit']:4s} "
              f"[q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']}]  {note}")
    slowdown = res["per_layer"]["host.slowdown"]["value"]
    print(f"  times are at the reference speed of the host (calibration kernel "
          f"{REFERENCE_S} s); it ran {slowdown:.3f} x as slow: as the clock read "
          f"them, wall_s {statistics.median(res['raw']['wall_s']):.6g}, "
          f"cpu_s {statistics.median(res['raw']['cpu_s']):.6g}")
    print(f"  {'failed_frac':14s} {res['failed_frac']:14.6g} frac "
          f"[{res['failed']} failed of {res['attempted']} operations]  "
          "any increase is a regression")
    for line in res["failures"]:
        print(f"    FAILED {line}")
    for op_id, wall in res["op_wall_s"].items():
        print(f"  span {op_id:28s} {wall:10.4f} s  (median over timed passes, "
              "as the clock read it)")
    print("  -- per layer")
    for key, m in sorted(res["per_layer"].items()):
        print(f"  {key:44s} {m['value']:16.6g} {m['unit']}")


def contract_line(res: dict[str, Any], spec: dict[str, Any], trace: bool) -> str:
    if trace:
        metrics = {m["name"]: res["per_layer"][m["name"]] for m in spec["per_layer"]}
    else:
        metrics = {
            m["name"]: {"value": res["end_to_end"][m["name"]]["median"],
                        "unit": res["end_to_end"][m["name"]]["unit"]}
            for m in spec["end_to_end"]
        }
    return json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    })


def cmd_run(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        print(f"error: {ROOT / 'src' / 'repro'} not found — the benchmark "
              "measures the program in this checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workload or list(WORKLOAD_NAMES)
    trace = bool(args.trace)
    env = child_env()
    fp = fingerprint()
    load1 = fp["loadavg_start"][0]
    if load1 > 0.5 * fp["nproc"]:
        print(f"warning: 1-min load average {load1:.2f} exceeds half of "
              f"{fp['nproc']} cores — timings will be noisy", file=sys.stderr)

    probes = None
    if trace or args.probes:
        probes = run_child(
            "probes.py", ["--effort", "full" if args.probes else "brief"],
            env, OUT / "probes.json")

    import_walls = measure_import(env)  # the same for every workload
    results: dict[str, Any] = {}
    for name in names:
        argv = ["--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(int(trace)),
                "--expected", args.expected]
        argv += ["--quick"] * args.quick + ["--write-expected"] * args.write_expected
        doc = run_child("worker.py", argv, env, OUT / f"result-{name}.json")
        results[name] = workload_result(doc, import_walls, probes)
        print_report(name, results[name], spec)

    fp["loadavg_end"] = os.getloadavg()
    document = {
        "env": fp, "seed": args.seed, "seconds": args.seconds,
        "quick": args.quick, "traced": trace, "workloads": results,
    }
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=1))
    failed = sum(r["failed"] for r in results.values())
    if args.write_expected:
        if failed or args.seed != DEFAULT_SEED:
            print("error: expected.json is written only from a clean run at "
                  "the default seed", file=sys.stderr)
            return 1
        path = Path(args.expected)
        expected = json.loads(path.read_text()) if path.exists() else {}
        expected["seed"] = DEFAULT_SEED
        section = expected.setdefault("quick" if args.quick else "full", {})
        section.update({name: r["ops"] for name, r in results.items()})
        path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}", file=sys.stderr)
    if len(names) == 1:
        print(contract_line(results[names[0]], spec, trace))
    return 1 if failed else 0


def cmd_compare(args: argparse.Namespace) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines, ok = compare(json.loads(Path(args.a).read_text()),
                        json.loads(Path(args.b).read_text()), spec)
    print("\n".join(lines))
    return 0 if ok else 1


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        ap = argparse.ArgumentParser(prog="run.py compare")
        ap.add_argument("a", help="base result file (from --out)")
        ap.add_argument("b", help="result file to judge against the base")
        return cmd_compare(ap.parse_args(argv[1:]))
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", action="append", choices=WORKLOAD_NAMES,
                    help="repeatable; default: all four")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0,
                    help="timed passes go on for this long (never fewer than 5)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: one extra profiled pass per workload, spans "
                         "written to out/, brief layer probes; the JSON line "
                         "then carries the per-layer metrics")
    ap.add_argument("--traced", action="store_const", const=1, dest="trace",
                    help="same as --trace 1")
    ap.add_argument("--probes", action="store_true",
                    help="layer probes at full effort (7 x 0.2 s each)")
    ap.add_argument("--quick", action="store_true",
                    help="self-test sizes: 1 timed pass of cut-down workloads")
    ap.add_argument("--out", help="write the full result document here")
    ap.add_argument("--expected", default=str(HERE / "expected.json"))
    ap.add_argument("--write-expected", action="store_true",
                    help="pin this run's simulated values as the reference")
    args = ap.parse_args(argv)
    # Nothing this run starts outlives it, whichever way it ends (procs.py).
    become_subreaper()
    raise_on_signals(
        DEADLINE_S * (len(args.workload or WORKLOAD_NAMES) + args.probes))
    grace_s = 0.0
    try:
        code = cmd_run(args)
        grace_s = 2.0  # helpers that end on their own get the time to
        return code
    except Stopped as exc:
        print(f"error: {exc}; stopping every process of this run",
              file=sys.stderr)
        return exc.exit_code
    finally:
        stop_descendants(grace_s)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
