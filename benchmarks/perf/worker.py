"""One workload in one fresh interpreter; spawned by ``run.py``.

Timed passes first (``validate=False``, tracing and lockdep off), each
between two runs of the calibration kernel that scale its seconds to the
reference speed of the host (``calibrate.py``); then the validated pass, so
that ``peak_rss_mb`` is read before the sequential oracle — which alone
doubles the resident set on ``join-large`` — has run.  The traced pass
comes last and feeds no end-to-end number.

Writes one JSON document to ``--result``.  Keep module level import-light:
``run_fleet``'s spawn children re-import this file as ``__mp_main__``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any

from procs import die_with_parent

if __name__ in ("__main__", "__mp_main__"):
    # run.py's child, or one of run_fleet's spawn workers re-importing this
    # file: neither outlives the process that started it
    die_with_parent()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
DEFAULT_SEED = 20040607  # WorkloadSpec().seed: cells line up with BENCH_2
MIN_PASSES = 5
INPUT_BUILDS = 7


def _cpu_s() -> float:
    """Process CPU seconds so far, self plus reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _peak_rss_mb() -> float:
    """``ru_maxrss`` of this interpreter plus its largest reaped child."""
    return sum(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def load_references(workload: str, seed: int, quick: bool,
                    expected_path: Path) -> list[dict[str, dict[str, Any]]]:
    """``[{op_id: {simulated value: expected}}]`` for the default seed.

    An operation must agree with every reference that names it, on every
    value the reference holds.  Other seeds have no reference: they get
    the oracle and pass-to-pass determinism only.
    """
    if seed != DEFAULT_SEED:
        return []
    doc = json.loads(expected_path.read_text())
    refs = [doc["quick" if quick else "full"][workload]]
    bench2 = ROOT / "BENCH_2.json"
    if workload == "grid-small":
        if bench2.exists():
            series = json.loads(bench2.read_text())["series"]
            refs.append({
                f"{alg}/{nodes}/uniform": cell
                for alg, by_nodes in series.items()
                for nodes, cell in by_nodes.items()
            })
        else:
            print("warning: BENCH_2.json not found; grid-small is checked "
                  "against expected.json only", file=sys.stderr)
    return refs


class Checker:
    """Counts attempted and failed operations over every pass of a run."""

    def __init__(self, op_ids: list[str],
                 references: list[dict[str, dict[str, Any]]]) -> None:
        self.op_ids = op_ids
        self.references = references
        self.first: dict[str, dict[str, Any]] | None = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def _verdict(self, op: Any) -> str | None:
        if op.error is not None:
            return op.error
        for ref in self.references:
            want = ref.get(op.id)
            if want is None:
                continue
            for key, value in want.items():
                if op.sim.get(key) != value:
                    return (f"{key}={op.sim.get(key)!r} differs from the "
                            f"reference {value!r}")
        if self.first is not None and self.first.get(op.id) != op.sim:
            return "simulated values differ between two passes of one seed"
        return None

    def check(self, label: str, ops: list[Any]) -> None:
        seen = {op.id for op in ops}
        assert seen == set(self.op_ids), f"pass ran {seen}, not {self.op_ids}"
        for op in ops:
            self.attempted += 1
            why = self._verdict(op)
            if why is not None:
                self.failed += 1
                self.failures.append(f"{label} {op.id}: {why}")
        if self.first is None:
            self.first = {op.id: op.sim for op in ops if op.error is None}


def run_workload_benchmark(args: argparse.Namespace) -> dict[str, Any]:
    from calibrate import Scale
    from layers import SpanLog, profile_layers

    spans = SpanLog()
    with spans.span("setup.import"):
        from workloads import WORKLOADS
    wl = WORKLOADS[args.workload]
    cores = len(os.sched_getaffinity(0))
    if wl.processes > cores:
        sys.exit(f"error: {wl.name} keeps {wl.processes} processes busy but "
                 f"only {cores} cores are available; refusing to time it")

    build_walls = []
    with spans.span("setup.inputs"):
        for _ in range(INPUT_BUILDS):
            t0 = time.perf_counter()
            inputs = wl.build(args.seed, args.quick)
            build_walls.append(time.perf_counter() - t0)
    tuples = wl.tuples(inputs)
    references = [] if args.write_expected else load_references(
        args.workload, args.seed, args.quick, Path(args.expected))
    op_ids = wl.op_ids(inputs)
    if references and set(references[0]) != set(op_ids):
        sys.exit(f"error: {args.expected} does not pin the operations of "
                 f"{wl.name}; re-run with --write-expected")
    checker = Checker(op_ids, references)

    # --- timed passes: closed loop, one client -------------------------
    walls: list[float] = []  # scaled to the reference speed, like cpus
    cpus: list[float] = []
    raw_walls: list[float] = []  # as the clock read them
    raw_cpus: list[float] = []
    scale = Scale()
    scale.tick()
    op_walls: dict[str, list[float]] = {}
    host: dict[str, list[float]] = {}
    counts: dict[str, float] = {}
    started = time.perf_counter()
    while len(walls) < (1 if args.quick else MIN_PASSES) or (
        not args.quick  # the self-test's sizes: one pass, whatever --seconds
        and time.perf_counter() - started + statistics.median(raw_walls)
        <= args.seconds
    ):
        with spans.span(f"pass.timed.{len(walls)}") as sp:
            cpu0 = _cpu_s()
            result = wl.run_pass(inputs, False, spans)
            raw_cpus.append(_cpu_s() - cpu0)
        raw_walls.append(sp.end - sp.start)
        scale.tick()
        walls.append(scale.scaled(raw_walls[-1]))
        cpus.append(scale.scaled(raw_cpus[-1]))
        checker.check(f"timed pass {len(walls) - 1}", result.ops)
        counts = counts or result.counts
        for op in result.ops:
            if op.wall_s is not None:
                op_walls.setdefault(op.id, []).append(op.wall_s)
        for key, value in result.host.items():
            host.setdefault(key, []).append(value)
    peak_rss_mb = _peak_rss_mb()

    # --- validated pass: every operation against the oracle -------------
    with spans.span("pass.validated") as sp:
        validated = wl.run_pass(inputs, True, spans)
    validated_wall = sp.end - sp.start
    checker.check("validated pass", validated.ops)

    doc: dict[str, Any] = {
        "workload": wl.name,
        "seed": args.seed,
        "quick": args.quick,
        "tuples": tuples,
        "inputs_s": statistics.median(build_walls),
        "samples": {
            "wall_s": walls,
            "cpu_s": cpus,
            "tuples_per_s": [tuples / w for w in walls],
        },
        "raw": {"wall_s": raw_walls, "cpu_s": raw_cpus, "kernel_s": scale.kernel},
        "host_slowdown": scale.slowdown(),
        "peak_rss_mb": peak_rss_mb,
        "validated_wall_s": validated_wall,
        "counts": counts,
        "host": {k: statistics.median(v) for k, v in host.items()},
        "op_wall_s": {k: statistics.median(v) for k, v in op_walls.items()},
        "ops": checker.first or {},
    }

    # --- traced pass: cProfile by layer; feeds no end-to-end number ------
    if args.trace:
        with spans.span("pass.traced") as sp:
            traced, layers = profile_layers(
                lambda: wl.run_pass(inputs, False, spans))
        traced_wall = sp.end - sp.start
        checker.check("traced pass", traced.ops)
        if wl.profile_pass is not None:
            # Keep what the parent process did inside repro (spawn, pipes,
            # merge); its remaining time is waiting on the workers.  The
            # cohort simulations themselves are profiled in-process.
            with spans.span("pass.traced.inprocess"):
                _, inner = profile_layers(lambda: wl.profile_pass(inputs, spans))
            for layer, bucket in inner.items():
                if layer in ("numpy", "other"):
                    layers[layer] = bucket
                else:
                    for key in bucket:
                        layers[layer][key] += bucket[key]
        doc["layers"] = layers
        doc["trace_overhead_frac"] = traced_wall / statistics.median(raw_walls) - 1.0
        spans.write(HERE / "out" / f"spans-{wl.name}.json")
    doc.update(attempted=checker.attempted, failed=checker.failed,
               failures=checker.failures[:20])
    return doc


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--write-expected", action="store_true")
    ap.add_argument("--expected", default=str(HERE / "expected.json"))
    ap.add_argument("--result", required=True)
    args = ap.parse_args()
    doc = run_workload_benchmark(args)
    Path(args.result).write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
