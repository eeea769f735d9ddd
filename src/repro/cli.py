"""Command-line interface: ``python -m repro <command>`` (or ``repro``).

Eleven commands:

* ``run``     — one simulated join, printing the phase/traffic summary.
* ``workload`` — many concurrent joins over one shared node pool, with
  admission control and per-query latency/queueing percentiles.
* ``fleet``   — the workload sharded across OS worker processes by
  deterministic query cohorts, merged back into one fleet-wide result
  (shard-count invariant; see ``docs/FLEET.md``).
* ``sweep``   — a grid of runs (algorithms x initial nodes), as a table.
* ``figures`` — regenerate the paper's figures (or a subset) and print /
  save the reproduction reports.
* ``trace``   — run one join and export its execution trace (Chrome
  ``trace_event`` JSON for chrome://tracing / Perfetto, or JSONL).
* ``metrics`` — run one join and dump the metrics registry snapshot.
* ``explain`` — run one join and print the causal critical-path /
  bottleneck report (see ``docs/OBSERVABILITY.md``).
* ``bench-diff`` — compare two ``BENCH_*.json`` baselines or two
  observability snapshots (``--snapshot-out`` files; auto-detected);
  nonzero exit on regressions beyond the threshold (the CI perf gate).
* ``tail``    — render a ``--snapshot-out`` JSONL snapshot stream as
  per-snapshot progress lines plus a final-state digest.
* ``lint``    — run the repo's own static-analysis passes (determinism,
  fault safety, protocol exhaustiveness, wait graph); see
  ``docs/STATIC_ANALYSIS.md``.

Examples::

    python -m repro run --algorithm hybrid --initial-nodes 4
    python -m repro run --algorithm split --sigma 0.0001 --trace
    python -m repro workload --queries 6 --pool 8 --policy fair
    python -m repro workload --mix hybrid:2:2:2:2 --mix ooc:1:4:4:2 --format json
    python -m repro workload --queries 8 --live --obs-budget 65536 \\
        --snapshot-out run.snap.jsonl
    python -m repro fleet --queries 200 --shards 4 --arrival-profile bursty
    python -m repro tail run.snap.jsonl
    python -m repro sweep --initial-nodes 1,2,4,8,16
    python -m repro figures --only fig02 fig10 --out reports.md
    python -m repro trace --algorithm hybrid --format chrome --out trace.json
    python -m repro metrics --algorithm split --format table
    python -m repro explain --algorithm replicate --sigma 0.05
    python -m repro bench-diff BENCH_2.json BENCH_new.json --threshold 2
    python -m repro lint
    python -m repro lint --format sarif src/repro/core
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import replace
from collections.abc import Callable, Iterator, Sequence
from typing import TYPE_CHECKING, Any

from .config import (
    Algorithm,
    ClusterSpec,
    Distribution,
    FleetConfig,
    MTUPLES,
    ObsConfig,
    PoolPolicy,
    QueryMixEntry,
    RunConfig,
    SplitPolicy,
    Topology,
    WorkloadConfig,
    WorkloadSpec,
)
from .faults import (
    FaultPlan,
    FaultPlanError,
    UnrecoverableFaultError,
    crash_specs_from_cli,
    finite_float,
)
from .obs import ObsBudget

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from .core import JoinRunResult
    from .obs import Snapshot

__all__ = ["main", "build_parser"]


def _add_workload_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--r-tuples", type=finite_float, default=10.0, metavar="M",
                   help="build relation size in millions of tuples "
                        "(paper units; default 10)")
    p.add_argument("--s-tuples", type=finite_float, default=10.0, metavar="M",
                   help="probe relation size in millions of tuples")
    p.add_argument("--tuple-bytes", type=int, default=100)
    p.add_argument("--sigma", type=finite_float, default=None,
                   help="Gaussian skew (fraction of the value range); "
                        "omit for uniform data")
    p.add_argument("--zipf", type=finite_float, default=None, metavar="S",
                   help="Zipf exponent (> 1); mutually exclusive with "
                        "--sigma")
    p.add_argument("--chunk-tuples", type=int, default=10_000)
    p.add_argument("--scale", type=finite_float, default=WorkloadSpec().scale,
                   help="down-scaling factor (default 1/50); 1.0 = full size")
    p.add_argument("--seed", type=int, default=WorkloadSpec().seed)


def _add_cluster_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--initial-nodes", type=str, default="4",
                   help="initial join nodes; a comma list sweeps (sweep "
                        "command only)")
    p.add_argument("--pool", type=int, default=24,
                   help="potential join nodes (default 24)")
    p.add_argument("--sources", type=int, default=4,
                   help="data-source nodes (default 4)")
    p.add_argument("--node-memory-mb", type=finite_float, default=64.0,
                   help="hash-table budget per node in MB (default 64)")
    p.add_argument("--topology", default="switched",
                   choices=[t.value for t in Topology],
                   help="interconnect: switched ports or one shared hub")
    p.add_argument("--sources-from-disk", action="store_true",
                   help="sources read relations from disk instead of "
                        "generating them")


def _add_fault_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--fault-plan", metavar="PATH",
                   help="JSON fault plan (see docs/FAULTS.md for the schema)")
    p.add_argument("--drop-prob", type=finite_float, default=None, metavar="P",
                   help="drop every inter-node message with probability P "
                        "(sender retransmits; overrides the plan's value)")
    p.add_argument("--crash-node", action="append", default=[],
                   metavar="N[@T|@phase:NAME]",
                   help="fail-stop a pool node: pool index, optionally at "
                        "sim time T or on phase entry (build/reshuffle/"
                        "probe/ooc); repeatable.  Crashing a *working* node "
                        "requires the membership layer (--membership or any "
                        "control-plane knob), which recovers its hash range")
    p.add_argument("--membership", action="store_true",
                   help="arm the control-plane fault-tolerance layer "
                        "(heartbeat failure detector + standby scheduler; "
                        "see docs/FAULTS.md)")
    p.add_argument("--heartbeat-interval", type=finite_float, default=None,
                   metavar="S",
                   help="heartbeat period in simulated seconds (implies "
                        "--membership; suspect/confirm timeouts derive "
                        "from it unless pinned in the fault plan)")
    p.add_argument("--kill-scheduler-at", type=finite_float, default=None,
                   metavar="T",
                   help="fail-stop the primary scheduler at sim time T "
                        "(implies --membership; the standby takes over)")
    p.add_argument("--lockdep", action="store_true",
                   help="arm the runtime deadlock detector (sim-time "
                        "wait-for graph over resources and mailboxes; "
                        "pure observer, on by default under pytest — see "
                        "docs/STATIC_ANALYSIS.md)")


def _faults(args: argparse.Namespace) -> FaultPlan | None:
    """Fold the fault CLI flags into one plan.

    Returns ``None`` when no fault flag was given, which keeps the run on
    the exact fault-free code path (no injector is constructed at all).
    """
    plan = FaultPlan.from_file(args.fault_plan) if args.fault_plan else None
    if args.drop_prob is not None:
        plan = replace(plan or FaultPlan(), drop_prob=args.drop_prob)
    if args.membership:
        plan = replace(plan or FaultPlan(), membership=True)
    if args.heartbeat_interval is not None:
        plan = replace(plan or FaultPlan(),
                       heartbeat_interval_s=args.heartbeat_interval)
    if args.kill_scheduler_at is not None:
        plan = replace(plan or FaultPlan(),
                       kill_scheduler_at=args.kill_scheduler_at)
    if args.crash_node:
        plan = (plan or FaultPlan()).with_crashes(
            *crash_specs_from_cli(args.crash_node)
        )
    return plan


def _parse_arrival_times(text: str | None) -> tuple[float, ...]:
    """Parse ``--arrival-times``: comma-separated floats, whitespace and
    empty segments (e.g. a trailing comma) tolerated; a non-numeric
    segment raises a ValueError that names the flag."""
    if not text:
        return ()
    times = []
    for segment in text.split(","):
        segment = segment.strip()
        if not segment:
            continue
        try:
            times.append(finite_float(segment))
        except ValueError:
            raise ValueError(
                f"--arrival-times: {segment!r} is not a finite number (expected "
                f"a comma-separated list like 1.0,2.5,4.0)"
            ) from None
    return tuple(times)


def _workload(args: argparse.Namespace) -> WorkloadSpec:
    # --zipf and --sigma are rejected as a pair up front (see main()), so
    # the branches below never silently discard a skew request.
    if args.zipf is not None:
        dist, sigma = Distribution.ZIPF, 0.001
    elif args.sigma is not None:
        dist, sigma = Distribution.GAUSSIAN, args.sigma
    else:
        dist, sigma = Distribution.UNIFORM, 0.001
    return WorkloadSpec(
        r_tuples=int(args.r_tuples * MTUPLES),
        s_tuples=int(args.s_tuples * MTUPLES),
        tuple_bytes=args.tuple_bytes,
        distribution=dist,
        gauss_sigma=sigma,
        zipf_s=args.zipf if args.zipf is not None else 1.1,
        chunk_tuples=args.chunk_tuples,
        scale=args.scale,
        seed=args.seed,
    )


def _cluster(args: argparse.Namespace) -> ClusterSpec:
    return ClusterSpec(
        n_sources=args.sources,
        n_potential_nodes=args.pool,
        hash_memory_bytes=int(args.node_memory_mb * 1024 * 1024),
        topology=Topology(args.topology),
    )


class _ConfigError(Exception):
    """Flags a config validator refused: ``main`` prints the message as
    one ``<command>: <message>`` line and exits 2."""


@contextmanager
def _config_errors() -> Iterator[None]:
    """Config construction: a validator's ValueError becomes a
    :class:`_ConfigError`.  Never wrap a simulation in this — a ValueError
    raised by a run is a bug and keeps its traceback.  A FaultPlanError
    keeps its own path (``parser.error`` in :func:`main`)."""
    try:
        yield
    except FaultPlanError:
        raise
    except ValueError as exc:
        raise _ConfigError(str(exc)) from None


def _config(args: argparse.Namespace, algorithm: Algorithm,
            initial_nodes: int, force_trace: bool = False) -> RunConfig:
    return RunConfig(
        algorithm=algorithm,
        initial_nodes=initial_nodes,
        workload=_workload(args),
        cluster=_cluster(args),
        split_policy=SplitPolicy(args.split_policy),
        materialize_output=args.materialize_output,
        probe_expansion=args.probe_expansion,
        sources_from_disk=args.sources_from_disk,
        trace=args.trace or force_trace,
        trace_buffer=args.trace_buffer,
        faults=_faults(args),
        lockdep=args.lockdep,
    )


def _refuse_overwrite(path: str | None, force: bool, command: str,
                      makes_parent: bool = False) -> bool:
    """True (after a message) when ``path`` cannot be written as asked: it
    exists and ``--force`` was not given, or its directory does not exist
    (unless the command creates it: ``makes_parent``).

    Checked before the simulation runs, so a collision or a typo in a
    directory fails in milliseconds instead of after the join completes —
    and an existing export is never clobbered by a fat-fingered re-run.
    """
    if not path:
        return False
    if os.path.exists(path) and not force:
        print(f"{command}: refusing to overwrite existing {path}; "
              f"pass --force to replace it", file=sys.stderr)
        return True
    parent = os.path.dirname(path) or os.curdir
    if not makes_parent and not os.path.isdir(parent):
        print(f"{command}: cannot write {path}: no directory {parent}",
              file=sys.stderr)
        return True
    return False


def _write_text(path: str, payload: str) -> None:
    """Write an output file atomically: fill a sibling temp file, then
    rename it over ``path``.  A crash or full disk mid-write leaves what
    was there before — never half a baseline for ``bench-diff`` to read.
    (``--snapshot-out`` is a stream, appended and flushed per snapshot so
    it can be tailed; it does not come through here.)"""
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # the write or the rename failed
            os.unlink(tmp)


def _emit(args: argparse.Namespace, payload: str, note: str) -> None:
    """``--out PATH`` gets the payload (stdout a "wrote" line); without
    it the payload is the stdout."""
    if args.out:
        _write_text(args.out, payload)
        print(f"wrote {args.out} ({note})")
    else:
        print(payload, end="")


def _run_single(args: argparse.Namespace, command: str,
                **config_kw: Any) -> JoinRunResult | None:
    """The one join ``run``/``trace``/``metrics``/``explain`` run: the
    first of ``--initial-nodes``.  ``None`` (after a message) when ``--out``
    cannot be written — checked before the simulation, not after."""
    from .core import run_join

    if _refuse_overwrite(args.out, args.force, command):
        return None
    with _config_errors():
        cfg = _config(args, Algorithm(args.algorithm),
                      int(args.initial_nodes.split(",")[0]), **config_kw)
    return run_join(cfg, validate=not args.no_validate)


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------
def cmd_run(args: argparse.Namespace) -> int:
    res = _run_single(args, "run")
    assert res is not None  # `run` writes no file: nothing to refuse
    print(res.summary())
    t = res.times
    scale = res.config.workload.scale
    print(f"\nphases (paper-scale s): build={t.build_s / scale:.1f} "
          f"reshuffle={t.reshuffle_s / scale:.1f} "
          f"probe={t.probe_s / scale:.1f} ooc={t.ooc_pass_s / scale:.1f} "
          f"total={res.paper_scale_total_s:.1f}")
    if args.trace:
        print("\ntrace:")
        print(res.tracer.format())
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from .analysis import format_table
    from .core import run_join

    with _config_errors():  # every cell, before the first one runs
        algorithms = (
            list(Algorithm) if args.algorithms == "all"
            else [Algorithm(a) for a in args.algorithms.split(",")]
        )
        initials = [int(x) for x in args.initial_nodes.split(",")]
        grid = [[_config(args, a, k) for a in algorithms] for k in initials]
    rows = []
    for k, cells in zip(initials, grid):
        row: list[object] = [k]
        for cfg in cells:
            res = run_join(cfg, validate=not args.no_validate)
            row.append(round(res.paper_scale_total_s, 1))
        rows.append(row)
    print(format_table(
        ["initial nodes"] + [a.value for a in algorithms], rows
    ))
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    from .bench import FigureHarness

    with _config_errors():
        harness = FigureHarness(scale=args.scale, validate=not args.no_validate)
    available = FigureHarness.FIGURES
    # --json alone snapshots the fig02 baseline without rendering reports;
    # combined with --only it does both (the sweep is memoized and shared).
    wanted = args.only or ([] if args.json else list(available))
    unknown = [w for w in wanted if w not in available]
    if unknown:
        print(f"unknown figures: {unknown}; choose from "
              f"{sorted(available)}", file=sys.stderr)
        return 2
    csv_paths = (
        [os.path.join(args.csv_dir, f"{name}.csv") for name in wanted]
        if args.csv_dir else []
    )
    outputs = [(args.out, False), (args.json, False)]
    outputs += [(path, True) for path in csv_paths]  # --csv-dir is made below
    for path, made in outputs:
        if _refuse_overwrite(path, args.force, "figures", makes_parent=made):
            return 2
    reports = []
    for name in wanted:
        report = harness.figure(name)
        reports.append(report)
        print(report.render())
        print()
    if args.out:
        _write_text(args.out, "\n".join(r.to_markdown() for r in reports))
        print(f"wrote {args.out}")
    if args.csv_dir:
        os.makedirs(args.csv_dir, exist_ok=True)
        for path, report in zip(csv_paths, reports):
            _write_text(path, report.to_csv())
        print(f"wrote {len(reports)} csv files to {args.csv_dir}")
    if args.json:
        _write_text(args.json,
                    json.dumps(harness.baseline(), indent=2) + "\n")
        print(f"wrote {args.json} (fig02 baseline)")
    return 0 if all(r.all_passed for r in reports) else 1


def cmd_trace(args: argparse.Namespace) -> int:
    from .obs import chrome_trace, trace_to_jsonl

    res = _run_single(args, "trace", force_trace=True)
    if res is None:
        return 2
    if args.format == "chrome":
        payload = json.dumps(chrome_trace(res), indent=1) + "\n"
    else:
        lines = list(trace_to_jsonl(res.tracer))
        payload = "\n".join(lines) + ("\n" if lines else "")
    _emit(args, payload, args.format)
    if args.out:
        print()
        print(res.timeline.render())
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    from .analysis import format_table
    from .obs import metrics_to_jsonl

    res = _run_single(args, "metrics")
    if res is None:
        return 2
    if args.format == "jsonl":
        _emit(args, "\n".join(metrics_to_jsonl(res.metrics)) + "\n",
              f"{len(res.metrics)} instruments")
        return 0
    rows = []
    for inst in res.metrics:
        # The table view hides instruments that never fired (the registry
        # eagerly instruments every pool node); --format jsonl keeps them.
        labels = ",".join(f"{k}={v}" for k, v in sorted(inst["labels"].items()))
        if inst["type"] == "counter":
            if not inst["value"]:
                continue
            value = f"{inst['value']:g}"
        elif inst["type"] == "gauge":
            if inst["samples"] == 0:
                continue
            value = f"last={inst['last']:g} high={inst['high']:g}"
        else:
            if not inst["total_seconds"]:
                continue
            value = (f"mean={inst['time_weighted_mean']:.3f} "
                     f"high={inst['high']:g}")
        rows.append([inst["name"], labels, inst["type"], value])
    table = format_table(["metric", "labels", "type", "value"], rows)
    _emit(args, table + "\n", f"{len(rows)} active instruments")
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    from .obs import explain

    res = _run_single(args, "explain", force_trace=True)
    if res is None:
        return 2
    report = explain(res)
    if args.format == "json":
        payload = json.dumps(report.to_dict(), indent=1) + "\n"
    else:
        payload = report.to_text() + "\n"
    _emit(args, payload, args.format)
    return 0


def _parse_mix_entry(text: str) -> QueryMixEntry:
    """``ALG[:WEIGHT[:R_M[:S_M[:INITIAL[:SIGMA]]]]]`` -> QueryMixEntry.

    Sizes are in millions of tuples (paper units); a sixth field turns the
    entry Gaussian-skewed with that sigma.  Example: ``hybrid:2:10:10:4``.
    """
    parts = text.split(":")
    if not 1 <= len(parts) <= 6:
        raise ValueError(
            f"mix entry {text!r}: expected ALG[:WEIGHT[:R_M[:S_M"
            f"[:INITIAL[:SIGMA]]]]]"
        )
    try:
        alg = Algorithm(parts[0])
        weight = finite_float(parts[1]) if len(parts) > 1 else 1.0
        r_m = finite_float(parts[2]) if len(parts) > 2 else 2.0
        s_m = finite_float(parts[3]) if len(parts) > 3 else r_m
        initial = int(parts[4]) if len(parts) > 4 else 2
        sigma = finite_float(parts[5]) if len(parts) > 5 else None
    except ValueError as exc:
        raise ValueError(f"mix entry {text!r}: {exc}") from None
    return QueryMixEntry(
        weight=weight,
        algorithm=alg,
        r_tuples=int(r_m * MTUPLES),
        s_tuples=int(s_m * MTUPLES),
        initial_nodes=initial,
        distribution=(
            Distribution.GAUSSIAN if sigma is not None
            else Distribution.UNIFORM
        ),
        gauss_sigma=sigma if sigma is not None else 0.001,
    )


def _workload_config(
    args: argparse.Namespace, plan: FaultPlan | None
) -> WorkloadConfig:
    """Fold the shared workload CLI flags into a :class:`WorkloadConfig`
    (raises ValueError exactly like the dataclass validators)."""
    live = args.live or args.live_interval is not None
    mix = tuple(_parse_mix_entry(m) for m in args.mix) if args.mix else (
        QueryMixEntry(initial_nodes=2),
    )
    obs = ObsConfig(
        budget_bytes=args.obs_budget,
        live_interval_s=(
            (args.live_interval if args.live_interval is not None
             else 25.0 * args.scale)
            if live else None
        ),
    )
    return WorkloadConfig(
        n_queries=args.queries,
        arrival_rate_qps=args.arrival_rate,
        arrival_times=_parse_arrival_times(args.arrival_times),
        seed=args.seed,
        mix=mix,
        policy=PoolPolicy(args.policy),
        fair_share_cap=args.fair_share_cap,
        grant_timeout_s=args.grant_timeout,
        cluster=_cluster(args),
        scale=args.scale,
        trace=args.trace,
        faults=plan,
        lockdep=args.lockdep,
        obs=obs,
    )


def _check_membership(plan: FaultPlan | None, command: str) -> bool:
    """True (with a message) when the single-query-only control-plane
    fault layer was requested from a multi-query command."""
    if plan is not None and plan.membership_active:
        print(f"{command}: the control-plane fault-tolerance layer "
              "(--membership / --heartbeat-interval / --kill-scheduler-at) "
              "is single-query only; see docs/FAULTS.md",
              file=sys.stderr)
        return True
    return False


def _run_streaming(
    args: argparse.Namespace, command: str, stream_label: str,
    run: Callable[[Callable[[Snapshot], None]], Any],
) -> Any:
    """``run(on_snapshot)`` with the output guards and live telemetry of
    the multi-query commands; ``None`` when an output cannot be written.

    One progress line per periodic snapshot (``--live``), optionally
    streamed to JSONL (``--snapshot-out``; `repro tail` renders it).  The
    final snapshot — a fleet's is *merged*: latest per cohort, folded with
    the snapshot merge laws — is always appended last, so the file's last
    line is the end state bench-diff compares."""
    for path in (args.out, args.metrics_out, args.baseline,
                 args.snapshot_out):
        if _refuse_overwrite(path, args.force, command):
            return None
    live = args.live or args.live_interval is not None
    snap_fh = None
    if args.snapshot_out:
        snap_fh = open(args.snapshot_out, "w", encoding="utf-8")

    def on_snapshot(snap: Snapshot) -> None:
        if live:
            print(f"live: {snap.describe()}")
        if snap_fh is not None:
            snap_fh.write(snap.to_json() + "\n")
            snap_fh.flush()

    try:
        res = run(on_snapshot)
        if res.snapshot is not None:
            on_snapshot(res.snapshot)
    finally:
        if snap_fh is not None:
            snap_fh.close()
    if args.snapshot_out:
        print(f"wrote {args.snapshot_out} ({stream_label})")
    return res


def _emit_run(
    args: argparse.Namespace, res: Any, wl: WorkloadConfig,
    series: str, benchmark: str,
) -> None:
    """Report, ``--metrics-out`` and ``--baseline`` of a workload/fleet."""
    from .obs import metrics_to_jsonl

    if args.format == "json":
        payload = json.dumps(res.to_dict(), indent=1) + "\n"
    else:
        payload = res.summary() + "\n"
    _emit(args, payload, args.format)
    if args.metrics_out:
        _write_text(args.metrics_out, "".join(
            line + "\n" for line in metrics_to_jsonl(res.metrics)))
        print(f"wrote {args.metrics_out} ({len(res.metrics)} instruments)")
    if args.baseline:
        # bench-diff's schema keys are fixed (total_s / build_s); here they
        # carry makespan and p99 latency respectively.
        base = {
            "benchmark": benchmark,
            "scale": wl.scale,
            "series": {
                series: {
                    str(wl.n_queries): {
                        "total_s": res.makespan_s,
                        "build_s": res.latency_percentiles().get("p99", 0.0),
                    }
                }
            },
        }
        _write_text(args.baseline, json.dumps(base, indent=2) + "\n")
        print(f"wrote {args.baseline} ({benchmark} baseline)")


def cmd_workload(args: argparse.Namespace) -> int:
    from .workload import run_workload

    plan = _faults(args)
    if _check_membership(plan, "workload"):
        return 2
    with _config_errors():
        cfg = _workload_config(args, plan)
    res = _run_streaming(
        args, "workload", "snapshot stream",
        lambda sink: run_workload(cfg, validate=not args.no_validate,
                                  on_snapshot=sink),
    )
    if res is None:
        return 2
    _emit_run(args, res, cfg, cfg.policy.value, "workload")
    if args.trace:
        print("\ntrace:")
        print(res.tracer.format())
    return 0 if res.all_valid else 1


def cmd_fleet(args: argparse.Namespace) -> int:
    from .workload import profile_arrivals, run_fleet

    plan = _faults(args)
    if _check_membership(plan, "fleet"):
        return 2
    with _config_errors():
        wl = _workload_config(args, plan)
        if args.arrival_profile != "poisson":
            wl = replace(
                wl, arrival_times=profile_arrivals(args.arrival_profile, wl)
            )
        cfg = FleetConfig(
            workload=wl,
            n_cohorts=args.cohorts,
            n_shards=args.shards,
            worker_timeout_s=args.worker_timeout,
        )
    res = _run_streaming(
        args, "fleet", "merged snapshot stream",
        lambda sink: run_fleet(cfg, validate=not args.no_validate,
                               on_snapshot=sink),
    )
    if res is None:
        return 2
    for failure in res.failures:
        print(f"fleet: shard {failure.shard} failed ({failure.kind}, "
              f"cohorts {list(failure.cohorts)}): {failure.detail}",
              file=sys.stderr)
    # The series name carries the arrival profile so one baseline file can
    # hold curves for several profiles side by side.
    _emit_run(args, res, wl, f"{args.arrival_profile}-{wl.policy.value}",
              "fleet")
    return res.exit_code


def cmd_bench_diff(args: argparse.Namespace) -> int:
    from .bench import (
        BaselineError,
        diff_baselines,
        diff_snapshots,
        is_snapshot_doc,
        load_baseline,
        load_document,
    )
    from .obs import Snapshot

    try:
        old_doc = load_document(args.old)
        new_doc = load_document(args.new)
        old_snap, new_snap = is_snapshot_doc(old_doc), is_snapshot_doc(new_doc)
        if old_snap != new_snap:
            kinds = [
                "snapshot" if s else "figure baseline"
                for s in (old_snap, new_snap)
            ]
            print(f"bench-diff: cannot compare a {kinds[0]} ({args.old}) "
                  f"against a {kinds[1]} ({args.new})", file=sys.stderr)
            return 2
        if old_snap:
            snaps = []
            for path, doc in ((args.old, old_doc), (args.new, new_doc)):
                try:
                    snaps.append(Snapshot.from_dict(doc))
                except ValueError as exc:
                    raise BaselineError(f"{path}: {exc}") from None
            diff = diff_snapshots(*snaps, threshold_pct=args.threshold)
        else:
            old = load_baseline(args.old)
            new = load_baseline(args.new)
            diff = diff_baselines(old, new, threshold_pct=args.threshold)
    except (BaselineError, ValueError) as exc:
        print(f"bench-diff: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(diff.to_dict(), indent=1))
    else:
        print(diff.to_text())
    return 0 if diff.ok else 1


def cmd_tail(args: argparse.Namespace) -> int:
    from .analysis import format_table
    from .obs import Snapshot

    try:
        with open(args.path, encoding="utf-8") as fh:
            lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        print(f"tail: cannot read {args.path}: {exc}", file=sys.stderr)
        return 2
    if not lines:
        print(f"tail: {args.path}: empty snapshot stream", file=sys.stderr)
        return 2
    snaps = []
    for lineno, line in enumerate(lines, 1):
        try:
            snaps.append(Snapshot.from_json(line))
        except ValueError as exc:
            print(f"tail: {args.path}:{lineno}: {exc}", file=sys.stderr)
            return 2
    for snap in snaps:
        print(snap.describe())
    last = snaps[-1]
    rows = [[name, f"{value:g}"]
            for name, value in sorted(last.counters.items()) if value]
    for name, sk in sorted(last.sketches.items()):
        if not sk.count:
            continue
        pcts = sk.percentiles((50, 90, 99))
        rows.append([
            name,
            f"p50={pcts['p50']:g} p90={pcts['p90']:g} p99={pcts['p99']:g} "
            f"(n={sk.count})",
        ])
    print()
    print(f"final snapshot: {len(snaps)} snapshot(s), "
          f"shards={','.join(last.shards)}, "
          f"{len(last.spans)} sampled spans "
          f"({last.spans.dropped} shed)")
    print(format_table(["metric", "value"], rows))
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .checkers import PASSES, LintError, report_sarif, report_text, run_lint

    if args.list:
        for cls in PASSES:
            print(f"{cls.name}: {', '.join(cls.rules)}")
        return 0
    root = Path(args.root) if args.root else Path.cwd()
    try:
        violations = run_lint(root, paths=args.paths or None,
                              select=args.select)
    except LintError as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2
    report = report_sarif if args.format == "sarif" else report_text
    report(violations, sys.stdout)
    return 1 if violations else 0


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Expanding Hash-based Join Algorithms (HPDC 2004) — "
                    "simulated reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    _add_workload_args(common)
    _add_cluster_args(common)
    _add_fault_args(common)
    common.add_argument("--split-policy", default="bisect",
                        choices=[p.value for p in SplitPolicy])
    common.add_argument("--materialize-output", action="store_true",
                        help="keep join output pairs in node memory")
    common.add_argument("--probe-expansion", action="store_true",
                        help="recruit output-sink nodes on probe overflow "
                             "(paper footnote 1)")
    common.add_argument("--no-validate", action="store_true",
                        help="skip the sequential-oracle check")
    common.add_argument("--trace", action="store_true",
                        help="collect and print the protocol trace")
    common.add_argument("--trace-buffer", type=int, default=None,
                        metavar="N",
                        help="keep only the most recent N trace records "
                             "(bounded-buffer mode; default unbounded)")
    # one join of one algorithm: `run`, and the exporters below it that
    # also refuse to replace an existing --out file without --force
    one_join = argparse.ArgumentParser(add_help=False, parents=[common])
    one_join.add_argument("--algorithm", default="hybrid",
                          choices=[a.value for a in Algorithm])
    exporter = argparse.ArgumentParser(add_help=False, parents=[one_join])
    exporter.add_argument("--force", action="store_true",
                          help="overwrite an existing --out file")

    p_run = sub.add_parser("run", parents=[one_join],
                           help="run one simulated join")
    p_run.set_defaults(func=cmd_run, out=None, force=False)

    def _add_workload_cli(p: argparse.ArgumentParser) -> None:
        # Flags shared verbatim by `workload` (in-process) and `fleet`
        # (OS-process sharded) — both fold into one WorkloadConfig.
        p.add_argument("--queries", type=int, default=4,
                       help="number of concurrent queries (default 4)")
        p.add_argument("--arrival-rate", type=finite_float, default=0.5,
                       metavar="QPS",
                       help="Poisson arrival rate in queries per simulated "
                            "second (default 0.5)")
        p.add_argument("--arrival-times", metavar="T0,T1,...",
                       help="explicit arrival trace (simulated seconds, one "
                            "per query; overrides --arrival-rate)")
        p.add_argument("--mix", action="append", default=[],
                       metavar="ALG[:W[:R_M[:S_M[:K[:SIGMA]]]]]",
                       help="weighted query class: algorithm, weight, "
                            "relation sizes in Mtuples, initial nodes, "
                            "optional Gaussian sigma; repeatable (default "
                            "one 2Mx2M hybrid class on 2 nodes)")
        p.add_argument("--policy", default="fifo",
                       choices=[p.value for p in PoolPolicy],
                       help="pool arbitration policy (default fifo)")
        p.add_argument("--fair-share-cap", type=int, default=4, metavar="N",
                       help="max pool nodes one query may hold beyond its "
                            "admission grant (fair policy only; default 4)")
        p.add_argument("--grant-timeout", type=finite_float, default=None,
                       metavar="S",
                       help="deny a parked recruit after S simulated "
                            "seconds (default: scale-derived)")
        p.add_argument("--pool", type=int, default=24,
                       help="shared join nodes in the pool (default 24)")
        p.add_argument("--sources", type=int, default=2,
                       help="data-source nodes per query (default 2)")
        p.add_argument("--node-memory-mb", type=finite_float, default=64.0,
                       help="hash-table budget per node in MB (default 64)")
        p.add_argument("--topology", default="switched",
                       choices=[t.value for t in Topology])
        p.add_argument("--scale", type=finite_float, default=WorkloadSpec().scale,
                       help="down-scaling factor (default 1/50)")
        p.add_argument("--seed", type=int, default=WorkloadConfig().seed)
        _add_fault_args(p)
        p.add_argument("--no-validate", action="store_true",
                       help="skip the per-query sequential-oracle check")
        p.add_argument("--trace", action="store_true",
                       help="collect and print the protocol trace")
        p.add_argument("--format", default="text", choices=["text", "json"])
        p.add_argument("--out", help="write here instead of stdout")
        p.add_argument("--metrics-out", metavar="PATH",
                       help="also dump the shared metrics registry as JSONL")
        p.add_argument("--baseline", metavar="PATH",
                       help="write a bench-diff-compatible baseline "
                            "(total_s=makespan, build_s=p99 latency)")
        p.add_argument("--live", action="store_true",
                       help="print one progress line per periodic "
                            "observability snapshot (simulated-clock "
                            "cadence; see docs/OBSERVABILITY.md)")
        p.add_argument("--live-interval", type=finite_float, default=None,
                       metavar="S",
                       help="snapshot cadence in simulated seconds "
                            "(implies --live; default 25*scale)")
        p.add_argument("--obs-budget", type=int, default=None,
                       metavar="BYTES",
                       help="cap observability memory: bounded span/edge "
                            "sampling, ring buffers and sketch bins sized "
                            f"to this many bytes (min {ObsBudget.MIN_BYTES}; "
                            "shed records are counted, never silent)")
        p.add_argument("--snapshot-out", metavar="PATH",
                       help="append each snapshot as one JSON line "
                            "(final snapshot last; render with "
                            "'repro tail PATH', compare with "
                            "'repro bench-diff')")
        p.add_argument("--force", action="store_true",
                       help="overwrite existing --out/--metrics-out/"
                            "--baseline/--snapshot-out files")

    p_wl = sub.add_parser(
        "workload",
        help="run many concurrent joins against one shared node pool",
    )
    _add_workload_cli(p_wl)
    p_wl.set_defaults(func=cmd_workload)

    p_fleet = sub.add_parser(
        "fleet",
        help="shard one workload trace across OS worker processes and "
             "merge the results (docs/FLEET.md)",
    )
    _add_workload_cli(p_fleet)
    p_fleet.add_argument("--shards", type=int, default=2, metavar="N",
                         help="worker processes to launch, at most one a "
                              "non-empty cohort (default 2; results are "
                              "shard-count invariant)")
    p_fleet.add_argument("--cohorts", type=int, default=8, metavar="N",
                         help="deterministic partition count — part of the "
                              "model, not the parallelism (default 8)")
    p_fleet.add_argument("--worker-timeout", type=finite_float, default=600.0,
                         metavar="S",
                         help="wall-clock seconds of worker silence before "
                              "the shard is killed and reported as failed "
                              "(default 600)")
    p_fleet.add_argument("--arrival-profile", default="poisson",
                         choices=["poisson", "diurnal", "bursty"],
                         help="named arrival trace: the config's Poisson "
                              "process, a sinusoidal day/night rate, or "
                              "on-off bursts (default poisson)")
    p_fleet.set_defaults(func=cmd_fleet)

    p_tail = sub.add_parser(
        "tail",
        help="render a --snapshot-out JSONL snapshot stream",
    )
    p_tail.add_argument("path", metavar="SNAPSHOT.jsonl",
                        help="snapshot stream written by "
                             "'repro workload --snapshot-out'")
    p_tail.set_defaults(func=cmd_tail)

    p_trace = sub.add_parser(
        "trace", parents=[exporter],
        help="run one join and export its execution trace",
    )
    p_trace.add_argument("--format", default="chrome",
                         choices=["chrome", "jsonl"],
                         help="chrome trace_event JSON (chrome://tracing / "
                              "Perfetto) or JSONL records")
    p_trace.add_argument("--out", help="write here instead of stdout "
                                       "(also prints the phase timeline)")
    p_trace.set_defaults(func=cmd_trace)

    p_metrics = sub.add_parser(
        "metrics", parents=[exporter],
        help="run one join and dump the metrics registry",
    )
    p_metrics.add_argument("--format", default="table",
                           choices=["table", "jsonl"])
    p_metrics.add_argument("--out",
                           help="write here instead of stdout (either format)")
    p_metrics.set_defaults(func=cmd_metrics)

    p_explain = sub.add_parser(
        "explain", parents=[exporter],
        help="run one join and print the critical-path bottleneck report",
    )
    p_explain.add_argument("--format", default="text",
                           choices=["text", "json"])
    p_explain.add_argument("--out", help="write here instead of stdout")
    p_explain.set_defaults(func=cmd_explain)

    p_bdiff = sub.add_parser(
        "bench-diff",
        help="compare two BENCH_*.json baselines; exit 1 on regressions",
    )
    p_bdiff.add_argument("old", help="baseline JSON (the reference)")
    p_bdiff.add_argument("new", help="candidate JSON to compare against it")
    p_bdiff.add_argument("--threshold", type=finite_float, default=1.0,
                         metavar="PCT",
                         help="regression threshold in percent (default 1)")
    p_bdiff.add_argument("--format", default="text",
                         choices=["text", "json"])
    p_bdiff.set_defaults(func=cmd_bench_diff)

    p_sweep = sub.add_parser("sweep", parents=[common],
                             help="grid of runs: algorithms x initial nodes")
    p_sweep.add_argument("--algorithms", default="all",
                         help='comma list or "all"')
    p_sweep.set_defaults(func=cmd_sweep)

    p_fig = sub.add_parser("figures", help="regenerate the paper's figures")
    p_fig.add_argument("--only", nargs="*", metavar="figNN",
                       help="subset, e.g. --only fig02 fig10")
    p_fig.add_argument("--out", help="write markdown reports to this file")
    p_fig.add_argument("--csv-dir", help="write one CSV per figure here")
    p_fig.add_argument("--json", metavar="PATH",
                       help="write the machine-readable fig02 baseline "
                            "(total/build s per algorithm x initial nodes) "
                            "for regression tracking; alone, skips the "
                            "figure reports")
    p_fig.add_argument("--scale", type=finite_float, default=WorkloadSpec().scale)
    p_fig.add_argument("--no-validate", action="store_true")
    p_fig.add_argument("--force", action="store_true",
                       help="overwrite existing --out/--csv-dir/--json files")
    p_fig.set_defaults(func=cmd_figures)

    p_lint = sub.add_parser(
        "lint",
        help="run the repo's static-analysis passes (determinism, "
             "fault safety, protocol, wait graph)",
    )
    p_lint.add_argument("paths", nargs="*", metavar="PATH",
                        help="files/directories to lint (default: src/repro "
                             "under --root)")
    p_lint.add_argument("--root", default=None,
                        help="repo root for repo-relative scoping "
                             "(default: current directory)")
    p_lint.add_argument("--format", default="text", choices=["text", "sarif"],
                        help="text, or SARIF 2.1.0 for code scanning")
    p_lint.add_argument("--select", nargs="*", metavar="RULE",
                        help="restrict to pass names or rule-id prefixes, "
                             "e.g. determinism or det-")
    p_lint.add_argument("--list", action="store_true",
                        help="list the passes and their rule ids")
    p_lint.set_defaults(func=cmd_lint)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "zipf", None) is not None:
        if getattr(args, "sigma", None) is not None:
            parser.error(
                "--zipf and --sigma are mutually exclusive skew knobs; "
                "pass exactly one"
            )
        if args.zipf <= 1.0:
            parser.error(f"--zipf exponent must be > 1, got {args.zipf}")
    try:
        return args.func(args)
    except _ConfigError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
    except FaultPlanError as exc:
        parser.error(str(exc))
    except UnrecoverableFaultError as exc:
        # A typed, explained end of the run (docs/FAULTS.md), not a bug:
        # it surfaces as its message and exit code 3, like parser.error's 2.
        print(f"repro: unrecoverable fault: {exc}", file=sys.stderr)
        raise SystemExit(3) from None


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
