"""Command-line interface: ``python -m repro <command>`` (or ``repro``).

Eleven commands: ``run``, ``sweep``, ``trace``, ``metrics`` and
``explain`` run single joins; ``workload`` and ``fleet`` run many queries
over a shared node pool; ``figures`` regenerates the paper's figures;
``bench-diff``, ``tail`` and ``lint`` read files.  ``repro --help`` says
what each does, and ``repro <command> --help`` lists its flags.

A flag that sets one config field is declared on that field, in its
``metadata`` (see :mod:`repro.config`); this module builds the parsers and
the configs from those declarations.  docs/API.md's flag table is
:func:`flag_table`'s output.

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
import enum
import json
import os
import sys
from contextlib import contextmanager
from functools import partial
from dataclasses import Field, fields, replace
from collections.abc import Callable, Iterator, Sequence
from typing import TYPE_CHECKING, Any, TypeVar

from .config import (
    Algorithm,
    ClusterSpec,
    Distribution,
    FleetConfig,
    MTUPLES,
    ObsConfig,
    QueryMixEntry,
    RunConfig,
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

__all__ = ["main", "build_parser", "flag_table"]

_C = TypeVar("_C")


def _flagged(cls: type) -> dict[str, Field[Any]]:
    """The fields of ``cls`` that declare a CLI flag, by name."""
    return {f.name: f for f in fields(cls) if "flag" in f.metadata}


def _add_fields(p: argparse.ArgumentParser, cls: type, *names: str,
                **defaults: Any) -> None:
    """Add the flags that fields ``names`` of ``cls`` declare.

    A flag's default is its field's (or ``defaults[name]``) in the flag's
    unit; an enum field takes its values as choices, and a bool field is a
    switch that is off unless given, whatever the field's default."""
    declared = _flagged(cls)
    for name in names:
        meta = declared[name].metadata
        default = defaults.get(name, declared[name].default)
        kw: dict[str, Any] = {"help": meta["help"]}
        if isinstance(default, bool):
            kw["action"] = "store_true"
        elif isinstance(default, enum.Enum):
            kw.update(default=default.value,
                      choices=[m.value for m in type(default)])
        else:
            if "unit" in meta:
                default /= meta["unit"]
            kw.update(default=default, type=meta.get("type") or (
                int if isinstance(default, int) else finite_float))
        p.add_argument(meta["flag"], **kw)


def _from_args(cls: Callable[..., _C], args: argparse.Namespace,
               **by_hand: Any) -> _C:
    """``cls`` built from the flags its fields declare, in field units,
    with the fields in ``by_hand`` set as given."""
    for name, f in _flagged(cls).items():
        if name not in by_hand:
            value = getattr(args, f.metadata["flag"][2:].replace("-", "_"))
            if "unit" in f.metadata:
                value = type(f.default)(value * f.metadata["unit"])
            elif isinstance(f.default, enum.Enum):
                value = type(f.default)(value)
            by_hand[name] = value
    return cls(**by_hand)


def _scaled() -> argparse.ArgumentParser:
    """``--scale`` and ``--no-validate``: every command that simulates."""
    p = argparse.ArgumentParser(add_help=False)
    _add_fields(p, WorkloadSpec, "scale")
    p.add_argument("--no-validate", action="store_true",
                   help="skip the sequential-oracle check")
    return p


def _simulating(**defaults: Any) -> argparse.ArgumentParser:
    """The flags shared by the commands that run joins: scale, seed, the
    cluster and fault flags, ``--no-validate`` and ``--trace``.

    A new parser on every call: parents share their action objects, so a
    family's own default (``defaults``, by field name) must be given here,
    never set on a parser built from another family's parent."""
    p = argparse.ArgumentParser(add_help=False, parents=[_scaled()])
    _add_fields(p, WorkloadSpec, "seed")
    _add_fields(p, ClusterSpec, "n_potential_nodes", "n_sources",
                "hash_memory_bytes", "topology", **defaults)
    p.add_argument("--fault-plan", metavar="PATH",
                   help="JSON fault plan (see docs/FAULTS.md for the schema)")
    p.add_argument("--drop-prob", type=finite_float, metavar="P",
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
    p.add_argument("--heartbeat-interval", type=finite_float, metavar="S",
                   help="heartbeat period in simulated seconds (implies "
                        "--membership; suspect/confirm timeouts derive "
                        "from it unless pinned in the fault plan)")
    p.add_argument("--kill-scheduler-at", type=finite_float, metavar="T",
                   help="fail-stop the primary scheduler at sim time T "
                        "(implies --membership; the standby takes over)")
    _add_fields(p, RunConfig, "lockdep", "trace")
    return p


def _faults(args: argparse.Namespace) -> FaultPlan | None:
    """Fold the fault CLI flags into one plan.

    Returns ``None`` when no fault flag was given, which keeps the run on
    the exact fault-free code path (no injector is constructed at all).
    """
    plan = FaultPlan.from_file(args.fault_plan) if args.fault_plan else None
    overlay = {field: value for field, value in (
        ("drop_prob", args.drop_prob),
        ("membership", args.membership or None),
        ("heartbeat_interval_s", args.heartbeat_interval),
        ("kill_scheduler_at", args.kill_scheduler_at),
    ) if value is not None}
    if overlay:
        plan = replace(plan or FaultPlan(), **overlay)
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
    # neither branch silently discards a skew request.
    skew: dict[str, Any] = {}
    if args.zipf is not None:
        skew = {"distribution": Distribution.ZIPF, "zipf_s": args.zipf}
    elif args.sigma is not None:
        skew = {"distribution": Distribution.GAUSSIAN,
                "gauss_sigma": args.sigma}
    return _from_args(WorkloadSpec, args, **skew)


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


def _config(args: argparse.Namespace, **by_hand: Any) -> RunConfig:
    """The :class:`RunConfig` of a single-join command's flags."""
    return _from_args(RunConfig, args, workload=_workload(args),
                      cluster=_from_args(ClusterSpec, args),
                      faults=_faults(args), **by_hand)


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
                force_trace: bool = False) -> JoinRunResult | None:
    """The one join ``run``/``trace``/``metrics``/``explain`` run.  ``None``
    (after a message) when ``--out`` cannot be written — checked before the
    simulation, not after."""
    from .core import run_join

    if _refuse_overwrite(args.out, args.force, command):
        return None
    with _config_errors():
        if "," in args.initial_nodes:
            raise ValueError(
                "--initial-nodes takes one value (sweep takes a list)")
        cfg = _config(args, initial_nodes=int(args.initial_nodes),
                      trace=args.trace or force_trace)
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
        grid = [[_config(args, algorithm=a, initial_nodes=k)
                 for a in algorithms] for k in initials]
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

    Sizes are in millions of tuples (paper units), and S is as large as R
    unless given; a sixth field turns the entry Gaussian-skewed with that
    sigma.  A field left out keeps :class:`QueryMixEntry`'s default.
    Example: ``hybrid:2:10:10:4``.
    """
    parts = text.split(":")
    if not 1 <= len(parts) <= 6:
        raise ValueError(
            f"mix entry {text!r}: expected ALG[:WEIGHT[:R_M[:S_M"
            f"[:INITIAL[:SIGMA]]]]]"
        )
    if len(parts) == 3:
        parts.append(parts[2])

    def mtuples(part: str) -> int:
        return int(finite_float(part) * MTUPLES)

    try:
        kw: dict[str, Any] = {name: parse(part) for (name, parse), part in zip(
            (("algorithm", Algorithm), ("weight", finite_float),
             ("r_tuples", mtuples), ("s_tuples", mtuples),
             ("initial_nodes", int), ("gauss_sigma", finite_float)), parts)}
    except ValueError as exc:
        raise ValueError(f"mix entry {text!r}: {exc}") from None
    if "gauss_sigma" in kw:
        kw["distribution"] = Distribution.GAUSSIAN
    return QueryMixEntry(**kw)


def _workload_config(args: argparse.Namespace) -> WorkloadConfig:
    """Fold the shared workload CLI flags into a :class:`WorkloadConfig`
    (raises ValueError exactly like the dataclass validators)."""
    live = args.live or args.live_interval is not None
    mix = {"mix": tuple(map(_parse_mix_entry, args.mix))} if args.mix else {}
    obs = ObsConfig(
        budget_bytes=args.obs_budget,
        live_interval_s=(
            (args.live_interval if args.live_interval is not None
             else 25.0 * args.scale)
            if live else None
        ),
    )
    return _from_args(
        WorkloadConfig, args,
        arrival_times=_parse_arrival_times(args.arrival_times),
        seed=args.seed, cluster=_from_args(ClusterSpec, args),
        scale=args.scale, trace=args.trace, faults=_faults(args),
        lockdep=args.lockdep, obs=obs, **mix,
    )


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
        point = {"total_s": res.makespan_s,
                 "build_s": res.latency_percentiles().get("p99", 0.0)}
        base = {"benchmark": benchmark, "scale": wl.scale,
                "series": {series: {str(wl.n_queries): point}}}
        _write_text(args.baseline, json.dumps(base, indent=2) + "\n")
        print(f"wrote {args.baseline} ({benchmark} baseline)")


def cmd_workload(args: argparse.Namespace) -> int:
    from .workload import run_workload

    with _config_errors():
        cfg = _workload_config(args)
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

    with _config_errors():
        wl = _workload_config(args)
        if args.arrival_profile != "poisson":
            wl = replace(
                wl, arrival_times=profile_arrivals(args.arrival_profile, wl)
            )
        cfg = _from_args(FleetConfig, args, workload=wl)
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


class _DefaultsShown(argparse.ArgumentDefaultsHelpFormatter):
    """``--help`` names each flag's default, unless it is unset or off."""

    def _get_help_string(self, action: argparse.Action) -> str | None:
        unset = action.default in (None, []) or action.default is False
        return action.help if unset else super()._get_help_string(action)


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Expanding Hash-based Join Algorithms (HPDC 2004) — "
                    "simulated reproduction",
    )
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=partial(
            argparse.ArgumentParser, formatter_class=_DefaultsShown))

    outputs = argparse.ArgumentParser(add_help=False)
    outputs.add_argument("--out", help="write the command's output to this "
                                       "file")
    outputs.add_argument("--force", action="store_true",
                         help="overwrite existing output files")

    # the single-join commands: `sweep`, and `run` and the exporters,
    # which join one algorithm
    single = argparse.ArgumentParser(add_help=False, parents=[_simulating()])
    _add_fields(single, WorkloadSpec, "r_tuples", "s_tuples", "tuple_bytes",
                "chunk_tuples")
    single.add_argument("--sigma", type=finite_float,
                        help="Gaussian skew (fraction of the value range); "
                             "omit for uniform data")
    single.add_argument("--zipf", type=finite_float, metavar="S",
                        help="Zipf exponent (> 1); mutually exclusive with "
                             "--sigma")
    single.add_argument("--initial-nodes", type=str,
                        default=str(RunConfig.initial_nodes),
                        help="initial join nodes; a comma list sweeps (sweep "
                             "command only)")
    _add_fields(single, RunConfig, "sources_from_disk", "split_policy",
                "materialize_output", "probe_expansion", "trace_buffer")
    one_join = argparse.ArgumentParser(add_help=False, parents=[single])
    _add_fields(one_join, RunConfig, "algorithm")

    p_run = sub.add_parser("run", parents=[one_join],
                           help="run one simulated join")
    p_run.set_defaults(func=cmd_run, out=None, force=False)

    # `workload` (in-process) and `fleet` (OS-process sharded): both fold
    # their flags into one WorkloadConfig
    queries = argparse.ArgumentParser(
        add_help=False, parents=[_simulating(n_sources=2), outputs])
    _add_fields(queries, WorkloadConfig, "n_queries", "arrival_rate_qps",
                "policy", "fair_share_cap", "grant_timeout_s")
    queries.add_argument("--arrival-times", metavar="T0,T1,...",
                         help="explicit arrival trace (simulated seconds, "
                              "one per query; overrides --arrival-rate)")
    queries.add_argument("--mix", action="append", default=[],
                         metavar="ALG[:W[:R_M[:S_M[:K[:SIGMA]]]]]",
                         help="weighted query class: algorithm, weight, "
                              "relation sizes in Mtuples, initial nodes, "
                              "optional Gaussian sigma; repeatable (default "
                              "one 2Mx2M hybrid class on 2 nodes)")
    queries.add_argument("--format", default="text", choices=["text", "json"],
                         help="output format")
    queries.add_argument("--metrics-out", metavar="PATH",
                         help="also dump the shared metrics registry as "
                              "JSONL")
    queries.add_argument("--baseline", metavar="PATH",
                         help="write a bench-diff-compatible baseline "
                              "(total_s=makespan, build_s=p99 latency)")
    queries.add_argument("--live", action="store_true",
                         help="print one progress line per periodic "
                              "observability snapshot (simulated-clock "
                              "cadence; see docs/OBSERVABILITY.md)")
    queries.add_argument("--live-interval", type=finite_float, metavar="S",
                         help="snapshot cadence in simulated seconds "
                              "(implies --live; default 25*scale)")
    queries.add_argument("--obs-budget", type=int, metavar="BYTES",
                         help="cap observability memory: bounded span/edge "
                              "sampling, ring buffers and sketch bins sized "
                              f"to this many bytes (min {ObsBudget.MIN_BYTES}"
                              "; shed records are counted, never silent)")
    queries.add_argument("--snapshot-out", metavar="PATH",
                         help="append each snapshot as one JSON line "
                              "(final snapshot last; render with "
                              "'repro tail PATH', compare with "
                              "'repro bench-diff')")

    p_wl = sub.add_parser(
        "workload", parents=[queries],
        help="run many concurrent joins against one shared node pool",
    )
    p_wl.set_defaults(func=cmd_workload)

    p_fleet = sub.add_parser(
        "fleet", parents=[queries],
        help="shard one workload trace across OS worker processes and "
             "merge the results (docs/FLEET.md)",
    )
    _add_fields(p_fleet, FleetConfig, "n_shards", "n_cohorts",
                "worker_timeout_s")
    p_fleet.add_argument("--arrival-profile", default="poisson",
                         choices=["poisson", "diurnal", "bursty"],
                         help="named arrival trace: the config's Poisson "
                              "process, a sinusoidal day/night rate, or "
                              "on-off bursts")
    p_fleet.set_defaults(func=cmd_fleet)

    p_tail = sub.add_parser(
        "tail",
        help="render a --snapshot-out JSONL snapshot stream: a progress "
             "line per snapshot, then the final state",
    )
    p_tail.add_argument("path", metavar="SNAPSHOT.jsonl",
                        help="snapshot stream written by "
                             "'repro workload --snapshot-out'")
    p_tail.set_defaults(func=cmd_tail)

    for name, func, formats, help_ in (
        ("trace", cmd_trace, ["chrome", "jsonl"],
         "run one join and export its execution trace (Chrome trace_event "
         "JSON for chrome://tracing / Perfetto, or JSONL records)"),
        ("metrics", cmd_metrics, ["table", "jsonl"],
         "run one join and dump the metrics registry"),
        ("explain", cmd_explain, ["text", "json"],
         "run one join and print the critical-path bottleneck report"),
    ):
        p_export = sub.add_parser(name, parents=[one_join, outputs],
                                  help=help_)
        p_export.add_argument("--format", default=formats[0],
                              choices=formats, help="output format")
        p_export.set_defaults(func=func)

    p_bdiff = sub.add_parser(
        "bench-diff",
        help="compare two BENCH_*.json baselines or two --snapshot-out "
             "snapshots; exit 1 on regressions beyond the threshold",
    )
    p_bdiff.add_argument("old", help="baseline JSON (the reference)")
    p_bdiff.add_argument("new", help="candidate JSON to compare against it")
    p_bdiff.add_argument("--threshold", type=finite_float, default=1.0,
                         metavar="PCT",
                         help="regression threshold in percent")
    p_bdiff.add_argument("--format", default="text",
                         choices=["text", "json"], help="output format")
    p_bdiff.set_defaults(func=cmd_bench_diff)

    p_sweep = sub.add_parser("sweep", parents=[single],
                             help="grid of runs: algorithms x initial nodes")
    p_sweep.add_argument("--algorithms", default="all",
                         help='comma list or "all"')
    p_sweep.set_defaults(func=cmd_sweep)

    p_fig = sub.add_parser("figures", parents=[_scaled(), outputs],
                           help="regenerate the paper's figures")
    p_fig.add_argument("--only", nargs="*", metavar="figNN",
                       help="subset, e.g. --only fig02 fig10")
    p_fig.add_argument("--csv-dir", help="write one CSV per figure here")
    p_fig.add_argument("--json", metavar="PATH",
                       help="write the machine-readable fig02 baseline "
                            "(total/build s per algorithm x initial nodes) "
                            "for regression tracking; alone, skips the "
                            "figure reports")
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


def flag_table() -> str:
    """docs/API.md's CLI reference: one markdown row per distinct (flag,
    choices, default, help), naming the commands that take it."""
    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    rows: dict[tuple[str, str, str], list[str]] = {}
    for command, p in sub.choices.items():
        for a in p._actions:
            if a.option_strings and a.dest != "help":
                flag = a.option_strings[0]
                if a.choices:
                    flag += " {" + ",".join(a.choices) + "}"
                default = "—" if a.default in (None, []) else (
                    "off" if a.default is False else str(a.default))
                key = (flag, default, (a.help or "").replace("|", "\\|"))
                rows.setdefault(key, []).append(command)
    lines = ["| flag | default | commands | meaning |", "|---|---|---|---|"]
    for (flag, default, help_), commands in sorted(rows.items()):
        lines.append(f"| `{flag}` | {default} | {', '.join(commands)} "
                     f"| {help_} |")
    return "\n".join(lines) + "\n"


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
