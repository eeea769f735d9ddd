"""OS-process sharded fleet simulation (ROADMAP item 2, second half).

One simulator runs one cohort of queries; a *fleet* runs many cohorts on
real cores.  The trace is cut by :func:`cohort_of` — a stable blake2b
hash of the query id — into ``n_cohorts`` independent sub-workloads,
each with its own simulated cluster and pool (the sharded-service model:
contention is within a cohort, never across).  ``n_shards`` worker
processes (the interpreter's default start method) *pull* cohorts in id
order through a shared claims array and stream results back over pipes;
the parent folds them into one :class:`FleetResult`.

The determinism contract (docs/FLEET.md):

* Per-query seeds and arrivals are drawn at **global** trace positions
  (:func:`~repro.workload.generator.generate_workload` runs over the full
  config on both sides), so a query's data and arrival time never depend
  on how the trace is cut or executed.
* Cohort membership depends only on ``(query_id, n_cohorts)``.
* A cohort's simulation is the ordinary deterministic
  :func:`~repro.workload.driver.run_workload` over its renumbered specs.
* The merge laws of :meth:`repro.obs.Snapshot.merge` are associative and
  commutative, and the parent folds cohort snapshots in cohort-id order.

Therefore the merged result is a pure function of ``(workload,
n_cohorts)`` — ``--shards``, the start method and who claimed what move
wall-clock only; 1- and 8-shard runs merge to byte-identical JSON.

Worker protocol (one pickled tuple per pipe message)::

    ("snapshot", cohort, snapshot_json)   # periodic, live runs only
    ("cohort_done", cohort, payload)      # final per-cohort results
    ("worker_done", shard, wall_s)        # clean exit follows
    ("error", shard, traceback_text)      # exit code 1 follows

Crash semantics: a worker that exits nonzero, dies silently, or stays
silent past ``worker_timeout_s`` becomes a structured
:class:`ShardFailure` carrying the cohorts it had claimed and not
reported; survivors run the unclaimed rest, every reported cohort still
merges, and :attr:`FleetResult.exit_code` distinguishes clean (0) from
oracle-invalid (1) from partial (3).
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import threading
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing import get_context, parent_process
from multiprocessing.connection import Connection, wait as conn_wait
from typing import Any, Callable

from ..config import FleetConfig, WorkloadConfig
from ..obs import MetricsRegistry, Snapshot, merge_snapshots
from .driver import run_workload
from .generator import QuerySpec, generate_workload

__all__ = [
    "EXIT_CLEAN",
    "EXIT_INVALID",
    "EXIT_PARTIAL",
    "CohortResult",
    "FleetResult",
    "FleetRunner",
    "ShardFailure",
    "cohort_of",
    "partition_cohorts",
    "run_fleet",
]

EXIT_CLEAN = 0
EXIT_INVALID = 1
EXIT_PARTIAL = 3

#: test hook: a worker whose shard index matches this env var exits hard
#: before claiming any work (the crash-handling test kills a real process
#: this way — monkeypatching cannot reach a spawn child)
_CRASH_ENV = "REPRO_FLEET_CRASH_SHARD"


# ----------------------------------------------------------------------
# cohort partitioner
# ----------------------------------------------------------------------
def cohort_of(query_id: int, n_cohorts: int) -> int:
    """Stable cohort of one query id.

    blake2b over the 8-byte big-endian id — independent of Python hash
    randomization, process boundaries and platform, so every worker and
    every future session agrees on the partition.
    """
    if n_cohorts < 1:
        raise ValueError(f"n_cohorts must be >= 1, got {n_cohorts}")
    digest = hashlib.blake2b(
        query_id.to_bytes(8, "big"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") % n_cohorts


def partition_cohorts(
    specs: list[QuerySpec], n_cohorts: int
) -> list[list[QuerySpec]]:
    """Global specs -> per-cohort lists (global ids, trace order kept)."""
    cohorts: list[list[QuerySpec]] = [[] for _ in range(n_cohorts)]
    for spec in specs:
        cohorts[cohort_of(spec.query_id, n_cohorts)].append(spec)
    return cohorts


def _cohort_workload(
    cfg: WorkloadConfig, cohort: int, specs: list[QuerySpec]
) -> tuple[WorkloadConfig, list[QuerySpec], list[int]]:
    """One cohort's renumbered sub-workload plus its global-id map.

    Ids must become ``0..k-1`` because they index the cohort cluster's
    per-query views; seeds and arrivals ride along verbatim — they were
    drawn at global trace positions and renumbering must not move them.
    """
    global_ids = [s.query_id for s in specs]
    local = [dataclasses.replace(s, query_id=i) for i, s in enumerate(specs)]
    sub = dataclasses.replace(
        cfg,
        n_queries=len(local),
        arrival_times=tuple(s.arrival_s for s in local),
        obs=dataclasses.replace(cfg.obs, shard=f"cohort{cohort}"),
    )
    return sub, local, global_ids


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
def _worker_main(
    conn: Connection,
    shard: int,
    fleet: FleetConfig,
    claims: Any,
    validate: bool,
) -> None:
    """Worker entry point: claim and run cohorts until none is unclaimed.

    Regenerates the global trace rather than unpickling specs — the
    generator is deterministic under the workload seed, so parent and
    worker agree on the partition with no data shipped and nothing
    inherited, whatever the start method.
    """
    if os.environ.get(_CRASH_ENV) == str(shard):
        os._exit(17)
    # Die with the parent, however it ends: a forked worker holds a read end
    # of its own pipe, so an orphan's ``send`` would block, not break.
    orphaned = parent_process().sentinel
    threading.Thread(target=lambda: (conn_wait([orphaned]), os._exit(1)),
                     daemon=True).start()
    t0 = time.monotonic()
    try:
        specs = generate_workload(fleet.workload)
        cohorts = partition_cohorts(specs, fleet.n_cohorts)
        for ci, group in enumerate(cohorts):
            with claims.get_lock():
                if not group or claims[ci] >= 0:
                    continue  # empty or taken; no claim is ever released
                claims[ci] = shard
            t_cohort = time.monotonic()
            sub, local, global_ids = _cohort_workload(
                fleet.workload, ci, group
            )
            on_snap: Callable[[Snapshot], None] | None = None
            if sub.obs.live_interval_s is not None:
                def on_snap(snap: Snapshot, _ci: int = ci) -> None:
                    conn.send(("snapshot", _ci, snap.to_json()))
            res = run_workload(sub, validate=validate, specs=local,
                               on_snapshot=on_snap)
            queries = []
            for q in res.queries:
                d = q.to_dict()
                d["query"] = global_ids[q.query]
                queries.append(d)
            assert res.snapshot is not None
            conn.send(("cohort_done", ci, {
                "cohort": ci,
                "query_ids": global_ids,
                "queries": queries,
                "makespan_s": res.makespan_s,
                "pool": dict(res.pool),
                "pool_utilization": res.pool_utilization,
                "all_valid": res.all_valid,
                "snapshot": res.snapshot.to_json(),
                "wall_s": time.monotonic() - t_cohort,
            }))
        conn.send(("worker_done", shard, time.monotonic() - t0))
        conn.close()
    except BaseException:
        # The parent turns this into a structured ShardFailure; the
        # traceback would otherwise die with the process.
        conn.send(("error", shard, traceback.format_exc()))
        conn.close()
        raise


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardFailure:
    """One worker process that died, hung or exited unclean."""

    shard: int
    #: cohorts the worker had claimed and not reported, plus — on the last
    #: worker reaped — those nobody was left to claim
    cohorts: tuple[int, ...]
    #: "crash" (nonzero/silent exit), "timeout" (silent past the
    #: deadline, terminated by the parent) or "error" (worker sent its
    #: own traceback before exiting)
    kind: str
    detail: str
    exitcode: int | None

    def to_dict(self) -> dict[str, Any]:
        return {
            "shard": self.shard,
            "cohorts": list(self.cohorts),
            "kind": self.kind,
            "detail": self.detail,
            "exitcode": self.exitcode,
        }


@dataclass(frozen=True)
class CohortResult:
    """One cohort's results as reported over the worker pipe."""

    cohort: int
    shard: int
    query_ids: tuple[int, ...]
    #: per-query stat dicts (global ids), trace order within the cohort
    queries: tuple[dict[str, Any], ...]
    makespan_s: float
    pool: dict[str, Any]
    pool_utilization: float
    all_valid: bool
    snapshot: Snapshot
    #: the claiming worker's wall-clock for this cohort (nondeterministic)
    wall_s: float


@dataclass
class FleetResult:
    """Merged outcome of one fleet run.

    Everything except ``n_shards``, the ``wall_*`` fields, each cohort's
    ``shard`` / ``wall_s`` and ``metrics`` is a pure function of
    ``(config.workload, config.n_cohorts)`` — byte-identical at any shard
    count (the contract the shard-invariance tests pin).
    """

    config: FleetConfig
    #: completed cohorts, ascending cohort id
    cohorts: list[CohortResult]
    failures: list[ShardFailure]
    #: fold of every completed cohort's final snapshot (cohort-id order);
    #: None only when every shard failed
    snapshot: Snapshot | None
    #: worker processes launched: ``config.n_shards``, capped at the cohorts
    n_shards: int
    #: parent-side wall-clock for the whole fleet (nondeterministic)
    wall_s: float
    #: per-shard worker wall-clock as self-reported at worker_done
    wall_s_by_shard: dict[int, float]
    metrics: list[dict[str, Any]] = field(default_factory=list)

    # ------------------------------------------------------------------
    @property
    def n_queries(self) -> int:
        return sum(len(c.queries) for c in self.cohorts)

    @property
    def all_valid(self) -> bool:
        return all(c.all_valid for c in self.cohorts)

    @property
    def partial(self) -> bool:
        return bool(self.failures)

    @property
    def exit_code(self) -> int:
        if self.partial:
            return EXIT_PARTIAL
        return EXIT_CLEAN if self.all_valid else EXIT_INVALID

    @property
    def makespan_s(self) -> float:
        """Global simulated makespan: the slowest cohort's makespan
        (cohorts are independent simulations sharing t=0)."""
        return max((c.makespan_s for c in self.cohorts), default=0.0)

    @property
    def total_denials(self) -> int:
        return sum(int(c.pool.get("denials", 0)) for c in self.cohorts)

    @property
    def queries(self) -> list[dict[str, Any]]:
        """Every completed query's stat dict, ascending global id."""
        out = [q for c in self.cohorts for q in c.queries]
        return sorted(out, key=lambda d: d["query"])

    def counter_total(self, name: str) -> float:
        return self.snapshot.counter_total(name) if self.snapshot else 0.0

    def latency_percentiles(
        self, qs: tuple[int, ...] = (50, 90, 99)
    ) -> dict[str, float]:
        """Sketch-backed global percentiles (1% relative-error bound);
        ``{}`` when no cohort completed."""
        return (self.snapshot.percentiles("workload.query_latency_s", qs)
                if self.snapshot else {})

    def queue_delay_percentiles(
        self, qs: tuple[int, ...] = (50, 90, 99)
    ) -> dict[str, float]:
        return (self.snapshot.percentiles("workload.queue_delay_s", qs)
                if self.snapshot else {})

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """JSON-safe digest; the ``wall`` section is the only part that
        may differ between runs or shard counts."""
        return {
            "n_queries": self.n_queries,
            "n_cohorts": self.config.n_cohorts,
            "policy": self.config.workload.policy.value,
            "makespan_s": self.makespan_s,
            "latency": self.latency_percentiles(),
            "queue_delay": self.queue_delay_percentiles(),
            "all_valid": self.all_valid,
            "partial": self.partial,
            "total_denials": self.total_denials,
            "cohorts": [
                {
                    "cohort": c.cohort,
                    "query_ids": list(c.query_ids),
                    "makespan_s": c.makespan_s,
                    "pool": dict(c.pool),
                    "all_valid": c.all_valid,
                }
                for c in self.cohorts
            ],
            "failures": [f.to_dict() for f in self.failures],
            "queries": self.queries,
            "wall": {
                "n_shards": self.n_shards,
                "wall_s": self.wall_s,
                "wall_s_by_shard": dict(sorted(
                    self.wall_s_by_shard.items()
                )),
                "wall_s_by_cohort": {c.cohort: c.wall_s for c in self.cohorts},
            },
        }

    def summary(self) -> str:
        """Multi-line human-readable digest."""
        lat = self.latency_percentiles()
        lat = {k: lat.get(k, 0.0) for k in ("p50", "p90", "p99")}
        lines = [
            f"fleet: {self.n_queries} queries in "
            f"{len(self.cohorts)}/{self.config.n_cohorts} cohorts on "
            f"{self.n_shards} shard processes, "
            f"policy={self.config.workload.policy.value}, "
            f"makespan={self.makespan_s:.2f}s, wall={self.wall_s:.2f}s",
            f"latency p50={lat['p50']:7.2f}s p90={lat['p90']:7.2f}s "
            f"p99={lat['p99']:7.2f}s  denials={self.total_denials} "
            f"all_valid={self.all_valid}",
        ]
        for c in self.cohorts:
            lines.append(
                f"  cohort{c.cohort}: {len(c.queries):3d} queries "
                f"(shard {c.shard}) makespan={c.makespan_s:7.2f}s "
                f"denials={c.pool.get('denials', 0)}"
            )
        for f in self.failures:
            lines.append(
                f"  FAILED shard {f.shard} ({f.kind}, exit={f.exitcode}): "
                f"lost cohorts {list(f.cohorts)}"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
class FleetRunner:
    """Launch the shard workers, stream their snapshots, merge results.

    ``on_snapshot`` (when the workload has ``obs.live_interval_s`` set)
    receives a *merged* fleet snapshot every time any cohort reports —
    the latest periodic snapshot per cohort folded in cohort-id order —
    so ``--live``/``repro tail`` see fleet-wide progress mid-run.
    """

    def __init__(
        self,
        cfg: FleetConfig,
        validate: bool = True,
        on_snapshot: Callable[[Snapshot], None] | None = None,
    ) -> None:
        self.cfg = cfg
        self.validate = validate
        self.on_snapshot = on_snapshot
        self.metrics = MetricsRegistry()

    # ------------------------------------------------------------------
    def run(self) -> FleetResult:
        cfg = self.cfg
        t0 = time.monotonic()
        specs = generate_workload(cfg.workload)
        cohorts = partition_cohorts(specs, cfg.n_cohorts)
        nonempty = [ci for ci, group in enumerate(cohorts) if group]
        # Shards beyond the nonempty cohort count would find nothing to
        # claim; don't start them (results are unaffected).
        n_shards = max(1, min(cfg.n_shards, len(nonempty)))

        ctx = get_context()
        # claims[ci]: the shard that took cohort ci, -1 while nobody has
        claims = ctx.Array("i", [-1] * cfg.n_cohorts)
        procs: dict[int, Any] = {}
        conns: dict[int, Connection] = {}
        for s in range(n_shards):
            parent_end, child_end = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_worker_main,
                args=(child_end, s, cfg, claims, self.validate),
                name=f"repro-fleet-shard{s}",
            )
            proc.start()
            child_end.close()
            procs[s], conns[s] = proc, parent_end
            self.metrics.inc("fleet.shards_launched")

        done: dict[int, CohortResult] = {}
        live: dict[int, Snapshot] = {}
        wall_by_shard: dict[int, float] = {}
        errors: dict[int, str] = {}
        failures: list[ShardFailure] = []
        deadline = {
            s: time.monotonic() + cfg.worker_timeout_s for s in procs
        }
        alive = set(procs)

        taken = claims.get_obj()  # lock-free view: a worker may die holding it

        def lost(who: int) -> tuple[int, ...]:
            return tuple(ci for ci in nonempty
                         if ci not in done and taken[ci] == who)

        while alive:
            ready = conn_wait([conns[s] for s in alive], timeout=0.2)
            now = time.monotonic()
            finished: list[int] = []
            for s in sorted(alive):
                if conns[s] not in ready:
                    if now > deadline[s]:
                        failures.append(self._kill_shard(
                            procs[s], s, lost, "timeout",
                            f"no message for {cfg.worker_timeout_s:.0f}s",
                        ))
                        finished.append(s)
                    continue
                deadline[s] = now + cfg.worker_timeout_s
                eof = self._drain_conn(
                    conns[s], s, done, live, wall_by_shard, errors,
                )
                if eof:
                    failure = self._reap_shard(procs[s], s, lost, errors)
                    if failure is not None:
                        failures.append(failure)
                    finished.append(s)
            for s in finished:
                alive.discard(s)
                conns[s].close()

        if unclaimed := lost(-1):
            # every worker failed (a clean one leaves nothing unclaimed):
            # the last one reaped answers for what nobody was left to claim
            failures[-1] = dataclasses.replace(
                failures[-1], cohorts=failures[-1].cohorts + unclaimed)
        completed = [done[ci] for ci in sorted(done)]
        merged: Snapshot | None = None
        if completed:
            merged = merge_snapshots([c.snapshot for c in completed])
            self.metrics.inc("fleet.snapshots_merged", len(completed))
        for s, wall in sorted(wall_by_shard.items()):
            self.metrics.set_gauge("fleet.worker_wall_s", wall, shard=s)
        for c in completed:
            self.metrics.set_gauge("fleet.cohort_wall_s", c.wall_s,
                                   cohort=c.cohort)
        return FleetResult(
            config=cfg,
            cohorts=completed,
            failures=failures,
            snapshot=merged,
            n_shards=n_shards,
            wall_s=time.monotonic() - t0,
            wall_s_by_shard=wall_by_shard,
            metrics=self.metrics.snapshot(),
        )

    # ------------------------------------------------------------------
    def _drain_conn(
        self,
        conn: Connection,
        shard: int,
        done: dict[int, CohortResult],
        live: dict[int, Snapshot],
        wall_by_shard: dict[int, float],
        errors: dict[int, str],
    ) -> bool:
        """Receive every pending message; True when the pipe hit EOF.  A
        snapshot is parsed once (``merge`` returns a new object, so ``live``
        shares a cohort's final one) and a periodic one only for a reader."""
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                # OSError: the worker died mid-write — ``recv`` got a
                # length header and then less payload than it promised.
                return True
            kind = msg[0]
            if kind == "snapshot":
                if self.on_snapshot is not None:
                    _, ci, snap_json = msg
                    live[ci] = Snapshot.from_json(snap_json)
                    self._emit_live(live)
            elif kind == "cohort_done":
                _, ci, payload = msg
                done[ci] = self._cohort_result(payload, shard)
                live[ci] = done[ci].snapshot
                self._emit_live(live)
            elif kind == "worker_done":
                _, s, wall = msg
                wall_by_shard[s] = wall
            elif kind == "error":
                _, s, detail = msg
                errors[s] = detail
            else:
                raise RuntimeError(
                    f"unknown fleet worker message {msg!r}"
                )
            if not conn.poll():
                return False

    def _emit_live(self, live: dict[int, Snapshot]) -> None:
        if self.on_snapshot is None or not live:
            return
        merged = merge_snapshots([live[ci] for ci in sorted(live)])
        self.metrics.inc("fleet.snapshots_merged", len(live))
        self.on_snapshot(merged)

    def _kill_shard(
        self,
        proc: Any,
        shard: int,
        lost: Callable[[int], tuple[int, ...]],
        kind: str,
        detail: str,
    ) -> ShardFailure:
        proc.terminate()
        proc.join(5.0)
        if proc.is_alive():
            proc.kill()
            proc.join(5.0)
        self.metrics.inc("fleet.shards_failed")
        return ShardFailure(
            shard=shard,
            cohorts=lost(shard),
            kind=kind,
            detail=detail,
            exitcode=proc.exitcode,
        )

    def _reap_shard(
        self,
        proc: Any,
        shard: int,
        lost: Callable[[int], tuple[int, ...]],
        errors: dict[int, str],
    ) -> ShardFailure | None:
        """Join a worker whose pipe closed; a failure when a claimed cohort
        is missing or the exit was unclean."""
        proc.join(self.cfg.worker_timeout_s)
        if proc.is_alive():
            return self._kill_shard(
                proc, shard, lost, "timeout",
                "pipe closed but process did not exit",
            )
        held = lost(shard)
        exitcode = proc.exitcode
        if exitcode == 0 and not held and shard not in errors:
            return None
        self.metrics.inc("fleet.shards_failed")
        if shard in errors:
            return ShardFailure(shard=shard, cohorts=held, kind="error",
                                detail=errors[shard], exitcode=exitcode)
        return ShardFailure(
            shard=shard, cohorts=held, kind="crash",
            detail=f"worker exited with code {exitcode}",
            exitcode=exitcode,
        )

    @staticmethod
    def _cohort_result(payload: dict[str, Any], shard: int) -> CohortResult:
        return CohortResult(
            cohort=payload["cohort"],
            shard=shard,
            query_ids=tuple(payload["query_ids"]),
            queries=tuple(payload["queries"]),
            makespan_s=payload["makespan_s"],
            pool=payload["pool"],
            pool_utilization=payload["pool_utilization"],
            all_valid=payload["all_valid"],
            snapshot=Snapshot.from_json(payload["snapshot"]),
            wall_s=payload["wall_s"],
        )


def run_fleet(
    cfg: FleetConfig,
    validate: bool = True,
    on_snapshot: Callable[[Snapshot], None] | None = None,
) -> FleetResult:
    """Convenience wrapper: build a :class:`FleetRunner` and run it."""
    return FleetRunner(cfg, validate=validate, on_snapshot=on_snapshot).run()
