"""Deterministic fault injection for the simulated cluster (``repro.faults``).

The paper's premise is elasticity on a *shared* cluster, and shared
clusters misbehave: recruits die before they activate, links drop or delay
packets, acknowledgements get lost.  This module supplies a seeded,
reproducible :class:`FaultPlan` describing such adversity and the
:class:`FaultInjector` that executes it against one run.  The recovery
machinery it exercises lives in the protocol layers:

* ``cluster/network.py`` — per-message ack/timeout/retransmission with
  exponential backoff (``Network.send``); dropped and duplicate bytes are
  accounted separately so byte conservation stays checkable,
* ``core/joinnode.py`` — idempotent receipt of data chunks (duplicate
  suppression keyed on ``(origin, transfer_seq)``) and a crash-safe run
  loop (a fail-stop interrupt while dormant kills the node cleanly),
* ``core/scheduler.py`` — acknowledged recruitment: every ``ActivateJoin``
  is acked by the recruit, timeouts retry a *different* pool node with
  exponential backoff, and pool exhaustion degrades gracefully to the
  out-of-core spill path (``SchedulerProcess.fallback_spill``).

Everything is deterministic: one seeded RNG stream consumed in simulation
event order, so a given ``(RunConfig, FaultPlan)`` pair always produces the
identical trajectory, metrics, and result — chaos you can bisect.

Supported crash model (documented scope): **fail-stop crashes of dormant
pool nodes** — the interesting failure for the paper's algorithms, because
it breaks recruitment mid-expansion.  Crashing a node that already holds
build tuples would require state replication or upstream replay to keep
the join answer exact, which the 2004 protocol does not have; asking for
it raises :class:`UnrecoverableFaultError` instead of silently corrupting
the result.  See docs/FAULTS.md for the schema and worked examples.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields, replace
from collections.abc import Callable, Iterable
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from .config import CostModel
    from .obs import MetricsRegistry
    from .sim import Simulator

__all__ = [
    "PHASES",
    "MAX_ATTEMPTS",
    "CrashSpec",
    "LinkSlowdown",
    "FaultPlan",
    "FaultInjector",
    "FaultPlanError",
    "UnrecoverableFaultError",
    "finite_float",
]

#: phase names a :class:`CrashSpec` may trigger on (scheduler phase entry)
PHASES = ("build", "reshuffle", "probe", "ooc")

#: transmission attempts per message before the link is unrecoverable
MAX_ATTEMPTS = 50


def finite_float(text: str) -> float:
    """``float(text)``, refusing NaN and the infinities with a ValueError.

    ``float``, ``argparse`` and ``json`` all accept ``nan`` and ``inf``, and
    a NaN slips past every ``<``/``<=`` range check behind them.  Every
    number read from outside goes through here: the CLI's float flags and
    list fields, and each float literal of a JSON fault plan.
    """
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


class FaultPlanError(ValueError):
    """The fault plan is malformed or references nonexistent targets."""


class UnrecoverableFaultError(RuntimeError):
    """An injected fault exceeds the protocol's recovery envelope.

    Raised when a crash targets a node that already holds join state
    (recovery would need replication/replay — out of scope, see module
    docstring) or when a link is so lossy that a message exhausts its
    :data:`MAX_ATTEMPTS` transmissions.
    """


# ----------------------------------------------------------------------
# plan (pure data, JSON round-trippable)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CrashSpec:
    """Fail-stop crash of join-pool node ``node`` (pool index).

    Fires either at simulated time ``at_time`` or on entry to scheduler
    phase ``at_phase`` (one of :data:`PHASES`); exactly one must be set.
    """

    node: int
    at_time: float | None = None
    at_phase: str | None = None

    def __post_init__(self) -> None:
        if self.node < 0:
            raise FaultPlanError(f"crash node must be >= 0, got {self.node}")
        if (self.at_time is None) == (self.at_phase is None):
            raise FaultPlanError(
                "crash spec needs exactly one of at_time / at_phase"
            )
        if self.at_time is not None and self.at_time < 0:
            raise FaultPlanError("crash at_time must be >= 0")
        if self.at_phase is not None and self.at_phase not in PHASES:
            raise FaultPlanError(
                f"unknown crash phase {self.at_phase!r}; expected one of {PHASES}"
            )


@dataclass(frozen=True)
class LinkSlowdown:
    """Multiply wire time by ``factor`` on matching links during [t0, t1).

    ``src``/``dst`` are *global* node ids (``Node.node_id``); ``None``
    matches any endpoint.
    """

    t0: float
    t1: float
    factor: float
    src: int | None = None
    dst: int | None = None

    def __post_init__(self) -> None:
        if self.factor < 1.0:
            raise FaultPlanError("slowdown factor must be >= 1")
        if not (0.0 <= self.t0 < self.t1):
            raise FaultPlanError("slowdown window needs 0 <= t0 < t1")

    def matches(self, src_id: int, dst_id: int, now: float) -> bool:
        return (
            self.t0 <= now < self.t1
            and (self.src is None or self.src == src_id)
            and (self.dst is None or self.dst == dst_id)
        )


@dataclass(frozen=True)
class FaultPlan:
    """A complete, seeded description of one run's adversity.

    All randomness (drop verdicts) comes from a single RNG stream seeded
    with ``seed`` and consumed in simulation event order — deterministic
    and replayable.  ``drop_prob`` applies to the payload of **every**
    inter-node message; ``ack_drop_prob`` independently loses the delivery
    acknowledgement (the payload arrived, so the retransmission is a
    duplicate the receiver must suppress).  Retransmission timing is
    derived from the run's cost model (:class:`FaultInjector`); a message
    that exhausts :data:`MAX_ATTEMPTS` raises
    :class:`UnrecoverableFaultError` rather than deadlocking the run.
    """

    seed: int = 0
    drop_prob: float = 0.0
    ack_drop_prob: float = 0.0
    crashes: tuple[CrashSpec, ...] = ()
    slowdowns: tuple[LinkSlowdown, ...] = ()
    #: control-plane fault tolerance (repro.core.recovery).  Setting
    #: ``membership=True`` (or any of the knobs below) arms the heartbeat
    #: failure detector and the backup scheduler, which lifts the
    #: dormant-only crash ban: working-node crashes become recoverable.
    membership: bool = False
    #: heartbeat period; ``None`` derives it from the drain-poll interval
    heartbeat_interval_s: float | None = None
    #: missed-ack window before a node is *suspected* (may false-positive)
    suspect_timeout_s: float | None = None
    #: suspicion age before the detector declares death (no oracle — a
    #: slow link that clears within this window is a tolerated false
    #: positive, counted in ``membership.false_positive``)
    confirm_timeout_s: float | None = None
    #: fail-stop the primary scheduler at this simulated time
    kill_scheduler_at: float | None = None

    def __post_init__(self) -> None:
        for name in ("drop_prob", "ack_drop_prob"):
            p = getattr(self, name)
            if not (0.0 <= p < 1.0):
                raise FaultPlanError(f"{name} must be in [0, 1), got {p}")
        for name in ("heartbeat_interval_s", "suspect_timeout_s",
                     "confirm_timeout_s"):
            v = getattr(self, name)
            if v is not None and v <= 0:
                raise FaultPlanError(f"{name} must be > 0")
        if self.kill_scheduler_at is not None and self.kill_scheduler_at < 0:
            raise FaultPlanError("kill_scheduler_at must be >= 0")

    # -- convenience -----------------------------------------------------
    @property
    def any_link_faults(self) -> bool:
        """True if the reliable-transport path must engage at all."""
        return (
            self.drop_prob > 0.0
            or self.ack_drop_prob > 0.0
            or bool(self.slowdowns)
        )

    @property
    def active(self) -> bool:
        return (self.any_link_faults or bool(self.crashes)
                or self.membership_active)

    @property
    def membership_active(self) -> bool:
        """True when the heartbeat detector + backup scheduler are armed."""
        return (
            self.membership
            or self.heartbeat_interval_s is not None
            or self.suspect_timeout_s is not None
            or self.confirm_timeout_s is not None
            or self.kill_scheduler_at is not None
        )

    def with_crashes(self, *specs: CrashSpec) -> FaultPlan:
        return replace(self, crashes=self.crashes + tuple(specs))

    # -- JSON ------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        data = asdict(self)
        data["crashes"] = list(data["crashes"])
        data["slowdowns"] = list(data["slowdowns"])
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> FaultPlan:
        if not isinstance(data, dict):
            raise FaultPlanError(f"fault plan must be an object, got {type(data).__name__}")
        schema = {f.name: f.type for f in fields(cls)}  # annotations, as written
        unknown = set(data) - set(schema)
        if unknown:
            raise FaultPlanError(f"unknown fault-plan keys: {sorted(unknown)}")
        scalar = {"int": int, "float": (int, float), "bool": bool}
        for name, value in data.items():
            kind, _, nullable = schema[name].partition(" | ")
            if kind not in scalar:
                continue  # crashes / slowdowns: entries are checked below
            if not (value is None and nullable) and not (
                    isinstance(value, scalar[kind])
                    and isinstance(value, bool) == (kind == "bool")):
                raise FaultPlanError(
                    f"fault-plan key {name!r} must be "
                    f"{schema[name].replace(' | None', ' or null')}, got {value!r}"
                )
        kwargs = dict(data)
        try:
            kwargs["crashes"] = tuple(
                CrashSpec(**c) for c in data.get("crashes", ())
            )
            kwargs["slowdowns"] = tuple(
                LinkSlowdown(**s) for s in data.get("slowdowns", ())
            )
        except TypeError as exc:
            raise FaultPlanError(f"malformed crash/slowdown entry: {exc}") from exc
        return cls(**kwargs)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> FaultPlan:
        try:
            data = json.loads(text, parse_float=finite_float,
                              parse_constant=finite_float)
        except json.JSONDecodeError as exc:
            raise FaultPlanError(f"fault plan is not valid JSON: {exc}") from exc
        except ValueError as exc:
            raise FaultPlanError(f"fault plan: {exc}") from None
        return cls.from_dict(data)

    @classmethod
    def from_file(cls, path: str) -> FaultPlan:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise FaultPlanError(f"cannot read fault plan {path!r}: {exc}") from exc
        return cls.from_json(text)


# ----------------------------------------------------------------------
# injector (runtime, bound to one simulation)
# ----------------------------------------------------------------------
class FaultInjector:
    """Executes a :class:`FaultPlan` against one run.

    The network consults it per message (drop verdicts, slowdown factor,
    retransmission timeouts); the driver attaches the join processes and
    calls :meth:`start`; the scheduler reports phase entries through
    :meth:`notify_phase` so phase-triggered crashes fire synchronously.

    The base retransmission timeout is ``4 x (net_latency + wire time of
    64 KiB)`` on the run's cost model; it doubles per retransmission up
    to 32 x the base.
    """

    def __init__(
        self,
        plan: FaultPlan,
        sim: Simulator,
        metrics: MetricsRegistry,
        cost: CostModel,
        trace: Callable[..., None] | None = None,
    ):
        self.plan = plan
        self.sim = sim
        self.metrics = metrics
        self._trace = trace
        import numpy as np  # here, so the plan and error types load without it

        self._rng = np.random.default_rng(
            np.random.SeedSequence(entropy=plan.seed, spawn_key=(91,))
        )
        #: pool indices of nodes killed so far
        self.crashed: set[int] = set()
        #: pool index -> (JoinProcess, its sim Process)
        self._joins: dict[int, tuple[Any, Any]] = {}
        self._scheduler_proc: Any = None  # primary scheduler sim Process
        self._fired: set[int] = set()  # indices into plan.crashes
        self._rto = 4.0 * (cost.net_latency + cost.wire_time(64 * 1024))

    # -- wiring ----------------------------------------------------------
    def attach_joins(self, joins: dict[int, tuple[Any, Any]]) -> None:
        """Register ``driver.spawn_join``'s pairs as the crash targets."""
        self._joins = dict(joins)
        for i, spec in enumerate(self.plan.crashes):
            if spec.node not in self._joins:
                raise FaultPlanError(
                    f"crash spec #{i} targets join node {spec.node}, but the "
                    f"pool has indices {sorted(self._joins)}"
                )

    def attach_scheduler(self, proc: Any) -> None:
        """Register the primary scheduler process (kill_scheduler_at target)."""
        self._scheduler_proc = proc

    def start(self) -> None:
        """Spawn timer processes for time-triggered crashes."""
        for i, spec in enumerate(self.plan.crashes):
            if spec.at_time is not None:
                self.sim.spawn(
                    self._crash_at(i, spec), name=f"fault:crash@{spec.at_time}"
                )
        if self.plan.kill_scheduler_at is not None:
            self.sim.spawn(
                self._kill_scheduler_at(self.plan.kill_scheduler_at),
                name=f"fault:sched-kill@{self.plan.kill_scheduler_at}",
            )

    def _kill_scheduler_at(self, at: float):
        if at > self.sim.now:
            yield self.sim.timeout(at - self.sim.now)
        proc = self._scheduler_proc
        if proc is None or not proc.is_alive:
            self.trace("scheduler_crash_noop")
            return
        proc.interrupt(cause=("scheduler_crash",))
        self.metrics.counter("faults_injected", kind="scheduler_crash").inc()
        self.trace("scheduler_crash")

    def _crash_at(self, idx: int, spec: CrashSpec):
        if spec.at_time > self.sim.now:
            yield self.sim.timeout(spec.at_time - self.sim.now)
        self._fire_crash(idx, spec)

    def notify_phase(self, phase: str) -> None:
        """Scheduler phase-entry hook: fire matching phase crashes now."""
        for i, spec in enumerate(self.plan.crashes):
            if spec.at_phase == phase and i not in self._fired:
                self._fire_crash(i, spec)

    def _fire_crash(self, idx: int, spec: CrashSpec) -> None:
        if idx in self._fired:
            return
        self._fired.add(idx)
        join, proc = self._joins[spec.node]
        if spec.node in self.crashed or not proc.is_alive:
            self.trace("crash_noop", node=spec.node)
            return
        if join.state != join.DORMANT and not self.plan.membership_active:
            raise UnrecoverableFaultError(
                f"fault plan crashes join node {spec.node} while {join.state} "
                "— it holds join state, and recovering it needs the membership "
                "layer (set membership=true in the fault plan to arm the "
                "heartbeat detector + source replay; see docs/FAULTS.md)"
            )
        self.crashed.add(spec.node)
        proc.interrupt(cause=("node_crash", spec.node))
        self.metrics.counter("faults_injected", kind="crash").inc()
        self.trace("node_crash", node=spec.node, state=join.state)

    # -- link verdicts (network hot path) --------------------------------
    @property
    def links_active(self) -> bool:
        return self.plan.any_link_faults

    def roll_drop(self, src_id: int, dst_id: int) -> bool:
        """Payload-loss verdict for one transmission attempt.

        Loopback (``src == dst``) never drops: the message never touches
        a link.  No RNG draw happens when the probability is zero, so a
        plan with only crashes perturbs nothing else.
        """
        if src_id == dst_id or self.plan.drop_prob <= 0.0:
            return False
        if float(self._rng.random()) >= self.plan.drop_prob:
            return False
        self.metrics.counter("faults_injected", kind="message_drop").inc()
        return True

    def roll_ack_drop(self, src_id: int, dst_id: int) -> bool:
        """Ack-loss verdict (payload arrived; sender will retransmit)."""
        if src_id == dst_id or self.plan.ack_drop_prob <= 0.0:
            return False
        if float(self._rng.random()) >= self.plan.ack_drop_prob:
            return False
        self.metrics.counter("faults_injected", kind="ack_drop").inc()
        return True

    def slowdown_factor(self, src_id: int, dst_id: int, now: float) -> float:
        """Wire-time multiplier for this link at this instant (>= 1)."""
        factor = 1.0
        for s in self.plan.slowdowns:
            if s.matches(src_id, dst_id, now):
                factor = max(factor, s.factor)
        return factor

    # -- retransmission timing -------------------------------------------
    def rto(self, attempt: int) -> float:
        """Timeout before retransmission ``attempt`` (1-based): the base
        RTO doubled per earlier retransmission, capped at 32 x the base."""
        return min(self._rto * 2.0 ** max(attempt - 1, 0), 32.0 * self._rto)

    def count_retry(self, kind: str) -> None:
        self.metrics.counter("retries_total", kind=kind).inc()

    # -- misc ------------------------------------------------------------
    def trace(self, event: str, **fields: Any) -> None:
        if self._trace is not None:
            self._trace(event, "faults", **fields)


def crash_specs_from_cli(specs: Iterable[str]) -> tuple[CrashSpec, ...]:
    """Parse ``--crash-node`` values: ``N`` (t=0), ``N@T``, ``N@phase:P``."""
    out = []
    for raw in specs:
        node_part, _, when = raw.partition("@")
        try:
            node = int(node_part)
        except ValueError:
            raise FaultPlanError(
                f"bad --crash-node {raw!r}: node must be an int"
            ) from None
        if not when:
            out.append(CrashSpec(node=node, at_time=0.0))
        elif when.startswith("phase:"):
            out.append(CrashSpec(node=node, at_phase=when[len("phase:"):]))
        else:
            try:
                out.append(CrashSpec(node=node, at_time=finite_float(when)))
            except ValueError:
                raise FaultPlanError(
                    f"bad --crash-node {raw!r}: expected N, N@TIME (a finite "
                    "number) or N@phase:NAME"
                ) from None
    return tuple(out)
