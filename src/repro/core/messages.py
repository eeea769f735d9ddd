"""Typed protocol messages exchanged by scheduler, sources and join nodes.

Every message reports ``nbytes`` (what the network charges) and ``kind``
(used for traffic accounting and byte-conservation checks).  Data chunks
carry real NumPy arrays of join-attribute values; control messages are
charged a fixed :data:`CONTROL_BYTES` at every workload scale.

``hop`` on a data chunk records *why* the chunk crossed the wire, which is
how the benchmarks reconstruct the paper's "extra communication volume"
(Figures 4 and 11): anything that is not a ``primary``/``probe`` hop is
extra work caused by the expansion strategy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..hashing import HashRange, Router

if TYPE_CHECKING:  # pragma: no cover - strategy imports this module
    from .strategy import Decision

__all__ = [
    "CONTROL_BYTES",
    "Hop",
    "DataChunk",
    "ActivateJoin",
    "ActivateAck",
    "RouteUpdate",
    "MemoryFull",
    "ReplicateOrder",
    "BisectOrder",
    "LinearSplitOrder",
    "SplitDone",
    "ReliefPing",
    "ReliefAck",
    "OutputRedirect",
    "SpillOrder",
    "SourceDone",
    "StatusRequest",
    "StatusReport",
    "StartProbe",
    "CountRequest",
    "CountVector",
    "ReshuffleOrder",
    "ReshuffleDone",
    "FinalizePass",
    "PassDone",
    "Shutdown",
    "FinalReport",
    "PollTick",
    "RecruitRequest",
    "RecruitGrant",
    "RecruitDeny",
    "QueryDone",
    "HeartbeatPing",
    "HeartbeatAck",
    "StateSync",
    "SchedulerFailover",
    "Depose",
    "NodeLost",
    "NodeLostAck",
    "ReplayOrder",
    "ReplayDone",
    "DeathVerdict",
]

#: wire size of a control-plane message; fixed at every workload scale
#: (the one fixed cost ``CostModel.scaled`` does not shrink)
CONTROL_BYTES = 64


class Hop:
    """Why a data chunk crossed the network (comm-volume accounting)."""

    PRIMARY = "primary"      # source -> join node, first delivery (build)
    FORWARD = "forward"      # join -> join: pending-buffer forwarding
    SPLIT = "split"          # join -> join: split transfer
    RESHUFFLE = "reshuffle"  # join -> join: hybrid reshuffle move
    PROBE = "probe"          # source -> join, probe, single/first copy
    PROBE_DUP = "probe_dup"  # source -> join, probe, extra replica copies
    OUTPUT = "output"        # join -> output sink: materialized pairs

    BUILD_EXTRA = (FORWARD, SPLIT, RESHUFFLE)
    ALL = (PRIMARY, FORWARD, SPLIT, RESHUFFLE, PROBE, PROBE_DUP, OUTPUT)


class _Control:
    """Base for fixed-size control messages."""

    kind = "control"

    @property
    def nbytes(self) -> int:
        return CONTROL_BYTES


@dataclass(slots=True)
class DataChunk:
    """A buffered batch of tuples of one relation."""

    relation: str                   # "R" (build) or "S" (probe)
    values: np.ndarray              # uint64 join attributes
    tuple_bytes: int                # full logical tuple size
    hop: str = Hop.PRIMARY
    origin: int = -1                # sending actor id (diagnostics)
    #: per-run unique sequence number (stamped by RunContext.send); the
    #: receiver suppresses re-deliveries keyed on (origin, transfer_seq) —
    #: the idempotence layer an at-least-once transport requires
    transfer_seq: int = -1

    kind = "data"

    def __post_init__(self) -> None:
        # "O" carries materialized output pairs to an output sink.
        if self.relation not in ("R", "S", "O"):
            raise ValueError(f"bad relation {self.relation!r}")
        if self.hop not in Hop.ALL:
            raise ValueError(f"bad hop {self.hop!r}")

    @property
    def tuples(self) -> int:
        return self.values.size

    @property
    def nbytes(self) -> int:
        return self.values.size * self.tuple_bytes


# ----------------------------------------------------------------------
# scheduler -> join nodes
# ----------------------------------------------------------------------
@dataclass
class ActivateJoin(_Control):
    """Recruit a join node (initial assignment or expansion).

    Exactly one of ``hash_range`` / ``bucket`` is set: contiguous-range
    ownership (replicate/hybrid/bisect/OOC) or a linear-hash bucket id.
    """

    join_index: int
    hash_range: HashRange | None = None
    bucket: int | None = None
    phase: str = "build"
    #: recruited as a probe-phase output sink (footnote 1), not a bucket
    output_sink: bool = False


@dataclass
class ActivateAck(_Control):
    """A recruit confirming its ActivateJoin (join node -> scheduler).

    Recruitment is acknowledged so the scheduler can distinguish a live
    recruit from a crashed pool node: no ack within the recruit timeout
    means the scheduler excludes the node and retries a different one
    (see ``SchedulerProcess.recruit_node``)."""

    node: int


@dataclass
class ReplicateOrder(_Control):
    """To a full node: your range is replicated on ``new_node``; forward all
    pending and future build chunks there and stop storing (paper §4.2.2)."""

    new_node: int


@dataclass
class BisectOrder(_Control):
    """To a full node: keep ``[lo, mid)``, ship positions >= ``mid`` to
    ``new_node`` (split-based algorithm, TARGETED_BISECT policy)."""

    mid: int
    new_node: int


@dataclass
class LinearSplitOrder(_Control):
    """To the owner of the bucket at the split pointer: rehash your bucket
    with h_{i+1}, ship tuples addressing ``new_bucket`` to ``new_node``
    (split-based algorithm, LINEAR_POINTER policy, §4.2.1)."""

    new_bucket: int
    modulus: int
    new_node: int


@dataclass
class ReliefPing(_Control):
    """To a node that reported MemoryFull: retry your parked chunks now."""


@dataclass
class OutputRedirect(_Control):
    """Probe-phase expansion (paper footnote 1): forward your pending and
    future materialized output pairs to the freshly recruited sink."""

    new_node: int


@dataclass
class SpillOrder(_Control):
    """To a full node when the potential pool is exhausted: degrade to
    out-of-core spilling for your range (documented fallback)."""


@dataclass
class StartProbe(_Control):
    """Phase switch.  ``router`` is the final probe routing (sources);
    join nodes receive it with ``router=None`` as a finalize signal."""

    router: Router | None = None

    @property
    def nbytes(self) -> int:
        return CONTROL_BYTES + (self.router.wire_bytes() if self.router else 0)


@dataclass
class CountRequest(_Control):
    """Hybrid reshuffle: report per-position tuple counts over [lo, hi)."""

    lo: int
    hi: int


@dataclass
class ReshuffleOrder(_Control):
    """Hybrid reshuffle: the group's new contiguous assignment.

    ``assignments`` maps member node -> its new subrange (or None when the
    greedy cut gave it a zero-width slice).  The receiver keeps tuples in
    its own slice and ships every other slice to its new owner.
    """

    assignments: tuple[tuple[int, HashRange | None], ...]

    @property
    def nbytes(self) -> int:
        return CONTROL_BYTES + 20 * len(self.assignments)


@dataclass
class FinalizePass(_Control):
    """OOC: run the out-of-core bucket passes now (probe stream drained)."""


@dataclass
class StatusRequest(_Control):
    """Drain polling: report your counters (token echoes back)."""

    token: int


@dataclass
class Shutdown(_Control):
    """Terminate after replying with a FinalReport (join nodes) or
    immediately (sources, ticker)."""


# ----------------------------------------------------------------------
# scheduler -> sources
# ----------------------------------------------------------------------
@dataclass
class RouteUpdate:
    """New routing table for the data sources."""

    router: Router
    phase: str = "build"

    kind = "control"

    @property
    def nbytes(self) -> int:
        return self.router.wire_bytes()


# ----------------------------------------------------------------------
# join nodes -> scheduler
# ----------------------------------------------------------------------
@dataclass
class MemoryFull(_Control):
    """A join node's bucket memory is exhausted (paper's trigger event).

    ``deficit_bytes`` is the reporter's parked backlog (bytes it could not
    place) — the shared pool's MEMORY_DEFICIT policy grants the smallest
    deficit first (see :class:`repro.config.PoolPolicy`)."""

    node: int
    deficit_bytes: int = 0


@dataclass
class SplitDone(_Control):
    """Linear split finished; ``moved_tuples`` went to the new bucket."""

    node: int
    moved_tuples: int


@dataclass
class ReliefAck(_Control):
    """Response to a relief action (ReplicateOrder/BisectOrder/ReliefPing/
    SpillOrder): parked data reprocessed; ``still_full`` asks for more."""

    node: int
    still_full: bool
    moved_tuples: int = 0


@dataclass
class StatusReport(_Control):
    """Drain-poll response: cumulative per-phase chunk counters."""

    node: int
    token: int
    received_build: int
    processed_build: int
    emitted_build: int
    received_probe: int
    processed_probe: int
    busy: bool
    emitted_probe: int = 0


@dataclass
class CountVector:
    """Per-position tuple counts for the reshuffle step.

    The host carries only the occupied positions of ``[lo, hi)``:
    ``offsets`` (ascending, relative to ``lo``) and their ``counts``, as
    :meth:`NodeHashStore.position_counts` returns them.  The wire size
    models the paper's dense vector, 8 B a position, however sparse it is.
    It is co-scaled with the workload (``wire_scale``): count vectors are
    proportional to the *fixed* hash-table resolution, so at a reduced
    workload scale their full-resolution size would be over-weighted
    relative to the data traffic (see CostModel.scaled)."""

    node: int
    lo: int
    hi: int
    offsets: np.ndarray
    counts: np.ndarray
    wire_scale: float = 1.0

    kind = "counts"

    @property
    def nbytes(self) -> int:
        return 32 + int(8 * (self.hi - self.lo) * self.wire_scale)


@dataclass
class ReshuffleDone(_Control):
    node: int
    moved_tuples: int


@dataclass
class PassDone(_Control):
    """OOC final passes finished on this node."""

    node: int


@dataclass
class FinalReport(_Control):
    """End-of-run statistics from one join node."""

    node: int
    stored_tuples: int
    matches: int
    peak_memory: int
    overcommit_bytes: int
    spilled_r_tuples: int
    spilled_s_tuples: int
    activated_at: float
    split_transfer_s: float = 0.0
    output_tuples: int = 0
    output_spilled_tuples: int = 0
    is_output_sink: bool = False


# ----------------------------------------------------------------------
# scheduler <-> shared resource pool (repro.workload multi-tenancy)
# ----------------------------------------------------------------------
@dataclass
class RecruitRequest(_Control):
    """A query's scheduler asks the shared pool for join nodes.

    ``admission=True`` is the query's start-of-life request for its
    ``initial_nodes`` (``want`` of them, head-of-line FIFO, never denied —
    it parks until enough nodes free up, which is the workload's queueing
    delay).  ``admission=False`` is a mid-run expansion recruit for one
    node; it may be denied (policy cap or grant timeout), in which case
    the scheduler degrades the reporter to the OOC spill path.
    """

    query: int
    want: int = 1
    admission: bool = False
    #: reporter's parked backlog (MEMORY_DEFICIT policy ordering)
    deficit_bytes: int = 0
    phase: str = "build"


@dataclass
class RecruitGrant(_Control):
    """Pool -> scheduler: exclusive ownership of ``nodes`` (pool indices)."""

    query: int
    nodes: tuple[int, ...] = ()


@dataclass
class RecruitDeny(_Control):
    """Pool -> scheduler: no node for you (``reason``: "fair_share_cap" or
    "timeout"); the scheduler falls back to out-of-core spilling."""

    query: int
    reason: str = "timeout"


@dataclass
class QueryDone(_Control):
    """Scheduler -> pool: the query finished; ``released`` nodes return to
    the free pool.  Nodes lost to crashes or zombie recruits are *not*
    released — the pool shrinks, as it would on real hardware."""

    query: int
    released: tuple[int, ...] = ()


# ----------------------------------------------------------------------
# sources -> scheduler
# ----------------------------------------------------------------------
@dataclass
class SourceDone(_Control):
    """A source finished streaming one relation.

    ``chunks_sent`` holds per-destination totals for that relation (the
    drain protocol's ground truth).
    """

    source: int
    relation: str
    chunks_sent: dict[int, int] = field(default_factory=dict)
    dup_tuples: int = 0  # probe-phase replica copies beyond the first


# ----------------------------------------------------------------------
# control-plane fault tolerance (repro.core.recovery)
# ----------------------------------------------------------------------
@dataclass
class HeartbeatPing(_Control):
    """Failure-detector ping (scheduler -> watched node, best effort).

    Sent single-shot over the faulty network — no retransmission, no ack
    wait — so a lossy or slow link manifests as a *missing* ack and the
    detector must tolerate false positives (there is no failure oracle)."""

    token: int


@dataclass
class HeartbeatAck(_Control):
    """Liveness reply to a HeartbeatPing (watched node -> scheduler)."""

    node: int
    token: int


@dataclass
class StateSync(_Control):
    """Primary scheduler -> backup: WAL-style state replication.

    Shipped *before* the primary acts on a decision, so the backup can
    idempotently re-drive the in-flight decision (``pending``) after a
    takeover.  ``sync_seq`` is monotone; the backup keeps the newest."""

    sync_seq: int
    phase: str = "build"
    router: Router | None = None
    activated: tuple[int, ...] = ()
    fenced: tuple[int, ...] = ()
    #: in-flight decision (an expansion or a recovery); None when no
    #: decision is mid-flight
    pending: Decision | None = None
    #: (donor, new node) of every split so far, oldest first: who holds
    #: part of whose range (a recovery purges a dead node's heirs)
    splits: tuple[tuple[int, int], ...] = ()

    @property
    def nbytes(self) -> int:
        return CONTROL_BYTES + (self.router.wire_bytes() if self.router else 0)


@dataclass
class SchedulerFailover(_Control):
    """Backup -> everyone: the scheduler moved to ``new_scheduler``.

    Receivers re-announce state the dead primary may have lost: sources
    re-send SourceDone for finished relations, full join nodes re-send
    MemoryFull for parked backlogs."""

    new_scheduler: int


@dataclass
class Depose(_Control):
    """Backup -> old primary: stand down (split-brain backstop).

    Normally arrives at a dead process and is absorbed by its mailbox; a
    falsely-suspected live primary exits cleanly instead of competing."""

    new_scheduler: int


@dataclass
class NodeLost(_Control):
    """Scheduler -> surviving join node: ``dead`` was declared failed.

    Receivers subtract the dead peer's per-origin/per-dest contributions
    from their drain counters and discard (never forward to) it.  With
    ``purge=True`` the receiver shared a replica chain with the dead node:
    it drops its stored segment and quarantines — the whole range will be
    re-streamed from the sources to a fresh target, so keeping survivor
    segments would double-store tuples and double-count matches."""

    dead: int
    purge: bool = False


@dataclass
class NodeLostAck(_Control):
    """Survivor -> scheduler: NodeLost applied (fencing barrier)."""

    node: int


@dataclass
class ReplayOrder(_Control):
    """Scheduler -> data source: re-stream one relation to ``target``.

    Sources regenerate their stream deterministically from the workload
    seed and re-send only the batches already streamed (their replay
    cursor), filtered to tuples that route to ``target`` under
    ``router`` (the post-takeover table; carried in the order so a
    probe-phase replay can run *before* the source's live routing table
    is flipped).  ``recovery_id`` deduplicates re-driven orders."""

    relation: str
    target: int
    recovery_id: int
    router: Router | None = None

    @property
    def nbytes(self) -> int:
        return CONTROL_BYTES + (self.router.wire_bytes() if self.router else 0)


@dataclass
class ReplayDone(_Control):
    """Source -> scheduler: replay finished; ``chunks_sent`` went to the
    recovery target (drain-accounting delta, keyed by ``recovery_id``)."""

    recovery_id: int
    source: int
    relation: str
    chunks_sent: dict[int, int] = field(default_factory=dict)


# ----------------------------------------------------------------------
# local (non-network) messages
# ----------------------------------------------------------------------
@dataclass
class PollTick:
    """Timer tick the drain ticker drops into the scheduler mailbox.

    Never crosses the network (the ticker runs on the scheduler node)."""

    kind = "tick"
    nbytes = 0


@dataclass
class DeathVerdict:
    """Failure detector -> scheduler main loop: ``node`` is declared
    dead (confirm timeout expired).  Local hand-off on the scheduler node
    — never crosses the network."""

    node: int

    kind = "tick"
    nbytes = 0
