"""Run configuration: cost model, cluster spec, workload spec.

The cost model is calibrated to the paper's testbed (OSUMed: 24 Pentium-III
933 MHz nodes, 512 MB RAM, local IDE disk, switched 100 Mb/s Ethernet).
Absolute constants only set the time *scale*; the reproduced results depend
on the ratios between network, CPU and disk costs, which these constants
keep faithful to 2004-era commodity hardware.

Scaling: the paper runs 10M-100M tuple relations.  ``WorkloadSpec.scale``
shrinks tuple counts, the chunk size and per-node memory budgets *together*,
preserving every ratio the algorithms react to (expansion factor, chunk
counts, spill fractions).  The default benchmarks use scale = 1/50.

CLI flags: a field that a ``repro`` flag sets declares it in its
``metadata``: ``"flag"`` and ``"help"``, plus ``"unit"`` when the flag
counts in larger units than the field (``--r-tuples`` in millions of
tuples), ``"type"`` when the default is ``None`` and ``"metavar"`` to
name its value in ``--help``.  ``repro.cli`` builds its parsers and
configs from these, so a flag's default is the field's default and is
written nowhere else.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Any

# re-exported (``from repro.config import FaultPlan``); repro.faults is
# stdlib-only at import time, so this loads neither NumPy nor the simulator
from .faults import FaultPlan, finite_float
from .obs import MIN_BUDGET_BYTES

__all__ = [
    "Algorithm",
    "SplitPolicy",
    "Distribution",
    "CostModel",
    "ClusterSpec",
    "ObsConfig",
    "WorkloadSpec",
    "RunConfig",
    "PoolPolicy",
    "QueryMixEntry",
    "WorkloadConfig",
    "FleetConfig",
    "MTUPLES",
    "DEFAULT_SCALE",
    "DRAIN_POLL_S",
]

#: convenience: 1 "M tuples" in the paper's units
MTUPLES = 1_000_000

_MB = 1024 * 1024

#: default down-scaling for benchmarks (10M paper tuples -> 200k real tuples)
DEFAULT_SCALE = 1.0 / 50.0

#: scheduler / pool poll interval for drain and termination detection, in
#: seconds at scale 1.0; co-scaled with the workload like the other fixed
#: time costs
DRAIN_POLL_S = 0.010


def _at_least_one(config: object, *names: str) -> None:
    """Refuse the first of ``config``'s fields ``names`` that is below 1."""
    for name in names:
        value = getattr(config, name)
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


class Algorithm(enum.Enum):
    """Join algorithm selector (the paper's four compared algorithms)."""

    SPLIT = "split"
    REPLICATE = "replicate"
    HYBRID = "hybrid"
    OUT_OF_CORE = "ooc"

    @property
    def is_expanding(self) -> bool:
        return self is not Algorithm.OUT_OF_CORE


class SplitPolicy(enum.Enum):
    """Which split rule the split-based algorithm uses (see DESIGN.md §2).

    TARGETED_BISECT (default): bisect the hash range of the node that
    reported memory full — the abstract's description ("partitions the
    hash table range assigned to the node, on which memory is full, into
    two segments").  Under skew the full node's range is re-bisected
    repeatedly and the hot mass re-shipped each time, which is exactly the
    paper's "communicate the same tuple many times" pathology (Figs 10-13).

    LINEAR_POINTER: order-preserving linear hashing — the split pointer
    walks the buckets round-robin (§4.2.1's machinery); the pointed
    bucket's contiguous range is bisected.  Ablation: under extreme skew
    the pointer wastes splits on empty cold buckets, so it does NOT
    reproduce Figure 11's re-communication volume (a reproduction finding;
    see EXPERIMENTS.md).

    LINEAR_MOD: classic Litwin linear hashing with modulo addressing
    (h_i(p) = p mod n0*2^i).  Ablation variant: the modulo scatters
    contiguous hot positions across buckets, which — like hash mixing —
    suppresses the skew effects the paper observed.
    """

    TARGETED_BISECT = "bisect"
    LINEAR_POINTER = "linear"
    LINEAR_MOD = "linear_mod"


class Distribution(enum.Enum):
    """Join-attribute value distribution for synthetic relations."""

    UNIFORM = "uniform"
    GAUSSIAN = "gaussian"
    ZIPF = "zipf"  # extension beyond the paper


class Topology(enum.Enum):
    """Interconnect model (the paper's 'network configurations' future work).

    SWITCHED — non-blocking switch, one full-duplex port per node (the
    paper's testbed).  SHARED_HUB — a single half-duplex collision domain:
    every transfer serializes on one shared medium (late-90s hub Ethernet).
    """

    SWITCHED = "switched"
    SHARED_HUB = "hub"


@dataclass(frozen=True)
class CostModel:
    """Per-operation costs charged by the simulated cluster.

    All times in seconds, sizes in bytes.  Defaults approximate OSUMed.
    """

    #: per-NIC bandwidth (100 Mb/s switched Ethernet, full duplex)
    net_bandwidth: float = 12.5e6
    #: one-way message latency (switch + stack)
    net_latency: float = 120e-6
    #: uniform random extra latency per message, in seconds.  Zero keeps
    #: per-pair FIFO delivery; any positive value lets messages reorder,
    #: which the protocol must (and does — see the chaos tests) tolerate
    net_jitter: float = 0.0
    #: fixed CPU cost to send or receive one message (syscall + memcpy)
    net_per_message_cpu: float = 40e-6

    #: CPU cost to generate one tuple at a data source (select/filter + rng)
    cpu_generate_tuple: float = 0.35e-6
    #: CPU cost at a source to hash + route one tuple into a buffer
    cpu_route_tuple: float = 0.10e-6
    #: CPU cost to insert one tuple into the hash table
    cpu_insert_tuple: float = 0.30e-6
    #: CPU cost to probe one tuple against the hash table
    cpu_probe_tuple: float = 0.35e-6
    #: CPU cost to emit one matching output pair
    cpu_output_match: float = 0.05e-6
    #: CPU cost to extract/repack one tuple during split/reshuffle transfers
    cpu_repack_tuple: float = 0.08e-6

    #: effective disk bandwidth for bucket-file I/O (2004 IDE disk with
    #: interleaved bucket reads/writes, filesystem overhead and competing
    #: network receive traffic — far below the drive's sequential rating)
    disk_bandwidth: float = 6e6
    #: fixed latency per disk batch operation (seek + rotational)
    disk_seek: float = 8e-3

    #: receive window per node in data chunks (TCP-like flow control): a
    #: node that stops consuming (memory full, slow disk) blocks its
    #: senders once this many chunks are buffered, which is what bounds
    #: the paper's "pending messages" at a full join process
    recv_window_chunks: int = 4

    def wire_time(self, nbytes: int) -> float:
        """Serialization time of ``nbytes`` on one NIC."""
        return nbytes / self.net_bandwidth

    def disk_time(self, nbytes: int) -> float:
        """Time for one batched sequential disk transfer of ``nbytes``."""
        return self.disk_seek + nbytes / self.disk_bandwidth

    def scaled(self, scale: float) -> CostModel:
        """Co-scale fixed per-operation costs with the workload scale.

        At scale ``s`` every byte quantity shrinks by ``s`` while operation
        *counts* (chunks, messages, disk batches) stay the same, so fixed
        per-op costs would be over-weighted by ``1/s`` relative to the
        paper's full-scale runs.  Scaling them by ``s`` keeps every
        cost ratio faithful and makes simulated time ~ ``s`` x full-scale
        time (so ``time / scale`` approximates paper-scale seconds).
        Per-byte and per-tuple costs are untouched — their totals already
        scale with the workload.
        """
        if scale == 1.0:
            return self
        return replace(
            self,
            net_latency=self.net_latency * scale,
            net_jitter=self.net_jitter * scale,
            net_per_message_cpu=self.net_per_message_cpu * scale,
            disk_seek=self.disk_seek * scale,
        )


@dataclass(frozen=True)
class ClusterSpec:
    """Shape of the simulated cluster.

    ``hash_memory_bytes`` is the per-node memory budget for hash-table
    buckets (the paper's overflow threshold), *not* total RAM.  The default
    makes 16 nodes exactly sufficient for a 10M x 100B hash table at scale
    1.0, matching Figure 2's observation.  May be a single int (homogeneous)
    or overridden per node via ``node_memory_overrides``.
    """

    n_sources: int = field(default=4, metadata={
        "flag": "--sources", "help": "data-source nodes"})
    n_potential_nodes: int = field(default=24, metadata={
        "flag": "--pool", "help": "potential join nodes"})
    hash_memory_bytes: int = field(default=64 * _MB, metadata={
        "flag": "--node-memory-mb", "unit": _MB,
        "help": "hash-table budget per node in MB"})
    node_memory_overrides: tuple[tuple[int, int], ...] = ()
    cost: CostModel = field(default_factory=CostModel)
    topology: Topology = field(default=Topology.SWITCHED, metadata={
        "flag": "--topology",
        "help": "interconnect: switched ports or one shared hub"})

    def __post_init__(self) -> None:
        _at_least_one(self, "n_sources", "n_potential_nodes",
                      "hash_memory_bytes")
        for idx, mem in self.node_memory_overrides:
            if mem < 1:
                raise ValueError(
                    f"node {idx}'s memory override must be >= 1 byte, "
                    f"got {mem}")

    def memory_of(self, node_index: int) -> int:
        """Hash-table memory budget of potential join node ``node_index``."""
        for idx, mem in self.node_memory_overrides:
            if idx == node_index:
                return mem
        return self.hash_memory_bytes

    def scaled(self, scale: float) -> ClusterSpec:
        """Scale memory budgets and fixed per-op costs (co-scaling rule)."""
        if scale == 1.0:
            return self
        return replace(
            self,
            hash_memory_bytes=max(1, int(self.hash_memory_bytes * scale)),
            node_memory_overrides=tuple(
                (i, max(1, int(m * scale))) for i, m in self.node_memory_overrides
            ),
            cost=self.cost.scaled(scale),
        )


@dataclass(frozen=True)
class WorkloadSpec:
    """The synthetic join workload (paper §5 'Data Generation').

    Tuple layout: 64-bit index + 64-bit join attribute + payload; the paper
    reports total tuple sizes of 100/200/400 bytes, which we adopt as
    ``tuple_bytes``.  ``r_tuples``/``s_tuples`` are in *paper units*
    (pre-scale); real generated counts are ``int(x * scale)``.
    """

    r_tuples: int = field(default=10 * MTUPLES, metadata={
        "flag": "--r-tuples", "unit": MTUPLES,
        "help": "build relation size in millions of tuples (paper units)"})
    s_tuples: int = field(default=10 * MTUPLES, metadata={
        "flag": "--s-tuples", "unit": MTUPLES,
        "help": "probe relation size in millions of tuples"})
    tuple_bytes: int = field(default=100, metadata={
        "flag": "--tuple-bytes", "help": "bytes per tuple (paper: 100-400)"})
    distribution: Distribution = Distribution.UNIFORM
    #: Gaussian mean/sigma as fractions of the value range.  The paper sets
    #: mean and standard deviation *individually for each relation* (its
    #: experiments use the same values for R and S); the ``s_*`` overrides
    #: below give S its own parameters when set.
    gauss_mean: float = 0.5
    gauss_sigma: float = 0.001
    #: Zipf exponent (extension; ignored unless distribution == ZIPF)
    zipf_s: float = 1.1
    #: per-relation overrides for S (None -> same as R, the paper's setup)
    s_distribution: Distribution | None = None
    s_gauss_mean: float | None = None
    s_gauss_sigma: float | None = None
    chunk_tuples: int = field(default=10_000, metadata={
        "flag": "--chunk-tuples",
        "help": "tuples per communication chunk (paper: 10,000)"})
    scale: float = field(default=DEFAULT_SCALE, metadata={
        "flag": "--scale",
        "help": "down-scaling factor; 1.0 = full size"})
    seed: int = field(default=20040607, metadata={
        "flag": "--seed", "help": "seed of every random draw"})

    def __post_init__(self) -> None:
        _at_least_one(self, "r_tuples", "s_tuples")
        if self.tuple_bytes < 16:
            raise ValueError("tuple_bytes must cover the two 64-bit fields")
        if not (0 < self.scale <= 1.0):
            raise ValueError(f"scale must be in (0, 1], got {self.scale}")
        if self.chunk_tuples < 1:
            raise ValueError("chunk_tuples must be >= 1")

    def params_for(self, relation: str) -> tuple[Distribution, float, float]:
        """(distribution, gauss_mean, gauss_sigma) for one relation."""
        if relation == "S":
            return (
                self.s_distribution or self.distribution,
                self.s_gauss_mean if self.s_gauss_mean is not None
                else self.gauss_mean,
                self.s_gauss_sigma if self.s_gauss_sigma is not None
                else self.gauss_sigma,
            )
        return (self.distribution, self.gauss_mean, self.gauss_sigma)

    @property
    def real_r_tuples(self) -> int:
        return max(1, int(self.r_tuples * self.scale))

    @property
    def real_s_tuples(self) -> int:
        return max(1, int(self.s_tuples * self.scale))

    @property
    def real_chunk_tuples(self) -> int:
        return max(1, int(self.chunk_tuples * self.scale))

    @property
    def chunk_bytes(self) -> int:
        return self.real_chunk_tuples * self.tuple_bytes


@dataclass(frozen=True)
class ObsConfig:
    """Streaming-observability knobs (docs/OBSERVABILITY.md §Streaming).

    ``budget_bytes`` caps the run's observability state: span and causal
    logs switch to deterministic reservoir sampling, sketch/ring
    capacities shrink to fit, and whatever is shed is counted in the
    ``obs.spans_dropped`` / ``obs.edges_dropped`` metrics.  ``None``
    keeps every span and edge (and publishes no ``obs.*`` rows).

    ``live_interval_s`` turns on the periodic snapshot emitter (one
    mergeable :class:`repro.obs.Snapshot` per interval of simulated
    time); ``shard`` names this run in merged snapshots.
    """

    budget_bytes: int | None = field(default=None, metadata={
        "flag": "--obs-budget", "type": int, "metavar": "BYTES",
        "help": "cap observability memory: bounded span/edge sampling, ring "
                "buffers and sketch bins sized to this many bytes (min "
                f"{MIN_BUDGET_BYTES}; shed records are counted, never "
                "silent)"})
    live_interval_s: float | None = None
    shard: str = "shard0"

    def __post_init__(self) -> None:
        from .obs import ObsBudget

        ObsBudget.from_bytes(self.budget_bytes)  # rejects one too small
        if self.live_interval_s is not None and self.live_interval_s <= 0:
            raise ValueError("live_interval_s must be > 0 (or None)")
        if not self.shard or any(c in self.shard for c in ",|"):
            raise ValueError(
                f"shard name must be non-empty without ','/'|', "
                f"got {self.shard!r}"
            )


class PoolPolicy(enum.Enum):
    """Arbitration rule of the shared resource pool (``repro.workload``).

    FIFO — park recruit requests in arrival order and grant the oldest
    first whenever a node frees up.

    FAIR_SHARE — like FIFO, but a query already holding ``fair_share_cap``
    or more pool nodes beyond admission is denied immediately, keeping one
    skewed query from monopolizing the pool.

    MEMORY_DEFICIT — grant the parked request with the *smallest* reported
    memory deficit first (cheapest relief first): small deficits clear
    with one node while a badly skewed query would consume many.
    """

    FIFO = "fifo"
    FAIR_SHARE = "fair"
    MEMORY_DEFICIT = "deficit"


@dataclass(frozen=True)
class QueryMixEntry:
    """One query class in a workload mix (weighted random selection).

    Sizes are in *paper units* like :class:`WorkloadSpec`; the workload's
    shared ``scale`` applies to every query.
    """

    weight: float = 1.0
    algorithm: Algorithm = Algorithm.HYBRID
    r_tuples: int = 2 * MTUPLES
    s_tuples: int = 2 * MTUPLES
    tuple_bytes: int = 100
    distribution: Distribution = Distribution.UNIFORM
    gauss_sigma: float = 0.001
    initial_nodes: int = 2

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError(f"mix weight must be > 0, got {self.weight}")
        if self.r_tuples < 1 or self.s_tuples < 1:
            raise ValueError("mix entry relation sizes must be >= 1 tuple")
        if self.tuple_bytes < 16:
            raise ValueError("tuple_bytes must cover the two 64-bit fields")
        if self.initial_nodes < 1:
            raise ValueError("mix entry initial_nodes must be >= 1")

    @classmethod
    def parse(cls, text: str) -> QueryMixEntry:
        """``--mix``'s ``ALG[:WEIGHT[:R_M[:S_M[:INITIAL[:SIGMA]]]]]``.

        Sizes are in millions of tuples (paper units), and S is as large
        as R unless given; a sixth field turns the entry Gaussian-skewed
        with that sigma.  A field left out keeps its default.  Example:
        ``hybrid:2:10:10:4``.
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
        return cls(**kw)


@dataclass(frozen=True)
class WorkloadConfig:
    """A multi-query workload over one shared cluster (``repro.workload``).

    Arrivals are either a seeded Poisson process (``arrival_rate_qps``
    exponential inter-arrival gaps) or an explicit trace
    (``arrival_times``, simulated seconds, one per query).  Query classes
    are drawn from ``mix`` by weight; every draw is deterministic under
    ``seed``.
    """

    n_queries: int = field(default=4, metadata={
        "flag": "--queries", "help": "number of concurrent queries"})
    arrival_rate_qps: float = field(default=0.5, metadata={
        "flag": "--arrival-rate",
        "help": "Poisson arrival rate in queries per simulated second "
                "(ignored when an explicit arrival trace is given)"})
    #: explicit arrival trace (simulated seconds, one entry per query);
    #: empty means Poisson arrivals from ``arrival_rate_qps``
    arrival_times: tuple[float, ...] = ()
    seed: int = 20040607
    mix: tuple[QueryMixEntry, ...] = (QueryMixEntry(),)
    policy: PoolPolicy = field(default=PoolPolicy.FIFO, metadata={
        "flag": "--policy", "help": "pool arbitration policy"})
    fair_share_cap: int = field(default=4, metadata={
        "flag": "--fair-share-cap",
        "help": "max pool nodes one query may hold beyond its admission "
                "grant (fair policy only)"})
    #: Must be finite: a bounded wait is what guarantees denial degrades
    #: to the OOC spill path instead of deadlocking an admission behind it.
    grant_timeout_s: float | None = field(default=None, metadata={
        "flag": "--grant-timeout", "type": finite_float,
        "help": "deny a parked recruit request after this many simulated "
                "seconds (default: ~200 drain-poll intervals, scale-derived)"})
    cluster: ClusterSpec = field(default_factory=ClusterSpec)
    scale: float = DEFAULT_SCALE
    trace: bool = False
    #: shared fault plan (link drops / slowdowns / dormant-node crashes);
    #: workload mode forbids ack drops and phase-triggered crashes (see
    #: docs/WORKLOADS.md "Faults")
    faults: FaultPlan | None = None
    #: attach the runtime deadlock detector to the shared simulator
    #: (threaded into every query's RunConfig; see RunConfig.lockdep)
    lockdep: bool = False
    #: streaming observability: byte budget, live snapshot emission
    obs: ObsConfig = field(default_factory=ObsConfig)

    @staticmethod
    def parse_arrival_times(text: str | None) -> tuple[float, ...]:
        """``--arrival-times``: comma-separated simulated seconds; blanks
        and empty segments (a trailing comma) are skipped, and a segment
        that is not a finite number raises a ValueError naming the flag."""
        times = []
        for segment in filter(None, (s.strip() for s in (text or "").split(","))):
            try:
                times.append(finite_float(segment))
            except ValueError:
                raise ValueError(
                    f"--arrival-times: {segment!r} is not a finite number "
                    "(expected a comma-separated list like 1.0,2.5,4.0)"
                ) from None
        return tuple(times)

    def __post_init__(self) -> None:
        if self.n_queries < 1:
            raise ValueError("n_queries must be >= 1")
        if not self.mix:
            raise ValueError("workload mix must not be empty")
        if self.arrival_times:
            if len(self.arrival_times) != self.n_queries:
                raise ValueError(
                    f"arrival trace has {len(self.arrival_times)} entries "
                    f"for {self.n_queries} queries"
                )
            if any(t < 0 for t in self.arrival_times):
                raise ValueError("arrival times must be >= 0")
        elif self.arrival_rate_qps <= 0:
            raise ValueError(
                f"arrival_rate_qps must be > 0, got {self.arrival_rate_qps}"
            )
        if self.fair_share_cap < 1:
            raise ValueError(
                f"fair_share_cap must be >= 1 node, got {self.fair_share_cap}"
            )
        if self.grant_timeout_s is not None and not (
            0 < self.grant_timeout_s < float("inf")
        ):
            raise ValueError("grant_timeout_s must be finite and > 0")
        if not (0 < self.scale <= 1.0):
            raise ValueError(f"scale must be in (0, 1], got {self.scale}")
        for entry in self.mix:
            if entry.initial_nodes > self.cluster.n_potential_nodes:
                raise ValueError(
                    f"mix entry needs {entry.initial_nodes} initial nodes "
                    f"but the pool only has {self.cluster.n_potential_nodes}"
                )
        if self.faults is not None:
            if self.faults.membership_active:
                raise ValueError(
                    "the control-plane fault-tolerance layer (--membership / "
                    "--heartbeat-interval / --kill-scheduler-at) is "
                    "single-query only; see docs/FAULTS.md")
            if self.faults.ack_drop_prob > 0:
                raise ValueError(
                    "workload mode forbids ack_drop_prob > 0: duplicate "
                    "suppression state is per-query, so a late duplicate "
                    "could leak into the next tenant of a reused node"
                )
            if any(c.at_phase is not None for c in self.faults.crashes):
                raise ValueError(
                    "workload mode forbids phase-triggered crashes: phases "
                    "are per-query and ambiguous across concurrent queries "
                    "(use at_time)"
                )

    @property
    def effective_cluster(self) -> ClusterSpec:
        """Cluster spec with memory budgets co-scaled with the workload."""
        return self.cluster.scaled(self.scale)

    @property
    def effective_grant_timeout(self) -> float:
        """Parked-recruit deadline in simulated seconds."""
        if self.grant_timeout_s is not None:
            return self.grant_timeout_s
        return 200.0 * DRAIN_POLL_S * self.scale


@dataclass(frozen=True)
class FleetConfig:
    """An OS-process sharded fleet run (``repro.workload.fleet``).

    The trace in ``workload`` is cut into ``n_cohorts`` independent
    sub-workloads by a stable hash of the query id; ``n_shards`` worker
    processes pull the cohorts one at a time.  Results are a pure
    function of ``(workload, n_cohorts)`` — ``n_shards`` only chooses how
    much real parallelism executes them, so any shard count reproduces
    byte-identical merged results (the determinism contract of
    docs/FLEET.md).  Contention is *within* a cohort: each cohort gets
    its own simulated cluster and pool, which is the sharded-service
    model, not one global pool.
    """

    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    n_cohorts: int = field(default=8, metadata={
        "flag": "--cohorts",
        "help": "deterministic partition count: part of the model, not the "
                "parallelism; changing it redistributes contention"})
    n_shards: int = field(default=2, metadata={
        "flag": "--shards",
        "help": "worker processes to launch, at most one a non-empty cohort "
                "(parallelism only; results are shard-count invariant)"})
    worker_timeout_s: float = field(default=600.0, metadata={
        "flag": "--worker-timeout",
        "help": "wall-clock seconds of worker silence before the shard is "
                "killed and reported as failed"})

    def __post_init__(self) -> None:
        if self.n_cohorts < 1:
            raise ValueError(f"n_cohorts must be >= 1, got {self.n_cohorts}")
        if self.n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {self.n_shards}")
        if self.worker_timeout_s <= 0:
            raise ValueError(
                f"worker_timeout_s must be > 0, got {self.worker_timeout_s}"
            )


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to execute one simulated join run."""

    algorithm: Algorithm = field(default=Algorithm.HYBRID, metadata={
        "flag": "--algorithm", "help": "join algorithm"})
    initial_nodes: int = 4
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    cluster: ClusterSpec = field(default_factory=ClusterSpec)
    split_policy: SplitPolicy = field(
        default=SplitPolicy.TARGETED_BISECT, metadata={
            "flag": "--split-policy",
            "help": "split rule of the split-based algorithm "
                    "(DESIGN.md §2)"})
    #: number of hash-table positions (order-preserving map resolution)
    hash_positions: int = 1 << 18
    #: mix join attributes before positioning (destroys value locality;
    #: ablation knob — the paper's behaviour corresponds to False)
    mix_hash: bool = False
    #: The paper's joining elements "are either written to disk or
    #: forwarded to the client"; materializing them is the multi-way-join
    #: scenario of its §6 future work.
    materialize_output: bool = field(default=False, metadata={
        "flag": "--materialize-output",
        "help": "keep join output pairs in node memory instead of "
                "streaming them onward"})
    probe_expansion: bool = field(default=False, metadata={
        "flag": "--probe-expansion",
        "help": "recruit output-sink nodes when materialized output "
                "overflows a node's memory (paper footnote 1); without it, "
                "overflow spills to the local disk"})
    sources_from_disk: bool = field(default=False, metadata={
        "flag": "--sources-from-disk",
        "help": "sources read relations from disk instead of generating "
                "them (both modes appear in paper §4.1.2)"})
    trace: bool = field(default=True, metadata={
        "flag": "--trace", "help": "collect and print the protocol trace"})
    trace_buffer: int | None = field(default=None, metadata={
        "flag": "--trace-buffer", "type": int,
        "help": "keep only the most recent N trace records and count the "
                "dropped ones (default unbounded)"})
    #: seeded fault plan (crashes, message drops, link slowdowns); None
    #: runs the exact fault-free code path (see docs/FAULTS.md)
    faults: FaultPlan | None = None
    #: Pure observer: it never schedules events, so the simulated timeline
    #: is bit-identical with it on or off.
    lockdep: bool = field(default=False, metadata={
        "flag": "--lockdep",
        "help": "arm the runtime deadlock detector (repro.sim.lockdep: a "
                "sim-time wait-for graph over resources and mailboxes; on "
                "by default under pytest, REPRO_LOCKDEP=0 opts out; see "
                "docs/STATIC_ANALYSIS.md)"})
    #: observability byte budget for this run's span/causal logs (None =
    #: unbounded full-history logs; see ObsConfig.budget_bytes)
    obs_budget_bytes: int | None = None

    def __post_init__(self) -> None:
        if self.initial_nodes < 1:
            raise ValueError("initial_nodes must be >= 1")
        from .obs import ObsBudget

        ObsBudget.from_bytes(self.obs_budget_bytes)  # rejects one too small
        if self.trace_buffer is not None and self.trace_buffer < 1:
            raise ValueError("trace_buffer must be >= 1 (or None)")
        if self.initial_nodes > self.cluster.n_potential_nodes:
            raise ValueError(
                f"initial_nodes={self.initial_nodes} exceeds pool size "
                f"{self.cluster.n_potential_nodes}"
            )
        if self.hash_positions < self.cluster.n_potential_nodes:
            raise ValueError("hash_positions must cover at least one per node")

    @property
    def effective_cluster(self) -> ClusterSpec:
        """Cluster spec with memory budgets co-scaled with the workload."""
        return self.cluster.scaled(self.workload.scale)

    @property
    def effective_drain_poll(self) -> float:
        """Drain poll interval, co-scaled like the other fixed time costs."""
        return DRAIN_POLL_S * self.workload.scale
