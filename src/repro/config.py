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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from .faults import FaultPlan
from .obs import ObsBudget

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

#: default down-scaling for benchmarks (10M paper tuples -> 200k real tuples)
DEFAULT_SCALE = 1.0 / 50.0

#: scheduler / pool poll interval for drain and termination detection, in
#: seconds at scale 1.0; co-scaled with the workload like the other fixed
#: time costs
DRAIN_POLL_S = 0.010


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

    n_sources: int = 4
    n_potential_nodes: int = 24
    hash_memory_bytes: int = 64 * 1024 * 1024  # 64 MB: 10M*100B/16 rounded up
    node_memory_overrides: tuple[tuple[int, int], ...] = ()
    cost: CostModel = field(default_factory=CostModel)
    topology: Topology = Topology.SWITCHED

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

    r_tuples: int = 10 * MTUPLES
    s_tuples: int = 10 * MTUPLES
    tuple_bytes: int = 100
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
    #: tuples per communication chunk (paper: 10,000)
    chunk_tuples: int = 10_000
    scale: float = DEFAULT_SCALE
    seed: int = 20040607

    def __post_init__(self) -> None:
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

    budget_bytes: int | None = None
    live_interval_s: float | None = None
    shard: str = "shard0"

    def __post_init__(self) -> None:
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


@dataclass(frozen=True)
class WorkloadConfig:
    """A multi-query workload over one shared cluster (``repro.workload``).

    Arrivals are either a seeded Poisson process (``arrival_rate_qps``
    exponential inter-arrival gaps) or an explicit trace
    (``arrival_times``, simulated seconds, one per query).  Query classes
    are drawn from ``mix`` by weight; every draw is deterministic under
    ``seed``.
    """

    n_queries: int = 4
    #: Poisson arrival rate in queries per simulated second (ignored when
    #: an explicit ``arrival_times`` trace is given)
    arrival_rate_qps: float = 0.5
    #: explicit arrival trace (simulated seconds, one entry per query);
    #: empty means Poisson arrivals from ``arrival_rate_qps``
    arrival_times: tuple[float, ...] = ()
    seed: int = 20040607
    mix: tuple[QueryMixEntry, ...] = (QueryMixEntry(),)
    policy: PoolPolicy = PoolPolicy.FIFO
    #: max pool nodes one query may hold beyond its admission grant
    #: (FAIR_SHARE policy only)
    fair_share_cap: int = 4
    #: how long a recruit request may stay parked before it is denied
    #: (simulated seconds); None derives ~200 drain-poll intervals.  Must
    #: be finite: a bounded wait is what guarantees denial degrades to the
    #: OOC spill path instead of deadlocking an admission behind it.
    grant_timeout_s: float | None = None
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
    #: deterministic partition count — part of the model, not a
    #: parallelism knob; changing it redistributes contention
    n_cohorts: int = 8
    #: OS worker processes (parallelism only; never affects results)
    n_shards: int = 2
    #: wall-clock seconds a worker may stay silent before the parent
    #: declares it hung and surfaces a ShardFailure
    worker_timeout_s: float = 600.0

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

    algorithm: Algorithm = Algorithm.HYBRID
    initial_nodes: int = 4
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    cluster: ClusterSpec = field(default_factory=ClusterSpec)
    split_policy: SplitPolicy = SplitPolicy.TARGETED_BISECT
    #: number of hash-table positions (order-preserving map resolution)
    hash_positions: int = 1 << 18
    #: mix join attributes before positioning (destroys value locality;
    #: ablation knob — the paper's behaviour corresponds to False)
    mix_hash: bool = False
    #: materialize join output pairs in join-node memory instead of
    #: streaming them onward (paper: "joining elements are either written
    #: to disk or forwarded to the client"; materialization is the
    #: multi-way-join scenario of §6's future work)
    materialize_output: bool = False
    #: probe-phase expansion (paper footnote 1): when materialized output
    #: overflows a node's memory, recruit a fresh node as an output sink
    #: and forward further pairs there; without it, overflow spills to the
    #: local disk
    probe_expansion: bool = False
    #: data sources read the relations from their local disks instead of
    #: generating them on the fly (both modes appear in paper §4.1.2)
    sources_from_disk: bool = False
    trace: bool = True
    #: cap on retained trace records (None = unbounded); with a bound the
    #: tracer keeps the most recent records and counts the dropped ones
    trace_buffer: int | None = None
    #: seeded fault plan (crashes, message drops, link slowdowns); None
    #: runs the exact fault-free code path (see docs/FAULTS.md)
    faults: FaultPlan | None = None
    #: attach the runtime deadlock detector (repro.sim.lockdep) to the
    #: run's simulator.  Pure observer: it never schedules events, so the
    #: simulated timeline is bit-identical with it on or off.  The test
    #: suite turns it on by default (REPRO_LOCKDEP=0 opts out).
    lockdep: bool = False
    #: observability byte budget for this run's span/causal logs (None =
    #: unbounded full-history logs; see ObsConfig.budget_bytes)
    obs_budget_bytes: int | None = None

    def __post_init__(self) -> None:
        if self.initial_nodes < 1:
            raise ValueError("initial_nodes must be >= 1")
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
