"""The join-process actor (paper §4.1.3).

One join process per recruited node.  It builds and maintains a portion of
the hash table, detects memory-full conditions, executes split / replicate
/ reshuffle orders from the scheduler, probes its portion in the probe
phase, and — for the out-of-core baseline or the pool-exhausted fallback —
spills to local disk Grace-style.

Misrouted tuples (in-flight chunks routed with a stale table, or pending
buffers at a node that has since shed part of its range) are handled with a
**shed chain**: every split the node performed is remembered as a
``(predicate-on-positions, successor)`` pair, applied in chronological
order to each arriving chunk, so any tuple the node no longer owns is
forwarded to exactly the node that took that range over.  This replays the
node's split history and is therefore exact.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Generator
from typing import Any

import numpy as np

from ..config import Algorithm
from ..data import chunk_slices
from ..hashing import HashRange, NodeHashStore
from ..sim import Interrupt
from .context import RunContext
from .messages import (
    ActivateAck,
    ActivateJoin,
    BisectOrder,
    CountRequest,
    CountVector,
    DataChunk,
    FinalReport,
    FinalizePass,
    Hop,
    LinearSplitOrder,
    MemoryFull,
    OutputRedirect,
    PassDone,
    ReliefAck,
    ReliefPing,
    ReplicateOrder,
    ReshuffleDone,
    ReshuffleOrder,
    Shutdown,
    SpillOrder,
    SplitDone,
    StartProbe,
    StatusReport,
    StatusRequest,
)

__all__ = ["JoinProcess", "SpillStore"]

#: logical bytes per materialized output pair (an r and an s tuple at the
#: default 100 B tuple size)
OUTPUT_PAIR_BYTES = 200

ShedPredicate = Callable[[np.ndarray], np.ndarray]


class SpillStore:
    """Grace-style disk partitions for one node's overflow (paper §2).

    The node's hash range is cut into ``k_parts`` position sub-ranges.
    Overflow build tuples are appended to their sub-partition's R file;
    probe tuples are written to the S file of sub-partitions that actually
    hold spilled R tuples.  The final passes join each (R_p, S_p) pair in
    core; a partition whose R side still exceeds the node's memory budget
    is **recursively re-partitioned** (classic Grace behaviour), charging
    an extra disk round trip per level.
    """

    MAX_RECURSION = 8

    def __init__(self, ctx: RunContext, node_index: int, k_parts: int = 8,
                 hash_range: HashRange | None = None) -> None:
        self.ctx = ctx
        self.node = ctx.join_node(node_index)
        self.k = k_parts
        # Sub-partition over the node's own range (a bucket only ever sees
        # its own positions); bucket-addressed nodes (LINEAR_MOD) fall back
        # to the full table.
        self.lo = hash_range.lo if hash_range else 0
        self.hi = hash_range.hi if hash_range else ctx.cfg.hash_positions
        self._r_parts: list[list[np.ndarray]] = [[] for _ in range(self.k)]
        self._s_parts: list[list[np.ndarray]] = [[] for _ in range(self.k)]
        self.spilled_r = 0
        self.spilled_s = 0
        #: extra disk round trips caused by recursive re-partitioning
        self.recursive_passes = 0
        self._tb = ctx.cfg.workload.tuple_bytes
        self._cap_tuples = max(1, self.node.memory.capacity // self._tb)

    def _part_of(self, positions: np.ndarray) -> np.ndarray:
        width = self.hi - self.lo
        rel = np.clip(positions - self.lo, 0, width - 1)
        return np.minimum(rel * self.k // width, self.k - 1)

    def write_r(self, values: np.ndarray) -> Generator[Any, Any, None]:
        parts = self._part_of(self.ctx.posmap(values))
        for p in range(self.k):
            sel = values[parts == p]
            if sel.size:
                self._r_parts[p].append(sel)
        self.spilled_r += int(values.size)
        yield from self.node.disk.write(int(values.size) * self._tb)

    def write_s(self, values: np.ndarray) -> Generator[Any, Any, int]:
        """Spill only probe tuples whose sub-partition has spilled R."""
        parts = self._part_of(self.ctx.posmap(values))
        written = 0
        for p in range(self.k):
            if not self._r_parts[p]:
                continue
            sel = values[parts == p]
            if sel.size:
                self._s_parts[p].append(sel)
                written += int(sel.size)
        if written:
            self.spilled_s += written
            yield from self.node.disk.write(written * self._tb)
        return written

    def final_passes(self) -> Generator[Any, Any, int]:
        """Join every spilled (R_p, S_p) pair; returns match count."""
        matches = 0
        for p in range(self.k):
            if not self._r_parts[p]:
                continue
            r_p = np.concatenate(self._r_parts[p])
            s_p = (np.concatenate(self._s_parts[p]) if self._s_parts[p]
                   else np.empty(0, dtype=np.uint64))
            matches += yield from self._join_partition(r_p, s_p, depth=0)
        return matches

    def _join_partition(
        self, r_p: np.ndarray, s_p: np.ndarray, depth: int
    ) -> Generator[Any, Any, int]:
        """In-core join of one bucket pair, recursing while R overflows."""
        cost = self.ctx.cost
        yield from self.node.disk.read(int(r_p.size) * self._tb)
        if r_p.size > self._cap_tuples and depth < self.MAX_RECURSION:
            # Classic Grace recursion: re-partition both sides on disk and
            # join the finer bucket pairs (one extra write per level; the
            # reads happen in the recursive calls).
            self.recursive_passes += 1
            yield from self.node.disk.read(int(s_p.size) * self._tb)
            yield from self.node.disk.write(
                (int(r_p.size) + int(s_p.size)) * self._tb
            )
            yield from self.node.compute_per_tuple(
                cost.cpu_route_tuple, r_p.size + s_p.size
            )
            sub = max(2, -(-int(r_p.size) // self._cap_tuples))
            r_keys = self.ctx.posmap(r_p) % sub
            s_keys = self.ctx.posmap(s_p) % sub
            matches = 0
            for q in range(sub):
                r_q = r_p[r_keys == q]
                if r_q.size == 0:
                    continue
                s_q = s_p[s_keys == q]
                matches += yield from self._join_partition(r_q, s_q, depth + 1)
            return matches
        yield from self.node.compute_per_tuple(cost.cpu_insert_tuple, r_p.size)
        if s_p.size == 0:
            return 0
        yield from self.node.disk.read(int(s_p.size) * self._tb)
        yield from self.node.compute_per_tuple(cost.cpu_probe_tuple, s_p.size)
        store = NodeHashStore(self.ctx.posmap)
        store.insert(r_p)
        found = store.probe(s_p)
        yield from self.node.compute_per_tuple(cost.cpu_output_match, found)
        return found


class JoinProcess:
    """One join node's state machine; drive with ``sim.spawn(proc.run())``."""

    # lifecycle states
    DORMANT = "dormant"    # in the potential pool, not yet recruited
    BUILD = "build"        # accepting build tuples
    CLOSED = "closed"      # replication: full, forwards build traffic
    PROBE = "probe"
    DONE = "done"
    CRASHED = "crashed"    # fail-stop fault injected while dormant

    def __init__(self, ctx: RunContext, join_index: int) -> None:
        self.ctx = ctx
        self.index = join_index
        self.node = ctx.join_node(join_index)
        #: OOC baseline: spill to local disk instead of reporting memory-full
        self.auto_spill = ctx.cfg.algorithm is Algorithm.OUT_OF_CORE
        self.state = self.DORMANT
        self.store = NodeHashStore(ctx.posmap)
        self.store.inserted_counter = ctx.metrics.counter(
            "hash.inserted_tuples", node=self.node.name
        )
        self.store.match_counter = ctx.metrics.counter(
            "hash.matches", node=self.node.name
        )
        self.store.probe_rows_counter = ctx.metrics.counter(
            "dataplane.bulk_probe_rows", node=self.node.name
        )
        self.spill: SpillStore | None = None
        self.my_range: HashRange | None = None
        self.successor: int | None = None       # replication forwarding
        #: sequence numbers of data chunks already received — duplicate
        #: suppression for the at-least-once transport (idempotent receipt);
        #: cleared at FinalizePass (its high-water mark is the
        #: ``node.dedup_window`` gauge)
        self._seen_seqs: set[tuple[int, int]] = set()
        self.shed_chain: list[tuple[ShedPredicate, int]] = []
        self.parked: deque[DataChunk] = deque()
        self.pre_activation: deque[DataChunk] = deque()
        self.activated_at: float = float("nan")
        self.probe_started_at: float = float("nan")
        self.matches = 0
        self.overcommit_bytes = 0
        # drain counters (chunks)
        self.received_build = 0
        self.processed_build = 0
        self.emitted_build = 0
        self.received_probe = 0
        self.processed_probe = 0
        #: asynchronous join->join transfers still in flight (drain 'busy')
        self.transfers_pending = 0
        #: accumulated wall time of this node's split transfers (Figure 5)
        self.split_transfer_s = 0.0
        # --- probe-phase output materialization (footnote 1) ---
        self.is_output_sink = False
        self.output_tuples = 0          # pairs materialized in memory
        self.output_spilled = 0         # pairs spilled to local disk
        self.output_pending = 0         # pairs awaiting a sink/spill order
        self.output_sink_node: int | None = None
        self._output_spill_mode = False  # pool exhausted: disk from now on
        self.emitted_probe = 0
        self._tb = ctx.cfg.workload.tuple_bytes
        #: linear splits already executed (idempotent re-drive after failover)
        self._applied_splits: set[tuple[int, int]] = set()
        self._finalized_pass = False
        #: message type -> handler: the whole dispatch (and the inventory
        #: the protocol lint and its runtime mirror read).  Adding a
        #: message is one row here.  The rows are plain functions, called
        #: as ``handler(self, msg)``: bound methods would tie every join
        #: process into a reference cycle, and its hash table would then
        #: outlive the run until the cycle collector got to it.
        cls = type(self)
        self._handlers: dict[type, Callable[[Any, Any], Generator[Any, Any, None]]] = {
            DataChunk: cls._on_data_chunk,
            ActivateJoin: cls._on_activate,
            ReplicateOrder: cls._on_replicate_order,
            BisectOrder: cls._on_bisect_order,
            LinearSplitOrder: cls._on_linear_split_order,
            ReliefPing: cls._on_relief_ping,
            OutputRedirect: cls._on_output_redirect,
            SpillOrder: cls._on_spill_order,
            StatusRequest: cls._on_status_request,
            StartProbe: cls._on_start_probe,
            CountRequest: cls._on_count_request,
            ReshuffleOrder: cls._on_reshuffle_order,
            FinalizePass: cls._on_finalize_pass,
            Shutdown: cls._on_shutdown,
        }

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self) -> Generator[Any, Any, None]:
        try:
            while self.state not in (self.DONE, self.CRASHED):
                # recv() withdraws the pending getter on Interrupt, so
                # later deliveries are not consumed by a dead waiter.
                msg = yield from self.node.mailbox.recv()
                yield from self._dispatch(msg)
        except Interrupt as itr:
            # Fail-stop crash injected by the fault plan, possibly mid-
            # dispatch (a working node dies holding join state).  The node
            # vanishes without a trace — no FinalReport, no acks: a dormant
            # recruit's death surfaces through the scheduler's recruit
            # timeout, a working node's through the heartbeat detector.
            self.state = self.CRASHED
            self.ctx.trace("crashed", f"join{self.index}",
                           cause=str(itr.cause))
            yield from self._tombstone()

    def _tombstone(self) -> Generator[Any, Any, None]:
        """Absorb traffic addressed to the corpse.

        Delivery completes regardless of receiver liveness (byte
        conservation), but receive-window credits are released by the
        *consumer* — so a dead node must keep returning them or live
        senders eventually jam on its receive window.  Every chunk that
        arrived and was not retired holds one (in dispatch, in a backlog,
        or popped from one and caught mid-consume), so received − processed
        credits are returned immediately; every later data chunk is retired
        on arrival.  A Shutdown ends the absorber (the scheduler still
        sweeps dead nodes at end of run).
        """
        owed = (self.received_build + self.received_probe
                - self.processed_build - self.processed_probe)
        for _ in range(owed):
            self.node.recv_credits.give()
        self.parked.clear()
        self.pre_activation.clear()
        while True:
            msg = yield from self.node.mailbox.recv()
            if isinstance(msg, DataChunk):
                self.node.recv_credits.give()
            elif isinstance(msg, Shutdown):
                return

    def _dispatch(self, msg: Any) -> Generator[Any, Any, None]:
        handler = self._handlers.get(type(msg))
        if handler is None:
            raise RuntimeError(f"join{self.index}: unexpected message {msg!r}")
        return handler(self, msg)

    def _reply(self, msg: Any, best_effort: bool = False) -> Generator[Any, Any, None]:
        """Send ``msg`` to whoever is the scheduler right now."""
        return self.ctx.send(self.node, self.ctx.scheduler_node, msg,
                             best_effort=best_effort)

    def _on_data_chunk(self, msg: DataChunk) -> Generator[Any, Any, None]:
        if self._suppress_duplicate(msg):
            return
        self._count_arrival(msg)
        if self.state == self.DORMANT:
            # Raced ahead of our ActivateJoin; replayed on activation.  The
            # backlog entry keeps the chunk's receive credit until then.
            self.pre_activation.append(msg)
            return
        yield from self._consume(msg)

    def _consume(self, chunk: DataChunk) -> Generator[Any, Any, Any]:
        """Consume one counted data chunk, by relation: build tuples,
        materialized output pairs (an output sink), probe tuples."""
        if chunk.relation == "R":
            return self._consume_build(chunk)
        if chunk.relation == "O":
            return self._consume_output(chunk)
        return self._consume_probe(chunk)

    def _suppress_duplicate(self, chunk: DataChunk) -> bool:
        """Idempotent receipt: drop a re-delivered data chunk.

        The reliable transport suppresses lost-ack retransmissions at the
        network layer, so in an integrated run duplicates never reach a
        mailbox; this is the actor-level defense the at-least-once contract
        still requires (and the unit tests exercise directly).  A duplicate
        is counted as received *and* processed — it arrived and was retired
        without effect — and its receive-window credit is returned, so the
        drain counters and flow control stay balanced either way.
        """
        if chunk.transfer_seq < 0:
            return False
        key = (chunk.origin, chunk.transfer_seq)
        if key not in self._seen_seqs:
            self._seen_seqs.add(key)
            return False
        self._count_arrival(chunk)
        self._retire(chunk)
        self.ctx.metrics.inc("faults_duplicates_suppressed", 1,
                             node=self.node.name)
        self.ctx.trace("duplicate_suppressed", f"join{self.index}",
                       origin=chunk.origin, seq=chunk.transfer_seq)
        return True

    # ------------------------------------------------------------------
    # activation
    # ------------------------------------------------------------------
    def _on_activate(self, msg: ActivateJoin) -> Generator[Any, Any, None]:
        if self.state == self.DORMANT:
            self.my_range = msg.hash_range
            self.is_output_sink = msg.output_sink
            self.state = self.PROBE if msg.phase == "probe" else self.BUILD
            self.activated_at = self.ctx.sim.now
            if self.state == self.PROBE:  # probe-phase recruit (output sink)
                self.probe_started_at = self.activated_at
            self.ctx.trace("activate", f"join{self.index}",
                           range=str(msg.hash_range), bucket=msg.bucket)
        # else: idempotent re-activation — a scheduler failover re-drives
        # its pending decision, and the recruit may have acked the dead
        # primary.  Re-confirm to the current scheduler and keep state.
        # Confirm recruitment before replaying raced-ahead chunks: the
        # scheduler's recruit timeout must measure liveness, not workload.
        yield from self._reply(ActivateAck(self.index))
        # Chunks that raced ahead of the activation message.
        while self.pre_activation:
            yield from self._consume(self.pre_activation.popleft())

    # ------------------------------------------------------------------
    # build path
    # ------------------------------------------------------------------
    def _count_arrival(self, chunk: DataChunk) -> None:
        if chunk.relation == "R":
            self.received_build += 1
        else:  # probe tuples, or materialized output pairs
            self.received_probe += 1

    def _retire(self, chunk: DataChunk) -> None:
        """Mark one delivered data chunk fully consumed: count it and
        return its receive-window credit to the senders."""
        if chunk.relation == "R":
            self.processed_build += 1
        else:
            self.processed_probe += 1
        self.node.recv_credits.give()

    def _count_build_emission(self, dest: int) -> None:
        self.emitted_build += 1

    def _consume_build(
        self, chunk: DataChunk, retry: bool = False
    ) -> Generator[Any, Any, bool]:
        """Relay, shed, insert: True once the chunk is retired.  False
        means its remainder is parked: the chunk counts as processed (and
        its credit is released) only when the parked remainder is finally
        consumed (_retry_parked_and_ack) — which is what throttles senders."""
        if self.state == self.CLOSED and chunk.hop != Hop.RESHUFFLE:
            # Replication: a closed node relays build traffic to the node
            # that replaced it (which may itself relay — chain forwarding).
            self._spawn_transfer(chunk.values, self.successor, Hop.FORWARD)
        else:
            values = yield from self._apply_shed_chain(chunk.values)
            if values.size and not (
                yield from self._insert_or_park(values, chunk, retry)
            ):
                return False
        self._retire(chunk)
        return True

    def _apply_shed_chain(self, values: np.ndarray) -> Generator[Any, Any, np.ndarray]:
        """Forward any tuples this node has shed; return what remains ours."""
        for pred, succ in self.shed_chain:
            if values.size == 0:
                break
            mask = pred(self.ctx.posmap(values))
            if mask.any():
                yield from self._shed(values[mask], succ)
                values = values[~mask]
        return values

    def _shed(self, out: np.ndarray, succ: int) -> Generator[Any, Any, None]:
        yield from self._repack(out.size)
        self._spawn_transfer(out, succ, Hop.FORWARD)

    def _repack(self, n: int) -> Generator[Any, Any, None]:
        """CPU charge for packing ``n`` stored tuples into wire buffers."""
        return self.node.compute_per_tuple(self.ctx.cost.cpu_repack_tuple, n)

    def _freed(self, moved: np.ndarray) -> np.ndarray:
        """Return the memory of tuples just extracted from the table."""
        if moved.size:
            self.node.memory.free(int(moved.size) * self._tb)
        return moved

    def _insert_or_park(
        self, values: np.ndarray, chunk: DataChunk, retry: bool
    ) -> Generator[Any, Any, bool]:
        """Insert what ``chunk`` left us (``values``) into the table; park
        what does not fit.  Returns True when everything was consumed
        (inserted or spilled).

        ``retry`` marks a parked remainder being retried after a relief
        action: what still does not fit goes back to the *front* of the
        backlog, and the caller reports ``still_full`` through its
        ReliefAck instead of a fresh MemoryFull."""
        cost = self.ctx.cost
        force = chunk.hop == Hop.RESHUFFLE
        if self.spill is not None:
            # Overflow mode (OOC / fallback): straight to disk partitions.
            yield from self.spill.write_r(values)
            return True
        need = int(values.size) * self._tb
        fits = self.node.memory.try_alloc(need)
        if force and not fits:
            # Reshuffle landing may slightly exceed the budget when a single
            # hot position outweighs the ideal cut; the paper's greedy
            # heuristic has the same property.  Record the overcommit.
            avail = self.node.memory.available
            self.node.memory.try_alloc(avail)
            self.overcommit_bytes += need - avail
        if fits or force:
            self.store.insert(values)
            yield from self.node.compute_per_tuple(cost.cpu_insert_tuple, values.size)
            return True
        fit = self.node.memory.available // self._tb
        if fit > 0:
            self.node.memory.alloc(fit * self._tb)
            self.store.insert(values[:fit])
            yield from self.node.compute_per_tuple(cost.cpu_insert_tuple, fit)
            values = values[fit:]
        if self.auto_spill:
            # OOC baseline — the paper's *basic* out-of-core algorithm
            # (§2): on overflow the whole partition goes to disk bucket
            # files, including what was already inserted in memory, and the
            # join is performed out of core per bucket pair.
            self._open_spill("spill_start", dumped=self.store.stored_tuples)
            dumped = self._freed(
                self.store.extract_position_range(0, self.ctx.cfg.hash_positions)
            )
            if dumped.size:
                yield from self.spill.write_r(dumped)
            yield from self.spill.write_r(values)
            return True
        # The parked entry now owns the chunk's receive credit.
        remainder = DataChunk("R", values, self._tb, hop=Hop.FORWARD,
                              origin=chunk.origin)
        if retry:
            self.parked.appendleft(remainder)
            return False
        self.parked.append(remainder)
        if len(self.parked) == 1:  # a new backlog: announce it, once
            self.ctx.trace("memory_full", f"join{self.index}",
                           stored=self.store.stored_tuples)
            yield from self._report_full()
        return False

    def _open_spill(self, category: str, **detail: Any) -> None:
        self.spill = SpillStore(self.ctx, self.index, hash_range=self.my_range)
        self.ctx.trace(category, f"join{self.index}", **detail)

    def _report_full(self) -> Generator[Any, Any, None]:
        """Tell the scheduler how much build data sits parked here."""
        return self._reply(MemoryFull(
            self.index, deficit_bytes=sum(c.nbytes for c in self.parked)
        ))

    def _spawn_transfer(self, values: np.ndarray, dest: int, hop: str) -> None:
        """Ship ``values`` to another join node asynchronously — build
        tuples, or (``Hop.OUTPUT``) materialized pairs to an output sink.

        Transfers must not block the main message loop: a relief ack that
        waited for a jammed downstream node would deadlock the scheduler's
        serialized relief queue (the downstream node's own relief would be
        stuck behind ours).  ``transfers_pending`` keeps the drain protocol
        honest while data sits in an unsent transfer.
        """
        assert dest != self.index, (
            f"join{self.index}: bad forward destination {dest}"
        )
        if values.size == 0:
            return
        self.transfers_pending += 1
        # Causal provenance is captured now, while the triggering message
        # is still current — the spawned process sends concurrently with
        # this node's main loop, which keeps dequeuing.
        cause = self.ctx.causal.cause_of(f"join{self.index}")
        self.ctx.sim.spawn(
            self._run_transfer(values, dest, hop, cause),
            name=f"{'out' if hop == Hop.OUTPUT else 'xfer'}"
                 f":join{self.index}->join{dest}",
        )

    def _run_transfer(
        self, values: np.ndarray, dest: int, hop: str,
        cause: int | None = None,
    ) -> Generator[Any, Any, None]:
        t0 = self.ctx.sim.now
        if hop != Hop.SPLIT:
            yield from self._ship(values, dest, hop, cause, t0)
            return
        # Barrier split pointer: one split transfer on the wire at a time
        # (the paper's 'done' message gates the next split).
        with self.ctx.split_transfer_token.request() as token:
            yield token
            yield from self._ship(values, dest, hop, cause, t0)

    def _ship(
        self, values: np.ndarray, dest: int, hop: str, cause: int | None,
        t0: float,
    ) -> Generator[Any, Any, None]:
        output = hop == Hop.OUTPUT
        relation, tb = (
            ("O", OUTPUT_PAIR_BYTES) if output else ("R", self._tb)
        )
        try:
            chunk_tuples = self.ctx.cfg.workload.real_chunk_tuples
            for lo, hi in chunk_slices(int(values.size), chunk_tuples):
                if output:
                    self.emitted_probe += 1
                else:
                    self._count_build_emission(dest)
                yield from self.ctx.send(
                    self.node,
                    self.ctx.join_node(dest),
                    DataChunk(relation, values[lo:hi], tb, hop=hop,
                              origin=self.node.node_id),
                    parent=cause,
                )
        finally:
            if hop == Hop.SPLIT:
                self.split_transfer_s += self.ctx.sim.now - t0
            self.transfers_pending -= 1
            if hop in (Hop.SPLIT, Hop.RESHUFFLE):  # spans named as the hop
                self._span_since(hop, t0, dest=dest, tuples=int(values.size))

    # ------------------------------------------------------------------
    # relief orders
    # ------------------------------------------------------------------
    def _on_replicate_order(self, msg: ReplicateOrder) -> Generator[Any, Any, None]:
        if self.state != self.CLOSED:  # else: already applied (re-driven)
            assert self.state in (self.BUILD,), "replicate order in wrong state"
            self.successor = msg.new_node
            self.state = self.CLOSED
            self.ctx.trace("replicate", f"join{self.index}",
                           new_node=msg.new_node)
        yield from self._retry_parked_and_ack()  # CLOSED: forwards everything
        assert not self.parked

    def _on_bisect_order(self, msg: BisectOrder) -> Generator[Any, Any, None]:
        old = self.my_range
        assert old is not None
        moved = 0
        # else: already applied (failover re-drive) — the range was shrunk
        # and the upper half shipped; nothing more may move.
        if old.hi != msg.mid:
            assert old.contains(msg.mid)
            self.my_range = HashRange(old.lo, msg.mid)
            moved = yield from self._split_off(
                self.store.extract_position_range(msg.mid, old.hi),
                lambda pos, m=msg.mid: pos >= m,
                msg.new_node, "bisect", mid=msg.mid,
            )
        yield from self._retry_parked_and_ack(moved=moved)

    def _split_off(
        self, moved: np.ndarray, shed: ShedPredicate, new_node: int,
        category: str, **detail: Any,
    ) -> Generator[Any, Any, int]:
        """The data motion of one split: ship the tuples just extracted to
        ``new_node`` and remember ``shed``, so that later arrivals this
        node no longer owns follow them.  Returns the tuples moved."""
        self._freed(moved)
        yield from self._repack(moved.size)
        self.shed_chain.append((shed, new_node))
        self.ctx.trace(category, f"join{self.index}", **detail,
                       new_node=new_node, moved=int(moved.size))
        self._spawn_transfer(moved, new_node, Hop.SPLIT)
        return int(moved.size)

    def _retry_parked_and_ack(self, moved: int = 0) -> Generator[Any, Any, None]:
        """Retry the parked backlog after a relief action and tell the
        scheduler whether this node is still stuck."""
        still_full = False
        while self.parked and not still_full:  # parked again: stop retrying
            still_full = not (yield from self._consume_build(
                self.parked.popleft(), retry=True))
        yield from self._reply(
            ReliefAck(self.index, still_full=still_full, moved_tuples=moved)
        )

    def _on_linear_split_order(self, msg: LinearSplitOrder) -> Generator[Any, Any, None]:
        key = (msg.new_bucket, msg.modulus)
        moved = 0
        # else: failover re-drive of a split that already executed.
        if key not in self._applied_splits:
            self._applied_splits.add(key)
            moved = yield from self._split_off(
                self.store.extract_linear_bucket(msg.new_bucket, msg.modulus),
                lambda pos, nb=msg.new_bucket, m=msg.modulus: pos % (2 * m) == nb,
                msg.new_node, "linear_split", new_bucket=msg.new_bucket,
            )
        yield from self._reply(SplitDone(self.index, moved_tuples=moved))

    def _on_relief_ping(self, msg: ReliefPing) -> Generator[Any, Any, None]:
        return self._retry_parked_and_ack()

    def _on_spill_order(self, msg: SpillOrder) -> Generator[Any, Any, None]:
        if self.state == self.PROBE:
            # Probe-phase fallback: the output pool is exhausted too.
            yield from self._release_pending_output(None)
            return
        if self.spill is None:
            self._open_spill("spill_fallback")
        yield from self._retry_parked_and_ack()
        assert not self.parked, "spill mode consumes everything"

    # ------------------------------------------------------------------
    # drain polling
    # ------------------------------------------------------------------
    def _on_status_request(self, msg: StatusRequest) -> Generator[Any, Any, None]:
        received, processed, emitted = self._build_counters()
        yield from self._reply(StatusReport(
            node=self.index,
            token=msg.token,
            received_build=received,
            processed_build=processed,
            emitted_build=emitted,
            received_probe=self.received_probe,
            processed_probe=self.processed_probe,
            busy=bool(self.parked) or self.output_pending > 0
                 or self.transfers_pending > 0,
            emitted_probe=self.emitted_probe,
        ))

    def _build_counters(self) -> tuple[int, int, int]:
        """Build chunks (received, processed, emitted), as the drain
        protocol's books should see them."""
        return self.received_build, self.processed_build, self.emitted_build

    # ------------------------------------------------------------------
    # reshuffle (hybrid)
    # ------------------------------------------------------------------
    def _on_count_request(self, msg: CountRequest) -> Generator[Any, Any, None]:
        offsets, counts = self.store.position_counts(msg.lo, msg.hi)
        yield from self.node.compute_per_tuple(
            self.ctx.cost.cpu_route_tuple, self.store.stored_tuples
        )
        yield from self._reply(
            CountVector(self.index, msg.lo, msg.hi, offsets, counts,
                        wire_scale=self.ctx.cfg.workload.scale)
        )

    def _on_reshuffle_order(self, msg: ReshuffleOrder) -> Generator[Any, Any, None]:
        # Re-open: a CLOSED replica participates in redistribution.
        self.state = self.BUILD
        self.successor = None
        moved_total = 0
        for dest, rng in msg.assignments:
            if dest == self.index:
                self.my_range = rng
            elif rng is not None:
                out = self._freed(
                    self.store.extract_position_range(rng.lo, rng.hi))
                yield from self._repack(out.size)
                moved_total += int(out.size)
                self._spawn_transfer(out, dest, Hop.RESHUFFLE)
        self.ctx.trace("reshuffle", f"join{self.index}", moved=moved_total,
                       new_range=str(self.my_range))
        yield from self._reply(
            ReshuffleDone(self.index, moved_tuples=moved_total)
        )

    # ------------------------------------------------------------------
    # probe path
    # ------------------------------------------------------------------
    def _on_start_probe(self, msg: StartProbe) -> Generator[Any, Any, None]:
        if self.state == self.PROBE:
            return  # an eager S chunk already flipped us (see below)
        assert not self.parked, (
            f"join{self.index} entered probe with parked build data"
        )
        self.state = self.PROBE
        self.probe_started_at = self.ctx.sim.now
        self._span_since("build", self.activated_at)
        # One consolidation/sort pass over the stored table.
        yield from self._repack(self.store.stored_tuples)
        self.store.finalize()

    def _span_since(self, name: str, t0: float, **detail: Any) -> None:
        """Log the span ``name`` from ``t0`` to now — unless ``t0`` is a
        stamp this node never took (still NaN)."""
        if t0 == t0:  # not NaN
            self.ctx.spans.add(f"join{self.index}", name, t0,
                               self.ctx.sim.now, **detail)

    def _consume_probe(self, chunk: DataChunk) -> Generator[Any, Any, None]:
        if self.state != self.PROBE:
            # Defensive: the scheduler flips join nodes before the sources,
            # but if an S chunk ever outruns StartProbe, switch lazily.
            yield from self._on_start_probe(StartProbe())
        cost = self.ctx.cost
        yield from self.node.compute_per_tuple(cost.cpu_probe_tuple, chunk.values.size)
        found = self.store.probe(chunk.values)
        if found:
            yield from self.node.compute_per_tuple(cost.cpu_output_match, found)
        self.matches += found
        if found and self.ctx.cfg.materialize_output:
            yield from self._materialize_output(found)
        if self.spill is not None:
            yield from self.spill.write_s(chunk.values)
        self._retire(chunk)

    # ------------------------------------------------------------------
    # output materialization & probe-phase expansion (footnote 1)
    # ------------------------------------------------------------------
    def _materialize_output(self, pairs: int) -> Generator[Any, Any, None]:
        """Keep ``pairs`` output tuples: in memory, at the sink, or on disk."""
        cfg = self.ctx.cfg
        if self.output_sink_node is not None:
            self._ship_output(pairs, self.output_sink_node)
            return
        fit = min(pairs, self.node.memory.available // OUTPUT_PAIR_BYTES)
        if fit:
            self.node.memory.alloc(fit * OUTPUT_PAIR_BYTES)
            self.output_tuples += fit
            pairs -= fit
        if not pairs:
            return
        if not cfg.probe_expansion or self._output_spill_mode:
            # Paper's default assumption: overflow output goes to disk.
            yield from self._spill_output(pairs)
            return
        self.output_pending += pairs
        if self.output_pending == pairs:  # nothing was pending: announce once
            self.ctx.trace("output_full", f"join{self.index}",
                           materialized=self.output_tuples)
            yield from self._report_output_full()

    def _spill_output(self, pairs: int) -> Generator[Any, Any, None]:
        """Write ``pairs`` materialized pairs to the local output file."""
        self.output_spilled += pairs
        return self.node.disk.write(pairs * OUTPUT_PAIR_BYTES)

    def _report_output_full(self) -> Generator[Any, Any, None]:
        return self._reply(MemoryFull(
            self.index,
            deficit_bytes=self.output_pending * OUTPUT_PAIR_BYTES,
        ))

    def _ship_output(self, pairs: int, dest: int) -> None:
        """Materialized pairs carry no join attributes the model needs:
        they travel as zero-filled ``"O"`` chunks of the right size."""
        self._spawn_transfer(np.zeros(pairs, dtype=np.uint64), dest, Hop.OUTPUT)

    def _consume_output(self, chunk: DataChunk) -> Generator[Any, Any, None]:
        """An output sink absorbing materialized pairs (it may itself
        overflow and chain-expand, exactly like the build-phase chains)."""
        yield from self._materialize_output(chunk.tuples)
        self._retire(chunk)

    def _on_output_redirect(self, msg: OutputRedirect) -> Generator[Any, Any, None]:
        return self._release_pending_output(msg.new_node)

    def _release_pending_output(
        self, sink: int | None
    ) -> Generator[Any, Any, None]:
        """The scheduler's answer to an output-full report: pending pairs
        and all future overflow go to the new ``sink`` — or, with the pool
        exhausted (``None``), straight to disk from now on."""
        self.output_sink_node = sink
        pending, self.output_pending = self.output_pending, 0
        if sink is None:
            self._output_spill_mode = True
            if pending:
                yield from self._spill_output(pending)
            self.ctx.trace("output_spill_fallback", f"join{self.index}",
                           pending=pending)
        else:
            self.ctx.trace("output_redirect", f"join{self.index}",
                           sink=sink, pending=pending)
            if pending:
                self._ship_output(pending, sink)
        yield from self._reply(ReliefAck(self.index, still_full=False))

    # ------------------------------------------------------------------
    # OOC final passes & shutdown
    # ------------------------------------------------------------------
    def _on_finalize_pass(self, msg: FinalizePass) -> Generator[Any, Any, None]:
        # else: failover re-drive — the passes already ran; just re-ack.
        if not self._finalized_pass:
            self._finalized_pass = True
            self._span_since("probe", self.probe_started_at)
            if self.spill is not None:
                t0 = self.ctx.sim.now
                found = yield from self.spill.final_passes()
                self._span_since("ooc", t0, matches=found)
                self.matches += found
                if found and self.ctx.cfg.materialize_output:
                    # Pairs produced by the disk passes go straight to the
                    # local output file — the pass is already disk-bound.
                    yield from self._spill_output(found)
                self.ctx.trace("ooc_pass", f"join{self.index}", matches=found)
            # The dedup window has done its job once the query's data flow
            # is over; record its high-water mark and release the memory.
            self.ctx.metrics.set_gauge(
                "node.dedup_window", len(self._seen_seqs), node=self.node.name
            )
            self._seen_seqs.clear()
        yield from self._reply(PassDone(self.index))

    def _on_shutdown(self, msg: Shutdown) -> Generator[Any, Any, None]:
        if self.state != self.DORMANT:
            yield from self._reply(FinalReport(
                node=self.index,
                stored_tuples=self.store.stored_tuples,
                matches=self.matches,
                peak_memory=self.node.memory.peak,
                overcommit_bytes=self.overcommit_bytes,
                spilled_r_tuples=self.spill.spilled_r if self.spill else 0,
                spilled_s_tuples=self.spill.spilled_s if self.spill else 0,
                activated_at=self.activated_at,
                split_transfer_s=self.split_transfer_s,
                output_tuples=self.output_tuples,
                output_spilled_tuples=self.output_spilled,
                is_output_sink=self.is_output_sink,
            ))
        self.state = self.DONE
