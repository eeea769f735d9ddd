"""The data-source actor (paper §4.1.2).

A source generates its share of relations R and S on the fly, keeps one
buffer per working join node, routes every generated tuple by its hash
position through the current routing table, and ships full buffers as
:class:`~repro.core.messages.DataChunk` messages.  Routing-table updates
broadcast by the scheduler are applied between generation batches; already
buffered (unsent) tuples are re-partitioned under the new table, mirroring
the paper's "data sources update their local list of working join nodes".

In the probe phase a tuple whose range is replicated is sent to *every*
replica (paper §4.2.2) — the source counts the extra copies, which is the
probe-side overhead of the replication-based algorithm.

Crash recovery (``repro.core.membership``) adds a replay path: relation
streams are deterministic (seeded per source), so a source can re-generate
any prefix of its stream.  ``batches_done`` is the replay cursor — when a
:class:`ReplayOrder` arrives, the source re-generates batches ``[0,
cursor)``, partitions them under the routing table *carried by the order*
and re-streams only the recovery target's share.  The order doubles as the
route update for the takeover table: installing the table and starting
the replay happen in one atomic step at a batch boundary, so no live chunk
can ever be routed to the target for a tuple the replay also covers.
Replay traffic is accounted separately (:class:`ReplayDone`) because the
scheduler's drain arithmetic fences the dead node's deliveries.
"""

from __future__ import annotations

from collections.abc import Callable, Generator, Iterable
from typing import Any

import numpy as np

from ..data import ChunkBuffer, RelationStream
from ..hashing import Router
from .context import RunContext
from .messages import (
    DataChunk,
    Hop,
    ReplayDone,
    ReplayOrder,
    RouteUpdate,
    SchedulerFailover,
    Shutdown,
    SourceDone,
    StartProbe,
)

__all__ = ["DataSourceProcess"]


class DataSourceProcess:
    """One data source; drive with ``sim.spawn(proc.run())``."""

    def __init__(self, ctx: RunContext, source_index: int, initial_router: Router) -> None:
        self.ctx = ctx
        self.index = source_index
        self.node = ctx.source_node(source_index)
        self.router = initial_router
        self.chunk_tuples = ctx.cfg.workload.real_chunk_tuples
        #: generation/replay batches pushed through the router (wall-clock
        #: visibility into the columnar data plane; see docs/DATA_PLANE.md)
        self.chunks_routed = ctx.metrics.counter(
            "dataplane.chunks_routed", node=self.node.name
        )
        # per-relation per-destination send counters (drain ground truth)
        self.chunks_sent: dict[str, dict[int, int]] = {"R": {}, "S": {}}
        self.tuples_sent: dict[str, dict[int, int]] = {"R": {}, "S": {}}
        self.dup_tuples = 0
        # -- crash-recovery state ---------------------------------------
        #: replay cursor: batches of each relation fully routed so far
        self.batches_done: dict[str, int] = {"R": 0, "S": 0}
        #: completed replays by (recovery_id, relation) — replays are
        #: idempotent: a re-driven order re-sends the stored receipt
        self._replays_done: dict[tuple[int, str], ReplayDone] = {}
        self._pending_replays: list[ReplayOrder] = []
        self._done_relations: list[str] = []
        self._reannounce = False
        self._probing = False
        # -- control traffic ---------------------------------------------
        #: a RouteUpdate installed a newer table since the last batch
        self._route_changed = False
        #: the first StartProbe's table (None until it arrives)
        self._probe_router: Router | None = None
        self._stopped = False
        #: message type -> handler, called as ``handler(self, msg)``,
        #: wherever the message is read (parked in :meth:`_serve_until`, or
        #: drained at a batch boundary).  Rows only note what arrived; what
        #: must send runs from :meth:`_drain_control`.  Plain functions,
        #: not bound methods (see JoinProcess._handlers).
        cls = type(self)
        self._handlers: dict[type, Callable[[Any, Any], None]] = {
            RouteUpdate: cls._on_route_update,
            ReplayOrder: cls._on_replay_order,
            SchedulerFailover: cls._on_failover,
            StartProbe: cls._on_start_probe,
            Shutdown: cls._on_shutdown,
        }

    # ------------------------------------------------------------------
    def run(self) -> Generator[Any, Any, None]:
        ctx, cfg = self.ctx, self.ctx.cfg
        wl = cfg.workload

        # ---- build phase: stream R ------------------------------------
        r_stream = RelationStream(wl, "R", ctx.n_sources, self.index)
        yield from self._stream_relation(r_stream, "R")
        yield from self._report_done("R")

        # ---- wait for the probe signal --------------------------------
        yield from self._serve_until(lambda: self._probe_router is not None)
        assert self._probe_router is not None
        if self._probe_router.version >= self.router.version:
            self.router = self._probe_router
        self._probing = True

        # ---- probe phase: stream S ------------------------------------
        s_stream = RelationStream(wl, "S", ctx.n_sources, self.index)
        yield from self._stream_relation(s_stream, "S")
        yield from self._report_done("S")

        # ---- idle until shutdown ---------------------------------------
        yield from self._serve_until(lambda: self._stopped)

    # ------------------------------------------------------------------
    def _stream_relation(
        self, stream: RelationStream, relation: str
    ) -> Generator[Any, Any, None]:
        buffers = ChunkBuffer(self.chunk_tuples)

        for batch in stream.batches():
            yield from self._produce(batch)
            if self._absorb_control() and buffers.total_buffered:
                # Routing changed: re-partition unsent buffered tuples.
                pool = buffers.drain_everything()
                yield from self._route_into(buffers, pool, relation)
            yield from self._route_into(buffers, batch, relation)
            self.batches_done[relation] += 1
            yield from self._drain_control(buffers)
            yield from self._flush_full(buffers, relation)

        # Relation exhausted: flush every partial buffer.
        self._absorb_control()
        yield from self._drain_control(buffers)
        for dest in buffers.destinations():
            values = buffers.pop_all(dest)
            if values is not None:
                yield from self._send_chunk(dest, relation, values)

    def _route_into(
        self, buffers: ChunkBuffer, values: np.ndarray, relation: str
    ) -> Generator[Any, Any, None]:
        if values.size == 0:
            return
        positions = yield from self._route_positions(values)
        copies = self._buffer_routed(buffers, values, positions,
                                     probe=relation == "S")
        self.dup_tuples += copies - int(values.size)

    def _buffer_routed(
        self, buffers: ChunkBuffer, values: np.ndarray, positions: np.ndarray,
        *, probe: bool, skip: int | None = None,
    ) -> int:
        """Partition ``values`` under the live table into ``buffers``
        (``skip``'s share dropped); returns the tuple copies assigned.

        One gather, then a contiguous slice per range — the same array for
        every replica of a probe chain (ChunkBuffer never mutates it), and
        its own memory, so a cold destination's few buffered tuples do not
        pin the whole batch.  Destinations are appended in ascending order,
        each one's slices in range order: part of the model's answer
        (DATA_PLANE.md §2)."""
        order, spans = self.router.route(positions)
        gathered = values[order]
        slices: dict[int, list[np.ndarray]] = {}
        copies = 0
        for chain, lo, hi in spans:
            part = gathered[lo:hi].copy()
            for dest in (chain if probe else chain[-1:]):
                slices.setdefault(dest, []).append(part)
                copies += hi - lo
        for dest in sorted(slices):
            if dest != skip:
                for part in slices[dest]:
                    buffers.append(dest, part)
        return copies

    def _produce(self, batch: np.ndarray) -> Iterable[Any]:
        """What one batch costs to come by: generated on the fly, or — the
        relation sits in local files (paper §4.1.2's other mode) — a
        batched read in place of the generation cost."""
        cfg = self.ctx.cfg
        if cfg.sources_from_disk:
            return self.node.disk.read(
                int(batch.size) * cfg.workload.tuple_bytes
            )
        return self.node.compute_per_tuple(
            self.ctx.cost.cpu_generate_tuple, batch.size
        )

    def _route_positions(
        self, values: np.ndarray
    ) -> Generator[Any, Any, np.ndarray]:
        """Count one batch pushed through the router, charge its routing
        CPU and return the hash positions to partition by."""
        self.chunks_routed.inc()
        yield from self.node.compute_per_tuple(
            self.ctx.cost.cpu_route_tuple, values.size
        )
        return self.ctx.posmap(values)

    def _flush_full(self, buffers: ChunkBuffer, relation: str) -> Generator[Any, Any, None]:
        for dest in buffers.destinations():
            while True:
                chunk = buffers.pop_full_chunk(dest)
                if chunk is None:
                    break
                yield from self._send_chunk(dest, relation, chunk)

    def _send_chunk(
        self, dest: int, relation: str, values: np.ndarray
    ) -> Generator[Any, Any, None]:
        ctx = self.ctx
        msg = DataChunk(
            relation=relation,
            values=values,
            tuple_bytes=ctx.cfg.workload.tuple_bytes,
            hop=Hop.PROBE if relation == "S" else Hop.PRIMARY,
            origin=self.node.node_id,
            version=self.router.version,
        )
        self.chunks_sent[relation][dest] = self.chunks_sent[relation].get(dest, 0) + 1
        self.tuples_sent[relation][dest] = (
            self.tuples_sent[relation].get(dest, 0) + int(values.size)
        )
        return ctx.send(self.node, ctx.join_node(dest), msg)

    # ------------------------------------------------------------------
    # control traffic: one table, read from two places
    # ------------------------------------------------------------------
    def _dispatch(self, msg: Any) -> None:
        handler = self._handlers.get(type(msg))
        if handler is None:
            raise RuntimeError(f"source {self.index}: unexpected message {msg!r}")
        handler(self, msg)

    def _on_route_update(self, msg: RouteUpdate) -> None:
        # Keep the newest table (a stale build-phase update is harmless).
        if msg.router.version > self.router.version:
            self.router = msg.router
            self._route_changed = True

    def _on_replay_order(self, msg: ReplayOrder) -> None:
        self._pending_replays.append(msg)  # its sends need generator context

    def _on_failover(self, msg: SchedulerFailover) -> None:
        # Re-announce everything the dead primary took to its grave.
        self._reannounce = True

    def _on_start_probe(self, msg: StartProbe) -> None:
        # Only the first one counts: a re-broadcast after a scheduler
        # failover is a duplicate, absorbed silently.
        if self._probe_router is None:
            assert msg.router is not None, "sources need the probe router"
            self._probe_router = msg.router

    def _on_shutdown(self, msg: Shutdown) -> None:
        self._stopped = True

    def _serve_until(self, done: Callable[[], bool]) -> Generator[Any, Any, None]:
        """Park on the mailbox, acting on each control message as it
        arrives, until ``done()``.  Nothing is buffered while parked."""
        while not done():
            msg = yield from self.node.mailbox.recv()
            self._dispatch(msg)
            yield from self._drain_control(None)

    def _absorb_control(self) -> bool:
        """Note pending control messages at a batch boundary without
        blocking; :meth:`_drain_control` acts on them once the batch is
        routed.  Returns True if the routing table changed."""
        for msg in self.node.mailbox.drain():
            self._dispatch(msg)
        changed, self._route_changed = self._route_changed, False
        return changed

    def _drain_control(self, buffers: ChunkBuffer | None) -> Generator[Any, Any, None]:
        """Act on what the rows noted: re-announce, then queued replays."""
        if self._reannounce:
            self._reannounce = False
            yield from self._announce_to_scheduler()
        while self._pending_replays:
            order = self._pending_replays.pop(0)
            yield from self._execute_replay(order, buffers=buffers)

    def _report_done(self, relation: str) -> Generator[Any, Any, None]:
        ctx = self.ctx
        if relation not in self._done_relations:
            self._done_relations.append(relation)
        done = SourceDone(
            source=self.index,
            relation=relation,
            chunks_sent=dict(self.chunks_sent[relation]),
            tuples_sent=dict(self.tuples_sent[relation]),
            dup_tuples=self.dup_tuples,
        )
        ctx.trace("source_done", f"src{self.index}", relation=relation,
                  chunks=sum(done.chunks_sent.values()))
        return ctx.send(self.node, ctx.scheduler_node, done)

    def _announce_to_scheduler(self) -> Generator[Any, Any, None]:
        """A standby took over: re-send everything the old primary knew.

        SourceDone and ReplayDone are idempotent at the scheduler (keyed
        on source / recovery id), so re-announcing is always safe."""
        self.ctx.trace("source_reannounce", f"src{self.index}")
        for relation in self._done_relations:
            yield from self._report_done(relation)
        for done in self._replays_done.values():
            yield from self.ctx.send(self.node, self.ctx.scheduler_node, done)

    # ------------------------------------------------------------------
    # crash-recovery replay
    # ------------------------------------------------------------------
    def _execute_replay(
        self, order: ReplayOrder, buffers: ChunkBuffer | None
    ) -> Generator[Any, Any, None]:
        """Re-stream the recovery target's share of this source's prefix.

        Idempotent: a repeated order (standby re-drive after a scheduler
        failover) re-sends the stored receipt without re-streaming."""
        ctx = self.ctx
        key = (order.recovery_id, order.relation)
        done = self._replays_done.get(key)
        if done is None:
            limit = self.batches_done[order.relation]
            # The order doubles as the takeover route update — except for
            # a build-side (R) replay while this source streams S, where
            # the scheduler flips the live probe table separately only
            # after the target finishes rebuilding.
            install = order.router is not None and not (
                order.relation == "R" and self._probing
            )
            if (install and order.router is not None
                    and order.router.version > self.router.version):
                self.router = order.router
            if install and buffers is not None and buffers.total_buffered:
                # Buffered tuples the replay re-covers must not also ship
                # live, or the target would see them twice.
                pool = buffers.drain_everything()
                yield from self._requeue_excluding(buffers, pool, order)
            done = yield from self._replay_prefix(order, limit)
            self._replays_done[key] = done
        yield from ctx.send(self.node, ctx.scheduler_node, done)

    def _requeue_excluding(
        self, buffers: ChunkBuffer, pool: np.ndarray, order: ReplayOrder
    ) -> Generator[Any, Any, None]:
        """Re-buffer ``pool`` under the live table, minus the replay's share.

        Build tuples covered by the replay (assigned to the target under
        the order's table) are dropped outright; probe tuples only lose
        their target *copy* — copies for other replicas still flow live."""
        if pool.size == 0:
            return
        assert order.router is not None
        positions = yield from self._route_positions(pool)
        probe = order.relation == "S"
        if not probe:
            covered = order.router.share_of(positions, order.target, probe=False)
            keep = np.ones(pool.size, dtype=bool)
            keep[covered] = False
            pool, positions = pool[keep], positions[keep]
        # the live share of the target's range is replayed too: skip it
        self._buffer_routed(buffers, pool, positions, probe=probe,
                            skip=order.target)

    def _replay_prefix(
        self, order: ReplayOrder, limit: int
    ) -> Generator[Any, Any, ReplayDone]:
        """Re-generate batches ``[0, limit)`` and stream the target's share."""
        ctx = self.ctx
        wl = ctx.cfg.workload
        router = order.router if order.router is not None else self.router
        stream = RelationStream(wl, order.relation, ctx.n_sources, self.index)
        target = order.target
        buffer = ChunkBuffer(self.chunk_tuples)
        chunks = 0
        tuples = 0

        def ship(values: np.ndarray) -> Generator[Any, Any, None]:
            nonlocal chunks, tuples
            chunks += 1
            tuples += int(values.size)
            return self._send_replay_chunk(order, values)

        for batch in stream.batches(limit=limit):
            yield from self._produce(batch)
            positions = yield from self._route_positions(batch)
            share = router.share_of(positions, target,
                                    probe=order.relation == "S")
            buffer.append(target, batch[share])
            while (chunk := buffer.pop_full_chunk(target)) is not None:
                yield from ship(chunk)
        rest = buffer.pop_all(target)
        if rest is not None:
            yield from ship(rest)
        done = ReplayDone(
            recovery_id=order.recovery_id,
            source=self.index,
            relation=order.relation,
            chunks_sent={order.target: chunks} if chunks else {},
            tuples=tuples,
        )
        ctx.trace("replay_done", f"src{self.index}", relation=order.relation,
                  target=order.target, chunks=chunks, tuples=tuples)
        return done

    def _send_replay_chunk(
        self, order: ReplayOrder, values: np.ndarray
    ) -> Generator[Any, Any, None]:
        """Replay traffic: counted in the ReplayDone receipt, never in the
        live ``chunks_sent`` maps (the scheduler fences those per-dest)."""
        ctx = self.ctx
        version = (order.router.version if order.router is not None
                   else self.router.version)
        msg = DataChunk(
            relation=order.relation,
            values=values,
            tuple_bytes=ctx.cfg.workload.tuple_bytes,
            hop=Hop.PROBE if order.relation == "S" else Hop.PRIMARY,
            origin=self.node.node_id,
            version=version,
        )
        return ctx.send(self.node, ctx.join_node(order.target), msg)
