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

Every simulated step is per batch; the *array* work is per block of batches:
the rest of a block is position-mapped, routed and gathered in one pass into
the buffer's plan, and each batch boundary only shows that batch's share — a
lookahead that holds while ``self.router`` is the object it was built with
and the buffer keeps the plan (docs/DATA_PLANE.md §2).

Crash recovery is layered on: ``recovery.FaultTolerantDataSource`` wraps
this class at its batch boundaries (:meth:`DataSourceProcess._at_boundary`).
"""

from __future__ import annotations

from collections.abc import Callable, Generator, Iterable
from typing import Any

import numpy as np

from ..data import ChunkBuffer, RelationStream, chunk_slices
from ..hashing import Router
from .actor import Actor
from .context import RunContext
from .messages import (
    DataChunk,
    Hop,
    RouteUpdate,
    Shutdown,
    SourceDone,
    StartProbe,
)

__all__ = ["DataSourceProcess"]


class DataSourceProcess(Actor):
    """One data source; drive with ``sim.spawn(proc.run())``.

    Its control messages have one row each (an ``_on_*`` handler), read
    wherever the message is: parked in :meth:`_serve_until`, or drained
    at a batch boundary."""

    def __init__(self, ctx: RunContext, source_index: int, initial_router: Router) -> None:
        self.ctx = ctx
        self.index = source_index
        self.node = ctx.source_node(source_index)
        self.router = initial_router
        self.chunk_tuples = ctx.cfg.workload.real_chunk_tuples
        #: batches pushed through the router (wall-clock visibility into
        #: the columnar data plane; see docs/DATA_PLANE.md)
        self.chunks_routed = ctx.metrics.counter(
            "dataplane.chunks_routed", node=self.node.name
        )
        # per-relation per-destination send counters (drain ground truth)
        self.chunks_sent: dict[str, dict[int, int]] = {"R": {}, "S": {}}
        self.dup_tuples = 0
        #: batches of each relation fully routed so far — the streams are
        #: deterministic (seeded per source), so this is a cursor into them
        self.batches_done: dict[str, int] = {"R": 0, "S": 0}
        # -- control traffic ---------------------------------------------
        #: a RouteUpdate installed a newer table since the last batch
        self._route_changed = False
        #: the first StartProbe's table (None until it arrives)
        self._probe_router: Router | None = None
        self._stopped = False

    def __str__(self) -> str:
        return f"source {self.index}"

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
        probe = relation == "S"

        planned: Router | None = None  # the table the plan was built under
        for block in stream.blocks():
            for lo, hi in chunk_slices(block.size, self.chunk_tuples):
                batch = block[lo:hi]
                yield from self._produce(batch)
                if self._absorb_control() and buffers.total_buffered:
                    # Routing changed: re-partition unsent buffered tuples.
                    pool = buffers.drain_everything()
                    yield from self._charge_routing(pool.size)
                    self.dup_tuples += self._buffer_routed(
                        buffers, pool, self.ctx.posmap(pool), probe=probe) - pool.size
                yield from self._charge_routing(batch.size)
                if self.router is not planned or not buffers.batches_ahead:
                    # First batch of the block, a newer table, or a plan
                    # ended early: route what is left of the block.
                    planned = self.router
                    self._route_ahead(buffers, block[lo:], probe=probe)
                self.dup_tuples += buffers.show() - batch.size
                self.batches_done[relation] += 1
                yield from self._at_boundary(buffers)
                for dest in buffers.full():
                    while (chunk := buffers.pop_full_chunk(dest)) is not None:
                        yield from self._send_chunk(dest, relation, chunk)

        # Relation exhausted: flush every partial buffer.
        self._absorb_control()
        yield from self._at_boundary(buffers)
        for dest in buffers.destinations():
            values = buffers.pop_all(dest)
            if values is not None:
                yield from self._send_chunk(dest, relation, values)

    def _route_ahead(self, buffers: ChunkBuffer, values: np.ndarray, *, probe: bool) -> None:
        """Plan ``buffers`` with ``values`` — the rest of a block — routed
        batch by batch under the live table in one pass.  Positions and
        permutation die here; the caller lives all relation long."""
        index, dests, counts = self.router.route_by_destination(
            self.ctx.posmap(values), self.chunk_tuples, probe=probe)
        buffers.plan(values[index], dests, counts)

    def _buffer_routed(
        self, buffers: ChunkBuffer, values: np.ndarray, positions: np.ndarray,
        *, probe: bool, skip: int | None = None,
    ) -> int:
        """Partition ``values`` under the live table into ``buffers`` (less
        ``skip``'s share: the fault layer's), visible at once; returns the
        copies assigned, ``skip``'s included."""
        index, dests, counts = self.router.route_by_destination(
            positions, max(values.size, 1), probe=probe)
        copies, keep = int(counts.sum()), dests != skip
        index = index[np.repeat(keep, counts.sum(axis=0))]
        buffers.plan(values[index], dests[keep], counts[:, keep])
        if values.size:  # one batch, shown at once
            buffers.show()
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

    def _charge_routing(self, n: int) -> Iterable[Any]:
        """Count one batch pushed through the router; its routing CPU."""
        self.chunks_routed.inc()
        return self.node.compute_per_tuple(self.ctx.cost.cpu_route_tuple, n)

    def _send_chunk(
        self, dest: int, relation: str, values: np.ndarray
    ) -> Generator[Any, Any, None]:
        self.chunks_sent[relation][dest] = self.chunks_sent[relation].get(dest, 0) + 1
        return self._ship(dest, relation, values)

    def _ship(
        self, dest: int, relation: str, values: np.ndarray
    ) -> Generator[Any, Any, None]:
        """One chunk to join node ``dest``."""
        ctx = self.ctx
        msg = DataChunk(
            relation=relation,
            values=values,
            tuple_bytes=ctx.cfg.workload.tuple_bytes,
            hop=Hop.PROBE if relation == "S" else Hop.PRIMARY,
            origin=self.node.node_id,
        )
        return ctx.send(self.node, ctx.join_node(dest), msg)

    # ------------------------------------------------------------------
    # control traffic: one table, read from two places
    # ------------------------------------------------------------------
    def _on_route_update(self, msg: RouteUpdate) -> None:
        # Keep the newest table (a stale build-phase update is harmless).
        if msg.router.version > self.router.version:
            self.router = msg.router
            self._route_changed = True

    def _on_start_probe(self, msg: StartProbe) -> None:
        # Only the first one counts; a re-broadcast is absorbed silently.
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
            self.dispatch(msg)
            yield from self._at_boundary(None)

    def _absorb_control(self) -> bool:
        """Apply pending control messages at a batch boundary without
        blocking.  Returns True if the routing table changed."""
        for msg in self.node.mailbox.drain():
            self.dispatch(msg)
        changed, self._route_changed = self._route_changed, False
        return changed

    def _at_boundary(self, buffers: ChunkBuffer | None) -> Iterable[Any]:
        """Fault-layer decision point (a no-op here; see repro.core.recovery):
        control messages were just read and the source may send.  Reached
        once a batch is routed *and counted in* ``batches_done``, before the
        end-of-relation flush while ``buffers`` still holds the partial
        chunks, and after each message taken while parked (``buffers`` None)."""
        return ()

    def _report_done(self, relation: str) -> Generator[Any, Any, None]:
        ctx = self.ctx
        done = SourceDone(
            source=self.index,
            relation=relation,
            chunks_sent=dict(self.chunks_sent[relation]),
            dup_tuples=self.dup_tuples,
        )
        ctx.trace("source_done", f"src{self.index}", relation=relation,
                  chunks=sum(done.chunks_sent.values()))
        return ctx.send(self.node, ctx.scheduler_node, done)
