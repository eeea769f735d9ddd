"""Shared fixtures: small, fast join-run configurations.

The integration tests run the full simulated system on shrunken workloads
(thousands of tuples) so the whole suite stays fast while still exercising
every protocol path: expansion, forwarding, splits, reshuffle, spilling,
drain detection and probe broadcast.
"""

import heapq
import random
from collections import deque
from unittest import mock

import pytest

from repro.config import (
    Algorithm,
    ClusterSpec,
    Distribution,
    RunConfig,
    WorkloadSpec,
)
from repro.sim import Simulator

SMALL_MEMORY = 40_000  # bytes -> 400 tuples of 100B per node


def small_workload(r=4000, s=4000, sigma=None, tuple_bytes=100, chunk=200,
                   seed=7, **kw):
    """Tiny workload in *real* tuples (scale=1)."""
    kw.setdefault(
        "distribution",
        Distribution.UNIFORM if sigma is None else Distribution.GAUSSIAN,
    )
    return WorkloadSpec(
        r_tuples=r,
        s_tuples=s,
        tuple_bytes=tuple_bytes,
        gauss_sigma=sigma if sigma is not None else 0.001,
        chunk_tuples=chunk,
        scale=1.0,
        seed=seed,
        **kw,
    )


def small_cluster(pool=16, memory=SMALL_MEMORY, sources=2, **kw):
    return ClusterSpec(
        n_sources=sources,
        n_potential_nodes=pool,
        hash_memory_bytes=memory,
        **kw,
    )


def small_config(algorithm=Algorithm.HYBRID, initial=2, *, workload=None,
                 cluster=None, **kw):
    kw.setdefault("hash_positions", 1 << 12)
    return RunConfig(
        algorithm=algorithm,
        initial_nodes=initial,
        workload=workload or small_workload(),
        cluster=cluster or small_cluster(),
        **kw,
    )


@pytest.fixture
def config_factory():
    return small_config


@pytest.fixture
def run_contexts(monkeypatch):
    """The ``RunContext`` of every ``run_join`` the test makes, in order —
    for assertions on hardware state the result does not carry."""
    from repro.core import driver

    made = []
    build = driver.single_query_context

    def capture(cfg):
        made.append(build(cfg))
        return made[-1]

    monkeypatch.setattr(driver, "single_query_context", capture)
    return made


class QueueTap:
    """Records what a :class:`~repro.sim.Simulator` does with both of its
    queues — the heap of future events and the FIFO of events due now.

    ``queued`` lists every event as it is scheduled.  ``ran`` lists every
    processed event as ``(time, index)``, where ``index`` is the event's
    position in ``queued``: the ``(time, seq)`` stream a single heap would
    pop, had every scheduled event drawn a ``seq``.  ``log`` interleaves
    both, for :meth:`assert_heap_order`.  Install it on a fresh simulator,
    before anything is scheduled::

        with QueueTap(sim) as tap:
            sim.run()

    The loop runs the first heap entry of an instant itself and moves the
    others due then onto the FIFO, so a pop is recorded as run until the
    entry shows up on the FIFO.  (An entry whose own callback re-queued it
    for the same instant, before anything else ran, would read as moved.)
    """

    def __init__(self, sim):
        self.sim = sim
        self.queued = []
        self.ran = []
        self.log = []
        self._index = {}  # id(event) -> its latest scheduling index
        self._popped = None  # the heap entry just popped, until it runs
        self._patches = []

    def _schedule(self, event, when):
        self._popped = None
        index = len(self.queued)
        self.queued.append(event)
        self._index[id(event)] = index
        self.log.append(("queued", index, when))

    def _run(self, event, time):
        index = self._index[id(event)]
        self.ran.append((time, index))
        self.log.append(("ran", index, time))

    def __enter__(self):
        from repro.sim import kernel

        tap, sim = self, self.sim

        def push(queue, entry):
            if queue is sim._queue:
                tap._schedule(entry[2], entry[0])
            heapq.heappush(queue, entry)

        def pop(queue):
            entry = heapq.heappop(queue)
            if queue is sim._queue:
                tap._run(entry[2], entry[0])
                tap._popped = entry[2]
            return entry

        class FIFO(deque):
            def append(self, event):
                if event is tap._popped:  # moved: it runs from the FIFO
                    del tap.ran[-1], tap.log[-1]
                    tap._popped = None
                else:
                    tap._schedule(event, sim._now)
                super().append(event)

            def popleft(self):
                event = super().popleft()
                tap._popped = None
                tap._run(event, sim._now)
                return event

        assert not sim._queue and not sim._due, "install before scheduling"
        sim._due = FIFO()
        self._patches = [mock.patch.object(kernel, "heappush", push),
                         mock.patch.object(kernel, "heappop", pop)]
        for patch in self._patches:
            patch.start()
        return self

    def __exit__(self, *exc_info):
        for patch in self._patches:
            patch.stop()

    def assert_heap_order(self):
        """Replay the log against the reference kernel — one heap keyed
        ``(time, scheduling index)`` — and check that every processed event
        is the one that heap would pop next."""
        heap = []
        for kind, index, time in self.log:
            if kind == "queued":
                heapq.heappush(heap, (time, index))
            else:
                assert heap, f"event {index} ran but was never queued"
                assert heapq.heappop(heap) == (time, index), (
                    f"event {index} ran at {time} out of heap order")
        return heap  # what was still queued when the log ends


class _RandomFront(deque):
    """A deque whose ``popleft`` takes a seeded-random entry."""

    def __init__(self, seed):
        super().__init__()
        self._rng = random.Random(seed)

    def popleft(self):
        i = self._rng.randrange(len(self))
        self.rotate(-i)
        event = super().popleft()
        self.rotate(i)
        return event


class ShuffledDue(Simulator):
    """A :class:`~repro.sim.Simulator` whose loop runs a seeded-random
    entry of its FIFO of events due now, where the kernel runs the oldest.

    Every event due at one instant still runs at that instant, and the
    first heap entry of an instant still runs before anything else; only
    the order among the rest changes.  A model whose answer depends on that
    order leans on a tie the paper's system would not break the same way.
    Hand a run one by patching the driver's constructor::

        with mock.patch.object(driver, "Simulator", lambda: ShuffledDue(7)):
            run_join(cfg)
    """

    def __init__(self, seed):
        super().__init__()
        self._due = _RandomFront(seed)
