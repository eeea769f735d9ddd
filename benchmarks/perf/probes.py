"""Layer probes: ops/s of single layers on fixed seeded inputs.

Each probe calls one public function of one layer in isolation.  A rate is
the median over ``reps`` repetitions, each repeating the call until
``min_s`` of timed work has accumulated; set-up (fresh simulators, fresh
stores) is outside the timed region.  The numbers say which layer moved;
they justify nothing on their own — the end-to-end metrics do.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.cluster import Network, Node
from repro.config import Algorithm, CostModel, Distribution, WorkloadSpec
from repro.core import run_join
from repro.data import ChunkBuffer, RelationStream
from repro.hashing import (
    NodeHashStore,
    PositionMap,
    RangeRouter,
    greedy_contiguous_partition,
    partition_positions,
)
from repro.obs import QuantileSketch, Snapshot
from repro.seqjoin import match_count
from repro.sim import Mailbox, Resource, Simulator
from repro.workload import run_workload

from layers import SpanLog
from workloads import WORKLOADS

_POSITIONS = 1 << 18
_STORE_TUPLES = 2_500_000
_BATCH = 10_000


@dataclass(frozen=True)
class Effort:
    reps: int
    min_s: float


FULL = Effort(reps=7, min_s=0.2)
#: what a ``--trace 1`` run under the driver can afford (~10 s for all)
BRIEF = Effort(reps=3, min_s=0.05)
#: repetitions of each side of the two on/off ratios
_CELL_REPS = 3


def _rate(effort: Effort, n_ops: int, op: Callable[[Any], Any],
          make: Callable[[], Any] = lambda: None) -> float:
    rates = []
    for _ in range(effort.reps):
        elapsed, calls = 0.0, 0
        while elapsed < effort.min_s:
            state = make()
            t0 = time.perf_counter()
            op(state)
            elapsed += time.perf_counter() - t0
            calls += 1
        rates.append(calls * n_ops / elapsed)
    return statistics.median(rates)


# ----------------------------------------------------------------------
# sim
# ----------------------------------------------------------------------
def _sim_timeouts(_: Any) -> None:
    sim = Simulator()

    def ticker() -> Any:
        for _ in range(25_000):
            yield sim.timeout(0.001)

    for _ in range(4):
        sim.spawn(ticker())
    sim.run()


def _sim_uses(n_procs: int, uses: int) -> Callable[[Any], None]:
    def run(_: Any) -> None:
        sim = Simulator()
        res = Resource(sim, capacity=1)

        def user() -> Any:
            for _ in range(uses):
                yield from res.use(0.001)

        for _ in range(n_procs):
            sim.spawn(user())
        sim.run()
    return run


def _sim_pingpong(_: Any) -> None:
    sim = Simulator()
    a, b = Mailbox(sim), Mailbox(sim)

    def player(mine: Mailbox, theirs: Mailbox, serve: bool) -> Any:
        if serve:
            theirs.put(0)
        for _ in range(10_000):
            ball = yield from mine.recv()
            theirs.put(ball)

    sim.spawn(player(a, b, True))
    sim.spawn(player(b, a, False))
    sim.run()


@dataclass(frozen=True)
class _Msg:
    nbytes: int
    kind: str = "control"  # no receive-window credit: the ports stay free


def _net_sends(_: Any) -> None:
    sim = Simulator()
    cost = CostModel()
    net = Network(sim, cost)
    a, b = Node(sim, 0, "src", cost), Node(sim, 1, "join", cost)
    small, large = _Msg(1_000), _Msg(1_000_000)

    def sender() -> Any:
        for _ in range(1_000):
            yield from net.send(a, b, small)
            yield from net.send(a, b, large)

    sim.spawn(sender())
    sim.run()


# ----------------------------------------------------------------------
# hashing / data / seqjoin
# ----------------------------------------------------------------------
def _fresh_store(posmap: PositionMap, values: np.ndarray) -> NodeHashStore:
    store = NodeHashStore(posmap)
    store.insert(values.copy())
    return store


def _insert_batches(args: tuple[PositionMap, list[np.ndarray]]) -> None:
    # insert() only appends; finalize() is where a build side pays
    store = NodeHashStore(args[0])
    for batch in args[1]:
        store.insert(batch)
    store.finalize()


def _draw(_: Any) -> None:
    for dist in (Distribution.UNIFORM, Distribution.GAUSSIAN):
        spec = WorkloadSpec(r_tuples=500_000, scale=1.0, distribution=dist)
        for _ in RelationStream(spec, "R", 1, 0).batches():
            pass


def _buffer(batches: list[np.ndarray]) -> None:
    buf = ChunkBuffer(_BATCH)
    for i, batch in enumerate(batches):
        buf.append(i % 4, batch)
        buf.pop_full_chunk(i % 4)


# ----------------------------------------------------------------------
# obs
# ----------------------------------------------------------------------
def _sketch_adds(values: list[float]) -> None:
    sketch = QuantileSketch()
    for v in values:
        sketch.add(v)


def _contended_snapshot() -> Snapshot:
    """The final snapshot of a quick-size ``workload-contended`` pass."""
    cfg, specs = WORKLOADS["workload-contended"].build(20040607, True)
    snap = run_workload(cfg, validate=False, specs=specs).snapshot
    assert snap is not None
    return snap


def _on_off() -> dict[str, float]:
    """Two ratios on one hybrid ``grid-small`` cell: wall with a switch on,
    over wall with everything off, minus one."""
    (_, off), *_ = WORKLOADS["grid-small"].build(20040607, True)
    assert off.algorithm is Algorithm.HYBRID
    cfgs = {
        "off": off,
        "obs.on_overhead_frac": dataclasses.replace(off, trace=True),
        "sim.lockdep.overhead_frac": dataclasses.replace(off, lockdep=True),
    }
    walls: dict[str, list[float]] = {name: [] for name in cfgs}
    for _ in range(_CELL_REPS):  # interleaved: drift hits all three alike
        for name, cfg in cfgs.items():
            t0 = time.perf_counter()
            run_join(cfg, validate=False)
            walls[name].append(time.perf_counter() - t0)
    base = statistics.median(walls.pop("off"))
    return {name: statistics.median(w) / base - 1.0 for name, w in walls.items()}


def run_probes(effort: Effort, spans: SpanLog) -> dict[str, dict[str, Any]]:
    """Every probe, as ``{name: {"value", "unit"}}``."""
    rng = np.random.default_rng(42)
    posmap = PositionMap(_POSITIONS)
    store_values = rng.integers(0, 1 << 32, _STORE_TUPLES, dtype=np.uint64)
    batches = [rng.integers(0, 1 << 32, _BATCH, dtype=np.uint64) for _ in range(50)]
    positions = posmap(rng.integers(0, 1 << 32, 100_000, dtype=np.uint64))
    ranges = partition_positions(_POSITIONS, 16)
    router = RangeRouter.initial(ranges, list(range(16)), _POSITIONS)
    replicated = router
    for version, node in enumerate(range(16, 23), start=1):
        replicated = replicated.with_replica(0, node, version)
    hot = positions % ranges[0].hi  # every probe tuple lands in the x8 range
    finalized = _fresh_store(posmap, store_values)
    finalized.finalize()
    weights = rng.integers(0, 1000, 1 << 16)
    r_values = rng.integers(0, 1 << 32, 1_000_000, dtype=np.uint64)
    s_values = rng.integers(0, 1 << 32, 1_000_000, dtype=np.uint64)
    latencies = [float(v) for v in rng.lognormal(0.0, 1.0, 20_000)]
    snap = _contended_snapshot()
    snap_json = snap.to_json()

    rates: dict[str, float] = {}

    def probe(name: str, n_ops: int, op: Callable[[Any], Any],
              make: Callable[[], Any] = lambda: None) -> None:
        with spans.span(f"probe {name}"):
            rates[name] = _rate(effort, n_ops, op, make)

    probe("sim.kernel.timeouts_per_s", 100_000, _sim_timeouts)
    probe("sim.sync.resource_uses_per_s", 20_000, _sim_uses(1, 20_000))
    probe("sim.sync.contended_uses_per_s", 20_000, _sim_uses(8, 2_500))
    probe("sim.sync.mailbox_handoffs_per_s", 20_000, _sim_pingpong)
    probe("cluster.network.sends_per_s", 2_000, _net_sends)
    probe("hashing.routing.build_tuples_per_s", positions.size,
          router.partition_build, lambda: positions)
    probe("hashing.routing.probe_groups_tuples_per_s", hot.size,
          replicated.probe_groups, lambda: hot)
    probe("hashing.table.insert_tuples_per_s", _BATCH * len(batches),
          _insert_batches, lambda: (posmap, [b.copy() for b in batches]))
    probe("hashing.table.probe_tuples_per_s", _BATCH * len(batches),
          lambda bs: [finalized.probe(b) for b in bs], lambda: batches)
    probe("hashing.table.extract_tuples_per_s", _STORE_TUPLES,
          lambda store: store.extract_position_range(0, _POSITIONS // 2),
          lambda: _fresh_store(posmap, store_values))
    probe("hashing.reshuffle.cuts_per_s", 1,
          lambda w: greedy_contiguous_partition(w, 24), lambda: weights)
    probe("data.draw_tuples_per_s", 1_000_000, _draw)
    probe("data.buffer_appends_per_s", len(batches), _buffer, lambda: batches)
    probe("seqjoin.match_tuples_per_s", r_values.size + s_values.size,
          lambda _: match_count(r_values, s_values))
    probe("obs.sketch_adds_per_s", len(latencies), _sketch_adds, lambda: latencies)
    probe("obs.snapshot_merges_per_s", 1, lambda s: s.merge(s), lambda: snap)
    probe("obs.snapshot_json_roundtrips_per_s", 1,
          lambda _: Snapshot.from_json(snap_json).to_json())

    out: dict[str, dict[str, Any]] = {
        name: {"value": rate, "unit": "1/s"} for name, rate in rates.items()
    }
    with spans.span("probe on/off ratios"):
        for name, frac in _on_off().items():
            out[name] = {"value": frac, "unit": "frac"}
    return out



def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--effort", choices=("brief", "full"), required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()
    spans = SpanLog()
    doc = run_probes(FULL if args.effort == "full" else BRIEF, spans)
    spans.write(Path(__file__).resolve().parent / "out" / "spans-probes.json")
    Path(args.result).write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
