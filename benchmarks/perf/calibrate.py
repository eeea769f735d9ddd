"""Host-speed calibration: a fixed kernel that shares no code with the program.

The reference box is a shared VM whose cores run 10 to 25 % faster or slower
from one minute to the next, and 70 % slower for half an hour now and then
(``cpu_s`` moves with ``wall_s``: slower cores, not fewer).  Timed around
every pass, this kernel says how fast the host is *right now*; a pass's
seconds divided by ``slowdown`` are the seconds it would have taken at the
reference speed.  Over 10 minutes of ordinary drift the medians of 40 s
blocks ranged over 23 % as the clock read them and 10 % scaled for a
kernel-bound cell, 15 % and 3 % for an array-bound cell, 24 % and 11 % for a
small ``run_workload``; their inter-quartile spreads fell from 6-9 % to 1-4 %.

The kernel is half event loop (generators, a heap, small objects), a third
heap-and-dict churn on a small working set, a sixth NumPy sort / unique /
searchsorted — the mix the program's own time is made of.  It imports nothing
of ``repro``: a change to the program cannot move it.
"""

from __future__ import annotations

import heapq
import statistics
import time
from typing import Any, Iterator

#: the kernel's seconds on the reference box on a good day; what "reference
#: speed" means.  Changing the kernel or this number re-bases every time
#: metric: measure the baseline again.
REFERENCE_S = 0.125


def _churn() -> None:
    heap: list[tuple[int, int]] = []
    seen: dict[int, int] = {}

    def echo() -> Iterator[int]:
        x = 0
        while True:
            x = (yield x) or 0

    gen = echo()
    next(gen)
    for i in range(60_000):
        heapq.heappush(heap, (i * 7919 % 1000, i))
        if i & 1:
            heapq.heappop(heap)
        seen[i & 1023] = gen.send(i)


class _Event:
    __slots__ = ("at", "seq", "who")

    def __init__(self, at: float, seq: int, who: int) -> None:
        self.at, self.seq, self.who = at, seq, who


def _event_loop() -> None:
    log: dict[tuple[int, int], Any] = {}

    def proc(pid: int) -> Iterator[float]:
        n = 0
        while True:
            got = yield (pid * 37 % 101) * 1e-3 + 1e-4
            n += 1
            log[(pid, n & 63)] = got

    procs = [proc(p) for p in range(400)]
    heap = [(next(g), p, p) for p, g in enumerate(procs)]
    heapq.heapify(heap)
    seq = len(heap)
    for _ in range(50_000):
        now, at_seq, p = heapq.heappop(heap)
        delay = procs[p].send(_Event(now, at_seq, p))
        heapq.heappush(heap, (now + delay, seq, p))
        seq += 1


def _arrays() -> None:
    import numpy as np

    # Under 1 MB, all of it: larger arrays stay in the allocator's arena once
    # freed and would read as the program's own peak resident set (16 MB of
    # them added 17 MB to workload-contended's 54 and 50 MB to fleet-sparse's
    # 84, which counts the parent twice).
    rng = np.random.default_rng(1)
    store = rng.integers(0, 1 << 32, 32_768, dtype=np.uint64)
    probe = rng.integers(0, 1 << 32, 8_192, dtype=np.uint64)
    for _ in range(30):
        ordered = np.sort(store)
        keys, _counts = np.unique(probe, return_counts=True)
        np.searchsorted(ordered, keys)


def kernel_s() -> float:
    """Seconds the kernel takes now."""
    t0 = time.perf_counter()
    _churn()
    _event_loop()
    _arrays()
    return time.perf_counter() - t0


class Scale:
    """Scales measured seconds to the reference speed.

    ``tick()`` before the first measurement and after each; ``scaled(x)``
    divides by the mean slowdown of the two ticks around the latest one.
    """

    def __init__(self) -> None:
        self.kernel: list[float] = []

    def tick(self) -> None:
        self.kernel.append(kernel_s())

    def slowdown_now(self) -> float:
        return (self.kernel[-2] + self.kernel[-1]) / 2.0 / REFERENCE_S

    def scaled(self, seconds: float) -> float:
        return seconds / self.slowdown_now()

    def slowdown(self) -> float:
        """Median over the run: 1 at the reference speed, 1.7 on a bad day."""
        return statistics.median(self.kernel) / REFERENCE_S
