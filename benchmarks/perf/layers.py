"""Layer attribution from outside the program: harness spans and profile buckets.

Spans are recorded by the harness around its own calls into ``repro``
(spans inside the program are a later change).  Profile buckets fold a
``cProfile`` run's ``tottime``/``ncalls`` by source module into the layer
names of ``src/repro`` — ``<layer>.self_s`` and ``<layer>.calls``.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

#: modules that get a bucket of their own inside their package; the rest of
#: the package lands in ``<package>.other``
_SPLIT = {
    "sim": ("kernel", "process", "sync"),
    "cluster": ("network",),
    "hashing": ("routing", "table"),
    "core": ("scheduler", "joinnode", "datasource", "pool"),
}
#: packages reported whole
_WHOLE = ("data", "workload", "obs", "seqjoin")

LAYERS: tuple[str, ...] = (
    *(f"{pkg}.{mod}" for pkg, mods in _SPLIT.items() for mod in (*mods, "other")),
    *_WHOLE, "numpy", "other",
)


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0


class SpanLog:
    """In-memory spans; ``write`` dumps them when the benchmark ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        sp = Span(len(self.spans), self._open[-1] if self._open else None,
                  name, time.perf_counter())
        self.spans.append(sp)
        self._open.append(sp.id)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._open.pop()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(s) for s in self.spans], indent=1))


def layer_of(filename: str, funcname: str) -> str:
    """Bucket of one profile entry (``filename`` is ``~`` for C functions)."""
    norm = filename.replace("\\", "/")
    if "/repro/" in norm:
        parts = norm.rsplit("/repro/", 1)[1].removesuffix(".py").split("/")
        pkg = parts[0]
        if pkg in _SPLIT and len(parts) > 1:
            return f"{pkg}.{parts[1]}" if parts[1] in _SPLIT[pkg] else f"{pkg}.other"
        if pkg in _WHOLE:
            return pkg
        return "other"
    if "/numpy/" in norm or "numpy" in funcname or "<ufunc" in funcname:
        return "numpy"
    return "other"


def profile_layers(
    fn: Callable[[], Any]
) -> tuple[Any, dict[str, dict[str, float]]]:
    """Run ``fn`` under cProfile: its result and ``{layer: {"self_s", "calls"}}``."""
    prof = cProfile.Profile()
    prof.enable()
    try:
        result = fn()
    finally:
        prof.disable()
    out = {layer: {"self_s": 0.0, "calls": 0.0} for layer in LAYERS}
    for (filename, _line, funcname), (_cc, ncalls, tottime, _ct, _callers) in (
        pstats.Stats(prof).stats.items()  # type: ignore[attr-defined]
    ):
        bucket = out[layer_of(filename, funcname)]
        bucket["self_s"] += tottime
        bucket["calls"] += ncalls
    return result, out
