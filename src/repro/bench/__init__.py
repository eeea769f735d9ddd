"""Benchmark harness: figure-reproduction runners shared by benchmarks/,
examples/ and the EXPERIMENTS.md generator, plus the ``bench-diff``
baseline regression gate (:mod:`repro.bench.diff`)."""

from typing import TYPE_CHECKING

from .diff import (
    BaselineError,
    BenchDiff,
    Delta,
    diff_baselines,
    diff_snapshots,
    is_snapshot_doc,
    load_baseline,
    load_document,
)

if TYPE_CHECKING:  # pragma: no cover - the same names, for type checkers
    from .figures import ALGORITHMS, EHJAS, FigureHarness

#: names of :mod:`.figures`, which drives the simulator: imported on first
#: access, so ``bench-diff`` loads the comparison code alone
_FIGURE_NAMES = ("ALGORITHMS", "EHJAS", "FigureHarness")

__all__ = [
    "ALGORITHMS",
    "BaselineError",
    "BenchDiff",
    "Delta",
    "EHJAS",
    "FigureHarness",
    "diff_baselines",
    "diff_snapshots",
    "is_snapshot_doc",
    "load_baseline",
    "load_document",
]


def __getattr__(name: str) -> object:
    if name not in _FIGURE_NAMES:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    from . import figures

    return getattr(figures, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
