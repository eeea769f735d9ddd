"""Benchmark harness: the paper figures as views of one figures document
(:mod:`repro.bench.figures`), the beyond-paper studies, and the
``bench-diff`` baseline regression gate (:mod:`repro.bench.diff`)."""

from typing import TYPE_CHECKING

from .diff import (
    BaselineError,
    BenchDiff,
    Delta,
    diff_baselines,
    diff_files,
    diff_snapshots,
    is_snapshot_doc,
    load_baseline,
    load_document,
    run_baseline,
)

if TYPE_CHECKING:  # pragma: no cover - the same names, for type checkers
    from .figures import (ALGORITHMS, CLAIMS, EHJAS, TABLES, FigureHarness,
                          render)

#: names of :mod:`.figures`, which drives the simulator: imported on first
#: access, so ``bench-diff`` loads the comparison code alone
_FIGURE_NAMES = ("ALGORITHMS", "CLAIMS", "EHJAS", "FigureHarness", "TABLES",
                 "render")

__all__ = [
    "ALGORITHMS",
    "BaselineError",
    "BenchDiff",
    "CLAIMS",
    "Delta",
    "EHJAS",
    "FigureHarness",
    "TABLES",
    "diff_baselines",
    "diff_files",
    "diff_snapshots",
    "is_snapshot_doc",
    "load_baseline",
    "load_document",
    "render",
    "run_baseline",
]


def __getattr__(name: str) -> object:
    if name not in _FIGURE_NAMES:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    from . import figures

    return getattr(figures, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
