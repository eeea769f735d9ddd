"""Reproduces the paper's Figures 2-13 and validates its §4.2.4 analytic
overhead model, one test per entry of ``FigureHarness.FIGURES``.

Run with: pytest benchmarks/ --benchmark-only -k fig10   (one figure)
Each test regenerates its figure's series from fresh simulated runs and
asserts the qualitative shape checks recorded in DESIGN.md §4; ``[model]``
checks the capacity-granular cost model (repro.analysis.costmodel) against
measured split/reshuffle transfer volumes.
"""

import pytest
from conftest import run_figure

from repro.bench import FigureHarness


@pytest.mark.parametrize("fig", FigureHarness.FIGURES)
def test_figure(fig, benchmark, harness, report_sink):
    run_figure(benchmark, report_sink, lambda: harness.figure(fig))
