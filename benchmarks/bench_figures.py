"""Reproduces the paper's Figures 2-13, one test per figure.

Run with: pytest benchmarks/ --benchmark-only -k fig10   (one figure)
Each test regenerates its figure's series from fresh simulated runs and
asserts the qualitative shape checks recorded in DESIGN.md §4.
"""

import pytest
from conftest import run_figure


@pytest.mark.parametrize("fig", [f"fig{n:02d}" for n in range(2, 14)])
def test_figure(fig, benchmark, harness, report_sink):
    run_figure(benchmark, report_sink, getattr(harness, fig))
