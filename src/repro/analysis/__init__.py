"""Analysis utilities: the §4.2.4 overhead model, load-balance metrics,
and report tables for the figure-reproduction harness."""

from .costmodel import (
    OverheadModel,
    hybrid_overhead_s,
    split_moved_capacity_model,
    split_overhead_s,
)
from .loadbalance import LoadBalance, load_balance
from .report import FigureReport, ShapeCheck, format_table

__all__ = [
    "FigureReport",
    "LoadBalance",
    "OverheadModel",
    "ShapeCheck",
    "format_table",
    "hybrid_overhead_s",
    "load_balance",
    "split_moved_capacity_model",
    "split_overhead_s",
]
