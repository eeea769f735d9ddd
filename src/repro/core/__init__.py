"""The paper's contribution: Expanding Hash-based Join Algorithms.

Actors (scheduler / data sources / join processes, §4.1), the three
expansion strategies plus the out-of-core baseline (§4.2), and the run
driver that assembles a :class:`JoinRunResult` per simulated join.
"""

from .context import RunContext
from .datasource import DataSourceProcess
from .driver import run_join, single_query_context
from .hybrid import HybridStrategy
from .joinnode import JoinProcess
from .messages import DataChunk, Hop
from .pool import PoolClient, PoolStats, ResourcePoolProcess
from .replicate import ReplicationStrategy
from .results import CommStats, JoinRunResult, NodeLoad, NodeUtilization, PhaseTimes
from .scheduler import SchedulerProcess
from .spill import SpillStore
from .split import SplitStrategy
from .strategy import ExpansionStrategy, make_strategy

__all__ = [
    "CommStats",
    "DataChunk",
    "DataSourceProcess",
    "ExpansionStrategy",
    "Hop",
    "HybridStrategy",
    "JoinProcess",
    "JoinRunResult",
    "NodeLoad",
    "NodeUtilization",
    "PhaseTimes",
    "PoolClient",
    "PoolStats",
    "ReplicationStrategy",
    "ResourcePoolProcess",
    "RunContext",
    "SchedulerProcess",
    "SpillStore",
    "SplitStrategy",
    "make_strategy",
    "run_join",
    "single_query_context",
]
