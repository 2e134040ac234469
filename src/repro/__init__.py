"""repro: a reproduction of A. J. Smith, "Cache Evaluation and the Impact of
Workload Choice" (ISCA 1985).

The package has four layers (see DESIGN.md):

* :mod:`repro.core` — a trace-driven cache simulator (the paper's tool);
* :mod:`repro.trace` — program-address-trace infrastructure;
* :mod:`repro.workloads` — synthetic program-behaviour models standing in
  for the paper's 49 proprietary traces;
* :mod:`repro.analysis` — the paper's experiments: every table and figure.

Quickstart::

    from repro import CacheGeometry, UnifiedCache, simulate
    from repro.workloads import catalog

    trace = catalog.generate("VAXIMA1", length=100_000)
    report = simulate(trace, UnifiedCache(CacheGeometry(16 * 1024)))
    print(report.miss_ratio)
"""

from .campaign import (
    CampaignError,
    CampaignResult,
    CellOutcome,
    EventLog,
    ResultCache,
    run_campaign,
    worker_count,
)
from .core import (
    COPY_BACK,
    WRITE_THROUGH,
    CacheGeometry,
    CacheStats,
    FetchPolicy,
    MemoryTiming,
    PerformanceModel,
    SectorCache,
    SectorGeometry,
    SimulationReport,
    SplitCache,
    UnifiedCache,
    WritePolicy,
    lru_miss_ratio_curve,
    policy_factory,
    simulate,
    traffic_ratio,
)
from .core.jobs import CampaignCell, CellError, SimulateJob, StackSweepJob, TraceSpec
from .trace import (
    AccessKind,
    MemoryAccess,
    Trace,
    TraceCharacteristics,
    TraceMetadata,
    characterize,
    load_trace,
    save_trace,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "CampaignCell",
    "CampaignError",
    "CampaignResult",
    "CellError",
    "CellOutcome",
    "EventLog",
    "ResultCache",
    "SimulateJob",
    "StackSweepJob",
    "TraceSpec",
    "run_campaign",
    "worker_count",
    "COPY_BACK",
    "WRITE_THROUGH",
    "CacheGeometry",
    "CacheStats",
    "FetchPolicy",
    "MemoryTiming",
    "PerformanceModel",
    "SectorCache",
    "SectorGeometry",
    "SimulationReport",
    "SplitCache",
    "UnifiedCache",
    "WritePolicy",
    "lru_miss_ratio_curve",
    "policy_factory",
    "simulate",
    "traffic_ratio",
    "AccessKind",
    "MemoryAccess",
    "Trace",
    "TraceCharacteristics",
    "TraceMetadata",
    "characterize",
    "load_trace",
    "save_trace",
]
