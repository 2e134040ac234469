"""The trace-driven cache simulator (Substrate A of the reproduction).

Everything the paper's experiments need: a set-associative/fully-associative
cache with LRU (and other) replacement, demand and prefetch fetch policies,
copy-back and write-through write policies, unified and split organizations,
sector (block/sub-block) caches, task-switch purging, one-pass LRU
stack-distance analysis, and a simple memory-timing performance model.
"""

from .address import CacheGeometry, is_power_of_two, log2_int
from .cache import (
    Cache,
    FLAG_DATA,
    FLAG_DIRTY,
    FLAG_PREFETCHED,
    FLAG_REFERENCED,
)
from .fetch import FetchPolicy
from .kernels import (
    all_associativity_hit_counts,
    associativity_miss_surface,
    can_replay,
    lru_demand_replay,
)
from .memory import MemoryTiming, PerformanceModel, traffic_ratio
from .misspath import (
    MechanismConfig,
    MissCache,
    MissPathChain,
    MissPathComponent,
    SecondLevelCache,
    StreamBuffers,
    VictimCache,
)
from .multiprog import DEFAULT_QUANTUM
from .opt import belady_min_misses, belady_miss_ratio
from .organization import CacheOrganization, SplitCache, UnifiedCache
from .replacement import (
    FIFO,
    LFU,
    LRU,
    RandomReplacement,
    ReplacementPolicy,
    policy_factory,
)
from .sector import SectorCache, SectorCacheOrganization, SectorGeometry
from .simulator import SimulationReport, simulate
from .stackdist import StackDistanceProfile, lru_miss_ratio_curve, lru_stack_distances
from .stats import CacheStats, ClassCounts
from .write import COPY_BACK, WRITE_THROUGH, WRITE_THROUGH_ALLOCATE, WritePolicy, WriteStrategy

__all__ = [
    "CacheGeometry",
    "is_power_of_two",
    "log2_int",
    "Cache",
    "FLAG_DATA",
    "FLAG_DIRTY",
    "FLAG_PREFETCHED",
    "FLAG_REFERENCED",
    "FetchPolicy",
    "all_associativity_hit_counts",
    "associativity_miss_surface",
    "can_replay",
    "lru_demand_replay",
    "MemoryTiming",
    "PerformanceModel",
    "traffic_ratio",
    "MechanismConfig",
    "MissCache",
    "MissPathChain",
    "MissPathComponent",
    "SecondLevelCache",
    "StreamBuffers",
    "VictimCache",
    "belady_min_misses",
    "belady_miss_ratio",
    "DEFAULT_QUANTUM",
    "CacheOrganization",
    "SplitCache",
    "UnifiedCache",
    "LRU",
    "FIFO",
    "LFU",
    "RandomReplacement",
    "ReplacementPolicy",
    "policy_factory",
    "SectorCache",
    "SectorCacheOrganization",
    "SectorGeometry",
    "SimulationReport",
    "simulate",
    "StackDistanceProfile",
    "lru_miss_ratio_curve",
    "lru_stack_distances",
    "CacheStats",
    "ClassCounts",
    "COPY_BACK",
    "WRITE_THROUGH",
    "WRITE_THROUGH_ALLOCATE",
    "WritePolicy",
    "WriteStrategy",
]
