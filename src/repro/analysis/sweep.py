"""Cache-size sweep harness.

Provides the paper's standard size grid, the resolver from a workload
label to its campaign cells' trace spec (:func:`workload_spec`, run by
:func:`workload_campaign`), and two sweep styles over a trace in hand:
one-pass stack-distance sweeps for LRU demand fetch, and direct
simulation sweeps for what the stack algorithm cannot express.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from ..campaign import run_campaign
from ..core.jobs import CampaignCell, TraceSpec
from ..core.multiprog import DEFAULT_QUANTUM
from ..core.organization import CacheOrganization
from ..core.simulator import SimulationReport, simulate
from ..core.stackdist import lru_miss_ratio_curve
from ..trace.record import AccessKind
from ..trace.stream import Trace
from ..workloads import catalog

__all__ = [
    "PAPER_CACHE_SIZES",
    "PAPER_LINE_SIZE",
    "MissRatioCurve",
    "workload_spec",
    "workload_campaign",
    "unified_lru_sweep",
    "split_lru_sweep",
    "simulation_sweep",
]

#: The twelve cache sizes of the paper's tables (32 bytes to 64 Kbytes).
PAPER_CACHE_SIZES: tuple[int, ...] = tuple(32 * 2**i for i in range(12))

#: The paper's standard line size.
PAPER_LINE_SIZE = 16

#: Kinds counted as "data" for split-cache experiments.
DATA_KINDS = (AccessKind.READ, AccessKind.WRITE)

#: Kinds routed to the instruction cache (monitor-style FETCH included,
#: matching :class:`repro.core.organization.SplitCache`'s default routing).
INSTRUCTION_KINDS = (AccessKind.IFETCH, AccessKind.FETCH)


@dataclass(frozen=True, slots=True)
class MissRatioCurve:
    """Miss ratio as a function of cache size for one trace.

    Attributes:
        name: trace (or series) label.
        sizes: cache capacities in bytes.
        miss_ratios: one value per size.
    """

    name: str
    sizes: tuple[int, ...]
    miss_ratios: tuple[float, ...]

    def at(self, size: int) -> float:
        """Miss ratio at one of the swept sizes.

        Raises:
            ValueError: if the size was not part of the sweep.
        """
        try:
            return self.miss_ratios[self.sizes.index(size)]
        except ValueError:
            raise ValueError(f"size {size} was not swept (have {self.sizes})") from None

    def as_array(self) -> np.ndarray:
        """Miss ratios as a numpy array."""
        return np.asarray(self.miss_ratios)


def workload_spec(
    label: str, length: int | None, quantum: int, total: int | None = None
) -> TraceSpec:
    """The trace spec of a workload label: for a multiprogramming mix
    (:data:`repro.workloads.catalog.MULTIPROGRAMMING_MIXES`) its members'
    round-robin interleave, ``quantum`` references per slice and ``total``
    in all (None = every member once); else the catalog trace."""
    if label in catalog.MULTIPROGRAMMING_MIXES:
        members = tuple(catalog.MULTIPROGRAMMING_MIXES[label])
        return TraceSpec.mix(label, members, quantum, length=length, total=total)
    return TraceSpec.catalog(label, length)


def workload_campaign(
    labels: Sequence[str],
    length: int | None,
    jobs: dict,
    quantum: int = DEFAULT_QUANTUM,
) -> list[list]:
    """Every job over every workload (:func:`workload_spec`) as one strict
    campaign, cells labelled ``workload:job``: per workload, the jobs'
    values in order."""
    cells = [
        CampaignCell(f"{label}:{tag}", workload_spec(label, length, quantum), job)
        for label in labels
        for tag, job in jobs.items()
    ]
    values = iter(
        outcome.value for outcome in run_campaign(cells, raise_on_error=True).outcomes
    )
    return [[next(values) for _ in jobs] for _ in labels]


def unified_lru_sweep(
    trace: Trace,
    sizes: Sequence[int] = PAPER_CACHE_SIZES,
    line_size: int = PAPER_LINE_SIZE,
    purge_interval: int | None = None,
) -> MissRatioCurve:
    """Table 1 sweep: fully associative LRU unified cache, demand fetch.

    Uses the one-pass stack algorithm; with ``purge_interval`` the stack is
    reset on the paper's task-switch schedule.
    """
    curve = lru_miss_ratio_curve(
        trace, list(sizes), line_size=line_size, purge_interval=purge_interval
    )
    return MissRatioCurve(trace.metadata.name, tuple(sizes), tuple(float(v) for v in curve))


def split_lru_sweep(
    trace: Trace,
    sizes: Sequence[int] = PAPER_CACHE_SIZES,
    line_size: int = PAPER_LINE_SIZE,
    purge_interval: int | None = None,
) -> tuple[MissRatioCurve, MissRatioCurve]:
    """Figures 3/4 sweep: split I/D caches, LRU, demand fetch.

    Each side is swept independently (they share no state under a split
    organization), with the purge clock counted in *total* trace references
    exactly as in the paper's simulations.

    Returns:
        ``(instruction_curve, data_curve)``.
    """
    instruction = lru_miss_ratio_curve(
        trace,
        list(sizes),
        line_size=line_size,
        kinds=list(INSTRUCTION_KINDS),
        purge_interval=purge_interval,
    )
    data = lru_miss_ratio_curve(
        trace,
        list(sizes),
        line_size=line_size,
        kinds=list(DATA_KINDS),
        purge_interval=purge_interval,
    )
    name = trace.metadata.name
    return (
        MissRatioCurve(f"{name}:I", tuple(sizes), tuple(float(v) for v in instruction)),
        MissRatioCurve(f"{name}:D", tuple(sizes), tuple(float(v) for v in data)),
    )


def simulation_sweep(
    trace: Trace,
    make_organization: Callable[[int], CacheOrganization],
    sizes: Sequence[int] = PAPER_CACHE_SIZES,
    purge_interval: int | None = None,
) -> list[SimulationReport]:
    """Direct-simulation sweep for non-LRU-demand configurations.

    Args:
        trace: the reference stream.
        make_organization: called with each cache size (bytes) to build a
            fresh organization.
        sizes: capacities to sweep.
        purge_interval: task-switch quantum.

    Returns:
        One :class:`SimulationReport` per size, in order.
    """
    return [
        simulate(trace, make_organization(size), purge_interval=purge_interval)
        for size in sizes
    ]
