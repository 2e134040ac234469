"""Cache-size sweep harness.

Provides the paper's standard size grid and line size, the miss-ratio
curve record, the kinds a split organization routes to each side, and
the resolver from a workload label to its campaign cells' trace spec
(:func:`workload_spec`, run by :func:`workload_campaign`).  A sweep over
a trace in hand is :func:`repro.core.lru_miss_ratio_curve`; every
experiment's sweeps run as campaign cells.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..campaign import run_campaign
from ..core.jobs import CampaignCell, TraceSpec
from ..core.multiprog import DEFAULT_QUANTUM
from ..trace.record import AccessKind
from ..workloads import catalog

__all__ = [
    "PAPER_CACHE_SIZES",
    "PAPER_LINE_SIZE",
    "MissRatioCurve",
    "workload_spec",
    "workload_campaign",
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
