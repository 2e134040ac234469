"""The associativity study.

The paper's experiments use full associativity, with the caveat that "in a
real machine, performance would be lower", and Section 4.1 asserts the
2-way VAX 11/780's penalty "should be small".  This module quantifies
those statements over the catalog: miss ratio as a function of
associativity (direct-mapped up to fully associative) per workload and
capacity, with conflict-miss decomposition.

Associativity changes the set mapping, so the classic capacity-sweep
stack algorithm does not apply across the grid — but its inclusion
property does hold *per set*: at a fixed set count, one pass computing
per-set LRU stack distances yields the hit count at every associativity
at once (:func:`repro.core.kernels.all_associativity_hit_counts`).  The
study therefore costs one pass per distinct set count instead of one
simulation per (ways, capacity) cell, is bit-identical to the per-cell
simulations it replaced, and each workload's whole surface is one
campaign cell — parallelized and disk-memoized by
:func:`repro.campaign.run_campaign`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..campaign import run_campaign
from ..core.jobs import AssociativitySweepJob, CampaignCell, TraceSpec
from .tables import render_series

__all__ = ["AssociativityStudy", "associativity_study", "DEFAULT_WAYS"]

#: Associativities swept by default; None denotes fully associative.
DEFAULT_WAYS: tuple[int | None, ...] = (1, 2, 4, 8, None)


def _label(ways: int | None) -> str:
    return "full" if ways is None else f"{ways}-way"


@dataclass(frozen=True, slots=True)
class AssociativityStudy:
    """Miss ratios over (workload, associativity, capacity).

    Attributes:
        ways: the swept associativities (None = fully associative).
        capacities: swept capacities in bytes.
        miss: ``miss[workload][i][j]`` at ``ways[i]``, ``capacities[j]``.
    """

    ways: tuple[int | None, ...]
    capacities: tuple[int, ...]
    miss: dict[str, np.ndarray]

    def conflict_miss_ratio(self, workload: str, ways: int, capacity: int) -> float:
        """Extra misses attributable to limited associativity.

        ``miss(ways) - miss(full)`` at the same capacity — the classic
        conflict-miss component.

        Raises:
            ValueError: if the full-associativity column was not swept.
        """
        if None not in self.ways:
            raise ValueError("sweep did not include full associativity")
        surface = self.miss[workload]
        row = self.ways.index(ways)
        full_row = self.ways.index(None)
        column = self.capacities.index(capacity)
        return float(surface[row, column] - surface[full_row, column])

    def penalty(self, workload: str, ways: int, capacity: int) -> float:
        """``miss(ways) / miss(full)`` — the relative associativity cost."""
        surface = self.miss[workload]
        row = self.ways.index(ways)
        full_row = self.ways.index(None)
        column = self.capacities.index(capacity)
        reference = surface[full_row, column]
        if reference <= 0:
            return 1.0
        return float(surface[row, column] / reference)

    def mean_penalty(self, ways: int, capacity: int) -> float:
        """The penalty averaged over workloads."""
        return float(
            np.mean([self.penalty(name, ways, capacity) for name in self.miss])
        )

    def render(self, capacity: int) -> str:
        """Miss ratio vs associativity at one capacity."""
        column = self.capacities.index(capacity)
        series = {
            workload: surface[:, column].tolist()
            for workload, surface in self.miss.items()
        }
        return render_series(
            "workload \\ ways",
            [_label(w) for w in self.ways],
            series,
            title=f"Associativity study: miss ratio at {capacity}B "
            "(LRU, 16B lines)",
        )


def associativity_study(
    workloads: Sequence[str] | None = None,
    ways: Sequence[int | None] = DEFAULT_WAYS,
    capacities: Sequence[int] = (1024, 8192),
    length: int | None = None,
    workers: int | None = None,
    cache=None,
) -> AssociativityStudy:
    """Run the associativity sweep.

    One campaign cell per workload; each cell computes its whole
    (ways x capacities) surface with the one-pass all-associativity
    kernel.  Results are identical to per-cell direct simulation.

    Args:
        workloads: catalog trace names (default: a class spread).
        ways: associativities to sweep (None = fully associative).
        capacities: capacities in bytes.
        length: references per trace.
        workers / cache: forwarded to :func:`repro.campaign.run_campaign`
            (parallelism and on-disk memoization).

    Returns:
        The assembled study.
    """
    workloads = list(workloads) if workloads is not None else [
        "ZGREP", "VCCOM", "FGO1", "LISP1",
    ]
    job = AssociativitySweepJob(
        ways=tuple(ways), capacities=tuple(int(c) for c in capacities)
    )
    cells = [
        CampaignCell(label=name, trace=TraceSpec.catalog(name, length), job=job)
        for name in workloads
    ]
    # Strict mode: every workload's surface is required, so a failed cell
    # raises after its siblings are cached.
    result = run_campaign(cells, workers=workers, cache=cache, raise_on_error=True)
    miss = {
        outcome.label: np.asarray(outcome.value, dtype=float)
        for outcome in result.outcomes
    }
    return AssociativityStudy(tuple(ways), tuple(capacities), miss)
