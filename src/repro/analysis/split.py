"""Figures 3 and 4: instruction and data miss ratios for split caches.

"From the same set of simulations used to generate table 3, we collected
the miss ratios for the instructions in the instruction cache and the data
references in the data cache" — i.e. split I/D caches, LRU, demand fetch,
purged every 20 000 references, swept over cache sizes.

The headline observations this reproduces: "there is a very wide range of
miss ratios among the various traces", and "the data miss ratios tend to be
higher for small cache sizes; thereafter, the instruction or data miss
ratio may be lower."
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..campaign import run_campaign
from ..core.jobs import CampaignCell, StackSweepJob
from ..core.multiprog import DEFAULT_QUANTUM
from .sweep import (
    DATA_KINDS,
    INSTRUCTION_KINDS,
    PAPER_CACHE_SIZES,
    PAPER_LINE_SIZE,
    MissRatioCurve,
    workload_spec,
)
from .tables import render_series
from .writeback import PAPER_TABLE3

__all__ = ["SplitMissRatioResult", "figures_3_and_4", "side_jobs"]

#: The workload set of Table 3 / Figures 3-10.
TABLE3_WORKLOADS: tuple[str, ...] = tuple(PAPER_TABLE3)


@dataclass(frozen=True, slots=True)
class SplitMissRatioResult:
    """Instruction (Figure 3) and data (Figure 4) miss-ratio curves."""

    sizes: tuple[int, ...]
    instruction: dict[str, MissRatioCurve]
    data: dict[str, MissRatioCurve]
    quantum: int

    def instruction_range(self, size: int) -> tuple[float, float]:
        """(min, max) instruction miss ratio across workloads at a size."""
        values = [curve.at(size) for curve in self.instruction.values()]
        return min(values), max(values)

    def data_range(self, size: int) -> tuple[float, float]:
        """(min, max) data miss ratio across workloads at a size."""
        values = [curve.at(size) for curve in self.data.values()]
        return min(values), max(values)

    def average_curves(self) -> tuple[np.ndarray, np.ndarray]:
        """Mean instruction and data curves over all workloads."""
        instruction = np.mean([c.as_array() for c in self.instruction.values()], axis=0)
        data = np.mean([c.as_array() for c in self.data.values()], axis=0)
        return instruction, data

    def render(self) -> str:
        """Text rendering of both figures."""
        fig3 = render_series(
            "workload \\ bytes",
            list(self.sizes),
            {name: curve.miss_ratios for name, curve in self.instruction.items()},
            title=f"Figure 3: instruction-cache miss ratios (split, LRU, "
            f"purge every {self.quantum})",
        )
        fig4 = render_series(
            "workload \\ bytes",
            list(self.sizes),
            {name: curve.miss_ratios for name, curve in self.data.items()},
            title="Figure 4: data-cache miss ratios (same simulations)",
        )
        return fig3 + "\n\n" + fig4


def side_jobs(sizes: Sequence[int], quantum: int) -> dict[str, StackSweepJob]:
    """The split cache's two sides as LRU stack sweeps, ``"I"`` and ``"D"``
    (purged every ``quantum`` references of the whole trace)."""
    return {
        side: StackSweepJob(
            sizes=tuple(sizes),
            line_size=PAPER_LINE_SIZE,
            kinds=tuple(int(k) for k in kinds),
            purge_interval=quantum,
        )
        for side, kinds in (("I", INSTRUCTION_KINDS), ("D", DATA_KINDS))
    }


def figures_3_and_4(
    labels: Sequence[str] | None = None,
    sizes: Sequence[int] = PAPER_CACHE_SIZES,
    quantum: int = DEFAULT_QUANTUM,
    length: int | None = None,
    workers: int | None = None,
    cache=None,
) -> SplitMissRatioResult:
    """Run the split-cache miss-ratio sweeps (two campaign cells per
    workload: one per cache side).

    Args:
        labels: workloads (trace names or Table 3 mix labels); defaults to
            the paper's Table 3 set.
        sizes: cache sizes for each side.
        quantum: purge interval in total references.
        length: references per trace (paper defaults otherwise).
        workers: campaign worker processes (default: ``REPRO_WORKERS`` or
            the CPU count).
        cache: campaign result cache (see :func:`repro.campaign.run_campaign`).

    Returns:
        Curves for both figures.
    """
    labels = list(labels) if labels is not None else list(TABLE3_WORKLOADS)
    jobs = side_jobs(sizes, quantum)
    cells = []
    for label in labels:
        spec = workload_spec(label, length, quantum)
        for side, job in jobs.items():
            cells.append(CampaignCell(label=f"{label}:{side}", trace=spec, job=job))
    # Strict mode: curves are consumed positionally (two cells per
    # workload), so a failed cell raises after its siblings are cached.
    result = run_campaign(cells, workers=workers, cache=cache, raise_on_error=True)
    instruction: dict[str, MissRatioCurve] = {}
    data: dict[str, MissRatioCurve] = {}
    outcome = iter(result.outcomes)
    for label in labels:
        icurve = next(outcome).value
        dcurve = next(outcome).value
        instruction[label] = MissRatioCurve(f"{label}:I", tuple(sizes), icurve)
        data[label] = MissRatioCurve(f"{label}:D", tuple(sizes), dcurve)
    return SplitMissRatioResult(tuple(sizes), instruction, data, quantum)
