"""Table 1 / Figure 1: overall miss ratios for the whole trace collection.

The paper's headline experiment: "the miss ratios for 57 traces ... for a
fully associative cache managed with LRU replacement, demand fetch, no task
switch purges, copy back with fetch on write, and 16 byte lines" swept over
cache sizes.  Figure 1 plots the same data.

The per-trace rows of the paper's Table 1 were cut from our source text;
Section 3.1's prose anchors (group averages) are encoded in
:data:`PAPER_GROUP_AVERAGES_1K` and :data:`PAPER_LISP_AVERAGES` for
comparison.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..campaign import run_campaign
from ..core.jobs import CampaignCell, StackSweepJob, TraceSpec
from ..workloads import catalog
from .sweep import PAPER_CACHE_SIZES, PAPER_LINE_SIZE, MissRatioCurve
from .tables import render_series

__all__ = [
    "PAPER_GROUP_AVERAGES_1K",
    "PAPER_LISP_AVERAGES",
    "Table1Result",
    "table1_experiment",
]

#: Section 3.1's group-average miss ratios at a 1-Kbyte cache.
PAPER_GROUP_AVERAGES_1K: dict[str, float] = {
    "Motorola 68000": 0.017,
    "Zilog Z8000": 0.031,
    "VAX (non-Lisp)": 0.048,
    "VAX (Lisp)": 0.111,
    # "an average miss ratio for the 370 and 360 programs of 17% at 1K"
    "IBM 370 + 360/91": 0.17,
}

#: Section 3.1: Lisp averages at (1K, 4K, 16K, 64K).
PAPER_LISP_AVERAGES: dict[int, float] = {
    1024: 0.111,
    4096: 0.055,
    16384: 0.024,
    65536: 0.0155,
}


@dataclass(frozen=True, slots=True)
class Table1Result:
    """Outcome of the Table 1 experiment.

    Attributes:
        sizes: the swept cache sizes (bytes).
        curves: one miss-ratio curve per trace, keyed by trace name.
        trace_length: references per trace used for the sweep.
    """

    sizes: tuple[int, ...]
    curves: dict[str, MissRatioCurve]
    trace_length: int

    def group_average(self, group: str) -> np.ndarray:
        """Mean miss-ratio curve over a catalog group.

        Raises:
            KeyError: for an unknown group.
        """
        members = catalog.groups()[group]
        present = [m for m in members if m in self.curves]
        if not present:
            raise KeyError(f"no swept traces in group {group!r}")
        return np.mean([self.curves[m].as_array() for m in present], axis=0)

    def group_averages(self) -> dict[str, np.ndarray]:
        """Mean curves for every group with at least one swept trace."""
        out = {}
        for group, members in catalog.groups().items():
            if any(m in self.curves for m in members):
                out[group] = self.group_average(group)
        return out

    def combined_370_360_average(self) -> np.ndarray:
        """Mean curve over the IBM 370 and 360/91 traces together.

        Section 3.1 quotes this combination ("the 370 and 360 programs").
        """
        members = catalog.groups()["IBM 370"] + catalog.groups()["IBM 360/91"]
        return np.mean(
            [self.curves[m].as_array() for m in members if m in self.curves], axis=0
        )

    def comparison_with_paper(self) -> dict[str, tuple[float, float]]:
        """Measured vs paper group averages at 1K: ``{group: (paper, ours)}``."""
        averages = self.group_averages()
        index = self.sizes.index(1024)
        out: dict[str, tuple[float, float]] = {}
        for group, paper_value in PAPER_GROUP_AVERAGES_1K.items():
            if group == "IBM 370 + 360/91":
                ours = float(self.combined_370_360_average()[index])
            elif group in averages:
                ours = float(averages[group][index])
            else:
                continue
            out[group] = (paper_value, ours)
        return out

    def render(self) -> str:
        """Text rendering: per-trace rows then group averages (Figure 1)."""
        per_trace = render_series(
            "trace \\ bytes",
            list(self.sizes),
            {name: curve.miss_ratios for name, curve in sorted(self.curves.items())},
            title="Table 1: unified miss ratios (fully assoc LRU, 16B lines, "
            "demand fetch, no purges)",
        )
        groups = render_series(
            "group \\ bytes",
            list(self.sizes),
            {g: a.tolist() for g, a in self.group_averages().items()},
            title="Figure 1 (group averages)",
        )
        return per_trace + "\n\n" + groups


def table1_experiment(
    names: Sequence[str] | None = None,
    sizes: Sequence[int] = PAPER_CACHE_SIZES,
    length: int | None = None,
    workers: int | None = None,
    cache=None,
) -> Table1Result:
    """Run the Table 1 sweep (one campaign cell per trace).

    Args:
        names: traces to sweep; defaults to all 57 Table 1 rows.
        sizes: cache sizes in bytes.
        length: references per trace; defaults to each trace's paper length.
        workers: campaign worker processes (default: ``REPRO_WORKERS`` or
            the CPU count).
        cache: campaign result cache (see :func:`repro.campaign.run_campaign`).

    Returns:
        The collected curves.
    """
    names = list(names) if names is not None else catalog.table1_names()
    job = StackSweepJob(sizes=tuple(sizes), line_size=PAPER_LINE_SIZE)
    cells = [
        CampaignCell(label=name, trace=TraceSpec.catalog(name, length), job=job)
        for name in names
    ]
    # Strict mode: the curves are consumed positionally, so a failed cell
    # must raise (after every sibling has completed and been cached — a
    # re-run then only re-executes the failure).
    result = run_campaign(cells, workers=workers, cache=cache, raise_on_error=True)
    curves: dict[str, MissRatioCurve] = {}
    used_length = 0
    for name, outcome in zip(names, result.outcomes):
        curves[name] = MissRatioCurve(name, tuple(sizes), outcome.value)
        used_length = max(used_length, outcome.references)
    return Table1Result(tuple(sizes), curves, used_length)
