"""The line-size study — the paper's stated future work.

Section 5: "There are two principal ways in which this work needs to be
extended.  First, the effect of line size on miss ratio needs to be
quantified beyond the general statements made here ... research on this
topic is in progress."  (That research became Smith's 1987 line-size
paper.)  This module implements the study over the synthetic catalog:

* **miss-ratio surfaces** — miss ratio as a function of (line size,
  capacity) per workload, one campaign cell (a stack-distance pass over
  every capacity) per line size;
* **traffic trade-off** — bigger lines cut misses but move more bytes per
  miss; the module reports both, plus the *memory-traffic-optimal* line
  size, which is usually smaller than the miss-optimal one (the [Hil84]
  tension the paper's conclusion flags);
* **design-ratio summaries** — the paper's rules of thumb quantified:
  the 8B->16B improvement factor at 8K (Section 4.1 uses "usually
  halved") across the whole catalog.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..core.jobs import StackSweepJob
from ..workloads import catalog
from .sweep import workload_campaign
from .tables import render_series

__all__ = ["LineSizeStudy", "line_size_study", "DEFAULT_LINE_SIZES"]

#: Line sizes swept by default (the era's plausible range).
DEFAULT_LINE_SIZES: tuple[int, ...] = (4, 8, 16, 32, 64, 128)


@dataclass(frozen=True, slots=True)
class LineSizeStudy:
    """Miss-ratio and traffic surfaces over (workload, line size, capacity).

    Attributes:
        line_sizes: swept line sizes in bytes.
        capacities: swept capacities in bytes.
        miss: ``miss[workload][i][j]`` = miss ratio at ``line_sizes[i]``,
            ``capacities[j]``.
        bytes_per_reference: mean data-reference size per workload (used to
            normalize traffic).
    """

    line_sizes: tuple[int, ...]
    capacities: tuple[int, ...]
    miss: dict[str, np.ndarray]
    bytes_per_reference: dict[str, float]

    def miss_surface(self, workload: str) -> np.ndarray:
        """The (line x capacity) miss-ratio matrix for one workload.

        Raises:
            KeyError: for an unknown workload.
        """
        return self.miss[workload]

    def traffic_surface(self, workload: str) -> np.ndarray:
        """Fetch traffic in bytes per reference: ``miss x line_size``.

        Write-back traffic is excluded (it is roughly policy-constant);
        this is the fetch-side bus cost that grows with line size.
        """
        surface = self.miss[workload]
        lines = np.asarray(self.line_sizes, dtype=float)[:, None]
        return surface * lines

    def miss_optimal_line(self, workload: str, capacity: int) -> int:
        """Line size minimizing the miss ratio at a capacity."""
        column = self.capacities.index(capacity)
        surface = self.miss[workload][:, column]
        return self.line_sizes[int(np.argmin(surface))]

    def traffic_optimal_line(self, workload: str, capacity: int) -> int:
        """Line size minimizing fetch traffic at a capacity."""
        column = self.capacities.index(capacity)
        surface = self.traffic_surface(workload)[:, column]
        return self.line_sizes[int(np.argmin(surface))]

    def doubling_gain(self, small: int, large: int, capacity: int) -> dict[str, float]:
        """Per-workload miss-ratio ratio ``miss(large)/miss(small)``.

        Section 4.1's rule at 8K with ``small=8, large=16`` is ~0.5.
        """
        i_small = self.line_sizes.index(small)
        i_large = self.line_sizes.index(large)
        column = self.capacities.index(capacity)
        out = {}
        for workload, surface in self.miss.items():
            denominator = surface[i_small, column]
            out[workload] = (
                float(surface[i_large, column] / denominator)
                if denominator > 0
                else 1.0
            )
        return out

    def render(self, capacity: int) -> str:
        """Miss ratio vs line size at one capacity, one row per workload."""
        column = self.capacities.index(capacity)
        series = {
            workload: surface[:, column].tolist()
            for workload, surface in self.miss.items()
        }
        return render_series(
            "workload \\ line bytes",
            list(self.line_sizes),
            series,
            title=f"Line-size study: miss ratio at {capacity}B capacity "
            "(fully assoc LRU, demand)",
        )


def line_size_study(
    workloads: Sequence[str] | None = None,
    line_sizes: Sequence[int] = DEFAULT_LINE_SIZES,
    capacities: Sequence[int] = (1024, 8192, 65536),
    length: int | None = None,
) -> LineSizeStudy:
    """Run the line-size sweep.

    Args:
        workloads: catalog trace names (default: a representative spread —
            one per program class).
        line_sizes: line sizes to sweep.
        capacities: capacities to sweep.
        length: references per trace.

    Returns:
        The assembled study.

    Raises:
        ValueError: if any capacity is not a multiple of every line size.
    """
    workloads = list(workloads) if workloads is not None else [
        "PLO", "ZGREP", "VCCOM", "FGO1", "LISP1", "MVS1", "TWOD",
    ]
    for capacity in capacities:
        for line in line_sizes:
            if capacity % line:
                raise ValueError(
                    f"capacity {capacity} is not a multiple of line size {line}"
                )
    surfaces = workload_campaign(workloads, length, {
        f"{line}B": StackSweepJob(sizes=tuple(capacities), line_size=line)
        for line in line_sizes
    })
    miss: dict[str, np.ndarray] = {}
    bytes_per_reference: dict[str, float] = {}
    for name, surface in zip(workloads, surfaces):
        miss[name] = np.array(surface)
        bytes_per_reference[name] = float(catalog.generate(name, length).sizes.mean())
    return LineSizeStudy(
        tuple(line_sizes), tuple(capacities), miss, bytes_per_reference
    )
