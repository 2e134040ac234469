"""Table 5: design target miss ratios, and the Section 4.1 validations.

Section 4's purpose: "we have created what we consider to be reasonable
miss ratios to use as a design estimate for a 32-bit architecture running
fairly large programs and a mature (i.e. large) operating system ...  In
each case, the number picked is towards the worst of the values observed,
perhaps at the 85th percentile or so."

This module reproduces that estimation procedure over the synthetic
catalog (85th percentile across the 32-bit-architecture traces), embeds
the paper's printed Table 5 for comparison, and implements the published
validations: against [Clar83]'s VAX measurements, against [Alpe83]'s
Z80000 sector-cache projections, and the Section 3.4 speculation about the
Motorola 68020's 256-byte 4-byte-block instruction cache.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..core.jobs import SimulateJob, StackSweepJob
from ..core.multiprog import DEFAULT_QUANTUM
from ..workloads import catalog
from .published import ALPERT83_Z80000, CLARK83_VAX, PowerLawMissRatio
from .split import side_jobs
from .sweep import INSTRUCTION_KINDS, PAPER_CACHE_SIZES, PAPER_LINE_SIZE, workload_campaign
from .tables import render_table

__all__ = [
    "PAPER_TABLE5",
    "THIRTY_TWO_BIT_ARCHITECTURES",
    "DesignTargets",
    "design_target_estimate",
    "fit_design_curve",
    "estimate_68020_icache",
    "clark_comparison",
    "z80000_comparison",
]

#: The paper's Table 5 as printed in our source text: two columns survived
#: the scan — unified and (by the Section 3.4 cross-reference "0.25 is a
#: reasonable point estimate for a 256-byte instruction cache") the
#: instruction cache.  The instruction values at 64 and 512 bytes are
#: non-monotonic scan artifacts, kept verbatim.  The data column did not
#: survive; Section 4.1 says the paper's instruction and data estimates
#: are "approximately equal".
PAPER_TABLE5: dict[int, tuple[float, float]] = {
    32: (0.50, 0.35),
    64: (0.40, 0.45),
    128: (0.35, 0.27),
    256: (0.30, 0.25),
    512: (0.27, 0.28),
    1024: (0.21, 0.16),
    2048: (0.17, 0.12),
    4096: (0.12, 0.10),
    8192: (0.08, 0.06),
    16384: (0.06, 0.06),
    32768: (0.04, 0.04),
    65536: (0.03, 0.03),
}

#: Architectures counted as "32-bit ... fairly large programs and a mature
#: operating system" for the design estimate.
THIRTY_TWO_BIT_ARCHITECTURES: tuple[str, ...] = (
    "IBM 370",
    "IBM 360/91",
    "VAX 11/780",
)

#: The percentile the paper says it picked ("perhaps at the 85th
#: percentile or so").
DESIGN_PERCENTILE = 85.0


def _design_traces() -> list[str]:
    return [
        name
        for name in catalog.names()
        if catalog.get(name).architecture in THIRTY_TWO_BIT_ARCHITECTURES
    ]


@dataclass(frozen=True, slots=True)
class DesignTargets:
    """Reproduced Table 5.

    Attributes:
        sizes: cache sizes in bytes.
        unified / instruction / data: estimated target miss ratios (the
            chosen percentile over the 32-bit workload set).
        percentile: the percentile used.
    """

    sizes: tuple[int, ...]
    unified: tuple[float, ...]
    instruction: tuple[float, ...]
    data: tuple[float, ...]
    percentile: float

    def halving_factor(self, low: int, high: int) -> float:
        """Mean miss-ratio reduction per cache doubling between two sizes.

        The paper: "In the range of 32 bytes to 512 bytes, doubling the
        cache size seems to cut the miss ratio by about 14%, from 512 to
        64K, by about 27%, and overall, by about 23%."

        Raises:
            ValueError: if the sizes were not swept or are not ordered.
        """
        if low not in self.sizes or high not in self.sizes or low >= high:
            raise ValueError(f"need two swept sizes with low < high, got {low}, {high}")
        start = self.unified[self.sizes.index(low)]
        stop = self.unified[self.sizes.index(high)]
        doublings = np.log2(high / low)
        if start <= 0 or stop <= 0:
            return 0.0
        return 1.0 - (stop / start) ** (1.0 / doublings)

    def render(self) -> str:
        """Table 5 with the paper's surviving columns alongside."""
        rows = []
        for index, size in enumerate(self.sizes):
            paper = PAPER_TABLE5.get(size)
            rows.append(
                (
                    size,
                    f"{self.unified[index]:.3f}",
                    f"{self.instruction[index]:.3f}",
                    f"{self.data[index]:.3f}",
                    f"{paper[0]:.2f}" if paper else "-",
                    f"{paper[1]:.2f}" if paper else "-",
                )
            )
        return render_table(
            ["bytes", "unified", "icache", "dcache", "paper:unified", "paper:icache"],
            rows,
            title=f"Table 5: design target miss ratios "
            f"({self.percentile:.0f}th percentile, 16B lines)",
        )


def design_target_estimate(
    sizes: Sequence[int] = PAPER_CACHE_SIZES,
    percentile: float = DESIGN_PERCENTILE,
    length: int | None = None,
    quantum: int = DEFAULT_QUANTUM,
) -> DesignTargets:
    """Reproduce the Table 5 estimation procedure.

    Unified targets come from Table 1-style sweeps (no purging, like the
    paper's "estimated from data in figures 1 and 2"); instruction and
    data targets from the purged split sweeps behind Figures 3 and 4.

    Args:
        sizes: cache sizes to estimate at.
        percentile: the "towards the worst of the values observed" knob.
        length: references per trace (paper defaults otherwise).
        quantum: purge interval for the split sweeps.

    Returns:
        The estimated targets.
    """
    # The unified cells are Table 1's and the split sides Figures 3-4's,
    # so a cache directory shared with those experiments serves them.
    rows = workload_campaign(_design_traces(), length, {
        "unified": StackSweepJob(sizes=tuple(sizes), line_size=PAPER_LINE_SIZE),
        **side_jobs(sizes, quantum),
    })
    unified_rows, instruction_rows, data_rows = zip(*rows)
    unified = np.percentile(np.vstack(unified_rows), percentile, axis=0)
    instruction = np.percentile(np.vstack(instruction_rows), percentile, axis=0)
    data = np.percentile(np.vstack(data_rows), percentile, axis=0)
    return DesignTargets(
        sizes=tuple(sizes),
        unified=tuple(float(v) for v in unified),
        instruction=tuple(float(v) for v in instruction),
        data=tuple(float(v) for v in data),
        percentile=percentile,
    )


def fit_design_curve(targets: DesignTargets, column: str = "unified") -> PowerLawMissRatio:
    """Power-law summary of a design-target column.

    The paper's "doubling the cache size seems to cut the miss ratio by
    about 23%" is a power law ``miss ~ size**-b`` with ``b ~ 0.38``; this
    fits that form to the reproduced Table 5, giving designers the same
    kind of closed-form rule the [Hard80] curves provide.

    Args:
        targets: a reproduced Table 5.
        column: ``"unified"``, ``"instruction"`` or ``"data"``.

    Raises:
        ValueError: for an unknown column or a degenerate (zero) column.
    """
    if column not in ("unified", "instruction", "data"):
        raise ValueError(f"unknown column {column!r}")
    values = getattr(targets, column)
    points = {
        size: value
        for size, value in zip(targets.sizes, values)
        if value > 0
    }
    if len(points) < 2:
        raise ValueError(f"not enough positive points in column {column!r} to fit")
    return PowerLawMissRatio.fit(points)


def estimate_68020_icache(
    length: int | None = None,
    quantum: int = DEFAULT_QUANTUM,
    cache_bytes: int = 256,
    line_bytes: int = 4,
) -> dict[str, float]:
    """Section 3.4: the Motorola 68020's 256-byte, 4-byte-block I-cache.

    The paper predicts "miss ratios in the range of 0.2 to 0.6 with this
    design for most workloads" because a 4-byte block captures almost none
    of the sequentiality of instruction fetch.

    Returns:
        ``{"minimum", "median", "maximum", "percentile85"}`` of the
        instruction miss ratio over the 32-bit workloads.
    """
    job = StackSweepJob(
        sizes=(cache_bytes,),
        line_size=line_bytes,
        kinds=tuple(int(k) for k in INSTRUCTION_KINDS),
        purge_interval=quantum,
    )
    rows = workload_campaign(_design_traces(), length, {"I": job})
    values = [curve[0] for (curve,) in rows]
    array = np.asarray(values)
    return {
        "minimum": float(array.min()),
        "median": float(np.median(array)),
        "maximum": float(array.max()),
        "percentile85": float(np.percentile(array, 85)),
    }


def clark_comparison(targets: DesignTargets) -> dict[str, float]:
    """Section 4.1's validation against [Clar83]'s VAX measurements.

    Clark's 8K cache uses 8-byte lines; the paper notes that at 8K "the
    miss ratio can usually be halved by changing to 16 byte lines", so our
    16-byte-line target at 8K is doubled before comparing.

    Returns:
        A mapping with our adjusted estimate and Clark's measured overall
        read miss ratio for the full (8K) and halved (4K) cache.
    """
    ours_8k = targets.unified[targets.sizes.index(8192)]
    ours_4k = targets.unified[targets.sizes.index(4096)]
    return {
        "ours_8k_16B_lines": ours_8k,
        "ours_8k_adjusted_to_8B_lines": 2.0 * ours_8k,
        "clark_8k_overall_read": CLARK83_VAX.overall_read_miss_ratio,
        "ours_4k_adjusted_to_8B_lines": 2.0 * ours_4k,
        "clark_4k_overall": CLARK83_VAX.halved_overall_miss_ratio,
    }


def z80000_comparison(length: int | None = None) -> dict[int, dict[str, float]]:
    """Section 1.2 / 4.1: the Z80000 sector-cache projections.

    Runs the Z80000's 256-byte sector cache (16-byte sectors; 2-, 4- or
    16-byte sub-blocks) over two workload sets: the Z8000 traces that
    [Alpe83]'s projections were derived from, and the 32-bit workloads the
    paper says should have been used.  The paper's point is the gap: the
    projections look attainable on Z8000-style toys and hopeless on a real
    32-bit workload ("we predict about 30%" miss versus the implied 12%).

    Returns:
        ``{subblock_bytes: {"alpert_hit", "z8000_hit", "design_hit"}}``.
    """
    z8000 = [n for n in catalog.names() if catalog.get(n).architecture == "Zilog Z8000"]
    design = _design_traces()
    projections = ALPERT83_Z80000["projected_hit_ratios"]
    jobs = {
        f"{subblock}B": SimulateJob(size=256, line_size=16, subblock=subblock,
                                    purge_interval=DEFAULT_QUANTUM)
        for subblock in projections
    }
    rows = workload_campaign(z8000 + design, length, jobs)
    groups = {"z8000_hit": rows[:len(z8000)], "design_hit": rows[len(z8000):]}
    out: dict[int, dict[str, float]] = {}
    for index, (subblock, projected) in enumerate(projections.items()):
        measured: dict[str, float] = {"alpert_hit": projected}
        for key, group in groups.items():
            hits = [1.0 - reports[index].miss_ratio for reports in group]
            measured[key] = float(np.mean(hits))
        out[subblock] = measured
    return out
