"""Table 3: the probability that a pushed data line is dirty.

The paper's write-back experiment: "a 32K-byte memory is simulated,
partitioned into a 16K-byte data cache and 16K-byte instruction cache, and
every 20,000 memory references, the cache is purged to simulate
multiprogramming.  The total number of lines pushed comprises those that
are pushed as part of a line fetch (replacement), and also those pushed
when the cache is artificially purged."  Four rows are round-robin
multiprogramming mixes.

The paper's full Table 3 is present in our source text and is embedded in
:data:`PAPER_TABLE3` (names mapped to catalog spellings: the OCR forms
VOTMD1/VFUZZLE/VTE0FF/FG01 correspond to VTWOD/VPUZZLE/VTROFF/FGO1).
Headline numbers: average 0.47 ("close enough to 0.5 to say that as a rule
of thumb, half of the data lines pushed will be dirty"), standard
deviation 0.18, range 0.22-0.80.
"""

from __future__ import annotations

import statistics
from collections.abc import Sequence
from dataclasses import dataclass

from ..core.jobs import SimulateJob
from ..core.multiprog import DEFAULT_QUANTUM
from .sweep import workload_campaign
from .tables import render_table

__all__ = ["PAPER_TABLE3", "Table3Row", "Table3Result", "table3_experiment"]

#: The paper's Table 3, keyed by our catalog spelling of each workload.
PAPER_TABLE3: dict[str, float] = {
    "LISP Compiler - 5 Sections": 0.26,
    "VAXIMA - 5 Sections": 0.23,
    "VCCOM": 0.63,
    "VSPICE": 0.37,
    "VTWOD": 0.49,
    "VPUZZLE": 0.77,
    "VTROFF": 0.27,
    "FGO1": 0.56,
    "FGO2": 0.43,
    "CGO1": 0.35,
    "FCOMP1": 0.63,
    "CCOMP1": 0.22,
    "MVS1": 0.48,
    "MVS2": 0.56,
    "Z8000 - Assorted": 0.48,
    "CDC 6400 - Assorted": 0.80,
}

#: The paper's summary statistics for Table 3.
PAPER_TABLE3_AVERAGE = 0.47
PAPER_TABLE3_STDEV = 0.18


@dataclass(frozen=True, slots=True)
class Table3Row:
    """One Table 3 measurement."""

    label: str
    fraction_dirty: float
    data_pushes: int
    paper_value: float | None


@dataclass(frozen=True, slots=True)
class Table3Result:
    """The full write-back experiment."""

    rows: tuple[Table3Row, ...]
    quantum: int
    cache_bytes_per_side: int

    @property
    def average(self) -> float:
        """Mean of the per-row dirty fractions (the paper's 0.47)."""
        return statistics.fmean(row.fraction_dirty for row in self.rows)

    @property
    def stdev(self) -> float:
        """Sample standard deviation (the paper's 0.18)."""
        if len(self.rows) < 2:
            return 0.0
        return statistics.stdev(row.fraction_dirty for row in self.rows)

    def render(self) -> str:
        """Text rendering in the paper's layout plus the paper column."""
        body = [
            (
                row.label,
                f"{row.fraction_dirty:.2f}",
                "-" if row.paper_value is None else f"{row.paper_value:.2f}",
            )
            for row in self.rows
        ]
        body.append(("Average", f"{self.average:.2f}", f"{PAPER_TABLE3_AVERAGE:.2f}"))
        return render_table(
            ["Trace(s)", "Fraction Data Line Pushes Dirty", "paper"],
            body,
            title="Table 3: fraction of pushed data lines that are dirty "
            f"(split {self.cache_bytes_per_side//1024}K/I+"
            f"{self.cache_bytes_per_side//1024}K/D, purge every {self.quantum})",
        )


def table3_experiment(
    labels: Sequence[str] | None = None,
    quantum: int = DEFAULT_QUANTUM,
    cache_bytes_per_side: int = 16 * 1024,
    length: int | None = None,
) -> Table3Result:
    """Run the Table 3 write-back experiment (one campaign cell per row).

    Args:
        labels: workloads to run — single catalog trace names or
            multiprogramming-mix labels from
            :data:`repro.workloads.catalog.MULTIPROGRAMMING_MIXES`.
            Defaults to the paper's sixteen Table 3 rows.
        quantum: task-switch quantum in references (purge on switch).
        cache_bytes_per_side: capacity of each of the two split caches.
        length: references per trace (a mix runs every member at this
            length); defaults to the paper lengths.

    Returns:
        A :class:`Table3Result`.

    Raises:
        KeyError: for a label that is neither a trace nor a mix.
    """
    labels = list(labels) if labels is not None else list(PAPER_TABLE3)
    job = SimulateJob(size=cache_bytes_per_side, split=True, purge_interval=quantum)
    reports = workload_campaign(labels, length, {"split": job}, quantum)
    rows = []
    for label, (report,) in zip(labels, reports):
        stats = report.data
        rows.append(
            Table3Row(
                label=label,
                fraction_dirty=stats.dirty_data_push_fraction,
                data_pushes=stats.data_pushes,
                paper_value=PAPER_TABLE3.get(label),
            )
        )
    return Table3Result(tuple(rows), quantum, cache_bytes_per_side)
