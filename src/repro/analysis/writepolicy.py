"""The write-policy study.

Section 3.3 frames the copy-back vs write-through decision through the
write-traffic statistics: "For a machine which uses write through ... the
write frequency is usually just the frequency in the trace of stores"
(except when adjacent short writes are combined), while "if the machine
uses copy-back ... the frequency of writes to memory is the miss ratio
times the probability that a line to be pushed is dirty."  This module
measures both sides over the catalog: total memory traffic under
write-through (with and without a combining buffer) and copy-back, and the
store-locality statistic (writes per written-line) that decides which
policy wins.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..core.jobs import SimulateJob
from ..trace.record import AccessKind
from ..workloads import catalog
from .sweep import workload_campaign
from .tables import render_series

__all__ = ["WritePolicyStudy", "write_policy_study"]

#: The policies compared, in rendering order: each column's name and the
#: job ``write`` policy behind it (the combining buffer is 8 bytes wide).
_COLUMNS: dict[str, str] = {
    "copy-back": "copy-back",
    "write-through": "write-through",
    "write-through+combine": "write-through-combine",
}


@dataclass(frozen=True, slots=True)
class WritePolicyStudy:
    """Traffic and miss statistics per (workload, write policy).

    Attributes:
        capacity: the cache size used (bytes).
        traffic_bytes: ``traffic_bytes[workload][policy]`` — total memory
            traffic in bytes.
        write_transactions: memory write transactions (write-backs under
            copy-back; store write-throughs otherwise).
        miss_ratio: miss ratios (write-through no-allocate caches can miss
            *more*: store misses never fill the cache).
        writes_per_written_line: mean stores landing on each line that was
            written at all — the store-locality statistic that makes
            copy-back pay off.
    """

    capacity: int
    traffic_bytes: dict[str, dict[str, int]]
    write_transactions: dict[str, dict[str, int]]
    miss_ratio: dict[str, dict[str, float]]
    writes_per_written_line: dict[str, float]

    def policy_names(self) -> list[str]:
        """The compared policies, in order."""
        return list(_COLUMNS)

    def traffic_ratio(self, workload: str, policy: str) -> float:
        """Traffic of ``policy`` relative to copy-back for one workload."""
        base = self.traffic_bytes[workload]["copy-back"]
        if base == 0:
            return 1.0
        return self.traffic_bytes[workload][policy] / base

    def render(self) -> str:
        """Traffic ratios (relative to copy-back), one row per workload."""
        series = {
            workload: [self.traffic_ratio(workload, policy)
                       for policy in self.policy_names()]
            for workload in self.traffic_bytes
        }
        return render_series(
            "workload \\ policy",
            self.policy_names(),
            series,
            title=f"Write-policy study: memory traffic relative to copy-back "
            f"({self.capacity}B cache, 16B lines)",
            digits=3,
        )


def write_policy_study(
    workloads: Sequence[str] | None = None,
    capacity: int = 16 * 1024,
    purge_interval: int | None = 20_000,
    length: int | None = None,
) -> WritePolicyStudy:
    """Run the write-policy comparison.

    Args:
        workloads: catalog trace names (default: a class spread).
        capacity: cache size in bytes.
        purge_interval: task-switch quantum (the paper's Table 3 setting).
        length: references per trace.

    Returns:
        The assembled study.
    """
    workloads = list(workloads) if workloads is not None else [
        "ZGREP", "VCCOM", "CGO1", "LISP1",
    ]
    rows = workload_campaign(workloads, length, {
        column: SimulateJob(size=capacity, write=write, purge_interval=purge_interval)
        for column, write in _COLUMNS.items()
    })
    traffic: dict[str, dict[str, int]] = {}
    transactions: dict[str, dict[str, int]] = {}
    misses: dict[str, dict[str, float]] = {}
    store_locality: dict[str, float] = {}
    for name, reports in zip(workloads, rows):
        stats = {column: report.overall for column, report in zip(_COLUMNS, reports)}
        traffic[name] = {c: s.memory_traffic_bytes for c, s in stats.items()}
        transactions[name] = {
            c: s.lines_written_back if c == "copy-back" else s.write_throughs
            for c, s in stats.items()
        }
        misses[name] = {c: s.miss_ratio for c, s in stats.items()}
        # Store locality: stores per distinct written line.
        trace = catalog.generate(name, length)
        mask = trace.kinds == int(AccessKind.WRITE)
        written_lines = np.unique(trace.addresses[mask] // 16)
        stores = int(np.count_nonzero(mask))
        store_locality[name] = stores / max(1, len(written_lines))
    return WritePolicyStudy(capacity, traffic, transactions, misses, store_locality)
