"""Mechanism study: miss-path components vs. the paper's baselines.

The paper evaluates plain cache organizations; this driver grafts the
Jouppi-style miss-path mechanisms (victim cache, miss cache, stream
buffers, a unified second level — see ``docs/mechanisms.md``) onto the
paper's baseline organizations and measures what each one buys across
the workload catalog.

Every (workload, variant) pair is one campaign cell — a
:class:`~repro.core.jobs.SimulateJob`, bare for the baseline and with
``mechanisms`` set per variant — so the study parallelizes and memoizes
exactly like the paper-table experiments.

The headline metric is the **effective miss ratio**: references the
whole assembly could not service without going to memory (the L2, when
present, reports its own local miss ratio instead — an L2 hit is still
a primary miss).  Deltas are against the same-geometry baseline.

The default geometry is direct-mapped: the conflict misses that victim
and miss caches exist to absorb do not occur in the paper's fully
associative baseline (pass ``associativity=None`` to measure exactly
that — the victim cache then degenerates to a few lines of extra
capacity).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from ..campaign import run_campaign
from ..core.jobs import CampaignCell, SimulateJob
from ..core.misspath import MechanismConfig
from ..core.simulator import SimulationReport
from ..workloads import catalog
from .prefetch import purge_quantum
from .sweep import workload_spec
from .tables import render_table

__all__ = [
    "DEFAULT_VARIANTS",
    "MechanismStudyResult",
    "WorkloadMechanismResult",
    "mechanism_study",
]

#: The studied configurations, in presentation order.  Entry counts
#: follow the victim-cache literature (4-entry victim/miss caches,
#: 4 stream buffers of depth 4); the L2 is 16x the primary with
#: twice the line size.
DEFAULT_VARIANTS: tuple[tuple[str, MechanismConfig], ...] = (
    ("vc", MechanismConfig(victim_entries=4)),
    ("mc", MechanismConfig(miss_entries=4)),
    ("sb", MechanismConfig(stream_buffers=4, stream_depth=4)),
    ("vc+sb", MechanismConfig(victim_entries=4, stream_buffers=4, stream_depth=4)),
    ("mc+sb", MechanismConfig(miss_entries=4, stream_buffers=4, stream_depth=4)),
)


def _l2_variant(size: int, line_size: int) -> tuple[str, MechanismConfig]:
    """The two-level variant scaled to the primary geometry."""
    return (
        "l2",
        MechanismConfig(
            l2_size=size * 16, l2_line_size=line_size * 2, l2_associativity=4
        ),
    )


@dataclass(frozen=True, slots=True)
class WorkloadMechanismResult:
    """Baseline plus every mechanism variant for one workload.

    Attributes:
        workload: catalog name (or mix label).
        baseline: the plain-organization report.
        variants: per-variant reports, keyed by variant name, in study
            order.
    """

    workload: str
    baseline: SimulationReport
    variants: Mapping[str, SimulationReport]

    @property
    def baseline_miss_ratio(self) -> float:
        """Miss ratio of the unadorned organization."""
        return self.baseline.miss_ratio

    def effective_miss_ratio(self, name: str) -> float:
        """A variant's effective (assembly-level) miss ratio."""
        return self.variants[name].effective_miss_ratio

    def delta(self, name: str) -> float:
        """Effective-miss-ratio change vs. baseline (negative = better)."""
        return self.effective_miss_ratio(name) - self.baseline_miss_ratio


@dataclass(frozen=True, slots=True)
class MechanismStudyResult:
    """The assembled mechanism study.

    Attributes:
        size: primary cache capacity in bytes.
        line_size: primary line size in bytes.
        associativity: primary associativity (``None`` = fully
            associative).
        variant_names: variant columns, in presentation order.
        rows: one entry per workload, in submission order.
        trace_length: references per trace, or ``None`` for the
            per-workload catalog defaults.
    """

    size: int
    line_size: int
    associativity: int | None
    variant_names: tuple[str, ...]
    rows: tuple[WorkloadMechanismResult, ...] = field(repr=False)
    trace_length: int | None = None

    def mean_baseline(self) -> float:
        """Mean baseline miss ratio over the studied workloads."""
        return _mean([row.baseline_miss_ratio for row in self.rows])

    def mean_effective(self, name: str) -> float:
        """Mean effective miss ratio of one variant."""
        return _mean([row.effective_miss_ratio(name) for row in self.rows])

    def mean_delta(self, name: str) -> float:
        """Mean effective-miss-ratio delta of one variant vs. baseline."""
        return _mean([row.delta(name) for row in self.rows])

    def render_table(self, limit: int | None = None) -> str:
        """Per-workload effective miss ratios, one variant per column.

        Args:
            limit: show only the first ``limit`` workload rows (the mean
                row always renders).
        """
        shown = self.rows if limit is None else self.rows[:limit]
        headers = ["workload", "baseline", *self.variant_names]
        body: list[list[str]] = []
        for row in shown:
            body.append(
                [
                    row.workload,
                    _fmt(row.baseline_miss_ratio),
                    *(_fmt(row.effective_miss_ratio(n)) for n in self.variant_names),
                ]
            )
        body.append(
            [
                "mean",
                _fmt(self.mean_baseline()),
                *(_fmt(self.mean_effective(n)) for n in self.variant_names),
            ]
        )
        assoc = "full" if self.associativity is None else str(self.associativity)
        title = (
            f"Mechanism study: effective miss ratios at {self.size} bytes, "
            f"{self.line_size}-byte lines, associativity {assoc}"
        )
        return render_table(headers, body, title=title)

    def render_mechanism_detail(self) -> str:
        """Mean per-mechanism internals: hit rates, coverage, L2 locals.

        One row per variant: the mean effective-miss delta plus whichever
        component metrics the variant exposes — victim/miss-cache hit
        rate (hits over primary misses probed), stream-buffer coverage
        (primary misses caught at a buffer head), and the L2's own local
        miss ratio.
        """
        headers = ["variant", "mean delta", "vc hit", "mc hit", "sb cover", "l2 local"]
        body: list[list[str]] = []
        for name in self.variant_names:
            cells = [name, _fmt(self.mean_delta(name), signed=True)]
            for component in ("victim-cache", "miss-cache", "stream-buffers", "l2"):
                values = []
                for row in self.rows:
                    report = row.variants[name]
                    if component in report.mechanism_names:
                        ratio = report.mechanism(component).miss_ratio
                        # The L2 column is its local miss ratio; the
                        # others are hit rates over probed primary misses.
                        values.append(ratio if component == "l2" else 1.0 - ratio)
                cells.append(_fmt(_mean(values)) if values else "—")
            body.append(cells)
        return render_table(
            headers, body, title="Mechanism internals (means over workloads)"
        )

    def summary(self) -> str:
        """Both tables, ready to print."""
        return f"{self.render_table()}\n\n{self.render_mechanism_detail()}"


def mechanism_study(
    workloads: Sequence[str] | None = None,
    size: int = 4096,
    line_size: int = 16,
    associativity: int | None = 1,
    variants: Sequence[tuple[str, MechanismConfig]] | None = None,
    include_l2: bool = True,
    length: int | None = None,
    workers: int | None = None,
    cache=None,
) -> MechanismStudyResult:
    """Run the mechanism study: baseline + each variant per workload.

    Args:
        workloads: catalog names (mix labels allowed); defaults to the
            full catalog.
        size: primary capacity in bytes.
        line_size: primary line size in bytes.
        associativity: primary associativity (default direct-mapped —
            see the module docstring; ``None`` = fully associative).
        variants: ``(name, MechanismConfig)`` pairs; defaults to
            :data:`DEFAULT_VARIANTS`.
        include_l2: append the scaled two-level variant (ignored when
            ``variants`` is given explicitly).
        length: references per trace (per-workload catalog defaults
            otherwise).
        workers: campaign worker processes.
        cache: campaign result cache (see
            :func:`repro.campaign.run_campaign`).

    Returns:
        The assembled study.
    """
    names = list(workloads) if workloads is not None else catalog.names()
    if variants is None:
        chosen = list(DEFAULT_VARIANTS)
        if include_l2:
            chosen.append(_l2_variant(size, line_size))
    else:
        chosen = list(variants)
    seen = {name for name, _ in chosen}
    if len(seen) != len(chosen):
        raise ValueError("variant names must be unique")

    common = dict(size=size, line_size=line_size, associativity=associativity)
    # As in the prefetch study: a mix runs one trace length in all.
    total = catalog.DEFAULT_TRACE_LENGTH if length is None else length
    cells: list[CampaignCell] = []
    for workload in names:
        quantum = purge_quantum(workload)
        spec = workload_spec(workload, length, quantum, total)
        for vname, config in [("baseline", None), *chosen]:
            cells.append(
                CampaignCell(
                    label=f"{workload}/{vname}",
                    trace=spec,
                    job=SimulateJob(
                        purge_interval=quantum, mechanisms=config, **common
                    ),
                )
            )

    result = run_campaign(cells, workers=workers, cache=cache, raise_on_error=True)
    reports = {outcome.label: outcome.value for outcome in result.outcomes}

    rows = []
    for workload in names:
        rows.append(
            WorkloadMechanismResult(
                workload=workload,
                baseline=reports[f"{workload}/baseline"],
                variants={
                    vname: reports[f"{workload}/{vname}"] for vname, _ in chosen
                },
            )
        )
    return MechanismStudyResult(
        size=size,
        line_size=line_size,
        associativity=associativity,
        variant_names=tuple(name for name, _ in chosen),
        rows=tuple(rows),
        trace_length=length,
    )


def _mean(values: Sequence[float]) -> float:
    """NaN-skipping mean; NaN when nothing contributes."""
    finite = [v for v in values if v == v]
    if not finite:
        return float("nan")
    return sum(finite) / len(finite)


def _fmt(value: float, signed: bool = False) -> str:
    """Ratio cell: 4 digits, em-dash for NaN, optional forced sign."""
    if value != value:
        return "—"
    return f"{value:+.4f}" if signed else f"{value:.4f}"
