"""The prefetch study: Figures 5-7 (miss ratios), Figures 8-10 and Table 4
(memory traffic).

Section 3.5: "An additional set of simulations was run to evaluate the
effectiveness of prefetching ... Two cache organizations were simulated, a
unified (instructions and data) and a split (separate instruction and data
caches) design.  Each was simulated with and without prefetch.  Prefetch
always verifies that line i+1 is in the cache at the time line i is
referenced, and if it is not in the cache, then it prefetches it.  At
intervals of 20,000 memory references (except for the M68000 traces, where
the interval was 15,000), the cache is purged."

Figures 5/6/7 plot the *ratio of miss ratios* (prefetch to demand) for the
unified, instruction and data caches; Figures 8/9/10 plot the factor by
which memory traffic increases; Table 4 gives the traffic ratio averaged by
summing traffic over all traces ("it is not just" the mean of ratios).

The headline shapes to reproduce:

* prefetching is increasingly useful with increasing cache size;
* instruction prefetching always cuts the miss ratio, by more than 50%
  for caches over 2K;
* data prefetching helps large caches (>= 8K, ~50% cut) but can hurt
  small ones;
* the traffic penalty falls from ~2.9x at 32 bytes toward ~1.2x at 64K
  (unified), and is smaller for the data cache than the instruction cache.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..campaign import run_campaign
from ..core.jobs import CampaignCell, SimulateJob, TraceSpec
from ..core.multiprog import DEFAULT_QUANTUM
from ..workloads import catalog
from .sweep import PAPER_CACHE_SIZES
from .tables import render_series, render_table
from .writeback import PAPER_TABLE3

__all__ = [
    "PAPER_TABLE4",
    "M68000_QUANTUM",
    "PREFETCH_WORKLOADS",
    "PolicyComparison",
    "PrefetchWorkloadResult",
    "PrefetchStudyResult",
    "prefetch_study",
]

#: Purge quantum for the M68000 traces (Section 3.5).
M68000_QUANTUM = 15_000

#: The prefetch study's workload set: the Table 3 workloads plus the four
#: M68000 traces (which Section 3.5 mentions via their purge interval).
PREFETCH_WORKLOADS: tuple[str, ...] = tuple(PAPER_TABLE3) + (
    "PLO",
    "MATCH",
    "SORT",
    "STAT",
)

#: The paper's Table 4 ("Average ratio of memory traffic for prefetch to
#: demand fetch"), as printed in our source text.  Only two numeric columns
#: survived the scan; by their magnitudes and the surrounding prose the
#: first is the unified cache and the second the data cache (the data
#: cache's traffic penalty is the smallest).  The 64-byte unified value
#: (1.139) is inconsistent with the neighbouring rows and is likely a
#: digit-level scan error for ~2.1; it is kept verbatim here.
PAPER_TABLE4: dict[int, tuple[float, float]] = {
    32: (2.870, 1.519),
    64: (1.139, 1.463),
    128: (1.879, 1.368),
    256: (1.679, 1.356),
    512: (1.547, 1.407),
    1024: (1.602, 1.313),
    2048: (1.476, 1.309),
    4096: (1.537, 1.246),
    8192: (1.399, 1.258),
    16384: (1.269, 1.194),
    32768: (1.213, 1.191),
    65536: (1.209, 1.191),
}


@dataclass(frozen=True, slots=True)
class PolicyComparison:
    """Demand vs prefetch-always for one cache (or cache side).

    Miss ratios are per-reference; traffic is in bytes moved between cache
    and memory (line fetches + write-backs).
    """

    miss_demand: tuple[float, ...]
    miss_prefetch: tuple[float, ...]
    traffic_demand: tuple[int, ...]
    traffic_prefetch: tuple[int, ...]

    def miss_ratio_ratios(self) -> np.ndarray:
        """Prefetch/demand miss-ratio ratio per size (Figures 5-7's y)."""
        demand = np.asarray(self.miss_demand)
        prefetch = np.asarray(self.miss_prefetch)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(demand > 0, prefetch / np.maximum(demand, 1e-300), 1.0)
        return out

    def traffic_ratios(self) -> np.ndarray:
        """Prefetch/demand traffic ratio per size (Figures 8-10's y)."""
        demand = np.asarray(self.traffic_demand, dtype=float)
        prefetch = np.asarray(self.traffic_prefetch, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(demand > 0, prefetch / np.maximum(demand, 1e-300), 1.0)


@dataclass(frozen=True, slots=True)
class PrefetchWorkloadResult:
    """All prefetch measurements for one workload.

    The ``*_stream`` comparisons hold the third policy — stream buffers on
    the miss path (:class:`repro.core.misspath.StreamBuffers`) — in the
    "prefetch" slots of a :class:`PolicyComparison`, against the same
    demand baselines.  Stream miss ratios are *effective* (buffer hits
    removed) and stream traffic includes buffer fetches; both are None
    when the study ran without the stream policy.
    """

    label: str
    sizes: tuple[int, ...]
    quantum: int
    unified: PolicyComparison
    instruction: PolicyComparison
    data: PolicyComparison
    unified_stream: PolicyComparison | None = None
    instruction_stream: PolicyComparison | None = None
    data_stream: PolicyComparison | None = None


@dataclass(frozen=True, slots=True)
class PrefetchStudyResult:
    """The whole study: everything behind Table 4 and Figures 5-10."""

    sizes: tuple[int, ...]
    workloads: dict[str, PrefetchWorkloadResult]

    def _aggregate_traffic(self, attr: str) -> np.ndarray:
        """Table 4 aggregation: sum policy traffic / sum demand traffic."""
        demand = np.zeros(len(self.sizes))
        policy = np.zeros(len(self.sizes))
        for result in self.workloads.values():
            pair: PolicyComparison | None = getattr(result, attr)
            if pair is None:
                continue
            demand += np.asarray(pair.traffic_demand, dtype=float)
            policy += np.asarray(pair.traffic_prefetch, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(demand > 0, policy / np.maximum(demand, 1e-300), 1.0)

    def table4(self) -> dict[int, tuple[float, float, float]]:
        """Average traffic ratios per size: (unified, instruction, data)."""
        unified = self._aggregate_traffic("unified")
        instruction = self._aggregate_traffic("instruction")
        data = self._aggregate_traffic("data")
        return {
            size: (float(u), float(i), float(d))
            for size, u, i, d in zip(self.sizes, unified, instruction, data)
        }

    @property
    def has_stream(self) -> bool:
        """True iff the study also ran the stream-buffer policy."""
        return any(
            result.unified_stream is not None for result in self.workloads.values()
        )

    def figure_series(self, figure: int, policy: str = "prefetch") -> dict[str, list[float]]:
        """Per-workload series for one of Figures 5-10.

        Figure 5/6/7 are miss-ratio ratios for unified/instruction/data;
        8/9/10 the corresponding traffic ratios.  ``policy="stream"``
        returns the same figures for the stream-buffer policy instead of
        prefetch-always.

        Raises:
            ValueError: for a figure number outside 5-10, an unknown
                policy, or ``policy="stream"`` on a study run without it.
        """
        side = {5: "unified", 6: "instruction", 7: "data",
                8: "unified", 9: "instruction", 10: "data"}.get(figure)
        if side is None:
            raise ValueError(f"figure must be in 5..10, got {figure}")
        if policy not in ("prefetch", "stream"):
            raise ValueError(f"policy must be 'prefetch' or 'stream', got {policy!r}")
        attr = side if policy == "prefetch" else f"{side}_stream"
        out = {}
        for label, result in self.workloads.items():
            pair: PolicyComparison | None = getattr(result, attr)
            if pair is None:
                raise ValueError(
                    "this study ran without the stream policy "
                    "(prefetch_study(include_stream=True) enables it)"
                )
            values = pair.miss_ratio_ratios() if figure <= 7 else pair.traffic_ratios()
            out[label] = [float(v) for v in values]
        return out

    def render_table4(self) -> str:
        """Table 4 with the paper's surviving columns alongside."""
        rows = []
        table = self.table4()
        for size in self.sizes:
            unified, instruction, data = table[size]
            paper = PAPER_TABLE4.get(size)
            rows.append(
                (
                    size,
                    f"{unified:.3f}",
                    f"{instruction:.3f}",
                    f"{data:.3f}",
                    f"{paper[0]:.3f}" if paper else "-",
                    f"{paper[1]:.3f}" if paper else "-",
                )
            )
        return render_table(
            ["bytes", "unified", "icache", "dcache", "paper:unified", "paper:dcache"],
            rows,
            title="Table 4: memory-traffic ratio, prefetch-always : demand "
            "(sum over workloads)",
        )

    def stream_table(self) -> dict[int, tuple[float, float, float]]:
        """Stream:demand traffic ratios per size: (unified, instr, data).

        The stream-buffer analogue of :meth:`table4`.

        Raises:
            ValueError: if the study ran without the stream policy.
        """
        if not self.has_stream:
            raise ValueError(
                "this study ran without the stream policy "
                "(prefetch_study(include_stream=True) enables it)"
            )
        unified = self._aggregate_traffic("unified_stream")
        instruction = self._aggregate_traffic("instruction_stream")
        data = self._aggregate_traffic("data_stream")
        return {
            size: (float(u), float(i), float(d))
            for size, u, i, d in zip(self.sizes, unified, instruction, data)
        }

    def render_stream_table(self) -> str:
        """The Section 3.5 rerun with stream buffers as the third policy.

        Per size: mean effective-miss-ratio ratio (stream:demand, over
        workloads) and aggregate traffic ratio, per cache side — directly
        comparable with :meth:`render_table4` and Figures 5-10.
        """
        traffic = self.stream_table()
        rows = []
        for index, size in enumerate(self.sizes):
            miss_means = []
            for side in ("unified", "instruction", "data"):
                ratios = [
                    getattr(result, f"{side}_stream").miss_ratio_ratios()[index]
                    for result in self.workloads.values()
                    if getattr(result, f"{side}_stream") is not None
                ]
                miss_means.append(float(np.mean(ratios)) if ratios else float("nan"))
            t_u, t_i, t_d = traffic[size]
            rows.append(
                (
                    size,
                    f"{miss_means[0]:.3f}",
                    f"{miss_means[1]:.3f}",
                    f"{miss_means[2]:.3f}",
                    f"{t_u:.3f}",
                    f"{t_i:.3f}",
                    f"{t_d:.3f}",
                )
            )
        return render_table(
            [
                "bytes",
                "miss:unified",
                "miss:icache",
                "miss:dcache",
                "traffic:unified",
                "traffic:icache",
                "traffic:dcache",
            ],
            rows,
            title="Stream buffers as third fetch policy: effective-miss and "
            "traffic ratios, stream : demand",
        )

    def render_figures(self) -> str:
        """Figures 5-10 as series blocks."""
        captions = {
            5: "Figure 5: unified miss-ratio ratio (prefetch/demand)",
            6: "Figure 6: instruction miss-ratio ratio",
            7: "Figure 7: data miss-ratio ratio",
            8: "Figure 8: unified traffic ratio (prefetch/demand)",
            9: "Figure 9: instruction traffic ratio",
            10: "Figure 10: data traffic ratio",
        }
        blocks = [
            render_series("workload \\ bytes", list(self.sizes),
                          self.figure_series(fig), title=captions[fig])
            for fig in range(5, 11)
        ]
        return "\n\n".join(blocks)


def _workload_spec(label: str, length: int | None) -> tuple[TraceSpec, int]:
    """Resolve a study label to a trace spec and its purge quantum."""
    if label in catalog.MULTIPROGRAMMING_MIXES:
        members = catalog.MULTIPROGRAMMING_MIXES[label]
        total = length if length is not None else catalog.DEFAULT_TRACE_LENGTH
        spec = TraceSpec.mix(
            label, tuple(members), DEFAULT_QUANTUM, length=length, total=total
        )
        return spec, DEFAULT_QUANTUM
    quantum = (
        M68000_QUANTUM
        if catalog.get(label).architecture == "Motorola 68000"
        else DEFAULT_QUANTUM
    )
    return TraceSpec.catalog(label, length), quantum


def prefetch_study(
    labels: Sequence[str] | None = None,
    sizes: Sequence[int] = PAPER_CACHE_SIZES,
    length: int | None = None,
    workers: int | None = None,
    cache=None,
    include_stream: bool = True,
) -> PrefetchStudyResult:
    """Run the full prefetch study (4-6 simulations per workload per size).

    Every simulation is one campaign cell, so the whole study fans out
    across the worker pool and memoizes per cell.

    Args:
        labels: workloads; defaults to :data:`PREFETCH_WORKLOADS`.
        sizes: cache sizes in bytes (each split side gets the full size,
            matching the per-cache x axis of Figures 6/7/9/10).
        length: references per trace (paper defaults otherwise).
        workers: campaign worker processes (default: ``REPRO_WORKERS`` or
            the CPU count).
        cache: campaign result cache (see :func:`repro.campaign.run_campaign`).
        include_stream: also run ``fetch="stream"`` — demand fetch backed
            by default miss-path stream buffers — as a third policy
            (Section 3.5 rerun; 2 extra cells per workload per size).

    Returns:
        The assembled study results.
    """
    labels = list(labels) if labels is not None else list(PREFETCH_WORKLOADS)
    policies = ("demand", "prefetch-always", "stream") if include_stream else (
        "demand", "prefetch-always")
    quanta: dict[str, int] = {}
    cells: list[CampaignCell] = []
    for label in labels:
        spec, quantum = _workload_spec(label, length)
        quanta[label] = quantum
        for size in sizes:
            for fetch in policies:
                for split in (False, True):
                    cells.append(
                        CampaignCell(
                            label=f"{label}/{size}/{fetch}/{'split' if split else 'unified'}",
                            trace=spec,
                            job=SimulateJob(
                                size=size,
                                line_size=16,
                                fetch=fetch,
                                split=split,
                                purge_interval=quantum,
                            ),
                        )
                    )
    # Strict mode: reports are consumed positionally below, so a failed
    # cell raises after its siblings are cached.
    campaign = run_campaign(cells, workers=workers, cache=cache, raise_on_error=True)
    reports = iter(campaign.outcomes)

    suffixes = {"demand": "demand", "prefetch-always": "prefetch", "stream": "stream"}
    results: dict[str, PrefetchWorkloadResult] = {}
    for label in labels:
        quantum = quanta[label]
        collected: dict[tuple[str, str], list] = {
            (side, f"{metric}_{suffix}"): []
            for side in ("unified", "instruction", "data")
            for metric in ("miss", "traffic")
            for suffix in suffixes.values()
        }
        for size in sizes:
            for fetch in policies:
                suffix = suffixes[fetch]
                unified = next(reports).value
                split = next(reports).value
                if fetch == "stream":
                    miss_u, traffic_u = (
                        unified.effective_miss_ratio,
                        unified.effective_memory_traffic_bytes,
                    )
                    miss_i, traffic_i = _stream_side(
                        split, split.instruction, ("ifetch", "fetch")
                    )
                    miss_d, traffic_d = _stream_side(
                        split, split.data, ("read", "write")
                    )
                else:
                    miss_u = unified.miss_ratio
                    traffic_u = unified.overall.memory_traffic_bytes
                    miss_i = split.instruction.miss_ratio
                    traffic_i = split.instruction.memory_traffic_bytes
                    miss_d = split.data.miss_ratio
                    traffic_d = split.data.memory_traffic_bytes
                collected[("unified", f"miss_{suffix}")].append(miss_u)
                collected[("unified", f"traffic_{suffix}")].append(traffic_u)
                collected[("instruction", f"miss_{suffix}")].append(miss_i)
                collected[("instruction", f"traffic_{suffix}")].append(traffic_i)
                collected[("data", f"miss_{suffix}")].append(miss_d)
                collected[("data", f"traffic_{suffix}")].append(traffic_d)

        def _pair(side: str, suffix: str) -> PolicyComparison:
            return PolicyComparison(
                tuple(collected[(side, "miss_demand")]),
                tuple(collected[(side, f"miss_{suffix}")]),
                tuple(collected[(side, "traffic_demand")]),
                tuple(collected[(side, f"traffic_{suffix}")]),
            )

        results[label] = PrefetchWorkloadResult(
            label=label,
            sizes=tuple(sizes),
            quantum=quantum,
            unified=_pair("unified", "prefetch"),
            instruction=_pair("instruction", "prefetch"),
            data=_pair("data", "prefetch"),
            unified_stream=_pair("unified", "stream") if include_stream else None,
            instruction_stream=(
                _pair("instruction", "stream") if include_stream else None
            ),
            data_stream=_pair("data", "stream") if include_stream else None,
        )
    return PrefetchStudyResult(tuple(sizes), results)


def _stream_side(report, side_stats, classes: tuple[str, ...]) -> tuple[float, int]:
    """Per-side effective miss ratio and memory traffic under stream fetch.

    The stream buffers are shared between the split halves, but their
    per-class probe counters attribute hits and misses to each side
    exactly.  Buffer fetch traffic is reconstructed per side as
    ``hits + depth x misses`` (one top-up per hit, a full refill per
    allocation); summed over sides it equals the buffers' total
    ``prefetches``.
    """
    buffers = report.mechanism("stream-buffers")
    hits = sum(getattr(buffers, cls).hits for cls in classes)
    misses = sum(getattr(buffers, cls).misses for cls in classes)
    refs = side_stats.references
    miss = float("nan") if refs == 0 else (side_stats.misses - hits) / refs
    depth = (
        (buffers.prefetches - buffers.useful_prefetches) // buffers.misses
        if buffers.misses
        else 0
    )
    line_size = side_stats.line_size
    # Memory fills (side fills minus buffer-serviced) plus buffer fetches
    # collapse to lines_fetched + depth x misses; write-backs unchanged.
    traffic = (
        side_stats.lines_fetched + depth * misses + side_stats.dirty_pushes
    ) * line_size + side_stats.write_through_bytes
    return miss, traffic
