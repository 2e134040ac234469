"""Sampled execution engines: run a fraction, estimate the whole.

One engine per campaign job family:

* :func:`sampled_stack_sweep` — interval-sampled LRU capacity sweeps.
  Per sampled window the engine computes exact per-reference stack
  distances (the same blocked-merge pass as :mod:`repro.core.stackdist`,
  un-histogrammed so distances stay aligned with trace positions) over
  the warm prefix plus the window, and reads the window's miss counts
  for every capacity from the distances of the measured region alone.
  Because a stack distance depends only on *earlier* references, the
  prefix-warmed counts are exactly "misses of this window given this
  prefix" — no replay approximation.
* :func:`sampled_associativity_sweep` — the same prefix/window
  subtraction applied to the per-set kernel
  (:func:`repro.core.kernels.all_associativity_hit_counts`), or exact
  set sampling under a :class:`~repro.sampling.plans.SetSampling` plan.
* :func:`sampled_simulate` — interval-sampled direct simulation through
  :func:`repro.core.simulator.simulate`, reusing its warmup machinery
  for discard-mode prefixes and carrying one organization across
  windows for stitch mode.

**Bias bounds.**  For LRU, a window simulated after a warm prefix can
only *overcount* misses: the prefix-warmed LRU stack is exactly the top
of the true (full-history) stack, so every hit the sampled run sees is a
true hit, and the spurious misses are at most the window's cold
references not covered by the prefix — zero when a purge fell inside
the prefix, and zero at capacity ``C`` once the prefix touched ``C``
distinct lines.  Stitch mode can also *undercount* (distances across the
gaps shrink), bounded by the cross-window reuse count.  The engines
compute these bounds per window and the estimator widens the CI by them
deterministically, which is what makes "truth inside the reported
interval" a guarantee rather than a 95% hope for the one-sided part of
the error.  For :func:`sampled_simulate` under non-LRU or prefetching
policies the same counts are used as a heuristic (documented in
``docs/sampling.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..core.jobs import AssociativitySweepJob, SimulateJob, StackSweepJob
from ..core.kernels import all_associativity_hit_counts
from ..core.simulator import simulate
from ..core.stackdist import COLD_DISTANCE, set_stack_distances
from ..trace.stream import Trace
from .estimators import Estimate, SampledValue, SamplingInfo, ratio_estimates
from .plans import (
    IntervalSampling,
    RepresentativeSampling,
    SamplingPlan,
    SelectedIntervals,
    SetSampling,
    select_intervals,
    select_set_classes,
)

__all__ = [
    "SampledStats",
    "SampledReport",
    "sampled_stack_sweep",
    "sampled_associativity_sweep",
    "sampled_simulate",
    "run_sampled",
]

#: Sentinel distance for a cold (first-touch) reference; larger than any
#: real capacity, so cold references count as misses at every size.
_COLD = COLD_DISTANCE

#: Absolute floor under which a miss ratio is "small enough": the
#: calibration budget compares CI half-widths against
#: ``max(estimate, _BUDGET_FLOOR)`` so near-zero cells do not chase an
#: impossible relative target.
_BUDGET_FLOOR = 1e-3


# -- exact per-reference stack distances -------------------------------------


def _segment_distances(segment: np.ndarray, resets: np.ndarray | None) -> np.ndarray:
    """Per-reference LRU stack distances of sampled references.

    Consecutive repeats are distance 1; cold references get the
    :data:`_COLD` sentinel; ``resets`` marks purge points and the starts
    of segments laid end to end.  Delegates to the vectorized machinery
    of :mod:`repro.core.stackdist`, so sampled windows take the same
    array passes as full sweeps.
    """
    return set_stack_distances(segment, 1, resets)


def _miss_counts(distances: np.ndarray, capacities_lines: np.ndarray) -> np.ndarray:
    """Miss counts per capacity: references with distance > capacity."""
    ordered = np.sort(distances)
    return len(ordered) - np.searchsorted(ordered, capacities_lines, side="right")


def _purge_resets(positions: np.ndarray, purge_interval: int | None) -> np.ndarray | None:
    """Relative reset indices from *absolute* trace positions.

    The purge clock runs over absolute trace references (the same epoch
    rule as :func:`repro.core.stackdist.lru_miss_ratio_curve`), so a
    sampled segment purges exactly when the full run would.
    """
    if purge_interval is None or not len(positions):
        return None
    epoch = positions // purge_interval
    resets = np.nonzero(np.diff(epoch) > 0)[0] + 1
    return resets if len(resets) else None


def _prefixed_window_counts(
    lines: np.ndarray,
    positions: np.ndarray,
    purge_interval: int | None,
    caps_lines: np.ndarray,
    lo: np.ndarray,
    mid: np.ndarray,
    hi: np.ndarray,
    warmed: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Miss counts and overcount bounds of prefix-warmed windows.

    Window ``k`` replays ``lines[lo[k]:hi[k]]`` from an empty stack — its
    warm prefix up to ``mid[k]``, then the measured references.  The
    segments are laid end to end with a reset at each segment start, so
    one distance pass gives every window exactly the distances a pass of
    its own would, without paying the kernel's per-call cost per window.
    ``warmed[k]`` is false when the prefix reaches back to the trace
    start (its cold references are then real).

    Returns ``(misses, bias_up)``, each of shape ``(windows, capacities)``.
    The overcount bound is the window's cold references before its first
    purge, capped per capacity by the prefix's distinct-line coverage; a
    purge inside the prefix makes the state exact (bound zero).
    """
    lengths = hi - lo
    ends = np.cumsum(lengths)
    firsts = ends - lengths
    index = np.arange(ends[-1], dtype=np.int64) + np.repeat(lo - firsts, lengths)
    purges = None if purge_interval is None else _purge_resets(positions[index], purge_interval)
    resets = firsts[1:] if purges is None else np.union1d(firsts[1:], purges)
    distances = _segment_distances(lines[index], resets)

    # Running counts of references past each capacity (and, last row, of
    # cold references): a window's counts are differences across slices.
    window_start = firsts + (mid - lo)
    bounds = np.append(caps_lines, _COLD - 1)
    running = np.zeros((len(bounds), len(distances) + 1), dtype=np.int64)
    np.cumsum(distances > bounds[:, None], axis=1, out=running[:, 1:])
    misses = (running[:-1, ends] - running[:-1, window_start]).T.astype(float)
    cold = running[-1]

    # First purge after each segment start (a purge flagged at the start
    # itself is the segment reset), else the segment end.
    if purges is None:
        first_purge = ends
    else:
        slot = np.searchsorted(purges, firsts, side="right")
        first_purge = np.minimum(np.append(purges, ends[-1])[slot], ends)
    window_cold = cold[first_purge] - cold[window_start]
    # With no purge in the prefix, its cold references are its distinct lines.
    prefix_distinct = cold[window_start] - cold[firsts]
    bias_up = np.minimum(
        window_cold[:, None],
        np.maximum(0, caps_lines[None, :] - prefix_distinct[:, None]),
    ).astype(float)
    bias_up[~(warmed & (first_purge > window_start))] = 0.0
    return misses, bias_up


# -- interval-sampled stack sweep --------------------------------------------


def sampled_stack_sweep(
    trace: Trace, job: StackSweepJob, plan: IntervalSampling | RepresentativeSampling
) -> SampledValue:
    """Estimate a :class:`StackSweepJob`'s miss-ratio curve from samples.

    Returns a :class:`SampledValue` whose payload is the point-estimate
    tuple (same shape as the full job's) and whose info carries one
    :class:`Estimate` per capacity.  A :class:`RepresentativeSampling`
    plan delegates to the weighted-medoid engine.
    """
    if isinstance(plan, RepresentativeSampling):
        from .representative import representative_stack_sweep

        return representative_stack_sweep(trace, job, plan)
    capacities = np.asarray(job.sizes, dtype=np.int64)
    if len(capacities) and (
        (capacities <= 0).any() or (capacities % job.line_size != 0).any()
    ):
        raise ValueError(
            f"capacities must be positive multiples of line_size={job.line_size}"
        )
    if job.purge_interval is not None and job.purge_interval <= 0:
        raise ValueError(
            f"purge_interval must be positive, got {job.purge_interval}"
        )
    caps_lines = capacities // job.line_size
    metrics = len(caps_lines)
    total = len(trace)
    selection = select_intervals(plan, total, trace)
    if not selection.intervals:
        # No sampled references: the miss ratio is unknown, not perfect.
        nan = float("nan")
        estimates = tuple(Estimate(nan, nan, nan, plan.confidence) for _ in caps_lines)
        return SampledValue(
            tuple(nan for _ in caps_lines),
            _interval_info(plan, selection, 0, 0, total, estimates),
        )

    compiled = trace.compiled(job.line_size)
    if job.kinds is not None:
        mask = np.isin(compiled.kinds, list(job.kinds))
        lines = compiled.lines[mask]
        positions = compiled.positions[mask]
    else:
        lines = compiled.lines
        positions = compiled.positions

    units = len(selection.intervals)
    misses = np.zeros((units, metrics))
    refs = np.zeros(units)
    bias_up = np.zeros((units, metrics))
    bias_down = np.zeros((units, metrics))
    measured = 0
    replayed = 0

    if plan.warmup == "stitch":
        bounds = [
            (
                int(np.searchsorted(positions, iv.start, side="left")),
                int(np.searchsorted(positions, iv.stop, side="left")),
            )
            for iv in selection.intervals
        ]
        segment = np.concatenate([lines[lo:hi] for lo, hi in bounds])
        seg_positions = np.concatenate([positions[lo:hi] for lo, hi in bounds])
        distances = _segment_distances(
            segment, _purge_resets(seg_positions, job.purge_interval)
        )
        offset = 0
        for w, ((lo, hi), iv) in enumerate(zip(bounds, selection.intervals)):
            span = hi - lo
            window_distances = distances[offset : offset + span]
            window_lines = segment[offset : offset + span]
            offset += span
            misses[w] = _miss_counts(window_distances, caps_lines)
            refs[w] = span
            cold = int(np.count_nonzero(window_distances == _COLD))
            distinct = len(np.unique(window_lines)) if span else 0
            if iv.start > 0:
                # A globally-cold reference may be a true hit (its line
                # could be resident from the unsampled gap): overcount.
                bias_up[w] = np.minimum(cold, caps_lines)
            # A cross-window reuse got a gap-shrunk distance: undercount.
            bias_down[w] = distinct - cold
            measured += iv.stop - iv.start
            replayed += iv.stop - iv.start
    else:
        starts = np.array([iv.start for iv in selection.intervals], dtype=np.int64)
        stops = np.array([iv.stop for iv in selection.intervals], dtype=np.int64)
        warm_starts = np.maximum(0, starts - plan.warmup_references)
        lo, mid, hi = (
            np.searchsorted(positions, bound, side="left")
            for bound in (warm_starts, starts, stops)
        )
        measured = int((stops - starts).sum())
        replayed = int((stops - warm_starts).sum())
        refs[:] = hi - mid
        # Windows that matched no (filtered) references add nothing.
        live = np.flatnonzero(hi > mid)
        if len(live):
            misses[live], bias_up[live] = _prefixed_window_counts(
                lines,
                positions,
                job.purge_interval,
                caps_lines,
                lo[live],
                mid[live],
                hi[live],
                warm_starts[live] > 0,
            )

    estimates = ratio_estimates(
        misses,
        refs,
        expansion=selection.expansion,
        strata=selection.strata,
        bias_up=(selection.expansion[:, None] * bias_up).sum(axis=0),
        bias_down=(selection.expansion[:, None] * bias_down).sum(axis=0),
        confidence=plan.confidence,
        bootstrap=plan.bootstrap,
        seed=plan.seed + 1,
        clip=(0.0, 1.0),
    )
    value = tuple(e.value for e in estimates)
    info = _interval_info(plan, selection, measured, replayed, total, tuple(estimates))
    return SampledValue(value, info)


def _interval_info(
    plan: IntervalSampling,
    selection: SelectedIntervals,
    measured: int,
    replayed: int,
    total: int,
    estimates: tuple[Estimate, ...],
) -> SamplingInfo:
    return SamplingInfo(
        plan=plan.identity(),
        unit="interval",
        units_sampled=len(selection.intervals),
        units_total=selection.candidates,
        measured_references=measured,
        replayed_references=replayed,
        total_references=total,
        estimates=estimates,
    )


# -- associativity sweeps ----------------------------------------------------


def _surface_cells(
    job: AssociativitySweepJob,
) -> tuple[dict[int, list[tuple[int, int, int]]], int, int]:
    """Group the (ways x capacities) grid by set count, as the exact
    kernel does, returning ``(groups, rows, cols)``."""
    capacities = [int(c) for c in job.capacities]
    if any(c <= 0 or c % job.line_size for c in capacities):
        raise ValueError(
            f"capacities must be positive multiples of line_size={job.line_size}"
        )
    groups: dict[int, list[tuple[int, int, int]]] = {}
    for i, way in enumerate(job.ways):
        if way is not None and way <= 0:
            raise ValueError(f"associativity must be positive, got {way}")
        for j, capacity in enumerate(capacities):
            num_lines = capacity // job.line_size
            if way is None:
                groups.setdefault(1, []).append((i, j, num_lines))
                continue
            if num_lines % way:
                raise ValueError(
                    f"associativity {way} does not divide {num_lines} lines"
                )
            groups.setdefault(num_lines // way, []).append((i, j, way))
    return groups, len(job.ways), len(capacities)


def sampled_associativity_sweep(
    trace: Trace, job: AssociativitySweepJob, plan: SamplingPlan
) -> SampledValue:
    """Estimate an :class:`AssociativitySweepJob` surface from samples.

    Under :class:`SetSampling` the kept set classes are simulated
    exactly and extrapolated across classes (grid cells with fewer sets
    than classes — fully associative rows included — are computed
    exactly on the full stream).  Under :class:`IntervalSampling`
    (``cold``/``discard`` modes) each window's miss counts come from a
    prefix/window kernel-pass subtraction; ``stitch`` is not supported
    for per-set state.

    The payload is the nested point-estimate surface; the info's
    estimates are flattened row-major over (ways, capacities).
    """
    if isinstance(plan, SetSampling):
        return _set_sampled_surface(trace, job, plan)
    if isinstance(plan, RepresentativeSampling):
        from .representative import representative_associativity_sweep

        return representative_associativity_sweep(trace, job, plan)
    if plan.warmup == "stitch":
        raise ValueError(
            "stitch warmup is not supported for associativity sweeps "
            "(per-set state cannot be carried through the one-pass kernel); "
            "use warmup='discard' or a SetSampling plan"
        )
    groups, rows, cols = _surface_cells(job)
    metrics = rows * cols
    total = len(trace)
    selection = select_intervals(plan, total, trace)
    compiled = trace.compiled(job.line_size)
    lines, positions = compiled.lines, compiled.positions

    units = len(selection.intervals)
    misses = np.zeros((units, metrics))
    refs = np.zeros(units)
    bias_up = np.zeros((units, metrics))
    measured = 0
    replayed = 0
    warm = plan.warmup_references
    for w, iv in enumerate(selection.intervals):
        warm_start = max(0, iv.start - warm)
        lo, mid, hi = (
            int(b)
            for b in np.searchsorted(
                positions, [warm_start, iv.start, iv.stop], side="left"
            )
        )
        measured += iv.stop - iv.start
        replayed += iv.stop - warm_start
        if hi == mid:
            continue
        segment = lines[lo:hi]
        prefix = lines[lo:mid]
        refs[w] = hi - mid
        cold = 0
        if warm_start > 0:
            cold = len(np.setdiff1d(lines[mid:hi], prefix))
        for num_sets, cells in groups.items():
            max_way = max(way for _i, _j, way in cells)
            hits_seg, total_seg = all_associativity_hit_counts(segment, num_sets, max_way)
            if len(prefix):
                hits_pre, total_pre = all_associativity_hit_counts(
                    prefix, num_sets, max_way
                )
            else:
                hits_pre, total_pre = np.zeros(max_way + 1, dtype=np.int64), 0
            for i, j, way in cells:
                cell = i * cols + j
                misses[w, cell] = (total_seg - int(hits_seg[way])) - (
                    total_pre - int(hits_pre[way])
                )
                bias_up[w, cell] = cold
    estimates = ratio_estimates(
        misses,
        refs,
        expansion=selection.expansion,
        strata=selection.strata,
        bias_up=(selection.expansion[:, None] * bias_up).sum(axis=0),
        confidence=plan.confidence,
        bootstrap=plan.bootstrap,
        seed=plan.seed + 1,
        clip=(0.0, 1.0),
    )
    surface = tuple(
        tuple(estimates[i * cols + j].value for j in range(cols)) for i in range(rows)
    )
    info = _interval_info(plan, selection, measured, replayed, total, tuple(estimates))
    return SampledValue(surface, info)


def _set_sampled_surface(
    trace: Trace, job: AssociativitySweepJob, plan: SetSampling
) -> SampledValue:
    groups, rows, cols = _surface_cells(job)
    compiled = trace.compiled(job.line_size)
    lines = compiled.lines
    total_lines = len(lines)
    classes = select_set_classes(plan)
    class_mask = plan.classes - 1
    class_streams = {c: lines[(lines & class_mask) == c] for c in classes}

    estimates: list[Estimate | None] = [None] * (rows * cols)
    sampled_line_refs = 0
    for num_sets, cells in groups.items():
        max_way = max(way for _i, _j, way in cells)
        if num_sets < plan.classes:
            # The class partition is coarser than the set mapping: the
            # kept classes would not be whole sets, so compute exactly.
            hits, total = all_associativity_hit_counts(lines, num_sets, max_way)
            for i, j, way in cells:
                value = (total - int(hits[way])) / total if total else float("nan")
                estimates[i * cols + j] = Estimate(value, value, value, plan.confidence)
            continue
        # Exact per-class hit counts; classes are unions of whole sets.
        class_misses = np.zeros((len(classes), len(cells)))
        class_refs = np.zeros(len(classes))
        for k, c in enumerate(classes):
            stream = class_streams[c]
            hits, total = all_associativity_hit_counts(stream, num_sets, max_way)
            class_refs[k] = total
            for m, (_i, _j, way) in enumerate(cells):
                class_misses[k, m] = total - int(hits[way])
        cell_estimates = ratio_estimates(
            class_misses,
            class_refs,
            confidence=plan.confidence,
            bootstrap=plan.bootstrap,
            seed=plan.seed + 1,
            clip=(0.0, 1.0),
        )
        for (i, j, _way), estimate in zip(cells, cell_estimates):
            estimates[i * cols + j] = estimate
    sampled_line_refs = int(sum(len(s) for s in class_streams.values()))

    surface = tuple(
        tuple(estimates[i * cols + j].value for j in range(cols)) for i in range(rows)
    )
    # References are counted in trace terms for the info block; the set
    # filter keeps the same fraction of line references.
    total_refs = len(trace)
    fraction = sampled_line_refs / total_lines if total_lines else 0.0
    measured = int(round(fraction * total_refs))
    info = SamplingInfo(
        plan=plan.identity(),
        unit="set",
        units_sampled=len(classes),
        units_total=plan.classes,
        measured_references=measured,
        replayed_references=measured,
        total_references=total_refs,
        estimates=tuple(estimates),
    )
    return SampledValue(surface, info)


# -- sampled direct simulation -----------------------------------------------


@dataclass(frozen=True, slots=True)
class SampledStats:
    """Extrapolated statistics for one cache side of a sampled run.

    ``memory_traffic_bytes`` is scaled to the full trace, so traffic
    ratios and Table-4-style sums computed on sampled reports line up
    with full-run ones.
    """

    miss_ratio: float
    memory_traffic_bytes: int
    references: int


@dataclass(frozen=True, slots=True)
class SampledReport:
    """A :class:`~repro.core.simulator.SimulationReport` look-alike.

    Exposes the fields the analysis drivers consume (``miss_ratio``,
    ``overall/instruction/data`` with ``miss_ratio`` and
    ``memory_traffic_bytes``) with point estimates in place of exact
    counters.  The per-side miss ratios are class miss ratios
    (instruction = ifetch, data = read+write) for unified organizations
    too.  Intervals live on the cell's :class:`SamplingInfo`.
    """

    trace_name: str
    references: int
    purge_interval: int | None
    overall: SampledStats
    instruction: SampledStats
    data: SampledStats

    @property
    def miss_ratio(self) -> float:
        return self.overall.miss_ratio

    @property
    def instruction_miss_ratio(self) -> float:
        return self.instruction.miss_ratio

    @property
    def data_miss_ratio(self) -> float:
        return self.data.miss_ratio


def sampled_simulate(
    trace: Trace, job: SimulateJob, plan: IntervalSampling | RepresentativeSampling
) -> SampledValue:
    """Estimate a :class:`SimulateJob`'s report from sampled windows.

    Each window is replayed through a fresh organization after a
    discarded warm prefix (``simulate``'s own warmup machinery), or —
    in stitch mode — through one organization carried across windows in
    trace order.  The window's purge clock restarts at its (warm) start,
    a documented approximation.  The payload is a :class:`SampledReport`;
    the info's estimates are ordered (overall, instruction, data) miss
    ratios then (overall, instruction, data) traffic bytes/reference.

    Raises:
        ValueError: if the job itself requests warmup (compose the plan's
            warmup instead) or a limit shorter than the trace is combined
            with stitch mode.
    """
    if isinstance(plan, RepresentativeSampling):
        from .representative import representative_simulate

        return representative_simulate(trace, job, plan)
    if job.warmup:
        raise ValueError(
            "sampled SimulateJob cells must not set job.warmup; "
            "use the plan's warmup mode instead"
        )
    total = len(trace) if job.limit is None else min(job.limit, len(trace))
    selection = select_intervals(plan, total, trace)
    units = len(selection.intervals)
    # Columns: (overall, ifetch, data) misses then traffic bytes per side.
    miss_num = np.zeros((units, 3))
    miss_den = np.zeros((units, 3))
    traffic = np.zeros((units, 3))
    refs = np.zeros(units)
    bias_up = np.zeros((units, 6))
    bias_down = np.zeros((units, 6))
    measured = 0
    replayed = 0

    compiled = trace.compiled(job.line_size)
    lines, positions = compiled.lines, compiled.positions
    stitch = plan.warmup == "stitch"
    organization = job.build_organization() if stitch else None
    seen: np.ndarray | None = np.empty(0, dtype=np.int64) if stitch else None
    warm = plan.warmup_references

    for w, iv in enumerate(selection.intervals):
        if stitch:
            warm_start = iv.start
            organization.reset_statistics()
            # Stitch mode deliberately carries the warm organization across
            # windows (functional warming); allow_warm opts into the reuse.
            report = simulate(
                trace[iv.start : iv.stop],
                organization,
                purge_interval=job.purge_interval,
                engine=job.engine,
                allow_warm=True,
            )
        else:
            warm_start = max(0, iv.start - warm)
            report = simulate(
                trace[warm_start : iv.stop],
                job.build_organization(),
                purge_interval=job.purge_interval,
                warmup=iv.start - warm_start,
                engine=job.engine,
            )
        measured += iv.stop - iv.start
        replayed += iv.stop - warm_start
        overall = report.overall
        miss_num[w] = (
            overall.misses,
            overall.ifetch.misses + overall.fetch.misses,
            overall.read.misses + overall.write.misses,
        )
        miss_den[w] = (
            overall.references,
            overall.ifetch.references + overall.fetch.references,
            overall.read.references + overall.write.references,
        )
        traffic[w] = (
            report.overall.memory_traffic_bytes,
            report.instruction.memory_traffic_bytes,
            report.data.memory_traffic_bytes,
        )
        refs[w] = iv.stop - iv.start

        # Cold-start bounds from the line stream (rigorous for LRU demand
        # fetch; a heuristic otherwise — see docs/sampling.md).
        lo, hi = np.searchsorted(positions, [iv.start, iv.stop], side="left")
        window_lines = np.unique(lines[int(lo) : int(hi)])
        if stitch:
            cold = len(np.setdiff1d(window_lines, seen, assume_unique=True))
            cross = len(window_lines) - cold
            seen = np.union1d(seen, window_lines)
            if iv.start > 0:
                bias_up[w, :3] = cold
                bias_up[w, 3:] = cold * 2 * job.line_size
            bias_down[w, :3] = cross
            bias_down[w, 3:] = cross * 2 * job.line_size
        elif warm_start > 0:
            plo = int(np.searchsorted(positions, warm_start, side="left"))
            cold = len(np.setdiff1d(window_lines, lines[plo : int(lo)], assume_unique=False))
            bias_up[w, :3] = cold
            bias_up[w, 3:] = cold * 2 * job.line_size

    miss_estimates: list[Estimate] = []
    for column in range(3):
        miss_estimates.extend(
            ratio_estimates(
                miss_num[:, column],
                miss_den[:, column],
                expansion=selection.expansion,
                strata=selection.strata,
                bias_up=(selection.expansion * bias_up[:, column]).sum(),
                bias_down=(selection.expansion * bias_down[:, column]).sum(),
                confidence=plan.confidence,
                bootstrap=plan.bootstrap,
                seed=plan.seed + 1 + column,
                clip=(0.0, 1.0),
            )
        )
    traffic_estimates: list[Estimate] = []
    for column in range(3):
        traffic_estimates.extend(
            ratio_estimates(
                traffic[:, column],
                refs,
                expansion=selection.expansion,
                strata=selection.strata,
                bias_up=(selection.expansion * bias_up[:, 3 + column]).sum(),
                bias_down=(selection.expansion * bias_down[:, 3 + column]).sum(),
                confidence=plan.confidence,
                bootstrap=plan.bootstrap,
                seed=plan.seed + 4 + column,
                clip=(0.0, None),
            )
        )

    class_refs = miss_den.sum(axis=0)
    class_fraction = class_refs / max(1.0, refs.sum())
    sides = []
    for column in range(3):
        side_references = (
            total if column == 0 else int(round(class_fraction[column] * total))
        )
        sides.append(
            SampledStats(
                miss_ratio=miss_estimates[column].value,
                memory_traffic_bytes=int(round(traffic_estimates[column].value * total)),
                references=side_references,
            )
        )
    report = SampledReport(
        trace_name=trace.metadata.name,
        references=total,
        purge_interval=job.purge_interval,
        overall=sides[0],
        instruction=sides[1],
        data=sides[2],
    )
    info = _interval_info(
        plan,
        selection,
        measured,
        replayed,
        total,
        tuple(miss_estimates) + tuple(traffic_estimates),
    )
    return SampledValue(report, info)


# -- dispatch + calibration --------------------------------------------------


def _run_once(trace: Trace, job, plan: SamplingPlan) -> SampledValue:
    if isinstance(plan, SetSampling):
        if not isinstance(job, AssociativitySweepJob):
            raise ValueError(
                "set sampling applies to AssociativitySweepJob cells only "
                "(fully associative sweeps have a single set); use an "
                "IntervalSampling plan instead"
            )
        return sampled_associativity_sweep(trace, job, plan)
    if isinstance(job, StackSweepJob):
        return sampled_stack_sweep(trace, job, plan)
    if isinstance(job, AssociativitySweepJob):
        return sampled_associativity_sweep(trace, job, plan)
    if isinstance(job, SimulateJob):
        return sampled_simulate(trace, job, plan)
    raise ValueError(f"cannot sample a {type(job).__name__}")


def _budget_metric(estimates: tuple[Estimate, ...]) -> float:
    """Worst CI half-width relative to ``max(estimate, floor)``."""
    if not estimates:
        return 0.0
    return max(e.half_width / max(abs(e.value), _BUDGET_FLOOR) for e in estimates)


def run_sampled(trace: Trace, job, plan: SamplingPlan) -> SampledValue:
    """Execute a job under a sampling plan, calibrating if asked.

    With ``target_rel_err`` set on an :class:`IntervalSampling` plan, the
    sample fraction grows geometrically until every metric's CI
    half-width is within the budget of ``max(estimate, 1e-3)`` (the
    floor keeps near-zero cells from demanding impossible precision),
    the fraction hits ``max_fraction``, or every candidate window is
    already sampled.  The returned info reports the rounds taken, the
    cumulative replayed references, and whether the budget was met.
    """
    if getattr(plan, "target_rel_err", None) is None:
        # Set and representative plans have no fraction to grow; interval
        # plans without a budget run exactly once.
        return _run_once(trace, job, plan)

    current = plan
    rounds = 0
    replayed_total = 0
    while True:
        rounds += 1
        value = _run_once(trace, job, current)
        replayed_total += value.info.replayed_references
        met = _budget_metric(value.info.estimates) <= plan.target_rel_err
        exhausted = (
            current.fraction >= current.max_fraction
            or value.info.units_sampled >= value.info.units_total
        )
        if met or exhausted:
            break
        current = current.grown()
    info = replace(
        value.info,
        calibration_rounds=rounds,
        target_met=met,
        replayed_references=replayed_total,
    )
    return SampledValue(value.value, info)
