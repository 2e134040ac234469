"""Representative-interval simulation: SimPoint-style weighted medoids.

Stratified interval sampling (PR 4) still simulates windows from *every*
stratum, which caps its speedup near the sampled fraction.  Following
Bueno et al. ("Improving the Representativeness of Simulation Intervals
for the Cache Memory System", PAPERS.md), this module instead clusters
**all** candidate windows by a behavioral signature and simulates only
the medoid window of each cluster, weighting its contribution by the
cluster population.  The expensive part — one signature pass per trace —
is computed once and memoized on the compiled trace, so a campaign that
sweeps many cache configurations over the same trace pays it once.

**The windowed profile.**  Per-window stack-distance statistics for every
candidate window come from two interleaved :func:`set_stack_distances`
passes over the compiled line stream: pass A purges at even window
boundaries, pass B at odd ones.  Every window is then the *second* window
of a segment in exactly one pass, giving it distances measured after a
one-window warm prefix (window 0 is the first window of pass B's opening
segment and is exact); and the *first* window of a segment in the other
pass, whose cold counts are the window's distinct-line footprint.  Task
purges are merged into both passes at their absolute positions.

**The error bound.**  Prefix-warmed LRU distances can only *overcount*
misses (the prefix stack is a truncation of the true stack), and the
overcount per window is at most its cold references before any in-window
purge — zero when a purge fell in the prefix, and zero at capacity ``C``
once the prefix touched ``C`` distinct lines (the same argument
:mod:`repro.sampling.engine` uses).  Because the profile covers *every*
window, the full-trace proxy ratio brackets the truth deterministically;
:func:`repro.sampling.estimators.representative_estimates` reports the
convex hull of the weighted-medoid estimate and that bracket, widened by
the within-cluster spread of the member windows' proxy ratios.  The
bracket is rigorous for LRU demand-fetch misses (stack sweeps,
associativity sweeps, and plain LRU simulations); for other policies the
same machinery is a documented heuristic — see ``docs/sampling.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.jobs import AssociativitySweepJob, SimulateJob, StackSweepJob
from ..core.simulator import simulate
from ..core.stackdist import COLD_DISTANCE, set_stack_distances
from ..trace.stream import Trace
from .estimators import (
    Estimate,
    SampledValue,
    SamplingInfo,
    representative_estimates,
)
from .plans import Interval, RepresentativeSampling, kmeans, window_mix_features

__all__ = [
    "WindowProfile",
    "RepresentativeSelection",
    "window_profile",
    "window_signatures",
    "window_miss_counts",
    "overcount_bounds",
    "select_representatives",
    "representative_stack_sweep",
    "representative_associativity_sweep",
    "representative_simulate",
]

#: Log2 buckets for the stack-distance sketch (finite distances); one
#: extra bucket collects cold (first-touch) references.
_SKETCH_BUCKETS = 12


def _window_bounds(total: int, window: int) -> tuple[np.ndarray, np.ndarray]:
    """Candidate-window ``(starts, stops)`` in trace positions.

    ``total // window`` windows; the last absorbs the tail so the windows
    partition the whole trace (required for the proxy bracket).  A trace
    shorter than one window is a single whole-trace window.
    """
    count = max(1, total // window)
    starts = np.arange(count, dtype=np.int64) * window
    stops = np.append(starts[1:], np.int64(total))
    return starts, stops


@dataclass(frozen=True)
class WindowProfile:
    """Per-window warm-prefixed stack statistics over one line stream.

    Attributes:
        starts / stops: window bounds in trace positions (the windows
            partition the trace).
        win: window id per (filtered) line reference.
        measured: per-reference stack distances from each window's
            measuring pass — warmed by the preceding window (window 0 is
            exact); :data:`~repro.core.stackdist.COLD_DISTANCE` marks
            first touches.
        refs: line references per window.
        trace_refs: trace references per window (``stops - starts``).
        distinct: distinct lines touched per window (the fresh pass's
            cold counts; exact for purge-free windows).
        cold: measured-pass cold references before the first in-window
            purge — the raw per-window overcount bound.
        exact: windows whose measured distances are exact (window 0, and
            any window whose warm prefix contained a purge).
        first_touch: globally-first-touched lines per window (the
            footprint-growth curve's increments).
        sketch: ``(windows, buckets+1)`` log2-bucketed counts of the
            fresh-pass distances; the last column is the cold bucket.
        ranked: ``win * (n + 2) + min(measured, n + 1)`` in ascending
            order (``n`` line references): each window's measured
            distances sorted within its own slice, so any threshold's
            per-window miss counts are one ``searchsorted`` away.
    """

    starts: np.ndarray
    stops: np.ndarray
    win: np.ndarray
    measured: np.ndarray
    refs: np.ndarray
    trace_refs: np.ndarray
    distinct: np.ndarray
    cold: np.ndarray
    exact: np.ndarray
    first_touch: np.ndarray
    sketch: np.ndarray
    ranked: np.ndarray

    @property
    def windows(self) -> int:
        return len(self.starts)


def window_profile(
    trace: Trace,
    line_size: int,
    window: int,
    *,
    kinds: tuple[int, ...] | None = None,
    purge_interval: int | None = None,
    num_sets: int = 1,
) -> WindowProfile:
    """The (memoized) windowed profile of ``trace`` for one stream variant."""
    compiled = trace.compiled(line_size)
    kind_key = None if kinds is None else tuple(sorted(int(k) for k in kinds))
    key = ("repr-windows", window, kind_key, purge_interval, num_sets)
    return compiled.memo(
        key,
        lambda: _build_profile(
            compiled, len(trace), window, kinds, purge_interval, num_sets
        ),
    )


def _merge_resets(
    boundaries: np.ndarray, purges: np.ndarray | None
) -> np.ndarray | None:
    if purges is None or not len(purges):
        merged = boundaries
    else:
        merged = np.union1d(boundaries, purges)
    merged = merged[merged > 0]
    return merged if len(merged) else None


def _build_profile(
    compiled,
    total: int,
    window: int,
    kinds: tuple[int, ...] | None,
    purge_interval: int | None,
    num_sets: int,
) -> WindowProfile:
    if kinds is not None:
        mask = np.isin(compiled.kinds, [int(k) for k in kinds])
        lines = compiled.lines[mask]
        positions = compiled.positions[mask]
    else:
        lines = compiled.lines
        positions = compiled.positions
    starts, stops = _window_bounds(total, window)
    count = len(starts)
    n = len(lines)

    # Line-reference index of each window boundary; window id per line ref.
    cuts = np.searchsorted(positions, starts, side="left").astype(np.int64)
    edges = np.append(cuts, np.int64(n))
    refs = np.diff(edges)
    win = np.searchsorted(starts, positions, side="right") - 1

    # Purge resets at absolute positions (the same epoch rule as the
    # exact curve), merged into both boundary-reset passes.
    if purge_interval is not None and n:
        epoch = positions // purge_interval
        purges = np.nonzero(np.diff(epoch) > 0)[0] + 1
    else:
        purges = None
    reset_a = _merge_resets(cuts[2::2], purges)
    reset_b = _merge_resets(cuts[1::2], purges)

    if n:
        dist_a = set_stack_distances(lines, num_sets, reset_a)
        dist_b = set_stack_distances(lines, num_sets, reset_b)
    else:
        dist_a = dist_b = np.empty(0, dtype=np.int64)
    odd = (win & 1).astype(bool)
    # A window is the second window of a segment in exactly one pass:
    # odd windows in pass A (segments start at even boundaries), even
    # windows in pass B.  The other pass starts a segment *at* the
    # window, so its cold counts are the window's own footprint.
    measured = np.where(odd, dist_a, dist_b)
    fresh = np.where(odd, dist_b, dist_a)

    fresh_cold = fresh == COLD_DISTANCE
    distinct = np.bincount(win[fresh_cold], minlength=count)

    # First in-window purge bounds the overcount region; a purge in the
    # warm prefix (the preceding window) makes the measured state exact.
    window_ends = edges[1:]
    if purges is not None and len(purges):
        slot = np.searchsorted(purges, cuts)
        first_purge = np.where(
            slot < len(purges), purges[np.minimum(slot, len(purges) - 1)], n
        )
        has_purge = first_purge < window_ends
        bias_end = np.where(has_purge, first_purge, window_ends)
        exact = np.concatenate([[True], has_purge[:-1]])
    else:
        bias_end = window_ends
        exact = np.zeros(count, dtype=bool)
        exact[0] = True

    cold_cumulative = np.concatenate(
        [[0], np.cumsum(measured == COLD_DISTANCE)]
    )
    cold = (cold_cumulative[bias_end] - cold_cumulative[cuts]).astype(np.int64)
    cold[exact] = 0

    # Footprint-growth increments: windows where each line is first seen.
    if n:
        _, first_index = np.unique(lines, return_index=True)
        first_touch = np.bincount(win[first_index], minlength=count)
    else:
        first_touch = np.zeros(count, dtype=np.int64)

    # Log-bucketed sketch of the fresh distances (cold in the last column).
    if n:
        finite = ~fresh_cold
        buckets = np.zeros(n, dtype=np.int64)
        safe = np.maximum(fresh, 1)
        buckets[finite] = np.minimum(
            np.log2(safe[finite]).astype(np.int64), _SKETCH_BUCKETS - 1
        )
        buckets[fresh_cold] = _SKETCH_BUCKETS
        sketch = np.bincount(
            win * (_SKETCH_BUCKETS + 1) + buckets,
            minlength=count * (_SKETCH_BUCKETS + 1),
        ).reshape(count, _SKETCH_BUCKETS + 1)
    else:
        sketch = np.zeros((count, _SKETCH_BUCKETS + 1), dtype=np.int64)

    return WindowProfile(
        starts=starts,
        stops=stops,
        win=win,
        measured=measured,
        refs=refs,
        trace_refs=(stops - starts).astype(np.int64),
        distinct=distinct,
        cold=cold,
        exact=exact,
        first_touch=first_touch,
        sketch=sketch,
        ranked=np.sort(win * (n + 2) + np.minimum(measured, n + 1)),
    )


def window_miss_counts(profile: WindowProfile, thresholds: np.ndarray) -> np.ndarray:
    """Prefix-warmed miss counts, shape ``(windows, thresholds)``.

    A reference misses a threshold (capacity in lines, or ways for a
    per-set profile) iff its measured distance exceeds it; cold
    references miss every threshold.
    """
    n = len(profile.measured)
    # Finite distances are at most n, so a threshold above n acts as n
    # (cold references, ranked at n + 1, still miss it).
    clipped = np.minimum(np.asarray(thresholds, dtype=np.int64), n)
    queries = np.arange(profile.windows, dtype=np.int64)[:, None] * (n + 2)
    queries = queries + clipped[None, :]
    at_or_below = np.searchsorted(profile.ranked, queries.ravel(), side="right")
    window_ends = np.cumsum(profile.refs)
    return (window_ends[:, None] - at_or_below.reshape(queries.shape)).astype(float)


def overcount_bounds(
    profile: WindowProfile, thresholds: np.ndarray, *, refine: bool = True
) -> np.ndarray:
    """Per-window overcount bounds, shape ``(windows, thresholds)``.

    At most the window's cold references before any in-window purge;
    with ``refine`` (valid for fully associative profiles) additionally
    capped by ``max(0, threshold - prefix_distinct)`` — once the warm
    prefix touched ``threshold`` distinct lines the prefix-warmed stack
    top is the true stack top and the overcount is zero.
    """
    thresholds = np.asarray(thresholds, dtype=np.int64)
    bias = np.broadcast_to(
        profile.cold[:, None].astype(float), (profile.windows, len(thresholds))
    ).copy()
    if refine:
        prefix_distinct = np.concatenate([[0], profile.distinct[:-1]])
        bias = np.minimum(
            bias, np.maximum(0, thresholds[None, :] - prefix_distinct[:, None])
        )
    bias[profile.exact] = 0.0
    return bias


# -- signatures + selection ---------------------------------------------------


def window_signatures(trace: Trace, line_size: int, window: int) -> np.ndarray:
    """Standardized behavioral signatures, one row per candidate window.

    Columns: reference mix (ifetch/read/write fractions), branch
    fraction, footprint bytes per reference, within-window distinct-line
    density, footprint-growth increment density, and the log-bucketed
    stack-distance sketch as fractions of the window's line references —
    everything from one vectorized sweep plus the shared windowed
    profile.
    """
    compiled = trace.compiled(line_size)
    return compiled.memo(
        ("repr-signatures", window), lambda: _build_signatures(trace, line_size, window)
    )


def _build_signatures(trace: Trace, line_size: int, window: int) -> np.ndarray:
    from .plans import _standardize

    profile = window_profile(trace, line_size, window)
    count = profile.windows
    mix = window_mix_features(trace, count, window)
    line_refs = np.maximum(profile.refs, 1).astype(float)
    trace_refs = np.maximum(profile.trace_refs, 1).astype(float)
    columns = [
        mix,
        (profile.distinct / trace_refs)[:, None],
        (profile.first_touch / trace_refs)[:, None],
        profile.sketch / line_refs[:, None],
    ]
    return _standardize(np.column_stack(columns))


@dataclass(frozen=True)
class RepresentativeSelection:
    """The medoid windows a :class:`RepresentativeSampling` plan picked.

    Attributes:
        intervals: one medoid window per (nonempty) cluster, ascending by
            start; ``stratum`` is the cluster index.
        indices: candidate-window index of each medoid.
        weights: cluster populations (member window counts), aligned with
            ``intervals``; they sum to ``candidates``.
        labels: cluster index per candidate window, aligned with the
            medoid order.
        candidates: total candidate windows the trace offered.
    """

    intervals: tuple[Interval, ...]
    indices: np.ndarray
    weights: np.ndarray
    labels: np.ndarray
    candidates: int


def select_representatives(
    trace: Trace, line_size: int, plan: RepresentativeSampling
) -> RepresentativeSelection:
    """Cluster the candidate windows and pick one weighted medoid each.

    Deterministic for a given plan (the k-means seeding is the only
    randomness), so representative-sampled campaigns are bit-identical
    across runs and worker counts.  An empty trace yields no medoids; a
    trace shorter than two windows yields a single whole-trace medoid
    (the estimate is then exact).
    """
    total = len(trace)
    if total == 0:
        return RepresentativeSelection(
            (),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=float),
            np.empty(0, dtype=np.int64),
            0,
        )
    compiled = trace.compiled(line_size)
    key = ("repr-selection", plan.window, plan.clusters, plan.seed, plan.iterations)
    return compiled.memo(key, lambda: _build_selection(trace, line_size, plan))


def _build_selection(
    trace: Trace, line_size: int, plan: RepresentativeSampling
) -> RepresentativeSelection:
    profile = window_profile(trace, line_size, plan.window)
    features = window_signatures(trace, line_size, plan.window)
    count = profile.windows
    rng = np.random.default_rng(plan.seed)
    labels, centers = kmeans(
        features, min(plan.clusters, count), rng, plan.iterations
    )

    medoid_of: list[int] = []
    weight_of: list[int] = []
    cluster_of: list[int] = []
    for cluster in np.unique(labels).tolist():
        members = np.nonzero(labels == cluster)[0]
        gaps = ((features[members] - centers[cluster]) ** 2).sum(axis=1)
        medoid_of.append(int(members[int(np.argmin(gaps))]))
        weight_of.append(len(members))
        cluster_of.append(cluster)
    order = np.argsort(medoid_of, kind="stable")

    indices = np.asarray(medoid_of, dtype=np.int64)[order]
    weights = np.asarray(weight_of, dtype=float)[order]
    relabel = {cluster_of[int(o)]: rank for rank, o in enumerate(order)}
    out_labels = np.asarray([relabel[int(c)] for c in labels], dtype=np.int64)
    intervals = tuple(
        Interval(int(profile.starts[m]), int(profile.stops[m]), rank)
        for rank, m in enumerate(indices.tolist())
    )
    return RepresentativeSelection(intervals, indices, weights, out_labels, count)


# -- sampled execution --------------------------------------------------------


def _representative_info(
    plan: RepresentativeSampling,
    selection: RepresentativeSelection,
    total: int,
    estimates: tuple[Estimate, ...],
) -> SamplingInfo:
    medoids = selection.indices
    if len(medoids):
        starts = np.asarray([iv.start for iv in selection.intervals])
        stops = np.asarray([iv.stop for iv in selection.intervals])
        measured = int((stops - starts).sum())
        replayed = measured + int(np.count_nonzero(medoids > 0)) * plan.window
    else:
        measured = replayed = 0
    return SamplingInfo(
        plan=plan.identity(),
        unit="representative",
        units_sampled=len(medoids),
        units_total=selection.candidates,
        measured_references=measured,
        replayed_references=replayed,
        total_references=total,
        estimates=estimates,
    )


def representative_stack_sweep(
    trace: Trace, job: StackSweepJob, plan: RepresentativeSampling
) -> SampledValue:
    """Estimate a :class:`StackSweepJob` curve from weighted medoids.

    The medoid windows' prefix-warmed miss counts give the weighted point
    estimate; the full windowed profile gives the deterministic proxy
    bracket (rigorous here — the job *is* LRU demand fetch), so the truth
    is guaranteed inside the reported interval.
    """
    capacities = np.asarray(job.sizes, dtype=np.int64)
    if len(capacities) and (
        (capacities <= 0).any() or (capacities % job.line_size != 0).any()
    ):
        raise ValueError(
            f"capacities must be positive multiples of line_size={job.line_size}"
        )
    if job.purge_interval is not None and job.purge_interval <= 0:
        raise ValueError(f"purge_interval must be positive, got {job.purge_interval}")
    caps_lines = capacities // job.line_size
    total = len(trace)
    selection = select_representatives(trace, job.line_size, plan)
    if not selection.intervals:
        nan = float("nan")
        estimates = tuple(Estimate(nan, nan, nan, plan.confidence) for _ in caps_lines)
        return SampledValue(
            tuple(nan for _ in caps_lines),
            _representative_info(plan, selection, total, estimates),
        )

    profile = window_profile(
        trace,
        job.line_size,
        plan.window,
        kinds=None if job.kinds is None else tuple(int(k) for k in job.kinds),
        purge_interval=job.purge_interval,
    )
    counts = window_miss_counts(profile, caps_lines)
    bias = overcount_bounds(profile, caps_lines)
    medoids = selection.indices
    estimates = representative_estimates(
        counts[medoids],
        profile.refs[medoids].astype(float),
        selection.weights,
        proxy_numerators=counts,
        proxy_denominators=profile.refs.astype(float),
        labels=selection.labels,
        bias_up=bias.sum(axis=0),
        confidence=plan.confidence,
        clip=(0.0, 1.0),
    )
    value = tuple(e.value for e in estimates)
    info = _representative_info(plan, selection, total, tuple(estimates))
    return SampledValue(value, info)


def representative_associativity_sweep(
    trace: Trace, job: AssociativitySweepJob, plan: RepresentativeSampling
) -> SampledValue:
    """Estimate an :class:`AssociativitySweepJob` surface from medoids.

    Each set-count group gets its own per-set windowed profile; the
    proxy bracket holds per cell (the sweep is LRU demand fetch), with
    the unrefined cold bound for multi-set groups.
    """
    from .engine import _surface_cells

    groups, rows, cols = _surface_cells(job)
    total = len(trace)
    selection = select_representatives(trace, job.line_size, plan)
    metrics = rows * cols
    if not selection.intervals:
        nan = float("nan")
        estimates = tuple(Estimate(nan, nan, nan, plan.confidence) for _ in range(metrics))
        surface = tuple(tuple(nan for _ in range(cols)) for _ in range(rows))
        return SampledValue(
            surface, _representative_info(plan, selection, total, estimates)
        )

    medoids = selection.indices
    estimates: list[Estimate | None] = [None] * metrics
    for num_sets, cells in groups.items():
        profile = window_profile(trace, job.line_size, plan.window, num_sets=num_sets)
        ways = sorted({way for _i, _j, way in cells})
        thresholds = np.asarray(ways, dtype=np.int64)
        counts = window_miss_counts(profile, thresholds)
        bias = overcount_bounds(profile, thresholds, refine=num_sets == 1)
        group_estimates = representative_estimates(
            counts[medoids],
            profile.refs[medoids].astype(float),
            selection.weights,
            proxy_numerators=counts,
            proxy_denominators=profile.refs.astype(float),
            labels=selection.labels,
            bias_up=bias.sum(axis=0),
            confidence=plan.confidence,
            clip=(0.0, 1.0),
        )
        column_of = {way: column for column, way in enumerate(ways)}
        for i, j, way in cells:
            estimates[i * cols + j] = group_estimates[column_of[way]]

    surface = tuple(
        tuple(estimates[i * cols + j].value for j in range(cols)) for i in range(rows)
    )
    info = _representative_info(plan, selection, total, tuple(estimates))
    return SampledValue(surface, info)


def representative_simulate(
    trace: Trace, job: SimulateJob, plan: RepresentativeSampling
) -> SampledValue:
    """Estimate a :class:`SimulateJob` report from weighted medoids.

    Each medoid window is replayed through a fresh organization after a
    discarded one-window warm prefix (``simulate``'s own warmup
    machinery); the window's purge clock restarts at its warm start, the
    same documented approximation interval sampling makes.  The overall
    miss ratio gets the rigorous proxy bracket when the organization is
    an unsplit LRU demand cache; the per-side ratios and traffic carry
    the overall estimate's relative width as a heuristic interval (see
    ``docs/sampling.md``).
    """
    from .engine import SampledReport, SampledStats

    if job.warmup:
        raise ValueError(
            "sampled SimulateJob cells must not set job.warmup; "
            "use the plan's warmup mode instead"
        )
    total = len(trace) if job.limit is None else min(job.limit, len(trace))
    if total < len(trace):
        trace = trace[:total]
    selection = select_representatives(trace, job.line_size, plan)
    if not selection.intervals:
        nan = float("nan")
        estimates = tuple(Estimate(nan, nan, nan, plan.confidence) for _ in range(6))
        sides = SampledStats(nan, 0, 0)
        report = SampledReport(
            trace_name=trace.metadata.name,
            references=total,
            purge_interval=job.purge_interval,
            overall=sides,
            instruction=sides,
            data=sides,
        )
        return SampledValue(
            report, _representative_info(plan, selection, total, estimates)
        )

    units = len(selection.intervals)
    miss_num = np.zeros((units, 3))
    miss_den = np.zeros((units, 3))
    traffic = np.zeros((units, 3))
    refs = np.zeros(units)
    for w, iv in enumerate(selection.intervals):
        warm_start = max(0, iv.start - plan.window)
        report = simulate(
            trace[warm_start : iv.stop],
            job.build_organization(),
            purge_interval=job.purge_interval,
            warmup=iv.start - warm_start,
            engine=job.engine,
        )
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

    # Overall-miss proxy from the matching LRU geometry: fully
    # associative at the capacity, or per-set at the associativity.
    num_lines = max(1, job.size // job.line_size)
    if job.associativity is None:
        num_sets, threshold = 1, num_lines
    else:
        num_sets = max(1, num_lines // job.associativity)
        threshold = job.associativity if num_sets > 1 else num_lines
    profile = window_profile(
        trace,
        job.line_size,
        plan.window,
        purge_interval=job.purge_interval,
        num_sets=num_sets,
    )
    counts = window_miss_counts(profile, np.asarray([threshold]))
    bias = overcount_bounds(profile, np.asarray([threshold]), refine=num_sets == 1)
    overall_estimate = representative_estimates(
        miss_num[:, 0],
        miss_den[:, 0],
        selection.weights,
        proxy_numerators=counts,
        proxy_denominators=profile.refs.astype(float),
        labels=selection.labels,
        bias_up=bias.sum(axis=0),
        confidence=plan.confidence,
        clip=(0.0, 1.0),
    )[0]

    # Per-side and traffic estimates: weighted medoid points, with the
    # overall estimate's relative half-width as a heuristic interval.
    relative = overall_estimate.half_width / max(abs(overall_estimate.value), 1e-3)

    def weighted(numerator: np.ndarray, denominator: np.ndarray) -> float:
        den = float((selection.weights * denominator).sum())
        if den <= 0:
            return float("nan")
        return float((selection.weights * numerator).sum() / den)

    def scaled(value: float, high_clip: float | None) -> Estimate:
        if not np.isfinite(value):
            return Estimate(value, value, value, plan.confidence)
        spread = abs(value) * relative
        low = max(0.0, value - spread)
        high = value + spread
        if high_clip is not None:
            high = min(high, high_clip)
        return Estimate(value, min(low, value), max(high, value), plan.confidence)

    miss_estimates = [overall_estimate]
    for column in (1, 2):
        miss_estimates.append(scaled(weighted(miss_num[:, column], miss_den[:, column]), 1.0))
    traffic_estimates = [
        scaled(weighted(traffic[:, column], refs), None) for column in range(3)
    ]

    class_refs = miss_den.T @ selection.weights
    class_fraction = class_refs / max(1.0, float((selection.weights * refs).sum()))
    sides = []
    for column in range(3):
        side_references = (
            total if column == 0 else int(round(class_fraction[column] * total))
        )
        sides.append(
            SampledStats(
                miss_ratio=miss_estimates[column].value,
                memory_traffic_bytes=int(
                    round(traffic_estimates[column].value * total)
                ),
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
    info = _representative_info(
        plan, selection, total, tuple(miss_estimates) + tuple(traffic_estimates)
    )
    return SampledValue(report, info)
