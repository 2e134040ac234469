"""Sampling plans: *which* fraction of the work a sampled run performs.

Two orthogonal families are supported, mirroring the two classic ways of
shrinking a trace-driven cache study:

* **Interval (time) sampling** (:class:`IntervalSampling`) — simulate only
  periodic or randomly chosen windows of the reference stream and
  extrapolate.  Window starts can be systematic (evenly spaced),
  seeded-random, or stratified by program phase, where phases are found by
  clustering per-window reference-mix features from
  :mod:`repro.trace.characteristics` (kind fractions, branch fraction,
  footprint) — the representativeness idea of Bueno et al.
* **Set sampling** (:class:`SetSampling`) — simulate only a hash-selected
  subset of cache sets.  Because the engine's set mapping is bit selection
  (``line & (num_sets - 1)``), keeping the lines whose low ``bits`` address
  bits fall in a chosen class selects *exactly* ``keep / 2**bits`` of the
  sets of every geometry with at least ``2**bits`` sets, and the kept
  sets' reference streams are exact — no warmup bias at all.

A third plan, :class:`RepresentativeSampling`, pushes the stratified idea
to its SimPoint-style conclusion: cluster *all* candidate windows by a
behavioral signature and simulate only the medoid window of each cluster,
weighted by cluster population (see :mod:`repro.sampling.representative`).

All plans are frozen, picklable, and expose :meth:`identity` so a sampled
campaign cell keys the result cache on the plan as well as the work.
All randomness is drawn from ``numpy`` generators seeded by the plan, so a
sampled campaign is bit-identical across runs and worker counts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Union

import numpy as np

from ..trace.stream import Trace

__all__ = [
    "Interval",
    "IntervalSampling",
    "RepresentativeSampling",
    "SetSampling",
    "SamplingPlan",
    "SelectedIntervals",
    "kmeans",
    "select_intervals",
    "select_set_classes",
    "window_mix_features",
]

#: Interval-selection modes.
INTERVAL_MODES = ("systematic", "random", "stratified")

#: Cold-start handling per sampled interval.
WARMUP_MODES = ("cold", "discard", "stitch")


@dataclass(frozen=True)
class IntervalSampling:
    """An interval (time) sampling plan.

    Attributes:
        fraction: target fraction of the trace's references to *measure*
            (warmup replays come on top; see ``warmup_fraction``).
        window: references per sampled window.
        mode: how window starts are chosen — ``"systematic"`` (evenly
            spaced with a seeded phase), ``"random"`` (seeded sampling
            without replacement), or ``"stratified"`` (windows clustered
            into phases by reference-mix features, then sampled
            proportionally per phase).
        warmup: cold-start handling — ``"cold"`` (no mitigation; the bias
            bound widens the interval instead), ``"discard"`` (replay a
            prefix of ``warmup_fraction * window`` references before each
            window and discard its statistics), or ``"stitch"``
            (functional warming: one LRU state carried across the sampled
            windows in trace order).
        warmup_fraction: prefix length for ``"discard"``, as a fraction of
            the window.
        strata: number of phases for ``"stratified"``.
        seed: base seed for window choice, clustering and the bootstrap.
        confidence: CI confidence level (default 95%).
        bootstrap: bootstrap replicates for the CI (0 = point estimate
            with a bias-bound-only interval).
        target_rel_err: if set, :func:`repro.sampling.run_sampled` grows
            the fraction (by ``growth``, up to ``max_fraction``) until the
            worst relative CI half-width fits this budget.
        max_fraction: calibration ceiling on ``fraction``.
        growth: multiplicative calibration step.

    Raises:
        ValueError: for a non-positive/overlarge fraction, non-positive
            window, or unknown mode names.
    """

    fraction: float = 0.1
    window: int = 2000
    mode: str = "systematic"
    warmup: str = "discard"
    warmup_fraction: float = 0.5
    strata: int = 4
    seed: int = 0
    confidence: float = 0.95
    bootstrap: int = 200
    target_rel_err: float | None = None
    max_fraction: float = 0.5
    growth: float = 1.6

    def __post_init__(self) -> None:
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError(
                f"fraction must be in (0, 1], got {self.fraction} "
                "(an empty sampling plan measures nothing)"
            )
        if self.window <= 0:
            raise ValueError(f"window must be positive, got {self.window}")
        if self.mode not in INTERVAL_MODES:
            raise ValueError(f"mode must be one of {INTERVAL_MODES}, got {self.mode!r}")
        if self.warmup not in WARMUP_MODES:
            raise ValueError(
                f"warmup must be one of {WARMUP_MODES}, got {self.warmup!r}"
            )
        if self.warmup_fraction < 0:
            raise ValueError(
                f"warmup_fraction must be non-negative, got {self.warmup_fraction}"
            )
        if self.strata <= 0:
            raise ValueError(f"strata must be positive, got {self.strata}")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(f"confidence must be in (0, 1), got {self.confidence}")
        if self.bootstrap < 0:
            raise ValueError(f"bootstrap must be non-negative, got {self.bootstrap}")
        if self.target_rel_err is not None and self.target_rel_err <= 0:
            raise ValueError(
                f"target_rel_err must be positive, got {self.target_rel_err}"
            )
        if not self.fraction <= self.max_fraction <= 1.0:
            raise ValueError(
                f"need fraction <= max_fraction <= 1, got "
                f"{self.fraction}/{self.max_fraction}"
            )
        if self.growth <= 1.0:
            raise ValueError(f"growth must exceed 1, got {self.growth}")

    @property
    def warmup_references(self) -> int:
        """Warmup prefix per window in references (0 unless ``discard``)."""
        if self.warmup != "discard":
            return 0
        return int(round(self.window * self.warmup_fraction))

    def grown(self, factor: float | None = None) -> "IntervalSampling":
        """The next calibration step: same plan, a larger fraction."""
        factor = self.growth if factor is None else factor
        return replace(self, fraction=min(self.max_fraction, self.fraction * factor))

    def identity(self) -> dict:
        """JSON-able identity (enters the campaign cache key)."""
        return {
            "plan": "interval",
            "fraction": self.fraction,
            "window": self.window,
            "mode": self.mode,
            "warmup": self.warmup,
            "warmup_fraction": self.warmup_fraction,
            "strata": self.strata,
            "seed": self.seed,
            "confidence": self.confidence,
            "bootstrap": self.bootstrap,
            "target_rel_err": self.target_rel_err,
            "max_fraction": self.max_fraction,
            "growth": self.growth,
        }


@dataclass(frozen=True)
class SetSampling:
    """A set-sampling plan: simulate ``keep`` of ``2**bits`` set classes.

    Lines are partitioned by their low ``bits`` address bits (the same
    bits the engine's set mapping uses), and only the lines of ``keep``
    seeded-randomly chosen classes are simulated.  For any geometry with
    at least ``2**bits`` sets the kept classes are a union of whole sets,
    so their per-set streams — and hence their hit counts — are **exact**;
    the only error is extrapolating from the kept sets to the rest, which
    the bootstrap over classes quantifies.  Geometries with fewer sets
    (including fully associative rows) are computed exactly on the full
    stream instead.

    Attributes:
        bits: low address bits defining ``2**bits`` classes.
        keep: classes simulated.  With ``keep=1`` there is no cross-class
            variance information, so the reported CI collapses to the
            point estimate; use at least 2 for a meaningful interval.
        seed: class-choice and bootstrap seed.
        confidence: CI confidence level.
        bootstrap: bootstrap replicates over classes.
    """

    bits: int = 3
    keep: int = 2
    seed: int = 0
    confidence: float = 0.95
    bootstrap: int = 200

    def __post_init__(self) -> None:
        if self.bits <= 0:
            raise ValueError(f"bits must be positive, got {self.bits}")
        if not 0 < self.keep <= 2**self.bits:
            raise ValueError(
                f"keep must be in 1..2**bits={2**self.bits}, got {self.keep} "
                "(an empty sampling plan measures nothing)"
            )
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(f"confidence must be in (0, 1), got {self.confidence}")
        if self.bootstrap < 0:
            raise ValueError(f"bootstrap must be non-negative, got {self.bootstrap}")

    @property
    def classes(self) -> int:
        """Total number of set classes (``2**bits``)."""
        return 2**self.bits

    def identity(self) -> dict:
        """JSON-able identity (enters the campaign cache key)."""
        return {
            "plan": "set",
            "bits": self.bits,
            "keep": self.keep,
            "seed": self.seed,
            "confidence": self.confidence,
            "bootstrap": self.bootstrap,
        }


@dataclass(frozen=True)
class RepresentativeSampling:
    """A representative-interval plan (SimPoint-style, per Bueno et al.).

    Instead of *sampling* windows from every stratum, cluster all candidate
    windows by a behavioral signature — reference mix, branch fraction,
    within-window footprint, footprint growth, and a log-bucketed
    stack-distance sketch — and simulate only the **medoid** window of each
    cluster, weighting its contribution by the cluster population.  The
    one-time signature pass per trace is amortized across every cache
    configuration simulated against that trace; the marginal cost of one
    more configuration is a handful of windows.

    See :mod:`repro.sampling.representative` for the machinery and
    :func:`repro.sampling.estimators.representative_estimates` for the
    error-bound semantics.

    Attributes:
        clusters: behavioral clusters, i.e. representative windows
            simulated (fewer when the trace offers fewer candidates).
        window: references per candidate window.
        seed: k-means seeding — the only randomness; selection is
            bit-identical across runs and worker counts.
        confidence: nominal confidence carried into the reported
            estimates.
        iterations: Lloyd iterations for the signature clustering.
    """

    clusters: int = 8
    window: int = 2000
    seed: int = 0
    confidence: float = 0.95
    iterations: int = 25

    def __post_init__(self) -> None:
        if self.clusters <= 0:
            raise ValueError(f"clusters must be positive, got {self.clusters}")
        if self.window <= 0:
            raise ValueError(f"window must be positive, got {self.window}")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(f"confidence must be in (0, 1), got {self.confidence}")
        if self.iterations <= 0:
            raise ValueError(f"iterations must be positive, got {self.iterations}")

    def identity(self) -> dict:
        """JSON-able identity (enters the campaign cache key)."""
        return {
            "plan": "representative",
            "clusters": self.clusters,
            "window": self.window,
            "seed": self.seed,
            "confidence": self.confidence,
            "iterations": self.iterations,
        }


SamplingPlan = Union[IntervalSampling, SetSampling, RepresentativeSampling]


@dataclass(frozen=True)
class Interval:
    """One sampled window: trace references ``[start, stop)``."""

    start: int
    stop: int
    stratum: int = 0


@dataclass(frozen=True)
class SelectedIntervals:
    """The concrete windows an :class:`IntervalSampling` plan picked.

    Attributes:
        intervals: the sampled windows, ascending by start.
        expansion: per-interval expansion factor ``N_h / k_h`` (candidate
            windows over sampled windows in the interval's stratum) — the
            stratified estimator's weights.
        strata: per-interval stratum labels (all zero unless stratified).
        candidates: total candidate windows the trace offered.
    """

    intervals: tuple[Interval, ...]
    expansion: np.ndarray
    strata: np.ndarray
    candidates: int


def select_set_classes(plan: SetSampling) -> tuple[int, ...]:
    """The ``keep`` class ids (of ``2**bits``) this plan simulates."""
    rng = np.random.default_rng(plan.seed)
    chosen = rng.choice(plan.classes, size=plan.keep, replace=False)
    return tuple(sorted(int(c) for c in chosen))


def _standardize(features: np.ndarray) -> np.ndarray:
    """Center and scale feature columns; constant columns stay zero."""
    center = features - features.mean(axis=0)
    scale = features.std(axis=0)
    scale[scale == 0] = 1.0
    return center / scale


def window_mix_features(trace: Trace, candidates: int, window: int) -> np.ndarray:
    """Raw reference-mix features, one row per candidate window.

    The same observable "phase" signature as
    :func:`repro.trace.characteristics.characterize` — kind fractions,
    branch fraction, and footprint bytes per reference — but computed for
    all windows in one vectorized sweep instead of per-window slicing
    (the slice-and-characterize loop dominated stratified selection on
    long traces).  Columns: ifetch, read, write fractions; branch
    fraction; footprint bytes per reference.
    """
    from ..trace.characteristics import BRANCH_WINDOW_BYTES, FOOTPRINT_LINE_SIZE
    from ..trace.record import AccessKind

    limit = min(len(trace), candidates * window)
    # Window w covers trace references [edges[w], edges[w + 1]); per-window
    # counts of any sorted index array are one searchsorted of the edges.
    edges = np.minimum(np.arange(candidates + 1, dtype=np.int64) * window, limit)
    sizes = np.diff(edges)
    lengths = sizes.astype(float)
    lengths[lengths == 0] = 1.0

    def per_window(indices: np.ndarray, bounds: np.ndarray = edges) -> np.ndarray:
        return np.diff(np.searchsorted(indices, bounds)).astype(float)

    kinds = trace.kinds[:limit]
    ifetch = np.flatnonzero(kinds == int(AccessKind.IFETCH))
    fetches = per_window(ifetch)
    mix = np.column_stack(
        [
            fetches,
            per_window(np.flatnonzero(kinds == int(AccessKind.READ))),
            per_window(np.flatnonzero(kinds == int(AccessKind.WRITE))),
        ]
    )
    mix /= lengths[:, None]

    # Branch heuristic over consecutive same-window ifetch pairs — exactly
    # the pairs a per-window slice would see (m ifetches make m - 1 pairs).
    branch = np.zeros(candidates, dtype=float)
    if len(ifetch) >= 2:
        win = np.repeat(np.arange(candidates, dtype=np.int64), sizes)[ifetch]
        delta = np.diff(trace.addresses[:limit][ifetch])
        taken = (win[1:] == win[:-1]) & ((delta < 0) | (delta > BRANCH_WINDOW_BYTES))
        pairs = np.maximum(fetches - 1, 0)
        counts = per_window(ifetch[:-1][taken])
        branch = np.divide(
            counts, pairs, out=np.zeros(candidates, dtype=float), where=pairs > 0
        )

    # Footprint bytes per reference: distinct (line, code/data/fetch) pairs
    # per window over the compiled line stream, matching how
    # ``characterize`` counts instruction and data lines separately.
    compiled = trace.compiled(FOOTPRINT_LINE_SIZE)
    line_edges = np.searchsorted(compiled.positions, edges)
    inside = int(line_edges[-1])
    line_win = np.repeat(np.arange(candidates, dtype=np.int64), np.diff(line_edges))
    group = np.ones(max(AccessKind) + 1, dtype=np.int64)
    group[int(AccessKind.IFETCH)] = 0
    group[int(AccessKind.FETCH)] = 2
    key = compiled.lines[:inside] * 3 + group[compiled.kinds[:inside]]
    span = int(key.max()) + 1 if inside else 1
    if candidates * span < 1 << 62:
        # One int64 sort of window-major packed keys (a lexsort is
        # several times slower).
        ordered = np.sort(line_win * span + key)
        repeat = ordered[1:] == ordered[:-1]
    else:
        ordered = key[np.lexsort((key, line_win))]
        repeat = (ordered[1:] == ordered[:-1]) & (line_win[1:] == line_win[:-1])
    # Both orders are window-major, so window w keeps its line_edges slice;
    # within it, a repeat of the previous key is no new footprint.
    footprint = np.diff(line_edges) - per_window(np.flatnonzero(repeat) + 1, line_edges)
    density = footprint * FOOTPRINT_LINE_SIZE / lengths

    return np.column_stack([mix, branch, density])


def _window_features(trace: Trace, starts: np.ndarray, window: int) -> np.ndarray:
    """Standardized reference-mix features, one row per candidate window."""
    return _standardize(window_mix_features(trace, len(starts), window))


def kmeans(
    features: np.ndarray, clusters: int, rng: np.random.Generator, iterations: int = 10
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded Lloyd iterations returning ``(labels, centers)``.

    Deterministic for a given generator state: ties in the assignment step
    break toward the lower cluster index, and all randomness comes from
    ``rng``.  A cluster left empty by an assignment step is reseeded with
    the point currently farthest from its assigned center (the point is
    *moved*, not copied), so duplicate-heavy inputs still spread across
    clusters instead of collapsing onto one center.  ``clusters`` is
    clamped to the number of points.
    """
    features = np.asarray(features, dtype=float)
    n = len(features)
    if n == 0:
        return np.empty(0, dtype=np.int64), features.copy()
    clusters = max(1, min(clusters, n))
    centers = features[rng.choice(n, size=clusters, replace=False)].copy()
    labels = np.zeros(n, dtype=np.int64)
    settled = None
    for _ in range(iterations):
        squared = ((features[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = squared.argmin(axis=1)
        if settled is not None and np.array_equal(labels, settled):
            # Same members, same means: every later iteration repeats this one.
            break
        nearest = squared[np.arange(n), labels]
        settled = labels.copy()
        for c in range(clusters):
            members = labels == c
            if members.any():
                centers[c] = features[members].mean(axis=0)
            else:
                farthest = int(np.argmax(nearest))
                centers[c] = features[farthest]
                labels[farthest] = c
                nearest[farthest] = 0.0
                settled = None
    return labels, centers


def _kmeans_labels(
    features: np.ndarray, clusters: int, rng: np.random.Generator, iterations: int = 10
) -> np.ndarray:
    """Seeded Lloyd labels; deterministic for a given generator state."""
    return kmeans(features, clusters, rng, iterations)[0]


def _allocate(sizes: np.ndarray, total: int) -> np.ndarray:
    """Proportional allocation of ``total`` draws across strata.

    Every nonempty stratum gets at least one draw when ``total`` allows;
    with fewer draws than strata, the largest strata win.  Allocations
    never exceed a stratum's size; freed draws respill to strata with
    spare capacity.
    """
    strata = len(sizes)
    out = np.zeros(strata, dtype=np.int64)
    if total >= strata:
        out[:] = 1
        remaining = total - strata
        quota = remaining * sizes / sizes.sum()
        out += np.floor(quota).astype(np.int64)
        leftovers = np.argsort(-(quota - np.floor(quota)), kind="stable")
        out[leftovers[: total - int(out.sum())]] += 1
    else:
        for index in np.argsort(-sizes, kind="stable")[:total]:
            out[index] = 1
    # Cap at stratum size and respill greedily by spare capacity.
    excess = int(np.maximum(out - sizes, 0).sum())
    out = np.minimum(out, sizes)
    while excess > 0:
        spare = sizes - out
        target = int(np.argmax(spare))
        if spare[target] <= 0:
            break
        grant = min(excess, int(spare[target]))
        out[target] += grant
        excess -= grant
    return out


def select_intervals(
    plan: IntervalSampling, total: int, trace: Trace | None = None
) -> SelectedIntervals:
    """Choose the windows of ``total`` references this plan measures.

    Args:
        plan: the interval plan.
        total: trace length in references.
        trace: required for ``mode="stratified"`` (the phase features are
            computed from the trace itself).

    Returns:
        The selected windows with their estimator weights.  A trace
        shorter than one window yields a single whole-trace interval
        (the estimate is then exact); an empty trace yields no intervals.

    Raises:
        ValueError: if stratified selection is requested without a trace.
    """
    if total <= 0:
        return SelectedIntervals(
            (), np.empty(0, dtype=float), np.empty(0, dtype=np.int64), 0
        )
    candidates = total // plan.window
    if candidates <= 1:
        # Window covers the trace (or all but a tail shorter than one
        # window): sample everything — the estimator degenerates to the
        # exact full-trace value.
        return SelectedIntervals(
            (Interval(0, total, 0),),
            np.ones(1, dtype=float),
            np.zeros(1, dtype=np.int64),
            max(1, candidates),
        )

    count = min(candidates, max(1, int(round(plan.fraction * candidates))))
    rng = np.random.default_rng(plan.seed)

    if plan.mode == "systematic":
        stride = candidates / count
        phase = float(rng.uniform(0.0, stride))
        chosen = np.floor(phase + stride * np.arange(count)).astype(np.int64)
        chosen = np.minimum(chosen, candidates - 1)
        labels = np.zeros(count, dtype=np.int64)
        expansion = np.full(count, candidates / count, dtype=float)
    elif plan.mode == "random":
        chosen = np.sort(rng.choice(candidates, size=count, replace=False))
        labels = np.zeros(count, dtype=np.int64)
        expansion = np.full(count, candidates / count, dtype=float)
    else:  # stratified
        if trace is None:
            raise ValueError("stratified interval selection needs the trace")
        starts = np.arange(candidates, dtype=np.int64) * plan.window
        features = _window_features(trace, starts, plan.window)
        phase_of = _kmeans_labels(features, plan.strata, rng)
        phases, sizes = np.unique(phase_of, return_counts=True)
        allocation = _allocate(sizes, count)
        chosen_parts: list[np.ndarray] = []
        label_parts: list[np.ndarray] = []
        expansion_parts: list[np.ndarray] = []
        for stratum, (phase, size, draws) in enumerate(
            zip(phases.tolist(), sizes.tolist(), allocation.tolist())
        ):
            if draws == 0:
                continue
            members = np.nonzero(phase_of == phase)[0]
            picked = np.sort(rng.choice(members, size=draws, replace=False))
            chosen_parts.append(picked)
            label_parts.append(np.full(draws, stratum, dtype=np.int64))
            expansion_parts.append(np.full(draws, size / draws, dtype=float))
        chosen = np.concatenate(chosen_parts)
        labels = np.concatenate(label_parts)
        expansion = np.concatenate(expansion_parts)
        order = np.argsort(chosen, kind="stable")
        chosen, labels, expansion = chosen[order], labels[order], expansion[order]

    intervals = tuple(
        Interval(int(c) * plan.window, int(c) * plan.window + plan.window, int(s))
        for c, s in zip(chosen.tolist(), labels.tolist())
    )
    return SelectedIntervals(intervals, expansion, labels, candidates)
