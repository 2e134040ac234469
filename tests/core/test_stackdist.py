"""Tests for the Mattson stack-distance engine.

The crucial property: the one-pass curve must agree *exactly* with direct
simulation of a fully associative LRU cache, with and without purging and
kind filtering — that equivalence is what licenses using it for the paper's
sweeps.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CacheGeometry,
    SplitCache,
    UnifiedCache,
    lru_miss_ratio_curve,
    lru_stack_distances,
    simulate,
)
from repro.core.stackdist import (
    COLD_DISTANCE,
    StackDistanceProfile,
    _count_left_greater,
    _count_left_greater_wide,
    _distances_fenwick,
    set_stack_distances,
)
from repro.trace import AccessKind, Trace, TraceMetadata

from ..conftest import make_trace

_R = AccessKind.READ


class TestProfile:
    def test_classic_example(self):
        profile = lru_stack_distances(np.array([0, 1, 2, 3, 0, 4, 1]))
        assert profile.cold_misses == 5
        assert profile.total_references == 7
        assert profile.miss_ratio(4) == pytest.approx(6 / 7)
        assert profile.miss_ratio(5) == pytest.approx(5 / 7)

    def test_repeats_have_distance_one(self):
        profile = lru_stack_distances(np.array([7, 7, 7, 7]))
        assert profile.hits(1) == 3
        assert profile.miss_ratio(1) == pytest.approx(1 / 4)

    def test_empty_stream(self):
        profile = lru_stack_distances(np.array([], dtype=np.int64))
        assert profile.total_references == 0
        # An empty stream has no miss ratio; NaN keeps an all-filtered-out
        # stream from masquerading as a perfect hit rate.
        assert np.isnan(profile.miss_ratio(16))
        assert np.isnan(profile.miss_ratios([16, 32])).all()

    def test_zero_capacity_never_hits(self):
        profile = lru_stack_distances(np.array([1, 1, 1]))
        assert profile.hits(0) == 0
        assert profile.miss_ratio(0) == 1.0

    def test_miss_ratios_vectorized_matches_scalar(self):
        stream = np.array([0, 1, 0, 2, 1, 3, 0, 1, 2, 3] * 5)
        profile = lru_stack_distances(stream)
        capacities = [1, 2, 3, 4, 10]
        vector = profile.miss_ratios(capacities)
        for capacity, value in zip(capacities, vector):
            assert value == pytest.approx(profile.miss_ratio(capacity))

    def test_resets_split_the_stream(self):
        stream = np.array([0, 1, 0, 1])
        without = lru_stack_distances(stream)
        with_reset = lru_stack_distances(stream, resets=np.array([2]))
        assert without.cold_misses == 2
        assert with_reset.cold_misses == 4  # everything cold again after purge

    def test_counts_is_a_distribution(self):
        stream = np.array([0, 1, 2, 0, 1, 2, 5, 0])
        profile = lru_stack_distances(stream)
        assert profile.counts[1:].sum() + profile.cold_misses == profile.total_references


class TestCurveValidation:
    def test_capacity_validation(self, tiny_trace):
        with pytest.raises(ValueError, match="multiples"):
            lru_miss_ratio_curve(tiny_trace, [100], line_size=16)

    def test_purge_validation(self, tiny_trace):
        with pytest.raises(ValueError, match="purge_interval"):
            lru_miss_ratio_curve(tiny_trace, [64], purge_interval=0)

    def test_monotone_non_increasing(self, random_trace):
        curve = lru_miss_ratio_curve(random_trace, [64, 256, 1024, 4096, 16384])
        assert (np.diff(curve) <= 1e-12).all()

    def test_straddling_accesses_expand(self):
        trace = make_trace([(_R, 14, 4)])  # touches 2 lines
        curve = lru_miss_ratio_curve(trace, [64])
        assert curve[0] == 1.0  # both line-touches are cold

    def test_purge_epochs_count_trace_references_despite_straddles(self):
        # Regression: with kinds=None and a line-straddling access, purge
        # epochs were computed over the *expanded* line stream, shifting
        # every later purge boundary.  The purge clock must tick once per
        # trace reference, matching both the simulator and the
        # kinds-filtered path.
        entries = [
            (_R, 14, 4),  # straddles lines 0 and 1
            (_R, 32, 4),  # line 2
            (_R, 36, 4),  # line 2 again: hits iff the purge clock is right
            (_R, 48, 4),  # line 3 — first reference of the second epoch
            (_R, 0, 4),
            (_R, 32, 4),
        ]
        trace = make_trace(entries)
        sizes = [64, 128]
        unfiltered = lru_miss_ratio_curve(trace, sizes, purge_interval=3)
        filtered = lru_miss_ratio_curve(
            trace, sizes, kinds=[AccessKind.READ], purge_interval=3
        )
        # All references are reads, so filtering changes nothing.
        assert np.allclose(unfiltered, filtered)
        for size, expected in zip(sizes, unfiltered):
            report = simulate(
                trace, UnifiedCache(CacheGeometry(size, 16)), purge_interval=3
            )
            assert report.miss_ratio == pytest.approx(float(expected), abs=1e-12)


class TestEquivalenceWithSimulator:
    def test_unified_no_purge(self, random_trace):
        sizes = [128, 512, 2048, 8192]
        curve = lru_miss_ratio_curve(random_trace, sizes)
        for size, expected in zip(sizes, curve):
            report = simulate(random_trace, UnifiedCache(CacheGeometry(size, 16)))
            assert report.miss_ratio == pytest.approx(expected, abs=1e-12)

    def test_unified_with_purge(self, random_trace):
        sizes = [256, 1024]
        curve = lru_miss_ratio_curve(random_trace, sizes, purge_interval=700)
        for size, expected in zip(sizes, curve):
            report = simulate(
                random_trace, UnifiedCache(CacheGeometry(size, 16)), purge_interval=700
            )
            assert report.miss_ratio == pytest.approx(expected, abs=1e-12)

    def test_split_streams_with_purge(self, random_trace):
        sizes = [256, 1024]
        icurve = lru_miss_ratio_curve(
            random_trace, sizes, kinds=[AccessKind.IFETCH, AccessKind.FETCH],
            purge_interval=900,
        )
        dcurve = lru_miss_ratio_curve(
            random_trace, sizes, kinds=[AccessKind.READ, AccessKind.WRITE],
            purge_interval=900,
        )
        for size, expected_i, expected_d in zip(sizes, icurve, dcurve):
            report = simulate(
                random_trace, SplitCache(CacheGeometry(size, 16)), purge_interval=900
            )
            assert report.instruction_miss_ratio == pytest.approx(expected_i, abs=1e-12)
            assert report.data_miss_ratio == pytest.approx(expected_d, abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(
    addresses=st.lists(st.integers(0, 4096), min_size=1, max_size=300),
    capacity_log=st.integers(5, 12),
    purge=st.one_of(st.none(), st.integers(1, 100)),
)
def test_stack_curve_equals_direct_simulation(addresses, capacity_log, purge):
    trace = Trace(
        [int(_R)] * len(addresses),
        [a * 4 for a in addresses],
        [4] * len(addresses),
        TraceMetadata(),
    )
    capacity = 2**capacity_log
    curve = lru_miss_ratio_curve(trace, [capacity], purge_interval=purge)
    report = simulate(
        trace, UnifiedCache(CacheGeometry(capacity, 16)), purge_interval=purge
    )
    assert report.miss_ratio == pytest.approx(float(curve[0]), abs=1e-12)


# -- the counting kernel against brute-force oracles --------------------------

#: Lengths at and around every power of two up to 2**12: the merge levels'
#: full blocks, trailing partial block and single-element edges.
_KERNEL_LENGTHS = sorted(
    {0, 1, 2} | {n for k in range(1, 13) for n in (2**k - 1, 2**k, 2**k + 1)}
)


def _left_greater_oracle(p: np.ndarray) -> np.ndarray:
    """O(n²) ``#{v < t : p[v] > p[t]}``."""
    return np.array(
        [np.count_nonzero(p[:t] > p[t]) for t in range(len(p))], dtype=np.int64
    )


def _tie_heavy_values(n: int, seed: int) -> np.ndarray:
    """Values in [−2, n): about half −1/−2 ties, the rest drawn with repeats."""
    rng = np.random.default_rng(seed)
    values = rng.integers(0, max(n, 1), size=n)
    ties = rng.random(n) < 0.5
    values[ties] = rng.choice([-2, -1], size=int(ties.sum()))
    return values.astype(np.int64)


@pytest.mark.parametrize("kernel", [_count_left_greater, _count_left_greater_wide])
@pytest.mark.parametrize("n", _KERNEL_LENGTHS)
def test_count_left_greater_matches_quadratic_oracle(kernel, n):
    p = _tie_heavy_values(n, seed=n)
    counts = kernel(p)
    assert counts.dtype == np.int64
    np.testing.assert_array_equal(counts, _left_greater_oracle(p))


@pytest.mark.parametrize("kernel", [_count_left_greater, _count_left_greater_wide])
def test_count_left_greater_extremes(kernel):
    # Strictly decreasing: every earlier value is greater, so the counts
    # fill their packed field; all ties or increasing: none is.
    n = 2**12 + 1
    np.testing.assert_array_equal(kernel(np.arange(n)[::-1] - 2), np.arange(n))
    np.testing.assert_array_equal(kernel(np.full(n, -2)), np.zeros(n))
    np.testing.assert_array_equal(kernel(np.arange(n) - 2), np.zeros(n))


def _fenwick_set_distances(lines, num_sets, resets) -> np.ndarray:
    """Per-reference distances assembled from per-set, per-epoch Fenwick
    passes: cold references are each segment's first touches."""
    out = np.empty(len(lines), dtype=np.int64)
    bounds = [0, *sorted({r for r in resets if 0 < r < len(lines)}), len(lines)]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        for s in range(num_sets):
            where = lo + np.flatnonzero((lines[lo:hi] & (num_sets - 1)) == s)
            stream = lines[where]
            distances, cold = _distances_fenwick(stream)
            _, first = np.unique(stream, return_index=True)
            is_cold = np.zeros(len(stream), dtype=bool)
            is_cold[first] = True
            assert cold == len(first)
            out[where[is_cold]] = COLD_DISTANCE
            out[where[~is_cold]] = distances
    return out


@settings(max_examples=60, deadline=None)
@given(
    lines=st.lists(st.integers(0, 300), max_size=400),
    num_sets=st.sampled_from([1, 4, 64]),
    resets=st.one_of(st.none(), st.lists(st.integers(0, 400), max_size=6)),
)
def test_set_stack_distances_match_fenwick(lines, num_sets, resets):
    lines = np.asarray(lines, dtype=np.int64)
    reset_array = None if resets is None else np.array(sorted(resets), dtype=np.int64)
    expected = _fenwick_set_distances(lines, num_sets, resets or [])
    got = set_stack_distances(lines, num_sets, reset_array)
    np.testing.assert_array_equal(got, expected)
