"""Tests for sampling plans: validation, window selection, set classes."""

import numpy as np
import pytest

from repro.sampling import (
    Interval,
    IntervalSampling,
    SetSampling,
    kmeans,
    select_intervals,
    select_set_classes,
)
from repro.sampling.plans import _kmeans_labels
from repro.workloads import catalog


class TestIntervalSamplingValidation:
    def test_zero_fraction_is_an_empty_plan(self):
        with pytest.raises(ValueError, match="empty sampling plan"):
            IntervalSampling(fraction=0.0)

    def test_fraction_above_one_rejected(self):
        with pytest.raises(ValueError, match="fraction"):
            IntervalSampling(fraction=1.5)

    def test_nonpositive_window_rejected(self):
        with pytest.raises(ValueError, match="window"):
            IntervalSampling(window=0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            IntervalSampling(mode="clairvoyant")

    def test_unknown_warmup_rejected(self):
        with pytest.raises(ValueError, match="warmup"):
            IntervalSampling(warmup="psychic")

    def test_fraction_above_ceiling_rejected(self):
        with pytest.raises(ValueError, match="max_fraction"):
            IntervalSampling(fraction=0.6, max_fraction=0.5)

    def test_growth_must_exceed_one(self):
        with pytest.raises(ValueError, match="growth"):
            IntervalSampling(growth=1.0)

    def test_warmup_references_only_for_discard(self):
        assert IntervalSampling(window=1000, warmup="discard",
                                warmup_fraction=0.5).warmup_references == 500
        assert IntervalSampling(warmup="cold").warmup_references == 0
        assert IntervalSampling(warmup="stitch").warmup_references == 0

    def test_grown_caps_at_max_fraction(self):
        plan = IntervalSampling(fraction=0.4, max_fraction=0.5, growth=2.0)
        assert plan.grown().fraction == 0.5
        assert plan.grown().window == plan.window

    def test_identity_is_json_able(self):
        import json

        identity = IntervalSampling().identity()
        assert identity["plan"] == "interval"
        json.dumps(identity)


class TestSetSamplingValidation:
    def test_zero_keep_is_an_empty_plan(self):
        with pytest.raises(ValueError, match="empty sampling plan"):
            SetSampling(keep=0)

    def test_keep_beyond_classes_rejected(self):
        with pytest.raises(ValueError, match="keep"):
            SetSampling(bits=2, keep=5)

    def test_classes_property(self):
        assert SetSampling(bits=3, keep=2).classes == 8

    def test_identity_distinct_from_interval(self):
        assert SetSampling().identity()["plan"] == "set"

    def test_class_choice_is_seeded_and_sorted(self):
        first = select_set_classes(SetSampling(bits=4, keep=3, seed=7))
        again = select_set_classes(SetSampling(bits=4, keep=3, seed=7))
        other = select_set_classes(SetSampling(bits=4, keep=3, seed=8))
        assert first == again
        assert list(first) == sorted(first)
        assert len(set(first)) == 3
        assert all(0 <= c < 16 for c in first)
        assert first != other or True  # different seeds usually differ


class TestSelectIntervals:
    def test_empty_trace_selects_nothing(self):
        selection = select_intervals(IntervalSampling(), 0)
        assert selection.intervals == ()
        assert selection.candidates == 0

    def test_window_covering_trace_degenerates_to_whole_trace(self):
        selection = select_intervals(IntervalSampling(window=5000), 3000)
        assert selection.intervals == (Interval(0, 3000, 0),)
        assert selection.expansion.tolist() == [1.0]

    def test_systematic_windows_are_distinct_and_ordered(self):
        plan = IntervalSampling(fraction=0.25, window=100, mode="systematic")
        selection = select_intervals(plan, 10_000)
        starts = [iv.start for iv in selection.intervals]
        assert starts == sorted(starts)
        assert len(set(starts)) == len(starts)
        assert len(selection.intervals) == 25
        assert selection.candidates == 100
        # Expansion weights stand for all candidate windows.
        assert selection.expansion.sum() == pytest.approx(100)

    def test_systematic_is_deterministic_per_seed(self):
        plan = IntervalSampling(fraction=0.2, window=100, seed=3)
        first = select_intervals(plan, 10_000)
        again = select_intervals(plan, 10_000)
        assert first.intervals == again.intervals

    def test_random_mode_is_seeded(self):
        plan = IntervalSampling(fraction=0.2, window=100, mode="random", seed=5)
        first = select_intervals(plan, 10_000)
        again = select_intervals(plan, 10_000)
        other = select_intervals(
            IntervalSampling(fraction=0.2, window=100, mode="random", seed=6), 10_000
        )
        assert first.intervals == again.intervals
        assert first.intervals != other.intervals
        starts = [iv.start for iv in first.intervals]
        assert starts == sorted(starts)
        assert len(set(starts)) == len(starts)

    def test_stratified_requires_the_trace(self):
        plan = IntervalSampling(mode="stratified", window=100)
        with pytest.raises(ValueError, match="needs the trace"):
            select_intervals(plan, 10_000)

    def test_stratified_covers_phases_with_consistent_weights(self):
        trace = catalog.generate("ZGREP", 12_000)
        plan = IntervalSampling(
            fraction=0.5, window=1000, mode="stratified", strata=3, seed=1
        )
        selection = select_intervals(plan, len(trace), trace)
        assert len(selection.intervals) == 6
        assert selection.candidates == 12
        # Each interval's expansion is its stratum size over its draws,
        # so the weights must sum back to the candidate count.
        assert selection.expansion.sum() == pytest.approx(12)
        assert len(selection.strata) == len(selection.intervals)
        starts = [iv.start for iv in selection.intervals]
        assert starts == sorted(starts)

    def test_windows_never_exceed_the_trace(self):
        plan = IntervalSampling(fraction=0.9, max_fraction=1.0, window=300)
        selection = select_intervals(plan, 1000)
        for interval in selection.intervals:
            assert 0 <= interval.start < interval.stop <= 1000


class TestKmeans:
    """Edge cases of the shared seeded Lloyd clustering."""

    def test_deterministic_for_a_seed(self):
        rng = np.random.default_rng(7)
        features = np.random.default_rng(0).normal(size=(40, 3))
        labels, centers = kmeans(features, 5, np.random.default_rng(7))
        again, centers_again = kmeans(features, 5, np.random.default_rng(7))
        assert (labels == again).all()
        assert np.array_equal(centers, centers_again)
        other, _ = kmeans(features, 5, np.random.default_rng(8))
        assert labels.shape == other.shape

    def test_no_points_yields_no_labels(self):
        labels, centers = kmeans(np.empty((0, 4)), 3, np.random.default_rng(0))
        assert labels.shape == (0,)
        assert centers.shape == (0, 4)

    def test_clusters_clamped_to_point_count(self):
        features = np.arange(6, dtype=float).reshape(3, 2)
        labels, centers = kmeans(features, 10, np.random.default_rng(0))
        assert len(labels) == 3
        assert len(centers) == 3
        assert sorted(set(labels.tolist())) == [0, 1, 2]

    def test_duplicate_points_stay_in_one_cluster(self):
        features = np.array([[0.0, 0.0]] * 8 + [[10.0, 10.0]] * 8)
        labels, _ = kmeans(features, 2, np.random.default_rng(1))
        assert len(set(labels[:8].tolist())) == 1
        assert len(set(labels[8:].tolist())) == 1
        assert labels[0] != labels[8]

    def test_empty_cluster_is_reseeded(self):
        # Three tight groups but one far outlier: with enough clusters a
        # center drawn between groups goes empty mid-iteration and must
        # be reseeded onto the farthest point, not silently dropped.
        rng = np.random.default_rng(2)
        groups = [rng.normal(loc, 0.01, size=(20, 2)) for loc in (0.0, 5.0, 10.0)]
        features = np.vstack(groups + [np.array([[100.0, 100.0]])])
        labels, centers = kmeans(features, 4, np.random.default_rng(1), iterations=25)
        assert len(centers) == 4
        # Reseeding keeps every cluster populated...
        assert len(set(labels.tolist())) == 4
        # ...and this seeding isolates the outlier in its own cluster.
        outlier_label = labels[-1]
        assert (labels == outlier_label).sum() == 1

    def test_labels_wrapper_matches(self):
        features = np.random.default_rng(4).normal(size=(30, 2))
        rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
        labels_only = _kmeans_labels(features, 4, rng_a)
        labels, _ = kmeans(features, 4, rng_b)
        assert (labels_only == labels).all()


class TestStratifiedEdgeCases:
    def test_more_strata_than_windows_degenerates_gracefully(self):
        trace = catalog.generate("ZGREP", 2_500)
        plan = IntervalSampling(
            fraction=0.9, max_fraction=1.0, window=1000,
            mode="stratified", strata=16, seed=0,
        )
        selection = select_intervals(plan, len(trace), trace)
        assert 1 <= len(selection.intervals) <= 2
        for interval in selection.intervals:
            assert 0 <= interval.start < interval.stop <= len(trace)

    def test_stratified_is_deterministic_per_seed(self):
        trace = catalog.generate("FGO1", 12_000)
        plan = IntervalSampling(
            fraction=0.4, window=500, mode="stratified", strata=4, seed=9
        )
        first = select_intervals(plan, len(trace), trace)
        again = select_intervals(plan, len(trace), trace)
        assert first.intervals == again.intervals
        assert np.array_equal(first.expansion, again.expansion)


class TestWindowMixFeatures:
    """The vectorized features equal a per-window slice-and-count."""

    @staticmethod
    def _sliced(trace, candidates, window):
        from repro.trace import AccessKind

        lines = trace.compiled(16)
        rows = []
        for w in range(candidates):
            lo, hi = w * window, min(len(trace), (w + 1) * window)
            hi = max(lo, hi)
            kinds = trace.kinds[lo:hi]
            length = max(1, hi - lo)
            mix = [np.count_nonzero(kinds == int(k)) / length for k in (0, 1, 2)]
            fetch = lo + np.flatnonzero(kinds == int(AccessKind.IFETCH))
            delta = np.diff(trace.addresses[fetch])
            taken = np.count_nonzero((delta < 0) | (delta > 8))
            branch = taken / len(delta) if len(delta) else 0.0
            inside = (lines.positions >= lo) & (lines.positions < hi)
            group = np.where(
                lines.kinds[inside] == int(AccessKind.IFETCH),
                0,
                np.where(lines.kinds[inside] == int(AccessKind.FETCH), 2, 1),
            )
            distinct = len(set(zip(lines.lines[inside].tolist(), group.tolist())))
            rows.append(mix + [branch, distinct * 16 / length])
        return np.array(rows)

    @pytest.mark.parametrize("window", [1, 37, 500, 3000])
    @pytest.mark.parametrize("offset", [0, 1 << 61])
    def test_matches_per_window_slices(self, window, offset):
        from repro.sampling.plans import window_mix_features
        from repro.trace.stream import Trace

        trace = catalog.generate("LISP1", 6000)
        # Addresses near 2**62 overflow the packed footprint keys and take
        # the lexsort path.
        trace = Trace(
            trace.kinds, trace.addresses + offset, trace.sizes, trace.metadata
        )
        for candidates in (6000 // window, 6000 // window + 2):
            np.testing.assert_allclose(
                window_mix_features(trace, candidates, window),
                self._sliced(trace, candidates, window),
                rtol=0,
                atol=1e-12,
            )
