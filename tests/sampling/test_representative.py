"""Representative-interval sampling: selection, accuracy, determinism.

The accuracy bar mirrors ``test_engine.py``: on the seeded synthetic
catalog every representative estimate must contain the full-run truth
inside its *reported* interval — for stack sweeps, direct simulation
(unified and set-associative), and the associativity surface.  All
clustering is seeded, so these are deterministic regression checks.
"""

import numpy as np
import pytest

from repro.campaign import run_campaign
from repro.core.jobs import (
    AssociativitySweepJob,
    CampaignCell,
    SimulateJob,
    StackSweepJob,
    TraceSpec,
)
from repro.sampling import (
    RepresentativeSampling,
    run_sampled,
    select_representatives,
    window_profile,
    window_signatures,
)
from repro.sampling.representative import window_miss_counts
from repro.workloads import catalog

LENGTH = 24_000
SIZES = (512, 2048, 8192)
LINE = 16

PLAN = RepresentativeSampling(clusters=4, window=1000, seed=0)


@pytest.fixture(scope="module")
def traces():
    return {name: catalog.generate(name, LENGTH) for name in ("ZGREP", "FGO1")}


class TestPlanValidation:
    def test_nonpositive_clusters_rejected(self):
        with pytest.raises(ValueError, match="clusters"):
            RepresentativeSampling(clusters=0)

    def test_nonpositive_window_rejected(self):
        with pytest.raises(ValueError, match="window"):
            RepresentativeSampling(window=0)

    def test_confidence_bounds(self):
        with pytest.raises(ValueError, match="confidence"):
            RepresentativeSampling(confidence=1.0)

    def test_identity_is_json_able(self):
        import json

        identity = RepresentativeSampling().identity()
        assert identity["plan"] == "representative"
        assert json.loads(json.dumps(identity)) == identity


class TestSelection:
    def test_weights_cover_all_candidate_windows(self, traces):
        for trace in traces.values():
            selection = select_representatives(trace, LINE, PLAN)
            assert selection.candidates == LENGTH // PLAN.window
            assert selection.weights.sum() == selection.candidates
            assert len(selection.intervals) <= PLAN.clusters
            starts = [iv.start for iv in selection.intervals]
            assert starts == sorted(starts)

    def test_medoids_belong_to_their_cluster(self, traces):
        trace = traces["ZGREP"]
        selection = select_representatives(trace, LINE, PLAN)
        for rank, index in enumerate(selection.indices):
            assert selection.labels[index] == rank
            assert (selection.labels == rank).sum() == selection.weights[rank]

    def test_deterministic_per_seed(self, traces):
        trace = traces["FGO1"]
        first = select_representatives(trace, LINE, PLAN)
        again = select_representatives(trace, LINE, PLAN)
        assert first.intervals == again.intervals
        assert np.array_equal(first.weights, again.weights)

    def test_clusters_beyond_windows_clamp(self, traces):
        plan = RepresentativeSampling(clusters=64, window=8000, seed=0)
        selection = select_representatives(traces["ZGREP"], LINE, plan)
        assert selection.candidates == 3
        assert len(selection.intervals) <= 3

    def test_short_trace_degenerates_to_whole_trace(self):
        trace = catalog.generate("ZGREP", 600)
        selection = select_representatives(trace, LINE, PLAN)
        assert len(selection.intervals) == 1
        assert selection.intervals[0].start == 0
        assert selection.intervals[0].stop == 600


class TestWindowProfile:
    def test_windows_partition_the_trace(self, traces):
        trace = traces["ZGREP"]
        profile = window_profile(trace, LINE, 1000)
        assert profile.refs.sum() == LENGTH
        assert profile.starts[0] == 0
        assert profile.stops[-1] == LENGTH

    def test_miss_counts_monotone_in_threshold(self, traces):
        profile = window_profile(traces["FGO1"], LINE, 1000)
        counts = window_miss_counts(profile, [4, 16, 64])
        assert (np.diff(counts, axis=1) <= 0).all()
        assert (counts <= profile.refs[:, None]).all()

    def test_signatures_are_standardized(self, traces):
        features = window_signatures(traces["ZGREP"], LINE, 1000)
        assert features.shape[0] == LENGTH // 1000
        assert np.isfinite(features).all()


class TestAccuracy:
    def test_stack_sweep_truth_within_reported_interval(self, traces):
        job = StackSweepJob(sizes=SIZES)
        for name, trace in traces.items():
            truth = job.run(trace)
            sampled = run_sampled(trace, job, PLAN)
            for size, exact, estimate in zip(SIZES, truth, sampled.info.estimates):
                assert estimate.contains(exact), (
                    f"{name}@{size}: {exact:.4f} outside "
                    f"[{estimate.ci_low:.4f}, {estimate.ci_high:.4f}]"
                )

    @pytest.mark.parametrize("associativity", [None, 2])
    def test_simulate_truth_within_reported_interval(self, traces, associativity):
        job = SimulateJob(size=4096, line_size=LINE, associativity=associativity)
        for name, trace in traces.items():
            truth = job.run(trace).miss_ratio
            sampled = run_sampled(trace, job, PLAN)
            estimate = sampled.info.estimates[0]
            assert estimate.contains(truth), (
                f"{name}/assoc={associativity}: {truth:.4f} outside "
                f"[{estimate.ci_low:.4f}, {estimate.ci_high:.4f}]"
            )
            assert sampled.value.miss_ratio == pytest.approx(estimate.value)

    def test_associativity_surface_truth_within_reported_interval(self, traces):
        job = AssociativitySweepJob(
            ways=(1, 2, None), capacities=(1024, 4096), line_size=LINE
        )
        trace = traces["ZGREP"]
        truth = job.run(trace)
        sampled = run_sampled(trace, job, PLAN)
        estimates = iter(sampled.info.estimates)
        for row, sampled_row in zip(truth, sampled.value):
            for exact, point in zip(row, sampled_row):
                estimate = next(estimates)
                assert point == pytest.approx(estimate.value)
                assert estimate.contains(exact)

    def test_simulate_rejects_warmup(self, traces):
        job = SimulateJob(size=4096, line_size=LINE, warmup=100)
        with pytest.raises(ValueError, match="warmup"):
            run_sampled(traces["ZGREP"], job, PLAN)

    def test_sampling_info_unit_and_fractions(self, traces):
        sampled = run_sampled(traces["ZGREP"], StackSweepJob(sizes=SIZES), PLAN)
        info = sampled.info
        assert info.unit == "representative"
        assert 0 < info.measured_references < LENGTH
        assert info.replayed_references >= info.measured_references
        assert info.total_references == LENGTH


class TestCampaignIntegration:
    def cells(self):
        job = StackSweepJob(sizes=SIZES)
        return [
            CampaignCell("ZGREP", TraceSpec.catalog("ZGREP", LENGTH), job),
            CampaignCell("FGO1", TraceSpec.catalog("FGO1", LENGTH), job),
        ]

    def test_bit_identical_across_worker_counts(self):
        serial = run_campaign(self.cells(), workers=1, cache=False, sampling=PLAN)
        parallel = run_campaign(self.cells(), workers=2, cache=False, sampling=PLAN)
        for left, right in zip(serial.outcomes, parallel.outcomes):
            assert left.ok and right.ok
            assert left.value == right.value
            assert left.sampling.estimates == right.sampling.estimates
            assert left.key == right.key

    def test_plan_enters_the_cell_key(self):
        exact = run_campaign(self.cells(), workers=1, cache=False)
        sampled = run_campaign(self.cells(), workers=1, cache=False, sampling=PLAN)
        other = run_campaign(
            self.cells(), workers=1, cache=False,
            sampling=RepresentativeSampling(clusters=4, window=1000, seed=1),
        )
        for a, b, c in zip(exact.outcomes, sampled.outcomes, other.outcomes):
            assert len({a.key, b.key, c.key}) == 3


class TestWindowMissCounts:
    def test_matches_a_count_per_window_and_threshold(self, traces):
        for purge in (None, 3000):
            profile = window_profile(
                traces["ZGREP"], LINE, 700, purge_interval=purge
            )
            thresholds = [1, 2, 5, 64, 10**6, 10**12]
            counts = window_miss_counts(profile, thresholds)
            for column, threshold in enumerate(thresholds):
                expected = np.bincount(
                    profile.win,
                    weights=profile.measured > threshold,
                    minlength=profile.windows,
                )
                np.testing.assert_array_equal(counts[:, column], expected)
