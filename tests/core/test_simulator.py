"""Tests for the drive loop, alone and over round-robin mixes."""

import math

import pytest

from repro.core import (
    CacheGeometry,
    SplitCache,
    UnifiedCache,
    simulate,
)
from repro.trace import AccessKind
from repro.trace.filters import interleave_round_robin

from ..conftest import make_trace

_R = AccessKind.READ


class TestSimulate:
    def test_report_fields(self, tiny_trace):
        report = simulate(tiny_trace, UnifiedCache(CacheGeometry(64, 16)))
        assert report.trace_name == "test"
        assert report.references == 7
        assert report.purge_interval is None
        assert report.miss_ratio == pytest.approx(6 / 7)

    def test_limit(self, tiny_trace):
        report = simulate(tiny_trace, UnifiedCache(CacheGeometry(64, 16)), limit=4)
        assert report.references == 4

    def test_purge_interval_boundary(self):
        trace = make_trace([(_R, 0)] * 6)
        organization = UnifiedCache(CacheGeometry(64, 16))
        report = simulate(trace, organization, purge_interval=3)
        # Purges after refs 3 and 6; misses at refs 1 and 4.
        assert report.overall.purges == 2
        assert report.overall.misses == 2

    def test_purge_interval_validation(self, tiny_trace):
        with pytest.raises(ValueError, match="purge_interval"):
            simulate(tiny_trace, UnifiedCache(CacheGeometry(64, 16)), purge_interval=0)

    def test_limit_validation(self, tiny_trace):
        with pytest.raises(ValueError, match="limit"):
            simulate(tiny_trace, UnifiedCache(CacheGeometry(64, 16)), limit=-1)

    def test_report_is_a_snapshot(self, tiny_trace):
        organization = UnifiedCache(CacheGeometry(64, 16))
        report = simulate(tiny_trace, organization, limit=3)
        before = report.overall.references
        # Deliberate reuse mutates the organization, not the report.
        simulate(tiny_trace, organization, allow_warm=True)
        assert report.overall.references == before

    def test_warm_organization_rejected(self, tiny_trace):
        organization = UnifiedCache(CacheGeometry(64, 16))
        simulate(tiny_trace, organization)
        with pytest.raises(ValueError, match="allow_warm"):
            simulate(tiny_trace, organization)

    def test_warm_guard_sees_resident_lines_after_reset(self, tiny_trace):
        # Counters cleared but lines resident: still warm.
        organization = UnifiedCache(CacheGeometry(64, 16))
        simulate(tiny_trace, organization)
        organization.reset_statistics()
        assert organization.is_warm()
        with pytest.raises(ValueError, match="allow_warm"):
            simulate(tiny_trace, organization)

    def test_split_report_miss_ratios(self, mixed_trace):
        report = simulate(mixed_trace, SplitCache(CacheGeometry(64, 16)))
        assert 0.0 <= report.instruction_miss_ratio <= 1.0
        assert 0.0 <= report.data_miss_ratio <= 1.0

    def test_empty_trace(self):
        report = simulate(make_trace([]), UnifiedCache(CacheGeometry(64, 16)))
        assert report.references == 0
        # Zero-reference ratios are NaN (undefined), not 0.0.
        assert math.isnan(report.miss_ratio)
        assert math.isnan(report.data_miss_ratio)
        assert math.isnan(report.effective_miss_ratio)


class TestMultiprogrammed:
    """The paper's multiprogramming recipe: a round-robin interleave
    simulated with the purge interval set to its quantum."""

    def test_single_trace_passthrough(self, tiny_trace):
        report = simulate(
            interleave_round_robin([tiny_trace], quantum=3),
            UnifiedCache(CacheGeometry(64, 16)), purge_interval=3,
        )
        assert report.references == len(tiny_trace)
        assert report.overall.purges == 2

    def test_mix_interleaves_and_purges(self):
        a = make_trace([(_R, i * 16) for i in range(8)], name="A")
        b = make_trace([(_R, i * 16) for i in range(8)], name="B")
        report = simulate(
            interleave_round_robin([a, b], quantum=4),
            UnifiedCache(CacheGeometry(256, 16)), purge_interval=4,
        )
        assert report.references == 16
        assert report.overall.purges == 4
        # Purging on every switch makes everything a cold miss.
        assert report.miss_ratio == 1.0

    def test_length_bound(self):
        a = make_trace([(_R, i * 16) for i in range(8)], name="A")
        report = simulate(
            interleave_round_robin([a, a], quantum=4, length=10),
            UnifiedCache(CacheGeometry(256, 16)), purge_interval=4,
        )
        assert report.references == 10

    def test_single_trace_truncates_when_shorter(self, tiny_trace):
        report = simulate(
            interleave_round_robin([tiny_trace], quantum=3, length=5),
            UnifiedCache(CacheGeometry(64, 16)), purge_interval=3,
        )
        assert report.references == 5

    def test_single_trace_restarts_to_reach_length(self):
        # A single trace asked for more references than it has must wrap
        # around like an exhausted member of a multi-trace mix, not
        # silently truncate at the trace end.
        a = make_trace([(_R, i * 16) for i in range(6)], name="A")
        report = simulate(
            interleave_round_robin([a], quantum=4, length=14),
            UnifiedCache(CacheGeometry(256, 16)), purge_interval=4,
        )
        assert report.references == 14
        # Same length via the two-member path: identical restart semantics.
        doubled = simulate(
            interleave_round_robin([a, a], quantum=4, length=14),
            UnifiedCache(CacheGeometry(256, 16)), purge_interval=4,
        )
        assert doubled.references == 14
