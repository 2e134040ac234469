"""Cross-layer consistency tests.

These pin down agreements that the experiment modules silently rely on:
the stack-distance sweeps must route reference kinds exactly like the
simulator's split organization (including monitor-style FETCH records),
and the stack-distance sweep must agree with direct simulation on real
catalog workloads, not just synthetic unit-test streams.
"""

import numpy as np
import pytest

from repro.analysis.sweep import DATA_KINDS, INSTRUCTION_KINDS
from repro.core import (
    CacheGeometry,
    SplitCache,
    UnifiedCache,
    lru_miss_ratio_curve,
    simulate,
)
from repro.workloads import catalog

SIZES = (512, 4096)


class TestMonitorTraceRouting:
    """M68000 traces: FETCH records must go where SplitCache puts them."""

    @pytest.fixture(scope="class")
    def trace(self):
        return catalog.generate("MATCH", 12_000)

    def test_split_sweep_matches_split_simulation(self, trace):
        icurve, dcurve = (
            lru_miss_ratio_curve(trace, list(SIZES), kinds=list(kinds), purge_interval=5_000)
            for kinds in (INSTRUCTION_KINDS, DATA_KINDS)
        )
        for size, expected_i, expected_d in zip(SIZES, icurve, dcurve):
            report = simulate(
                trace, SplitCache(CacheGeometry(size, 16)), purge_interval=5_000
            )
            assert report.instruction.miss_ratio == pytest.approx(expected_i,
                                                                  abs=1e-12)
            assert report.data.miss_ratio == pytest.approx(expected_d, abs=1e-12)

    def test_unified_sweep_matches_unified_simulation(self, trace):
        curve = lru_miss_ratio_curve(trace, list(SIZES))
        for size, expected in zip(SIZES, curve):
            report = simulate(trace, UnifiedCache(CacheGeometry(size, 16)))
            assert report.miss_ratio == pytest.approx(expected, abs=1e-12)


class TestCatalogWorkloadsAgree:
    @pytest.mark.parametrize("name", ["VCCOM", "TWOD", "MVS1"])
    def test_stack_sweep_equals_simulation(self, name):
        trace = catalog.generate(name, 15_000)
        curve = lru_miss_ratio_curve(trace, list(SIZES), purge_interval=6_000)
        for size, expected in zip(SIZES, curve):
            report = simulate(
                trace, UnifiedCache(CacheGeometry(size, 16)), purge_interval=6_000
            )
            assert report.miss_ratio == pytest.approx(expected, abs=1e-12)


class TestSplitHalvesAreIndependent:
    def test_data_side_unaffected_by_instruction_side(self):
        """The D-cache must see the same stream whatever the I-side does."""
        trace = catalog.generate("ZGREP", 10_000)
        small = simulate(trace, SplitCache(CacheGeometry(512, 16),
                                           data_geometry=CacheGeometry(2048, 16)))
        large = simulate(trace, SplitCache(CacheGeometry(8192, 16),
                                           data_geometry=CacheGeometry(2048, 16)))
        assert small.data.miss_ratio == pytest.approx(large.data.miss_ratio)
        assert small.instruction.miss_ratio >= large.instruction.miss_ratio


class TestReportInternalConsistency:
    @pytest.mark.parametrize("name", ["FGO1", "PLO"])
    def test_counts_add_up(self, name):
        trace = catalog.generate(name, 10_000)
        report = simulate(trace, SplitCache(CacheGeometry(1024, 16)),
                          purge_interval=4_000)
        overall = report.overall
        # References: straddles can add probes but never remove them.
        assert overall.references >= report.references
        # Demand fetches equal misses under pure demand + allocate-on-write.
        assert overall.demand_fetches == overall.misses
        # Pushes never exceed fetches (nothing leaves that never entered).
        assert overall.pushes <= overall.demand_fetches
        # Dirty pushes are a subset of pushes; data pushes likewise.
        assert overall.dirty_pushes <= overall.pushes
        assert overall.dirty_data_pushes <= overall.data_pushes <= overall.pushes
