"""Tests for the miss-path mechanisms (victim/miss caches, streams, L2)."""

import math

import pytest

from repro.core import (
    CacheGeometry,
    MechanismConfig,
    MissCache,
    MissPathChain,
    SecondLevelCache,
    SplitCache,
    StreamBuffers,
    UnifiedCache,
    VictimCache,
    simulate,
)
from repro.core.fetch import FetchPolicy
from repro.core.jobs import CampaignCell, SimulateJob, TraceSpec, cell_key
from repro.trace import AccessKind

from ..conftest import make_trace

_R = AccessKind.READ
_W = AccessKind.WRITE

# 64 bytes direct-mapped with 16-byte lines: addresses 0 and 64 collide.
_DM = CacheGeometry(64, 16, 1)


def _thrash(pairs):
    """Reads alternating between the two conflicting lines."""
    return make_trace([(_R, 0), (_R, 64)] * pairs)


class TestVictimCache:
    def test_conflict_thrash_is_absorbed(self):
        organization = UnifiedCache(_DM, miss_path=[VictimCache(4)])
        report = simulate(_thrash(10), organization)
        # Every access misses the direct-mapped primary, but after the
        # two cold misses the victim cache services the swap every time.
        assert report.overall.misses == 20
        block = report.mechanism("victim-cache")
        assert block.references == 20  # probed on every primary miss
        assert block.hits == 18
        assert report.effective_miss_ratio == pytest.approx(2 / 20)

    def test_probe_hit_removes_line(self):
        vc = VictimCache(4)
        MissPathChain([vc]).attach((), 16)
        vc.on_evict(7, 0)
        assert vc.probe(int(_R), 7) == 0
        assert vc.probe(int(_R), 7) is None  # swapped out, gone
        assert vc.resident_lines() == []

    def test_dirty_flags_survive_the_round_trip(self):
        from repro.core.cache import FLAG_DIRTY

        vc = VictimCache(4)
        MissPathChain([vc]).attach((), 16)
        vc.on_evict(3, FLAG_DIRTY)
        assert vc.probe(int(_R), 3) == FLAG_DIRTY

    def test_capacity_eviction_counts_pushes(self):
        from repro.core.cache import FLAG_DATA, FLAG_DIRTY

        vc = VictimCache(2)
        MissPathChain([vc]).attach((), 16)
        vc.on_evict(1, FLAG_DIRTY | FLAG_DATA)
        vc.on_evict(2, 0)
        vc.on_evict(3, 0)  # evicts line 1, the LRU
        assert vc.resident_lines() == [2, 3]
        assert vc.stats.replacement_pushes == 1
        assert vc.stats.dirty_pushes == 1
        assert vc.stats.dirty_data_pushes == 1

    def test_custody_transfer_skips_primary_push(self):
        # A dirty line captured by the victim cache is not a primary
        # dirty push; it becomes one when it leaves the victim cache.
        trace = make_trace([(_W, 0), (_R, 64), (_R, 0)])
        plain = UnifiedCache(_DM)
        simulate(trace, plain)
        assert plain.cache.stats.dirty_pushes == 1

        with_vc = UnifiedCache(_DM, miss_path=[VictimCache(4)])
        report = simulate(trace, with_vc)
        assert report.overall.dirty_pushes == 0
        assert report.mechanism("victim-cache").dirty_pushes == 0

    def test_purge_flushes_contents(self):
        vc = VictimCache(4)
        MissPathChain([vc]).attach((), 16)
        vc.on_evict(1, 0)
        vc.on_evict(2, 0)
        vc.purge()
        assert vc.resident_lines() == []
        assert vc.stats.purge_pushes == 2
        assert vc.stats.purges == 1

    def test_rejects_nonpositive_entries(self):
        with pytest.raises(ValueError, match="positive"):
            VictimCache(0)


class TestMissCache:
    def test_probe_hit_keeps_the_copy(self):
        mc = MissCache(4)
        MissPathChain([mc]).attach((), 16)
        mc.on_fill(int(_R), 5, None)
        assert mc.probe(int(_R), 5) == 0
        assert mc.probe(int(_R), 5) == 0  # still there: it is a copy
        assert mc.resident_lines() == [5]

    def test_fills_evict_lru(self):
        mc = MissCache(2)
        MissPathChain([mc]).attach((), 16)
        for line in (1, 2, 3):
            mc.on_fill(int(_R), line, None)
        assert mc.resident_lines() == [2, 3]
        assert mc.stats.replacement_pushes == 1

    def test_thrash_hits_but_less_than_victim_cache(self):
        report_mc = simulate(
            _thrash(10), UnifiedCache(_DM, miss_path=[MissCache(4)])
        )
        block = report_mc.mechanism("miss-cache")
        assert block.hits == 18  # both lines fit: same as the VC here
        assert report_mc.effective_miss_ratio == pytest.approx(2 / 20)

    def test_copies_never_write_back(self):
        trace = make_trace([(_W, 0), (_R, 64), (_W, 0), (_R, 64)])
        report = simulate(trace, UnifiedCache(_DM, miss_path=[MissCache(1)]))
        assert report.mechanism("miss-cache").dirty_pushes == 0
        # The primary still pushes its dirty victims (no custody change).
        assert report.overall.dirty_pushes > 0


class TestStreamBuffers:
    def test_sequential_stream_coverage(self):
        trace = make_trace([(_R, line * 16) for line in range(32)])
        organization = UnifiedCache(
            CacheGeometry(64, 16, 1), miss_path=[StreamBuffers(1, 4)]
        )
        report = simulate(trace, organization)
        block = report.mechanism("stream-buffers")
        # One cold allocation at line 0, then every miss hits the head.
        assert block.references == 32
        assert block.misses == 1
        assert block.useful_prefetches == 31
        assert report.effective_miss_ratio == pytest.approx(1 / 32)

    def test_head_only_probing(self):
        sb = StreamBuffers(1, 4)
        MissPathChain([sb]).attach((), 16)
        assert sb.probe(int(_R), 0) is None  # allocates 1..4
        assert sb.pending_lines() == [[1, 2, 3, 4]]
        # Line 3 is queued but not at the head: a miss, and the miss
        # reallocates the buffer to the new stream at 4..7.
        assert sb.probe(int(_R), 3) is None
        assert sb.pending_lines() == [[4, 5, 6, 7]]
        assert sb.probe(int(_R), 4) == 0  # head of the new stream

    def test_hit_tops_up(self):
        sb = StreamBuffers(1, 4)
        MissPathChain([sb]).attach((), 16)
        sb.probe(int(_R), 0)
        assert sb.probe(int(_R), 1) == 0
        assert sb.pending_lines() == [[2, 3, 4, 5]]
        assert sb.stats.prefetches == 5  # depth at allocation + 1 top-up
        assert sb.stats.useful_prefetches == 1

    def test_miss_reallocates_lru_buffer(self):
        sb = StreamBuffers(2, 2)
        MissPathChain([sb]).attach((), 16)
        sb.probe(int(_R), 0)  # buffer 0: [1, 2]
        sb.probe(int(_R), 100)  # buffer 1: [101, 102]
        sb.probe(int(_R), 200)  # reallocates buffer 0 (LRU)
        assert sb.pending_lines() == [[201, 202], [101, 102]]

    def test_buffers_sharing_a_head_consume_the_lower_index_first(self):
        sb = StreamBuffers(2, 2)
        MissPathChain([sb]).attach((), 16)
        sb.probe(int(_R), 0)  # buffer 0: [1, 2]
        sb.probe(int(_R), 0)  # a miss again: buffer 1 (LRU) gets [1, 2] too
        assert sb.pending_lines() == [[1, 2], [1, 2]]
        assert sb.probe(int(_R), 1) == 0
        assert sb.pending_lines() == [[2, 3], [1, 2]]
        assert sb.probe(int(_R), 1) == 0
        assert sb.pending_lines() == [[2, 3], [2, 3]]
        assert sb.probe(int(_R), 2) == 0
        assert sb.pending_lines() == [[3, 4], [2, 3]]
        assert sb.stats.prefetches == 7  # 2 allocations of 2, 3 top-ups
        assert sb.stats.useful_prefetches == 3

    def test_allocation_after_a_purge_starts_at_buffer_zero(self):
        sb = StreamBuffers(2, 2)
        MissPathChain([sb]).attach((), 16)
        sb.probe(int(_R), 0)  # buffer 0
        sb.probe(int(_R), 100)  # buffer 1
        sb.purge()
        sb.probe(int(_R), 200)
        assert sb.pending_lines() == [[201, 202], []]
        sb.probe(int(_R), 300)
        assert sb.pending_lines() == [[201, 202], [301, 302]]
        assert sb.probe(int(_R), 201) == 0
        assert sb.pending_lines() == [[202, 203], [301, 302]]
        assert sb.stats.prefetches == 9  # 4 allocations of 2, 1 top-up
        assert sb.stats.useful_prefetches == 1

    def test_purge_drops_contents_without_pushes(self):
        sb = StreamBuffers(1, 4)
        MissPathChain([sb]).attach((), 16)
        sb.probe(int(_R), 0)
        sb.purge()
        assert sb.pending_lines() == [[]]
        assert sb.stats.pushes == 0
        assert sb.stats.purges == 1

    def test_stream_fetch_policy_auto_attaches(self):
        organization = UnifiedCache(
            CacheGeometry(64, 16), fetch_policy=FetchPolicy.STREAM
        )
        trace = make_trace([(_R, line * 16) for line in range(8)])
        report = simulate(trace, organization)
        assert "stream-buffers" in report.mechanism_names


class TestSecondLevelCache:
    def test_l2_stats_are_the_memory_account(self):
        trace = _thrash(10)
        organization = UnifiedCache(
            _DM, miss_path=MechanismConfig(l2_size=4096).build(16)
        )
        report = simulate(trace, organization)
        l2 = report.mechanism("l2")
        assert l2.references == 20  # every primary miss reaches the L2
        assert l2.misses == 2  # both lines fit: cold misses only
        assert l2.lines_fetched == 2
        # The L2 does not hide primary misses from the effective ratio.
        assert report.effective_miss_ratio == pytest.approx(1.0)

    def test_back_invalidation_keeps_inclusion(self):
        # A one-line L2 behind a large primary: every L2 fill evicts the
        # previous L2 line, which must knock the line out of the primary.
        organization = UnifiedCache(
            CacheGeometry(256, 16),
            miss_path=[SecondLevelCache(CacheGeometry(16, 16))],
        )
        trace = make_trace([(_R, 0), (_R, 16), (_R, 0)])
        report = simulate(trace, organization)
        # Line 0 was back-invalidated by line 1's fill: a third miss.
        assert report.overall.misses == 3

    def test_dirty_victim_lands_in_l2(self):
        organization = UnifiedCache(
            _DM, miss_path=MechanismConfig(l2_size=4096).build(16)
        )
        trace = make_trace([(_W, 0), (_R, 64), (_R, 0)])
        report = simulate(trace, organization)
        # The dirty L1 victim was absorbed by the L2 (no memory push yet).
        assert report.overall.dirty_pushes == 1  # L1 -> L2
        assert report.mechanism("l2").dirty_pushes == 0  # nothing left L2

    def test_l2_line_must_be_a_multiple(self):
        organization_args = CacheGeometry(64, 16, 1)
        with pytest.raises(ValueError, match="multiple"):
            UnifiedCache(
                organization_args,
                miss_path=[SecondLevelCache(CacheGeometry(256, 8))],
            )

    def test_wide_l2_lines_cover_several_primary_lines(self):
        organization = UnifiedCache(
            _DM,
            miss_path=[SecondLevelCache(CacheGeometry(4096, 32))],
        )
        trace = make_trace([(_R, 0), (_R, 16)])  # one 32-byte L2 line
        report = simulate(trace, organization)
        l2 = report.mechanism("l2")
        assert l2.references == 2
        assert l2.misses == 1  # the second primary miss hits the L2 line
        assert l2.line_size == 32


class TestComposition:
    def test_combo_probes_in_chain_order(self):
        config = MechanismConfig(
            victim_entries=4, miss_entries=4, stream_buffers=2, l2_size=4096
        )
        organization = UnifiedCache(_DM, miss_path=config.build(16))
        report = simulate(_thrash(6), organization)
        assert report.mechanism_names == (
            "victim-cache",
            "miss-cache",
            "stream-buffers",
            "l2",
        )
        # The victim cache sits first, so it wins the thrash swaps; the
        # structures behind it only see the cold misses.
        assert report.mechanism("victim-cache").hits == 10
        assert report.mechanism("miss-cache").references == 2
        assert report.mechanism("stream-buffers").references == 2

    def test_split_organization_shares_one_chain(self):
        config = MechanismConfig(victim_entries=4)
        organization = SplitCache(CacheGeometry(64, 16, 1), miss_path=config.build(16))
        trace = make_trace(
            [(AccessKind.IFETCH, 0), (AccessKind.IFETCH, 64), (_R, 0), (_R, 64)] * 3
        )
        report = simulate(trace, organization)
        block = report.mechanism("victim-cache")
        # Both sides probe the same victim cache.
        assert block.ifetch.references > 0
        assert block.read.references > 0

    def test_duplicate_components_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            MissPathChain([VictimCache(2), VictimCache(4)])

    def test_non_component_rejected(self):
        with pytest.raises(TypeError, match="MissPathComponent"):
            MissPathChain([object()])

    def test_component_cannot_be_reattached(self):
        vc = VictimCache(2)
        UnifiedCache(_DM, miss_path=[vc])
        with pytest.raises(ValueError, match="already attached"):
            UnifiedCache(_DM, miss_path=[vc])

    def test_warm_guard_sees_component_state(self, tiny_trace):
        organization = UnifiedCache(_DM, miss_path=[VictimCache(4)])
        simulate(tiny_trace, organization)
        organization.reset_statistics()
        assert organization.is_warm()  # victim cache still holds lines
        with pytest.raises(ValueError, match="allow_warm"):
            simulate(tiny_trace, organization)

    def test_unprobed_component_ratio_is_nan(self):
        report = simulate(
            make_trace([]), UnifiedCache(_DM, miss_path=[VictimCache(4)])
        )
        assert math.isnan(report.mechanism("victim-cache").miss_ratio)

    def test_unknown_mechanism_name_raises(self, tiny_trace):
        report = simulate(tiny_trace, UnifiedCache(_DM, miss_path=[VictimCache(4)]))
        with pytest.raises(KeyError):
            report.mechanism("l2")


class TestMechanismConfig:
    def test_inactive_by_default(self):
        config = MechanismConfig()
        assert not config.active
        assert SimulateJob(size=1024, mechanisms=config).mechanisms is None
        assert config.build(16) == ()

    def test_identity_is_canonical(self):
        # A job lists an active config field by field; an inactive one
        # keys exactly like a job without mechanisms.
        config = MechanismConfig(victim_entries=4, stream_buffers=2, stream_depth=8)
        assert SimulateJob(size=1024, mechanisms=config).identity()["mechanisms"] == {
            "victim_entries": 4, "miss_entries": 0, "stream_buffers": 2,
            "stream_depth": 8, "l2_size": None, "l2_line_size": None,
            "l2_associativity": None,
        }
        assert (SimulateJob(size=1024, mechanisms=MechanismConfig()).identity()
                == SimulateJob(size=1024).identity())

    def test_stream_depth_without_stream_buffers_keys_as_content(self):
        # A depth for absent stream buffers configures nothing, so it must
        # not split one experiment into two cache keys.
        spec = TraceSpec.catalog("ZGREP", 4_000)
        plain, deep = (
            CampaignCell("c", spec, SimulateJob(
                size=1024, associativity=1, mechanisms=MechanismConfig(**fields)))
            for fields in ({"victim_entries": 4},
                           {"victim_entries": 4, "stream_depth": 8})
        )
        assert cell_key(plain) == cell_key(deep)
        assert MechanismConfig(stream_buffers=2, stream_depth=8).stream_depth == 8

    def test_l2_options_need_l2_size(self):
        with pytest.raises(ValueError, match="l2_size"):
            MechanismConfig(l2_line_size=32)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            MechanismConfig(victim_entries=-1)
        with pytest.raises(ValueError):
            MechanismConfig(stream_buffers=1, stream_depth=0)

    def test_build_defaults_l2_line_to_primary(self):
        (l2,) = MechanismConfig(l2_size=1024).build(16)
        assert l2.cache.geometry.line_size == 16
