"""Tests for the sector (block/sub-block) cache — the Z80000 design."""

import dataclasses

import pytest

from repro.core import (
    DEFAULT_QUANTUM,
    SectorCache,
    SectorCacheOrganization,
    SectorGeometry,
    simulate,
)
from repro.core.jobs import CampaignCell, SimulateJob, TraceSpec, run_cell
from repro.trace import AccessKind, MemoryAccess

_R = int(AccessKind.READ)
_W = int(AccessKind.WRITE)


def z80000_cache(subblock=4):
    # 256-byte cache, 16-byte sectors: the [Alpe83] design.
    return SectorCache(SectorGeometry(256, 16, subblock))


class TestGeometry:
    def test_derived_counts(self):
        geometry = SectorGeometry(256, 16, 4)
        assert geometry.num_sectors == 16
        assert geometry.subblocks_per_sector == 4

    def test_ordering_validation(self):
        with pytest.raises(ValueError, match="subblock_size <= sector_size"):
            SectorGeometry(256, 16, 32)

    def test_power_of_two_validation(self):
        with pytest.raises(ValueError, match="power of two"):
            SectorGeometry(300, 16, 4)


class TestSectorSemantics:
    def test_sector_miss_fetches_only_subblock(self):
        cache = z80000_cache()
        cache.access_raw(_R, 0, 4)
        assert cache.stats.demand_fetches == 1  # one 4-byte sub-block
        assert cache.contains(0)
        assert not cache.contains(4)  # same sector, invalid sub-block

    def test_subblock_miss_within_resident_sector(self):
        cache = z80000_cache()
        cache.access_raw(_R, 0, 4)
        assert cache.access_raw(_R, 4, 4) is False  # sub-block miss
        assert len(cache) == 1  # still one sector
        assert cache.stats.misses == 2

    def test_hit_on_valid_subblock(self):
        cache = z80000_cache()
        cache.access_raw(_R, 0, 4)
        assert cache.access_raw(_R, 0, 4) is True
        assert cache.stats.misses == 1

    def test_lru_sector_eviction(self):
        cache = z80000_cache()
        for sector in range(17):  # one more than capacity
            cache.access_raw(_R, sector * 16, 4)
        assert not cache.contains(0)
        assert cache.contains(16 * 16)
        assert cache.stats.replacement_pushes == 1  # one valid sub-block pushed

    def test_eviction_pushes_each_valid_subblock(self):
        cache = z80000_cache()
        cache.access_raw(_R, 0, 4)
        cache.access_raw(_R, 4, 4)   # two valid sub-blocks in sector 0
        for sector in range(1, 17):
            cache.access_raw(_R, sector * 16, 4)
        assert cache.stats.replacement_pushes == 2

    def test_dirty_subblock_accounting(self):
        cache = z80000_cache()
        cache.access_raw(_W, 0, 4)
        cache.access_raw(_R, 4, 4)
        cache.purge()
        stats = cache.stats
        assert stats.purge_pushes == 2
        assert stats.dirty_pushes == 1
        assert stats.data_pushes == 2
        assert stats.dirty_data_pushes == 1

    def test_write_through_mode(self):
        cache = SectorCache(SectorGeometry(256, 16, 4), copy_back=False)
        cache.access_raw(_W, 0, 4)
        assert cache.stats.write_throughs == 1
        cache.purge()
        assert cache.stats.dirty_pushes == 0

    def test_straddling_access_touches_both_subblocks(self):
        cache = z80000_cache()
        cache.access_raw(_R, 2, 4)  # bytes 2-5: sub-blocks 0 and 1
        assert cache.stats.references == 2
        assert cache.contains(0) and cache.contains(4)

    def test_typed_access(self):
        cache = z80000_cache()
        assert cache.access(MemoryAccess(AccessKind.READ, 0)) is False

    def test_smaller_subblocks_miss_more_on_sequential_code(self):
        # The paper's core point about the Z80000/68020 designs: a small
        # fetch unit forfeits sequentiality.
        results = {}
        for subblock in (2, 4, 16):
            cache = z80000_cache(subblock)
            for address in range(0, 4096, 2):  # sequential 2-byte fetches
                cache.access_raw(_R, address, 2)
            results[subblock] = cache.stats.miss_ratio
        assert results[2] > results[4] > results[16]


class TestSectorCell:
    """A ``SimulateJob`` with ``subblock`` set is the Z80000 sector cache."""

    @pytest.mark.parametrize("subblock, write", [
        (2, "copy-back"), (4, "copy-back"), (16, "write-through"),
    ])
    def test_cell_report_equals_direct_simulation(self, subblock, write):
        spec = TraceSpec.catalog("ZGREP", 30_000)
        job = SimulateJob(size=256, subblock=subblock, write=write,
                          purge_interval=DEFAULT_QUANTUM)
        report = run_cell(CampaignCell("z80000", spec, job)).value
        direct = simulate(
            spec.build(),
            SectorCacheOrganization(SectorGeometry(256, 16, subblock),
                                    copy_back=write == "copy-back"),
            purge_interval=DEFAULT_QUANTUM,
        )
        for field in dataclasses.fields(direct):
            assert getattr(report, field.name) == getattr(direct, field.name), field.name
        assert report.overall.purges == 1
