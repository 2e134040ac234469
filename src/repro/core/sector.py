"""Sector (block/sub-block) cache, the Zilog Z80000 design.

The paper's motivating mis-prediction ([Alpe83], Section 1.2) concerns a
sector cache: "The machine uses a sector cache (block/subblock), with a 16
byte sector (larger block) and then fetches either 2 bytes, 4 bytes or 16
bytes (called a block or subblock)."

In a sector cache the address tag covers a whole *sector*, but data is
fetched one *sub-block* at a time, each with its own valid bit.  A reference
can therefore miss two ways:

* **sector miss** — no resident sector matches; a victim sector is pushed
  (writing back its dirty sub-blocks) and only the referenced sub-block is
  fetched;
* **sub-block miss** — the sector is resident but the sub-block's valid bit
  is clear; the sub-block is fetched in place.

Both count as misses; only sub-block-sized transfers hit the bus, which is
the design's attraction for a 256-byte on-chip cache.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from ..trace.record import AccessKind, MemoryAccess
from .address import is_power_of_two
from .organization import CacheOrganization
from .stats import CacheStats

__all__ = ["SectorGeometry", "SectorCache", "SectorCacheOrganization"]

_WRITE = int(AccessKind.WRITE)
_READ = int(AccessKind.READ)


@dataclass(frozen=True, slots=True)
class SectorGeometry:
    """Shape of a sector cache.

    Args:
        capacity: total data bytes.
        sector_size: bytes per sector (the tagged unit).
        subblock_size: bytes per sub-block (the fetched unit).

    Raises:
        ValueError: unless capacity, sector and sub-block sizes are powers
            of two with ``subblock_size <= sector_size <= capacity``.
    """

    capacity: int
    sector_size: int = 16
    subblock_size: int = 4

    def __post_init__(self) -> None:
        for name in ("capacity", "sector_size", "subblock_size"):
            if not is_power_of_two(getattr(self, name)):
                raise ValueError(f"{name} must be a power of two, got {getattr(self, name)}")
        if not self.subblock_size <= self.sector_size <= self.capacity:
            raise ValueError(
                "expected subblock_size <= sector_size <= capacity, got "
                f"{self.subblock_size}/{self.sector_size}/{self.capacity}"
            )

    @property
    def num_sectors(self) -> int:
        """Sector frames in the cache."""
        return self.capacity // self.sector_size

    @property
    def subblocks_per_sector(self) -> int:
        """Sub-blocks per sector."""
        return self.sector_size // self.subblock_size


class SectorCache:
    """Fully associative LRU sector cache.

    Statistics land in a standard :class:`~repro.core.stats.CacheStats`
    with ``line_size`` set to the sub-block size, so traffic accounting
    (bytes = sub-block transfers x sub-block size) composes with the rest of
    the package.

    Args:
        geometry: the sector-cache shape.
        copy_back: if True (default), writes dirty sub-blocks back on
            eviction; otherwise writes go straight through.
    """

    def __init__(self, geometry: SectorGeometry, copy_back: bool = True) -> None:
        self.geometry = geometry
        self.copy_back = copy_back
        self.stats = CacheStats(line_size=geometry.subblock_size)
        # sector number -> (valid_mask, dirty_mask, data_mask)
        self._sectors: OrderedDict[int, list[int]] = OrderedDict()

    # -- public API ----------------------------------------------------------

    def access(self, access: MemoryAccess) -> bool:
        """Apply one typed reference; True iff it hit."""
        return self.access_raw(int(access.kind), access.address, access.size)

    def access_raw(self, kind: int, address: int, size: int) -> bool:
        """Apply one reference; a straddling access probes each sub-block."""
        geometry = self.geometry
        first = address // geometry.subblock_size
        last = (address + size - 1) // geometry.subblock_size
        hit = self._reference_subblock(kind, first, size)
        for subblock in range(first + 1, last + 1):
            self._reference_subblock(kind, subblock, size)
        return hit

    def purge(self) -> None:
        """Invalidate everything, pushing valid sub-blocks."""
        for masks in self._sectors.values():
            self._push_sector(masks, purge=True)
        self._sectors.clear()
        self.stats.purges += 1

    def reset_statistics(self) -> None:
        """Zero the counters in place without touching cache contents
        (warm start; external holders of ``stats`` stay attached)."""
        self.stats.clear()

    def contains(self, address: int) -> bool:
        """True iff the sub-block holding ``address`` is resident and valid."""
        subblock = address // self.geometry.subblock_size
        sector, offset = divmod(subblock, self.geometry.subblocks_per_sector)
        masks = self._sectors.get(sector)
        return masks is not None and bool(masks[0] >> offset & 1)

    def __len__(self) -> int:
        """Number of resident sectors."""
        return len(self._sectors)

    # -- internals -----------------------------------------------------------

    def _reference_subblock(self, kind: int, subblock: int, size: int) -> bool:
        stats = self.stats
        counts = stats.counts_for(AccessKind(kind))
        counts.references += 1

        sector, offset = divmod(subblock, self.geometry.subblocks_per_sector)
        bit = 1 << offset
        is_write = kind == _WRITE
        masks = self._sectors.get(sector)
        hit = masks is not None and bool(masks[0] & bit)

        if masks is None:
            # Sector miss: allocate a frame, fetch only this sub-block.
            if len(self._sectors) >= self.geometry.num_sectors:
                _victim, victim_masks = self._sectors.popitem(last=False)
                self._push_sector(victim_masks, purge=False)
            masks = [0, 0, 0]
            self._sectors[sector] = masks
        else:
            self._sectors.move_to_end(sector)

        if not hit:
            counts.misses += 1
            stats.demand_fetches += 1  # one sub-block transfer
            masks[0] |= bit

        if is_write:
            if self.copy_back:
                masks[1] |= bit
            else:
                stats.write_throughs += 1
                stats.write_through_bytes += min(size, self.geometry.subblock_size)
        if is_write or kind == _READ:
            masks[2] |= bit
        return hit

    def _push_sector(self, masks: list[int], purge: bool) -> None:
        """Count the eviction of one sector, sub-block by sub-block."""
        stats = self.stats
        valid, dirty, data = masks
        while valid:
            low = valid & -valid
            valid ^= low
            if purge:
                stats.purge_pushes += 1
            else:
                stats.replacement_pushes += 1
            if data & low:
                stats.data_pushes += 1
                if dirty & low:
                    stats.dirty_data_pushes += 1
            if dirty & low:
                stats.dirty_pushes += 1


class SectorCacheOrganization(CacheOrganization):
    """Adapter presenting a :class:`SectorCache` as a cache organization.

    Lets sector caches drive through the standard
    :func:`repro.core.simulator.simulate` loop (purge intervals, warmup,
    reports) like any unified cache::

        organization = SectorCacheOrganization(SectorGeometry(256, 16, 4))
        report = simulate(trace, organization, purge_interval=20_000)

    Args: forwarded to :class:`SectorCache`.
    """

    def __init__(self, geometry: SectorGeometry, copy_back: bool = True) -> None:
        self.cache = SectorCache(geometry, copy_back)
        # simulate() looks ``access_raw`` up once per run: the cache's own
        # bound method spares every reference a second Python call.
        self.access_raw = self.cache.access_raw

    def access_raw(self, kind: int, address: int, size: int) -> bool:
        return self.cache.access_raw(kind, address, size)

    def purge(self) -> None:
        self.cache.purge()

    def reset_statistics(self) -> None:
        self.cache.reset_statistics()

    def is_warm(self) -> bool:
        return len(self.cache) > 0 or super().is_warm()

    def overall_stats(self) -> CacheStats:
        return self.cache.stats

    def instruction_stats(self) -> CacheStats:
        # A sector cache is unified; per-class counters live inside.
        return self.cache.stats

    def data_stats(self) -> CacheStats:
        return self.cache.stats
