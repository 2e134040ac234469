"""Miss-path mechanisms: victim/miss caches, stream buffers, and an L2.

The paper's design space stops at one cache level with demand or
sequential-prefetch fetching.  This module adds the miss-path mechanisms
that dominated the decade after 1985 — Jouppi's fully-associative victim
and miss caches, his stream buffers, and an inclusive second cache level —
as *composable components* hung off a primary cache's miss path.

Component model
---------------
A :class:`MissPathComponent` sees three events from the primary cache(s):

* ``probe(kind, line)`` — the primary missed on ``line``; the component
  reports a hit (returning preserved flag bits to merge into the refilled
  line) or a miss (``None``).  Components are probed in chain order and
  the first hit services the miss.
* ``on_evict(line, flags)`` — the primary replaced ``line``; a component
  may take custody of it (victim cache) by returning True, which also
  transfers the write-back obligation.
* ``on_fill(kind, line, source)`` — a miss for ``line`` has been resolved
  (``source`` is the servicing component, or None for memory); fill-
  capturing components (miss cache, inclusive L2) react here.

A :class:`MissPathChain` owns an ordered tuple of components (canonical
order: victim cache, miss cache, stream buffers, L2) and is what a
:class:`~repro.core.cache.Cache` calls from its miss and eviction paths.
Each component keeps its own :class:`~repro.core.stats.CacheStats` whose
per-class counters record *probes* — so ``1 - stats.miss_ratio`` is the
component's hit rate, and the usual NaN convention applies when a
component was never probed.

Traffic convention
------------------
``dirty_pushes`` on any stats block counts dirty lines pushed out of
*that* structure to the next level down, whatever it is.  A dirty line
captured by a victim cache is therefore **not** counted as a dirty push at
the primary (custody moved sideways, no transfer to the next level); it is
counted when it finally leaves the victim cache.  With an L2 in the chain,
memory-side write-backs are the L2's ``dirty_pushes``; without one they
are the sum over the primary and the components.  See
:attr:`repro.core.simulator.SimulationReport.effective_memory_traffic_bytes`.

Model simplifications (documented deliberately):

* Stream buffers fetch from memory, bypassing the L2's reference counters;
  the inclusive L2 quietly mirrors buffer-serviced fills to keep inclusion.
* Back-invalidated primary lines vanish (their dirty state is counted as a
  push at the primary); they are not offered to a victim cache.
* Purges drop stream-buffer contents without counting pushes (buffer
  entries are prefetches in flight, not resident lines).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from ..trace.record import AccessKind
from .address import CacheGeometry
from .cache import (
    FLAG_DATA,
    FLAG_DIRTY,
    FLAG_REFERENCED,
    Cache,
)
from .replacement import ReplacementPolicyFactory
from .stats import CacheStats
from .write import COPY_BACK, WritePolicy

__all__ = [
    "MechanismConfig",
    "MissCache",
    "MissPathChain",
    "MissPathComponent",
    "SecondLevelCache",
    "StreamBuffers",
    "VictimCache",
]

_READ = int(AccessKind.READ)
_WRITE = int(AccessKind.WRITE)


class MissPathComponent:
    """One mechanism on a primary cache's miss path.

    Subclasses override the event hooks they care about.  ``stats`` holds
    the component's own counters: per-class references/misses record
    probes (so hit rate is ``1 - miss_ratio``), push counters record lines
    leaving the component, and the prefetch counters are used by
    :class:`StreamBuffers`.
    """

    #: Stable identifier; unique within a chain and used as the stats key
    #: in :attr:`repro.core.simulator.SimulationReport.mechanisms`.
    name: str = "component"

    def __init__(self) -> None:
        self.stats = CacheStats()
        self._chain: MissPathChain | None = None
        self._index = -1
        self._line_size = 0

    # -- wiring ---------------------------------------------------------------

    def _attach(self, chain: "MissPathChain", index: int, line_size: int) -> None:
        if self._chain is not None:
            raise ValueError(
                f"miss-path component {self.name!r} is already attached to a "
                "chain; build a fresh component per organization"
            )
        self._chain = chain
        self._index = index
        self._line_size = line_size
        self.stats.line_size = line_size

    # -- event hooks ----------------------------------------------------------

    def probe(self, kind: int, line: int) -> int | None:
        """Probe for ``line`` on a primary miss.

        Returns preserved flag bits (>= 0) on a hit, None on a miss.
        """
        return None

    def on_evict(self, line: int, flags: int) -> bool:
        """The primary replaced ``line``; True iff this component took
        custody of it (and of its write-back obligation)."""
        return False

    def on_fill(self, kind: int, line: int, source: "MissPathComponent | None") -> None:
        """A miss for ``line`` was resolved; ``source`` serviced it."""

    def accepts_writeback(self, line: int) -> bool:
        """Absorb a dirty write-back travelling down the chain; True iff
        absorbed (an inclusive L2 marks its copy dirty)."""
        return False

    # -- lifecycle ------------------------------------------------------------

    def purge(self) -> None:
        """Invalidate the component's contents (task switch)."""

    def reset_statistics(self) -> None:
        """Zero the counters without touching contents (warm start)."""
        self.stats.clear()

    def is_warm(self) -> bool:
        """True iff the component holds state or non-zero counters."""
        return bool(self.stats.references or self.stats.pushes or self.stats.prefetches)

    def _writeback_down(self, line: int) -> None:
        """Send a dirty line leaving this component toward memory."""
        if self._chain is not None:
            self._chain.writeback_below(self._index, line)

    def _count_push(self, flags: int) -> None:
        stats = self.stats
        if flags & FLAG_DATA:
            stats.data_pushes += 1
            if flags & FLAG_DIRTY:
                stats.dirty_data_pushes += 1
        if flags & FLAG_DIRTY:
            stats.dirty_pushes += 1


class MissPathChain:
    """Ordered miss-path components shared by a cache organization.

    The chain is what the primary :class:`~repro.core.cache.Cache` calls:
    ``service_miss`` from its miss path and ``on_evict`` from its
    replacement path.  A split organization shares one chain between its
    instruction and data caches (line sizes are equal by construction, so
    memory line numbers are unambiguous).
    """

    def __init__(self, components) -> None:
        comps = tuple(components)
        for comp in comps:
            if not isinstance(comp, MissPathComponent):
                raise TypeError(f"not a MissPathComponent: {comp!r}")
        names = [comp.name for comp in comps]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate miss-path component names: {names}")
        self.components = comps
        self._members: tuple[Cache, ...] = ()

    def attach(self, members: tuple[Cache, ...], line_size: int) -> None:
        """Wire the chain to its primary caches (called by the organization)."""
        self._members = members
        for index, comp in enumerate(self.components):
            comp._attach(self, index, line_size)

    # -- events from the primary cache ----------------------------------------

    def service_miss(self, kind: int, line: int) -> int:
        """Walk the chain on a primary miss; returns flag bits for the
        refilled line (0 when memory services it)."""
        source: MissPathComponent | None = None
        extra = 0
        for comp in self.components:
            result = comp.probe(kind, line)
            if result is not None:
                source = comp
                extra = result
                break
        for comp in self.components:
            comp.on_fill(kind, line, source)
        return extra

    def on_evict(self, line: int, flags: int) -> bool:
        """Offer a replaced primary line along the chain.

        Returns True iff a component captured it (victim cache), in which
        case the primary skips its dirty/data push accounting — custody
        and the write-back obligation moved into the component.
        """
        for comp in self.components:
            if comp.on_evict(line, flags):
                return True
        return False

    def writeback_below(self, index: int, line: int) -> bool:
        """Route a dirty line leaving component ``index`` downward."""
        for comp in self.components[index + 1 :]:
            if comp.accepts_writeback(line):
                return True
        return False

    # -- lifecycle ------------------------------------------------------------

    def purge(self) -> None:
        for comp in self.components:
            comp.purge()

    def reset_statistics(self) -> None:
        for comp in self.components:
            comp.reset_statistics()

    def is_warm(self) -> bool:
        return any(comp.is_warm() for comp in self.components)

    def mechanism_stats(self) -> tuple[tuple[str, CacheStats], ...]:
        """(name, stats) per component, in chain order."""
        return tuple((comp.name, comp.stats) for comp in self.components)


class VictimCache(MissPathComponent):
    """Jouppi's victim cache: a small fully-associative buffer of lines
    recently *replaced* in the primary cache.

    A probe hit removes the line (it swaps back into the primary, whose
    displaced victim then arrives via ``on_evict`` — the net effect is the
    swap of [Jou90]); flag bits, including dirty state, survive the round
    trip.  Dirty lines falling out of the victim cache count as its dirty
    pushes and travel down the chain (an L2 absorbs them).
    """

    name = "victim-cache"

    def __init__(self, entries: int = 4) -> None:
        if entries <= 0:
            raise ValueError(f"victim cache needs a positive entry count, got {entries}")
        super().__init__()
        self.entries = entries
        self._lines: OrderedDict[int, int] = OrderedDict()

    def probe(self, kind: int, line: int) -> int | None:
        counts = self.stats.counts_by_kind()[kind]
        counts.references += 1
        flags = self._lines.pop(line, None)
        if flags is None:
            counts.misses += 1
            return None
        return flags

    def on_evict(self, line: int, flags: int) -> bool:
        lines = self._lines
        if line in lines:  # stale duplicate: refresh in place
            del lines[line]
        elif len(lines) >= self.entries:
            victim, victim_flags = lines.popitem(last=False)
            self.stats.replacement_pushes += 1
            self._count_push(victim_flags)
            if victim_flags & FLAG_DIRTY:
                self._writeback_down(victim)
        lines[line] = flags
        return True

    def purge(self) -> None:
        stats = self.stats
        for flags in self._lines.values():
            stats.purge_pushes += 1
            self._count_push(flags)
        self._lines.clear()
        stats.purges += 1

    def is_warm(self) -> bool:
        return bool(self._lines) or super().is_warm()

    def resident_lines(self) -> list[int]:
        """Line numbers held, LRU to MRU (testing/introspection)."""
        return list(self._lines)


class MissCache(MissPathComponent):
    """Jouppi's miss cache: a small fully-associative cache of the lines
    most recently *missed on* (duplicate copies of primary fills).

    Unlike the victim cache, a probe hit keeps the line (it is a copy);
    every resolved primary miss is inserted via ``on_fill``.  Copies are
    clean, so evictions never cost write-backs.
    """

    name = "miss-cache"

    def __init__(self, entries: int = 4) -> None:
        if entries <= 0:
            raise ValueError(f"miss cache needs a positive entry count, got {entries}")
        super().__init__()
        self.entries = entries
        self._lines: OrderedDict[int, None] = OrderedDict()

    def probe(self, kind: int, line: int) -> int | None:
        counts = self.stats.counts_by_kind()[kind]
        counts.references += 1
        if line in self._lines:
            self._lines.move_to_end(line)
            return 0
        counts.misses += 1
        return None

    def on_fill(self, kind: int, line: int, source: MissPathComponent | None) -> None:
        if source is self:
            return  # probe already refreshed recency
        lines = self._lines
        if line in lines:
            lines.move_to_end(line)
            return
        if len(lines) >= self.entries:
            lines.popitem(last=False)
            self.stats.replacement_pushes += 1
        lines[line] = None

    def purge(self) -> None:
        self.stats.purge_pushes += len(self._lines)
        self._lines.clear()
        self.stats.purges += 1

    def is_warm(self) -> bool:
        return bool(self._lines) or super().is_warm()

    def resident_lines(self) -> list[int]:
        """Line numbers held, LRU to MRU (testing/introspection)."""
        return list(self._lines)


class StreamBuffers(MissPathComponent):
    """Jouppi's multi-way stream buffers: FIFO queues of sequentially
    prefetched lines, probed at their heads only.

    A head hit consumes the line, counts a useful prefetch, and tops the
    buffer up with the next sequential line; a miss allocates the
    least-recently-used buffer with lines ``line+1 .. line+depth``.
    Coverage is ``1 - stats.miss_ratio``; issued buffer fetches are
    ``stats.prefetches`` (they are memory traffic), and
    ``stats.prefetch_accuracy`` is the fraction consumed.
    """

    name = "stream-buffers"

    def __init__(self, buffers: int = 4, depth: int = 4) -> None:
        if buffers <= 0 or depth <= 0:
            raise ValueError(
                f"stream buffers need positive counts, got {buffers} x {depth}"
            )
        super().__init__()
        self.buffers = buffers
        self.depth = depth
        # A buffer's queue is always the run ``[head, head + depth)``, so
        # its head stands for it; -1 marks an empty buffer.
        self._heads: list[int] = [-1] * buffers
        self._used: list[int] = [0] * buffers
        self._tick = 0

    def probe(self, kind: int, line: int) -> int | None:
        counts = self.stats.counts_by_kind()[kind]
        counts.references += 1
        self._tick += 1
        heads = self._heads
        stats = self.stats
        if line in heads:
            # The lowest-numbered buffer holding the line at its head wins.
            index = heads.index(line)
            heads[index] = line + 1
            stats.prefetches += 1
            stats.useful_prefetches += 1
            self._used[index] = self._tick
            return 0
        counts.misses += 1
        # Allocate the LRU buffer to the new stream (Jouppi: buffers are
        # (re)allocated on misses that miss the buffers too).
        index = self._used.index(min(self._used))
        heads[index] = line + 1
        self._used[index] = self._tick
        stats.prefetches += self.depth
        return None

    def purge(self) -> None:
        self._heads = [-1] * self.buffers
        self._used = [0] * self.buffers
        self._tick = 0
        self.stats.purges += 1

    def is_warm(self) -> bool:
        return any(head >= 0 for head in self._heads) or super().is_warm()

    def pending_lines(self) -> list[list[int]]:
        """Queued line numbers per buffer (testing/introspection)."""
        return [
            list(range(head, head + self.depth)) if head >= 0 else []
            for head in self._heads
        ]


class _L2EvictionObserver:
    """Miss-path hook of the L2's internal Cache: back-invalidation.

    The L2's own misses go to memory (``service_miss`` is a no-op), but
    its replacements must evict any covered primary lines to keep the
    hierarchy inclusive.
    """

    __slots__ = ("owner",)

    def __init__(self, owner: "SecondLevelCache") -> None:
        self.owner = owner

    def service_miss(self, kind: int, line: int) -> int:
        return 0

    def on_evict(self, line: int, flags: int) -> bool:
        self.owner._back_invalidate(line)
        return False


class SecondLevelCache(MissPathComponent):
    """An inclusive unified second-level cache behind the primary.

    The component wraps a real :class:`~repro.core.cache.Cache` with its
    own geometry (its line size must be >= the primary's, a power-of-two
    multiple).  It is probed last; an L2 miss fetches the line from memory
    into the L2 (counted in its ``demand_fetches``), so its stats block
    *is* the L1↔memory traffic account: ``references``/``misses`` are the
    primary misses reaching it, ``lines_fetched`` and ``dirty_pushes`` the
    memory-side transfers.  Inclusion is maintained by back-invalidating
    primary lines covered by an L2 replacement (their dirty state counts
    as a primary push) and by quietly mirroring fills serviced above the
    L2 (victim/miss cache or stream-buffer hits).
    """

    name = "l2"

    def __init__(
        self,
        geometry: CacheGeometry,
        replacement: ReplacementPolicyFactory | None = None,
        write_policy: WritePolicy = COPY_BACK,
    ) -> None:
        super().__init__()
        self.cache = Cache(
            geometry, replacement, write_policy, miss_path=_L2EvictionObserver(self)
        )
        self.stats = self.cache.stats  # the wrapped cache keeps the counters
        self._members: tuple[Cache, ...] = ()
        self._ratio = 1  # primary lines per L2 line

    def _attach(self, chain: MissPathChain, index: int, line_size: int) -> None:
        l2_line = self.cache.geometry.line_size
        if l2_line % line_size:
            raise ValueError(
                f"L2 line size {l2_line} must be a multiple of the primary "
                f"line size {line_size}"
            )
        super()._attach(chain, index, line_size)
        self.stats.line_size = l2_line  # undo the chain's primary-line stamp
        self._members = chain._members
        self._ratio = l2_line // line_size

    def probe(self, kind: int, line: int) -> int | None:
        # One primary line never straddles an L2 line (power-of-two sizes).
        hit = self.cache.access_raw(kind, line * self._line_size, self._line_size)
        return 0 if hit else None

    def on_evict(self, line: int, flags: int) -> bool:
        if flags & FLAG_DIRTY:
            # Dirty L1 victim written back into the L2 (L1→L2 traffic; the
            # L1 push accounting stands — it is a push to the next level).
            self.cache.mark_dirty(line * self._line_size)
        return False

    def accepts_writeback(self, line: int) -> bool:
        return self.cache.mark_dirty(line * self._line_size)

    def on_fill(self, kind: int, line: int, source: MissPathComponent | None) -> None:
        if source is self or source is None:
            return  # a memory fill already passed through probe()
        address = line * self._line_size
        if not self.cache.contains(address):
            # Inclusion repair for fills serviced above the L2.
            flags = FLAG_REFERENCED
            if kind == _READ or kind == _WRITE:
                flags |= FLAG_DATA
            self.cache.fill_line(address, flags)

    def _back_invalidate(self, l2_line: int) -> None:
        base = l2_line * self._ratio
        for covered in range(base, base + self._ratio):
            address = covered * self._line_size
            for member in self._members:
                member.invalidate(address)

    def purge(self) -> None:
        self.cache.purge()

    def reset_statistics(self) -> None:
        self.cache.reset_statistics()

    def is_warm(self) -> bool:
        return len(self.cache) > 0 or super().is_warm()


#: Default entries per stream buffer of a :class:`MechanismConfig`.
_STREAM_DEPTH = 4


@dataclass(frozen=True, slots=True)
class MechanismConfig:
    """Declarative miss-path configuration for jobs and the CLI.

    Zero/None fields mean "mechanism absent"; :meth:`build` materializes
    the configured components in canonical chain order (victim cache, miss
    cache, stream buffers, L2).  Its fields enter a simulate cell's cache
    key, and its wire form, when it is active
    (:class:`repro.core.jobs.SimulateJob`).  ``stream_depth`` without
    stream buffers configures nothing, so it is reset to its default:
    equal experiments get equal keys.
    """

    victim_entries: int = 0
    miss_entries: int = 0
    stream_buffers: int = 0
    stream_depth: int = _STREAM_DEPTH
    l2_size: int | None = None
    l2_line_size: int | None = None
    l2_associativity: int | None = None

    def __post_init__(self) -> None:
        if self.victim_entries < 0 or self.miss_entries < 0:
            raise ValueError("victim/miss entry counts must be non-negative")
        if self.stream_buffers < 0 or self.stream_depth <= 0:
            raise ValueError("stream buffer counts must be sane (depth positive)")
        if self.l2_size is None and (
            self.l2_line_size is not None or self.l2_associativity is not None
        ):
            raise ValueError("l2_line_size/l2_associativity need l2_size")
        if not self.stream_buffers:
            object.__setattr__(self, "stream_depth", _STREAM_DEPTH)

    @property
    def active(self) -> bool:
        """True iff any mechanism is configured."""
        return bool(
            self.victim_entries
            or self.miss_entries
            or self.stream_buffers
            or self.l2_size
        )

    def build(self, line_size: int) -> tuple[MissPathComponent, ...]:
        """Fresh components in canonical chain order."""
        components: list[MissPathComponent] = []
        if self.victim_entries:
            components.append(VictimCache(self.victim_entries))
        if self.miss_entries:
            components.append(MissCache(self.miss_entries))
        if self.stream_buffers:
            components.append(StreamBuffers(self.stream_buffers, self.stream_depth))
        if self.l2_size:
            geometry = CacheGeometry(
                self.l2_size,
                self.l2_line_size if self.l2_line_size else line_size,
                self.l2_associativity,
            )
            components.append(SecondLevelCache(geometry))
        return tuple(components)
