"""Fast simulation kernels: specialized paths bit-identical to the engine.

The paper's value is the *scale* of its trace-driven campaign, so the hot
paths matter.  This module holds the replay kernels that exploit structure
instead of brute-force per-reference dispatch:

* :func:`lru_demand_replay` — replay for demand-fetch caches without write
  combining.  Cold, allocate-on-write, set-associative LRU members take one
  fully vectorized path, with or without a warmup reset: per-set stack
  distances classify every reference as hit or miss in whole-array passes
  (a reference hits a W-way set iff its distance within the set is at
  most W), and eviction/push/final-state accounting is recovered from
  *residency intervals* — the spans between consecutive misses of a
  line — with segmented prefix sums.  The distances and sort orders are
  memoized on the compiled trace view, so sweeping one trace across many
  cache sizes pays the O(n log² n) analysis once and each subsequent
  configuration costs a few O(n) array passes.  Every other LRU, FIFO or
  RANDOM member (warm start, write-through without write-allocate,
  set-associative FIFO, any RANDOM) takes one per-set dict loop: LRU
  reorders on a hit, FIFO and RANDOM do not (DEW's observation), and
  RANDOM draws its victims from the cache's own per-set generators.
  Organizations whose members are all cold, allocate-on-write,
  direct-mapped LRU or FIFO take the miss-stream replay, with or without
  a miss-path chain (victim/miss caches, stream buffers, an L2): a
  direct-mapped hit is "the previous reference to this set touched the
  same line", one O(n) classification per trace view shared by every
  chain.  Without an L2 the chain cannot change what a primary holds,
  so the components replay the misses one at a time — a miss cache in
  stack-distance passes over the miss-line stream, a victim cache or
  stream buffers through their own hooks — and the primaries'
  accounting is whole-array passes.  A lone LRU copy-back L2 is the
  vectorized LRU replay over the primaries' miss stream, unless one of
  its replacements would back-invalidate a resident primary line; that
  case, and an L2 behind other components, takes a Python loop that
  visits the misses, purges and the warmup reset in trace order,
  driving the real chain.  All paths credit the cache's statistics
  through one helper.
  :func:`repro.core.simulator.simulate` selects the kernel automatically
  when :func:`can_replay` approves the organization.

* :func:`all_associativity_hit_counts` — per-set LRU stack distances over
  a set-partitioned line stream: at a fixed set count, one pass yields the
  hit count for *every* associativity at once, the same inclusion-property
  trick :mod:`repro.core.stackdist` uses for capacity (Mattson et al.
  1970), applied per set.  :func:`associativity_miss_surface` builds a
  whole (ways x capacities) miss-ratio grid from one pass per distinct set
  count, which is what collapses the associativity study's simulation
  grid.

All kernels are exact: equivalence tests replay randomized traces
(straddling accesses, purges, warmup) through the kernels and the
reference :class:`~repro.core.cache.Cache` engine and require identical
statistics, identical residency, and — for RANDOM — an identical stream of
random victim draws.
"""

from __future__ import annotations

import functools
import heapq
from collections.abc import Sequence

import numpy as np

from ..trace.record import AccessKind
from ..trace.stream import Trace
from .cache import FLAG_DATA, FLAG_DIRTY, FLAG_REFERENCED, Cache
from .fetch import FetchPolicy
from .misspath import (
    MissCache,
    MissPathComponent,
    SecondLevelCache,
    StreamBuffers,
    VictimCache,
)
from .organization import CacheOrganization
from .replacement import FIFO, LRU, RandomReplacement
from .stackdist import (
    COLD_DISTANCE,
    _stable_order,
    _stack_distances_ordered,
    set_stack_distances,
)

__all__ = [
    "can_replay",
    "lru_demand_replay",
    "all_associativity_hit_counts",
    "associativity_miss_surface",
]

_WRITE = int(AccessKind.WRITE)

# Event tags; a purge at the same trace position as the warmup reset runs
# first, matching the engine's order (purge inside the warmup loop, reset
# after it).  Both precede the miss-stream replay's miss at that position.
_PURGE = 0
_RESET = 1
_MISS = 2


# -- kernel selection --------------------------------------------------------


def _policy_kind(cache: Cache) -> str | None:
    """``"lru"``/``"fifo"``/``"random"`` when every set runs that exact
    policy class, else None.

    Detection probes the per-set policy instances rather than the factory:
    the random factory is a closure (each set gets an independent seed
    stream), so no factory identity check can recognize it.
    """
    policies = cache._policies
    head = type(policies[0])
    if head not in (LRU, FIFO, RandomReplacement):
        return None
    for policy in policies:
        if type(policy) is not head:
            return None
    return head.name


def _cache_qualifies(cache: Cache) -> bool:
    """True iff one cache array is expressible by the replay kernel."""
    if not (
        type(cache) is Cache
        and cache.fetch_policy is FetchPolicy.DEMAND
        and cache.write_policy.combining_bytes == 0
    ):
        return False
    if cache.miss_path is None:
        return _policy_kind(cache) is not None
    return _fits_miss_stream(cache)


def _fits_miss_stream(cache: Cache) -> bool:
    """True iff the miss-stream replay can drive ``cache``: cold,
    allocate-on-write, direct-mapped LRU or FIFO.

    One way makes LRU and FIFO identical and the victim deterministic (a
    1-way RANDOM set still draws from its rng).
    """
    return (
        _policy_kind(cache) in ("lru", "fifo")
        and cache.geometry.ways == 1
        and cache.write_policy.allocate_on_write
        and not any(cache._sets)
    )


def can_replay(organization: CacheOrganization) -> bool:
    """True iff :func:`lru_demand_replay` reproduces the generic engine
    exactly for ``organization``.

    Requirements: the organization exposes a replay plan (unified or
    split), and every member cache is a plain :class:`Cache` with LRU,
    FIFO or random replacement, demand fetching, and either copy-back or
    write-through without a combining buffer.  Members carrying a miss
    path must also be direct-mapped LRU or FIFO, allocate on writes and
    start cold.  Anything else (prefetching, LFU, write combining, sector
    caches, set-associative primaries with mechanisms) takes the generic
    engine.
    """
    plan = organization.replay_plan()
    if plan is None:
        return False
    members, _routing = plan
    return all(_cache_qualifies(cache) for cache in members)


# -- the specialized demand-fetch replay kernel ------------------------------


def lru_demand_replay(
    trace: Trace,
    organization: CacheOrganization,
    purge_interval: int | None = None,
    limit: int | None = None,
    warmup: int = 0,
) -> int:
    """Replay ``trace`` through ``organization`` on the fast path.

    Mutates the organization exactly as the generic engine would — same
    counters, same resident lines and flags, same recency order, same
    random-policy generator state — but orders of magnitude faster.
    Callers must have checked :func:`can_replay`; argument validation is
    the caller's (``simulate``'s) job.

    Kernel-selection matrix (per member cache):

    ==============  ===========================  ===========================
    policy          starting state               path
    ==============  ===========================  ===========================
    LRU/FIFO,       cold, allocate-on-write,     miss-stream replay: array
    every member    no miss path, or victim/     passes for the primaries
    1-way           miss caches and stream       and a miss cache, one hook
                    buffers only                 pass per other component
    LRU/FIFO,       cold, allocate-on-write,     miss-stream replay: array
    every member    a lone cold LRU copy-back    passes for the primaries,
    1-way           L2 that back-invalidates     vectorized LRU replay of
                    no resident primary line     the L2's miss stream
    LRU/FIFO,       cold, allocate-on-write,     miss-stream replay: loop
    every member    any other miss path (an L2   over misses driving the
    1-way           that back-invalidates, or    chain
                    one behind other components)
    LRU             cold, allocate-on-write      vectorized stack-distance
                    (any warmup)                 replay
    LRU/FIFO/       any other                    one dict loop (LRU reorders
    RANDOM                                       on hit; RANDOM draws from
                                                 the cache's per-set rngs)
    any other       —                            generic engine (rejected by
                                                 :func:`can_replay`)
    ==============  ===========================  ===========================

    The first matching row wins.

    Returns:
        The number of measured (post-warmup) trace references.
    """
    members, routing = organization.replay_plan()
    line_size = members[0].geometry.line_size
    length = len(trace) if limit is None else min(limit, len(trace))
    warmup = min(warmup, length)

    compiled = trace.compiled(line_size)
    cut = compiled.cut(length)
    whole = cut == len(compiled)
    kinds = compiled.kinds if whole else compiled.kinds[:cut]
    lines = compiled.lines if whole else compiled.lines[:cut]
    positions = compiled.positions if whole else compiled.positions[:cut]

    purge_positions: range = (
        range(purge_interval, length + 1, purge_interval)
        if purge_interval is not None
        else range(0)
    )

    single = len(members) == 1
    member_of = None
    if not single:
        member_of = np.asarray(routing, dtype=np.int8)[kinds]

    chain = members[0].miss_path
    if chain is not None or all(_fits_miss_stream(cache) for cache in members):
        stream = compiled.memo(
            (
                "miss-stream",
                cut,
                None if single else routing,
                tuple(cache.geometry.num_sets for cache in members),
                purge_interval,
            ),
            lambda: _build_miss_stream(
                kinds,
                lines,
                positions,
                member_of,
                [cache.geometry.num_sets for cache in members],
                purge_positions,
            ),
        )
        components = chain.components if chain is not None else ()
        if all(type(comp) in _PASS_COMPONENTS for comp in components):
            _replay_miss_passes(
                members, components, stream, kinds, lines, positions, member_of,
                purge_positions, warmup,
            )
        elif not (
            _fits_l2_pass(components)
            and _replay_l2(
                members, components[0], stream, kinds, lines, positions,
                member_of, purge_positions, warmup,
            )
        ):
            _replay_miss_events(
                members, chain, stream, kinds, lines, positions, member_of,
                purge_positions, warmup,
            )
    else:
        for index, cache in enumerate(members):
            policy = _policy_kind(cache)
            if (
                policy == "lru"
                and cache.write_policy.allocate_on_write
                and not any(cache._sets)
            ):
                bundle = compiled.memo(
                    (
                        "replay",
                        cut,
                        None if single else (routing, index),
                        cache.geometry.num_sets,
                        purge_interval,
                        cache.write_policy.is_copy_back,
                    ),
                    lambda: _build_replay_bundle(
                        kinds,
                        lines,
                        positions,
                        None if single else member_of == index,
                        cache.geometry.num_sets,
                        purge_positions,
                        cache.write_policy.is_copy_back,
                    ),
                )
                _replay_member_vectorized(cache, bundle, warmup)
                continue
            if single:
                mkinds, mlines, mpositions = kinds, lines, positions
            else:
                mask = member_of == index
                mkinds = kinds[mask]
                mlines = lines[mask]
                mpositions = positions[mask]
            # Purges and the warmup reset happen between *trace* references;
            # map them onto this member's line-reference stream.
            events = [
                (int(np.searchsorted(mpositions, p, side="left")), p, _PURGE)
                for p in purge_positions
            ]
            if warmup:
                events.append(
                    (int(np.searchsorted(mpositions, warmup, side="left")), warmup, _RESET)
                )
            events.sort()
            if single and whole:
                kind_list, line_list = compiled.as_lists()
            else:
                kind_list, line_list = mkinds.tolist(), mlines.tolist()
            _replay_member(cache, kind_list, line_list, events, policy)

    # Write-through accounting is per trace reference and independent of
    # cache state (no combining on the fast path), so it vectorizes over
    # the measured region.
    write_cache = members[routing[_WRITE]]
    if not write_cache.write_policy.is_copy_back and length > warmup:
        write_mask = trace.kinds[warmup:length] == _WRITE
        count = int(np.count_nonzero(write_mask))
        if count:
            stats = write_cache.stats
            stats.write_throughs += count
            stats.write_through_bytes += int(trace.sizes[warmup:length][write_mask].sum())
    return length - warmup


# -- the vectorized LRU replay path ------------------------------------------


class _ReplayBundle:
    """Configuration-independent analysis of one member's line stream.

    Everything here depends only on the stream, the set count and the purge
    schedule — *not* on associativity or warmup — so one bundle serves a
    whole capacity/ways sweep.  Layout: arrays are in "set order" (stable
    sort by set index; within a set, original time order), the layout in
    which each set's references are contiguous and per-set stack structure
    becomes segmented prefix sums.  Each configuration replayed from it
    costs a few O(n) array passes (:func:`_replay_member_vectorized`).
    """

    __slots__ = (
        "kinds",          # int8, set order
        "lines",          # int64, set order
        "positions",      # int64 trace positions, set order
        "distances",      # per-set, per-epoch LRU stack distances
        "first_touch",    # exclusive count of distinct lines seen earlier
                          # in the reference's (set, epoch) segment
        "epochs",         # purge-epoch number per reference (None: no purges)
        "line_order",     # stable order by line over the set-order layout
        "last_in_epoch",  # in line_order space: last touch of (line, epoch)?
        "suffix_last",    # markers strictly after, within the segment
        "flag_or",        # per-reference flag bitmask, in line_order space
        "kind_counts",    # histogram of kinds (warmup-free refs counters)
        "purge_positions",  # int64 purge trace-positions
    )

    def __init__(self, **fields) -> None:
        for name, value in fields.items():
            setattr(self, name, value)


def _build_replay_bundle(
    kinds: np.ndarray,
    lines: np.ndarray,
    positions: np.ndarray,
    member_mask: np.ndarray | None,
    num_sets: int,
    purge_positions: range,
    copy_back: bool,
) -> _ReplayBundle:
    if member_mask is not None:
        kinds = kinds[member_mask]
        lines = lines[member_mask]
        positions = positions[member_mask]
    n = len(lines)
    pp = np.asarray(purge_positions, dtype=np.int64)

    if num_sets > 1:
        set_index = lines & (num_sets - 1)
        order = _stable_order(set_index)
        kinds = kinds[order]
        lines = lines[order]
        positions = positions[order]
        set_index = set_index[order]
    else:
        set_index = None

    epochs = np.searchsorted(pp, positions, side="right") if len(pp) else None

    # The stream is already set-ordered, so the ordered distance core
    # applies directly (set_stack_distances would redo the partition).
    distances = _stack_distances_ordered(lines, epochs)
    cold = distances == COLD_DISTANCE

    # Segment = one (set, epoch) run in the set-order layout.
    segment_change = np.empty(n, dtype=bool)
    if n:
        segment_change[0] = True
        if set_index is not None:
            np.not_equal(set_index[1:], set_index[:-1], out=segment_change[1:])
        else:
            segment_change[1:] = False
        if epochs is not None:
            segment_change[1:] |= epochs[1:] != epochs[:-1]
    segment_start = np.flatnonzero(segment_change)
    segment_id = np.cumsum(segment_change) - 1

    # Distinct lines seen strictly earlier in the segment: cold references
    # are exactly the first touches, so a segmented exclusive prefix sum of
    # the cold markers counts them.
    touches = cold.astype(np.int64)
    running = np.cumsum(touches)
    exclusive = running - touches
    first_touch = exclusive - (exclusive[segment_start][segment_id] if n else exclusive)

    # Line-grouped view: stable order by line; within a line group the
    # layout order is time order, so residency intervals are contiguous.
    line_order = _stable_order(lines)
    grouped_lines = lines[line_order]
    last_in_epoch = np.empty(n, dtype=bool)
    if n:
        last_in_epoch[-1] = True
        np.not_equal(grouped_lines[1:], grouped_lines[:-1], out=last_in_epoch[:-1])
        if epochs is not None:
            grouped_epochs = epochs[line_order]
            last_in_epoch[:-1] |= grouped_epochs[1:] != grouped_epochs[:-1]

    # For each reference, the number of (line, epoch) last-touches strictly
    # after it in its segment — the count of distinct lines whose final
    # reference comes later, which decides end-of-epoch survival.
    markers = np.empty(n, dtype=bool)
    markers[line_order] = last_in_epoch
    marker_running = np.cumsum(markers)
    if n:
        segment_end = np.append(segment_start[1:], n) - 1
        suffix_last = marker_running[segment_end][segment_id] - marker_running
    else:
        suffix_last = marker_running

    flag_table = np.array(
        [
            FLAG_REFERENCED,
            FLAG_REFERENCED | FLAG_DATA,
            FLAG_REFERENCED | FLAG_DATA | (FLAG_DIRTY if copy_back else 0),
            FLAG_REFERENCED,
        ],
        dtype=np.int64,
    )
    flag_or = flag_table[kinds][line_order]

    return _ReplayBundle(
        kinds=kinds,
        lines=lines,
        positions=positions,
        distances=distances,
        first_touch=first_touch,
        epochs=epochs,
        line_order=line_order,
        last_in_epoch=last_in_epoch,
        suffix_last=suffix_last,
        flag_or=flag_or,
        kind_counts=np.bincount(kinds, minlength=4),
        purge_positions=pp,
    )


def _push_tally(flags: np.ndarray) -> tuple[int, int, int]:
    """``(data, dirty_data, dirty)`` push counts for pushed-line flags."""
    data_mask = flags & FLAG_DATA != 0
    dirty_mask = flags & FLAG_DIRTY != 0
    return (
        int(np.count_nonzero(data_mask)),
        int(np.count_nonzero(data_mask & dirty_mask)),
        int(np.count_nonzero(dirty_mask)),
    )


def _credit(
    cache: Cache,
    refs: Sequence[int],
    misses: Sequence[int],
    demand: int,
    rpush: int,
    ppush: int,
    pushed_flags: Sequence[int] | np.ndarray,
    purges: int,
) -> None:
    """Add one replay's tallies to ``cache.stats``.

    ``refs`` and ``misses`` are per-kind counts (index = int(AccessKind));
    ``demand`` is passed apart from them because a no-allocate write miss
    fetches nothing.  ``pushed_flags`` holds the flags of every line pushed
    by replacement or purge; :func:`_push_tally` splits them into the
    data/dirty counters.
    """
    data, dirty_data, dirty = _push_tally(np.asarray(pushed_flags, dtype=np.int64))
    stats = cache.stats
    for kind, counts in enumerate(stats.counts_by_kind()):
        counts.references += int(refs[kind])
        counts.misses += int(misses[kind])
    stats.demand_fetches += demand
    stats.replacement_pushes += rpush
    stats.purge_pushes += ppush
    stats.data_pushes += data
    stats.dirty_data_pushes += dirty_data
    stats.dirty_pushes += dirty
    stats.purges += purges


def _lru_residencies(
    bundle: _ReplayBundle, ways: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Hits, evictions and residency intervals of one W-way LRU array.

    Returns ``(miss, eviction, res_start, res_last_pos, survive)``: per
    reference (set order) whether it misses (``distance > ways``) and
    whether it evicts (a miss arriving with a full set,
    ``first_touch >= ways``); per *residency interval* — each miss of a
    line opens one — its first index in line_order space, the set-order
    index of its last touch, and whether it survives to its epoch's end
    (the line's final residency there, with fewer than ``ways`` other
    lines finishing after its last touch).  Every line group opens with a
    (cold) miss, so consecutive miss markers delimit residencies even
    across group boundaries.
    """
    n = len(bundle.distances)
    miss = bundle.distances > ways
    eviction = miss & (bundle.first_touch >= ways)
    res_start = np.flatnonzero(miss[bundle.line_order])
    if len(res_start):
        res_last = np.append(res_start[1:], n) - 1       # line_order index
        res_last_pos = bundle.line_order[res_last]       # set-order index
        survive = bundle.last_in_epoch[res_last] & (
            bundle.suffix_last[res_last_pos] < ways
        )
    else:
        res_last_pos = np.empty(0, dtype=np.int64)
        survive = np.empty(0, dtype=bool)
    return miss, eviction, res_start, res_last_pos, survive


def _lru_victims(res_last_pos: np.ndarray, survive: np.ndarray) -> np.ndarray:
    """The evicted residencies, one per eviction event, in event order.

    Eviction events in set order are per-segment time order; within a
    segment LRU victims' last-touch times strictly increase and the
    counts match, so sorting the evicted residencies by last touch pairs
    the k-th of them with the k-th eviction event.
    """
    evicted = np.flatnonzero(~survive)
    return evicted[np.argsort(res_last_pos[evicted])]


def _replay_member_vectorized(cache: Cache, bundle: _ReplayBundle, warmup: int) -> None:
    """Apply one member's whole stream to a cold LRU cache in array passes.

    Hits/misses come straight from the precomputed stack distances
    (:func:`_lru_residencies`).  Push flags, survival and the final
    residency are derived per residency interval, because a pushed line
    carries the OR of the flags of exactly the references inside its
    residency; :func:`_lru_victims` matches victims to eviction events
    for warmup accounting.
    """
    ways = cache.geometry.ways
    positions = bundle.positions
    pp = bundle.purge_positions
    total_purges = len(pp)
    miss, eviction, res_start, res_last_pos, survive = _lru_residencies(bundle, ways)

    if warmup:
        measured = positions >= warmup
        refs = np.bincount(bundle.kinds[measured], minlength=4)
        counted_miss = miss & measured
    else:
        refs = bundle.kind_counts
        counted_miss = miss
    miss_by_kind = np.bincount(bundle.kinds[counted_miss], minlength=4)
    demand = int(miss_by_kind.sum())

    res_flags = (
        np.bitwise_or.reduceat(bundle.flag_or, res_start)
        if len(res_start)
        else np.empty(0, dtype=np.int64)
    )
    res_epoch = (
        bundle.epochs[res_last_pos]
        if bundle.epochs is not None
        else np.zeros(len(res_flags), dtype=np.int64)
    )
    purged = survive & (res_epoch < total_purges)
    final = survive & (res_epoch == total_purges)

    if warmup:
        counted_event = positions[eviction] >= warmup
        rpush = int(np.count_nonzero(counted_event))
        pushed_evicted = res_flags[_lru_victims(res_last_pos, survive)][counted_event]
        counted_purge = pp[res_epoch[purged]] > warmup
        pushed_purged = res_flags[purged][counted_purge]
        purges = int(np.count_nonzero(pp > warmup))
    else:
        rpush = int(np.count_nonzero(eviction))
        pushed_evicted = res_flags[~survive]
        pushed_purged = res_flags[purged]
        purges = total_purges

    if warmup:
        cache.reset_statistics()
    _credit(
        cache, refs, miss_by_kind, demand, rpush, len(pushed_purged),
        np.concatenate([pushed_evicted, pushed_purged]), purges,
    )

    # Final state: survivors of the post-last-purge epoch, inserted in
    # ascending final-touch order — per set, that is exactly the engine's
    # least-recent-first dict order.
    final_index = np.flatnonzero(final)
    if len(final_index):
        sets = cache._sets
        set_mask = cache.geometry.num_sets - 1
        last_pos = res_last_pos[final_index]
        order = np.argsort(last_pos)
        final_lines = bundle.lines[last_pos[order]]
        final_flags = res_flags[final_index][order]
        for line, flags in zip(final_lines.tolist(), final_flags.tolist()):
            sets[line & set_mask][line] = flags


# -- the miss-stream replay path ---------------------------------------------


class _MissStream:
    """Hit/miss classification of a direct-mapped organization's stream.

    A direct-mapped set always holds the line its previous reference
    touched, so a reference hits iff that reference was to the same line
    (within one purge epoch).  Layout: ``order`` stable-sorts the line
    references by (epoch, flat set), where a split organization's data
    sets follow its instruction sets; each (epoch, set) run is one
    *segment*.  The ``miss_*`` arrays describe the classified misses in
    trace order.
    """

    __slots__ = (
        "order",         # sorted position -> line-reference index
        "cum_data",      # data references before each sorted position
        "cum_write",     # writes before each sorted position
        "miss_index",    # line-reference index of each miss (ascending)
        "miss_rank",     # its sorted position
        "miss_set",      # its flat set
        "miss_end",      # end of its segment (exclusive sorted position)
        "miss_prev",     # sorted position of the segment's previous miss, or -1
        "victim_data",   # a data reference lies in [miss_prev, miss_rank)
        "victim_write",  # a write lies in [miss_prev, miss_rank)
        "miss_victim",   # the miss that filled the line it evicts, or -1
        "miss_last",     # its line stays resident to the segment's end
    )

    def __init__(self, **fields) -> None:
        for name, value in fields.items():
            setattr(self, name, value)


def _build_miss_stream(
    kinds: np.ndarray,
    lines: np.ndarray,
    positions: np.ndarray,
    member_of: np.ndarray | None,
    num_sets: list[int],
    purge_positions: range,
) -> _MissStream:
    n = len(lines)
    flat = lines & (num_sets[0] - 1)
    if member_of is not None:
        flat = np.where(member_of == 0, flat, num_sets[0] + (lines & (num_sets[1] - 1)))
    pp = np.asarray(purge_positions, dtype=np.int64)
    key = flat
    if len(pp):
        key = np.searchsorted(pp, positions, side="right") * sum(num_sets) + flat
    order = _stable_order(key)
    sorted_key = key[order]
    sorted_lines = lines[order]
    sorted_kinds = kinds[order]

    segment_start = np.ones(n, dtype=bool)
    np.not_equal(sorted_key[1:], sorted_key[:-1], out=segment_start[1:])
    miss = segment_start.copy()
    miss[1:] |= sorted_lines[1:] != sorted_lines[:-1]

    cum_data = np.zeros(n + 1, dtype=np.int64)
    cum_write = np.zeros(n + 1, dtype=np.int64)
    is_write = sorted_kinds == _WRITE
    np.cumsum(is_write | (sorted_kinds == int(AccessKind.READ)), out=cum_data[1:])
    np.cumsum(is_write, out=cum_write[1:])

    rank = np.flatnonzero(miss)
    starts = np.flatnonzero(segment_start)
    ends = np.append(starts[1:], n)
    end = ends[np.cumsum(segment_start)[rank] - 1]
    prev = np.empty_like(rank)
    prev[:1] = -1
    prev[1:] = rank[:-1]
    prev[segment_start[rank]] = -1
    opened = np.maximum(prev, 0)
    victim_data = (prev >= 0) & (cum_data[rank] > cum_data[opened])
    victim_write = (prev >= 0) & (cum_write[rank] > cum_write[opened])

    index = order[rank]
    by_time = np.argsort(index)
    # The segment's previous miss (rank order i - 1) filled the line that
    # miss i evicts; name it by its trace-order position among the misses.
    time_of = np.empty_like(by_time)
    time_of[by_time] = np.arange(len(by_time))
    victim = np.where(prev >= 0, np.roll(time_of, 1), -1)
    last = np.ones(len(rank), dtype=bool)
    last[:-1] = prev[1:] < 0
    return _MissStream(
        order=order,
        cum_data=cum_data,
        cum_write=cum_write,
        miss_index=index[by_time],
        miss_rank=rank[by_time],
        miss_set=flat[index[by_time]],
        miss_end=end[by_time],
        miss_prev=prev[by_time],
        victim_data=victim_data[by_time],
        victim_write=victim_write[by_time],
        miss_victim=victim[by_time],
        miss_last=last[by_time],
    )


def _victim_flags(stream: _MissStream, copy_back: bool) -> np.ndarray:
    """Per miss, the flags its victim's references gathered (0: no victim);
    a victim's fill adds its extra bits on top."""
    return (
        np.where(stream.miss_prev >= 0, FLAG_REFERENCED, 0)
        | np.where(stream.victim_data, FLAG_DATA, 0)
        | np.where(stream.victim_write & copy_back, FLAG_DIRTY, 0)
    )


def _span_flags(
    stream: _MissStream, start: np.ndarray, stop: np.ndarray, copy_back: bool
) -> np.ndarray:
    """Flags ORed by the references in each sorted range [start, stop)."""
    cum_data, cum_write = stream.cum_data, stream.cum_write
    flags = np.where(stop > start, FLAG_REFERENCED, 0) | np.where(
        cum_data[stop] > cum_data[start], FLAG_DATA, 0
    )
    if copy_back:
        flags |= np.where(cum_write[stop] > cum_write[start], FLAG_DIRTY, 0)
    return flags


def _kind_tallies(
    kinds: np.ndarray,
    member_of: np.ndarray | None,
    index: np.ndarray,
    reset_at: int,
    count: int,
) -> tuple[list[int], list[int]]:
    """Measured references and classified misses per (member, kind), as
    flat lists indexed ``4 * member + kind``."""
    slot = kinds[reset_at:].astype(np.int64)
    miss_slot = kinds[index].astype(np.int64)
    if member_of is not None:
        slot += 4 * member_of[reset_at:]
        miss_slot += 4 * member_of[index]
    refs = np.bincount(slot, minlength=4 * count).tolist()
    misses = np.bincount(miss_slot[index >= reset_at], minlength=4 * count).tolist()
    return refs, misses


#: Components whose passes :func:`_replay_miss_passes` runs one at a
#: time: none of them changes what a primary holds.
_PASS_COMPONENTS = (VictimCache, MissCache, StreamBuffers)


def _overrides(component: MissPathComponent, hook: str):
    """``component``'s bound ``hook``, or None if its class inherits the
    base no-op."""
    if getattr(type(component), hook) is getattr(MissPathComponent, hook):
        return None
    return getattr(component, hook)


def _replay_component(
    component: MissPathComponent,
    events: list[tuple[int, int, int]],
    m_kind: list[int],
    m_line: list[int],
    m_victim: list[int],
    m_standard: list[int],
    serviced: list[bool],
    extra: list[int],
    offered: list[bool],
) -> None:
    """Drive a victim cache or stream buffers through every primary miss,
    in trace order.

    Miss ``j`` probes the component only if no earlier component serviced
    it (``serviced[j]``); ``on_evict`` sees the victim only while
    ``offered[j]``, i.e. no earlier component captured it.  The victim's
    flags are its residency's ``m_standard`` flags OR the extra bits its
    fill received.  Neither class reacts to ``on_fill``.  ``events`` are
    ``(stop, position, tag)`` triples in order: the purge or warmup reset
    fires after the first ``stop`` misses.
    """
    probe = component.probe
    on_evict = _overrides(component, "on_evict")
    start = 0
    for stop, _, tag in events:
        for j in range(start, stop):
            if not serviced[j]:
                result = probe(m_kind[j], m_line[j])
                if result is not None:
                    serviced[j] = True
                    extra[j] = result
            if on_evict is not None and offered[j]:
                fill = m_victim[j]
                if on_evict(m_line[fill], m_standard[j] | extra[fill]):
                    offered[j] = False
        start = stop
        if tag == _PURGE:
            component.purge()
        elif tag == _RESET:
            component.reset_statistics()


def _replay_miss_cache(
    component: MissCache,
    m_kind: np.ndarray,
    m_line: np.ndarray,
    probed: np.ndarray,
    stops: np.ndarray,
    counted_purge: np.ndarray,
    measured: np.ndarray,
    reset: bool,
) -> np.ndarray:
    """Replay a miss cache over every primary miss in array passes;
    returns the misses it serviced.

    Every miss leaves its line most recently used in the miss cache,
    whichever component serviced it (a probe hit refreshes the line,
    ``on_fill`` refreshes or inserts it otherwise), so the contents are
    the LRU stack of the miss-line stream, emptied at each purge.  A probe
    — only of the misses in ``probed`` — hits iff the line's stack
    distance within its epoch is at most ``entries``; a line beyond that
    is inserted, and pushes one out once the epoch has seen ``entries``
    distinct lines.  ``stops`` are the purges as miss counts; a warm
    start's contents, least recent first, lead the stream.
    """
    entries = component.entries
    held = list(component._lines)
    stream = np.concatenate([np.asarray(held, dtype=np.int64), m_line])
    resets = stops + len(held)
    distances = set_stack_distances(stream, 1, resets)
    # Distinct lines seen earlier in each epoch: a segmented count of the
    # first touches.
    cold = np.zeros(len(stream) + 1, dtype=np.int64)
    np.cumsum(distances == COLD_DISTANCE, out=cold[1:])
    bounds = np.concatenate([[0], resets])
    epoch_start = bounds[np.searchsorted(resets, np.arange(len(stream)), side="right")]
    seen = (cold[:-1] - cold[epoch_start])[len(held):]
    distances = distances[len(held):]

    hit = probed & (distances <= entries)
    pushed = (distances > entries) & (seen >= entries) & measured
    counted_probe = probed & measured
    refs = np.bincount(m_kind[counted_probe], minlength=4)
    misses = np.bincount(m_kind[counted_probe & ~hit], minlength=4)
    purge_pushes = np.minimum(cold[resets] - cold[bounds[:-1]], entries)
    if reset:
        component.reset_statistics()
    _credit(
        component, refs, misses, 0, int(np.count_nonzero(pushed)),
        int(purge_pushes[counted_purge].sum()), (),
        int(np.count_nonzero(counted_purge)),
    )

    # Final contents: the last epoch's lines, least recently used first,
    # at most ``entries`` of them.
    tail = stream[bounds[-1]:]
    _, first = np.unique(tail[::-1], return_index=True)
    last = np.sort(len(tail) - 1 - first)[-entries:]
    component._lines.clear()
    component._lines.update(dict.fromkeys(tail[last].tolist()))
    return hit


def _replay_miss_passes(
    members: tuple[Cache, ...],
    components: tuple[MissPathComponent, ...],
    stream: _MissStream,
    kinds: np.ndarray,
    lines: np.ndarray,
    positions: np.ndarray,
    member_of: np.ndarray | None,
    purge_positions: range,
    warmup: int,
) -> None:
    """Replay direct-mapped members whose chain cannot change their contents.

    Without an L2, the primaries' misses and victims are fixed by the
    trace, so the chain decides only which component serviced each miss,
    which captured each victim, and the extra flag bits a fill receives.
    Each component replays its whole event stream in chain order, passing
    those on to the components after it: a miss cache in array passes
    (:func:`_replay_miss_cache`), a victim cache or stream buffers through
    their own hooks (:func:`_replay_component`).  The primaries'
    statistics and final contents then come from whole-array passes over
    the stream.  Without a victim cache or stream buffers, no Python runs
    per miss.
    """
    count = len(members)
    copy_back = members[0].write_policy.is_copy_back
    index = stream.miss_index
    victim = stream.miss_victim
    has_victim = victim >= 0
    pp = np.asarray(purge_positions, dtype=np.int64)
    purge_at = np.searchsorted(positions, pp)
    reset_at = int(np.searchsorted(positions, warmup)) if warmup else 0
    standard = _victim_flags(stream, copy_back)
    measured = index >= reset_at
    counted_purge = purge_at > reset_at if warmup else np.ones(len(pp), dtype=bool)

    extra = np.zeros(len(index), dtype=np.int64)
    offered = has_victim  # victims no component captured
    looped = [c for c in components if type(c) is not MissCache]
    if looped:
        # A purge at a miss's position precedes it, and so does a reset;
        # between two misses, purges and the reset keep their trace order,
        # and a purge at the reset's position precedes the reset.
        events = [
            (stop, at, _PURGE)
            for stop, at in zip(np.searchsorted(index, purge_at).tolist(), purge_at.tolist())
        ]
        if warmup:
            events.append((int(np.searchsorted(index, reset_at)), reset_at, _RESET))
        events.sort()
        events.append((len(index), len(positions), -1))
        extra_list = extra.tolist()
        offered_list = offered.tolist()
        m_kind = kinds[index].tolist()
        m_line = lines[index].tolist()
        m_victim = victim.tolist()
        m_standard = standard.tolist()
    serviced = np.zeros(len(index), dtype=bool)
    for component in components:
        if type(component) is MissCache:
            serviced |= _replay_miss_cache(
                component, kinds[index], lines[index], ~serviced,
                np.searchsorted(index, purge_at), counted_purge, measured, bool(warmup),
            )
            continue
        serviced_list = serviced.tolist()
        _replay_component(
            component, events, m_kind, m_line, m_victim, m_standard,
            serviced_list, extra_list, offered_list,
        )
        serviced = np.array(serviced_list, dtype=bool)
    if looped:
        extra = np.array(extra_list, dtype=np.int64)
        offered = np.array(offered_list, dtype=bool)
    evicted_flags = standard | np.where(has_victim, extra[victim], 0)

    # Every measured victim is a replacement push; the primary pushes the
    # flags of the ones no component captured.
    replaced = has_victim & measured
    pushed = offered & measured

    # The last miss of a segment holds its set until the segment's purge,
    # or to the end of the replay in the last epoch.
    last = np.flatnonzero(stream.miss_last)
    held_flags = extra[last] | _span_flags(
        stream, stream.miss_rank[last], stream.miss_end[last], copy_back
    )
    epoch = np.searchsorted(purge_at, index[last], side="right")
    purged = epoch < len(pp)
    purged[purged] = counted_purge[epoch[purged]]
    final = epoch == len(pp)

    ref_counts, miss_counts = _kind_tallies(kinds, member_of, index, reset_at, count)
    purges = int(np.count_nonzero(counted_purge))
    if warmup:
        for cache in members:
            cache.reset_statistics()
    for member, cache in enumerate(members):
        if member_of is None:
            mine, held_mine = replaced, purged
            pushed_mine = pushed
        else:
            in_member = member_of[index] == member
            mine = replaced & in_member
            pushed_mine = pushed & in_member
            held_mine = purged & in_member[last]
        misses = miss_counts[4 * member : 4 * member + 4]
        _credit(
            cache, ref_counts[4 * member : 4 * member + 4], misses, sum(misses),
            int(np.count_nonzero(mine)), int(np.count_nonzero(held_mine)),
            np.concatenate([evicted_flags[pushed_mine], held_flags[held_mine]]),
            purges,
        )

    bases = [0, members[0].geometry.num_sets]
    final_sets = stream.miss_set[last[final]].tolist()
    final_lines = lines[index[last[final]]].tolist()
    for s, line, flags in zip(final_sets, final_lines, held_flags[final].tolist()):
        member = 0 if s < bases[1] else 1
        members[member]._sets[s - bases[member]][line] = flags


def _fits_l2_pass(components: tuple[MissPathComponent, ...]) -> bool:
    """True iff the chain is one L2 that :func:`_replay_l2` can take: a
    cold, demand-fetch, copy-back LRU :class:`SecondLevelCache`."""
    if len(components) != 1 or type(components[0]) is not SecondLevelCache:
        return False
    cache = components[0].cache
    return (
        type(cache) is Cache
        and cache.fetch_policy is FetchPolicy.DEMAND
        and cache.write_policy.is_copy_back
        and _policy_kind(cache) == "lru"
        and not any(cache._sets)
    )


def _back_invalidates(
    stream: _MissStream,
    purge_at: np.ndarray,
    l2_lines: np.ndarray,
    at: np.ndarray,
    evicted: np.ndarray,
) -> bool:
    """True iff an L2 eviction finds a primary line it covers resident.

    ``at`` and ``evicted`` give each L2 eviction as the miss whose L2
    access made it and the L2 line it pushed out.  The line a primary
    miss ``f`` fills is resident from miss ``f + 1`` through the miss
    that evicts it (its L2 access comes before the primary gives the line
    up) or, if none does, through the epoch's last miss.  Grouped by L2
    line, the residencies open in time order, so a running maximum of
    their ends answers each eviction with one binary search.
    """
    n = len(l2_lines)
    if not len(at):
        return False
    epoch_last = np.append(np.searchsorted(stream.miss_index, purge_at), n) - 1
    end = np.empty(n, dtype=np.int64)
    has_victim = stream.miss_victim >= 0
    end[stream.miss_victim[has_victim]] = np.flatnonzero(has_victim)
    last = np.flatnonzero(stream.miss_last)
    end[last] = epoch_last[
        np.searchsorted(purge_at, stream.miss_index[last], side="right")
    ]
    order = _stable_order(l2_lines)
    grouped = l2_lines[order]
    group = np.zeros(n, dtype=np.int64)
    np.cumsum(grouped[1:] != grouped[:-1], out=group[1:])
    span = n + 1
    opens = group * span + order + 1
    ends = np.maximum.accumulate(group * span + end[order])
    query = group[np.searchsorted(grouped, evicted)] * span + at
    found = np.searchsorted(opens, query, side="right") - 1
    return bool(np.any((found >= 0) & (ends[found] >= query)))


def _replay_l2(
    members: tuple[Cache, ...],
    l2: SecondLevelCache,
    stream: _MissStream,
    kinds: np.ndarray,
    lines: np.ndarray,
    positions: np.ndarray,
    member_of: np.ndarray | None,
    purge_positions: range,
    warmup: int,
) -> bool:
    """Replay direct-mapped members behind a lone L2 in array passes;
    False, with nothing mutated, if an L2 replacement would back-invalidate
    a resident primary line.

    The L2 never services a miss with extra bits and captures no victim,
    so without back-invalidation the primaries replay as if they had no
    chain (:func:`_replay_miss_passes`), and the L2 is an LRU array whose
    stream is the primary misses in trace order: their kinds, their lines
    over ``ratio`` primary lines per L2 line, their trace positions
    (:func:`_replay_member_vectorized`).  A dirty primary victim's
    ``mark_dirty`` ORs dirty and data into the L2 residency holding its
    line; that is the residency its fill's L2 access touched, since the
    L2 cannot drop the line while the victim stays resident without
    back-invalidating it.
    """
    cache = l2.cache
    num_sets = cache.geometry.num_sets
    index = stream.miss_index
    l2_lines = lines[index] // l2._ratio
    pp = np.asarray(purge_positions, dtype=np.int64)
    bundle = _build_replay_bundle(
        kinds[index], l2_lines, positions[index], None, num_sets,
        purge_positions, True,
    )
    ways = cache.geometry.ways
    _, eviction, _, res_last_pos, survive = _lru_residencies(bundle, ways)
    # Set order back to miss order.
    to_miss = _stable_order(l2_lines & (num_sets - 1))
    evicted = bundle.lines[res_last_pos[_lru_victims(res_last_pos, survive)]]
    at = to_miss[np.flatnonzero(eviction)]
    if _back_invalidates(stream, np.searchsorted(positions, pp), l2_lines, at, evicted):
        return False

    if members[0].write_policy.is_copy_back:
        fills = stream.miss_victim[stream.victim_write]
        if len(fills):
            in_set_order = np.empty(len(index), dtype=np.int64)
            in_set_order[to_miss] = np.arange(len(index))
            in_line_order = np.empty(len(index), dtype=np.int64)
            in_line_order[bundle.line_order] = np.arange(len(index))
            bundle.flag_or[in_line_order[in_set_order[fills]]] |= FLAG_DIRTY | FLAG_DATA
    _replay_miss_passes(
        members, (), stream, kinds, lines, positions, member_of, purge_positions, warmup
    )
    _replay_member_vectorized(cache, bundle, warmup)
    return True


def _replay_miss_events(
    members: tuple[Cache, ...],
    chain,
    stream: _MissStream,
    kinds: np.ndarray,
    lines: np.ndarray,
    positions: np.ndarray,
    member_of: np.ndarray | None,
    purge_positions: range,
    warmup: int,
) -> None:
    """Replay direct-mapped members sharing ``chain``, visiting misses only.

    The route for chains that neither :func:`_replay_miss_passes` nor
    :func:`_replay_l2` can take: an L2 behind other components, one that
    back-invalidates resident primary lines, or a component class they do
    not know.  Hits never reach a
    mechanism, so the loop walks the classified misses,
    purges and the warmup reset in trace order and drives the real chain
    objects exactly as :meth:`Cache._reference_line` would:
    ``service_miss`` first, then ``on_evict`` of the set's resident line,
    whose flags are its fill's extra bits OR the flags of the references
    inside its residency (a prefix-count range query).

    An L2 back-invalidation is the one way a component changes a primary's
    contents.  It reaches the loop through each member's ``invalidate``,
    shadowed for the replay's duration: the line pushes with its flags so
    far, its set empties (so the set's next classified miss evicts
    nothing), and if the set's next reference is to the same line — a
    classified hit — that reference becomes an injected miss, merged into
    the event stream through a heap.
    """
    count = len(members)
    num_sets = [cache.geometry.num_sets for cache in members]
    bases = [0, num_sets[0]][:count]
    set_member = [m for m in range(count) for _ in range(num_sets[m])]
    total_sets = len(set_member)
    masks = [n - 1 for n in num_sets]
    offset_bits = members[0].geometry.offset_bits
    copy_back = members[0].write_policy.is_copy_back
    order, cum_data, cum_write = stream.order, stream.cum_data, stream.cum_write

    index = stream.miss_index
    miss_members = (
        member_of[index] if member_of is not None else np.zeros(len(index), np.int8)
    )
    standard = _victim_flags(stream, copy_back)

    # One event sequence in trace order: misses, purges, the warmup reset.
    purge_at = np.searchsorted(positions, np.asarray(purge_positions, np.int64))
    reset_at = int(np.searchsorted(positions, warmup)) if warmup else 0
    keys = np.concatenate(
        [
            index * 4 + _MISS,
            purge_at * 4 + _PURGE,
            np.array([reset_at * 4 + _RESET] if warmup else [], np.int64),
        ]
    )
    tags = np.concatenate(
        [np.arange(len(index)), np.full(len(purge_at) + bool(warmup), -1)]
    )
    sequence = np.argsort(keys, kind="stable")
    event_keys = keys[sequence].tolist()
    event_misses = tags[sequence].tolist()

    m_set = stream.miss_set.tolist()
    m_line = lines[index].tolist()
    m_kind = kinds[index].tolist()
    m_member = miss_members.tolist()
    m_rank = stream.miss_rank.tolist()
    m_end = stream.miss_end.tolist()
    m_prev = stream.miss_prev.tolist()
    m_standard = standard.tolist()

    res_line = [-1] * total_sets
    res_start = [0] * total_sets
    res_end = [0] * total_sets
    res_extra = [0] * total_sets
    rpush = [0] * count
    ppush = [0] * count
    purges = [0] * count
    pushed: list[list[int]] = [[] for _ in range(count)]
    injected = [[0, 0, 0, 0] for _ in range(count)]
    heap: list[tuple[int, int, int, int, int, int]] = []
    now = 0  # line-reference index of the miss being serviced
    service_miss = chain.service_miss
    on_evict = chain.on_evict

    def span_flags(start: int, stop: int) -> int:
        """Flags ORed by the set's references in sorted [start, stop)."""
        if start == stop:
            return 0
        flags = FLAG_REFERENCED
        if cum_data[stop] != cum_data[start]:
            flags |= FLAG_DATA
        if copy_back and cum_write[stop] != cum_write[start]:
            flags |= FLAG_DIRTY
        return flags

    def resident_flags(held: list[int]) -> list[int]:
        """Flags of the resident lines of sets ``held`` at segment end."""
        start = np.array([res_start[s] for s in held], dtype=np.int64)
        stop = np.array([res_end[s] for s in held], dtype=np.int64)
        flags = np.array([res_extra[s] for s in held], dtype=np.int64)
        return (flags | _span_flags(stream, start, stop, copy_back)).tolist()

    def miss(at, s, line, kind, member, rank, end, prev, standard_flags):
        nonlocal now
        now = at
        extra = service_miss(kind, line)
        victim = res_line[s]
        if victim >= 0:
            start = res_start[s]
            flags = res_extra[s] | (
                standard_flags if start == prev else span_flags(start, rank)
            )
            res_line[s] = -1  # the engine pops the victim before offering it
            rpush[member] += 1
            if not on_evict(victim, flags):
                pushed[member].append(flags)
        res_line[s] = line
        res_start[s] = rank
        res_end[s] = end
        res_extra[s] = extra

    def inject(entry) -> None:
        at, rank, s, line, member, end = entry
        kind = int(kinds[at])
        injected[member][kind] += 1
        miss(at, s, line, kind, member, rank, end, -1, 0)

    def invalidate(member: int, address: int) -> int | None:
        line = address >> offset_bits
        s = bases[member] + (line & masks[member])
        if res_line[s] != line:
            return None
        start, end = res_start[s], res_end[s]
        # The residency's references before the current miss stay in it.
        split = start + int(np.searchsorted(order[start:end], now))
        flags = res_extra[s] | span_flags(start, split)
        res_line[s] = -1
        rpush[member] += 1
        pushed[member].append(flags)
        if split < end:
            after = int(order[split])
            if lines[after] == line:
                heapq.heappush(heap, (after, split, s, line, member, end))
        return flags

    for member, cache in enumerate(members):
        cache.invalidate = functools.partial(invalidate, member)
    try:
        for key, j in zip(event_keys, event_misses):
            at = key >> 2
            while heap and heap[0][0] < at:
                inject(heapq.heappop(heap))
            if j >= 0:
                miss(
                    at, m_set[j], m_line[j], m_kind[j], m_member[j],
                    m_rank[j], m_end[j], m_prev[j], m_standard[j],
                )
            elif key & 3 == _PURGE:
                held = [s for s in range(total_sets) if res_line[s] >= 0]
                for s, flags in zip(held, resident_flags(held)):
                    ppush[set_member[s]] += 1
                    pushed[set_member[s]].append(flags)
                    res_line[s] = -1
                for member in range(count):
                    purges[member] += 1
                chain.purge()
            else:
                for counters in (rpush, ppush, purges):
                    counters[:] = [0] * count
                for member in range(count):
                    pushed[member].clear()
                    injected[member][:] = [0, 0, 0, 0]
                    members[member].reset_statistics()
                chain.reset_statistics()
        while heap:
            inject(heapq.heappop(heap))
    finally:
        for cache in members:
            del cache.invalidate

    # References and classified misses are whole-array tallies over the
    # measured region; everything else came out of the loop.
    ref_counts, miss_counts = _kind_tallies(kinds, member_of, index, reset_at, count)
    for member, cache in enumerate(members):
        slots = slice(4 * member, 4 * member + 4)
        misses = [a + b for a, b in zip(miss_counts[slots], injected[member])]
        _credit(
            cache, ref_counts[slots], misses, sum(misses), rpush[member],
            ppush[member], pushed[member], purges[member],
        )

    held = [s for s in range(total_sets) if res_line[s] >= 0]
    for s, flags in zip(held, resident_flags(held)):
        member = set_member[s]
        members[member]._sets[s - bases[member]][res_line[s]] = flags


# -- the dict-loop replay path -----------------------------------------------


class _BlockedIntegers:
    """Block-drawn bounded integers, bit-identical to scalar draws.

    ``Generator.integers(bound, size=n)`` vends the same values and leaves
    the same bit-generator state as ``n`` successive scalar
    ``integers(bound)`` calls, so blocks chain seamlessly: each new block
    continues the exact scalar sequence.  Draws are over-provisioned for
    speed; :meth:`finalize` rewinds the generator to its starting state
    and re-consumes exactly the draws handed out, so the final state is
    indistinguishable from the scalar loop's.
    """

    __slots__ = ("_rng", "_bound", "_state0", "_buffer", "_next", "_count")

    def __init__(self, rng, bound: int) -> None:
        self._rng = rng
        self._bound = bound
        self._state0 = rng.bit_generator.state
        self._buffer: list[int] = []
        self._next = 0
        self._count = 0

    def next(self) -> int:
        """The next bounded integer of the scalar sequence."""
        if self._next >= len(self._buffer):
            size = max(64, 2 * len(self._buffer))
            self._buffer = self._rng.integers(self._bound, size=size).tolist()
            self._next = 0
        value = self._buffer[self._next]
        self._next += 1
        self._count += 1
        return value

    def finalize(self) -> None:
        """Leave the generator exactly where scalar consumption would."""
        self._rng.bit_generator.state = self._state0
        if self._count:
            self._rng.integers(self._bound, size=self._count)


def _replay_member(
    cache: Cache,
    kinds: list[int],
    lines: list[int],
    events: list[tuple[int, int, int]],
    policy: str,
) -> None:
    """Replay one cache array's line-reference stream through per-set dicts.

    ``events`` are ``(stream_index, trace_position, tag)`` triples, sorted;
    each fires after ``stream_index`` elements have been applied.  Covers
    every LRU/FIFO/RANDOM member the array paths cannot: warm starting
    state, write-through without write-allocate, set-associative FIFO and
    any RANDOM.  Dict order is the policy's order: an LRU hit pops and
    re-inserts its line (moving it to the recency tail), while FIFO and
    RANDOM never reorder on a hit (DEW's observation), so their hit path
    is a plain store.  LRU and FIFO evict the dict head; RANDOM draws the
    victim through the cache's own per-set generators via block-drawing
    :class:`_BlockedIntegers` vendors, so the victim sequence and the
    generator state after replay are identical to scalar consumption.
    """
    set_mask = cache.geometry.num_sets - 1
    ways = cache.geometry.ways
    copy_back = cache.write_policy.is_copy_back
    allocate = cache.write_policy.allocate_on_write

    # Per-kind flag bitmasks (index = int(AccessKind)): what a reference of
    # that kind ORs into its line, mirroring Cache._reference_line.
    flag_of = [
        FLAG_REFERENCED,
        FLAG_REFERENCED | FLAG_DATA,
        FLAG_REFERENCED | FLAG_DATA | (FLAG_DIRTY if copy_back else 0),
        FLAG_REFERENCED,
    ]
    lookup = dict.pop if policy == "lru" else dict.get
    vendors = (
        [_BlockedIntegers(p._rng, ways) for p in cache._policies]
        if policy == "random"
        else None
    )

    # Work on plain dicts (markedly faster than OrderedDict in this loop);
    # seeded from, and written back to, the cache's own sets so arbitrary
    # starting state and subsequent generic accesses both stay exact.
    sets = [dict(resident) for resident in cache._sets]

    refs = [0, 0, 0, 0]
    misses = [0, 0, 0, 0]
    pushed: list[int] = []  # flags of every pushed line
    ppush = purges = 0

    start = 0
    total = len(kinds)
    for stop, _position, tag in [*events, (total, -1, -1)]:
        if stop > start:
            for kind, line in zip(kinds[start:stop], lines[start:stop]):
                refs[kind] += 1
                resident = sets[line & set_mask]
                flags = lookup(resident, line, None)
                if flags is not None:
                    # An LRU lookup popped the line: this moves it to the tail.
                    resident[line] = flags | flag_of[kind]
                else:
                    misses[kind] += 1
                    if not allocate and kind == _WRITE:
                        continue  # no-allocate: the store bypasses the cache
                    if len(resident) >= ways:
                        if vendors is None:
                            victim = next(iter(resident))
                        else:
                            # Eviction only fires on a full set, so the
                            # vendor's fixed bound == len(resident) == ways.
                            victim = list(resident)[vendors[line & set_mask].next()]
                        pushed.append(resident.pop(victim))
                    resident[line] = flag_of[kind]
            start = stop
        if tag == _PURGE:
            for resident in sets:
                ppush += len(resident)
                pushed.extend(resident.values())
                resident.clear()
            purges += 1
        elif tag == _RESET:
            refs = [0, 0, 0, 0]
            misses = [0, 0, 0, 0]
            pushed = []
            ppush = purges = 0
            cache.reset_statistics()

    if vendors is not None:
        for vendor in vendors:
            vendor.finalize()

    # Every miss fetches its line except a no-allocate store's.
    demand = sum(misses) - (0 if allocate else misses[_WRITE])
    _credit(cache, refs, misses, demand, len(pushed) - ppush, ppush, pushed, purges)

    for target, resident in zip(cache._sets, sets):
        target.clear()
        target.update(resident)  # dict order is the policy's order


# -- the all-associativity one-pass kernel -----------------------------------


def all_associativity_hit_counts(
    lines: np.ndarray,
    num_sets: int,
    max_ways: int,
    resets: np.ndarray | Sequence[int] | None = None,
) -> tuple[np.ndarray, int]:
    """Hit counts for every associativity 1..``max_ways`` at one set count.

    At a fixed set count, a reference hits in a W-way LRU cache iff its
    stack distance *within its set* is at most W — so one pass computing
    per-set stack distances yields the whole associativity column at once.
    The set mapping is the engine's bit selection (``line & (num_sets-1)``),
    and the distances come from the vectorized
    :func:`~repro.core.stackdist.set_stack_distances` pass.

    Args:
        lines: expanded memory-line stream (one element per line reference,
            e.g. ``trace.compiled(line_size).lines``).
        num_sets: number of sets; must be a positive power of two.
        max_ways: largest associativity of interest.
        resets: optional indices into ``lines`` at which every set's LRU
            stack is purged before the reference at that index (task-switch
            purges hit all associativities at the same instant, so the
            inclusion property survives).

    Returns:
        ``(hits, total)``: ``hits[w]`` is the number of references that hit
        in a ``num_sets x w`` LRU demand-fetch cache, for ``w`` in
        0..``max_ways`` (``hits[0]`` is 0); ``total`` is the number of
        references.

    Raises:
        ValueError: if ``num_sets`` is not a positive power of two or
            ``max_ways`` is not positive.
    """
    if num_sets <= 0 or num_sets & (num_sets - 1):
        raise ValueError(f"num_sets must be a positive power of two, got {num_sets}")
    if max_ways <= 0:
        raise ValueError(f"max_ways must be positive, got {max_ways}")
    lines = np.asarray(lines, dtype=np.int64)
    total = len(lines)
    if total == 0:
        return np.zeros(max_ways + 1, dtype=np.int64), 0

    distances = set_stack_distances(lines, num_sets, resets)
    # hist[d] counts references at (clipped) per-set stack distance d;
    # distances beyond max_ways share one miss bucket.
    miss_bucket = max_ways + 1
    hist = np.bincount(
        np.minimum(distances, miss_bucket), minlength=miss_bucket + 1
    )
    return np.cumsum(hist)[: max_ways + 1], total


def associativity_miss_surface(
    trace: Trace,
    ways: Sequence[int | None],
    capacities: Sequence[int],
    line_size: int = 16,
) -> np.ndarray:
    """Miss-ratio surface over (ways x capacities) for LRU demand caches.

    One pass per *distinct set count* replaces one full simulation per
    grid cell: cells at different (ways, capacity) that share a set count
    are read off the same :func:`all_associativity_hit_counts` pass.  A
    fully associative row (``None``) joins the ``num_sets=1`` group as the
    ``ways=capacity_lines`` column, sharing one pass with any other
    single-set cells.
    Exact: equal to ``simulate(trace, UnifiedCache(CacheGeometry(capacity,
    line_size, ways)))`` miss ratios, cell for cell.

    Args:
        trace: the reference stream.
        ways: associativities; ``None`` denotes fully associative.
        capacities: cache capacities in bytes.
        line_size: line size in bytes.

    Returns:
        Array of shape ``(len(ways), len(capacities))``.

    Raises:
        ValueError: for capacities that are not positive multiples of the
            line size, non-positive ways, or an associativity that does not
            divide a capacity's line count (the geometries the engine
            itself rejects).
    """
    capacities = [int(capacity) for capacity in capacities]
    if any(capacity <= 0 or capacity % line_size for capacity in capacities):
        raise ValueError(
            f"capacities must be positive multiples of line_size={line_size}"
        )
    compiled = trace.compiled(line_size)
    lines = compiled.lines
    total = len(lines)
    surface = np.empty((len(ways), len(capacities)))

    # Group cells by their set count; every group is one pass.  A fully
    # associative cell is just the num_sets=1, ways=capacity_lines corner,
    # so the ``None`` rows join the same grouping.  (Capacities and line
    # sizes are powers of two, so any dividing associativity yields a
    # power-of-two set count.)
    cells_by_sets: dict[int, list[tuple[int, int, int]]] = {}
    for i, way in enumerate(ways):
        if way is not None and way <= 0:
            raise ValueError(f"associativity must be positive, got {way}")
        for j, capacity in enumerate(capacities):
            num_lines = capacity // line_size
            if way is None:
                cells_by_sets.setdefault(1, []).append((i, j, num_lines))
                continue
            if num_lines % way:
                raise ValueError(
                    f"associativity {way} does not divide {num_lines} lines"
                )
            cells_by_sets.setdefault(num_lines // way, []).append((i, j, way))

    # Miss ratios are formed as (total - hits) / total — the same integer
    # division the engine's misses/references performs, so the surface is
    # bit-identical to direct simulation, not merely close.
    for num_sets, cells in cells_by_sets.items():
        hits, _ = all_associativity_hit_counts(
            lines, num_sets, max(way for _i, _j, way in cells)
        )
        for i, j, way in cells:
            surface[i, j] = (total - int(hits[way])) / total if total else 0.0
    return surface
