"""Fast simulation kernels: specialized paths bit-identical to the engine.

The paper's value is the *scale* of its trace-driven campaign, so the hot
paths matter.  This module holds the replay kernels that exploit structure
instead of brute-force per-reference dispatch:

* :func:`lru_demand_replay` — replay for demand-fetch caches without write
  combining.  LRU members on a cold start take a fully vectorized path:
  per-set stack distances classify every reference as hit or miss in whole-
  array passes (a reference hits a W-way set iff its distance within the
  set is at most W), and eviction/push/final-state accounting is recovered
  from *residency intervals* — the spans between consecutive misses of a
  line — with segmented prefix sums.  The distance machinery and sort
  orders are memoized on the compiled trace view, so sweeping one trace
  across many cache sizes pays the O(n log² n) analysis once and each
  subsequent configuration costs a few O(n) array passes.  FIFO and RANDOM
  members use specialized dict loops (DEW's observation that FIFO needs no
  reorder on hit makes the FIFO loop branch-free on the hit path); LRU
  members that start warm, or write-through-no-allocate members, use the
  original tight dict loop.  Direct-mapped members carrying a miss-path
  chain (victim/miss caches, stream buffers, an L2) take the miss-stream
  replay: a direct-mapped hit is "the previous reference to this set
  touched the same line", one vectorized classification per trace view,
  and a Python loop then visits only the misses, purges and the warmup
  reset, driving the real chain objects.  :func:`repro.core.simulator.simulate`
  selects the kernel automatically when :func:`can_replay` approves the
  organization.

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
    policy = _policy_kind(cache)
    if cache.miss_path is None:
        return policy is not None
    # Miss-stream replay: one way makes LRU and FIFO identical and the
    # victim deterministic (a 1-way RANDOM set still draws from its rng).
    return (
        policy in ("lru", "fifo")
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
    LRU             cold, allocate-on-write      vectorized stack-distance
                                                 replay
    LRU             warm start or no-allocate    tight dict loop
    FIFO            any                          dict loop, no reorder on hit
    RANDOM          any                          dict loop, cache's own
                                                 per-set rngs
    LRU/FIFO, 1-way cold, allocate-on-write,     miss-stream replay: loop
                    miss path attached           over misses, real chain
    ==============  ===========================  ===========================

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
    if chain is not None:
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
        _replay_miss_stream(
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
                if warmup == 0 and cache.geometry.ways < _CLIP:
                    _replay_member_presorted(cache, bundle)
                else:
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
            if policy == "lru":
                _replay_member(cache, kind_list, line_list, events)
            else:
                rngs = (
                    [p._rng for p in cache._policies] if policy == "random" else None
                )
                _replay_member_queue(cache, kind_list, line_list, events, rngs)

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


#: Stack distances are clipped to this before being packed next to chain
#: ids in one int64 (the segmented-cummax trick).  Any real associativity
#: is far below it, so the clip never changes a hit/miss comparison; a
#: (absurd) wider cache falls back to the unclipped O(n) path.
_CLIP = np.int64(1) << 32
_PACK_SHIFT = 33


class _ReplayBundle:
    """Configuration-independent analysis of one member's line stream.

    Everything here depends only on the stream, the set count and the purge
    schedule — *not* on associativity or warmup — so one bundle serves a
    whole capacity/ways sweep.  Layout: arrays are in "set order" (stable
    sort by set index; within a set, original time order), the layout in
    which each set's references are contiguous and per-set stack structure
    becomes segmented prefix sums.

    The ``sorted_*``/``chain_*`` members are the threshold tables of the
    measured-from-the-start (no warmup) fast path: every counter the
    engine produces is a monotone function of the associativity ``W``
    (references with stack distance > W, residencies whose first data
    reference follows a distance-> W gap, chains with fewer than W
    later-finishing neighbours, ...), so one ``np.sort`` at build time
    turns each per-call tally into a binary search.
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
        # threshold tables (clipped distances, sorted ascending)
        "sorted_by_kind",     # 4 arrays: distances of each access kind
        "sorted_reuse",       # distances of the non-cold references
        "sorted_cold_crowd",  # first_touch of the cold references
        "sorted_res_data",    # per data ref: max distance since prev data ref
        "sorted_res_dirty",   # per write ref: ditto for writes (copy-back)
        "chains",             # per-(line, epoch) chain survival table
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

    # -- threshold tables for the no-warmup fast path ------------------------

    clipped = np.minimum(distances, _CLIP)
    sorted_by_kind = tuple(
        np.sort(clipped[kinds == kind]) for kind in range(4)
    )
    sorted_reuse = np.sort(clipped[~cold])
    sorted_cold_crowd = np.sort(first_touch[cold])

    # Chains: one row per (line, epoch) group in line_order space.  A chain
    # splits into residencies at its misses; only the *last* residency can
    # outlive the epoch.
    grouped_distances = clipped[line_order]
    grouped_kinds = kinds[line_order]
    chain_start = np.empty(n, dtype=bool)
    if n:
        chain_start[0] = True
        chain_start[1:] = last_in_epoch[:-1]
    chain_id = np.cumsum(chain_start) - 1
    chain_starts = np.flatnonzero(chain_start)
    chain_ends = np.flatnonzero(last_in_epoch)
    num_chains = len(chain_starts)

    # Inclusive suffix max of distances within each chain, via one reverse
    # cummax over (chain, distance) packed into int64.
    if n:
        packed = ((np.int64(num_chains) - chain_id[::-1]) << _PACK_SHIFT) | (
            grouped_distances[::-1]
        )
        suffix_max = (
            np.maximum.accumulate(packed) & ((np.int64(1) << _PACK_SHIFT) - 1)
        )[::-1]
    else:
        suffix_max = grouped_distances

    def residency_thresholds(flagged: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(per_ref, per_chain)`` thresholds for one flag class.

        per_ref[j] (for each flagged reference j) is the largest distance
        between j and the previous flagged reference of its chain — j opens
        a new flag-carrying residency iff that gap contains a miss, i.e.
        iff the threshold exceeds W.  per_chain[c] is the distance max
        *after* the chain's last flagged reference — the chain's surviving
        residency carries the flag iff that is at most W (BIG if the chain
        has no flagged reference at all).
        """
        if not n:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        # Running max that resets after each flagged reference: sub-chains
        # delimited by chain starts and positions following flagged refs.
        sub_start = chain_start.copy()
        sub_start[1:] |= flagged[:-1]
        sub_id = np.cumsum(sub_start) - 1
        packed = (sub_id << _PACK_SHIFT) | grouped_distances
        running = np.maximum.accumulate(packed) & ((np.int64(1) << _PACK_SHIFT) - 1)
        per_ref = np.sort(running[flagged])
        # Last flagged reference per chain (index max; -1 when absent).
        index = np.arange(n, dtype=np.int64)
        last_flagged = np.maximum.reduceat(
            np.where(flagged, index, np.int64(-1)), chain_starts
        )
        per_chain = np.full(num_chains, _CLIP, dtype=np.int64)
        present = last_flagged >= 0
        interior = present & (last_flagged < chain_ends)
        per_chain[present] = 0  # flagged ref is the chain's last reference
        per_chain[interior] = suffix_max[
            np.minimum(last_flagged[interior] + 1, n - 1)
        ]
        return per_ref, per_chain

    is_data = (grouped_kinds == 1) | (grouped_kinds == 2)
    sorted_res_data, chain_data = residency_thresholds(is_data)
    if copy_back:
        sorted_res_dirty, chain_dirty = residency_thresholds(grouped_kinds == 2)
    else:
        sorted_res_dirty = np.empty(0, dtype=np.int64)
        chain_dirty = np.full(num_chains, _CLIP, dtype=np.int64)

    # Survival threshold: a chain's last residency is resident at epoch end
    # iff fewer than W other lines finish after it — survive_at <= W.
    end_positions = line_order[chain_ends]
    survive_at = suffix_last[end_positions] + 1
    chain_epoch = (
        epochs[end_positions] if epochs is not None else np.zeros(num_chains, np.int64)
    )
    chain_lines = lines[end_positions]
    with_data = np.maximum(survive_at, chain_data)
    with_dirty = np.maximum(survive_at, chain_dirty)

    total_purges = len(pp)
    purged_mask = chain_epoch < total_purges
    final_mask = chain_epoch == total_purges
    final_order = np.flatnonzero(final_mask)[np.argsort(survive_at[final_mask])]
    chains = {
        "survive_data": np.sort(with_data),
        "survive_dirty": np.sort(with_dirty),
        "purged_at": np.sort(survive_at[purged_mask]),
        "purged_data": np.sort(with_data[purged_mask]),
        "purged_dirty": np.sort(with_dirty[purged_mask]),
        # Final-epoch chains sorted by survival threshold, so the set of
        # survivors at any W is a prefix.
        "final_at": survive_at[final_order],
        "final_lines": chain_lines[final_order],
        "final_end": end_positions[final_order],
        "final_data": chain_data[final_order],
        "final_dirty": chain_dirty[final_order],
    }

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
        sorted_by_kind=sorted_by_kind,
        sorted_reuse=sorted_reuse,
        sorted_cold_crowd=sorted_cold_crowd,
        sorted_res_data=sorted_res_data,
        sorted_res_dirty=sorted_res_dirty,
        chains=chains,
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


def _replay_member_presorted(cache: Cache, bundle: _ReplayBundle) -> None:
    """Measured-from-the-start replay: every counter via binary search.

    With no warmup reset, each statistic is a monotone tally against the
    associativity ``W``, answered from the bundle's sorted threshold
    tables:

    * misses per kind — references with stack distance > W;
    * evictions — reused references at distance > W (a reused line's set is
      necessarily full when it misses) plus cold references arriving at a
      set already holding >= W lines;
    * pushed-line flag counts — a residency carries DATA iff some data
      reference opens it, counted by the first data reference after each
      distance-> W gap, minus the flag-carrying residencies that survive
      their epoch (threshold ``max(survive_at, chain_data)``); DIRTY comes
      from write references the same way, and under the kernel's flag
      model DIRTY implies DATA, so dirty-data pushes equal dirty pushes;
    * purge pushes — end-of-epoch survivors of purged epochs.

    Only the final residency write-back (at most W lines per set) leaves
    O(log n) territory.
    """
    ways = cache.geometry.ways
    search = np.searchsorted

    refs = bundle.kind_counts
    miss_by_kind = [
        int(len(table) - search(table, ways, side="right"))
        for table in bundle.sorted_by_kind
    ]
    demand = sum(miss_by_kind)

    reuse = bundle.sorted_reuse
    crowd = bundle.sorted_cold_crowd
    rpush = int(len(reuse) - search(reuse, ways, side="right")) + int(
        len(crowd) - search(crowd, ways, side="left")
    )

    chains = bundle.chains
    res_data = bundle.sorted_res_data
    res_dirty = bundle.sorted_res_dirty
    total_data = int(len(res_data) - search(res_data, ways, side="right"))
    total_dirty = int(len(res_dirty) - search(res_dirty, ways, side="right"))
    survive_data = int(search(chains["survive_data"], ways, side="right"))
    survive_dirty = int(search(chains["survive_dirty"], ways, side="right"))
    ppush = int(search(chains["purged_at"], ways, side="right"))
    purged_data = int(search(chains["purged_data"], ways, side="right"))
    purged_dirty = int(search(chains["purged_dirty"], ways, side="right"))
    data = total_data - survive_data + purged_data
    dirty = total_dirty - survive_dirty + purged_dirty

    stats = cache.stats
    for kind, counts in enumerate(stats.counts_by_kind()):
        counts.references += int(refs[kind])
        counts.misses += miss_by_kind[kind]
    stats.demand_fetches += demand
    stats.replacement_pushes += rpush
    stats.purge_pushes += ppush
    stats.dirty_pushes += dirty
    stats.data_pushes += data
    stats.dirty_data_pushes += dirty  # DIRTY implies DATA on a cold start
    stats.purges += len(bundle.purge_positions)
    if len(bundle.purge_positions):
        cache._last_write_word = -1

    survivors = int(search(chains["final_at"], ways, side="right"))
    if survivors:
        sets = cache._sets
        set_mask = cache.geometry.num_sets - 1
        order = np.argsort(chains["final_end"][:survivors])
        final_lines = chains["final_lines"][:survivors][order].tolist()
        has_data = (chains["final_data"][:survivors][order] <= ways).tolist()
        has_dirty = (chains["final_dirty"][:survivors][order] <= ways).tolist()
        base = FLAG_REFERENCED
        for line, d_flag, w_flag in zip(final_lines, has_data, has_dirty):
            sets[line & set_mask][line] = (
                base | (FLAG_DATA if d_flag else 0) | (FLAG_DIRTY if w_flag else 0)
            )


def _replay_member_vectorized(cache: Cache, bundle: _ReplayBundle, warmup: int) -> None:
    """Apply one member's whole stream to a cold LRU cache in array passes.

    Hits/misses come straight from the precomputed stack distances
    (``distance <= ways`` hits).  Evictions are the misses arriving with a
    full set (``first_touch >= ways``).  Push flags, survival and the final
    residency are derived per *residency interval* — each miss of a line
    opens one — because a pushed line carries the OR of the flags of
    exactly the references inside its residency.  Victim↔eviction matching
    for warmup accounting uses the LRU invariant that successive victims'
    final-touch times strictly increase within a segment.
    """
    ways = cache.geometry.ways
    positions = bundle.positions
    distances = bundle.distances
    n = len(distances)
    pp = bundle.purge_positions
    total_purges = len(pp)

    miss = distances > ways
    if warmup:
        measured = positions >= warmup
        refs = np.bincount(bundle.kinds[measured], minlength=4)
        counted_miss = miss & measured
    else:
        measured = None
        refs = bundle.kind_counts
        counted_miss = miss
    miss_by_kind = np.bincount(bundle.kinds[counted_miss], minlength=4)
    demand = int(miss_by_kind.sum())

    eviction = miss & (bundle.first_touch >= ways)

    # Residency intervals in line_order space: every line group opens with
    # a (cold) miss, so consecutive miss markers delimit residencies even
    # across group boundaries.
    miss_grouped = miss[bundle.line_order]
    res_start = np.flatnonzero(miss_grouped)
    if len(res_start):
        res_flags = np.bitwise_or.reduceat(bundle.flag_or, res_start)
        res_last = np.append(res_start[1:], n) - 1       # line_order index
        res_last_pos = bundle.line_order[res_last]       # set-order index
        # Survives its epoch iff it is the line's final residency there and
        # fewer than `ways` other lines finish after its last touch.
        survive = bundle.last_in_epoch[res_last] & (
            bundle.suffix_last[res_last_pos] < ways
        )
    else:
        res_flags = np.empty(0, dtype=np.int64)
        res_last_pos = np.empty(0, dtype=np.int64)
        survive = np.empty(0, dtype=bool)
    evicted = ~survive
    res_epoch = (
        bundle.epochs[res_last_pos]
        if bundle.epochs is not None
        else np.zeros(len(res_flags), dtype=np.int64)
    )
    purged = survive & (res_epoch < total_purges)
    final = survive & (res_epoch == total_purges)

    if warmup:
        # Eviction events (set order = per-segment time order) pair with
        # evicted residencies sorted by final touch: within a segment, LRU
        # victims' last-touch times strictly increase, and counts match
        # per segment, so one global zip aligns them.
        event_pos = positions[eviction]
        counted_event = event_pos >= warmup
        rpush = int(np.count_nonzero(counted_event))
        evicted_flags = res_flags[evicted]
        order = np.argsort(res_last_pos[evicted])
        pushed_evicted = evicted_flags[order][counted_event]
        counted_purge = pp[res_epoch[purged]] > warmup
        pushed_purged = res_flags[purged][counted_purge]
        purges = int(np.count_nonzero(pp > warmup))
    else:
        rpush = int(np.count_nonzero(eviction))
        pushed_evicted = res_flags[evicted]
        pushed_purged = res_flags[purged]
        purges = total_purges
    ppush = len(pushed_purged)
    data_e, ddata_e, dirty_e = _push_tally(pushed_evicted)
    data_p, ddata_p, dirty_p = _push_tally(pushed_purged)

    if warmup:
        cache.reset_statistics()
    stats = cache.stats
    for kind, counts in enumerate(stats.counts_by_kind()):
        counts.references += int(refs[kind])
        counts.misses += int(miss_by_kind[kind])
    stats.demand_fetches += demand
    stats.replacement_pushes += rpush
    stats.purge_pushes += ppush
    stats.dirty_pushes += dirty_e + dirty_p
    stats.data_pushes += data_e + data_p
    stats.dirty_data_pushes += ddata_e + ddata_p
    stats.purges += purges
    if total_purges:
        cache._last_write_word = -1

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
    )


def _replay_miss_stream(
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

    Hits never reach a mechanism, so the loop walks the classified misses,
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
    miss_kinds = kinds[index]
    miss_members = (
        member_of[index] if member_of is not None else np.zeros(len(index), np.int8)
    )
    standard = (
        np.where(stream.miss_prev >= 0, FLAG_REFERENCED, 0)
        | np.where(stream.victim_data, FLAG_DATA, 0)
        | np.where(stream.victim_write & copy_back, FLAG_DIRTY, 0)
    )

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
    m_kind = miss_kinds.tolist()
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
        flags |= np.where(stop > start, FLAG_REFERENCED, 0)
        flags |= np.where(cum_data[stop] > cum_data[start], FLAG_DATA, 0)
        if copy_back:
            flags |= np.where(cum_write[stop] > cum_write[start], FLAG_DIRTY, 0)
        return flags.tolist()

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
    measured = index >= reset_at
    slot = kinds[reset_at:].astype(np.int64)
    if member_of is not None:
        slot += 4 * member_of[reset_at:]
    ref_counts = np.bincount(slot, minlength=4 * count).tolist()
    miss_counts = np.bincount(
        (4 * miss_members.astype(np.int64) + miss_kinds)[measured], minlength=4 * count
    ).tolist()
    for member, cache in enumerate(members):
        stats = cache.stats
        demand = 0
        for kind, counts in enumerate(stats.counts_by_kind()):
            misses = miss_counts[4 * member + kind] + injected[member][kind]
            counts.references += ref_counts[4 * member + kind]
            counts.misses += misses
            demand += misses
        data, dirty_data, dirty = _push_tally(np.array(pushed[member], dtype=np.int64))
        stats.demand_fetches += demand
        stats.replacement_pushes += rpush[member]
        stats.purge_pushes += ppush[member]
        stats.data_pushes += data
        stats.dirty_data_pushes += dirty_data
        stats.dirty_pushes += dirty
        stats.purges += purges[member]
        if purges[member]:
            cache._last_write_word = -1

    held = [s for s in range(total_sets) if res_line[s] >= 0]
    for s, flags in zip(held, resident_flags(held)):
        member = set_member[s]
        members[member]._sets[s - bases[member]][res_line[s]] = flags


# -- the dict-loop replay paths ----------------------------------------------


def _replay_member(
    cache: Cache,
    kinds: list[int],
    lines: list[int],
    events: list[tuple[int, int, int]],
) -> None:
    """Tight LRU replay of one cache array's line-reference stream.

    ``events`` are ``(stream_index, trace_position, tag)`` triples, sorted;
    each fires after ``stream_index`` elements have been applied.  Covers
    the LRU cases the vectorized path cannot: warm starting state and
    write-through without write-allocate.
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

    # Work on plain dicts (markedly faster than OrderedDict in this loop);
    # seeded from, and written back to, the cache's own sets so arbitrary
    # starting state and subsequent generic accesses both stay exact.
    sets = [dict(resident) for resident in cache._sets]

    refs = [0, 0, 0, 0]
    misses = [0, 0, 0, 0]
    demand = rpush = ppush = dirty = data = ddata = purges = 0

    start = 0
    total = len(kinds)
    for stop, _position, tag in [*events, (total, -1, -1)]:
        if stop > start:
            for kind, line in zip(kinds[start:stop], lines[start:stop]):
                refs[kind] += 1
                resident = sets[line & set_mask]
                flags = resident.pop(line, None)
                if flags is not None:
                    # Hit: update flags and move to the LRU tail.
                    resident[line] = flags | flag_of[kind]
                else:
                    misses[kind] += 1
                    if kind == 2 and not allocate:
                        continue  # no-allocate: the store bypasses the cache
                    demand += 1
                    if len(resident) >= ways:
                        victim_flags = resident.pop(next(iter(resident)))
                        rpush += 1
                        if victim_flags & FLAG_DATA:
                            data += 1
                            if victim_flags & FLAG_DIRTY:
                                ddata += 1
                        if victim_flags & FLAG_DIRTY:
                            dirty += 1
                    resident[line] = flag_of[kind]
            start = stop
        if tag == _PURGE:
            for resident in sets:
                for victim_flags in resident.values():
                    ppush += 1
                    if victim_flags & FLAG_DATA:
                        data += 1
                        if victim_flags & FLAG_DIRTY:
                            ddata += 1
                    if victim_flags & FLAG_DIRTY:
                        dirty += 1
                resident.clear()
            purges += 1
            cache._last_write_word = -1
        elif tag == _RESET:
            refs = [0, 0, 0, 0]
            misses = [0, 0, 0, 0]
            demand = rpush = ppush = dirty = data = ddata = purges = 0
            cache.reset_statistics()

    stats = cache.stats
    for kind, counts in enumerate(stats.counts_by_kind()):
        counts.references += refs[kind]
        counts.misses += misses[kind]
    stats.demand_fetches += demand
    stats.replacement_pushes += rpush
    stats.purge_pushes += ppush
    stats.dirty_pushes += dirty
    stats.data_pushes += data
    stats.dirty_data_pushes += ddata
    stats.purges += purges

    for target, resident in zip(cache._sets, sets):
        target.clear()
        target.update(resident)  # dict order is recency order


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


def _replay_member_queue(
    cache: Cache,
    kinds: list[int],
    lines: list[int],
    events: list[tuple[int, int, int]],
    rngs: list | None,
) -> None:
    """FIFO/RANDOM replay of one cache array's line-reference stream.

    The DEW fast path: neither policy reorders on a hit, so the hit path
    is a plain dict store (dict insertion order *is* FIFO order).  FIFO
    evicts the insertion-order head; RANDOM draws the victim through the
    cache's own per-set generators (``rngs``) via block-drawing
    :class:`_BlockedIntegers` vendors — the victim sequence and the
    generator state after replay are identical to scalar consumption.
    """
    set_mask = cache.geometry.num_sets - 1
    ways = cache.geometry.ways
    copy_back = cache.write_policy.is_copy_back
    allocate = cache.write_policy.allocate_on_write

    flag_of = [
        FLAG_REFERENCED,
        FLAG_REFERENCED | FLAG_DATA,
        FLAG_REFERENCED | FLAG_DATA | (FLAG_DIRTY if copy_back else 0),
        FLAG_REFERENCED,
    ]

    sets = [dict(resident) for resident in cache._sets]
    vendors = (
        None if rngs is None else [_BlockedIntegers(rng, ways) for rng in rngs]
    )

    refs = [0, 0, 0, 0]
    misses = [0, 0, 0, 0]
    demand = rpush = ppush = dirty = data = ddata = purges = 0

    start = 0
    total = len(kinds)
    for stop, _position, tag in [*events, (total, -1, -1)]:
        if stop > start:
            for kind, line in zip(kinds[start:stop], lines[start:stop]):
                refs[kind] += 1
                resident = sets[line & set_mask]
                flags = resident.get(line)
                if flags is not None:
                    resident[line] = flags | flag_of[kind]  # no reorder
                else:
                    misses[kind] += 1
                    if kind == 2 and not allocate:
                        continue
                    demand += 1
                    if len(resident) >= ways:
                        if vendors is None:
                            victim = next(iter(resident))
                        else:
                            # Eviction only fires on a full set, so the
                            # vendor's fixed bound == len(resident) == ways.
                            keys = list(resident)
                            victim = keys[vendors[line & set_mask].next()]
                        victim_flags = resident.pop(victim)
                        rpush += 1
                        if victim_flags & FLAG_DATA:
                            data += 1
                            if victim_flags & FLAG_DIRTY:
                                ddata += 1
                        if victim_flags & FLAG_DIRTY:
                            dirty += 1
                    resident[line] = flag_of[kind]
            start = stop
        if tag == _PURGE:
            for resident in sets:
                for victim_flags in resident.values():
                    ppush += 1
                    if victim_flags & FLAG_DATA:
                        data += 1
                        if victim_flags & FLAG_DIRTY:
                            ddata += 1
                    if victim_flags & FLAG_DIRTY:
                        dirty += 1
                resident.clear()
            purges += 1
            cache._last_write_word = -1
        elif tag == _RESET:
            refs = [0, 0, 0, 0]
            misses = [0, 0, 0, 0]
            demand = rpush = ppush = dirty = data = ddata = purges = 0
            cache.reset_statistics()

    if vendors is not None:
        for vendor in vendors:
            vendor.finalize()

    stats = cache.stats
    for kind, counts in enumerate(stats.counts_by_kind()):
        counts.references += refs[kind]
        counts.misses += misses[kind]
    stats.demand_fetches += demand
    stats.replacement_pushes += rpush
    stats.purge_pushes += ppush
    stats.dirty_pushes += dirty
    stats.data_pushes += data
    stats.dirty_data_pushes += ddata
    stats.purges += purges

    for target, resident in zip(cache._sets, sets):
        target.clear()
        target.update(resident)  # dict order is insertion (FIFO) order


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
    are read off the same :func:`all_associativity_hit_counts` pass, and
    fully associative rows (``None``) come from the classic stack profile.
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
