"""LRU stack-distance analysis (Mattson's one-pass algorithm), vectorized.

The paper's Table 1 sweeps a fully associative LRU cache across twelve
sizes for 57 traces.  The classic way to run such a sweep — then and now —
is the stack algorithm of Mattson, Gecsei, Slutz and Traiger (1970): because
LRU has the *inclusion property* (the content of a C-line cache is always a
subset of a (C+1)-line cache), one pass over the trace computing each
reference's **stack distance** (its position in the LRU stack, counted from
the top) yields the miss ratio for *every* cache size at once: a reference
hits in a cache of C lines iff its stack distance is at most C.

Distances are computed by whole-array passes rather than a per-reference
loop.  The reduction: with ``p[t]`` the index of the previous reference to
line ``t`` (−1 if none), the stack distance is

    sd(t) = t − p[t] − #{v < t : p[v] > p[t]}

because every duplicate inside the reuse window ``(p[t], t)`` is a
reference ``v`` whose own previous occurrence also lies inside the window,
i.e. ``p[v] > p[t]`` (and ``p[v] < v`` always, so the window constraint
reduces to ``v < t``).  A first touch (``p = −1``) is never greater, so
the count runs over the reuses alone.  That turns distance computation
into per-element *left-inversion counting* over the ``p`` array, which
:func:`_count_left_greater` performs with a bottom-up blocked merge.  Each
key packs an element's value, its index and its running count into one
int64.  Level ``k`` merges the sorted halves of every block of ``2**k``
keys with one stable ``np.sort`` and then, with one prefix sum over the
right-half flags, adds to each right-half element the number of
left-half elements sorted above it.  Levels start at single elements and
touch only the ``n`` live keys.  Timsort merges the two runs of a block in
linear time, so the whole pass is O(n log n), all array ops.

The old pure-Python Fenwick pass (:func:`_distances_fenwick`) is kept as
the reference implementation the oracle tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..trace.record import AccessKind
from ..trace.stream import Trace

__all__ = [
    "COLD_DISTANCE",
    "StackDistanceProfile",
    "set_stack_distances",
    "lru_stack_distances",
    "lru_miss_ratio_curve",
]

#: Sentinel distance for a cold (first-touch) reference; larger than any
#: real capacity, so cold references miss at every finite size.
COLD_DISTANCE = np.int64(2) ** 62

@dataclass(frozen=True, slots=True)
class StackDistanceProfile:
    """Distribution of LRU stack distances for one line-reference stream.

    Attributes:
        counts: ``counts[d]`` is the number of references with stack
            distance ``d`` (1-based; index 0 is unused and zero).
        cold_misses: first-time references (infinite distance — they miss
            in every finite cache).
        total_references: all references, including consecutive repeats.
    """

    counts: np.ndarray
    cold_misses: int
    total_references: int
    #: Lazily computed cumulative hit counts (``_cumulative[c]`` = hits in a
    #: c-line cache).  Every campaign queries the same profile once per
    #: capacity grid per trace, so the cumsum is done once and reused.
    _cumulative: np.ndarray | None = field(default=None, repr=False, compare=False)

    def _cumulative_hits(self) -> np.ndarray:
        cumulative = self._cumulative
        if cumulative is None:
            cumulative = np.concatenate([[0], np.cumsum(self.counts[1:])])
            object.__setattr__(self, "_cumulative", cumulative)  # frozen: memo only
        return cumulative

    def hits(self, capacity_lines: int) -> int:
        """References that hit in a fully associative LRU cache of
        ``capacity_lines`` lines."""
        if capacity_lines <= 0:
            return 0
        top = min(capacity_lines, len(self.counts) - 1)
        return int(self._cumulative_hits()[top])

    def miss_ratio(self, capacity_lines: int) -> float:
        """Miss ratio of a fully associative LRU cache of that many lines.

        An empty stream has no well-defined miss ratio and yields NaN (a
        0.0 here would let an all-filtered-out stream masquerade as a
        perfect hit rate in campaign tables).
        """
        if self.total_references == 0:
            return float("nan")
        return 1.0 - self.hits(capacity_lines) / self.total_references

    def miss_ratios(self, capacities_lines: list[int] | np.ndarray) -> np.ndarray:
        """Vector of miss ratios for several capacities (in lines).

        NaN for every capacity when the stream is empty, matching
        :meth:`miss_ratio`.
        """
        if self.total_references == 0:
            return np.full(len(capacities_lines), np.nan)
        cumulative = self._cumulative_hits()
        caps = np.clip(np.asarray(capacities_lines), 0, len(self.counts) - 1)
        return 1.0 - cumulative[caps] / self.total_references


# -- vectorized distance machinery -------------------------------------------


def _stable_order(values: np.ndarray) -> np.ndarray:
    """Indices that stable-sort ``values`` (ascending).

    When the value range permits, the sort runs on packed
    ``value * n + index`` keys — a single ``np.sort`` over int64, which is
    several times faster than ``np.argsort(kind="stable")``.
    """
    n = len(values)
    if n <= 1:
        return np.arange(n, dtype=np.int64)
    bits = (n - 1).bit_length() + 1
    values = np.asarray(values, dtype=np.int64)
    if values[0] >= 0 and int(values.max()) < (1 << (62 - bits)):
        # values[0] >= 0 is a cheap proxy; verify with the true minimum
        # only when it passes (sorted/grouped inputs make it usually right).
        if int(values.min()) >= 0:
            keys = (values << bits) | np.arange(n, dtype=np.int64)
            keys.sort()
            return keys & ((1 << bits) - 1)
    return np.argsort(values, kind="stable")


def _prev_occurrence(
    values: np.ndarray, epochs: np.ndarray | None = None
) -> np.ndarray:
    """Index of the previous element with the same value, else −1.

    With ``epochs`` (non-decreasing within each value's subsequence), a
    previous occurrence from an earlier epoch is treated as absent —
    modelling a purge between the two references.
    """
    n = len(values)
    prev = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return prev
    order = _stable_order(values)
    ordered = values[order]
    same = np.empty(n, dtype=bool)
    same[0] = False
    np.equal(ordered[1:], ordered[:-1], out=same[1:])
    hit = np.flatnonzero(same)
    prev[order[hit]] = order[hit - 1]
    if epochs is not None:
        stale = epochs[np.maximum(prev, 0)] != epochs
        stale &= prev >= 0
        prev[stale] = -1
    return prev


def _merge_levels(keys: np.ndarray, index_shift: int):
    """The bottom-up blocked merge over ``keys``, sorting them in place.

    Level ``half`` (1, 2, 4, …) sorts every block of ``2 * half`` keys —
    and the trailing partial block when it reaches into a right half — and
    yields ``(block, gain)`` per block view: ``gain`` is, for each
    right-half element, the number of left-half elements of its block that
    sort above it, and 0 for left-half elements.  The caller must apply
    the gains before the next level.  A key's bits from ``index_shift`` up
    hold its index, so bit ``index_shift + log2(half)`` is set exactly on
    right-half elements.  Both halves arrive sorted from the level below,
    so the stable sort (timsort) merges two runs in linear time.

    A right element at slot ``j`` of its sorted block, with ``r`` right
    elements at or before it, has ``j + 1 − r`` left elements at or below
    it, so its gain is ``half − (j + 1 − r) = r + (half − 1 − j)``: one
    prefix sum of the right flags, less ``half`` per earlier block, plus
    the slot ramp.
    """
    n = len(keys)
    half = 1
    while half < n:
        wide = 2 * half
        full = n - n % wide
        shift = index_shift + half.bit_length() - 1
        ramp = np.arange(half - 1, -half - 1, -1, dtype=np.int64)
        for block in (keys[:full].reshape(-1, wide), keys[full:].reshape(1, -1)):
            if not len(block) or block.shape[1] <= half:
                continue
            block.sort(axis=1, kind="stable")
            right = block >> shift
            right &= 1
            gain = np.cumsum(right).reshape(block.shape)
            gain -= np.arange(0, len(block) * half, half, dtype=np.int64)[:, None]
            gain += ramp[: block.shape[1]]
            gain *= right
            yield block, gain
        half = wide


def _count_left_greater(p: np.ndarray) -> np.ndarray:
    """``counts[t] = #{v < t : p[v] > p[t]}`` for values ≥ −2.

    Bottom-up blocked merge (:func:`_merge_levels`) with the running count
    packed into the low bits of the sort key, so each level is one
    in-place block sort plus one prefix sum — no per-level scatter.  Equal
    values sort by index, so an earlier equal value never counts as
    greater (ties are common only at −1/−2: previous-occurrence arrays are
    injective elsewhere).
    """
    n = len(p)
    if n <= 1:
        return np.zeros(n, dtype=np.int64)
    bits = (n - 1).bit_length()
    if 3 * bits + 2 > 63:
        return _count_left_greater_wide(p)
    # key = (value + 2) << 2b  |  index << b  |  running count
    keys = (np.asarray(p, dtype=np.int64) + 2) << (2 * bits)
    keys += np.arange(n, dtype=np.int64) << bits
    for block, gain in _merge_levels(keys, bits):
        block += gain
    low = np.int64((1 << bits) - 1)
    counts = np.empty(n, dtype=np.int64)
    counts[(keys >> bits) & low] = keys & low
    return counts


def _count_left_greater_wide(p: np.ndarray) -> np.ndarray:
    """Fallback for streams too long to pack value, index and count into
    one int64 key (beyond ~2²⁰ elements): the same merge levels, with the
    per-level gains scattered instead of carried."""
    n = len(p)
    bits = (n - 1).bit_length()
    keys = (np.asarray(p, dtype=np.int64) + 2) << bits
    keys += np.arange(n, dtype=np.int64)
    index_lane = np.int64((1 << bits) - 1)
    counts = np.zeros(n, dtype=np.int64)
    for block, gain in _merge_levels(keys, 0):
        counts[block & index_lane] += gain
    return counts


def _stack_distances_ordered(
    values: np.ndarray, epochs: np.ndarray | None = None
) -> np.ndarray:
    """Per-element LRU stack distances of an ordered stream.

    ``values`` may be a concatenation of per-set substreams (each in time
    order; a value must always map to the same substream).  ``epochs``,
    non-decreasing within each substream, marks purge generations: a reuse
    across an epoch boundary is cold.  Consecutive repeats have distance
    1; cold references get :data:`COLD_DISTANCE`.
    """
    n = len(values)
    out = np.ones(n, dtype=np.int64)
    if n == 0:
        return out
    keep = np.empty(n, dtype=bool)
    keep[0] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    if epochs is not None:
        keep[1:] |= epochs[1:] != epochs[:-1]
    deduped = values[keep]
    prev = _prev_occurrence(deduped, epochs[keep] if epochs is not None else None)
    # A first touch (prev −1) is never greater than a reuse's prev, so
    # only the reuses enter the count, and they keep their relative order.
    reused = np.flatnonzero(prev >= 0)
    reused_prev = prev[reused]
    distances = np.full(len(deduped), COLD_DISTANCE, dtype=np.int64)
    distances[reused] = reused - reused_prev - _count_left_greater(reused_prev)
    out[keep] = distances
    return out


def _epochs_from_resets(n: int, resets: np.ndarray | None) -> np.ndarray | None:
    """Per-element epoch numbers from sorted reset indices (or None)."""
    if resets is None or not len(resets):
        return None
    interior = np.asarray(resets, dtype=np.int64)
    interior = np.unique(interior[(interior > 0) & (interior < n)])
    if not len(interior):
        return None
    lengths = np.diff(np.concatenate([[0], interior, [n]]))
    return np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)


def set_stack_distances(
    lines: np.ndarray,
    num_sets: int = 1,
    resets: np.ndarray | None = None,
) -> np.ndarray:
    """Per-reference LRU stack distances within each line's set.

    Element *t* of the result is the stack distance of ``lines[t]`` in the
    LRU stack of its set (``lines[t] & (num_sets - 1)``), or
    :data:`COLD_DISTANCE` for a first touch.  A reference hits in a
    ``num_sets × W`` LRU demand cache iff its distance is ≤ W — the same
    inclusion-property reading the profile-based sweeps use, kept aligned
    with the stream instead of histogrammed.

    Args:
        lines: int64 memory-line stream (e.g. ``trace.compiled(16).lines``).
        num_sets: positive power-of-two set count.
        resets: optional sorted indices at which every set's stack is
            purged before the reference at that index.

    Returns:
        int64 array of distances, aligned with ``lines``.

    Raises:
        ValueError: if ``num_sets`` is not a positive power of two.
    """
    if num_sets <= 0 or num_sets & (num_sets - 1):
        raise ValueError(f"num_sets must be a positive power of two, got {num_sets}")
    lines = np.asarray(lines, dtype=np.int64)
    n = len(lines)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    epochs = _epochs_from_resets(n, resets)
    if num_sets == 1:
        return _stack_distances_ordered(lines, epochs)
    order = _stable_order(lines & (num_sets - 1))
    ordered = _stack_distances_ordered(
        lines[order], epochs[order] if epochs is not None else None
    )
    out = np.empty(n, dtype=np.int64)
    out[order] = ordered
    return out


def lru_stack_distances(
    line_stream: np.ndarray, resets: np.ndarray | None = None
) -> StackDistanceProfile:
    """Stack-distance profile of a stream of memory line numbers.

    Args:
        line_stream: integer array; element *t* is the line referenced at
            time *t*.
        resets: optional sorted indices at which the LRU stack is purged
            *before* the reference at that index is processed.  This models
            the paper's task-switch purges: since every cache size purges at
            the same instant, the inclusion property — and hence the
            one-pass sweep — survives.

    Returns:
        The :class:`StackDistanceProfile` of the stream.
    """
    lines = np.asarray(line_stream, dtype=np.int64)
    total = len(lines)
    if total == 0:
        return StackDistanceProfile(np.zeros(1, dtype=np.int64), 0, 0)
    distances = set_stack_distances(lines, 1, resets)
    cold_total = int(np.count_nonzero(distances == COLD_DISTANCE))
    finite = distances[distances != COLD_DISTANCE]
    counts = np.bincount(finite, minlength=2).astype(np.int64, copy=False)
    return StackDistanceProfile(counts, cold_total, total)


# -- reference implementation (the oracle tests compare against it) ----------


def _distances_fenwick(stream: np.ndarray) -> tuple[np.ndarray, int]:
    """Stack distances of the non-cold references of ``stream``.

    The original per-reference pass: a Fenwick (binary indexed) tree marks,
    for every line, the position of its most recent reference; the number
    of marks strictly between a line's previous and current positions is
    the number of distinct lines touched in between.  Superseded by the
    array passes above; kept as the independently-derived reference the
    equivalence tests compare against.

    Returns ``(distances, cold_count)`` with 1-based stack positions.
    """
    n = len(stream)
    tree = [0] * (n + 1)
    last_seen: dict[int, int] = {}
    distances: list[int] = []
    cold = 0
    append = distances.append

    for t, line in enumerate(stream.tolist()):
        prev = last_seen.get(line)
        if prev is None:
            cold += 1
        else:
            # marks in [prev+1, t-1]  (positions are 1-based in the tree)
            distinct_between = _prefix(tree, t) - _prefix(tree, prev + 1)
            append(distinct_between + 1)
            _update(tree, prev + 1, -1)
        _update(tree, t + 1, 1)
        last_seen[line] = t

    return np.asarray(distances, dtype=np.int64), cold


def _prefix(tree: list[int], index: int) -> int:
    total = 0
    while index > 0:
        total += tree[index]
        index -= index & -index
    return total


def _update(tree: list[int], index: int, delta: int) -> None:
    size = len(tree)
    while index < size:
        tree[index] += delta
        index += index & -index


def lru_miss_ratio_curve(
    trace: Trace,
    capacities: list[int] | np.ndarray,
    line_size: int = 16,
    kinds: list[AccessKind] | None = None,
    purge_interval: int | None = None,
) -> np.ndarray:
    """Miss ratios of fully associative LRU caches, one pass over ``trace``.

    This reproduces the paper's Table 1 configuration exactly: fully
    associative, LRU replacement, demand fetch, no task-switch purges, copy
    back with fetch on write (the write policy does not change which
    references miss, since fetch-on-write allocates like a read).

    Args:
        trace: the reference stream.
        capacities: cache sizes in **bytes**, each a multiple of
            ``line_size``.
        line_size: cache line size in bytes (paper standard: 16).
        kinds: restrict to these access kinds first (e.g. only IFETCH for an
            instruction cache fed by a split stream).
        purge_interval: purge (reset) the cache every this many *trace*
            references — counted over the full trace even when ``kinds``
            filters the stream, so a split cache's purge clock matches the
            unified experiment's.

    Returns:
        Array of miss ratios aligned with ``capacities`` (NaN throughout if
        the filtered stream is empty — see
        :meth:`StackDistanceProfile.miss_ratios`).

    Raises:
        ValueError: if any capacity is not a positive multiple of the line
            size, or ``purge_interval`` is not positive.
    """
    capacities = np.asarray(capacities, dtype=np.int64)
    if len(capacities) and (
        (capacities <= 0).any() or (capacities % line_size != 0).any()
    ):
        raise ValueError(
            f"capacities must be positive multiples of line_size={line_size}"
        )
    if purge_interval is not None and purge_interval <= 0:
        raise ValueError(f"purge_interval must be positive, got {purge_interval}")
    # The compiled view memoizes the expanded (line, kind, position) arrays
    # per line size — and the finished profile per (kinds, purge) — so
    # repeated sweeps over one trace do the distance pass only once.
    compiled = trace.compiled(line_size)
    kind_key = None if kinds is None else tuple(sorted(int(k) for k in kinds))
    profile = compiled.memo(
        ("stack-profile", kind_key, purge_interval),
        lambda: _curve_profile(compiled, kinds, purge_interval),
    )
    return profile.miss_ratios(capacities // line_size)


def _curve_profile(compiled, kinds, purge_interval) -> StackDistanceProfile:
    if kinds is not None:
        mask = np.isin(compiled.kinds, [int(k) for k in kinds])
        lines = compiled.lines[mask]
        # Positions are original trace indices, fixed *before* line
        # expansion so the purge clock counts trace references even when
        # line-straddling accesses expand into several line references.
        positions = compiled.positions[mask]
    else:
        lines = compiled.lines
        positions = compiled.positions
    resets = None
    if purge_interval is not None and len(positions):
        # Reset before the first reference of each new purge epoch.
        epoch = positions // purge_interval
        resets = np.nonzero(np.diff(epoch) > 0)[0] + 1
    return lru_stack_distances(lines, resets)
