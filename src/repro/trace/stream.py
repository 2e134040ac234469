"""Trace containers: immutable, array-backed sequences of memory references.

The experiments in the paper run the same trace through many cache
configurations, so traces are materialized once (as compact numpy arrays) and
replayed cheaply.  A :class:`Trace` is immutable; the transformation helpers
in :mod:`repro.trace.filters` return new traces.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field, fields, is_dataclass, replace

import numpy as np

from .record import AccessKind, MemoryAccess

__all__ = ["TraceMetadata", "Trace", "CompiledTrace"]

#: Compiled views memoized per trace (one entry per line size).
_COMPILED_CACHE_ENTRIES = 4

#: Derived artifacts memoized per compiled view (replay bundles, profiles).
_DERIVED_CACHE_ENTRIES = 8

_MISSING = object()


def _buffer(array: np.ndarray) -> np.ndarray:
    """The array that owns ``array``'s memory (a view keeps it alive)."""
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


def _held_bytes(value, shared: set[int] = frozenset()) -> int:
    """Bytes of the distinct array buffers reachable from ``value``.

    Follows tuples, lists, dicts and the fields of dataclasses and
    ``__slots__`` objects; each buffer counts once, whole, and buffers
    whose ``id`` is in ``shared`` (already charged elsewhere) not at all.
    """
    seen = set(shared)
    total = 0
    stack = [value]
    while stack:
        item = stack.pop()
        if id(item) in seen:
            continue
        if isinstance(item, np.ndarray):
            buffer = _buffer(item)
            if id(buffer) not in seen:
                seen.add(id(buffer))
                total += buffer.nbytes
            continue
        seen.add(id(item))
        if isinstance(item, (tuple, list)):
            stack.extend(item)
        elif isinstance(item, dict):
            stack.extend(item.values())
        elif is_dataclass(item) and not isinstance(item, type):
            stack.extend(getattr(item, f.name) for f in fields(item))
        elif not isinstance(item, type):
            for klass in type(item).__mro__:
                for name in getattr(klass, "__slots__", ()):
                    stack.append(getattr(item, name, None))
    return total


def _list_bytes(array: np.ndarray) -> int:
    """Bytes of ``array.tolist()``: a slot per element, plus an int object
    for each value outside CPython's cache of small ints."""
    small = np.count_nonzero((array >= -5) & (array <= 256))
    return 8 * len(array) + 32 * (len(array) - int(small))


class _Account:
    """The bytes a trace holds, and the memo they are charged to.

    ``nbytes`` counts the trace's arrays and everything derived from them,
    charged where each piece is created.  ``memo`` is the
    :class:`~repro.trace.memo.TraceMemo` holding the trace, if any, which
    keeps its total in step.  A trace shares its account with its
    :meth:`~Trace.with_metadata` copies.  Compiled views charge the
    account but it refers to none of them, so a dropped trace is freed at
    once by reference counting, not later by the cycle collector.
    """

    __slots__ = ("nbytes", "memo")

    def __init__(self, nbytes: int) -> None:
        self.nbytes = nbytes
        self.memo = None

    def charge(self, nbytes: int) -> None:
        """Add ``nbytes`` (negative: release) to what the trace holds."""
        memo = self.memo
        if memo is None:
            self.nbytes += nbytes
        else:
            memo.charge(self, nbytes)


@dataclass(frozen=True, slots=True)
class TraceMetadata:
    """Descriptive information carried alongside a trace.

    Mirrors the way the paper identifies its traces (Section 2): a short
    name (e.g. ``"WATFIV"``), the machine architecture the trace was taken
    from (e.g. ``"IBM 360/91"``), the source language of the traced program,
    and free-form notes about what the program does.
    """

    name: str = "anonymous"
    architecture: str = "unknown"
    language: str = "unknown"
    description: str = ""
    #: Arbitrary extra key/value pairs (e.g. generator parameters).
    extra: dict = field(default_factory=dict)


class CompiledTrace:
    """A trace expanded to per-line references at one line size.

    The simulator engine, the stack-distance sweeps and the fast kernels
    all consume the trace as a stream of *line references*: an access that
    straddles a line boundary becomes one element per touched line, each
    carrying its access's kind and original trace position.  Deriving that
    expansion is pure array work but it used to happen once per sweep
    cell; a :class:`CompiledTrace` does it once per (trace, line size) and
    is memoized by :meth:`Trace.compiled`.

    Attributes:
        line_size: the line size the view was expanded for.
        lines: int64 array of memory line numbers, one per line reference.
        kinds: int8 array of :class:`AccessKind` values, parallel to
            ``lines`` (an access's kind repeats for every line it touches).
        positions: int64 array of original trace indices, parallel to
            ``lines`` — the purge clock counts *trace* references, so
            consumers map interval boundaries through this array.
        nbytes: bytes the view holds beyond its trace's arrays — its own
            arrays, its list conversion and its memoized artifacts.
    """

    __slots__ = (
        "line_size", "lines", "kinds", "positions", "nbytes",
        "_lists", "_memo", "_shared", "_owner",
    )

    def __init__(self, trace: "Trace", line_size: int) -> None:
        if line_size <= 0 or line_size & (line_size - 1):
            raise ValueError(
                f"line_size must be a positive power of two, got {line_size}"
            )
        addresses = trace.addresses
        sizes = trace.sizes
        first = addresses // line_size
        last = (addresses + sizes - 1) // line_size
        n = len(first)
        if n == 0 or (first == last).all():
            lines = first
            kinds = trace.kinds
            positions = np.arange(n, dtype=np.int64)
        else:
            spans = (last - first + 1).astype(np.int64)
            starts = np.repeat(first, spans)
            # Within-access offsets 0..span-1 via a cumulative-count trick.
            total = int(spans.sum())
            offsets = np.arange(total) - np.repeat(np.cumsum(spans) - spans, spans)
            lines = starts + offsets
            kinds = np.repeat(trace.kinds, spans)
            positions = np.repeat(np.arange(n, dtype=np.int64), spans)
        for array in (lines, kinds, positions):
            array.setflags(write=False)
        self.line_size = line_size
        self.lines = lines
        self.kinds = kinds
        self.positions = positions
        self._lists: tuple[list[int], list[int]] | None = None
        self._memo: OrderedDict = OrderedDict()
        charged = {id(_buffer(a)) for a in (trace.kinds, trace.addresses, trace.sizes)}
        self.nbytes = _held_bytes((lines, kinds, positions), charged)
        # Buffers already charged, to the trace or to this view: an
        # artifact that reuses one adds nothing.
        self._shared = charged | {id(_buffer(a)) for a in (lines, kinds, positions)}
        #: The account this view's bytes are charged to, while the trace
        #: keeps the view (set by :meth:`Trace.compiled`).
        self._owner: _Account | None = None

    def _charge(self, nbytes: int) -> None:
        self.nbytes += nbytes
        if self._owner is not None:
            self._owner.charge(nbytes)

    def __len__(self) -> int:
        """Number of line references (>= the trace's access count)."""
        return len(self.lines)

    def as_lists(self) -> tuple[list[int], list[int]]:
        """``(kinds, lines)`` as plain Python lists (memoized).

        The per-reference replay kernels iterate Python ints; converting
        the arrays once per compiled view instead of once per simulation
        keeps repeated sweeps over the same trace cheap.
        """
        if self._lists is None:
            self._lists = (self.kinds.tolist(), self.lines.tolist())
            self._charge(_list_bytes(self.kinds) + _list_bytes(self.lines))
        return self._lists

    def memo(self, key, build):
        """Bounded cache for artifacts derived from this view.

        The vectorized kernels precompute whole-stream arrays (stack
        distances, per-set sort orders, residency tables) that depend only
        on the compiled view plus a few hashable parameters.  Sweeping one
        trace across many cache sizes re-derives nothing: the first call
        per ``key`` runs ``build()``, later calls return the cached value.
        Bounded LRU, like the compiled-view cache itself, so a long
        campaign over many organizations cannot pin unbounded state; each
        artifact's bytes are charged to the trace while it is kept.
        """
        cache = self._memo
        entry = cache.get(key, _MISSING)
        if entry is not _MISSING:
            cache.move_to_end(key)
            return entry[0]
        value = build()
        size = _held_bytes(value, self._shared)
        cache[key] = (value, size)
        self._charge(size)
        while len(cache) > _DERIVED_CACHE_ENTRIES:
            _key, (_value, dropped) = cache.popitem(last=False)
            self._charge(-dropped)
        return value

    def cut(self, length: int) -> int:
        """Number of line references belonging to the first ``length``
        trace accesses (for ``limit`` handling)."""
        if length >= len(self.positions):
            return len(self.positions)
        return int(np.searchsorted(self.positions, length, side="left"))


class Trace(Sequence[MemoryAccess]):
    """An immutable program address trace.

    Internally the trace is three parallel numpy arrays (kind, address,
    size), which keeps a 250 000-reference trace — the paper's standard
    length — around 3.5 MB and makes whole-trace statistics vectorizable.

    Args:
        kinds: integer array of :class:`~repro.trace.record.AccessKind`
            values.
        addresses: integer array of byte addresses.
        sizes: integer array of byte counts per access.
        metadata: optional descriptive metadata.
        validate: skip the value-range scans when False.  Reserved for
            callers whose arrays are already known valid — copies of
            validated traces, or memory-mapped ``.rtrc`` sections where an
            eager scan would fault the whole file into memory.

    Raises:
        ValueError: if the arrays disagree in length or contain invalid
            values (negative addresses, non-positive sizes, unknown kinds).
    """

    __slots__ = (
        "_kinds", "_addresses", "_sizes", "metadata",
        "_compiled", "_raw_lists", "_account",
    )

    def __init__(
        self,
        kinds: np.ndarray | Sequence[int],
        addresses: np.ndarray | Sequence[int],
        sizes: np.ndarray | Sequence[int],
        metadata: TraceMetadata | None = None,
        *,
        validate: bool = True,
    ) -> None:
        kinds = np.asarray(kinds, dtype=np.int8)
        addresses = np.asarray(addresses, dtype=np.int64)
        sizes = np.asarray(sizes, dtype=np.int32)
        if not (len(kinds) == len(addresses) == len(sizes)):
            raise ValueError(
                "kind/address/size arrays must be the same length, got "
                f"{len(kinds)}/{len(addresses)}/{len(sizes)}"
            )
        if validate and len(kinds):
            if kinds.min() < 0 or kinds.max() > max(AccessKind):
                raise ValueError("kinds array contains values outside AccessKind")
            if addresses.min() < 0:
                raise ValueError("addresses must be non-negative")
            if sizes.min() <= 0:
                raise ValueError("sizes must be positive")
        for array in (kinds, addresses, sizes):
            if isinstance(array, np.memmap):
                continue  # memmaps opened read-only are already immutable
            array.setflags(write=False)
        self._kinds = kinds
        self._addresses = addresses
        self._sizes = sizes
        self.metadata = metadata or TraceMetadata()
        self._compiled: OrderedDict[int, CompiledTrace] = OrderedDict()
        self._raw_lists: tuple[list[int], list[int], list[int]] | None = None
        self._account = _Account(kinds.nbytes + addresses.nbytes + sizes.nbytes)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_accesses(
        cls, accesses: Iterable[MemoryAccess], metadata: TraceMetadata | None = None
    ) -> "Trace":
        """Materialize a trace from an iterable of accesses."""
        accesses = list(accesses)
        return cls(
            kinds=[a.kind for a in accesses],
            addresses=[a.address for a in accesses],
            sizes=[a.size for a in accesses],
            metadata=metadata,
        )

    @classmethod
    def empty(cls, metadata: TraceMetadata | None = None) -> "Trace":
        """A zero-length trace."""
        return cls([], [], [], metadata)

    def with_metadata(self, **changes) -> "Trace":
        """Copy of this trace with metadata fields replaced.

        The copy shares the compiled-view memo, the raw-list cache and
        the byte account with the original — the arrays are immutable, so
        every derived artifact stays valid, renaming a trace mid-campaign
        no longer forces a re-expansion of views that were already built,
        and the copy is not charged again for what the original holds.
        """
        copy = Trace(
            self._kinds,
            self._addresses,
            self._sizes,
            replace(self.metadata, **changes),
            validate=False,
        )
        copy._compiled = self._compiled
        copy._raw_lists = self._raw_lists
        copy._account = self._account
        return copy

    # -- array views -------------------------------------------------------

    @property
    def kinds(self) -> np.ndarray:
        """Read-only int8 array of :class:`AccessKind` values."""
        return self._kinds

    @property
    def addresses(self) -> np.ndarray:
        """Read-only int64 array of byte addresses."""
        return self._addresses

    @property
    def sizes(self) -> np.ndarray:
        """Read-only int32 array of access sizes in bytes."""
        return self._sizes

    @property
    def name(self) -> str:
        """Shorthand for ``metadata.name``."""
        return self.metadata.name

    # -- compiled views ------------------------------------------------------

    def compiled(self, line_size: int) -> CompiledTrace:
        """The per-line-reference view of this trace at ``line_size``.

        Views are memoized on the trace (LRU-bounded to a handful of line
        sizes), so the stack-distance sweeps, the associativity kernel and
        the simulator all share one expansion instead of re-deriving it
        per sweep cell.  The returned arrays are read-only.

        Derived traces (slices, filtered or time-sampled sub-traces) are
        new :class:`Trace` objects with their *own* empty memo, so a
        sampled view never collides with — or evicts entries from — its
        parent's compiled cache.

        Raises:
            ValueError: if ``line_size`` is not a positive power of two.
        """
        views = self._compiled
        view = views.get(line_size)
        if view is not None:
            views.move_to_end(line_size)
            return view
        view = CompiledTrace(self, line_size)
        views[line_size] = view
        view._owner = self._account
        self._account.charge(view.nbytes)
        while len(views) > _COMPILED_CACHE_ENTRIES:
            _size, dropped = views.popitem(last=False)
            dropped._owner = None
            self._account.charge(-dropped.nbytes)
        return view

    def raw_lists(self) -> tuple[list[int], list[int], list[int]]:
        """``(kinds, addresses, sizes)`` as plain Python lists (memoized).

        The generic per-access simulation loop iterates Python ints; one
        conversion per trace replaces one per :func:`~repro.core.simulator.simulate`
        call when the same trace is swept across many configurations.
        """
        if self._raw_lists is None:
            arrays = (self._kinds, self._addresses, self._sizes)
            self._raw_lists = tuple(array.tolist() for array in arrays)
            self._account.charge(sum(_list_bytes(array) for array in arrays))
        return self._raw_lists

    # -- sequence protocol ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._kinds)

    def __iter__(self) -> Iterator[MemoryAccess]:
        make, kind_of = MemoryAccess, AccessKind
        for k, a, s in zip(
            self._kinds.tolist(), self._addresses.tolist(), self._sizes.tolist()
        ):
            yield make(kind_of(k), a, s)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Trace(
                self._kinds[index],
                self._addresses[index],
                self._sizes[index],
                self.metadata,
            )
        return MemoryAccess(
            AccessKind(int(self._kinds[index])),
            int(self._addresses[index]),
            int(self._sizes[index]),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (
            np.array_equal(self._kinds, other._kinds)
            and np.array_equal(self._addresses, other._addresses)
            and np.array_equal(self._sizes, other._sizes)
        )

    def __hash__(self) -> int:  # pragma: no cover - identity hashing only
        return object.__hash__(self)

    def __repr__(self) -> str:
        return (
            f"Trace(name={self.metadata.name!r}, length={len(self)}, "
            f"architecture={self.metadata.architecture!r})"
        )

    # -- statistics ----------------------------------------------------------

    def count(self, kind: AccessKind) -> int:
        """Number of references of the given kind."""
        return int(np.count_nonzero(self._kinds == kind))

    def kind_fractions(self) -> dict[AccessKind, float]:
        """Fraction of references of each kind (empty trace → all zeros)."""
        total = len(self) or 1
        return {kind: self.count(kind) / total for kind in AccessKind}

    def footprint_lines(self, line_size: int, kinds: Iterable[AccessKind] | None = None) -> int:
        """Number of distinct ``line_size``-byte lines touched.

        This is the paper's "#lines"/"#Dlines" statistic (Table 2) when
        restricted to instruction or data references via ``kinds``.
        Accesses that straddle a line boundary count both lines.
        """
        if line_size <= 0 or line_size & (line_size - 1):
            raise ValueError(f"line_size must be a positive power of two, got {line_size}")
        if kinds is None:
            mask = np.ones(len(self), dtype=bool)
        else:
            mask = np.isin(self._kinds, [int(k) for k in kinds])
        if not mask.any():
            return 0
        first = self._addresses[mask] // line_size
        last = (self._addresses[mask] + self._sizes[mask] - 1) // line_size
        pieces = [first, last]
        wide = last - first > 1  # access spans interior lines too
        if wide.any():
            pieces.extend(
                np.arange(lo + 1, hi)
                for lo, hi in zip(first[wide].tolist(), last[wide].tolist())
            )
        lines = np.unique(np.concatenate(pieces))
        return int(len(lines))

    def address_space_bytes(self, line_size: int = 16) -> int:
        """Total bytes in all distinct lines touched (Table 2's "Aspace")."""
        return self.footprint_lines(line_size) * line_size
