"""Trace transformations.

All functions return new :class:`~repro.trace.stream.Trace` objects; traces
are immutable.  These are the operations the paper's methodology needs:
truncation to a reference budget (Section 2: "most are for 250,000 memory
references"), relocation so that multiple programs occupy disjoint address
ranges, kind filtering to feed split instruction/data caches, and round-robin
interleaving to build the multiprogrammed mixes of Table 3.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import replace

import numpy as np

from .record import AccessKind
from .stream import Trace, TraceMetadata

__all__ = [
    "truncate",
    "relocate",
    "select_kinds",
    "instruction_stream",
    "data_stream",
    "concatenate",
    "interleave_round_robin",
    "merge_fetch_kinds",
    "sample_time_windows",
]


def truncate(trace: Trace, length: int) -> Trace:
    """First ``length`` references of ``trace`` (the whole trace if shorter).

    Raises:
        ValueError: if ``length`` is negative.
    """
    if length < 0:
        raise ValueError(f"length must be non-negative, got {length}")
    return trace[:length]


def relocate(trace: Trace, offset: int) -> Trace:
    """Shift every address by ``offset`` bytes.

    Used to place the programs of a multiprogrammed mix in disjoint address
    spaces, as distinct jobs would be under virtual-memory relocation.

    Raises:
        ValueError: if the shift would make any address negative.
    """
    if len(trace) and int(trace.addresses.min()) + offset < 0:
        raise ValueError("relocation would produce a negative address")
    return Trace(trace.kinds, trace.addresses + offset, trace.sizes, trace.metadata)


def select_kinds(trace: Trace, kinds: Iterable[AccessKind]) -> Trace:
    """References of ``trace`` whose kind is in ``kinds``, in order."""
    wanted = [int(k) for k in kinds]
    mask = np.isin(trace.kinds, wanted)
    return Trace(
        trace.kinds[mask], trace.addresses[mask], trace.sizes[mask], trace.metadata
    )


def instruction_stream(trace: Trace) -> Trace:
    """The instruction-fetch references only (for a split I-cache)."""
    return select_kinds(trace, [AccessKind.IFETCH])


def data_stream(trace: Trace) -> Trace:
    """The data read/write references only (for a split D-cache)."""
    return select_kinds(trace, [AccessKind.READ, AccessKind.WRITE])


def merge_fetch_kinds(trace: Trace) -> Trace:
    """Collapse IFETCH and READ into the monitor-style FETCH kind.

    This reproduces the information loss of the paper's M68000 traces, which
    were "gathered with a hardware monitor ... and only differentiate between
    fetches (reads and ifetches) and writes."
    """
    kinds = trace.kinds.copy()
    kinds[np.isin(kinds, [int(AccessKind.IFETCH), int(AccessKind.READ)])] = int(
        AccessKind.FETCH
    )
    return Trace(kinds, trace.addresses, trace.sizes, trace.metadata)


def concatenate(traces: Sequence[Trace], metadata: TraceMetadata | None = None) -> Trace:
    """Concatenate traces end to end.

    Raises:
        ValueError: if ``traces`` is empty.
    """
    if not traces:
        raise ValueError("need at least one trace to concatenate")
    return Trace(
        np.concatenate([t.kinds for t in traces]),
        np.concatenate([t.addresses for t in traces]),
        np.concatenate([t.sizes for t in traces]),
        metadata or traces[0].metadata,
    )


def interleave_round_robin(
    traces: Sequence[Trace],
    quantum: int,
    length: int | None = None,
    relocate_spacing: int | None = None,
    metadata: TraceMetadata | None = None,
) -> Trace:
    """Round-robin multiprogramming mix of several traces.

    Reproduces the paper's Table 3 methodology: "the traces were run through
    the simulator in a round robin manner, switching ... every 20,000 memory
    references."  Each trace resumes where it left off on its next quantum;
    a trace that is exhausted restarts from its beginning (the paper's runs
    were bounded by total references, not by trace end).

    Args:
        traces: the programs in the mix.
        quantum: references per scheduling quantum (the paper uses 20 000,
            15 000 for the M68000 mixes).
        length: total references to produce.  Defaults to the summed trace
            lengths.
        relocate_spacing: if given, trace *i* is relocated by
            ``i * relocate_spacing`` bytes so the programs do not share
            addresses.  If omitted, a spacing just above the largest trace's
            top address (rounded to 64 KiB) is chosen automatically.
        metadata: metadata for the mixed trace; a descriptive default is
            built from the member names otherwise.

    Raises:
        ValueError: on an empty trace list, an empty member trace, or a
            non-positive quantum.
    """
    if not traces:
        raise ValueError("need at least one trace to interleave")
    if any(len(t) == 0 for t in traces):
        raise ValueError("cannot interleave an empty trace")
    if quantum <= 0:
        raise ValueError(f"quantum must be positive, got {quantum}")
    if length is None:
        length = sum(len(t) for t in traces)
    if relocate_spacing is None:
        top = max(int(t.addresses.max() + t.sizes.max()) for t in traces)
        relocate_spacing = -(-top // 65536) * 65536  # round up to 64 KiB
    placed = [relocate(t, i * relocate_spacing) for i, t in enumerate(traces)]

    chunks_kinds: list[np.ndarray] = []
    chunks_addresses: list[np.ndarray] = []
    chunks_sizes: list[np.ndarray] = []
    positions = [0] * len(placed)
    produced = 0
    current = 0
    while produced < length:
        trace = placed[current]
        start = positions[current]
        take = min(quantum, length - produced)
        stop = start + take
        if stop <= len(trace):
            segment = slice(start, stop)
            positions[current] = stop % len(trace)
        else:
            segment = slice(start, len(trace))
            positions[current] = 0  # wrapped: restart this program
            take = len(trace) - start
        chunks_kinds.append(trace.kinds[segment])
        chunks_addresses.append(trace.addresses[segment])
        chunks_sizes.append(trace.sizes[segment])
        produced += take
        current = (current + 1) % len(placed)

    if metadata is None:
        names = "+".join(t.metadata.name for t in traces)
        metadata = TraceMetadata(
            name=f"mix({names})",
            architecture=traces[0].metadata.architecture,
            language="mixed",
            description=f"round-robin mix, quantum={quantum}",
        )
    return Trace(
        np.concatenate(chunks_kinds),
        np.concatenate(chunks_addresses),
        np.concatenate(chunks_sizes),
        metadata,
    )


def sample_time_windows(
    trace: Trace,
    window: int,
    period: int,
    offset: int | None = 0,
    *,
    seed: int | None = None,
    rng: np.random.Generator | None = None,
) -> Trace:
    """Time-sampled sub-trace: ``window`` references out of every ``period``.

    Time sampling was the standard way to stretch scarce trace data in the
    paper's era (and remains one): simulate only periodic windows of a long
    trace and extrapolate.  The sampled trace preserves within-window
    locality but not across-window reuse, so miss ratios measured on it are
    biased *up* by the extra cold starts — callers should combine it with
    :func:`repro.core.simulator.simulate`'s ``warmup`` or treat each window
    separately.

    Args:
        trace: the full trace.
        window: references kept per period.
        period: distance between window starts.
        offset: start of the first window.  ``None`` draws the offset from
            the supplied generator/seed, uniform over ``[0, period - window]``
            (a randomized sampling phase).
        seed: seed for the offset draw when ``offset`` is ``None``
            (``None`` falls back to seed 0 — this function never consults
            global random state).
        rng: an explicit generator, overriding ``seed``.

    The sampled trace keeps the source metadata, with the sampling
    parameters recorded under ``metadata.extra["sampling"]``.

    Raises:
        ValueError: unless ``0 < window <= period`` and the (given or
            drawn) offset is non-negative.
    """
    if not 0 < window <= period:
        raise ValueError(f"need 0 < window <= period, got {window}/{period}")
    if offset is None:
        if rng is None:
            rng = np.random.default_rng(0 if seed is None else seed)
        offset = int(rng.integers(0, period - window + 1))
    if offset < 0:
        raise ValueError(f"offset must be non-negative, got {offset}")
    positions = np.arange(len(trace))
    mask = (positions >= offset) & ((positions - offset) % period < window)
    metadata = replace(
        trace.metadata,
        extra={
            **trace.metadata.extra,
            "sampling": {"window": window, "period": period, "offset": offset},
        },
    )
    return Trace(trace.kinds[mask], trace.addresses[mask], trace.sizes[mask], metadata)
