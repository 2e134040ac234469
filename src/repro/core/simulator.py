"""The simulation drive loop.

:func:`simulate` replays a trace through a cache organization, optionally
purging the cache at a fixed reference interval to model task switching —
the paper's multiprogramming device ("every 20,000 memory references, the
cache is purged to simulate multiprogramming", Section 3.3).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..trace.stream import Trace
from . import kernels
from .organization import CacheOrganization
from .stats import CacheStats

__all__ = ["SimulationReport", "simulate"]


@dataclass(frozen=True, slots=True)
class SimulationReport:
    """Outcome of one trace x configuration simulation run.

    Attributes:
        trace_name: name of the trace replayed.
        references: number of references applied.
        purge_interval: task-switch quantum used (None = no purging).
        overall: aggregate statistics (both caches, if split).
        instruction: statistics of the instruction side.  For a unified
            organization this is the same object as :attr:`overall`; use the
            per-class counters inside it.
        data: statistics of the data side (ditto for unified).
    """

    trace_name: str
    references: int
    purge_interval: int | None
    overall: CacheStats
    instruction: CacheStats
    data: CacheStats
    #: Per-mechanism statistics for miss-path components, in chain order:
    #: ``(name, stats)`` snapshots (empty without a miss path).  The
    #: per-class counters of a component's block record *probes* of that
    #: component, so its hit rate is ``1 - stats.miss_ratio``.
    mechanisms: tuple[tuple[str, CacheStats], ...] = ()

    @property
    def miss_ratio(self) -> float:
        """Overall miss ratio."""
        return self.overall.miss_ratio

    @property
    def mechanism_names(self) -> tuple[str, ...]:
        """Names of the attached miss-path components, chain order."""
        return tuple(name for name, _ in self.mechanisms)

    def mechanism(self, name: str) -> CacheStats:
        """Stats block of one miss-path component.

        Raises:
            KeyError: if no component of that name was attached.
        """
        for mech_name, stats in self.mechanisms:
            if mech_name == name:
                return stats
        raise KeyError(f"no miss-path component named {name!r}; "
                       f"have {list(self.mechanism_names)}")

    @property
    def effective_miss_ratio(self) -> float:
        """Misses serviced by *memory or the L2* per reference.

        Primary misses serviced by a victim cache, miss cache, or stream
        buffer are nearly free, so the interesting quantity is the miss
        ratio with those hits removed.  An L2 hit still counts here (it is
        slower than the mechanisms, and the L2's own local miss ratio is
        in its stats block).  Equal to :attr:`miss_ratio` without a miss
        path; NaN over zero references.
        """
        refs = self.overall.references
        if refs == 0:
            return float("nan")
        serviced = sum(
            stats.hits for name, stats in self.mechanisms if name != "l2"
        )
        return (self.overall.misses - serviced) / refs

    @property
    def effective_memory_traffic_bytes(self) -> int:
        """Bytes moved on the memory-side bus, mechanisms included.

        Without a miss path this is ``overall.memory_traffic_bytes``.
        With one, fills serviced by a component are not memory traffic;
        stream-buffer fetches are; and with an L2 the memory side is the
        L2's fetch/write-back account (its line size may differ).  See
        docs/mechanisms.md for the exact model.
        """
        if not self.mechanisms:
            return self.overall.memory_traffic_bytes
        named = dict(self.mechanisms)
        l2 = named.get("l2")
        buffers = named.get("stream-buffers")
        prefetch_lines = buffers.prefetches if buffers is not None else 0
        line_size = self.overall.line_size
        if l2 is not None:
            fill_bytes = l2.lines_fetched * l2.line_size
            writeback_bytes = l2.dirty_pushes * l2.line_size
        else:
            comp_hits = sum(stats.hits for _, stats in self.mechanisms)
            fill_bytes = (self.overall.lines_fetched - comp_hits) * line_size
            writeback_bytes = self.overall.dirty_pushes * line_size + sum(
                stats.dirty_pushes * stats.line_size for _, stats in self.mechanisms
            )
        return (
            fill_bytes
            + prefetch_lines * line_size
            + writeback_bytes
            + self.overall.write_through_bytes
        )

    @property
    def instruction_miss_ratio(self) -> float:
        """Instruction-fetch miss ratio."""
        return self.instruction.instruction_miss_ratio

    @property
    def data_miss_ratio(self) -> float:
        """Data (read+write) miss ratio."""
        return self.data.data_miss_ratio


def simulate(
    trace: Trace,
    organization: CacheOrganization,
    purge_interval: int | None = None,
    limit: int | None = None,
    warmup: int = 0,
    engine: str = "auto",
    allow_warm: bool = False,
) -> SimulationReport:
    """Replay ``trace`` through ``organization``.

    Args:
        trace: the reference stream.
        organization: unified or split cache (mutated in place; pass a fresh
            one per run).  A warm organization — resident lines or non-zero
            counters — is rejected unless ``allow_warm=True``, because
            silent reuse double-counts state across runs.
        allow_warm: accept a previously used organization (deliberate
            warm-start setups that reset statistics but keep contents
            between runs).
        purge_interval: purge the cache every this many references, after
            the references are applied (so an interval equal to the trace
            length purges once, at the end — matching the paper's
            accounting where purge pushes are part of "total lines
            pushed").
        limit: replay at most this many references.
        warmup: replay this many leading references first, then reset the
            statistics before measuring the remainder — removing cold-start
            bias (Section 1.1's caveat about short traces).  The warmup
            prefix counts toward the purge clock but not toward the report.
        engine: ``"auto"`` (default) takes the specialized replay kernel
            when the organization qualifies (see
            :func:`repro.core.kernels.can_replay`) and the generic
            per-reference engine otherwise; ``"generic"`` forces the
            reference engine; ``"kernel"`` requires the fast path.  Every
            engine produces an identical report and identical final cache
            state.

    Returns:
        A report with statistics *snapshots* (safe to keep after the
        organization is reused).  ``references`` counts measured (post-
        warmup) references only.

    Raises:
        ValueError: for a non-positive purge interval, negative limit or
            negative warmup, an unknown ``engine``, ``engine="kernel"``
            with an organization the kernel cannot express, or a warm
            organization without ``allow_warm=True``.
    """
    if purge_interval is not None and purge_interval <= 0:
        raise ValueError(f"purge_interval must be positive, got {purge_interval}")
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be non-negative, got {limit}")
    if warmup < 0:
        raise ValueError(f"warmup must be non-negative, got {warmup}")
    if engine not in ("auto", "generic", "kernel"):
        raise ValueError(f"engine must be 'auto', 'generic' or 'kernel', got {engine!r}")
    if not allow_warm and organization.is_warm():
        raise ValueError(
            "organization already holds resident lines or statistics; "
            "simulate() needs a fresh one per run (pass allow_warm=True to "
            "reuse a warm organization deliberately)"
        )

    if engine != "generic" and kernels.can_replay(organization):
        measured = kernels.lru_demand_replay(
            trace, organization, purge_interval=purge_interval, limit=limit, warmup=warmup
        )
        return SimulationReport(
            trace_name=trace.metadata.name,
            references=measured,
            purge_interval=purge_interval,
            overall=organization.overall_stats().snapshot(),
            instruction=organization.instruction_stats().snapshot(),
            data=organization.data_stats().snapshot(),
            mechanisms=_mechanism_snapshots(organization),
        )
    if engine == "kernel":
        raise ValueError(
            "organization does not qualify for the specialized replay kernel "
            "(requires LRU, FIFO or random replacement, demand fetch, no "
            "write combining, and with a miss path a cold direct-mapped "
            "LRU or FIFO primary that allocates on writes; see "
            "repro.core.kernels.can_replay)"
        )

    length = len(trace) if limit is None else min(limit, len(trace))
    # The memoized raw lists are shared across runs; slicing copies, and the
    # full-length path below only iterates, never mutates.
    kinds, addresses, sizes = trace.raw_lists()
    if length != len(kinds):
        kinds = kinds[:length]
        addresses = addresses[:length]
        sizes = sizes[:length]

    warmup = min(warmup, length)
    countdown = purge_interval if purge_interval is not None else 0
    if warmup:
        warm_access = organization.access_raw
        for kind, address, size in zip(
            kinds[:warmup], addresses[:warmup], sizes[:warmup]
        ):
            warm_access(kind, address, size)
            if purge_interval is not None:
                countdown -= 1
                if countdown == 0:
                    organization.purge()
                    countdown = purge_interval
        organization.reset_statistics()
        kinds = kinds[warmup:]
        addresses = addresses[warmup:]
        sizes = sizes[warmup:]
        length -= warmup

    access = organization.access_raw
    if purge_interval is None:
        for kind, address, size in zip(kinds, addresses, sizes):
            access(kind, address, size)
    else:
        # The countdown carries the warmup loop's residual, so the purge
        # clock runs over warmup + measured references as documented.
        purge = organization.purge
        for kind, address, size in zip(kinds, addresses, sizes):
            access(kind, address, size)
            countdown -= 1
            if countdown == 0:
                purge()
                countdown = purge_interval

    return SimulationReport(
        trace_name=trace.metadata.name,
        references=length,
        purge_interval=purge_interval,
        overall=organization.overall_stats().snapshot(),
        instruction=organization.instruction_stats().snapshot(),
        data=organization.data_stats().snapshot(),
        mechanisms=_mechanism_snapshots(organization),
    )


def _mechanism_snapshots(
    organization: CacheOrganization,
) -> tuple[tuple[str, CacheStats], ...]:
    return tuple(
        (name, stats.snapshot()) for name, stats in organization.mechanism_stats()
    )
