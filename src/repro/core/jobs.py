"""Campaign cells: picklable, content-hashable units of simulation work.

The campaign runner (:mod:`repro.campaign`) fans trace x configuration
cells out across worker processes and memoizes finished cells on disk.
Both mechanisms need the *description* of a cell to be self-contained:

* **picklable** — a cell is shipped to a worker process,
  which rebuilds the trace and the cache organization locally rather than
  serializing megabytes of reference stream per cell;
* **content-hashable** — the on-disk result cache is keyed by a stable
  hash of (trace identity, configuration, length, purge interval), so a
  re-run of the same cell is served from disk.

A cell is a :class:`CampaignCell`: a :class:`TraceSpec` describing how to
obtain the reference stream, plus a job describing what to do with it —
a :class:`SimulateJob` (one direct simulation, optionally with miss-path
mechanisms or a sector cache, yielding a ``SimulationReport``), a
:class:`StackSweepJob` (a one-pass LRU stack-distance sweep over several
capacities, yielding a miss-ratio tuple), or an
:class:`AssociativitySweepJob` (a one-pass-per-set-count sweep over a
whole ways x capacities grid, yielding a miss-ratio surface).

This is the one module that knows which fields a job has: a job's
identity (its cache key) and its wire form are read off its dataclass
fields, and :func:`job_from_document` checks the wire form strictly
against the fields' annotations.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import time
import traceback as traceback_module
import typing
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from ..trace.memo import TRACE_MEMO
from ..trace.record import AccessKind
from ..trace.stream import Trace
from ..workloads import catalog
from .address import CacheGeometry
from .fetch import FetchPolicy
from .kernels import associativity_miss_surface
from .misspath import MechanismConfig
from .organization import CacheOrganization, SplitCache, UnifiedCache
from .replacement import _POLICIES as _REPLACEMENT_POLICIES
from .replacement import policy_factory
from .sector import SectorCacheOrganization, SectorGeometry
from .simulator import SimulationReport, simulate
from .stackdist import lru_miss_ratio_curve
from .write import WritePolicy, WriteStrategy

__all__ = [
    "TraceSpec",
    "SimulateJob",
    "StackSweepJob",
    "AssociativitySweepJob",
    "job_document",
    "job_from_document",
    "strict_json",
    "CampaignCell",
    "CellError",
    "CellResult",
    "cell_key",
    "run_cell",
]

#: Bump when the synthetic-trace generator or the simulator semantics
#: change in a way that invalidates previously cached cell results.
#: Version 2: :class:`CellResult` grew the ``sampling`` field.
#: Version 3: generator v2 — purpose-decomposed RNG streams changed the
#: emitted reference streams for equal workload parameters.
#: Version 4: cell identity grew a miss-path mechanism config, so
#: pre-mechanism cached results must not be served for mechanism cells.
#: Version 5: sampled cell identity gained the representative-interval
#: plan family (``plan: "representative"``), and stratified window
#: features moved to the vectorized sweep, changing which windows a
#: stratified plan selects for equal parameters.
#: Version 6: catalog and mix cells are keyed by their traces' content
#: digests (parameters + generator version), not by name and length alone.
#: Version 7: :class:`CellResult` lost its ``sampling`` field.
CACHE_SCHEMA_VERSION = 7

_WRITE_POLICIES = {
    "copy-back": WritePolicy(WriteStrategy.COPY_BACK, allocate_on_write=True),
    "write-through": WritePolicy(WriteStrategy.WRITE_THROUGH, allocate_on_write=False),
    "write-through-allocate": WritePolicy(
        WriteStrategy.WRITE_THROUGH, allocate_on_write=True
    ),
    "write-through-combine": WritePolicy(
        WriteStrategy.WRITE_THROUGH, allocate_on_write=False, combining_bytes=8
    ),
}
_FETCH_POLICIES = {policy.value: policy for policy in FetchPolicy}


@dataclass(frozen=True)
class TraceSpec:
    """How a worker process obtains one reference stream.

    Four kinds are supported:

    * ``catalog`` — a named catalog trace, regenerated deterministically
      from its workload parameters (identified by its content digest,
      :func:`repro.workloads.catalog.trace_digest`);
    * ``mix`` — a round-robin multiprogramming interleave of catalog
      traces (the paper's Table 3 methodology);
    * ``inline`` — a literal trace carried as raw array bytes, for traces
      that exist only in the caller's process;
    * ``file`` — a trace file on shared storage, loaded (by default
      memory-mapped) in each worker, so every process borrows the same
      on-disk pages instead of carrying the arrays through pickling.

    Use the :meth:`catalog` / :meth:`mix` / :meth:`inline` / :meth:`file`
    constructors rather than instantiating directly.
    """

    kind: str
    name: str
    length: int | None = None
    members: tuple[str, ...] = ()
    quantum: int | None = None
    total: int | None = None
    payload: tuple = field(default=(), repr=False)
    path: str | None = None
    mmap: bool = True

    @classmethod
    def catalog(cls, name: str, length: int | None = None) -> "TraceSpec":
        """A named catalog trace (``length=None`` = the paper's length)."""
        return cls(kind="catalog", name=name, length=length)

    @classmethod
    def mix(
        cls,
        label: str,
        members: tuple[str, ...],
        quantum: int,
        length: int | None = None,
        total: int | None = None,
    ) -> "TraceSpec":
        """A round-robin interleave of catalog traces.

        Args:
            label: display name of the mix.
            members: catalog trace names in scheduling order.
            quantum: references per time slice.
            length: references generated per member (None = paper length).
            total: total references of the mixed stream (None = sum of the
                member lengths).
        """
        return cls(
            kind="mix",
            name=label,
            length=length,
            members=tuple(members),
            quantum=quantum,
            total=total,
        )

    @classmethod
    def inline(cls, trace: Trace) -> "TraceSpec":
        """A literal trace, carried by value (hashed by content)."""
        return cls(
            kind="inline",
            name=trace.metadata.name,
            length=len(trace),
            payload=(
                trace.kinds.tobytes(),
                trace.addresses.tobytes(),
                trace.sizes.tobytes(),
            ),
        )

    @classmethod
    def file(cls, path, mmap: bool = True, name: str | None = None) -> "TraceSpec":
        """A trace stored on (worker-reachable) disk, loaded per process.

        With ``mmap=True`` (the default) and a version-2 ``.rtrc`` file,
        each worker maps the array sections read-only instead of copying
        them, so concurrent workers share one physical copy of the trace
        (see :func:`repro.trace.io.read_binary_trace`).  Text traces and
        version-1 files load eagerly regardless.

        The cache identity is the path plus the file's byte size — the
        file is assumed immutable for the lifetime of the result cache.
        """
        from pathlib import Path

        path = Path(path)
        return cls(
            kind="file",
            name=name if name is not None else path.stem,
            path=str(path),
            mmap=mmap,
        )

    def build(self) -> Trace:
        """Materialize the trace (in whatever process this runs in)."""
        return _build_trace(self)

    def identity(self) -> dict:
        """JSON-able identity used for cache keying.

        Catalog and mix identities carry the content digest of each
        catalog trace, so editing a catalog entry or bumping the
        generator version changes the key.
        """
        out: dict = {"kind": self.kind, "name": self.name, "length": self.length}
        if self.kind == "catalog":
            out["content"] = catalog.trace_digest(self.name, self.length)
        elif self.kind == "mix":
            out["members"] = list(self.members)
            out["quantum"] = self.quantum
            out["total"] = self.total
            out["content"] = [
                catalog.trace_digest(member, self.length) for member in self.members
            ]
        elif self.kind == "inline":
            digest = hashlib.sha256()
            for blob in self.payload:
                digest.update(blob)
            out["content"] = digest.hexdigest()
        elif self.kind == "file":
            from pathlib import Path

            out["path"] = self.path
            # mmap is a transport choice, not an identity: mapped and eager
            # loads of the same file yield the same trace.
            out["bytes"] = Path(self.path).stat().st_size
        return out


def _build_trace(spec: TraceSpec) -> Trace:
    """The trace a spec describes, through the process-wide trace memo.

    A catalog trace is memoized under its content digest by
    :func:`~repro.workloads.catalog.generate`; any other trace under its
    spec.
    """
    if spec.kind == "catalog":
        return catalog.generate(spec.name, spec.length)
    return TRACE_MEMO.get(spec, lambda: _materialize(spec))


#: Lets callers that reset this process's traces through
#: ``_build_trace.cache_clear()`` empty the trace memo.
_build_trace.cache_clear = TRACE_MEMO.clear


def _materialize(spec: TraceSpec) -> Trace:
    if spec.kind == "mix":
        from ..trace.filters import interleave_round_robin
        return interleave_round_robin(
            [catalog.generate(m, spec.length) for m in spec.members],
            quantum=spec.quantum,
            length=spec.total,
        )
    if spec.kind == "inline":
        kinds_blob, addresses_blob, sizes_blob = spec.payload
        from ..trace.stream import TraceMetadata

        return Trace(
            np.frombuffer(kinds_blob, dtype=np.int8),
            np.frombuffer(addresses_blob, dtype=np.int64),
            np.frombuffer(sizes_blob, dtype=np.int32),
            TraceMetadata(name=spec.name),
        )
    if spec.kind == "file":
        from ..trace.io import load_trace

        return load_trace(spec.path, mmap=spec.mmap)
    raise ValueError(f"unknown trace spec kind {spec.kind!r}")


_JSON_SCALARS = {int: "integer", bool: "boolean", str: "string", type(None): "null"}


@functools.cache
def _fields(cls) -> dict[str, tuple]:
    """``{name: (check, listed only when set)}`` per content field: every
    field but those whose metadata says ``content=False`` (``engine``)."""
    hints = typing.get_type_hints(cls)
    return {
        f.name: (strict_json(hints[f.name]), f.metadata.get("content") == "when-set")
        for f in dataclasses.fields(cls)
        if f.metadata.get("content", True) is not False
    }


def _content(obj) -> dict:
    """A dataclass's content fields as plain JSON values."""
    out = {}
    for name, (_, when_set) in _fields(type(obj)).items():
        value = getattr(obj, name)
        if value is None and when_set:
            continue
        if type(value) is tuple:
            value = list(value)
        elif type(value) not in _JSON_SCALARS:
            value = _content(value)  # a nested dataclass
        out[name] = value
    return out


def strict_json(hint):
    """A ``check(name, value)`` admitting exactly the JSON ``hint`` names.

    ``int`` is a JSON integer (not a bool, float or string); ``X | None``
    also admits null, ``tuple[X, ...]`` an array and a dataclass an object
    of its content fields.  Raises :class:`ValueError` naming the field.
    """
    args = typing.get_args(hint)
    if type(None) in args:
        (inner,) = [arg for arg in args if arg is not type(None)]
        check = strict_json(inner)
        return lambda name, value: None if value is None else check(name, value)
    if typing.get_origin(hint) is tuple:
        check = strict_json(args[0])

        def check_array(name, value):
            if not isinstance(value, list):
                raise ValueError(f"field {name!r} must be a JSON array, got {value!r}")
            return tuple(check(name, item) for item in value)

        return check_array
    if dataclasses.is_dataclass(hint):
        return lambda name, value: hint(**_decode_fields(hint, value, name))

    def check_scalar(name, value):
        if type(value) is not hint:
            raise ValueError(
                f"field {name!r} must be a JSON {_JSON_SCALARS[hint]}, got {value!r}"
            )
        return value

    return check_scalar


def _decode_fields(cls, doc, where: str) -> dict:
    """Constructor arguments for ``cls`` from a JSON object, checked strictly
    (``cls`` itself raises :class:`TypeError` naming a missing field)."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object, got {doc!r}")
    fields = _fields(cls)
    unknown = doc.keys() - fields.keys()
    if unknown:
        raise ValueError(
            f"unknown {where} field(s): " + ", ".join(map(repr, sorted(unknown)))
        )
    return {name: fields[name][0](name, value) for name, value in doc.items()}


class _Job:
    #: The job's name: ``"job"`` in its identity, ``"type"`` on the wire.
    kind: ClassVar[str]

    def identity(self) -> dict:
        """JSON-able identity used for cache keying."""
        return {"job": self.kind, **_content(self)}


@dataclass(frozen=True)
class SimulateJob(_Job):
    """One direct simulation: trace -> cache organization -> report.

    Fields mirror the ``simulate`` CLI subcommand; the worker rebuilds the
    organization from these names so the job stays picklable and hashable.
    An unknown ``replacement``, ``write`` or ``fetch`` name is a
    :class:`ValueError` when the job is built.  ``mechanisms`` attaches
    miss-path components and, when active, is part of the identity; an
    inactive :class:`~repro.core.misspath.MechanismConfig` is stored as None.
    ``subblock`` makes it the Z80000's sector cache (:mod:`repro.core.sector`:
    ``line_size``-byte sectors fetched ``subblock`` bytes at a time); like
    ``mechanisms``, it is part of the identity only when set.

    ``engine`` selects the replay engine as in
    :func:`repro.core.simulator.simulate` and is *excluded* from the cache
    identity and the wire form: every engine produces an identical report,
    so forcing ``"generic"`` (or ``"kernel"``) must hit the same cached cell.
    """

    kind: ClassVar[str] = "simulate"

    size: int
    line_size: int = 16
    associativity: int | None = None
    replacement: str = "lru"
    write: str = "copy-back"
    fetch: str = "demand"
    split: bool = False
    purge_interval: int | None = None
    limit: int | None = None
    warmup: int = 0
    # Listed only when set, so the keys of mechanism-free cells stay as
    # they were before the field existed.
    mechanisms: MechanismConfig | None = field(
        default=None, metadata={"content": "when-set"}
    )
    subblock: int | None = field(default=None, metadata={"content": "when-set"})
    engine: str = field(default="auto", metadata={"content": False})

    def __post_init__(self) -> None:
        for name, known in (("replacement", _REPLACEMENT_POLICIES),
                            ("write", _WRITE_POLICIES), ("fetch", _FETCH_POLICIES)):
            value = getattr(self, name)
            if value not in known:
                raise ValueError(f"unknown {name} {value!r}; expected one of {sorted(known)}")
        if self.mechanisms is not None and not self.mechanisms.active:
            object.__setattr__(self, "mechanisms", None)
        if self.subblock is not None:
            conflicts = [name for name, given in (
                ("split", self.split), ("mechanisms", self.mechanisms is not None),
                ("associativity", self.associativity is not None),
                ("replacement", self.replacement != "lru"),
                ("fetch", self.fetch != "demand"),
            ) if given]
            if conflicts:
                raise ValueError(
                    f"a sector cache (subblock) cannot take {', '.join(conflicts)}: "
                    "it is unified, fully associative LRU with demand fetch"
                )

    def build_organization(self) -> CacheOrganization:
        """A fresh organization for one run of this job."""
        if self.subblock is not None:
            return SectorCacheOrganization(
                SectorGeometry(self.size, self.line_size, self.subblock),
                copy_back=self.write == "copy-back",
            )
        geometry = CacheGeometry(self.size, self.line_size, self.associativity)
        organization_cls = SplitCache if self.split else UnifiedCache
        return organization_cls(
            geometry,
            replacement=policy_factory(self.replacement),
            write_policy=_WRITE_POLICIES[self.write],
            fetch_policy=_FETCH_POLICIES[self.fetch],
            miss_path=self.mechanisms.build(self.line_size) if self.mechanisms else None,
        )

    def run(self, trace: Trace) -> SimulationReport:
        """Execute the job on a materialized trace."""
        return simulate(
            trace,
            self.build_organization(),
            purge_interval=self.purge_interval,
            limit=self.limit,
            warmup=self.warmup,
            engine=self.engine,
        )


@dataclass(frozen=True)
class StackSweepJob(_Job):
    """A one-pass LRU stack-distance sweep over several capacities.

    Returns the miss-ratio tuple aligned with ``sizes`` — the cheap path
    for every LRU/demand-fetch configuration (Tables 1/5, Figures 1/3/4).
    """

    kind: ClassVar[str] = "stack-sweep"

    sizes: tuple[int, ...]
    line_size: int = 16
    kinds: tuple[int, ...] | None = None
    purge_interval: int | None = None

    def __post_init__(self) -> None:
        if not self.sizes:
            raise ValueError("a stack sweep needs at least one size in 'sizes'")

    def run(self, trace: Trace) -> tuple[float, ...]:
        """Execute the sweep on a materialized trace."""
        kinds = [AccessKind(k) for k in self.kinds] if self.kinds is not None else None
        curve = lru_miss_ratio_curve(
            trace,
            list(self.sizes),
            line_size=self.line_size,
            kinds=kinds,
            purge_interval=self.purge_interval,
        )
        return tuple(float(v) for v in curve)


@dataclass(frozen=True)
class AssociativitySweepJob(_Job):
    """A one-pass-per-set-count sweep over a (ways x capacities) grid.

    Backed by :func:`repro.core.kernels.associativity_miss_surface`: grid
    cells sharing a set count are read off one per-set stack-distance
    pass, so the whole surface costs one pass per distinct set count
    instead of one simulation per cell — bit-identical to the per-cell
    simulations it replaces.

    Returns the miss-ratio surface as nested tuples, rows aligned with
    ``ways`` (``None`` = fully associative), columns with ``capacities``.
    """

    kind: ClassVar[str] = "associativity-sweep"

    ways: tuple[int | None, ...]
    capacities: tuple[int, ...]
    line_size: int = 16

    def run(self, trace: Trace) -> tuple[tuple[float, ...], ...]:
        """Execute the sweep on a materialized trace."""
        surface = associativity_miss_surface(
            trace, self.ways, self.capacities, line_size=self.line_size
        )
        return tuple(tuple(float(v) for v in row) for row in surface)


#: Every job type, by the name it travels under.
_JOB_TYPES = {cls.kind: cls for cls in (SimulateJob, StackSweepJob, AssociativitySweepJob)}


def job_document(job) -> dict:
    """A job's wire form: its content fields under its ``"type"``."""
    return {"type": job.kind, **_content(job)}


def job_from_document(doc) -> SimulateJob | StackSweepJob | AssociativitySweepJob:
    """Rebuild a job from its wire form, checking every field's JSON type
    (:class:`ValueError` names the unknown type or the offending field)."""
    kind = doc.get("type") if isinstance(doc, dict) else None
    cls = _JOB_TYPES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown job type {kind!r}")
    fields = {name: value for name, value in doc.items() if name != "type"}
    return cls(**_decode_fields(cls, fields, f"{kind} job"))


@dataclass(frozen=True)
class CampaignCell:
    """One trace x configuration cell of a campaign.

    The ``label`` is display-only (it does not enter the cache key), so
    two drivers asking for the same work under different names share one
    cached result.
    """

    label: str
    trace: TraceSpec
    job: SimulateJob | StackSweepJob | AssociativitySweepJob


@dataclass(frozen=True)
class CellResult:
    """What one executed cell produced (the cacheable part).

    Attributes:
        value: the job's payload (a report, miss-ratio tuple, or surface).
        references: references replayed (throughput denominator).
        wall_seconds: execution time inside the worker, trace build
            included (not cached — a cache hit reports 0.0).
    """

    value: SimulationReport | tuple[float, ...] | tuple[tuple[float, ...], ...]
    references: int
    wall_seconds: float


@dataclass(frozen=True)
class CellError:
    """Why one campaign cell failed (picklable, human-inspectable).

    Attributes:
        type: the exception class name (e.g. ``"ValueError"``).
        message: ``str(exception)``.
        traceback: the formatted traceback, as a string — exception objects
            themselves are not reliably picklable across processes.
    """

    type: str
    message: str
    traceback: str

    @classmethod
    def from_exception(cls, exc: BaseException) -> "CellError":
        """Capture an exception as a plain-data record."""
        return cls(
            type=type(exc).__name__,
            message=str(exc),
            traceback="".join(
                traceback_module.format_exception(type(exc), exc, exc.__traceback__)
            ),
        )

    def __str__(self) -> str:
        return f"{self.type}: {self.message}"


def cell_key(cell: CampaignCell) -> str:
    """Stable content hash of a cell (trace identity + configuration)."""
    document = {
        "version": CACHE_SCHEMA_VERSION,
        "trace": cell.trace.identity(),
        "work": cell.job.identity(),
    }
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def run_cell(cell: CampaignCell) -> CellResult:
    """Execute one cell (worker entry point; must stay module-level)."""
    start = time.perf_counter()
    trace = cell.trace.build()
    value = cell.job.run(trace)
    return CellResult(
        value=value,
        references=len(trace),
        wall_seconds=time.perf_counter() - start,
    )
