"""The campaign runner: parallel trace x configuration sweeps with an
on-disk result cache, failure isolation, and structured observability.

The paper's experiments are *campaigns* — the same simulator applied to
dozens of traces across dozens of configurations (49 traces x 12 sizes for
Table 1 alone).  Every cell is independent, so the natural execution model
is a process pool:

* :func:`run_campaign` runs an iterable of
  :class:`~repro.core.jobs.CampaignCell` on the campaign service's
  execution core (:class:`~repro.service.scheduler.Scheduler`), driven
  synchronously on a private event loop.  The worker count comes from
  ``os.cpu_count()``, overridable with ``REPRO_WORKERS`` (or
  ``workers=``); one worker runs cells in-process, which is what you
  want under a debugger, and more run them on a process pool.
* Results are merged **in submission order**, so a campaign's output is
  bit-identical no matter how many workers ran it or in which order the
  cells finished.  A cell listed twice runs once; its twin is reported
  as cached.
* Finished cells are memoized in an on-disk :class:`ResultCache` keyed by
  a content hash of (trace identity, configuration, length, purge
  interval) — see :func:`repro.core.jobs.cell_key`.  Re-running a
  benchmark or experiment skips every already-simulated cell.  The cache
  directory comes from ``REPRO_CACHE_DIR`` (or the ``cache=`` argument);
  with neither set, caching is off.  With a cache, runs that share its
  directory claim each cell through ``.claim`` files, so concurrent
  campaigns never simulate one cell twice.
* Large traces are best shipped as ``TraceSpec.file`` cells pointing at a
  version-2 ``.rtrc`` file: each worker memory-maps the array sections
  read-only (:func:`repro.trace.io.read_binary_trace` with ``mmap=True``),
  so concurrent workers share one physical copy of the trace through the
  page cache instead of each materializing (or unpickling) the arrays.

A production-scale campaign must also survive its own cells.  The runner
therefore degrades gracefully instead of failing all-or-nothing:

* **Failure isolation** — an exception inside one cell becomes a failed
  :class:`CellOutcome` (:class:`~repro.core.jobs.CellError` with type,
  message, and traceback) on the :class:`CampaignResult`; every other
  cell still runs and successful cells still land in the result cache,
  so a re-run only re-executes the failures.  Pass
  ``raise_on_error=True`` to restore strict behavior (a
  :class:`CampaignError` after all cells have been collected).
* **Retries and timeouts** — the scheduler retries transient failures
  (``REPRO_RETRIES`` / ``retries=``, ``REPRO_RETRY_BACKOFF`` /
  ``backoff=``) and fails a pool cell that outlives ``REPRO_CELL_TIMEOUT``
  / ``timeout=`` with ``TimeoutError``; see ``docs/campaign.md``.  A cell
  whose worker keeps dying runs once more in-process.
* **Observability** — the ``progress`` callback streams in submission
  order as outcomes become known, and every lifecycle step can be
  appended to a JSONL event log (:class:`EventLog`, ``events=`` /
  ``REPRO_EVENT_LOG``): ``campaign_started``, ``trace_store_write`` /
  ``trace_store_hit`` (shared trace-store priming, see below),
  ``cell_finished``, ``cell_retried``, ``cell_failed``,
  ``campaign_finished``.
* **Shared trace store** — with ``REPRO_TRACE_STORE=<dir>`` (or
  ``--trace-store`` on the CLI) the parent process generates every
  distinct catalog trace referenced by the pending cells exactly once,
  stores it content-addressed as a mappable ``.rtrc`` file
  (:class:`~repro.trace.store.TraceStore`), and the workers memory-map
  that file instead of regenerating it — N cells over one workload cost
  one generation.

Every executed cell is timed; :meth:`CampaignResult.summary` reports wall
time, references/second, and failure/retry counts per campaign, and
:attr:`CellOutcome.wall_seconds` per cell.
"""

from __future__ import annotations

import asyncio
import functools
import json
import os
import pickle
import tempfile
import time
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from .core.jobs import CampaignCell, CellError, CellResult, cell_key, run_cell

__all__ = [
    "CellOutcome",
    "CampaignError",
    "CampaignResult",
    "EventLog",
    "ResultCache",
    "run_campaign",
    "worker_count",
]

#: Environment variable overriding the worker count.
WORKERS_ENV = "REPRO_WORKERS"
#: Environment variable naming the default result-cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
#: Environment variable naming the default JSONL event-log path.
EVENT_LOG_ENV = "REPRO_EVENT_LOG"

_MISS = object()


def worker_count(workers: int | None = None) -> int:
    """Resolve the campaign worker count.

    Priority: explicit argument, then ``REPRO_WORKERS``, then
    ``os.cpu_count()``.  Always at least 1.
    """
    if workers is None:
        env = os.environ.get(WORKERS_ENV)
        if env:
            try:
                workers = int(env)
            except ValueError:
                raise ValueError(
                    f"{WORKERS_ENV} must be an integer, got {env!r}"
                ) from None
        else:
            workers = os.cpu_count() or 1
    return max(1, workers)


class ResultCache:
    """On-disk memo of finished campaign cells.

    Each entry is one pickle file named by the cell's content hash, in a
    two-level directory layout (``ab/abcdef....pkl``) to keep directories
    small.  Writes are atomic (write-to-temp + rename), so concurrent
    campaigns sharing a cache directory never observe torn entries; a
    corrupt or unreadable entry is treated as a miss *and deleted*, so
    the owning cell simply rebuilds it — the same policy the trace store
    applies to its ``.rtrc`` files, and what lets many clients share one
    ``REPRO_CACHE_DIR`` without a bad entry ever becoming fatal.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.pkl"

    def get(self, key: str):
        """The cached :class:`CellResult` for ``key``, or the miss sentinel."""
        path = self._path(key)
        try:
            with path.open("rb") as handle:
                return pickle.load(handle)
        except FileNotFoundError:
            return _MISS
        except Exception:
            # Any unreadable entry — torn, truncated, or bytes that merely
            # resemble a pickle stream — is a miss, never a crash.  Remove
            # the wreckage so the rebuilt result replaces it (best-effort:
            # a concurrent rebuilder may already have).
            try:
                path.unlink()
            except OSError:
                pass
            return _MISS

    def put(self, key: str, result: CellResult) -> None:
        """Store one finished cell (atomically)."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, temp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(result, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(temp_name, path)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise

    def __len__(self) -> int:
        """Number of cached entries."""
        return sum(1 for _ in self.directory.glob("*/*.pkl"))


class EventLog:
    """Append-only JSONL log of campaign lifecycle events.

    Each line is one JSON object with at least ``event`` (the event name)
    and ``time`` (epoch seconds).  Lines are flushed as they are written,
    so a tail of the file is a live view of the campaign.  The target
    ``"-"`` streams to stdout (what ``campaign --events -`` and remote
    tailing use).  See ``docs/campaign.md`` for the event schema.
    """

    def __init__(self, target: str | Path | object) -> None:
        if target == "-":
            import sys

            self._handle = sys.stdout
            self._owns_handle = False
        elif hasattr(target, "write"):
            self._handle = target
            self._owns_handle = False
        else:
            path = Path(target)
            path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = path.open("a", encoding="utf-8")
            self._owns_handle = True

    def emit(self, event: str, **fields) -> None:
        """Append one event line (best-effort: I/O errors are swallowed)."""
        record = {"event": event, "time": time.time(), **fields}
        try:
            self._handle.write(json.dumps(record, sort_keys=False) + "\n")
            self._handle.flush()
        except Exception:
            pass  # observability must never take the campaign down

    def close(self) -> None:
        """Close the underlying file if this log opened it."""
        if self._owns_handle:
            try:
                self._handle.close()
            except Exception:
                pass

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@dataclass(frozen=True)
class CellOutcome:
    """One campaign cell plus everything its execution produced.

    Attributes:
        cell: the cell specification.
        value: the job payload (report or miss-ratio tuple); ``None`` for
            a failed cell.
        references: references replayed by the cell (0 for a failure).
        wall_seconds: execution wall time (0.0 for a cache hit).
        cached: True iff the result came from the on-disk cache.
        key: the cell's content-hash cache key.
        error: why the cell failed, or ``None`` on success.
        attempts: execution attempts made (1 = first try succeeded).
    """

    cell: CampaignCell
    value: object
    references: int
    wall_seconds: float
    cached: bool
    key: str
    error: CellError | None = None
    attempts: int = 1

    @property
    def label(self) -> str:
        """The cell's display label."""
        return self.cell.label

    @property
    def ok(self) -> bool:
        """True iff the cell produced a value (cached or simulated)."""
        return self.error is None


class CampaignError(RuntimeError):
    """Raised by ``run_campaign(..., raise_on_error=True)`` after cells fail.

    Raised only once every cell has been collected, so the partial
    :attr:`result` (with its cached successes) is still available.
    """

    def __init__(self, result: "CampaignResult") -> None:
        failures = result.failures()
        preview = "; ".join(
            f"{o.label}: {o.error}" for o in failures[:3]
        )
        if len(failures) > 3:
            preview += f"; ... ({len(failures) - 3} more)"
        super().__init__(
            f"{len(failures)} of {result.cells} campaign cell(s) failed: {preview}"
        )
        self.result = result


@dataclass(frozen=True)
class CampaignResult:
    """All cell outcomes of one campaign, in submission order."""

    outcomes: tuple[CellOutcome, ...]
    wall_seconds: float
    workers: int

    def values(self) -> list:
        """The job payloads, in submission order (``None`` for failures)."""
        return [outcome.value for outcome in self.outcomes]

    def by_label(self) -> dict[str, list[CellOutcome]]:
        """Outcomes grouped by cell label (insertion-ordered)."""
        grouped: dict[str, list[CellOutcome]] = {}
        for outcome in self.outcomes:
            grouped.setdefault(outcome.label, []).append(outcome)
        return grouped

    def failures(self) -> tuple[CellOutcome, ...]:
        """The failed outcomes, in submission order."""
        return tuple(o for o in self.outcomes if o.error is not None)

    def errors(self) -> dict[str, CellError]:
        """Errors keyed by cell label (first failure wins per label)."""
        out: dict[str, CellError] = {}
        for outcome in self.outcomes:
            if outcome.error is not None:
                out.setdefault(outcome.label, outcome.error)
        return out

    @property
    def cells(self) -> int:
        """Total number of cells."""
        return len(self.outcomes)

    @property
    def cached_cells(self) -> int:
        """Cells served from the result cache."""
        return sum(1 for outcome in self.outcomes if outcome.cached)

    @property
    def failed_cells(self) -> int:
        """Cells that ended in a failure."""
        return sum(1 for outcome in self.outcomes if outcome.error is not None)

    @property
    def retried_cells(self) -> int:
        """Cells that needed more than one attempt (succeeded or not)."""
        return sum(1 for outcome in self.outcomes if outcome.attempts > 1)

    @property
    def simulated_cells(self) -> int:
        """Cells actually executed (successfully) this run."""
        return self.cells - self.cached_cells - self.failed_cells

    @property
    def simulated_references(self) -> int:
        """References replayed by the executed (non-cached) cells."""
        return sum(o.references for o in self.outcomes if not o.cached)

    @property
    def references_per_second(self) -> float:
        """Aggregate throughput of the executed cells (0.0 if all cached).

        Computed against campaign wall time, so it reflects the *parallel*
        throughput the user actually observed.
        """
        if self.simulated_cells == 0 or self.wall_seconds <= 0:
            return 0.0
        return self.simulated_references / self.wall_seconds

    def summary(self) -> str:
        """Human-readable per-campaign accounting."""
        counts = (
            f"({self.cached_cells} cached, {self.simulated_cells} simulated"
            + (f", {self.failed_cells} failed" if self.failed_cells else "")
            + ")"
        )
        lines = [
            f"campaign: {self.cells} cells {counts} "
            f"in {self.wall_seconds:.2f}s on {self.workers} worker(s)"
        ]
        if self.retried_cells:
            lines.append(f"  retried {self.retried_cells} cell(s)")
        if self.simulated_cells:
            lines.append(
                f"  replayed {self.simulated_references:,} references "
                f"at {self.references_per_second:,.0f} refs/s"
            )
            slowest = max(
                (o for o in self.outcomes if not o.cached and o.error is None),
                key=lambda o: o.wall_seconds,
            )
            lines.append(
                f"  slowest cell: {slowest.label} ({slowest.wall_seconds:.2f}s)"
            )
        for outcome in self.failures():
            lines.append(
                f"  FAILED {outcome.label}: {outcome.error} "
                f"(after {outcome.attempts} attempt(s))"
            )
        return "\n".join(lines)


def _resolve_cache(cache) -> ResultCache | None:
    """Interpret the ``cache`` argument of :func:`run_campaign`."""
    if cache is False:
        return None
    if cache is True:
        directory = os.environ.get(CACHE_DIR_ENV)
        if not directory:
            raise ValueError(
                f"run_campaign(cache=True) requires {CACHE_DIR_ENV} to name "
                "a cache directory (or pass the directory itself as cache=)"
            )
        return ResultCache(directory)
    if isinstance(cache, ResultCache):
        return cache
    if cache is None:
        directory = os.environ.get(CACHE_DIR_ENV)
        return ResultCache(directory) if directory else None
    return ResultCache(cache)


def _resolve_events(events) -> tuple[EventLog | None, bool]:
    """Interpret ``events=``: the log (or None) and whether we own it."""
    if events is None:
        path = os.environ.get(EVENT_LOG_ENV)
        return (EventLog(path), True) if path else (None, False)
    if isinstance(events, EventLog):
        return events, False
    return EventLog(events), True


def _prime_trace_store(pending: list[CampaignCell], log: EventLog | None) -> None:
    """Make sure each distinct catalog trace is in the store, before the fan-out.

    With ``REPRO_TRACE_STORE`` set, N cells over one workload must cost one
    generation, not N: the parent checks every distinct catalog
    ``(name, length)`` referenced by the pending cells against the shared
    :class:`~repro.trace.store.TraceStore` up front, and generates, stores
    and drops each one missing, so by the time cells build their traces
    every store lookup is a hit and they merely memory-map the file.  The
    parent keeps none of them: a cell loads its trace when it runs, and
    the trace memo lets it go once later traces need the room.  Emits one
    ``trace_store_write`` (freshly generated) or ``trace_store_hit``
    (already stored) event per trace.

    Best-effort: a failure here (unwritable store, bad workload) is left
    for the owning cell to report as a normal cell failure.
    """
    from .trace.store import TraceStore

    store = TraceStore.from_env()
    if store is None:
        return
    from .workloads import catalog
    from .workloads.generator import SyntheticWorkload, trace_identity

    needed: dict[tuple[str, int | None], None] = {}
    for cell in pending:
        spec = cell.trace
        if spec.kind == "catalog":
            needed.setdefault((spec.name, spec.length), None)
        elif spec.kind == "mix":
            for member in spec.members:
                needed.setdefault((member, spec.length), None)
    for name, length in needed:
        try:
            resolved = length if length is not None else catalog.default_length(name)
            key = catalog.trace_digest(name, resolved)
            hit = store.path_for(key).exists()
            started = time.perf_counter()
            if not hit:
                params = catalog.get(name)
                store.get_or_create(
                    trace_identity(params, resolved),
                    lambda: SyntheticWorkload(params).generate(resolved),
                    mmap=False,
                )
        except Exception as exc:
            if log is not None:
                log.emit(
                    "trace_store_error",
                    name=name,
                    length=length,
                    error=type(exc).__name__,
                    message=str(exc),
                )
            continue
        if log is not None:
            log.emit(
                "trace_store_hit" if hit else "trace_store_write",
                name=name,
                length=resolved,
                key=key,
                path=str(store.path_for(key)),
                wall_seconds=time.perf_counter() - started,
            )


def run_campaign(
    cells: Iterable[CampaignCell] | Sequence[CampaignCell],
    workers: int | None = None,
    cache: ResultCache | str | Path | bool | None = None,
    progress: Callable[[CellOutcome], None] | None = None,
    *,
    raise_on_error: bool = False,
    retries: int | None = None,
    backoff: float | None = None,
    timeout: float | None = None,
    events: EventLog | str | Path | None = None,
    runner: Callable[[CampaignCell], CellResult] = run_cell,
) -> CampaignResult:
    """Execute a campaign: every cell, in parallel, memoized on disk.

    A failing cell does **not** abort the campaign: it is recorded as a
    failed :class:`CellOutcome` (see :attr:`CellOutcome.error`) while its
    siblings complete and are cached, so a re-run only re-executes the
    failures.

    Args:
        cells: the trace x configuration cells to run.
        workers: process count; defaults to ``REPRO_WORKERS`` or
            ``os.cpu_count()``.  1 means serial in-process execution.
        cache: result cache — a :class:`ResultCache`, a directory path,
            ``True`` to require ``REPRO_CACHE_DIR`` (``ValueError`` if
            unset), ``False`` to disable, or ``None`` to use
            ``REPRO_CACHE_DIR`` (no caching if unset).
        progress: optional callback invoked once per cell, in submission
            order, streamed as each outcome becomes available (failed
            outcomes included).  Exceptions raised by the callback are
            swallowed.
        raise_on_error: raise :class:`CampaignError` after collection if
            any cell failed (successes are still cached first).
        retries: transient-failure retries per cell; defaults to
            ``REPRO_RETRIES`` or 2.
        backoff: base backoff seconds between retries (capped exponential);
            defaults to ``REPRO_RETRY_BACKOFF`` or 0.1.
        timeout: per-cell wall-time limit in seconds, enforced on the
            process pool (not on in-process cells); defaults to
            ``REPRO_CELL_TIMEOUT`` (unset = no limit).
        events: JSONL event log — an :class:`EventLog`, a path, or
            ``None`` to use ``REPRO_EVENT_LOG`` (no log if unset).
        runner: the per-cell execution function (the fault-injection seam
            used by the tests; must be picklable for pool execution).

    Returns:
        A :class:`CampaignResult` whose outcomes are in submission order —
        deterministic and bit-identical across worker counts.

    Raises:
        CampaignError: with ``raise_on_error=True``, after all cells have
            been collected, if at least one failed.
    """
    from .service.backends import InlineBackend, PoolBackend
    from .service.scheduler import Scheduler, cell_event

    cells = list(cells)
    count = worker_count(workers)
    store = _resolve_cache(cache)
    started = time.perf_counter()
    keys = [cell_key(cell) for cell in cells]
    hits = [store.get(key) if store is not None else _MISS for key in keys]
    pending = [i for i, hit in enumerate(hits) if not isinstance(hit, CellResult)]
    serial = count == 1 or len(pending) <= 1
    scheduler = Scheduler(
        InlineBackend(capacity=1, runner=runner, blocking=True)
        if serial
        else PoolBackend(min(count, len(pending)), runner=runner),
        cache=store if store is not None else False,
        retries=retries,
        backoff=backoff,
        timeout=timeout,
        fallback=None if serial else InlineBackend(capacity=1, runner=runner),
    )
    log, owns_log = _resolve_events(events)

    outcomes: list[CellOutcome | None] = [None] * len(cells)
    reported = 0
    callback_failed = False

    def settle(index: int, source: str, payload, attempts: int) -> None:
        """Record one outcome; stream progress up to the first gap."""
        nonlocal reported, callback_failed
        cell, key = cells[index], keys[index]
        event, fields = cell_event(index, cell, key, source, payload, attempts)
        if log is not None:
            log.emit(event, **fields)
        ok = event == "cell_finished"
        outcomes[index] = CellOutcome(
            cell=cell,
            value=payload.value if ok else None,
            references=payload.references if ok else 0,
            wall_seconds=fields["wall_seconds"] if ok else 0.0,
            cached=ok and fields["cached"],
            key=key,
            error=None if ok else payload,
            attempts=max(1, attempts),
        )
        while (progress is not None and reported < len(outcomes)
               and outcomes[reported] is not None):
            outcome = outcomes[reported]
            reported += 1
            try:
                progress(outcome)
            except Exception as exc:
                # A broken callback must not corrupt the merge, but it
                # must not vanish either: log the first failure once.
                if log is not None and not callback_failed:
                    callback_failed = True
                    log.emit(
                        "callback_error",
                        label=outcome.label,
                        error=type(exc).__name__,
                        message=str(exc),
                    )

    async def resolve(index: int) -> None:
        emit = None
        if log is not None:
            emit = functools.partial(
                log.emit, label=cells[index].label, index=index, key=keys[index]
            )
        settle(index, *await scheduler.resolve(cells[index], keys[index], emit))

    async def execute() -> None:
        await scheduler.start()
        try:
            await asyncio.gather(*(resolve(index) for index in pending))
        finally:
            await scheduler.close()

    try:
        if log is not None:
            log.emit(
                "campaign_started",
                cells=len(cells),
                cached=len(cells) - len(pending),
                pending=len(pending),
                workers=count,
                retries=scheduler.retries,
                timeout=scheduler.timeout,
            )
        for index, hit in enumerate(hits):
            if isinstance(hit, CellResult):
                settle(index, "cache", hit, 0)
        if pending:
            _prime_trace_store([cells[index] for index in pending], log)
            _run_private_loop(execute())

        result = CampaignResult(
            outcomes=tuple(outcomes),
            wall_seconds=time.perf_counter() - started,
            workers=count,
        )
        if log is not None:
            log.emit(
                "campaign_finished",
                cells=result.cells,
                cached=result.cached_cells,
                simulated=result.simulated_cells,
                failed=result.failed_cells,
                retried=result.retried_cells,
                wall_seconds=result.wall_seconds,
                references=result.simulated_references,
                refs_per_second=result.references_per_second,
            )
    finally:
        if owns_log and log is not None:
            log.close()

    if raise_on_error and result.failed_cells:
        raise CampaignError(result)
    return result


def _run_private_loop(coroutine) -> None:
    """``asyncio.run`` — on a helper thread if this one already runs a
    loop (a notebook, say), where ``asyncio.run`` refuses to start."""
    try:
        asyncio.get_running_loop()
    except RuntimeError:
        asyncio.run(coroutine)
        return
    with ThreadPoolExecutor(max_workers=1) as helper:
        helper.submit(asyncio.run, coroutine).result()
