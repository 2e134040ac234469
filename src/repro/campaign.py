"""The campaign runner: parallel trace x configuration sweeps with an
on-disk result cache, failure isolation, and structured observability.

The paper's experiments are *campaigns* — the same simulator applied to
dozens of traces across dozens of configurations (49 traces x 12 sizes for
Table 1 alone).  Every cell is independent, so the natural execution model
is a process pool:

* :func:`run_campaign` submits an iterable of
  :class:`~repro.core.jobs.CampaignCell` to the campaign service's
  scheduler (:class:`~repro.service.scheduler.Scheduler`) and waits on
  a private event loop for it to finish: local and served campaigns
  share one lifecycle, one outcome record and one event schema.  The
  worker count comes from ``os.cpu_count()``, overridable with
  ``REPRO_WORKERS`` (or ``workers=``); one worker, or at most one cell
  missing from the result cache, runs cells in-process, which is what
  you want under a debugger, and more run them on a process pool.
* Results are merged **in submission order**, so a campaign's output is
  bit-identical no matter how many workers ran it or in which order the
  cells finished.  A cell listed twice runs once; its twin's
  :attr:`CellOutcome.source` is ``"shared"``.
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
  ``backoff=``) and fails a cell that outlives ``REPRO_CELL_TIMEOUT`` /
  ``timeout=`` with ``TimeoutError``: with a limit set, cells run on pool
  workers even when serial; see ``docs/campaign.md``.  Without a limit,
  a cell whose worker keeps dying runs once more in-process.
* **Observability** — the ``progress`` callback streams in submission
  order as outcomes become known, and every lifecycle step can be
  appended to a JSONL event log (:class:`EventLog`, ``events=`` /
  ``REPRO_EVENT_LOG``): ``trace_store_write`` / ``trace_store_hit``
  (shared trace-store priming, see below), then the scheduler's
  ``campaign_queued``, ``campaign_started``, ``cell_finished``,
  ``cell_retried``, ``cell_failed`` and ``campaign_finished``.
* **Shared trace store** — with ``REPRO_TRACE_STORE=<dir>`` (or
  ``--trace-store`` on the CLI) the parent process generates every
  distinct catalog trace referenced by the cells exactly once,
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
import json
import os
import pickle
import tempfile
import time
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

# ``cell_key`` is imported so that ``repro.campaign.cell_key`` stays reachable.
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

    def __contains__(self, key: str) -> bool:
        """Whether ``key`` has an entry (a stat: it may still prove unreadable)."""
        return self._path(key).exists()

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
    """One campaign cell plus everything its settlement produced.

    Attributes:
        cell: the cell specification.
        value: the job payload (report or miss-ratio tuple); ``None`` for
            a failed cell.
        references: references replayed by the cell (0 for a failure).
        wall_seconds: execution wall time (0.0 unless ``source == "run"``).
        source: how the cell was satisfied: ``"run"`` (executed),
            ``"cache"`` (the result cache) or ``"shared"`` (another
            execution of the same key, in flight or earlier in the
            campaign).
        key: the cell's content-hash cache key.
        error: why the cell failed, or ``None`` on success.
        attempts: execution attempts made (0 unless ``source == "run"``).
    """

    cell: CampaignCell
    value: object
    references: int
    wall_seconds: float
    source: str
    key: str
    error: CellError | None = None
    attempts: int = 0

    @property
    def label(self) -> str:
        """The cell's display label."""
        return self.cell.label

    @property
    def ok(self) -> bool:
        """True iff the cell produced a value (cached or simulated)."""
        return self.error is None

    @property
    def cached(self) -> bool:
        """True iff this campaign did not execute the cell itself."""
        return self.source != "run"


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


def _count(name: str, doc: str) -> property:
    """A :class:`CampaignResult` counter: one entry of its ``counts``."""
    return property(lambda self: self.counts[name], doc=doc)


@dataclass(frozen=True)
class CampaignResult:
    """All cell outcomes of one campaign, in submission order, and the
    scheduler's tally of them (:meth:`CampaignState.counts
    <repro.service.scheduler.CampaignState.counts>`)."""

    outcomes: tuple[CellOutcome, ...]
    workers: int
    counts: dict

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

    cells = _count("cells", "Total number of cells.")
    cached_cells = _count("cached", "Cells served from the result cache.")
    shared_cells = _count("shared", "Cells sharing another execution of their key.")
    failed_cells = _count("failed", "Cells that ended in a failure.")
    retried_cells = _count("retried", "Cells that needed more than one attempt.")
    simulated_cells = _count("simulated", "Cells this campaign executed successfully.")
    simulated_references = _count(
        "references", "References replayed by the simulated cells."
    )
    wall_seconds = _count("wall_seconds", "Campaign wall time, start to last cell.")
    references_per_second = _count(
        "refs_per_second",
        "Throughput of the simulated cells over the campaign's wall time, so "
        "the *parallel* throughput the user observed (0.0 if none ran).",
    )

    def summary(self) -> str:
        """Human-readable per-campaign accounting."""
        counts = (
            f"({self.cached_cells} cached, "
            + (f"{self.shared_cells} shared, " if self.shared_cells else "")
            + f"{self.simulated_cells} simulated"
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


def _prime_trace_store(cells: list[CampaignCell], log: EventLog | None) -> None:
    """Make sure each distinct catalog trace is in the store, before the fan-out.

    With ``REPRO_TRACE_STORE`` set, N cells over one workload must cost one
    generation, not N: the parent checks every distinct catalog
    ``(name, length)`` referenced by the cells against the shared
    :class:`~repro.trace.store.TraceStore` up front, and generates, stores
    and drops each one missing, so by the time cells build their traces
    every store lookup is a hit and they merely memory-map the file.  The
    parent keeps none of them: a cell loads its trace when it runs, and
    the trace memo lets it go once later traces need the room.  Emits one
    ``trace_store_write`` (freshly generated) or ``trace_store_hit``
    (already stored) event per trace.  :func:`run_campaign` passes only
    the cells missing from its result cache.

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
    for cell in cells:
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
            ``os.cpu_count()``.  1 means serial execution, in-process
            unless a timeout is set.
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
        timeout: per-cell wall-time limit in seconds; defaults to
            ``REPRO_CELL_TIMEOUT`` (unset = no limit).  With a limit set,
            every cell missing from the result cache runs on a process
            pool (one worker when serial) so that it can be stopped, and
            a cell whose worker keeps dying fails rather than running
            once more in this process.
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
    from .service.scheduler import Scheduler

    cells = list(cells)
    count = worker_count(workers)
    log, owns_log = _resolve_events(events)
    feed = _Feed(log, progress)

    async def execute(scheduler, state):
        await scheduler.start()
        try:
            async for _ in scheduler.stream_events(state):
                pass
        finally:
            await scheduler.close()

    try:
        # One private campaign: no service quota or admission limit applies.
        scheduler = Scheduler(
            InlineBackend(capacity=1, runner=runner, blocking=True),
            cache=cache,
            quota=1,
            max_active=1,
            events=feed,
            retries=retries,
            backoff=backoff,
            timeout=timeout,
        )
        state = scheduler.submit(cells)
        feed.outcomes = state.outcomes
        # Only cells missing from the result cache need a pool or a trace.
        misses = {
            key: cell for key, cell in zip(state.keys, cells)
            if scheduler.cache is None or key not in scheduler.cache
        }
        # A timeout can only stop a cell on a pool worker, so a bounded
        # campaign runs every cache miss there, serial ones included, and
        # never falls back to running a cell in this process.
        bounded = scheduler.timeout is not None
        if misses and (bounded or (count > 1 and len(misses) > 1)):
            scheduler.backend = PoolBackend(min(count, len(misses)), runner=runner)
            if not bounded:
                scheduler.fallback = InlineBackend(capacity=1, runner=runner)
        _prime_trace_store(list(misses.values()), log)
        _run_private_loop(execute(scheduler, state))
    finally:
        if owns_log and log is not None:
            log.close()

    if state.status != "done":
        finished = next(e for e in state.events if e["event"] == "campaign_finished")
        raise RuntimeError(
            f"campaign {state.status}: {finished.get('error')}: "
            f"{finished.get('message')}"
        )
    result = CampaignResult(tuple(state.outcomes), count, state.counts())
    if raise_on_error and result.failed_cells:
        raise CampaignError(result)
    return result


class _Feed:
    """A local campaign's sink for its scheduler's events.

    Each event goes to the campaign's own log (without the scheduler's
    ``campaign`` id), and each settled cell advances ``progress`` over the
    outcomes in submission order, up to the first cell still unsettled.
    """

    def __init__(self, log: EventLog | None, progress) -> None:
        self.log = log
        self.progress = progress
        self.outcomes: list[CellOutcome | None] = []
        self.reported = 0
        self.callback_failed = False

    def emit(self, event: str, campaign=None, **fields) -> None:
        if self.log is not None:
            self.log.emit(event, **fields)
        while (self.progress is not None and self.reported < len(self.outcomes)
               and self.outcomes[self.reported] is not None):
            outcome = self.outcomes[self.reported]
            self.reported += 1
            try:
                self.progress(outcome)
            except Exception as exc:
                # A broken callback must not corrupt the merge, but it
                # must not vanish either: log the first failure once.
                if self.log is not None and not self.callback_failed:
                    self.callback_failed = True
                    self.log.emit(
                        "callback_error",
                        label=outcome.label,
                        error=type(exc).__name__,
                        message=str(exc),
                    )

    def close(self) -> None:
        pass  # the campaign's log outlives its scheduler


def _run_private_loop(coroutine):
    """``asyncio.run`` — on a helper thread if this one already runs a
    loop (a notebook, say), where ``asyncio.run`` refuses to start."""
    try:
        asyncio.get_running_loop()
    except RuntimeError:
        return asyncio.run(coroutine)
    with ThreadPoolExecutor(max_workers=1) as helper:
        return helper.submit(asyncio.run, coroutine).result()
