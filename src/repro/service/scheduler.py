"""The async campaign scheduler: submissions → deduped cells → backends.

This is the service-tier answer to the paper's methodology point — that
conclusions require *many* workloads — at many-users scale: overlapping
campaigns from independent clients must not multiply work.  The
scheduler achieves that with three layers of dedupe, all keyed by the
same content hashes the library tier already uses
(:func:`repro.core.jobs.cell_key`):

1. **Result cache** — a cell whose key is in the shared on-disk
   :class:`~repro.campaign.ResultCache` is served without executing
   anything (cross-run, cross-process, cross-host on shared storage).
2. **In-flight registry** — a cell already executing for *any* campaign
   in this scheduler is awaited, not re-submitted; every waiting cell
   receives the one result (and failures propagate to all of them).  A
   key listed twice in one campaign is resolved once, at its first cell.
3. **Cross-process claims** — with a shared cache directory, schedulers
   in different processes coordinate through atomic ``.claim`` files
   (``O_CREAT | O_EXCL``, the trace store's discipline): the first
   scheduler to claim a key runs it, the others poll the cache until the
   result lands.  A claim older than ``REPRO_SERVICE_CLAIM_TIMEOUT`` is
   presumed orphaned (its owner crashed) and is stolen.

Campaigns are admitted through the
:class:`~repro.service.queue.FairShareQueue` (priorities, per-user
quotas, fair-share start order) and executed with at most
``backend.capacity`` cells in flight.  This module owns a campaign's
whole lifecycle for both tiers: :func:`repro.campaign.run_campaign`
submits its cells here, exactly as the HTTP front end does, and runs
the campaign on a private event loop.  Each settled cell becomes one
:class:`~repro.campaign.CellOutcome`, whose ``source`` says *how* it was
satisfied: ``"run"`` (this campaign executed it), ``"cache"`` (served
from the result cache), or ``"shared"`` (joined an execution already in
flight, or the campaign's earlier cell of the same key).
:meth:`CampaignState.counts` is the one tally over those records, and
every campaign gets one replayable event stream
(``campaign_queued``, ``campaign_started``, ``cell_finished``,
``cell_failed``, ``campaign_finished``, …; ``docs/campaign.md``).
Counting ``cell_finished`` events with ``source == "run"`` across every
campaign of every scheduler sharing a cache directory therefore counts
*actual simulations* — the number the dedupe tests pin.

:meth:`Scheduler.resolve` takes a cell through the dedupe layers and,
when it must run it, owns the failure policy — retries of transient
failures (``OSError``, :class:`~repro.service.backends.BackendCrash`)
with capped exponential backoff (``REPRO_RETRIES``,
``REPRO_RETRY_BACKOFF``) and the per-cell timeout
(``REPRO_CELL_TIMEOUT``) on backends that can kill the vehicle a hung
cell runs on.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import os
import socket
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path

from ..campaign import CellOutcome, EventLog, ResultCache, _resolve_cache
from ..core.jobs import CampaignCell, CellError, CellResult, cell_key
from .backends import BackendCrash
from .queue import FairShareQueue, QueueEntry, QuotaExceeded
from .spec import summarize_value

__all__ = [
    "QUOTA_ENV",
    "ACTIVE_ENV",
    "CLAIM_TIMEOUT_ENV",
    "RETRIES_ENV",
    "BACKOFF_ENV",
    "CELL_TIMEOUT_ENV",
    "CampaignState",
    "Scheduler",
    "QuotaExceeded",
]

#: Per-user quota of outstanding campaigns (unset = unlimited).
QUOTA_ENV = "REPRO_SERVICE_QUOTA"
#: Campaigns allowed to run concurrently (default 4).
ACTIVE_ENV = "REPRO_SERVICE_ACTIVE"
#: Seconds before a foreign cell claim is presumed orphaned (default 300).
CLAIM_TIMEOUT_ENV = "REPRO_SERVICE_CLAIM_TIMEOUT"

#: Transient-failure retries per cell (default 2).
RETRIES_ENV = "REPRO_RETRIES"
#: Retry backoff base in seconds (default 0.1; 0 disables).
BACKOFF_ENV = "REPRO_RETRY_BACKOFF"
#: Per-cell running-time limit in seconds (unset = none).
CELL_TIMEOUT_ENV = "REPRO_CELL_TIMEOUT"

DEFAULT_ACTIVE = 4
DEFAULT_CLAIM_TIMEOUT = 300.0
DEFAULT_POLL = 0.05
DEFAULT_RETRIES = 2
#: Attempt n waits ``backoff * 2**(n-1)`` seconds, at most ``BACKOFF_CAP``.
DEFAULT_BACKOFF = 0.1
BACKOFF_CAP = 5.0

#: Campaign lifecycle statuses.
QUEUED, RUNNING, DONE, FAILED = "queued", "running", "done", "failed"
CANCELLED = "cancelled"
_TERMINAL = frozenset({DONE, FAILED, CANCELLED})


def _env_number(name: str, default, kind=float):
    value = os.environ.get(name)
    if not value:
        return default
    try:
        return kind(value)
    except ValueError:
        raise ValueError(
            f"{name} must be {'an integer' if kind is int else 'a number'}, "
            f"got {value!r}"
        ) from None


def _backoff_seconds(backoff: float, attempts: int) -> float:
    """Capped exponential backoff before retry number ``attempts``."""
    if backoff <= 0:
        return 0.0
    return min(BACKOFF_CAP, backoff * (2 ** (attempts - 1)))


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by another user
    return True


class _CellTimeout(Exception):
    """A dispatch outlived the per-cell timeout and its vehicle was killed."""


def _cell_event(index: int, outcome: CellOutcome) -> tuple[str, dict]:
    """The ``cell_finished`` / ``cell_failed`` record of one settled cell."""
    head = {"label": outcome.label, "index": index, "key": outcome.key,
            "source": outcome.source}
    if not outcome.ok:
        return "cell_failed", {
            **head,
            "error": outcome.error.type,
            "message": outcome.error.message,
            "attempts": outcome.attempts,
        }
    wall = outcome.wall_seconds
    return "cell_finished", {
        **head,
        "cached": outcome.cached,
        "wall_seconds": wall,
        "references": outcome.references,
        "refs_per_second": outcome.references / wall if wall > 0 else 0.0,
        "attempts": outcome.attempts,
    }


class _CellClaims:
    """Atomic per-key claim files under the shared result-cache directory.

    ``try_claim`` either creates ``<dir>/<k:2>/<key>.claim`` exclusively
    (we run the cell) or finds it held (someone else is running it —
    poll the cache).  A claim holds its owner's token, ``hostname pid
    uuid``, and ``release`` removes only a claim that still holds ours.
    Claims are advisory: an orphaned one is deleted and re-taken.  A
    claim is orphaned once it is older than ``timeout`` seconds, or
    at once when it names a process on this host that no longer exists,
    so a killed local run never stalls its rerun.
    """

    def __init__(self, directory: Path, timeout: float) -> None:
        self.directory = Path(directory)
        self.timeout = timeout
        self.host = socket.gethostname()
        self.token = f"{self.host} {os.getpid()} {uuid.uuid4().hex}"

    def _path(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.claim"

    def try_claim(self, key: str) -> bool:
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        while True:
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                if not self._orphaned(path):
                    return False
                try:  # steal it (gone already: race again)
                    path.unlink(missing_ok=True)
                except OSError:
                    return False
            else:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    handle.write(self.token + "\n")
                return True

    def _orphaned(self, path: Path) -> bool:
        try:
            if time.time() - path.stat().st_mtime > self.timeout:
                return True
            owner = path.read_text(encoding="utf-8", errors="replace").split()
        except FileNotFoundError:
            return True  # released since the open
        except OSError:
            return False
        return (
            len(owner) == 3
            and owner[0] == self.host
            and owner[1].isdigit()
            and not _pid_alive(int(owner[1]))
        )

    def release(self, key: str) -> None:
        path = self._path(key)
        try:
            if path.read_text(encoding="utf-8").strip() == self.token:
                path.unlink()
        except OSError:
            pass


@dataclass
class CampaignState:
    """Everything the service knows about one submitted campaign."""

    id: str
    user: str
    priority: int
    cells: list[CampaignCell]
    keys: list[str]
    entry: QueueEntry
    status: str = QUEUED
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    outcomes: list[CellOutcome | None] = field(default_factory=list)
    events: list[dict] = field(default_factory=list)
    cancel_requested: bool = False

    def __post_init__(self) -> None:
        if not self.outcomes:
            self.outcomes = [None] * len(self.cells)

    @property
    def done(self) -> bool:
        return self.status in _TERMINAL

    def counts(self) -> dict:
        """The one tally of a campaign's settled cells, for both tiers.

        ``cached``, ``shared`` and ``simulated`` count successful cells
        by ``source``, so with ``failed`` they sum to ``finished``;
        ``references`` and ``refs_per_second`` cover the simulated cells
        over the campaign's wall time so far.
        """
        finished = [o for o in self.outcomes if o is not None]
        served = [o.source for o in finished if o.ok]
        references = sum(o.references for o in finished if o.ok and not o.cached)
        wall = 0.0
        if self.started_at is not None:
            wall = (self.finished_at or time.time()) - self.started_at
        return {
            "cells": len(self.cells),
            "finished": len(finished),
            "failed": len(finished) - len(served),
            "cached": served.count("cache"),
            "shared": served.count("shared"),
            "simulated": served.count("run"),
            "retried": sum(1 for o in finished if o.attempts > 1),
            "references": references,
            "wall_seconds": wall,
            "refs_per_second": references / wall if references and wall > 0 else 0.0,
        }

    def describe(self, *, results: bool = True) -> dict:
        """The status document ``GET /campaigns/{id}`` returns."""
        doc = {
            "id": self.id,
            "user": self.user,
            "priority": self.priority,
            "status": self.status,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            **self.counts(),
        }
        if results and self.done:
            doc["results"] = [
                {**_cell_event(index, outcome)[1], "ok": outcome.ok,
                 "value": summarize_value(outcome.value) if outcome.ok else None}
                for index, outcome in enumerate(self.outcomes)
                if outcome is not None
            ]
        return doc


class Scheduler:
    """Async campaign scheduler over a pluggable execution backend.

    Args:
        backend: a started-or-startable backend from
            :mod:`repro.service.backends`; first used by :meth:`start`,
            so it (and ``fallback``) may be replaced until then.
        cache: shared result-cache directory (or a
            :class:`~repro.campaign.ResultCache`); ``None`` falls back to
            ``REPRO_CACHE_DIR``, and unset or ``False`` disables caching
            *and* cross-process claims.
        quota: per-user outstanding-campaign quota
            (default ``REPRO_SERVICE_QUOTA``; unset = unlimited).
        max_active: campaigns run concurrently
            (default ``REPRO_SERVICE_ACTIVE`` or 4).
        events: optional scheduler-global event sink — a
            :class:`~repro.campaign.EventLog`, a path, or any object with
            ``emit(event, **fields)`` and ``close()`` — that additionally
            receives every campaign's events with a ``campaign`` field
            attached.
        poll: seconds between cache polls while a foreign process holds
            a cell's claim (default 0.05).
        retries / backoff: transient-failure retries per cell and the
            backoff base in seconds (default ``REPRO_RETRIES`` or 2,
            ``REPRO_RETRY_BACKOFF`` or 0.1).
        timeout: per-cell running-time limit in seconds (default
            ``REPRO_CELL_TIMEOUT``; unset = none), enforced on backends
            whose ``preemptible`` flag says cancelling ``run`` kills the
            cell's vehicle.  An inline cell cannot be preempted.
        fallback: a backend that runs a cell once more after its retries
            on ``backend`` all ended in :class:`BackendCrash`.  Local
            campaigns pass an in-process one, so a cell whose worker
            keeps dying still finishes; the service passes none and never
            runs a cell in its own process.
    """

    def __init__(
        self,
        backend,
        *,
        cache: ResultCache | str | Path | bool | None = None,
        quota: int | None = None,
        max_active: int | None = None,
        events: EventLog | str | Path | None = None,
        poll: float = DEFAULT_POLL,
        retries: int | None = None,
        backoff: float | None = None,
        timeout: float | None = None,
        fallback=None,
    ) -> None:
        self.backend = backend
        self.fallback = fallback
        self.cache = _resolve_cache(cache)
        if retries is None:
            retries = _env_number(RETRIES_ENV, DEFAULT_RETRIES, int)
        if backoff is None:
            backoff = _env_number(BACKOFF_ENV, DEFAULT_BACKOFF)
        if timeout is None:
            timeout = _env_number(CELL_TIMEOUT_ENV, None)
        self.retries, self.backoff, self.timeout = retries, backoff, timeout
        if quota is None:
            env = os.environ.get(QUOTA_ENV)
            quota = int(env) if env else None
        self.queue = FairShareQueue(quota=quota)
        self.max_active = int(
            max_active
            if max_active is not None
            else _env_number(ACTIVE_ENV, DEFAULT_ACTIVE)
        )
        self.poll = poll
        self.claims = (
            _CellClaims(
                self.cache.directory,
                _env_number(CLAIM_TIMEOUT_ENV, DEFAULT_CLAIM_TIMEOUT),
            )
            if self.cache is not None
            else None
        )
        if isinstance(events, (str, Path)):
            events = EventLog(events)
        self.log = events
        self.campaigns: dict[str, CampaignState] = {}
        self._inflight: dict[str, asyncio.Future] = {}
        self._slots: asyncio.Semaphore | None = None
        # Event objects stopped binding a loop at construction in 3.10,
        # so these can be created eagerly, before any loop runs.
        self._wakeup = asyncio.Event()
        self._event_signal = asyncio.Event()
        self._loop_task: asyncio.Task | None = None
        self._campaign_tasks: set[asyncio.Task] = set()
        self._running_tasks: dict[str, asyncio.Task] = {}
        self._active = 0
        self._seq = itertools.count(1)
        self.started_at = time.time()

    # ------------------------- lifecycle -------------------------

    async def start(self) -> None:
        """Start the backend and the queue-draining loop."""
        self._slots = asyncio.Semaphore(max(1, self.backend.capacity))
        await self.backend.start()
        if self.fallback is not None:
            await self.fallback.start()
        self._loop_task = asyncio.create_task(self._drain_queue())

    async def close(self) -> None:
        """Stop draining, cancel running campaigns, shut the backend down."""
        if self._loop_task is not None:
            self._loop_task.cancel()
            try:
                await self._loop_task
            except (asyncio.CancelledError, Exception):
                pass
            self._loop_task = None
        for task in list(self._campaign_tasks):
            task.cancel()
        if self._campaign_tasks:
            await asyncio.gather(*self._campaign_tasks, return_exceptions=True)
        await self.backend.close()
        if self.fallback is not None:
            await self.fallback.close()
        if self.log is not None:
            self.log.close()

    # ------------------------- submission -------------------------

    def submit(
        self,
        cells: list[CampaignCell],
        *,
        user: str = "anonymous",
        priority: int = 0,
    ) -> CampaignState:
        """Admit one campaign; raises :class:`QuotaExceeded` over quota.

        Computes each cell's key, once: a cell without one (a file trace
        whose path is missing, say) raises here and admits nothing.  Call
        it on the scheduler's event loop once that runs (the HTTP layer
        does), or before :meth:`start`; returns immediately with the
        queued :class:`CampaignState`.
        """
        if not cells:
            raise ValueError("a campaign needs at least one cell")
        keys = [cell_key(cell) for cell in cells]
        campaign_id = f"c{next(self._seq):06d}-{uuid.uuid4().hex[:8]}"
        entry = self.queue.submit(
            campaign_id, user, priority=priority, weight=len(cells)
        )
        state = CampaignState(
            id=campaign_id,
            user=user,
            priority=priority,
            cells=list(cells),
            keys=keys,
            entry=entry,
        )
        self.campaigns[campaign_id] = state
        self._emit(
            state,
            "campaign_queued",
            user=user,
            priority=priority,
            cells=len(cells),
        )
        self._wakeup.set()
        return state

    def get(self, campaign_id: str) -> CampaignState | None:
        return self.campaigns.get(campaign_id)

    def cancel(self, campaign_id: str) -> bool:
        """Cancel a queued or running campaign; False if already terminal.

        Queued campaigns are pulled out of the fair-share queue and
        finalized on the spot; running ones have their task cancelled and
        the ``CancelledError`` path finalizes them as ``cancelled``
        (rather than ``failed``) because ``cancel_requested`` is set.
        Returns ``True`` when this call initiated a cancellation.
        """
        state = self.campaigns.get(campaign_id)
        if state is None:
            raise KeyError(campaign_id)
        if state.done:
            return False
        state.cancel_requested = True
        self._emit(state, "campaign_cancelled", status=state.status,
                   user=state.user)
        if state.status == QUEUED:
            if self.queue.cancel(campaign_id):
                self._finish(state, CANCELLED)
                self._wakeup.set()
            # else: popped from the queue but its task has not started
            # yet — ``cancel_requested`` makes ``_run_campaign`` finalize
            # it (with the queue/slot bookkeeping) on its first tick.
            return True
        task = self._running_tasks.get(campaign_id)
        if task is not None:
            task.cancel()
        return True

    def describe(self) -> dict:
        """Service-level status (the ``/healthz`` document)."""
        return {
            "status": "ok",
            "backend": getattr(self.backend, "name", type(self.backend).__name__),
            "capacity": self.backend.capacity,
            "respawns": getattr(self.backend, "respawns", 0),
            "campaigns": len(self.campaigns),
            "queued": len(self.queue),
            "active": self._active,
            "cache": str(self.cache.directory) if self.cache is not None else None,
            "uptime_seconds": time.time() - self.started_at,
        }

    # --------------------------- events ---------------------------

    def _finish(self, state: CampaignState, status: str, **fields) -> None:
        """Make a campaign terminal: its one ``campaign_finished`` event."""
        state.status = status
        state.finished_at = time.time()
        self._emit(state, "campaign_finished", status=status, **fields,
                   **state.counts())

    def _emit(self, state: CampaignState, event: str, **fields) -> None:
        record = {"event": event, "time": time.time(), **fields}
        state.events.append(record)
        if self.log is not None:
            self.log.emit(event, campaign=state.id, **fields)
        # Wake every subscriber by retiring the current signal object.
        # Streamers grab a reference *before* scanning the event list, so
        # an event appended after their scan has already set the signal
        # they hold — no lost wakeups, no condition-variable dance.
        signal, self._event_signal = self._event_signal, asyncio.Event()
        signal.set()

    async def stream_events(self, state: CampaignState):
        """Yield a campaign's events: full replay, then live until terminal.

        Every subscriber gets the identical sequence regardless of when
        it connected — late joiners replay history first (the SSE replay
        semantics the HTTP layer exposes).
        """
        position = 0
        while True:
            signal = self._event_signal
            while position < len(state.events):
                yield state.events[position]
                position += 1
            if state.done:
                return
            await signal.wait()

    # ------------------------ the run loop ------------------------

    async def _drain_queue(self) -> None:
        while True:
            await self._wakeup.wait()
            self._wakeup.clear()
            while len(self.queue) and self._active < self.max_active:
                entry = self.queue.pop()
                state = self.campaigns[entry.campaign_id]
                self.queue.started(entry)
                self._active += 1
                task = asyncio.create_task(self._run_campaign(state))
                self._campaign_tasks.add(task)
                self._running_tasks[state.id] = task
                task.add_done_callback(self._campaign_tasks.discard)
                task.add_done_callback(
                    lambda _t, cid=state.id: self._running_tasks.pop(cid, None)
                )

    async def _run_campaign(self, state: CampaignState) -> None:
        if state.cancel_requested:
            # Cancelled in the gap between the queue pop and this task
            # starting: finalize without running a single cell.
            self._finish(state, CANCELLED)
            self.queue.finished(state.entry)
            self._active -= 1
            self._wakeup.set()
            return
        state.status = RUNNING
        state.started_at = time.time()
        self._emit(
            state,
            "campaign_started",
            cells=len(state.cells),
            workers=self.backend.capacity,
            user=state.user,
            retries=self.retries,
            timeout=self.timeout,
        )
        # A key listed twice is resolved once; its later cells share it.
        twins: dict[str, list[int]] = {}
        for index, key in enumerate(state.keys):
            twins.setdefault(key, []).append(index)
        try:
            await asyncio.gather(
                *(self._resolve_cell(state, indices) for indices in twins.values())
            )
        except asyncio.CancelledError:
            self._finish(state, CANCELLED if state.cancel_requested else FAILED)
            raise
        except Exception as exc:  # defensive: a bug must not hang clients
            self._finish(state, FAILED, error=type(exc).__name__,
                         message=str(exc))
        else:
            self._finish(state, DONE)
        finally:
            self.queue.finished(state.entry)
            self._active -= 1
            if self._wakeup is not None:
                self._wakeup.set()

    # ------------------------- cell dedupe -------------------------

    async def _resolve_cell(self, state: CampaignState, indices: list[int]) -> None:
        """Settle one key's cells into :class:`CellOutcome` records: the
        first as :meth:`resolve` settles it, its twins as ``shared``."""
        cell, key = state.cells[indices[0]], state.keys[indices[0]]
        emit = functools.partial(
            self._emit, state, label=cell.label, index=indices[0], key=key
        )
        source, payload, attempts = await self.resolve(cell, key, emit)
        ok = not isinstance(payload, CellError)
        for index in indices:
            outcome = CellOutcome(
                cell=state.cells[index],
                value=payload.value if ok else None,
                references=payload.references if ok else 0,
                wall_seconds=payload.wall_seconds if ok and source == "run" else 0.0,
                source=source,
                key=key,
                error=None if ok else payload,
                attempts=attempts,
            )
            state.outcomes[index] = outcome
            event, fields = _cell_event(index, outcome)
            self._emit(state, event, **fields)
            source, attempts = "shared", 0

    async def resolve(self, cell: CampaignCell, key: str, emit=None):
        """Settle one cell: ``(source, CellResult | CellError, attempts)``.

        Order of escalation: result cache → in-flight future → foreign
        claim (poll the cache) → execute on the backend.  ``attempts`` is
        0 unless this call executed the cell.  ``emit(event, **fields)``,
        when given, receives the execution events of a cell this call
        runs: ``cell_retried``, ``pool_terminated`` and
        ``serial_fallback``.
        """
        while True:
            if self.cache is not None:
                hit = self.cache.get(key)
                if isinstance(hit, CellResult):
                    return "cache", hit, 0
            future = self._inflight.get(key)
            if future is not None:
                payload = await asyncio.shield(future)
                return "shared", payload, 0
            if self.claims is not None and not self.claims.try_claim(key):
                # Another process owns this key: poll until its result
                # lands in the shared cache (or the claim goes stale).
                await asyncio.sleep(self.poll)
                continue
            try:
                payload, attempts = await self._execute(
                    cell, key, emit or _ignore
                )
                return "run", payload, attempts
            finally:
                if self.claims is not None:
                    self.claims.release(key)

    async def _execute(self, cell: CampaignCell, key: str, emit):
        future = asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        try:
            payload, attempts = await self._attempt(cell, emit)
            if self.cache is not None and isinstance(payload, CellResult):
                self.cache.put(key, payload)
        except BaseException as exc:
            if not future.done():
                future.set_exception(exc)
                # Consume the exception if nobody awaited the future.
                future.exception()
            raise
        finally:
            self._inflight.pop(key, None)
        future.set_result(payload)
        return payload, attempts

    async def _attempt(self, cell: CampaignCell, emit):
        """Run a cell until it settles: retries, timeout, fallback."""
        backend, attempts = self.backend, 0
        while True:
            attempts += 1
            try:
                async with self._slots:
                    return await self._dispatch(backend, cell), attempts
            except _CellTimeout:
                emit("pool_terminated", reason="cell_timeout",
                     backend=backend.name, timeout=self.timeout)
                return CellError(
                    type="TimeoutError",
                    message=(
                        f"cell exceeded the {self.timeout:g}s per-cell "
                        f"timeout ({CELL_TIMEOUT_ENV})"
                    ),
                    traceback="",
                ), attempts
            except Exception as exc:
                error = CellError.from_exception(exc)
                if not isinstance(exc, (OSError, BackendCrash)):
                    return error, attempts
                if attempts <= self.retries:
                    pause = _backoff_seconds(self.backoff, attempts)
                    emit("cell_retried", error=error.type,
                         message=error.message, attempt=attempts,
                         backoff_seconds=pause)
                    if pause:
                        await asyncio.sleep(pause)
                    continue
                if (isinstance(exc, BackendCrash) and self.fallback is not None
                        and backend is not self.fallback):
                    emit("serial_fallback", attempts=attempts)
                    backend = self.fallback
                    continue
                return error, attempts

    async def _dispatch(self, backend, cell: CampaignCell) -> CellResult:
        """One execution, bounded by the timeout where ``backend`` can be."""
        if self.timeout is None or not getattr(backend, "preemptible", False):
            return await backend.run(cell)
        run = asyncio.ensure_future(backend.run(cell))
        try:
            done, _ = await asyncio.wait({run}, timeout=self.timeout)
        except asyncio.CancelledError:
            run.cancel()
            raise
        if run not in done:
            run.cancel()  # a preemptible backend kills the cell's vehicle
            await asyncio.gather(run, return_exceptions=True)
            raise _CellTimeout
        return run.result()


def _ignore(event: str, **fields) -> None:
    return None
