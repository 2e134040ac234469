"""Pluggable execution backends for the campaign scheduler.

The scheduler never executes a cell itself; it awaits
``backend.run(cell)`` on whatever :class:`Backend` it was built with.
A backend owns *where* cells run — the scheduler owns dedupe, caching,
retries, timeouts, quotas, and event streams, so every backend gets
those for free.

Two stdlib-only backends ship:

* :class:`InlineBackend` — runs cells on threads inside the calling
  process.  Zero startup cost; the right choice for tests, debugging,
  tiny traces, and a local campaign on one worker (the simulation
  kernels release little of the GIL, so its parallelism is nominal).
* :class:`PoolBackend` — N one-process ``ProcessPoolExecutor`` workers
  behind an idle queue, one cell per worker at a time; local campaigns
  on more than one worker run on it too.  Workers are independent: one
  that dies loses only its own cell and is replaced.

Both expose ``capacity`` (concurrent cells the scheduler should keep in
flight), are started with ``await backend.start()`` and torn down with
``await backend.close()``.  A cell whose *execution vehicle* died (not
the cell's own exception) raises :class:`BackendCrash`; the scheduler
retries it and, if it keeps dying, records a failed outcome rather than
hanging.  A backend whose ``preemptible`` flag is set kills a cell's
vehicle when its ``run`` is cancelled, which is how the scheduler
enforces the per-cell timeout.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from ..campaign import worker_count
from ..core.jobs import CampaignCell, CellResult, run_cell

__all__ = [
    "BackendCrash",
    "InlineBackend",
    "PoolBackend",
]


class BackendCrash(RuntimeError):
    """The execution vehicle died under a cell (its worker was killed)."""


class InlineBackend:
    """Run cells inside the calling process (cannot preempt).

    Cells run on threads, so the event loop stays responsive.  With
    ``blocking=True`` a cell runs on the loop's own thread and blocks it
    instead: only for a private loop that serves one campaign, as in
    :func:`repro.campaign.run_campaign`, whose serial campaigns thereby
    run wholly on the caller's thread — where a debugger expects them,
    and without a second malloc arena holding memory the first freed.
    """

    name = "inline"
    preemptible = False

    def __init__(
        self, capacity: int = 1, runner=run_cell, *, blocking: bool = False
    ) -> None:
        self.capacity = max(1, capacity)
        self._runner = runner
        self._blocking = blocking

    async def start(self) -> None:
        return None

    async def run(self, cell: CampaignCell) -> CellResult:
        if self._blocking:
            return self._runner(cell)
        return await asyncio.to_thread(self._runner, cell)

    async def close(self) -> None:
        return None


class PoolBackend:
    """``capacity`` one-process ``ProcessPoolExecutor`` workers.

    ``workers=None`` resolves exactly like the campaign runner
    (``REPRO_WORKERS``, then CPU count).  An idle queue hands each cell
    to a free executor, so a worker's death breaks only its own
    executor: the cell it ran raises :class:`BackendCrash` and the
    executor is replaced.  A running cell cannot be withdrawn from an
    executor, so cancelling its ``run`` terminates that one worker.
    """

    name = "pool"
    preemptible = True

    def __init__(self, workers: int | None = None, runner=run_cell) -> None:
        self.capacity = worker_count(workers)
        self._runner = runner
        self._idle: asyncio.Queue[ProcessPoolExecutor] = asyncio.Queue()
        self._workers: list[ProcessPoolExecutor] = []
        #: Executors replaced after a crash or a kill (``/healthz``).
        self.respawns = 0

    def _spawn(self) -> None:
        executor = ProcessPoolExecutor(max_workers=1)
        self._workers.append(executor)
        self._idle.put_nowait(executor)

    async def start(self) -> None:
        while len(self._workers) < self.capacity:
            self._spawn()

    async def run(self, cell: CampaignCell) -> CellResult:
        if not self._workers:
            await self.start()
        executor = await self._idle.get()
        healthy = True
        try:
            future = executor.submit(self._runner, cell)
            return await asyncio.wrap_future(future)
        except BrokenProcessPool as exc:
            healthy = False
            raise BackendCrash(
                f"pool worker died under cell {cell.label!r}: "
                f"{exc or type(exc).__name__}"
            ) from exc
        except asyncio.CancelledError:
            if not future.cancel() and not future.done():
                healthy = False
                for process in list((executor._processes or {}).values()):
                    process.terminate()
            raise
        finally:
            self._check_in(executor, healthy)

    def _check_in(self, executor: ProcessPoolExecutor, healthy: bool) -> None:
        """Return a worker to the idle queue, or replace a dead one."""
        if executor not in self._workers:
            return  # closed under this cell
        if healthy:
            self._idle.put_nowait(executor)
            return
        self._workers.remove(executor)
        executor.shutdown(wait=False)
        self.respawns += 1
        self._spawn()

    async def close(self) -> None:
        executors, self._workers = self._workers, []
        self._idle = asyncio.Queue()
        for executor in executors:
            executor.shutdown(wait=True, cancel_futures=True)

