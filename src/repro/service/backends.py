"""Pluggable execution backends for the campaign scheduler.

The scheduler never executes a cell itself; it awaits
``backend.run(cell)`` on whatever :class:`Backend` it was built with.
A backend owns *where* cells run — the scheduler owns dedupe, caching,
retries, timeouts, quotas, and event streams, so every backend gets
those for free.

Three stdlib-only backends ship:

* :class:`InlineBackend` — runs cells on threads inside the calling
  process.  Zero startup cost; the right choice for tests, debugging,
  tiny traces, and a local campaign on one worker (the simulation
  kernels release little of the GIL, so its parallelism is nominal).
* :class:`PoolBackend` — a ``ProcessPoolExecutor`` with
  one-cell-at-a-time dispatch; local campaigns on more than one worker
  run on it too.  A worker crash breaks the whole executor, so the
  backend replaces the pool and fails only the cells that were in
  flight.
* :class:`SubprocessFleetBackend` — N long-lived worker processes
  (``python -m repro.service.worker``) pulling cells over stdin/stdout
  pipes (length-prefixed pickle frames).  Workers are independent: one
  crashing loses only its own cell and is respawned, which makes this
  the resilient choice for long-running services.  A worker takes no
  cell until it reports ready, so start-up never counts against a
  cell's timeout.

All backends expose ``capacity`` (concurrent cells the scheduler should
keep in flight), are started with ``await backend.start()`` and torn
down with ``await backend.close()``.  A cell whose *execution vehicle*
died (not the cell's own exception) raises :class:`BackendCrash`; the
scheduler retries it and, if it keeps dying, records a failed outcome
rather than hanging.  A backend whose ``preemptible`` flag is set kills
a cell's vehicle when its ``run`` is cancelled, which is how the
scheduler enforces the per-cell timeout; a sibling killed along with it
raises :class:`CellPreempted` and is re-dispatched.
"""

from __future__ import annotations

import asyncio
import os
import pickle
import struct
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from ..campaign import worker_count
from ..core.jobs import CampaignCell, CellError, CellResult, run_cell
from .worker import MAX_FRAME_BYTES, READY

__all__ = [
    "BackendCrash",
    "CellExecutionError",
    "CellPreempted",
    "InlineBackend",
    "PoolBackend",
    "SubprocessFleetBackend",
    "create_backend",
    "BACKENDS",
]

_HEADER = struct.Struct(">Q")


class BackendCrash(RuntimeError):
    """The execution vehicle died under a cell (worker killed, pool broken)."""


class CellPreempted(BackendCrash):
    """The vehicle was killed on purpose, to stop another cell that hung."""


class CellExecutionError(RuntimeError):
    """A cell raised inside a fleet worker; carries the structured error."""

    def __init__(self, error: CellError) -> None:
        super().__init__(str(error))
        self.error = error


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
    """A ``ProcessPoolExecutor``, one cell per ``run``.

    ``workers=None`` resolves exactly like the campaign runner
    (``REPRO_WORKERS``, then CPU count).  ``BrokenProcessPool`` takes
    down every in-flight future at once; each affected cell surfaces as
    :class:`BackendCrash` and the pool is rebuilt for subsequent cells.
    A running cell cannot be withdrawn from a pool, so cancelling its
    ``run`` terminates the pool's workers; the siblings that die with
    them raise :class:`CellPreempted`.
    """

    name = "pool"
    preemptible = True

    def __init__(self, workers: int | None = None, runner=run_cell) -> None:
        self.capacity = worker_count(workers)
        self._runner = runner
        self._pool: ProcessPoolExecutor | None = None
        self._generation = 0
        self._terminated: set[int] = set()

    async def start(self) -> None:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.capacity)

    async def run(self, cell: CampaignCell) -> CellResult:
        if self._pool is None:
            await self.start()
        pool = self._pool
        generation = self._generation
        future = pool.submit(self._runner, cell)
        try:
            return await asyncio.wrap_future(future)
        except BrokenProcessPool as exc:
            self._replace(pool, generation)
            if generation in self._terminated:
                raise CellPreempted(
                    f"pool terminated under cell {cell.label!r} "
                    "to stop a hung sibling"
                ) from exc
            raise BackendCrash(
                f"process pool broke under cell {cell.label!r}: "
                f"{exc or type(exc).__name__}"
            ) from exc
        except asyncio.CancelledError:
            if not future.cancel() and not future.done():
                self._replace(pool, generation, terminate=True)
            raise

    def _replace(self, pool, generation: int, *, terminate: bool = False) -> None:
        """Swap in a fresh pool; only the first caller per generation does."""
        if self._generation != generation:
            return
        self._generation += 1
        self._pool = ProcessPoolExecutor(max_workers=self.capacity)
        if terminate:
            self._terminated.add(generation)
            processes = getattr(pool, "_processes", None) or {}
            for process in list(processes.values()):
                process.terminate()
        # No cancel_futures: every pending future of a dead pool fails
        # with BrokenProcessPool, which its awaiter maps as above.
        try:
            pool.shutdown(wait=False)
        except Exception:
            pass

    async def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None


class _FleetWorker:
    """One spawned worker process plus its frame protocol."""

    def __init__(self, process: asyncio.subprocess.Process) -> None:
        self.process = process

    async def request(self, cell: CampaignCell) -> tuple[str, object]:
        payload = pickle.dumps(cell, protocol=pickle.HIGHEST_PROTOCOL)
        self.process.stdin.write(_HEADER.pack(len(payload)) + payload)
        await self.process.stdin.drain()
        return pickle.loads(await self._read_frame())

    async def ready(self) -> None:
        """Wait out the worker's start-up: its imports and runner lookup."""
        try:
            frame = await self._read_frame()
        except asyncio.IncompleteReadError:
            frame = None
        if frame != READY:
            await self.stop()
            raise BackendCrash(
                "fleet worker failed to start "
                f"(exit code {self.process.returncode})"
            )

    async def _read_frame(self) -> bytes:
        header = await self.process.stdout.readexactly(_HEADER.size)
        (length,) = _HEADER.unpack(header)
        if length > MAX_FRAME_BYTES:
            raise BackendCrash("fleet worker sent a corrupt frame header")
        return await self.process.stdout.readexactly(length)

    @property
    def alive(self) -> bool:
        return self.process.returncode is None

    async def stop(self) -> None:
        try:
            if self.process.stdin is not None:
                self.process.stdin.close()
        except Exception:
            pass
        try:
            await asyncio.wait_for(self.process.wait(), timeout=5.0)
        except Exception:
            try:
                self.process.kill()
                await self.process.wait()
            except Exception:
                pass


class SubprocessFleetBackend:
    """N worker subprocesses pulling cells over pipes.

    Each worker is an independent ``python -m repro.service.worker``
    process; an idle-worker queue hands cells to whichever worker is
    free.  A worker that dies mid-cell (EOF on its pipe) fails only that
    cell (:class:`BackendCrash`) and is replaced immediately, so the
    fleet's capacity self-heals — unlike a broken process pool, the
    blast radius is one cell.
    """

    name = "fleet"
    preemptible = True

    def __init__(
        self,
        workers: int | None = None,
        runner: str = "repro.core.jobs:run_cell",
        python: str | None = None,
    ) -> None:
        self.capacity = worker_count(workers)
        self._runner = runner
        self._python = python or sys.executable
        self._idle: asyncio.Queue[_FleetWorker] = asyncio.Queue()
        self._workers: list[_FleetWorker] = []
        self._closed = False
        #: Workers replaced after a crash or a kill (observability/test hook).
        self.respawns = 0

    async def _spawn(self) -> _FleetWorker:
        process = await asyncio.create_subprocess_exec(
            self._python,
            "-m",
            "repro.service.worker",
            "--runner",
            self._runner,
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            stderr=None,  # worker diagnostics go to the service's stderr
            env=os.environ.copy(),
        )
        worker = _FleetWorker(process)
        await worker.ready()
        self._workers.append(worker)
        return worker

    async def start(self) -> None:
        while len(self._workers) < self.capacity:
            self._idle.put_nowait(await self._spawn())

    async def run(self, cell: CampaignCell) -> CellResult:
        if not self._workers:
            await self.start()
        worker = await self._idle.get()
        try:
            if not worker.alive:
                raise asyncio.IncompleteReadError(b"", None)
            status, payload = await worker.request(cell)
        except (
            asyncio.IncompleteReadError,
            BrokenPipeError,
            ConnectionResetError,
            EOFError,
            pickle.UnpicklingError,
        ) as exc:
            # The worker died (or garbled its pipe) under this cell:
            # retire it, spawn a replacement, fail just this cell.
            await self._replace(worker)
            raise BackendCrash(
                f"fleet worker died under cell {cell.label!r} "
                f"(exit code {worker.process.returncode})"
            ) from exc
        except asyncio.CancelledError:
            # The cell may still be running: only killing its worker
            # stops it, and the pipe is mid-frame anyway.
            try:
                worker.process.kill()
            except ProcessLookupError:
                pass
            await self._replace(worker)
            raise
        else:
            self._idle.put_nowait(worker)
        if status == "ok":
            return payload
        raise CellExecutionError(payload)

    async def _replace(self, worker: _FleetWorker) -> None:
        self._workers.remove(worker)
        await worker.stop()
        if not self._closed:
            self.respawns += 1
            self._idle.put_nowait(await self._spawn())

    async def close(self) -> None:
        self._closed = True
        workers, self._workers = self._workers, []
        while not self._idle.empty():
            self._idle.get_nowait()
        await asyncio.gather(
            *(worker.stop() for worker in workers), return_exceptions=True
        )


#: Backend registry used by ``repro-cachesim serve --backend``.
BACKENDS = {
    "inline": InlineBackend,
    "pool": PoolBackend,
    "fleet": SubprocessFleetBackend,
}


def create_backend(name: str, workers: int | None = None):
    """Build a backend by registry name (``inline`` / ``pool`` / ``fleet``)."""
    try:
        factory = BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; choose from {sorted(BACKENDS)}"
        ) from None
    if name == "inline":
        return factory(capacity=worker_count(workers))
    return factory(workers=workers)
