"""Tests for the execution backends."""

import asyncio

import pytest

from repro.core.jobs import CampaignCell, CellResult, SimulateJob, TraceSpec
from repro.service.backends import (
    BackendCrash,
    InlineBackend,
    PoolBackend,
)

from .helpers import crash_on_marker, fail_on_marker, fake_run


def make_cell(label="cell"):
    return CampaignCell(
        label, TraceSpec.catalog("ZGREP", 4_000), SimulateJob(size=1024)
    )


async def with_backend(backend, body):
    await backend.start()
    try:
        return await body()
    finally:
        await backend.close()


class TestInlineBackend:
    def test_runs_a_cell(self):
        backend = InlineBackend(capacity=2, runner=fake_run)

        async def body():
            return await backend.run(make_cell())

        result = asyncio.run(with_backend(backend, body))
        assert isinstance(result, CellResult)
        assert result.references == 1_000

    def test_capacity_floor(self):
        assert InlineBackend(capacity=0).capacity == 1


class TestPoolBackend:
    def test_runs_a_real_cell(self):
        backend = PoolBackend(workers=1)

        async def body():
            return await backend.run(make_cell())

        result = asyncio.run(with_backend(backend, body))
        assert result.references == 4_000

    def test_worker_crash_is_a_backend_crash_and_the_pool_recovers(self):
        backend = PoolBackend(workers=1, runner=crash_on_marker)

        async def body():
            with pytest.raises(BackendCrash):
                await backend.run(make_cell("CRASH-me"))
            # The worker was replaced; the next cell runs normally.
            return await backend.run(make_cell("fine"))

        result = asyncio.run(with_backend(backend, body))
        assert isinstance(result, CellResult)

    def test_runs_more_cells_than_workers(self):
        backend = PoolBackend(workers=2, runner=fake_run)

        async def body():
            return await asyncio.gather(
                *(backend.run(make_cell(f"cell-{i}")) for i in range(4))
            )

        results = asyncio.run(with_backend(backend, body))
        assert all(r.references == 1_000 for r in results)
        assert backend.respawns == 0

    def test_worker_crash_fails_one_cell_and_respawns(self):
        backend = PoolBackend(workers=2, runner=crash_on_marker)

        async def body():
            # A sibling runs on the other worker while CRASH kills its own.
            sibling = asyncio.ensure_future(backend.run(make_cell("SLOW")))
            with pytest.raises(BackendCrash, match="died under cell"):
                await backend.run(make_cell("CRASH-me"))
            # Blast radius is one cell: the replacement worker serves on.
            return await sibling, await backend.run(make_cell("fine"))

        results = asyncio.run(with_backend(backend, body))
        assert all(isinstance(r, CellResult) for r in results)
        assert backend.respawns == 1

    def test_cell_exception_is_the_cells_own_not_a_crash(self):
        backend = PoolBackend(workers=1, runner=fail_on_marker)

        async def body():
            with pytest.raises(ValueError, match="injected failure"):
                await backend.run(make_cell("FAIL-me"))
            # The worker survives its own cell's exception.
            return await backend.run(make_cell("fine"))

        result = asyncio.run(with_backend(backend, body))
        assert isinstance(result, CellResult)
        assert backend.respawns == 0

