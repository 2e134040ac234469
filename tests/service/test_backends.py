"""Tests for the execution backends and the fleet worker protocol."""

import asyncio
import io
import pickle

import pytest

from repro.core.jobs import (
    CampaignCell,
    CellError,
    CellResult,
    SimulateJob,
    TraceSpec,
)
from repro.service.backends import (
    BackendCrash,
    CellExecutionError,
    InlineBackend,
    PoolBackend,
    SubprocessFleetBackend,
    create_backend,
)
from repro.service.worker import read_frame, resolve_runner, write_frame

from .helpers import crash_on_marker, fail_on_marker, fake_run

HELPERS = "tests.service.helpers"


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
            # The pool was replaced; the next cell runs normally.
            return await backend.run(make_cell("fine"))

        result = asyncio.run(with_backend(backend, body))
        assert isinstance(result, CellResult)


class TestFleetBackend:
    def test_runs_cells_through_worker_subprocesses(self):
        backend = SubprocessFleetBackend(
            workers=2, runner=f"{HELPERS}:fake_run"
        )

        async def body():
            return await asyncio.gather(
                *(backend.run(make_cell(f"cell-{i}")) for i in range(4))
            )

        results = asyncio.run(with_backend(backend, body))
        assert all(r.references == 1_000 for r in results)

    def test_worker_crash_fails_one_cell_and_respawns(self):
        backend = SubprocessFleetBackend(
            workers=1, runner=f"{HELPERS}:crash_on_marker"
        )

        async def body():
            with pytest.raises(BackendCrash, match="died under cell"):
                await backend.run(make_cell("CRASH-me"))
            # Blast radius is one cell: the replacement worker serves on.
            return await backend.run(make_cell("fine"))

        result = asyncio.run(with_backend(backend, body))
        assert isinstance(result, CellResult)
        assert backend.respawns == 1

    def test_cell_exception_is_structured_not_a_crash(self):
        backend = SubprocessFleetBackend(
            workers=1, runner=f"{HELPERS}:fail_on_marker"
        )

        async def body():
            with pytest.raises(CellExecutionError) as excinfo:
                await backend.run(make_cell("FAIL-me"))
            assert excinfo.value.error.type == "ValueError"
            # The worker survives its own cell's exception.
            return await backend.run(make_cell("fine"))

        result = asyncio.run(with_backend(backend, body))
        assert isinstance(result, CellResult)
        assert backend.respawns == 0

    def test_worker_that_cannot_start_fails_the_start(self):
        # The runner does not exist: the worker exits before its ready
        # frame, and start() says so instead of handing it a cell.
        backend = SubprocessFleetBackend(workers=1, runner=f"{HELPERS}:missing")
        with pytest.raises(BackendCrash, match="failed to start"):
            asyncio.run(with_backend(backend, lambda: None))


class TestRegistry:
    def test_known_backends(self):
        assert isinstance(create_backend("inline", 2), InlineBackend)
        assert isinstance(create_backend("pool", 1), PoolBackend)
        assert isinstance(create_backend("fleet", 1), SubprocessFleetBackend)

    def test_unknown_backend_is_a_clear_error(self):
        with pytest.raises(ValueError, match="unknown backend"):
            create_backend("cloud")


class TestFrameProtocol:
    def test_roundtrip(self):
        buffer = io.BytesIO()
        write_frame(buffer, b"payload")
        buffer.seek(0)
        assert read_frame(buffer) == b"payload"

    def test_clean_eof_is_none(self):
        assert read_frame(io.BytesIO()) is None

    def test_truncated_header_raises(self):
        with pytest.raises(EOFError, match="header"):
            read_frame(io.BytesIO(b"\x00\x00"))

    def test_truncated_payload_raises(self):
        buffer = io.BytesIO()
        write_frame(buffer, b"full payload")
        data = buffer.getvalue()[:-3]
        with pytest.raises(EOFError, match="payload"):
            read_frame(io.BytesIO(data))

    def test_oversized_frame_rejected(self):
        import struct

        with pytest.raises(ValueError, match="exceeds"):
            read_frame(io.BytesIO(struct.pack(">Q", 1 << 60)))

    def test_resolve_runner(self):
        assert resolve_runner(f"{HELPERS}:fake_run") is fake_run
        with pytest.raises(ValueError, match="pkg.mod:function"):
            resolve_runner("no-colon")
        with pytest.raises(TypeError, match="not callable"):
            resolve_runner("os:sep")
