"""Tests for the campaign runner: parallel execution, deterministic
merging, and the on-disk result cache."""

import asyncio
import pickle
import threading

import numpy as np
import pytest

from repro.campaign import (
    CACHE_DIR_ENV,
    WORKERS_ENV,
    ResultCache,
    run_campaign,
    worker_count,
)
from repro.core import CacheGeometry, UnifiedCache, lru_miss_ratio_curve, simulate
from repro.core.jobs import (
    CampaignCell,
    CellResult,
    SimulateJob,
    StackSweepJob,
    TraceSpec,
    cell_key,
    run_cell,
)
from repro.trace import AccessKind
from repro.trace.filters import interleave_round_robin
from repro.workloads import catalog

from .conftest import make_trace

LENGTH = 8_000

SIM_JOB = SimulateJob(size=1024, purge_interval=2_000)
SWEEP_JOB = StackSweepJob(sizes=(512, 2048))


def small_cells():
    return [
        CampaignCell("ZGREP/sim", TraceSpec.catalog("ZGREP", LENGTH), SIM_JOB),
        CampaignCell("PLO/sim", TraceSpec.catalog("PLO", LENGTH), SIM_JOB),
        CampaignCell("ZGREP/sweep", TraceSpec.catalog("ZGREP", LENGTH), SWEEP_JOB),
        CampaignCell("PLO/sweep", TraceSpec.catalog("PLO", LENGTH), SWEEP_JOB),
    ]


class TestWorkerCount:
    def test_explicit_argument_wins(self):
        assert worker_count(3) == 3

    def test_environment_override(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "5")
        assert worker_count() == 5

    def test_defaults_to_cpu_count(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert worker_count() >= 1

    def test_never_below_one(self):
        assert worker_count(0) == 1
        assert worker_count(-4) == 1

    def test_non_numeric_environment_is_a_clear_error(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "abc")
        with pytest.raises(ValueError, match=WORKERS_ENV):
            worker_count()


class TestTraceSpec:
    def test_catalog_build_matches_generate(self):
        spec = TraceSpec.catalog("ZGREP", LENGTH)
        assert spec.build() == catalog.generate("ZGREP", LENGTH)

    def test_mix_build_matches_interleave(self):
        members = ("ZVI", "ZGREP")
        spec = TraceSpec.mix("mix", members, quantum=1_000, length=4_000)
        expected = interleave_round_robin(
            [catalog.generate(m, 4_000) for m in members], quantum=1_000
        )
        assert spec.build() == expected

    def test_inline_roundtrip(self):
        trace = make_trace([(AccessKind.READ, a) for a in (0, 16, 32, 0)])
        rebuilt = TraceSpec.inline(trace).build()
        assert rebuilt == trace
        assert rebuilt.metadata.name == trace.metadata.name

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="trace spec kind"):
            TraceSpec(kind="nope", name="x").build()

    def test_file_build_matches_saved_trace(self, tmp_path):
        from repro.trace import save_trace

        trace = catalog.generate("ZGREP", 2_000)
        path = tmp_path / "zgrep.rtrc"
        save_trace(trace, path)
        for mmap in (True, False):
            spec = TraceSpec.file(path, mmap=mmap)
            assert spec.name == "zgrep"
            assert spec.build() == trace

    def test_file_identity_ignores_mmap(self, tmp_path):
        # mmap is a transport choice; both transports must share cache
        # entries, and distinct file contents must not.
        from repro.trace import save_trace

        path = tmp_path / "t.rtrc"
        save_trace(catalog.generate("ZGREP", 2_000), path)
        mapped = TraceSpec.file(path, mmap=True)
        copied = TraceSpec.file(path, mmap=False)
        assert mapped.identity() == copied.identity()
        other = tmp_path / "u.rtrc"
        save_trace(catalog.generate("ZGREP", 3_000), other)
        assert TraceSpec.file(other).identity() != mapped.identity()


class TestCellKey:
    def test_label_does_not_enter_the_key(self):
        spec = TraceSpec.catalog("ZGREP", LENGTH)
        a = CampaignCell("one-name", spec, SIM_JOB)
        b = CampaignCell("other-name", spec, SIM_JOB)
        assert cell_key(a) == cell_key(b)

    def test_configuration_changes_the_key(self):
        spec = TraceSpec.catalog("ZGREP", LENGTH)
        base = cell_key(CampaignCell("c", spec, SIM_JOB))
        assert base != cell_key(
            CampaignCell("c", spec, SimulateJob(size=1024, purge_interval=4_000))
        )
        assert base != cell_key(
            CampaignCell("c", TraceSpec.catalog("ZGREP", LENGTH * 2), SIM_JOB)
        )

    def test_inline_key_tracks_content(self):
        first = make_trace([(AccessKind.READ, 0), (AccessKind.READ, 16)])
        second = make_trace([(AccessKind.READ, 0), (AccessKind.READ, 32)])
        assert cell_key(
            CampaignCell("c", TraceSpec.inline(first), SWEEP_JOB)
        ) != cell_key(CampaignCell("c", TraceSpec.inline(second), SWEEP_JOB))

    @pytest.mark.parametrize("kind", ["catalog", "mix"])
    def test_catalog_content_enters_the_key(self, kind, monkeypatch):
        # A catalog or mix cell is keyed by what its traces contain, so an
        # edited catalog entry or a generator bump cannot serve stale cells.
        from dataclasses import replace

        from repro.workloads import generator

        if kind == "catalog":
            spec = TraceSpec.catalog("ZGREP", LENGTH)
        else:
            spec = TraceSpec.mix("mix", ("ZVI", "ZGREP"), quantum=1_000, length=LENGTH)
        cell = CampaignCell("c", spec, SIM_JOB)
        base = cell_key(cell)
        monkeypatch.setitem(
            catalog._REGISTRY, "ZGREP", replace(catalog.get("ZGREP"), seed=12_345)
        )
        catalog.trace_digest.cache_clear()
        edited = cell_key(cell)
        monkeypatch.undo()
        monkeypatch.setattr(generator, "GENERATOR_VERSION", generator.GENERATOR_VERSION + 1)
        catalog.trace_digest.cache_clear()
        bumped = cell_key(cell)
        monkeypatch.undo()
        catalog.trace_digest.cache_clear()
        assert len({base, edited, bumped}) == 3
        assert cell_key(cell) == base

    def test_engine_does_not_enter_the_key(self):
        # Kernel and generic engines are bit-identical by contract, so a
        # cached result from either engine serves both.
        spec = TraceSpec.catalog("ZGREP", LENGTH)
        keys = {
            cell_key(
                CampaignCell("c", spec, SimulateJob(size=1024, engine=engine))
            )
            for engine in ("auto", "kernel", "generic")
        }
        assert len(keys) == 1


class TestJobs:
    def test_simulate_job_matches_direct_simulation(self):
        trace = catalog.generate("ZGREP", LENGTH)
        report = SIM_JOB.run(trace)
        expected = simulate(
            trace, UnifiedCache(CacheGeometry(1024, 16)), purge_interval=2_000
        )
        assert report == expected

    def test_stack_sweep_job_matches_curve(self):
        trace = catalog.generate("ZGREP", LENGTH)
        values = SWEEP_JOB.run(trace)
        expected = lru_miss_ratio_curve(trace, [512, 2048])
        assert np.allclose(values, expected)

    def test_run_cell_reports_references(self):
        result = run_cell(small_cells()[0])
        assert result.references == LENGTH
        assert result.wall_seconds > 0

    def test_simulate_job_engines_agree(self):
        trace = catalog.generate("ZGREP", LENGTH)
        kernel = SimulateJob(size=1024, engine="kernel").run(trace)
        generic = SimulateJob(size=1024, engine="generic").run(trace)
        assert kernel == generic

    def test_file_spec_cells_run_under_campaign(self, tmp_path):
        # Workers each map the same .rtrc file instead of rebuilding or
        # pickling the trace; results must match the in-memory spec.
        from repro.trace import save_trace

        trace = catalog.generate("ZGREP", LENGTH)
        path = tmp_path / "zgrep.rtrc"
        save_trace(trace, path)
        cells = [
            CampaignCell("file/sim", TraceSpec.file(path), SIM_JOB),
            CampaignCell("file/sweep", TraceSpec.file(path), SWEEP_JOB),
        ]
        result = run_campaign(cells, workers=2)
        assert not result.failures()
        by_label = {o.label: o.value for o in result.outcomes}
        assert by_label["file/sim"] == SIM_JOB.run(trace)
        assert np.allclose(by_label["file/sweep"], SWEEP_JOB.run(trace))


class TestRunCampaign:
    def test_serial_equals_parallel_bit_identical(self):
        cells = small_cells()
        serial = run_campaign(cells, workers=1, cache=False)
        parallel = run_campaign(cells, workers=2, cache=False)
        assert serial.workers == 1 and parallel.workers == 2
        # SimulationReports and sweep tuples compare by value, field by
        # field — equality here means bit-identical statistics.
        assert serial.values() == parallel.values()
        assert [o.label for o in serial.outcomes] == [o.label for o in parallel.outcomes]

    def test_merge_is_in_submission_order(self):
        cells = small_cells()
        result = run_campaign(cells, workers=2, cache=False)
        assert [o.label for o in result.outcomes] == [c.label for c in cells]

    def test_cache_reuse_on_repeat(self, tmp_path):
        cells = small_cells()
        first = run_campaign(cells, workers=1, cache=tmp_path)
        second = run_campaign(cells, workers=1, cache=tmp_path)
        assert first.cached_cells == 0 and first.simulated_cells == len(cells)
        assert second.cached_cells == len(cells) and second.simulated_cells == 0
        assert first.values() == second.values()
        assert all(o.cached for o in second.outcomes)
        assert second.references_per_second == 0.0

    def test_cache_shared_across_labels_and_campaigns(self, tmp_path):
        spec = TraceSpec.catalog("ZGREP", LENGTH)
        run_campaign([CampaignCell("a", spec, SIM_JOB)], workers=1, cache=tmp_path)
        renamed = run_campaign(
            [CampaignCell("b", spec, SIM_JOB)], workers=1, cache=tmp_path
        )
        assert renamed.cached_cells == 1

    def test_cache_true_uses_environment_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        cells = small_cells()[:2]
        first = run_campaign(cells, workers=1, cache=True)
        again = run_campaign(cells, workers=1, cache=True)
        assert first.cached_cells == 0
        assert again.cached_cells == 2

    def test_cache_true_without_environment_is_a_clear_error(self, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        with pytest.raises(ValueError, match=CACHE_DIR_ENV):
            run_campaign(small_cells()[:1], workers=1, cache=True)

    def test_cache_dir_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        cells = small_cells()[:2]
        run_campaign(cells, workers=1)
        again = run_campaign(cells, workers=1)
        assert again.cached_cells == 2

    def test_no_cache_by_default(self, tmp_path, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        cells = small_cells()[:1]
        run_campaign(cells, workers=1)
        result = run_campaign(cells, workers=1)
        assert result.cached_cells == 0

    # "not a pickle" raises UnpicklingError; "garbage\n" happens to parse
    # as a protocol-0 opcode and dies with ValueError instead.  Both must
    # degrade to a miss.
    @pytest.mark.parametrize("junk", [b"not a pickle", b"garbage\n"])
    def test_corrupt_cache_entry_is_a_miss(self, tmp_path, junk):
        cells = small_cells()[:1]
        store = ResultCache(tmp_path)
        run_campaign(cells, workers=1, cache=store)
        key = cell_key(cells[0])
        path = store._path(key)
        path.write_bytes(junk)
        result = run_campaign(cells, workers=1, cache=store)
        assert result.cached_cells == 0
        # The repaired entry is readable again.
        assert isinstance(store.get(key), CellResult)

    @pytest.mark.parametrize("junk", [b"not a pickle", b"garbage\n"])
    def test_corrupt_cache_entry_is_deleted_on_read(self, tmp_path, junk):
        """Torn/corrupt entries are removed, not left to fail every read —
        the same self-healing policy the trace store applies."""
        cells = small_cells()[:1]
        store = ResultCache(tmp_path)
        run_campaign(cells, workers=1, cache=store)
        key = cell_key(cells[0])
        path = store._path(key)
        path.write_bytes(junk)
        store.get(key)  # the miss that notices the corruption
        assert not path.exists()

    def test_truncated_cache_entry_is_rebuilt(self, tmp_path):
        """A torn write (partial pickle) degrades to a miss and is rebuilt."""
        cells = small_cells()[:1]
        store = ResultCache(tmp_path)
        run_campaign(cells, workers=1, cache=store)
        key = cell_key(cells[0])
        path = store._path(key)
        path.write_bytes(path.read_bytes()[:-7])
        result = run_campaign(cells, workers=1, cache=store)
        assert result.cached_cells == 0
        assert isinstance(store.get(key), CellResult)

    def test_progress_callback_in_submission_order(self):
        cells = small_cells()
        seen = []
        run_campaign(cells, workers=1, cache=False, progress=lambda o: seen.append(o.label))
        assert seen == [c.label for c in cells]

    def test_summary_mentions_throughput_and_cache(self, tmp_path):
        cells = small_cells()[:2]
        first = run_campaign(cells, workers=1, cache=tmp_path)
        assert "refs/s" in first.summary()
        assert "0 cached" in first.summary()
        second = run_campaign(cells, workers=1, cache=tmp_path)
        assert "2 cached" in second.summary()

    def test_by_label_groups_outcomes(self):
        cells = [
            CampaignCell("same", TraceSpec.catalog("ZGREP", LENGTH), SIM_JOB),
            CampaignCell("same", TraceSpec.catalog("ZGREP", LENGTH), SWEEP_JOB),
        ]
        result = run_campaign(cells, workers=1, cache=False)
        assert len(result.by_label()["same"]) == 2

    def test_results_are_picklable(self):
        result = run_campaign(small_cells()[:1], workers=1, cache=False)
        assert pickle.loads(pickle.dumps(result)).values() == result.values()

    def test_a_duplicated_cell_runs_once(self, tmp_path):
        calls = []

        def counting(cell):  # serial mode: closures are fine
            calls.append(cell.label)
            return run_cell(cell)

        cell = small_cells()[0]
        result = run_campaign(
            [cell, cell], workers=1, cache=tmp_path, runner=counting
        )
        assert len(calls) == 1
        assert result.values()[0] == result.values()[1]
        assert result.simulated_cells == 1
        twin = result.outcomes[1]
        assert twin.source == "shared" and twin.cached and twin.wall_seconds == 0.0
        assert result.shared_cells == 1 and "1 shared" in result.summary()
        assert not list(tmp_path.rglob("*.claim"))

    def test_a_fully_cached_campaign_starts_no_worker(self, tmp_path, monkeypatch):
        """Every hit is loaded once and no cell reaches a pool worker (a
        pool executor starts its process at its first submit)."""
        from repro.service import backends

        cells = small_cells()
        run_campaign(cells, workers=1, cache=tmp_path)
        loads, submits = [], []
        get = ResultCache.get
        monkeypatch.setattr(
            ResultCache, "get", lambda self, key: loads.append(key) or get(self, key)
        )

        class Recording(backends.ProcessPoolExecutor):
            def submit(self, *args, **kwargs):
                submits.append(args)
                return super().submit(*args, **kwargs)

        monkeypatch.setattr(backends, "ProcessPoolExecutor", Recording)
        result = run_campaign(cells, workers=2, cache=tmp_path)
        assert result.cached_cells == len(cells)
        assert submits == []
        assert sorted(loads) == sorted(cell_key(cell) for cell in cells)

    def test_each_cell_key_is_computed_once(self, tmp_path, monkeypatch):
        import repro.campaign
        from repro.service import scheduler

        calls = []

        def counting(cell):
            calls.append(cell.label)
            return cell_key(cell)

        for module in (repro.campaign, scheduler):
            monkeypatch.setattr(module, "cell_key", counting)
        cells = small_cells()
        run_campaign(cells, workers=1, cache=tmp_path)
        assert sorted(calls) == sorted(cell.label for cell in cells)

    def test_serial_cells_run_on_the_calling_thread(self):
        threads = []

        def recording(cell):
            threads.append(threading.get_ident())
            return run_cell(cell)

        run_campaign(small_cells()[:2], workers=1, cache=False, runner=recording)
        assert threads == [threading.get_ident()] * 2

    def test_runs_inside_a_running_event_loop(self):
        async def body():
            return run_campaign(small_cells()[:1], workers=1, cache=False)

        assert asyncio.run(body()).failed_cells == 0

    def test_a_cell_without_a_key_raises(self, tmp_path):
        """As a served spec that names no trace is refused, so is a local one."""
        for spec, error in (
            (TraceSpec.catalog("NOPE", 1_000), KeyError),
            (TraceSpec.file(tmp_path / "missing.rtrc"), FileNotFoundError),
        ):
            with pytest.raises(error):
                run_campaign([CampaignCell("bad", spec, SIM_JOB)], workers=1, cache=False)

    def test_a_failing_cache_write_raises(self, tmp_path, monkeypatch):
        def full(self, key, result):
            raise OSError("disk full")

        monkeypatch.setattr(ResultCache, "put", full)
        with pytest.raises(RuntimeError, match="campaign failed: OSError: disk full"):
            run_campaign(small_cells()[:1], workers=1, cache=tmp_path)

    def test_service_admission_settings_do_not_apply(self, monkeypatch):
        from repro.service.scheduler import ACTIVE_ENV, QUOTA_ENV

        monkeypatch.setenv(QUOTA_ENV, "0")
        monkeypatch.setenv(ACTIVE_ENV, "none")
        assert run_campaign(small_cells()[:1], workers=1, cache=False).failed_cells == 0

    def test_only_cache_misses_are_primed_or_leave_the_thread(self, tmp_path, monkeypatch):
        """A rerun with one miss runs it in-process and primes its trace alone."""
        import io
        import json

        from repro.campaign import EventLog
        from repro.trace.store import TRACE_STORE_ENV

        cells = small_cells()
        run_campaign(cells[:3], workers=1, cache=tmp_path)
        threads = []

        def recording(cell):  # a closure: a pool could not run it
            threads.append(threading.get_ident())
            return run_cell(cell)

        monkeypatch.setenv(TRACE_STORE_ENV, str(tmp_path / "store"))
        stream = io.StringIO()
        result = run_campaign(
            cells, workers=2, cache=tmp_path, runner=recording, events=EventLog(stream)
        )
        assert threads == [threading.get_ident()]
        assert (result.cached_cells, result.simulated_cells) == (3, 1)
        events = [json.loads(line) for line in stream.getvalue().splitlines()]
        primed = [e["name"] for e in events if e["event"].startswith("trace_store")]
        assert primed == [cells[3].trace.name]


class TestTraceStorePriming:
    def test_priming_stores_traces_without_keeping_them(self, monkeypatch, tmp_path):
        import io
        import json

        from repro.campaign import EventLog, _prime_trace_store
        from repro.trace.memo import TRACE_MEMO
        from repro.trace.store import TRACE_STORE_ENV, TraceStore

        monkeypatch.setenv(TRACE_STORE_ENV, str(tmp_path / "store"))
        cells = small_cells() + [
            CampaignCell(
                "mix", TraceSpec.mix("mix", ("ZVI", "ZGREP"), quantum=1_000, length=LENGTH),
                SWEEP_JOB,
            )
        ]
        primed = {("ZGREP", LENGTH), ("PLO", LENGTH), ("ZVI", LENGTH)}
        TRACE_MEMO.clear()
        try:
            for expected in ("trace_store_write", "trace_store_hit"):
                stream = io.StringIO()
                _prime_trace_store(cells, EventLog(stream))
                events = [json.loads(line) for line in stream.getvalue().splitlines()]
                assert [e["event"] for e in events] == [expected] * len(primed)
                assert {(e["name"], e["length"]) for e in events} == primed
                assert len(TRACE_MEMO) == 0
            assert len(TraceStore.from_env()) == len(primed)
            for name, length in primed:
                assert catalog.trace_digest(name, length) not in TRACE_MEMO
        finally:
            TRACE_MEMO.clear()


class TestExperimentEquivalence:
    """The refactored drivers must agree across worker counts."""

    def test_table1_serial_equals_parallel(self):
        from repro.analysis import table1_experiment

        names = ["ZGREP", "PLO"]
        sizes = (512, 4096)
        serial = table1_experiment(names=names, sizes=sizes, length=LENGTH, workers=1)
        parallel = table1_experiment(names=names, sizes=sizes, length=LENGTH, workers=2)
        assert serial.curves == parallel.curves
        assert serial.trace_length == parallel.trace_length

    def test_prefetch_study_serial_equals_parallel(self):
        from repro.analysis import prefetch_study

        serial = prefetch_study(labels=["PLO"], sizes=(512,), length=LENGTH, workers=1)
        parallel = prefetch_study(labels=["PLO"], sizes=(512,), length=LENGTH, workers=2)
        assert serial.workloads == parallel.workloads

    def test_figures_3_4_serial_equals_parallel(self):
        from repro.analysis import figures_3_and_4

        serial = figures_3_and_4(
            labels=["ZGREP"], sizes=(512, 2048), length=LENGTH, workers=1
        )
        parallel = figures_3_and_4(
            labels=["ZGREP"], sizes=(512, 2048), length=LENGTH, workers=2
        )
        assert serial.instruction == parallel.instruction
        assert serial.data == parallel.data
