"""Fault-injection tests for the campaign runner's failure semantics.

Faults are injected deterministically through ``run_campaign``'s
``runner=`` seam: a cell is marked by putting ``FAIL`` in its label, and
the injected runners below misbehave only for marked cells (and, for the
process-killing/hanging faults, only inside a worker process — so the
serial fallback path recovers deterministically in the main process).
No test relies on timing races.
"""

import json
import multiprocessing
import os
import time

import pytest

from repro.campaign import (
    CampaignError,
    EventLog,
    run_campaign,
)
from repro.core.jobs import (
    CampaignCell,
    CellError,
    StackSweepJob,
    TraceSpec,
    run_cell,
)

LENGTH = 4_000

#: Flag-file path for the cross-process retry-then-succeed fault.
FLAG_ENV = "REPRO_TEST_FLAKY_FLAG"


def make_cells(labels):
    """One sweep cell per label; distinct lengths keep cache keys distinct."""
    return [
        CampaignCell(
            label=label,
            trace=TraceSpec.catalog("ZGREP", LENGTH + index),
            job=StackSweepJob(sizes=(512, 2048)),
        )
        for index, label in enumerate(labels)
    ]


def _marked(cell):
    return "FAIL" in cell.label


def _in_worker():
    return multiprocessing.parent_process() is not None


# ---- injected runners (module-level: pool workers must unpickle them) ----

def raise_for_marked(cell):
    """Deterministic non-transient failure for marked cells."""
    if _marked(cell):
        raise ValueError(f"injected failure: {cell.label}")
    return run_cell(cell)


def raise_transient_for_marked(cell):
    """Deterministic *transient* (OSError) failure for marked cells."""
    if _marked(cell):
        raise OSError(f"injected transient failure: {cell.label}")
    return run_cell(cell)


def transient_until_flag(cell):
    """OSError on the first attempt, success afterwards (any process).

    Cross-attempt state lives in a flag file (workers are separate
    processes), named by the ``REPRO_TEST_FLAKY_FLAG`` environment
    variable.
    """
    if _marked(cell):
        flag = os.environ[FLAG_ENV]
        if not os.path.exists(flag):
            with open(flag, "w", encoding="utf-8"):
                pass
            raise OSError(f"injected transient failure: {cell.label}")
    return run_cell(cell)


def kill_worker_for_marked(cell):
    """Kill the worker process for marked cells (breaking the pool);
    behave normally in the main process, so the serial fallback succeeds."""
    if _marked(cell) and _in_worker():
        os._exit(3)
    return run_cell(cell)


def hang_worker_for_marked(cell):
    """Hang (far beyond any test timeout) inside a worker for marked
    cells; behave normally in the main process."""
    if _marked(cell) and _in_worker():
        time.sleep(600)
    return run_cell(cell)


def sleep_for_marked(cell):
    """Sleep 2 s for marked cells wherever they run, then finish."""
    if _marked(cell):
        time.sleep(2)
    return run_cell(cell)


# ------------------------------ the suite ------------------------------

class TestFailureIsolation:
    def test_one_failing_cell_does_not_kill_the_campaign(self):
        cells = make_cells(["ok-a", "FAIL-b", "ok-c"])
        result = run_campaign(
            cells, workers=1, cache=False, runner=raise_for_marked
        )
        assert result.failed_cells == 1
        assert [o.ok for o in result.outcomes] == [True, False, True]
        failed = result.failures()[0]
        assert failed.label == "FAIL-b"
        assert isinstance(failed.error, CellError)
        assert failed.error.type == "ValueError"
        assert "injected failure" in failed.error.message
        assert "ValueError" in failed.error.traceback
        assert result.errors() == {"FAIL-b": failed.error}
        # Successful siblings carry real payloads; the failure carries None.
        assert result.values()[0] is not None and result.values()[2] is not None
        assert result.values()[1] is None
        assert "FAILED FAIL-b" in result.summary()

    def test_parallel_isolation_siblings_complete_and_cache(self, tmp_path):
        cells = make_cells(["ok-a", "FAIL-b", "ok-c", "ok-d"])
        result = run_campaign(
            cells, workers=2, cache=tmp_path, runner=raise_for_marked, retries=0
        )
        assert result.failed_cells == 1
        assert result.simulated_cells == 3
        # A re-run re-executes only the failure (now healthy).
        rerun = run_campaign(cells, workers=1, cache=tmp_path)
        assert rerun.cached_cells == 3
        assert rerun.simulated_cells == 1
        assert rerun.failed_cells == 0
        assert all(o.ok for o in rerun.outcomes)

    def test_raise_on_error_restores_strict_behavior(self, tmp_path):
        cells = make_cells(["ok-a", "FAIL-b", "ok-c"])
        with pytest.raises(CampaignError, match="FAIL-b"):
            run_campaign(
                cells, workers=1, cache=tmp_path,
                runner=raise_for_marked, raise_on_error=True,
            )
        # Strictness raises *after* collection: siblings are cached, so a
        # healthy re-run only executes the one failure.
        rerun = run_campaign(cells, workers=1, cache=tmp_path)
        assert rerun.cached_cells == 2 and rerun.simulated_cells == 1

    def test_campaign_error_carries_the_partial_result(self):
        cells = make_cells(["FAIL-a", "ok-b"])
        with pytest.raises(CampaignError) as info:
            run_campaign(
                cells, workers=1, cache=False,
                runner=raise_for_marked, raise_on_error=True,
            )
        partial = info.value.result
        assert partial.failed_cells == 1
        assert partial.outcomes[1].ok


class TestRetries:
    def test_transient_failure_retries_then_succeeds_serial(self):
        cells = make_cells(["only"])
        attempts = {"n": 0}

        def flaky(cell):  # serial mode: closures are fine
            attempts["n"] += 1
            if attempts["n"] == 1:
                raise OSError("injected transient failure")
            return run_cell(cell)

        result = run_campaign(
            cells, workers=1, cache=False, runner=flaky, retries=2, backoff=0
        )
        assert result.failed_cells == 0
        assert result.outcomes[0].attempts == 2
        assert result.retried_cells == 1
        assert "retried 1 cell(s)" in result.summary()

    def test_transient_failure_retries_then_succeeds_parallel(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(FLAG_ENV, str(tmp_path / "flag"))
        cells = make_cells(["FAIL-flaky", "ok-a", "ok-b"])
        result = run_campaign(
            cells, workers=2, cache=False,
            runner=transient_until_flag, retries=2, backoff=0,
        )
        assert result.failed_cells == 0
        assert result.outcomes[0].attempts == 2

    def test_retries_exhausted_becomes_failure(self):
        cells = make_cells(["FAIL-always"])
        result = run_campaign(
            cells, workers=1, cache=False,
            runner=raise_transient_for_marked, retries=2, backoff=0,
        )
        assert result.failed_cells == 1
        outcome = result.outcomes[0]
        assert outcome.error.type == "OSError"
        assert outcome.attempts == 3  # 1 try + 2 retries

    def test_non_transient_failure_is_not_retried(self):
        cells = make_cells(["FAIL-hard"])
        result = run_campaign(
            cells, workers=1, cache=False,
            runner=raise_for_marked, retries=5, backoff=0,
        )
        assert result.outcomes[0].attempts == 1

    def test_retries_respects_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRIES", "0")
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")
        cells = make_cells(["FAIL-always"])
        result = run_campaign(
            cells, workers=1, cache=False, runner=raise_transient_for_marked
        )
        assert result.outcomes[0].attempts == 1


class TestPoolFaults:
    def test_broken_pool_falls_back_to_serial(self, tmp_path):
        cells = make_cells(["ok-a", "FAIL-kill", "ok-b", "ok-c"])
        reference = [run_cell(cell).value for cell in cells]
        events = tmp_path / "events.jsonl"
        result = run_campaign(
            cells, workers=2, cache=False, runner=kill_worker_for_marked,
            retries=2, backoff=0, events=events,
        )
        # The killer kills only its own worker on every attempt, then
        # completes serially in the main process; its siblings never
        # leave the pool.
        assert result.failed_cells == 0
        assert result.values() == reference
        records = [json.loads(line) for line in events.read_text().splitlines()]
        fallbacks = [r["label"] for r in records if r["event"] == "serial_fallback"]
        assert fallbacks == ["FAIL-kill"]

    def test_timeout_turns_a_hang_into_a_failed_outcome(self, tmp_path):
        cells = make_cells(["ok-a", "FAIL-hang", "ok-b", "ok-c"])
        events = tmp_path / "events.jsonl"
        started = time.perf_counter()
        result = run_campaign(
            cells, workers=2, cache=False, runner=hang_worker_for_marked,
            timeout=0.25, retries=0, events=events,
        )
        elapsed = time.perf_counter() - started
        assert elapsed < 30  # nowhere near the 600s injected hang
        assert result.failed_cells == 1
        failed = result.failures()[0]
        assert failed.label == "FAIL-hang"
        assert failed.error.type == "TimeoutError"
        assert "REPRO_CELL_TIMEOUT" in failed.error.message
        # Every other cell still produced its value on the pool (a bounded
        # campaign has no in-process fallback).
        assert all(o.ok for o in result.outcomes if o.label != "FAIL-hang")
        kinds = [json.loads(line)["event"] for line in events.read_text().splitlines()]
        assert "pool_terminated" in kinds


class TestSerialTimeouts:
    """A campaign with a timeout, serial ones included, runs its cells
    where they can be stopped."""

    def test_serial_cell_obeys_the_timeout(self):
        cells = make_cells(["ok-a", "FAIL-slow", "ok-b"])
        result = run_campaign(
            cells, workers=1, cache=False, runner=sleep_for_marked,
            timeout=0.3, retries=0,
        )
        assert result.failed_cells == 1
        failed = result.failures()[0]
        assert failed.label == "FAIL-slow"
        assert failed.error.type == "TimeoutError"
        assert all(o.ok for o in result.outcomes if o.label != "FAIL-slow")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_bounded_campaign_never_runs_a_cell_in_process(self, tmp_path, workers):
        # Serial or not, a cell whose worker keeps dying fails rather than
        # running once more in this process, beyond the timeout's reach.
        events = tmp_path / "events.jsonl"
        result = run_campaign(
            make_cells(["ok-a", "FAIL-kill", "ok-b"]), workers=workers, cache=False,
            runner=kill_worker_for_marked, timeout=30, retries=0, backoff=0,
            events=events,
        )
        failed = result.failures()
        assert [o.label for o in failed] == ["FAIL-kill"]
        assert failed[0].error.type == "BackendCrash"
        kinds = [json.loads(line)["event"] for line in events.read_text().splitlines()]
        assert "serial_fallback" not in kinds

    def test_without_a_timeout_a_serial_campaign_starts_no_pool(self, monkeypatch):
        from repro.service import backends

        def refuse(*args, **kwargs):
            raise AssertionError("started a pool")

        monkeypatch.delenv("REPRO_CELL_TIMEOUT", raising=False)
        monkeypatch.setattr(backends, "PoolBackend", refuse)
        result = run_campaign(make_cells(["a", "b"]), workers=1, cache=False)
        assert result.failed_cells == 0


class TestEquivalence:
    """No-fault campaigns are bit-identical to the pre-isolation runner."""

    def test_values_match_direct_run_cell_across_worker_counts(self, tmp_path):
        cells = make_cells(["a", "b", "c"])
        reference = [run_cell(cell).value for cell in cells]
        serial = run_campaign(cells, workers=1, cache=False)
        parallel = run_campaign(cells, workers=2, cache=False)
        cached = run_campaign(cells, workers=2, cache=tmp_path)
        recached = run_campaign(cells, workers=2, cache=tmp_path)
        assert serial.values() == reference
        assert parallel.values() == reference
        assert cached.values() == reference
        assert recached.values() == reference
        assert serial.failed_cells == parallel.failed_cells == 0
        for result in (serial, parallel, cached):
            assert [o.label for o in result.outcomes] == [c.label for c in cells]
            assert all(o.attempts == 1 for o in result.outcomes)


class TestStreamingProgress:
    def test_progress_streams_before_the_campaign_ends(self):
        cells = make_cells(["a", "b", "c", "d"])
        executed = []
        observed_at_callback = []

        def tracing_runner(cell):  # serial mode: closures are fine
            executed.append(cell.label)
            return run_cell(cell)

        def progress(outcome):
            observed_at_callback.append((outcome.label, tuple(executed)))

        run_campaign(
            cells, workers=1, cache=False, runner=tracing_runner,
            progress=progress,
        )
        labels = [label for label, _ in observed_at_callback]
        assert labels == [cell.label for cell in cells]  # submission order
        first_label, executed_when_first_fired = observed_at_callback[0]
        # The first callback fired before the last cell had even started.
        assert cells[-1].label not in executed_when_first_fired

    def test_progress_fires_for_failures_too(self):
        cells = make_cells(["ok-a", "FAIL-b"])
        seen = []
        run_campaign(
            cells, workers=1, cache=False, runner=raise_for_marked,
            progress=lambda o: seen.append((o.label, o.ok)),
        )
        assert seen == [("ok-a", True), ("FAIL-b", False)]

    def test_progress_exceptions_do_not_corrupt_the_merge(self):
        cells = make_cells(["a", "b", "c"])
        reference = [run_cell(cell).value for cell in cells]

        def explosive(outcome):
            raise RuntimeError("broken progress bar")

        for workers in (1, 2):
            result = run_campaign(
                cells, workers=workers, cache=False, progress=explosive
            )
            assert result.values() == reference
            assert result.failed_cells == 0

    def test_progress_exception_surfaces_as_one_callback_error_event(
        self, tmp_path
    ):
        """Swallowed callback exceptions are not silent: the event log gets
        a single ``callback_error`` record (once, not once per cell)."""
        cells = make_cells(["a", "b", "c"])
        events = tmp_path / "events.jsonl"

        def explosive(outcome):
            raise RuntimeError("broken progress bar")

        run_campaign(
            cells, workers=1, cache=False, progress=explosive, events=events
        )
        records = [json.loads(line) for line in events.read_text().splitlines()]
        errors = [r for r in records if r["event"] == "callback_error"]
        assert len(errors) == 1
        assert errors[0]["error"] == "RuntimeError"
        assert "broken progress bar" in errors[0]["message"]

    def test_healthy_progress_emits_no_callback_error(self, tmp_path):
        cells = make_cells(["a"])
        events = tmp_path / "events.jsonl"
        run_campaign(
            cells, workers=1, cache=False, progress=lambda o: None,
            events=events,
        )
        records = [json.loads(line) for line in events.read_text().splitlines()]
        assert not [r for r in records if r["event"] == "callback_error"]


class TestEventLog:
    def test_lifecycle_events_for_a_clean_campaign(self, tmp_path):
        cells = make_cells(["a", "b"])
        events = tmp_path / "events.jsonl"
        run_campaign(cells, workers=1, cache=tmp_path / "cache", events=events)
        records = [json.loads(line) for line in events.read_text().splitlines()]
        kinds = [r["event"] for r in records]
        assert kinds[:2] == ["campaign_queued", "campaign_started"]
        assert kinds[-1] == "campaign_finished"
        assert kinds.count("cell_finished") == 2
        start = records[1]
        assert start["cells"] == 2 and start["workers"] == 1
        finished = [r for r in records if r["event"] == "cell_finished"]
        assert {r["label"] for r in finished} == {"a", "b"}
        for r in finished:
            assert r["cached"] is False
            assert r["wall_seconds"] > 0
            assert r["refs_per_second"] > 0
            assert r["references"] > 0
        end = records[-1]
        assert end["cells"] == 2 and end["failed"] == 0 and end["simulated"] == 2

    def test_cache_hits_retries_and_failures_are_logged(self, tmp_path):
        cells = make_cells(["a", "FAIL-b"])
        events = tmp_path / "events.jsonl"
        # Prime the cache with the healthy cell only.
        run_campaign(cells[:1], workers=1, cache=tmp_path / "cache", events=events)
        primed_lines = len(events.read_text().splitlines())

        attempts = {"n": 0}

        def flaky(cell):
            if "FAIL" in cell.label:
                attempts["n"] += 1
                if attempts["n"] == 1:
                    raise OSError("injected transient failure")
                raise ValueError("injected hard failure")
            return run_cell(cell)

        run_campaign(
            cells, workers=1, cache=tmp_path / "cache", events=events,
            runner=flaky, retries=3, backoff=0,
        )
        records = [json.loads(line) for line in events.read_text().splitlines()]
        second = records[primed_lines:]  # the second campaign's lines
        kinds = [r["event"] for r in second]
        assert "cell_retried" in kinds
        assert "cell_failed" in kinds
        cached = [r for r in second if r["event"] == "cell_finished"]
        assert cached and all(r["cached"] for r in cached)
        failed = next(r for r in second if r["event"] == "cell_failed")
        assert failed["label"] == "FAIL-b"
        assert failed["error"] == "ValueError"
        assert failed["attempts"] == 2
        finish = second[-1]
        assert finish["event"] == "campaign_finished"
        assert finish["failed"] == 1 and finish["retried"] == 1

    def test_event_log_environment_variable(self, tmp_path, monkeypatch):
        path = tmp_path / "env-events.jsonl"
        monkeypatch.setenv("REPRO_EVENT_LOG", str(path))
        run_campaign(make_cells(["a"]), workers=1, cache=False)
        kinds = [json.loads(l)["event"] for l in path.read_text().splitlines()]
        assert kinds[:2] == ["campaign_queued", "campaign_started"]
        assert kinds[-1] == "campaign_finished"

    def test_event_log_object_is_reusable_and_left_open(self, tmp_path):
        path = tmp_path / "shared.jsonl"
        with EventLog(path) as log:
            run_campaign(make_cells(["a"]), workers=1, cache=False, events=log)
            log.emit("custom_marker", note="still writable")
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines[-1]["event"] == "custom_marker"
