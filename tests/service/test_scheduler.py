"""Tests for the async scheduler: lifecycle, event streams, and the
three dedupe layers (cache, in-flight sharing, cross-scheduler claims)."""

import asyncio
import os
import socket
import subprocess
import sys

import pytest

from repro.core.jobs import CampaignCell, SimulateJob, StackSweepJob, TraceSpec
from repro.service.backends import BackendCrash, InlineBackend, PoolBackend
from repro.service.queue import QuotaExceeded
from repro.service.scheduler import Scheduler, _CellClaims

from .helpers import (
    crash_on_marker,
    fail_on_marker,
    fake_run,
    hang_on_marker,
    slow_fake_run,
    stall_in_pool_worker,
)

LENGTH = 4_000


def make_cells(count=3, offset=0):
    """Cells with distinct lengths, so each has a distinct cache key."""
    return [
        CampaignCell(
            f"cell-{offset + i}",
            TraceSpec.catalog("ZGREP", LENGTH + offset + i),
            StackSweepJob(sizes=(512, 2048)),
        )
        for i in range(count)
    ]


async def run_to_done(scheduler, cells, **kwargs):
    """Submit one campaign and wait for its terminal event."""
    state = scheduler.submit(cells, **kwargs)
    async for _ in scheduler.stream_events(state):
        pass
    return state


def sources(state):
    return [o.source for o in state.outcomes]


def summaries(state):
    """The summarized values ``GET /campaigns/{id}`` reports, in order."""
    return [doc["value"] for doc in state.describe()["results"]]


class TestLifecycle:
    def test_campaign_runs_to_done_with_ordered_outcomes(self, tmp_path):
        async def body():
            scheduler = Scheduler(
                InlineBackend(capacity=2, runner=fake_run),
                cache=tmp_path / "cache",
            )
            await scheduler.start()
            try:
                state = await run_to_done(scheduler, make_cells(3))
            finally:
                await scheduler.close()
            return state

        state = asyncio.run(body())
        assert state.status == "done"
        assert [o.label for o in state.outcomes] == [
            "cell-0", "cell-1", "cell-2"
        ]
        kinds = [e["event"] for e in state.events]
        assert kinds[0] == "campaign_queued"
        assert kinds[1] == "campaign_started"
        assert kinds[-1] == "campaign_finished"
        assert kinds.count("cell_finished") == 3
        assert state.counts()["simulated"] == 3

    def test_event_stream_replays_for_late_joiners(self, tmp_path):
        async def body():
            scheduler = Scheduler(
                InlineBackend(runner=fake_run), cache=tmp_path / "cache"
            )
            await scheduler.start()
            try:
                state = await run_to_done(scheduler, make_cells(2))
                replay = [e async for e in scheduler.stream_events(state)]
            finally:
                await scheduler.close()
            return state, replay

        state, replay = asyncio.run(body())
        assert replay == state.events

    def test_failed_cells_leave_the_campaign_done_not_hung(self, tmp_path):
        async def body():
            scheduler = Scheduler(
                InlineBackend(runner=fail_on_marker), cache=tmp_path / "cache"
            )
            await scheduler.start()
            try:
                cells = make_cells(1) + [
                    CampaignCell(
                        "FAIL-cell",
                        TraceSpec.catalog("ZGREP", LENGTH + 99),
                        StackSweepJob(sizes=(512,)),
                    )
                ]
                state = await run_to_done(scheduler, cells)
            finally:
                await scheduler.close()
            return state

        state = asyncio.run(body())
        assert state.status == "done"
        counts = state.counts()
        assert counts["failed"] == 1 and counts["finished"] == 2
        failed = state.outcomes[1]
        assert failed.ok is False and failed.error.type == "ValueError"
        assert any(e["event"] == "cell_failed" for e in state.events)

    def test_backend_crash_becomes_a_failed_outcome(self, tmp_path):
        class CrashingBackend:
            name = "crashing"
            capacity = 1

            async def start(self):
                pass

            async def run(self, cell):
                raise BackendCrash("vehicle lost")

            async def close(self):
                pass

        async def body():
            scheduler = Scheduler(CrashingBackend(), cache=tmp_path / "cache")
            await scheduler.start()
            try:
                state = await run_to_done(scheduler, make_cells(2))
            finally:
                await scheduler.close()
            return state

        state = asyncio.run(body())
        assert state.status == "done"
        assert state.counts()["failed"] == 2
        assert all(o.error.type == "BackendCrash" for o in state.outcomes)

    def test_quota_rejects_at_submit(self, tmp_path):
        async def body():
            scheduler = Scheduler(
                InlineBackend(runner=fake_run),
                cache=tmp_path / "cache",
                quota=1,
            )
            # Not started: the first campaign stays queued (outstanding).
            scheduler.submit(make_cells(1), user="alice")
            with pytest.raises(QuotaExceeded):
                scheduler.submit(make_cells(1, offset=5), user="alice")
            scheduler.submit(make_cells(1, offset=9), user="bob")
            await scheduler.close()

        asyncio.run(body())

    def test_empty_campaign_rejected(self, tmp_path):
        async def body():
            scheduler = Scheduler(
                InlineBackend(runner=fake_run), cache=tmp_path / "cache"
            )
            with pytest.raises(ValueError):
                scheduler.submit([])
            await scheduler.close()

        asyncio.run(body())


class TestDedupe:
    def test_second_campaign_is_served_from_cache(self, tmp_path):
        async def body():
            scheduler = Scheduler(
                InlineBackend(runner=fake_run), cache=tmp_path / "cache"
            )
            await scheduler.start()
            try:
                first = await run_to_done(scheduler, make_cells(3))
                second = await run_to_done(scheduler, make_cells(3))
            finally:
                await scheduler.close()
            return first, second

        first, second = asyncio.run(body())
        assert sources(first) == ["run", "run", "run"]
        assert sources(second) == ["cache", "cache", "cache"]
        assert summaries(first) == summaries(second)

    def test_overlapping_campaigns_share_in_flight_cells(self, tmp_path):
        async def body():
            scheduler = Scheduler(
                InlineBackend(capacity=4, runner=slow_fake_run),
                cache=tmp_path / "cache",
            )
            await scheduler.start()
            try:
                cells = make_cells(3)
                one = scheduler.submit(cells, user="alice")
                two = scheduler.submit(cells, user="bob")
                await asyncio.gather(
                    run_to_done_state(scheduler, one),
                    run_to_done_state(scheduler, two),
                )
            finally:
                await scheduler.close()
            return one, two

        one, two = asyncio.run(body())
        runs = sources(one).count("run") + sources(two).count("run")
        shared = sources(one).count("shared") + sources(two).count("shared")
        cached = sources(one).count("cache") + sources(two).count("cache")
        # Each distinct cell executed exactly once; the other campaign's
        # copies were satisfied by sharing or the by-then-warm cache.
        assert runs == 3
        assert shared + cached == 3
        assert summaries(one) == summaries(two)

    def test_two_schedulers_sharing_a_cache_dir_simulate_each_cell_once(
        self, tmp_path
    ):
        """The cross-process claim protocol, exercised by two independent
        scheduler instances over one cache directory: overlapping
        campaigns must not multiply work, and the event logs prove it."""

        async def body():
            cache = tmp_path / "shared-cache"
            schedulers = [
                Scheduler(
                    InlineBackend(capacity=4, runner=slow_fake_run),
                    cache=cache,
                    poll=0.01,
                )
                for _ in range(2)
            ]
            for scheduler in schedulers:
                await scheduler.start()
            try:
                cells = make_cells(4)
                states = [s.submit(cells, user=f"u{i}")
                          for i, s in enumerate(schedulers)]
                await asyncio.gather(
                    *(
                        run_to_done_state(scheduler, state)
                        for scheduler, state in zip(schedulers, states)
                    )
                )
            finally:
                for scheduler in schedulers:
                    await scheduler.close()
            return states

        states = asyncio.run(body())
        assert all(state.status == "done" for state in states)
        # The dedupe invariant: cell_finished events with source == "run"
        # across *all* schedulers count actual simulations.
        simulated = sum(
            1
            for state in states
            for event in state.events
            if event["event"] == "cell_finished" and event["source"] == "run"
        )
        assert simulated == 4
        values = [summaries(state) for state in states]
        assert values[0] == values[1]

    def test_claim_files_are_cleaned_up(self, tmp_path):
        async def body():
            cache = tmp_path / "cache"
            scheduler = Scheduler(
                InlineBackend(runner=fake_run), cache=cache
            )
            await scheduler.start()
            try:
                await run_to_done(scheduler, make_cells(2))
            finally:
                await scheduler.close()
            return list(cache.rglob("*.claim"))

        assert asyncio.run(body()) == []


async def run_to_done_state(scheduler, state):
    async for _ in scheduler.stream_events(state):
        pass
    return state


class TestCancellation:
    def test_cancel_queued_campaign(self, tmp_path):
        async def body():
            scheduler = Scheduler(
                InlineBackend(capacity=1, runner=slow_fake_run),
                cache=tmp_path / "cache",
                max_active=1,
            )
            await scheduler.start()
            try:
                running = scheduler.submit(make_cells(2))
                await asyncio.sleep(0.05)
                queued = scheduler.submit(make_cells(1, offset=10))
                assert queued.status == "queued"
                assert scheduler.cancel(queued.id) is True
                async for _ in scheduler.stream_events(queued):
                    pass
                async for _ in scheduler.stream_events(running):
                    pass
            finally:
                await scheduler.close()
            return running, queued

        running, queued = asyncio.run(body())
        assert queued.status == "cancelled"
        kinds = [e["event"] for e in queued.events]
        assert "campaign_cancelled" in kinds
        assert kinds[-1] == "campaign_finished"
        assert queued.events[-1]["status"] == "cancelled"
        # The other campaign was untouched and the queue kept draining.
        assert running.status == "done"

    def test_cancel_running_campaign(self, tmp_path):
        async def body():
            scheduler = Scheduler(
                InlineBackend(capacity=1, runner=slow_fake_run),
                cache=tmp_path / "cache",
            )
            await scheduler.start()
            try:
                state = scheduler.submit(make_cells(3))
                while state.status != "running":
                    await asyncio.sleep(0.01)
                assert scheduler.cancel(state.id) is True
                async for _ in scheduler.stream_events(state):
                    pass
                # The scheduler still runs later campaigns to completion.
                follow_up = await run_to_done(scheduler, make_cells(1, offset=20))
            finally:
                await scheduler.close()
            return state, follow_up

        state, follow_up = asyncio.run(body())
        assert state.status == "cancelled"
        kinds = [e["event"] for e in state.events]
        assert "campaign_cancelled" in kinds
        assert state.events[-1]["status"] == "cancelled"
        assert follow_up.status == "done"

    def test_cancel_unknown_campaign_raises(self, tmp_path):
        async def body():
            scheduler = Scheduler(
                InlineBackend(capacity=1, runner=fake_run),
                cache=tmp_path / "cache",
            )
            await scheduler.start()
            try:
                with pytest.raises(KeyError):
                    scheduler.cancel("c999999-deadbeef")
            finally:
                await scheduler.close()

        asyncio.run(body())

    def test_cancel_terminal_campaign_is_a_no_op(self, tmp_path):
        async def body():
            scheduler = Scheduler(
                InlineBackend(capacity=2, runner=fake_run),
                cache=tmp_path / "cache",
            )
            await scheduler.start()
            try:
                state = await run_to_done(scheduler, make_cells(1))
                assert scheduler.cancel(state.id) is False
            finally:
                await scheduler.close()
            return state

        state = asyncio.run(body())
        assert state.status == "done"
        assert all(e["event"] != "campaign_cancelled" for e in state.events)


def labelled_cells(*labels):
    return [
        CampaignCell(
            label,
            TraceSpec.catalog("ZGREP", LENGTH + 50 + i),
            StackSweepJob(sizes=(512,)),
        )
        for i, label in enumerate(labels)
    ]


def run_one_campaign(backend, cells, cache, **options):
    async def body():
        scheduler = Scheduler(backend, cache=cache, **options)
        await scheduler.start()
        try:
            return await run_to_done(scheduler, cells)
        finally:
            await scheduler.close()

    return asyncio.run(body())


def events_of(state, kind):
    return [e for e in state.events if e["event"] == kind]


class TestRetriesAndTimeouts:
    def test_transient_failure_is_retried(self, tmp_path):
        calls = []

        def flaky(cell):  # inline backend: closures are fine
            calls.append(cell.label)
            if len(calls) == 1:
                raise OSError("injected transient failure")
            return fake_run(cell)

        state = run_one_campaign(
            InlineBackend(runner=flaky), make_cells(1), tmp_path / "cache",
            backoff=0,
        )
        assert state.status == "done"
        assert state.outcomes[0].ok is True
        retried = events_of(state, "cell_retried")
        assert len(retried) == 1
        assert retried[0]["error"] == "OSError" and retried[0]["attempt"] == 1
        assert events_of(state, "cell_finished")[0]["attempts"] == 2

    def test_pool_cell_obeys_the_cell_timeout(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", "0.5")
        # Two workers: HANG and BUSY start together, and only HANG's
        # worker is terminated when its limit runs out.
        backend = PoolBackend(workers=2, runner=stall_in_pool_worker)
        state = run_one_campaign(
            backend, labelled_cells("HANG", "BUSY"), tmp_path / "cache"
        )
        assert state.status == "done"
        hung, busy = state.outcomes
        assert hung.ok is False and hung.error.type == "TimeoutError"
        assert "REPRO_CELL_TIMEOUT" in hung.error.message
        assert busy.ok is True
        assert [e["label"] for e in events_of(state, "pool_terminated")] == ["HANG"]
        assert not events_of(state, "cell_retried")
        assert [e["attempts"] for e in events_of(state, "cell_finished")] == [1]
        assert backend.respawns == 1

    def test_one_worker_pool_respawns_after_a_timeout(self, tmp_path):
        # The only worker is terminated when HANG times out; the cell
        # after it runs on the worker that replaces it.
        backend = PoolBackend(workers=1, runner=hang_on_marker)
        state = run_one_campaign(
            backend, labelled_cells("ok", "HANG", "after"), tmp_path / "cache",
            timeout=0.5,
        )
        assert state.status == "done"
        ok, hung, after = state.outcomes
        assert ok.ok is True and after.ok is True
        assert hung.ok is False and hung.error.type == "TimeoutError"
        assert backend.respawns == 1

    def test_pool_worker_crash_never_fails_a_sibling(self, tmp_path):
        # CRASH kills its worker on every attempt while SLOW, a second's
        # work, runs on the other worker: only CRASH pays for it.
        backend = PoolBackend(workers=2, runner=crash_on_marker)
        cells = labelled_cells("CRASH", "SLOW")
        state = run_one_campaign(
            backend, cells, tmp_path / "cache", retries=2, backoff=0
        )
        assert state.status == "done"
        crashed, sibling = state.outcomes
        assert crashed.ok is False and crashed.error.type == "BackendCrash"
        assert sibling.ok is True
        assert {e["label"] for e in events_of(state, "cell_retried")} == {"CRASH"}
        (finished,) = events_of(state, "cell_finished")
        assert finished["label"] == "SLOW" and finished["attempts"] == 1
        assert backend.respawns == 3


KEY = "ab" + "0" * 62


class TestClaimOwnership:
    """Claim files hold an owner token; no sleeps, no timing."""

    def plant(self, claims, content):
        path = claims._path(KEY)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content, encoding="utf-8")
        return path

    def test_claim_records_the_owner_token(self, tmp_path):
        claims = _CellClaims(tmp_path, timeout=300)
        assert claims.try_claim(KEY)
        host, pid, _ = claims._path(KEY).read_text().split()
        assert (host, pid) == (socket.gethostname(), str(os.getpid()))
        claims.release(KEY)
        assert not claims._path(KEY).exists()

    def test_release_leaves_a_foreign_claim(self, tmp_path):
        claims = _CellClaims(tmp_path, timeout=300)
        path = self.plant(claims, "elsewhere 1 feedface\n")
        claims.release(KEY)
        assert path.read_text() == "elsewhere 1 feedface\n"
        assert not claims.try_claim(KEY)  # fresh and foreign: still held

    def test_live_local_claim_is_held(self, tmp_path):
        owner = _CellClaims(tmp_path, timeout=300)
        other = _CellClaims(tmp_path, timeout=300)
        assert owner.try_claim(KEY)
        assert not other.try_claim(KEY)
        other.release(KEY)
        assert owner._path(KEY).read_text().strip() == owner.token

    def test_dead_pid_claim_is_taken_on_the_first_try(self, tmp_path):
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()
        claims = _CellClaims(tmp_path, timeout=300)
        path = self.plant(claims, f"{claims.host} {child.pid} deadbeef\n")
        assert claims.try_claim(KEY)
        assert path.read_text().strip() == claims.token
