"""Tests for the process-wide trace memo and the bytes charged to it."""

import gc
import random
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.analysis.mechanisms import mechanism_study
from repro.campaign import run_campaign
from repro.core import jobs
from repro.core.jobs import CampaignCell, StackSweepJob, TraceSpec
from repro.trace import AccessKind, Trace, stream
from repro.trace.memo import TRACE_MEMO, TraceMemo
from repro.workloads import catalog

from ..conftest import make_trace

LENGTH = 6_000
NAMES = ("ZGREP", "ZVI", "PLO", "VCCOM", "FGO1", "TWOD")


@pytest.fixture
def memo():
    """The process-wide memo, emptied before and after the test."""
    TRACE_MEMO.clear()
    yield TRACE_MEMO
    TRACE_MEMO.clear()


def _charged(trace):
    return trace._account.nbytes


def _held_total(memo):
    return sum(_charged(trace) for trace in memo._entries.values())


class TestCharging:
    def test_trace_is_charged_for_arrays_views_lists_and_artifacts(self):
        trace = make_trace([(AccessKind.READ, 8, 30), (AccessKind.WRITE, 64, 4)])
        arrays = trace.kinds.nbytes + trace.addresses.nbytes + trace.sizes.nbytes
        assert _charged(trace) == arrays
        view = trace.compiled(16)
        own = view.lines.nbytes + view.kinds.nbytes + view.positions.nbytes
        assert view.nbytes == own
        assert _charged(trace) == arrays + own
        view.as_lists()
        trace.raw_lists()
        with_lists = _charged(trace)
        assert with_lists > arrays + own
        view.memo("artifact", lambda: (view.lines.copy(), view.lines[1:]))
        assert _charged(trace) == with_lists + view.lines.nbytes
        # An artifact that only reuses charged buffers adds nothing.
        view.memo("reuse", lambda: (view.lines, trace.kinds[1:]))
        assert _charged(trace) == with_lists + view.lines.nbytes

    def test_dropped_views_and_artifacts_are_released(self):
        trace = make_trace([(AccessKind.READ, address, 4) for address in range(0, 640, 4)])
        base = _charged(trace)
        for line_size in (4, 8, 16, 32, 64, 128, 256):
            trace.compiled(line_size)
        assert _charged(trace) == base + sum(
            view.nbytes for view in trace._compiled.values()
        )
        view = trace.compiled(256)
        charged = _charged(trace)
        for index in range(stream._DERIVED_CACHE_ENTRIES + 3):
            view.memo(index, lambda: view.lines.copy())
        kept = stream._DERIVED_CACHE_ENTRIES * view.lines.nbytes
        assert _charged(trace) == charged + kept

    def test_dropped_trace_is_freed_without_the_cycle_collector(self):
        trace = make_trace([(AccessKind.READ, address, 8) for address in range(0, 256, 8)])
        view = trace.compiled(16)
        view.as_lists()
        artifact = view.memo("artifact", lambda: view.lines.copy())
        watched = [weakref.ref(array) for array in (view.lines, view.positions, artifact)]
        enabled = gc.isenabled()
        gc.disable()
        try:
            del trace, view, artifact
            assert all(ref() is None for ref in watched)
        finally:
            if enabled:
                gc.enable()

    def test_with_metadata_copy_is_not_charged_twice(self, memo):
        trace = catalog.generate("ZGREP", LENGTH)
        trace.raw_lists()
        copy = trace.with_metadata(name="relabelled")
        copy.compiled(16).as_lists()
        copy.raw_lists()
        trace.compiled(16).as_lists()
        alone = Trace(trace.kinds, trace.addresses, trace.sizes, validate=False)
        alone.compiled(16).as_lists()
        alone.raw_lists()
        assert _charged(trace) == _charged(alone)
        assert memo.nbytes == _charged(trace)


class TestBudget:
    def test_memo_stays_within_budget_over_a_trace_major_campaign(self, memo, monkeypatch):
        one = catalog.generate(NAMES[0], LENGTH)
        one.compiled(16)
        per_trace = _charged(one)
        memo.clear()
        monkeypatch.setattr(memo, "budget", 3 * per_trace)
        cells = [
            CampaignCell(f"{name}/{sizes[0]}", TraceSpec.catalog(name, LENGTH),
                         StackSweepJob(sizes=sizes))
            for name in NAMES
            for sizes in ((512,), (2048,))
        ]
        result = run_campaign(cells, workers=1, cache=False)
        assert all(outcome.ok for outcome in result.outcomes)
        assert 1 <= len(memo) < len(NAMES)
        assert memo.nbytes <= memo.budget
        assert memo.nbytes == _held_total(memo)
        # The most recent trace is the one kept last.
        assert catalog.trace_digest(NAMES[-1], LENGTH) in memo

    def test_newest_trace_is_never_evicted(self, memo, monkeypatch):
        monkeypatch.setattr(memo, "budget", 1)
        first = catalog.generate("ZGREP", LENGTH)
        newest = catalog.generate("ZVI", LENGTH)
        assert len(memo) == 1
        assert catalog.trace_digest("ZVI", LENGTH) in memo
        # Charges to the newest trace never push it out either.
        newest.compiled(16).as_lists()
        newest.raw_lists()
        assert catalog.trace_digest("ZVI", LENGTH) in memo
        assert memo.nbytes == _charged(newest) > memo.budget
        # A charge to an evicted trace is its own and no longer the memo's.
        first.compiled(16)
        assert memo.nbytes == _charged(newest)
        assert catalog.generate("ZVI", LENGTH) is newest

    def test_trace_major_mechanism_study_compiles_its_view_once(self, memo, monkeypatch):
        monkeypatch.setattr(memo, "budget", 1)
        built = []

        class Counting(stream.CompiledTrace):
            __slots__ = ()

            def __init__(self, trace, line_size):
                built.append(line_size)
                super().__init__(trace, line_size)

        monkeypatch.setattr(stream, "CompiledTrace", Counting)
        result = mechanism_study(
            workloads=["ZGREP"], length=LENGTH, workers=1, cache=False
        )
        assert len(("baseline",) + result.variant_names) == 7
        assert built == [16]

    def test_a_memo_may_be_given_its_own_budget(self):
        memo = TraceMemo(budget=0)
        trace = memo.get("a", lambda: make_trace([(AccessKind.READ, 0)]))
        assert memo.get("a", lambda: pytest.fail("rebuilt")) is trace
        memo.get("b", lambda: make_trace([(AccessKind.READ, 16)]))
        assert "a" not in memo and "b" in memo
        assert trace._account.memo is None


class TestThreads:
    def test_concurrent_lookups_and_charges_keep_the_total_exact(self):
        # Cells may run on threads; a lost update to the memo's total
        # would leave it out of step with the traces it holds.
        memo = TraceMemo(budget=40_000)
        addresses = np.arange(0, 4_000, 8)

        def build(key):
            return lambda: Trace(
                np.ones(len(addresses), dtype=np.int8), addresses + key * 65_536,
                np.full(len(addresses), 4, dtype=np.int32), validate=False,
            )

        errors = []

        def work(seed):
            rng = random.Random(seed)
            try:
                for _ in range(200):
                    key = rng.randrange(12)
                    trace = memo.get(key, build(key))
                    view = trace.compiled(rng.choice((4, 8, 16)))
                    view.memo(rng.randrange(3), lambda: np.zeros(64))
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(seed,)) for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert memo.nbytes == _held_total(memo)
        assert memo.nbytes <= memo.budget or len(memo) == 1


class TestClearing:
    @pytest.mark.parametrize(
        "clear", [jobs._build_trace.cache_clear, catalog._MEMO.clear],
        ids=["build_trace.cache_clear", "catalog._MEMO.clear"],
    )
    def test_either_reset_empties_the_one_memo(self, memo, clear):
        trace = make_trace([(AccessKind.READ, 0), (AccessKind.WRITE, 32)])
        TraceSpec.catalog("ZGREP", LENGTH).build()
        TraceSpec.inline(trace).build()
        assert len(memo) == 2 and memo.nbytes > 0
        clear()
        assert len(memo) == 0 and memo.nbytes == 0
