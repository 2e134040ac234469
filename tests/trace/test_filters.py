"""Tests for trace transformations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace import (
    AccessKind,
    Trace,
    TraceMetadata,
    concatenate,
    data_stream,
    instruction_stream,
    interleave_round_robin,
    merge_fetch_kinds,
    relocate,
    select_kinds,
    truncate,
)

from ..conftest import make_trace


class TestTruncate:
    def test_shortens(self, tiny_trace):
        assert len(truncate(tiny_trace, 3)) == 3

    def test_longer_than_trace_is_whole_trace(self, tiny_trace):
        assert truncate(tiny_trace, 100) == tiny_trace

    def test_negative_rejected(self, tiny_trace):
        with pytest.raises(ValueError, match="non-negative"):
            truncate(tiny_trace, -1)


class TestRelocate:
    def test_shifts_addresses(self, tiny_trace):
        moved = relocate(tiny_trace, 0x1000)
        assert (moved.addresses - tiny_trace.addresses == 0x1000).all()

    def test_negative_result_rejected(self, tiny_trace):
        with pytest.raises(ValueError, match="negative"):
            relocate(tiny_trace, -1)

    def test_zero_offset_is_identity(self, tiny_trace):
        assert relocate(tiny_trace, 0) == tiny_trace


class TestKindFilters:
    def test_instruction_stream(self, mixed_trace):
        stream = instruction_stream(mixed_trace)
        assert len(stream) == 5
        assert (stream.kinds == int(AccessKind.IFETCH)).all()

    def test_data_stream(self, mixed_trace):
        stream = data_stream(mixed_trace)
        assert len(stream) == 3
        assert set(stream.kinds.tolist()) <= {int(AccessKind.READ), int(AccessKind.WRITE)}

    def test_select_preserves_order(self, mixed_trace):
        stream = data_stream(mixed_trace)
        assert stream.addresses.tolist() == [0x2000, 0x2000, 0x2010]

    def test_merge_fetch_kinds(self, mixed_trace):
        merged = merge_fetch_kinds(mixed_trace)
        assert merged.count(AccessKind.IFETCH) == 0
        assert merged.count(AccessKind.READ) == 0
        assert merged.count(AccessKind.FETCH) == 7
        assert merged.count(AccessKind.WRITE) == 1

    def test_select_empty_result(self, tiny_trace):
        assert len(select_kinds(tiny_trace, [AccessKind.FETCH])) == 0


class TestConcatenate:
    def test_order(self, tiny_trace, mixed_trace):
        joined = concatenate([tiny_trace, mixed_trace])
        assert len(joined) == len(tiny_trace) + len(mixed_trace)
        assert joined[: len(tiny_trace)] == tiny_trace

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            concatenate([])


class TestInterleave:
    def _traces(self):
        a = make_trace([(AccessKind.READ, i * 4) for i in range(10)], name="A")
        b = make_trace([(AccessKind.READ, i * 4) for i in range(10)], name="B")
        return a, b

    def test_quantum_alternation(self):
        a, b = self._traces()
        mixed = interleave_round_robin([a, b], quantum=5, relocate_spacing=0x10000)
        # First 5 from A (offset 0), next 5 from B (offset 0x10000).
        assert mixed.addresses[:5].tolist() == [0, 4, 8, 12, 16]
        assert mixed.addresses[5:10].tolist() == [0x10000, 0x10004, 0x10008, 0x1000C, 0x10010]

    def test_total_length_default(self):
        a, b = self._traces()
        assert len(interleave_round_robin([a, b], quantum=3)) == 20

    def test_explicit_length_and_wraparound(self):
        a, b = self._traces()
        mixed = interleave_round_robin([a, b], quantum=8, length=50,
                                       relocate_spacing=0x10000)
        assert len(mixed) == 50
        # Programs restart after exhaustion rather than dropping out.
        assert int(mixed.addresses.max()) >= 0x10000

    def test_member_order_preserved(self):
        a, b = self._traces()
        mixed = interleave_round_robin([a, b], quantum=4, relocate_spacing=0x100000)
        from_a = mixed.addresses[mixed.addresses < 0x100000]
        # A's addresses appear in their original (possibly wrapped) order.
        deltas = np.diff(from_a)
        assert ((deltas == 4) | (deltas < 0)).all()

    def test_metadata_name(self):
        a, b = self._traces()
        mixed = interleave_round_robin([a, b], quantum=4)
        assert mixed.metadata.name == "mix(A+B)"

    def test_errors(self):
        a, _ = self._traces()
        with pytest.raises(ValueError, match="at least one"):
            interleave_round_robin([], quantum=4)
        with pytest.raises(ValueError, match="quantum"):
            interleave_round_robin([a], quantum=0)
        with pytest.raises(ValueError, match="empty"):
            interleave_round_robin([a, Trace.empty()], quantum=4)

    def test_auto_spacing_keeps_programs_disjoint(self):
        a = make_trace([(AccessKind.READ, 100)], name="A")
        b = make_trace([(AccessKind.READ, 100)], name="B")
        mixed = interleave_round_robin([a, b], quantum=1)
        assert len(set(mixed.addresses.tolist())) == 2


@settings(max_examples=25, deadline=None)
@given(
    lengths=st.lists(st.integers(1, 30), min_size=1, max_size=4),
    quantum=st.integers(1, 17),
    total=st.integers(1, 150),
)
def test_interleave_length_property(lengths, quantum, total):
    traces = [
        make_trace([(AccessKind.READ, i * 4) for i in range(n)], name=f"T{j}")
        for j, n in enumerate(lengths)
    ]
    mixed = interleave_round_robin(traces, quantum=quantum, length=total)
    assert len(mixed) == total


class TestTimeSampling:
    def test_window_selection(self):
        trace = make_trace([(AccessKind.READ, i * 4) for i in range(10)])
        from repro.trace import sample_time_windows

        sampled = sample_time_windows(trace, window=2, period=5)
        assert sampled.addresses.tolist() == [0, 4, 20, 24]

    def test_offset(self):
        trace = make_trace([(AccessKind.READ, i * 4) for i in range(10)])
        from repro.trace import sample_time_windows

        sampled = sample_time_windows(trace, window=1, period=4, offset=2)
        assert sampled.addresses.tolist() == [8, 24]

    def test_full_window_is_identity(self):
        trace = make_trace([(AccessKind.READ, i * 4) for i in range(7)])
        from repro.trace import sample_time_windows

        assert sample_time_windows(trace, window=3, period=3) == trace

    def test_validation(self, tiny_trace):
        from repro.trace import sample_time_windows

        with pytest.raises(ValueError, match="window"):
            sample_time_windows(tiny_trace, window=0, period=5)
        with pytest.raises(ValueError, match="window"):
            sample_time_windows(tiny_trace, window=6, period=5)
        with pytest.raises(ValueError, match="offset"):
            sample_time_windows(tiny_trace, window=1, period=2, offset=-1)

    def test_sampled_statistics_approximate_full(self):
        from repro.trace import characterize, sample_time_windows
        from repro.workloads import catalog

        full = catalog.generate("VCCOM", 40_000)
        sampled = sample_time_windows(full, window=2_000, period=8_000)
        full_row = characterize(full)
        sampled_row = characterize(sampled)
        assert abs(full_row.fraction_ifetch - sampled_row.fraction_ifetch) < 0.02
        assert abs(full_row.branch_fraction - sampled_row.branch_fraction) < 0.05

    def test_random_offset_is_seeded(self):
        from repro.trace import sample_time_windows

        trace = make_trace([(AccessKind.READ, i * 4) for i in range(40)])
        first = sample_time_windows(trace, window=2, period=10, offset=None, seed=7)
        again = sample_time_windows(trace, window=2, period=10, offset=None, seed=7)
        assert first.addresses.tolist() == again.addresses.tolist()
        drawn = first.metadata.extra["sampling"]["offset"]
        assert 0 <= drawn <= 8

    def test_random_offset_accepts_a_generator(self):
        from repro.trace import sample_time_windows

        trace = make_trace([(AccessKind.READ, i * 4) for i in range(40)])
        rng = np.random.default_rng(7)
        by_rng = sample_time_windows(trace, window=2, period=10, offset=None, rng=rng)
        by_seed = sample_time_windows(trace, window=2, period=10, offset=None, seed=7)
        assert by_rng.addresses.tolist() == by_seed.addresses.tolist()

    def test_default_seed_never_touches_global_state(self):
        from repro.trace import sample_time_windows

        trace = make_trace([(AccessKind.READ, i * 4) for i in range(40)])
        np.random.seed(1)
        first = sample_time_windows(trace, window=2, period=10, offset=None)
        np.random.seed(99)
        again = sample_time_windows(trace, window=2, period=10, offset=None)
        assert first.addresses.tolist() == again.addresses.tolist()

    def test_metadata_preserved_and_annotated(self):
        from repro.trace import sample_time_windows

        trace = make_trace(
            [(AccessKind.READ, i * 4) for i in range(20)], name="src"
        )
        sampled = sample_time_windows(trace, window=2, period=5)
        assert sampled.metadata.name == "src"
        assert sampled.metadata.architecture == trace.metadata.architecture
        assert sampled.metadata.extra["sampling"] == {
            "window": 2,
            "period": 5,
            "offset": 0,
        }
        # The source trace's metadata is untouched.
        assert "sampling" not in trace.metadata.extra
