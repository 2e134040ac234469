"""Tests for the Trace container."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace import AccessKind, MemoryAccess, Trace, TraceMetadata

from ..conftest import make_trace


class TestConstruction:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="same length"):
            Trace([0, 1], [0], [4, 4])

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Trace([0], [-4], [4])

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="AccessKind"):
            Trace([9], [0], [4])

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            Trace([0], [0], [0])

    def test_empty(self):
        trace = Trace.empty()
        assert len(trace) == 0
        assert list(trace) == []

    def test_arrays_are_read_only(self, tiny_trace):
        with pytest.raises(ValueError):
            tiny_trace.addresses[0] = 99

    def test_from_accesses(self):
        accesses = [MemoryAccess(AccessKind.READ, 8, 2)]
        trace = Trace.from_accesses(accesses)
        assert trace[0] == accesses[0]

    def test_with_metadata(self, tiny_trace):
        renamed = tiny_trace.with_metadata(name="other")
        assert renamed.name == "other"
        assert tiny_trace.name == "test"
        assert renamed == tiny_trace  # metadata is not part of equality


class TestSequenceProtocol:
    def test_len_and_getitem(self, tiny_trace):
        assert len(tiny_trace) == 7
        assert tiny_trace[0] == MemoryAccess(AccessKind.READ, 0, 4)
        assert tiny_trace[-1].address == 16

    def test_slicing_returns_trace(self, tiny_trace):
        head = tiny_trace[:3]
        assert isinstance(head, Trace)
        assert len(head) == 3
        assert head.metadata is tiny_trace.metadata

    def test_iteration_matches_indexing(self, mixed_trace):
        assert list(mixed_trace) == [mixed_trace[i] for i in range(len(mixed_trace))]

    def test_equality(self, tiny_trace):
        clone = Trace(tiny_trace.kinds, tiny_trace.addresses, tiny_trace.sizes)
        assert clone == tiny_trace
        assert tiny_trace != tiny_trace[:3]

    def test_repr_contains_name(self, tiny_trace):
        assert "test" in repr(tiny_trace)


class TestStatistics:
    def test_count_and_fractions(self, mixed_trace):
        assert mixed_trace.count(AccessKind.IFETCH) == 5
        fractions = mixed_trace.kind_fractions()
        assert fractions[AccessKind.IFETCH] == pytest.approx(5 / 8)
        assert fractions[AccessKind.WRITE] == pytest.approx(1 / 8)
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_empty_fractions_are_zero(self):
        fractions = Trace.empty().kind_fractions()
        assert all(value == 0.0 for value in fractions.values())

    def test_footprint_lines(self):
        trace = make_trace(
            [(AccessKind.READ, 0), (AccessKind.READ, 8), (AccessKind.READ, 16)]
        )
        assert trace.footprint_lines(16) == 2

    def test_footprint_straddle_counts_both_lines(self):
        trace = make_trace([(AccessKind.READ, 14, 4)])
        assert trace.footprint_lines(16) == 2

    def test_footprint_wide_access_counts_interior(self):
        trace = make_trace([(AccessKind.READ, 0, 64)])
        assert trace.footprint_lines(16) == 4

    def test_footprint_kind_filter(self, mixed_trace):
        data_lines = mixed_trace.footprint_lines(
            16, [AccessKind.READ, AccessKind.WRITE]
        )
        assert data_lines == 2  # 0x2000 and 0x2010

    def test_footprint_requires_power_of_two(self, tiny_trace):
        with pytest.raises(ValueError, match="power of two"):
            tiny_trace.footprint_lines(10)

    def test_address_space_bytes(self, tiny_trace):
        assert tiny_trace.address_space_bytes(16) == 5 * 16


@settings(max_examples=30, deadline=None)
@given(
    addresses=st.lists(st.integers(0, 2**20), min_size=1, max_size=50),
    kind=st.sampled_from(list(AccessKind)),
)
def test_footprint_never_exceeds_reference_count_times_two(addresses, kind):
    trace = make_trace([(kind, a) for a in addresses])
    # 4-byte accesses can touch at most two 16-byte lines each.
    assert 1 <= trace.footprint_lines(16) <= 2 * len(addresses)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2**30)), min_size=0, max_size=60))
def test_roundtrip_through_accessors(pairs):
    trace = Trace(
        [k for k, _ in pairs], [a for _, a in pairs], [4] * len(pairs), TraceMetadata()
    )
    rebuilt = Trace.from_accesses(list(trace))
    assert rebuilt == trace
    assert np.array_equal(rebuilt.kinds, trace.kinds)


class TestCompiledView:
    def test_expansion_matches_engine_semantics(self):
        # 30-byte access at 8 straddles lines 0 and 2 of 16B: lines 0,1,2.
        trace = make_trace([(AccessKind.READ, 8, 30), (AccessKind.IFETCH, 64, 4)])
        compiled = trace.compiled(16)
        assert compiled.lines.tolist() == [0, 1, 2, 4]
        assert compiled.kinds.tolist() == [1, 1, 1, 0]
        # Positions are original trace indices, fixed before expansion.
        assert compiled.positions.tolist() == [0, 0, 0, 1]

    def test_no_straddle_fast_path(self):
        trace = make_trace([(AccessKind.READ, 0, 4), (AccessKind.READ, 16, 4)])
        compiled = trace.compiled(16)
        assert len(compiled) == 2
        assert compiled.positions.tolist() == [0, 1]

    def test_memoized_per_line_size(self):
        trace = make_trace([(AccessKind.READ, 0, 4)])
        assert trace.compiled(16) is trace.compiled(16)
        assert trace.compiled(16) is not trace.compiled(32)

    def test_memo_is_bounded(self):
        trace = make_trace([(AccessKind.READ, 0, 4)])
        first = trace.compiled(2)
        for size in (4, 8, 16, 32):  # evicts the least recently used entry
            trace.compiled(size)
        assert trace.compiled(2) is not first

    def test_cut_maps_reference_limit_to_expanded_length(self):
        trace = make_trace([(AccessKind.READ, 8, 30), (AccessKind.IFETCH, 64, 4)])
        compiled = trace.compiled(16)
        assert compiled.cut(0) == 0
        assert compiled.cut(1) == 3  # the straddling access expanded to 3
        assert compiled.cut(2) == 4

    def test_arrays_read_only(self):
        compiled = make_trace([(AccessKind.READ, 8, 30)]).compiled(16)
        with pytest.raises(ValueError):
            compiled.lines[0] = 99

    def test_raw_lists_memoized_and_consistent(self):
        trace = make_trace([(AccessKind.READ, 0, 4), (AccessKind.WRITE, 20, 8)])
        kinds, addresses, sizes = trace.raw_lists()
        assert kinds is trace.raw_lists()[0]
        assert kinds == trace.kinds.tolist()
        assert addresses == trace.addresses.tolist()
        assert sizes == trace.sizes.tolist()

    def test_with_metadata_shares_compiled_views(self):
        # Renaming a trace does not change its references, so the compiled
        # views (and everything memoized on them — stack profiles, raw
        # lists) must carry over instead of being rebuilt per label.
        trace = make_trace([(AccessKind.READ, 8, 30), (AccessKind.IFETCH, 64, 4)])
        view = trace.compiled(16)
        raw = trace.raw_lists()
        renamed = trace.with_metadata(name="relabelled")
        assert renamed.metadata.name == "relabelled"
        assert renamed.compiled(16) is view
        assert renamed.raw_lists()[0] is raw[0]
        # And the shared memo keeps working in both directions: a view
        # compiled on the copy is visible from the original.
        new_view = renamed.compiled(32)
        assert trace.compiled(32) is new_view

    def test_derived_traces_have_isolated_memos(self):
        # A sampled sub-trace must never collide with or evict its
        # parent's compiled views (slices and time-sampled windows are
        # cut out of traces whose full-trace views are still in use).
        parent = make_trace(
            [(AccessKind.READ, 16 * i) for i in range(64)]
        )
        parent_view = parent.compiled(16)
        window = parent[8:24]
        window_view = window.compiled(16)
        assert window_view is not parent_view
        assert len(window_view.lines) == 16
        # The parent's memo still holds the original full-length view.
        assert parent.compiled(16) is parent_view
        assert len(parent_view.lines) == 64
