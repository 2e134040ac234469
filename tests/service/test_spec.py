"""Tests for the service wire format: spec round-trips and summaries."""

import math

import pytest

from repro.core.jobs import (
    AssociativitySweepJob,
    CampaignCell,
    MechanismStudyJob,
    SimulateJob,
    StackSweepJob,
    TraceSpec,
    cell_key,
    run_cell,
)
from repro.core.misspath import MechanismConfig
from repro.service.spec import (
    SpecError,
    decode_cells,
    encode_cells,
    summarize_value,
)

LENGTH = 4_000


def roundtrip(cell):
    """Encode → JSON document → decode, returning the reconstructed cell."""
    (decoded,) = decode_cells({"cells": encode_cells([cell])})
    return decoded


class TestRoundTrip:
    """Every wire-capable cell must survive the trip with its key intact."""

    CELLS = [
        CampaignCell(
            "sim",
            TraceSpec.catalog("ZGREP", LENGTH),
            SimulateJob(size=1024, line_size=32, associativity=2, split=True),
        ),
        CampaignCell(
            "sweep",
            TraceSpec.catalog("PLO", LENGTH),
            StackSweepJob(sizes=(512, 2048), purge_interval=1_000),
        ),
        CampaignCell(
            "assoc",
            TraceSpec.catalog("ZGREP", LENGTH),
            AssociativitySweepJob(ways=(1, 2, None), capacities=(1024, 4096)),
        ),
        CampaignCell(
            "mech",
            TraceSpec.catalog("ZGREP", LENGTH),
            MechanismStudyJob(
                size=1024,
                mechanisms=MechanismConfig(victim_entries=4, stream_buffers=1),
            ),
        ),
        CampaignCell(
            "mix",
            TraceSpec.mix("pair", ("ZGREP", "PLO"), quantum=500, length=LENGTH),
            SimulateJob(size=1024),
        ),
    ]

    @pytest.mark.parametrize("cell", CELLS, ids=[c.label for c in CELLS])
    def test_key_survives_the_wire(self, cell):
        assert cell_key(roundtrip(cell)) == cell_key(cell)

    @pytest.mark.parametrize("cell", CELLS, ids=[c.label for c in CELLS])
    def test_label_survives_the_wire(self, cell):
        assert roundtrip(cell).label == cell.label


class TestRejections:
    def test_inline_traces_cannot_travel(self, tiny_trace):
        cell = CampaignCell(
            "inline", TraceSpec.inline(tiny_trace), SimulateJob(size=1024)
        )
        with pytest.raises(SpecError, match="inline"):
            encode_cells([cell])

    def test_empty_document(self):
        with pytest.raises(SpecError, match="non-empty"):
            decode_cells({"cells": []})

    def test_not_a_list(self):
        with pytest.raises(SpecError):
            decode_cells({"cells": "yes please"})

    def test_unknown_job_type(self):
        with pytest.raises(SpecError, match="unknown job type"):
            decode_cells(
                {"cells": [{"trace": {"kind": "catalog", "name": "ZGREP"},
                            "job": {"type": "frobnicate"}}]}
            )

    def test_unknown_trace_kind(self):
        with pytest.raises(SpecError, match="unknown trace spec kind"):
            decode_cells(
                {"cells": [{"trace": {"kind": "telepathy"},
                            "job": {"type": "simulate", "size": 1024}}]}
            )

    @pytest.mark.parametrize("trace", [
        {"kind": "catalog", "name": "NOPE"},
        {"kind": "mix", "members": ["ZGREP", "NOPE"], "quantum": 1000},
    ])
    def test_unknown_catalog_trace(self, trace):
        with pytest.raises(SpecError, match="unknown catalog trace 'NOPE'"):
            decode_cells({"cells": [{"trace": trace, "job": {"type": "simulate", "size": 1024}}]})

    def test_simulate_needs_a_size(self):
        with pytest.raises(SpecError, match="size"):
            decode_cells(
                {"cells": [{"trace": {"kind": "catalog", "name": "ZGREP"},
                            "job": {"type": "simulate"}}]}
            )

    def test_cell_ceiling(self):
        doc = {"cells": [{"trace": {"kind": "catalog", "name": "ZGREP"},
                          "job": {"type": "simulate", "size": 1024}}] * 3}
        with pytest.raises(SpecError, match="caps"):
            decode_cells(doc, max_cells=2)

    def test_default_label_is_derived(self):
        (cell,) = decode_cells(
            {"cells": [{"trace": {"kind": "catalog", "name": "ZGREP"},
                        "job": {"type": "simulate", "size": 1024}}]}
        )
        assert "ZGREP" in cell.label


class TestSummaries:
    def test_report_summary_carries_the_miss_ratios(self):
        cell = CampaignCell(
            "sim", TraceSpec.catalog("ZGREP", LENGTH), SimulateJob(size=1024)
        )
        report = run_cell(cell).value
        summary = summarize_value(report)
        assert summary["type"] == "report"
        assert summary["references"] == report.references
        assert summary["miss_ratio"] == pytest.approx(report.miss_ratio)

    def test_mechanism_summary_has_per_mechanism_blocks(self):
        cell = CampaignCell(
            "mech",
            TraceSpec.catalog("ZGREP", LENGTH),
            MechanismStudyJob(
                size=1024, mechanisms=MechanismConfig(victim_entries=4)
            ),
        )
        summary = summarize_value(run_cell(cell).value)
        assert "effective_miss_ratio" in summary
        assert "victim" in " ".join(summary["mechanisms"])

    def test_curves_and_surfaces(self):
        assert summarize_value((0.5, 0.25)) == {
            "type": "curve", "curve": [0.5, 0.25]
        }
        surface = summarize_value(((0.5,), (0.25,)))
        assert surface["type"] == "surface"

    def test_nan_becomes_null(self):
        summary = summarize_value((math.nan, 0.5))
        assert summary["curve"] == [None, 0.5]


class TestSamplingSpec:
    """A sampling plan is no longer part of the wire format: any
    ``sampling`` document is a spec error naming the field, so a client
    that still sends one is refused rather than silently run exact."""

    CELLS = [
        {
            "label": "c",
            "trace": {"kind": "catalog", "name": "ZGREP", "length": LENGTH},
            "job": {"type": "simulate", "size": 1024},
        }
    ]

    def reject(self, sampling):
        with pytest.raises(SpecError, match="'sampling'"):
            decode_cells({"cells": self.CELLS, "sampling": sampling})

    def test_unknown_family_rejected(self):
        for family in ("interval", "set", "representative", "clairvoyant"):
            self.reject({"plan": family})

    def test_non_object_rejected(self):
        self.reject(["representative"])

    def test_invalid_parameters_become_spec_errors(self):
        self.reject({"plan": "representative", "clusters": 0})
        self.reject({"plan": "interval", "fraction": 2.0})

    def test_summarize_sampling_of_exact_cell_is_empty(self):
        cell = CampaignCell(
            label="c",
            trace=TraceSpec.catalog("ZGREP", LENGTH),
            job=SimulateJob(size=2048, line_size=16),
        )
        summary = summarize_value(run_cell(cell).value)
        assert summary["type"] == "report"
        assert "sampling" not in summary
