"""Tests for the service wire format: spec round-trips and summaries."""

import math

import pytest

from repro.core.jobs import (
    AssociativitySweepJob,
    CampaignCell,
    SimulateJob,
    StackSweepJob,
    TraceSpec,
    cell_key,
    job_document,
    job_from_document,
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
            SimulateJob(
                size=1024,
                mechanisms=MechanismConfig(victim_entries=4, stream_buffers=1),
            ),
        ),
        CampaignCell(
            "mix",
            TraceSpec.mix("pair", ("ZGREP", "PLO"), quantum=500, length=LENGTH),
            SimulateJob(size=1024),
        ),
        CampaignCell(
            "sector",
            TraceSpec.catalog("ZGREP", LENGTH),
            SimulateJob(size=256, subblock=4, purge_interval=20_000),
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


def cell_doc(job=None, trace=None):
    """A one-cell spec document; ``job`` fields without a ``type`` extend a
    1 KB simulate job, ``trace`` fields a ZGREP catalog trace."""
    job = job or {}
    return {"cells": [{
        "trace": {"kind": "catalog", "name": "ZGREP", "length": LENGTH, **(trace or {})},
        "job": job if "type" in job else {"type": "simulate", "size": 1024, **job},
    }]}


#: Values the decoder must refuse (most of them it once coerced or let
#: through), each with the field its refusal must name.
BAD_FIELDS = [
    ({"split": "false"}, None, "split"),
    ({"size": 1024.9}, None, "size"),
    ({"associativity": True}, None, "associativity"),
    ({"line_size": 16.5}, None, "line_size"),
    ({"write": "copyback"}, None, "write"),
    ({"replacement": "lru2"}, None, "replacement"),
    ({"fetch": "eager"}, None, "fetch"),
    ({"warmup": None}, None, "warmup"),
    ({"purge_intreval": 1000}, None, "purge_intreval"),
    ({"engine": "generic"}, None, "engine"),
    ({"mechanisms": {"victim_entries": "4"}}, None, "victim_entries"),
    ({"mechanisms": {"victim": 4}}, None, "victim"),
    ({"mechanisms": [4]}, None, "mechanisms"),
    ({"subblock": "4"}, None, "subblock"),
    ({"subblock": 4.0}, None, "subblock"),
    ({"subblock": True}, None, "subblock"),
    ({"type": "stack-sweep", "sizes": [512, 2048.0]}, None, "sizes"),
    ({"type": "stack-sweep", "sizes": []}, None, "sizes"),
    ({"type": "stack-sweep", "sizes": [512], "kinds": "0"}, None, "kinds"),
    ({"type": "associativity-sweep", "ways": [1, True],
      "capacities": [1024]}, None, "ways"),
    (None, {"length": "4000"}, "length"),
    (None, {"kind": "mix", "members": ["ZGREP", "PLO"], "quantum": "500"},
     "quantum"),
    (None, {"kind": "mix", "members": ["ZGREP", "PLO"], "quantum": 500,
            "total": 1e4}, "total"),
]


class TestStrictDecoding:
    """A value its field cannot hold is a spec error naming the field,
    never coerced into a different experiment."""

    @pytest.mark.parametrize("job, trace, field", BAD_FIELDS,
                             ids=[f for _, _, f in BAD_FIELDS])
    def test_bad_field_is_named(self, job, trace, field):
        with pytest.raises(SpecError, match=field):
            decode_cells(cell_doc(job, trace))

    def test_retired_mechanism_study_type(self):
        with pytest.raises(SpecError, match="unknown job type 'mechanism-study'"):
            decode_cells(cell_doc({"type": "mechanism-study"}))

    def test_local_jobs_refuse_unknown_names_when_built(self):
        for name in ("replacement", "write", "fetch"):
            with pytest.raises(ValueError, match=f"unknown {name} 'nope'"):
                SimulateJob(size=1024, **{name: "nope"})

    def test_subblock_round_trips_and_is_listed_only_when_set(self):
        job = SimulateJob(size=256, subblock=2, write="write-through")
        assert job_document(job)["subblock"] == 2
        assert job_from_document(job_document(job)) == job
        assert "subblock" not in job_document(SimulateJob(size=256))

    @pytest.mark.parametrize("conflict", [
        {"split": True},
        {"mechanisms": MechanismConfig(victim_entries=4)},
        {"associativity": 1},
        {"replacement": "fifo"},
        {"fetch": "prefetch-always"},
    ], ids=lambda conflict: next(iter(conflict)))
    def test_sector_jobs_refuse_what_a_sector_cache_lacks(self, conflict):
        (name,) = conflict
        with pytest.raises(ValueError, match=name):
            SimulateJob(size=256, subblock=4, **conflict)

    def test_inactive_mechanisms_key_like_none(self):
        (cell,) = decode_cells(cell_doc({"mechanisms": {"stream_depth": 8}}))
        assert cell.job == SimulateJob(size=1024)

    def test_valid_document_decodes_unchanged(self):
        (cell,) = decode_cells(cell_doc({
            "associativity": 1, "split": True, "purge_interval": None,
            "mechanisms": {"victim_entries": 4, "l2_size": 8192},
        }))
        assert cell.job == SimulateJob(
            size=1024, associativity=1, split=True,
            mechanisms=MechanismConfig(victim_entries=4, l2_size=8192),
        )


class TestKeyStability:
    """Literal keys of cells without mechanisms, computed before
    ``mechanisms`` joined ``SimulateJob``.  A change here orphans every
    cached result of that job type; bump ``CACHE_SCHEMA_VERSION`` only if
    a key could map to a different result."""

    PINNED = [
        (CampaignCell("s", TraceSpec.catalog("ZGREP", LENGTH),
                      SimulateJob(size=1024, line_size=32, associativity=2,
                                  split=True, purge_interval=1_000)),
         "19f9638edda17a610a56c0e6f97e606d7be0c03c0cd5b5718ccae53bf4ca7977"),
        (CampaignCell("k", TraceSpec.catalog("PLO", LENGTH),
                      StackSweepJob(sizes=(512, 2048), purge_interval=1_000)),
         "05e00b6c562afb6858998737f0e38e2eeae2521338fd4ee83a2f987cd104b82b"),
        (CampaignCell("a", TraceSpec.catalog("ZGREP", LENGTH),
                      AssociativitySweepJob(ways=(1, 2, None),
                                            capacities=(1024, 4096))),
         "b739f90a7dd088e8d90eb96b602983aadf72743228720e289bf39f65c2eb78a6"),
    ]

    @pytest.mark.parametrize("cell, key", PINNED, ids=["simulate", "stack", "assoc"])
    def test_pinned_key(self, cell, key):
        assert cell_key(cell) == key
        assert cell_key(roundtrip(cell)) == key


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
            SimulateJob(
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
