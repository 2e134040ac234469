"""Tests for the miss-path mechanism study driver."""

import dataclasses

import pytest

from repro.analysis import mechanisms
from repro.analysis.mechanisms import (
    DEFAULT_VARIANTS,
    MechanismStudyResult,
    mechanism_study,
)
from repro.core.jobs import (
    CampaignCell,
    MechanismStudyJob,
    SimulateJob,
    TraceSpec,
    cell_key,
)
from repro.core.misspath import MechanismConfig


@pytest.fixture(scope="module")
def study():
    return mechanism_study(
        workloads=["VCCOM", "ZGREP"], size=1024, length=6000, workers=1, cache=False
    )


class TestMechanismStudy:
    def test_structure(self, study):
        assert isinstance(study, MechanismStudyResult)
        assert [row.workload for row in study.rows] == ["VCCOM", "ZGREP"]
        expected = tuple(name for name, _ in DEFAULT_VARIANTS) + ("l2",)
        assert study.variant_names == expected

    def test_mechanisms_reduce_conflict_misses(self, study):
        # Direct-mapped primary: every conflict-absorbing variant must
        # beat the baseline on these looping workloads.
        for row in study.rows:
            for name in ("vc", "mc", "sb", "vc+sb", "mc+sb"):
                assert row.delta(name) < 0, (row.workload, name)

    def test_combos_compose(self, study):
        # Adding stream buffers on top of a victim/miss cache helps
        # further; the combination beats both constituents.
        for row in study.rows:
            assert row.effective_miss_ratio("vc+sb") < row.effective_miss_ratio("vc")
            assert row.effective_miss_ratio("vc+sb") < row.effective_miss_ratio("sb")
            assert row.effective_miss_ratio("mc+sb") < row.effective_miss_ratio("mc")

    def test_victim_beats_miss_cache(self, study):
        # Jouppi's headline result: for equal entry counts the victim
        # cache dominates the miss cache (it keeps victims, not copies).
        assert study.mean_effective("vc") <= study.mean_effective("mc")

    def test_l2_leaves_primary_misses_alone(self, study):
        for row in study.rows:
            assert row.delta("l2") == pytest.approx(0.0)
            assert "l2" in row.variants["l2"].mechanism_names

    def test_render_tables(self, study):
        table = study.render_table()
        assert "Mechanism study" in table
        assert "baseline" in table and "vc+sb" in table
        assert "mean" in table
        detail = study.render_mechanism_detail()
        assert "vc hit" in detail and "l2 local" in detail
        assert study.summary().count("\n\n") >= 1

    def test_render_table_limit(self, study):
        limited = study.render_table(limit=1)
        assert "VCCOM" in limited
        assert "ZGREP" not in limited
        assert "mean" in limited

    def test_duplicate_variant_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            mechanism_study(
                workloads=["VCCOM"],
                length=1000,
                variants=[
                    ("vc", MechanismConfig(victim_entries=2)),
                    ("vc", MechanismConfig(victim_entries=4)),
                ],
            )


class TestStudyOracle:
    def test_every_cell_matches_the_generic_engine(self, monkeypatch):
        # The study's direct-mapped cells take the kernel's miss-stream
        # replay; each must equal its job re-run on the reference engine.
        # The mix runs long enough to cross purge boundaries.
        seen = []
        run_campaign = mechanisms.run_campaign

        def recording_run_campaign(cells, **kwargs):
            seen.extend(cells)
            return run_campaign(cells, **kwargs)

        monkeypatch.setattr(mechanisms, "run_campaign", recording_run_campaign)
        study = mechanism_study(
            workloads=["ZGREP", "Z8000 - Assorted"], size=1024, length=45_000,
            workers=1, cache=False,
        )
        reports = {
            f"{row.workload}/{name}": report
            for row in study.rows
            for name, report in [("baseline", row.baseline), *row.variants.items()]
        }
        assert len(seen) == len(reports) == 14
        for cell in seen:
            oracle = dataclasses.replace(cell.job, engine="generic").run(
                cell.trace.build()
            )
            assert reports[cell.label] == oracle, cell.label


class TestMechanismCacheKeys:
    def test_mechanism_cells_key_differently_from_baseline(self):
        spec = TraceSpec.catalog("VCCOM", length=1000)
        base = CampaignCell(label="x", trace=spec, job=SimulateJob(size=1024))
        varied = CampaignCell(
            label="x",
            trace=spec,
            job=MechanismStudyJob(
                size=1024, mechanisms=MechanismConfig(victim_entries=4)
            ),
        )
        assert cell_key(base) != cell_key(varied)

    def test_mechanism_parameters_enter_the_key(self):
        spec = TraceSpec.catalog("VCCOM", length=1000)

        def key(config):
            return cell_key(
                CampaignCell(
                    label="x",
                    trace=spec,
                    job=MechanismStudyJob(size=1024, mechanisms=config),
                )
            )

        keys = {
            key(MechanismConfig(victim_entries=4)),
            key(MechanismConfig(victim_entries=8)),
            key(MechanismConfig(stream_buffers=4)),
            key(MechanismConfig(stream_buffers=4, stream_depth=8)),
            key(MechanismConfig(l2_size=8192)),
        }
        assert len(keys) == 5

    def test_allow_warm_stays_out_of_the_key(self):
        spec = TraceSpec.catalog("VCCOM", length=1000)
        a = CampaignCell(label="x", trace=spec, job=SimulateJob(size=1024))
        b = CampaignCell(
            label="x", trace=spec, job=SimulateJob(size=1024, allow_warm=True)
        )
        assert cell_key(a) == cell_key(b)
