"""Every analysis runs its simulations as campaign cells.

So a result cache (``REPRO_CACHE_DIR``) serves a repeated call whole, and
the campaign event log (``REPRO_EVENT_LOG``) shows which cells ran.
"""

import json
import pickle

import pytest

from repro.analysis import (
    design_target_estimate,
    estimate_68020_icache,
    line_size_study,
    table1_experiment,
    table3_experiment,
    write_policy_study,
    z80000_comparison,
)

LENGTH = 3_000

ANALYSES = {
    "table3": lambda: table3_experiment(
        labels=["VCCOM", "Z8000 - Assorted"], length=LENGTH
    ),
    "table5": lambda: design_target_estimate(sizes=(256, 4096), length=LENGTH),
    "68020": lambda: estimate_68020_icache(length=LENGTH),
    "z80000": lambda: z80000_comparison(length=LENGTH),
    "linesize": lambda: line_size_study(
        workloads=["ZGREP", "VCCOM"], line_sizes=(8, 16), capacities=(1024, 4096),
        length=LENGTH,
    ),
    "writepolicy": lambda: write_policy_study(workloads=["ZGREP"], length=LENGTH),
}


@pytest.fixture
def log(tmp_path, monkeypatch):
    """A result cache and an event log for every campaign of the test."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    path = tmp_path / "events.jsonl"
    monkeypatch.setenv("REPRO_EVENT_LOG", str(path))
    return path


def events(log):
    return [json.loads(line) for line in log.read_text().splitlines()] if log.exists() else []


def ran(log, since=0):
    """Labels of the cells simulated (not served) after event ``since``."""
    return [
        event["label"]
        for event in events(log)[since:]
        if event["event"] == "cell_finished" and event["source"] == "run"
    ]


@pytest.mark.parametrize("name", ANALYSES)
def test_a_repeated_call_runs_no_cell(name, log):
    first = ANALYSES[name]()
    assert ran(log)
    mark = len(events(log))
    second = ANALYSES[name]()
    assert len(events(log)) > mark
    assert ran(log, mark) == []
    assert pickle.dumps(second) == pickle.dumps(first)


def test_table5_reuses_table1s_cells(log):
    sizes = (256, 4096)
    table1_experiment(sizes=sizes, length=LENGTH)
    mark = len(events(log))
    design_target_estimate(sizes=sizes, length=LENGTH)
    labels = ran(log, mark)
    assert labels, "the split-side cells are not Table 1's"
    assert not [label for label in labels if label.endswith(":unified")]


def test_bad_requests_fail_before_any_cell(log):
    with pytest.raises(KeyError):
        table3_experiment(labels=["NOPE"], length=LENGTH)
    with pytest.raises(ValueError, match="multiple"):
        line_size_study(workloads=["ZGREP"], line_sizes=(4, 48),
                        capacities=(1024,), length=LENGTH)
    assert not [event for event in events(log) if event["event"].startswith("cell_")]
