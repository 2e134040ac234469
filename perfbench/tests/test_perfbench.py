"""The benchmark's own tests, at a tiny trace length.

From the root of a checkout::

    python3 -m pytest perfbench/tests -q

They check that every metric BENCHMARK.json names is printed with its
unit, that a corrupted cell value is caught as a failure, and that traced
and untraced rounds produce identical outputs.
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks, harness  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

LENGTH = 3000
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_cli(workload: str, trace: int) -> list[str]:
    completed = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "run.py"),
            "--workload", workload, "--seed", "7", "--seconds", "0",
            "--trace", str(trace), "--length", str(LENGTH),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout.splitlines()


def test_the_metric_tables_match_benchmark_json():
    assert harness.END_TO_END == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert harness.PER_LAYER == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    lines = run_cli(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in named}
    printed = {line.split()[0]: line.split()[-1] for line in lines[1:-2]}
    for metric in named:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert isinstance(result["metrics"][metric["name"]]["value"], float)
        assert printed[metric["name"]] == metric["unit"]
    provenance = json.loads(lines[-2])["provenance"]
    assert provenance["seed"] == 7 and provenance["workers"] >= 1
    if workload == "served" and not trace:
        assert provenance["campaigns"] >= harness.MIN_CAMPAIGNS


@pytest.fixture
def work(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_STORE", str(tmp_path / "unused"))
    yield tmp_path
    harness.cold()


def first_round(name: str, work: Path):
    workload = WORKLOADS[name](5, LENGTH)
    harness.set_up_store(workload, work / "store")
    return workload, harness.run_round(workload, work / "plain", traced=False)


def test_a_corrupted_report_is_caught(work):
    _, plain = first_round("miss-path", work)
    cells = list(plain.outputs.values())[:7]
    assert checks.spot_check(cells, seed=1, count=len(cells)) == 0
    cell, report = cells[0]
    cells[0] = (cell, dataclasses.replace(report, references=report.references + 1))
    assert checks.spot_check(cells, seed=1, count=len(cells)) == 1


def test_a_corrupted_sweep_is_caught(work):
    _, plain = first_round("table1", work)
    cells = list(plain.outputs.values())[:4]
    assert checks.spot_check(cells, seed=1, count=len(cells)) == 0
    cell, curve = cells[0]
    cells[0] = (cell, tuple(value + 0.01 for value in curve))
    assert checks.spot_check(cells, seed=1, count=len(cells)) == 1


def test_a_round_that_differs_is_caught():
    outputs = {"a": (None, 0.5), "b": (None, 0.25)}
    assert checks.differences(outputs, dict(outputs)) == 0
    assert checks.differences(outputs, {**outputs, "b": (None, 0.2500001)}) == 1
    assert checks.differences(outputs, {"a": (None, 0.5)}) == 1


def test_served_values_must_agree_and_run_once():
    ran = {"key": "k", "ok": True, "source": "run", "value": {"miss_ratio": 0.1}}
    shared = dict(ran, source="shared")
    assert checks.served_violations([ran, shared]) == 0
    assert checks.served_violations([ran, dict(shared, value={"miss_ratio": 0.2})]) == 1
    assert checks.served_violations([ran, dict(ran)]) == 1


@pytest.mark.parametrize("name", ["miss-path", "served"])
def test_traced_and_untraced_rounds_agree(work, name):
    workload, plain = first_round(name, work)
    traced = harness.run_round(workload, work / "traced", traced=True)
    assert plain.failed == traced.failed == 0
    assert checks.differences(plain.outputs, traced.outputs) == 0
    names = {span["name"] for span in traced.spans}
    assert {"campaign.run_cell", "trace.resolve", "core.simulate"} <= names
    assert not plain.spans
    run_cells = [s for s in traced.spans if s["name"] == "campaign.run_cell"]
    assert all(s["key"] for s in run_cells)
