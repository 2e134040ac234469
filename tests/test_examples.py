"""Smoke tests: the example scripts must run and say what they promise.

Each example is imported as a module and its ``main()`` executed with
stdout captured — import errors, API drift or crashes in any example fail
the suite.  The heavier examples are trimmed via their module constants so
the whole batch stays fast.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def load_example(name):
    spec = importlib.util.spec_from_file_location(f"example_{name}", EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def run_main(module, capsys):
    module.main()
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, capsys):
        out = run_main(load_example("quickstart"), capsys)
        assert "miss ratio" in out
        assert "cache size -> miss ratio" in out

    def test_custom_workload(self, capsys):
        out = run_main(load_example("custom_workload"), capsys)
        assert "saved and reloaded" in out
        assert "line-size comparison" in out

    def test_compare_machines(self, capsys):
        module = load_example("compare_machines")
        module.LENGTH = 20_000  # trim for the test suite
        out = run_main(module, capsys)
        assert "DEC VAX 11/780" in out
        assert "Zilog Z80000" in out

    def test_workload_sensitivity(self, capsys):
        module = load_example("workload_sensitivity")
        module.LENGTH = 15_000
        out = run_main(module, capsys)
        assert "workload choice" in out

    def test_design_space(self, capsys):
        module = load_example("design_space")
        module.LENGTH = 15_000
        out = run_main(module, capsys)
        assert "smallest cache within 10%" in out

    def test_multiprogramming(self, capsys):
        module = load_example("multiprogramming")
        module.LENGTH = 30_000
        out = run_main(module, capsys)
        assert "copy-back data cache" in out


@pytest.mark.parametrize("name", [
    "quickstart", "custom_workload", "compare_machines",
    "workload_sensitivity", "design_space", "multiprogramming",
])
def test_examples_have_docstrings_and_main(name):
    module = load_example(name)
    assert module.__doc__ and "Run with" in module.__doc__
    assert callable(module.main)
