"""Injectable runners for the service tests.

These must stay module-level: the pool backend pickles them into its
worker processes.

Faults are marked in the cell *label* (the one field that never enters
the cache key), same convention as ``tests/test_campaign_faults.py``:
``CRASH`` kills the hosting process, ``FAIL`` raises inside the runner,
``SLOW`` sleeps long enough to create overlap windows, ``HANG`` never returns (for timeout tests).
"""

import multiprocessing
import os
import time

from repro.core.jobs import CellResult, run_cell


def fake_run(cell):
    """Cheap deterministic stand-in for ``run_cell`` (no trace build)."""
    return CellResult(value=(0.25, 0.125), references=1_000, wall_seconds=0.001)


def crash_on_marker(cell):
    """Kill the hosting worker process for cells marked ``CRASH``; take a
    second over ``SLOW``, so a sibling is in flight while one crashes."""
    if "CRASH" in cell.label:
        os._exit(13)
    if "SLOW" in cell.label:
        time.sleep(1.0)
    return fake_run(cell)


def fail_on_marker(cell):
    """Raise inside the runner for cells marked ``FAIL``."""
    if "FAIL" in cell.label:
        raise ValueError(f"injected failure: {cell.label}")
    return fake_run(cell)


def slow_fake_run(cell):
    """``fake_run`` with a delay wide enough to overlap concurrent clients."""
    time.sleep(0.15)
    return fake_run(cell)


def slow_real_run(cell):
    """Real execution, slowed — for dedupe tests that want true payloads."""
    time.sleep(0.1)
    return run_cell(cell)


def hang_on_marker(cell):
    """Hang far beyond any test timeout for cells marked ``HANG``."""
    if "HANG" in cell.label:
        time.sleep(600)
    return fake_run(cell)


def stall_in_pool_worker(cell):
    """Inside a pool worker only: hang on ``HANG`` and take 0.2 s over
    ``BUSY``."""
    if multiprocessing.parent_process() is not None:
        if "BUSY" in cell.label:
            time.sleep(0.2)
        return hang_on_marker(cell)
    return fake_run(cell)
