"""Shared infrastructure for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures, prints
the same rows/series the paper reports, and saves the rendered text under
``benchmarks/results/``.

Scale control
-------------
The paper's runs use 250 000 references per trace; that is expensive for a
routine benchmark pass, so by default each trace is truncated to
``REPRO_BENCH_LENGTH`` references (default 60 000).  Set
``REPRO_BENCH_FULL=1`` to run at the paper's full lengths (this is what the
numbers in EXPERIMENTS.md were produced with).

Parallelism and caching
-----------------------
Every experiment runs its simulations as campaign cells, so each fans
out across ``REPRO_WORKERS`` processes and memoizes each
trace x configuration cell under ``benchmarks/.cache`` (overridable with
``REPRO_CACHE_DIR``; set ``REPRO_BENCH_CACHE=0`` to disable), so a
repeated benchmark pass skips every already-simulated cell.

Observability
-------------
Campaign lifecycle events (per-cell wall time, refs/s, cache status,
failures/retries) are appended to
``benchmarks/results/BENCH_campaign_events.jsonl`` (overridable with
``REPRO_EVENT_LOG``; set ``REPRO_BENCH_EVENTS=0`` to disable) — see
``docs/campaign.md`` for the schema.  CI archives the log next to
``BENCH_core_throughput.json``.
"""

from __future__ import annotations

import functools
import json
import os
import platform
import subprocess
from pathlib import Path

DEFAULT_BENCH_LENGTH = 60_000

RESULTS_DIR = Path(__file__).resolve().parent / "results"

CACHE_DIR = Path(__file__).resolve().parent / ".cache"

if os.environ.get("REPRO_BENCH_CACHE") != "0":
    os.environ.setdefault("REPRO_CACHE_DIR", str(CACHE_DIR))

if os.environ.get("REPRO_BENCH_EVENTS") != "0":
    RESULTS_DIR.mkdir(exist_ok=True)
    os.environ.setdefault(
        "REPRO_EVENT_LOG", str(RESULTS_DIR / "BENCH_campaign_events.jsonl")
    )


def bench_length() -> int | None:
    """References per trace for this benchmark run (None = paper lengths)."""
    if os.environ.get("REPRO_BENCH_FULL") == "1":
        return None
    return int(os.environ.get("REPRO_BENCH_LENGTH", str(DEFAULT_BENCH_LENGTH)))


def save_result(name: str, text: str) -> Path:
    """Write a rendered table/figure under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n", encoding="utf-8")
    return path


def merge_json_result(
    name: str,
    payload: dict,
    *,
    merge_keys: tuple[str, ...] = (),
    match_keys: tuple[str, ...] = (),
) -> Path:
    """Write ``benchmarks/results/{name}.json``, merging named sections.

    A partial benchmark pass (``pytest -k ...``, or a module where only
    some tests ran) records only the entries it measured.  For every
    top-level key in ``merge_keys`` whose value is a dict, the existing
    file's entries are kept and updated rather than replaced, so a
    partial run never clobbers results a previous full run recorded.
    All other top-level keys are overwritten.

    ``match_keys`` name the settings that make two runs comparable (e.g.
    ``references_per_run``).  When the existing file recorded any of them
    differently, its merge sections are dropped rather than mixed with
    entries measured at another scale.

    Every file gets a ``provenance`` block describing this run (see
    :func:`provenance`).
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    merged = {**payload, "provenance": provenance()}
    if path.exists():
        try:
            previous = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            previous = {}
        if any(previous.get(key) != payload.get(key) for key in match_keys):
            previous = {}
        for key in merge_keys:
            old = previous.get(key)
            new = payload.get(key)
            if isinstance(old, dict) and isinstance(new, dict):
                merged[key] = {**old, **new}
    path.write_text(
        json.dumps(merged, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def provenance() -> dict:
    """Where a bench result was measured: the source commit and whether
    tracked files outside ``benchmarks/results/`` differ from it (both
    None outside a git checkout), the Python and numpy versions, the CPU count, the
    bench length (:func:`bench_length`; None = paper lengths) and the
    campaign worker count this environment resolves to."""
    import numpy

    from repro.campaign import worker_count

    here = Path(__file__).resolve().parent

    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], cwd=here, capture_output=True, text=True, check=True
        ).stdout

    try:
        commit = git("rev-parse", "HEAD").strip()
        # Tracked changes outside the results directory mean the numbers
        # were not measured on ``commit`` as committed.
        dirty = any(
            not line[3:].startswith("benchmarks/results/")
            for line in git("status", "--porcelain", "--untracked-files=no").splitlines()
        )
    except (OSError, subprocess.CalledProcessError):
        commit = dirty = None
    return {
        "commit": commit,
        "dirty": dirty,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "bench_length": bench_length(),
        "workers": worker_count(),
    }


def fresh_trace(trace):
    """A new Trace over the same arrays: an empty memo, so work on it runs
    cold instead of timing a ``CompiledTrace.memo`` hit."""
    from repro.trace import Trace

    return Trace(
        trace.kinds, trace.addresses, trace.sizes, trace.metadata, validate=False
    )


def run_once(benchmark, function):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(function, rounds=1, iterations=1)


@functools.lru_cache(maxsize=1)
def shared_prefetch_study():
    """The Section 3.5 study, shared by the Figure 5-10 / Table 4 benches."""
    from repro.analysis import prefetch_study

    return prefetch_study(length=bench_length())


@functools.lru_cache(maxsize=1)
def shared_table1():
    """The Table 1 sweep, shared by Table 1/5 benches."""
    from repro.analysis import table1_experiment

    return table1_experiment(length=bench_length())
