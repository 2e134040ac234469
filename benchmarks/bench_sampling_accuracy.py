"""Sampled-simulation benchmark: speedup and honesty of the error bars.

Runs the Table-1-style LRU capacity sweep exactly, then under each
sampling mode the subsystem offers — interval sampling (systematic,
random, and stratified window choice) and representative-interval
(SimPoint-style) sampling — and reports wall time, speedup, measured
fraction, and observed vs reported error for every mode side by side.

Timing methodology: every timed round runs on a **fresh copy** of each
trace (same arrays, new object), pre-compiled outside the timed region.
The engines memoize whole-trace passes on the compiled trace object, so
re-running on the same object would time the memo, not the engine.

The interval modes are timed per independent run — that is their real
cost, nothing carries over between configurations.  Representative
sampling is the opposite: its windowed signature/profile pass is
computed once per trace and memoized, and every further configuration
prices at a handful of windows.  The bench therefore reports both its
``cold_wall_seconds`` (first run, profiling included) and its
``wall_seconds`` (marginal cost of another configuration on the warm
profile) — the amortized cost a multi-configuration campaign pays — and
asserts the headline guarantees:

* **Representative speedup** — the amortized sweep must run at least
  15x faster than the full sweep.
* **Coverage** — every full-run miss ratio must fall inside the
  reported interval, for the systematic *and* the representative mode
  (all seeds are pinned, so this is a deterministic regression check).
* **Systematic speedup** — the 10% interval plan keeps its ≥3x.

A machine-readable summary is merge-written to
``benchmarks/results/BENCH_sampling_accuracy.json`` (a partial
``pytest -k`` pass updates only the modes it ran) so CI can archive,
diff, and cross-compare the modes.  ``REPRO_BENCH_LENGTH`` scales the
trace length.
"""

import time

import pytest

from common import bench_length, fresh_trace, merge_json_result

from repro.analysis.sweep import PAPER_LINE_SIZE
from repro.core.jobs import StackSweepJob
from repro.sampling import IntervalSampling, RepresentativeSampling, run_sampled
from repro.workloads import catalog

LENGTH = bench_length() or 250_000
WORKLOADS = ("ZGREP", "VCCOM", "FGO1", "LISP1")
SIZES = (1024, 4096, 16384)

JOB = StackSweepJob(sizes=SIZES, line_size=PAPER_LINE_SIZE)

PLANS = {
    "systematic": IntervalSampling(fraction=0.1, window=500, warmup="discard", seed=0),
    "random": IntervalSampling(
        fraction=0.1, window=500, mode="random", warmup="discard", seed=0
    ),
    "stratified": IntervalSampling(
        fraction=0.1, window=500, mode="stratified", warmup="discard", seed=0
    ),
    "representative": RepresentativeSampling(),
}

#: Timing repetitions; the minimum is reported (standard practice for
#: wall-clock comparisons on shared machines).
ROUNDS = 3


@pytest.fixture(scope="module")
def traces():
    """Built once; every timed round runs on fresh copies of these."""
    return {name: catalog.generate(name, LENGTH) for name in WORKLOADS}


def _fresh_compiled(traces):
    copies = {name: fresh_trace(trace) for name, trace in traces.items()}
    for copy in copies.values():
        copy.compiled(PAPER_LINE_SIZE)
    return copies


def _best_of(traces, runner, rounds=ROUNDS):
    """min-of-N wall time, each round on fresh pre-compiled traces."""
    best = float("inf")
    result = None
    for _ in range(rounds):
        copies = _fresh_compiled(traces)
        start = time.perf_counter()
        result = {name: runner(copy) for name, copy in copies.items()}
        best = min(best, time.perf_counter() - start)
    return result, best


@pytest.fixture(scope="module")
def full_results(traces):
    """The exact sweep and its wall time (the baseline for every mode)."""
    return _best_of(traces, JOB.run)


@pytest.fixture(scope="module")
def results_log(traces, full_results):
    """Collects per-mode blocks; merge-written to JSON at module end."""
    full, full_seconds = full_results
    modes = {}
    yield modes
    merge_json_result(
        "BENCH_sampling_accuracy",
        {
            "references_per_trace": LENGTH,
            "workloads": list(WORKLOADS),
            "cache_bytes": list(SIZES),
            "wall_full_seconds": full_seconds,
            "modes": modes,
        },
        merge_keys=("modes",),
        match_keys=("references_per_trace",),
    )


def _mode_block(mode, sampled, seconds, full, full_seconds):
    """The per-mode JSON block: speedup, fractions, per-cell accuracy."""
    cells = []
    covered = 0
    for name in WORKLOADS:
        info = sampled[name].info
        for size, truth, estimate in zip(SIZES, full[name], info.estimates):
            inside = estimate.contains(truth)
            covered += inside
            cells.append(
                {
                    "trace": name,
                    "cache_bytes": size,
                    "full_miss_ratio": truth,
                    "estimate": estimate.value,
                    "ci": [estimate.ci_low, estimate.ci_high],
                    "observed_abs_error": abs(estimate.value - truth),
                    "reported_half_width": estimate.half_width,
                    "covered": bool(inside),
                }
            )
    infos = [sampled[name].info for name in WORKLOADS]
    return {
        "plan": PLANS[mode].identity(),
        "wall_seconds": seconds,
        "speedup": full_seconds / seconds if seconds > 0 else float("inf"),
        "measured_fraction": sum(i.sampled_fraction for i in infos) / len(infos),
        "replayed_fraction": sum(i.replayed_references for i in infos)
        / (LENGTH * len(infos)),
        "coverage": f"{covered}/{len(cells)}",
        "covered_cells": covered,
        "total_cells": len(cells),
        "worst_abs_error": max(c["observed_abs_error"] for c in cells),
        "worst_half_width": max(c["reported_half_width"] for c in cells),
        "cells": cells,
    }


@pytest.mark.parametrize("mode", ["systematic", "random", "stratified"])
def test_interval_mode_speedup_and_coverage(mode, traces, full_results, results_log):
    full, full_seconds = full_results
    plan = PLANS[mode]
    sampled, seconds = _best_of(traces, lambda t: run_sampled(t, JOB, plan))
    block = _mode_block(mode, sampled, seconds, full, full_seconds)
    results_log[mode] = block

    if mode == "systematic":
        assert block["covered_cells"] == block["total_cells"], (
            f"only {block['coverage']} cells covered: "
            + "; ".join(
                f"{c['trace']}@{c['cache_bytes']}"
                for c in block["cells"]
                if not c["covered"]
            )
        )
        assert block["speedup"] >= 3.0, (
            f"systematic sweep only {block['speedup']:.1f}x faster "
            f"({full_seconds:.3f}s vs {seconds:.3f}s)"
        )
    else:
        # Seeded alternatives: record accuracy, require a real speedup.
        assert block["speedup"] > 1.0, (
            f"{mode} sweep slower than exact "
            f"({full_seconds:.3f}s vs {seconds:.3f}s)"
        )


def test_representative_mode_speedup_and_coverage(traces, full_results, results_log):
    full, full_seconds = full_results
    plan = PLANS["representative"]

    # Cold: fresh traces, includes the one-time signature/profile pass.
    copies = _fresh_compiled(traces)
    start = time.perf_counter()
    sampled = {name: run_sampled(copy, JOB, plan) for name, copy in copies.items()}
    cold_seconds = time.perf_counter() - start

    # Warm: the marginal cost of pricing another configuration off the
    # memoized profile — what each additional campaign config pays.
    warm_seconds = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        rerun = {name: run_sampled(copy, JOB, plan) for name, copy in copies.items()}
        warm_seconds = min(warm_seconds, time.perf_counter() - start)

    block = _mode_block("representative", sampled, warm_seconds, full, full_seconds)
    block["cold_wall_seconds"] = cold_seconds
    block["cold_speedup"] = full_seconds / cold_seconds if cold_seconds > 0 else 0.0
    block["signature_seconds"] = max(0.0, cold_seconds - warm_seconds)
    results_log["representative"] = block

    # Determinism: the warm rerun must be bit-identical to the cold run.
    for name in WORKLOADS:
        assert tuple(rerun[name].value) == tuple(sampled[name].value), name

    assert block["covered_cells"] == block["total_cells"], (
        f"only {block['coverage']} cells covered: "
        + "; ".join(
            f"{c['trace']}@{c['cache_bytes']}"
            for c in block["cells"]
            if not c["covered"]
        )
    )
    assert block["speedup"] >= 15.0, (
        f"representative sweep only {block['speedup']:.1f}x faster amortized "
        f"({full_seconds:.3f}s vs {warm_seconds:.3f}s warm)"
    )
