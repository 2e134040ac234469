"""One benchmark run: cold set-up, timed rounds, output checks, metrics.

A run runs cold rounds of the workload until ``--seconds`` have passed,
and sets the workload up several times spread among them, each time
timing the imports (the first in this process, the others in a fresh
interpreter) and generating its traces into a fresh trace store.  It
checks every round's outputs and reports medians: of the set-ups, and of
the quickest third of the rounds.  A traced run alternates untraced and
traced rounds: the traced ones give the per-layer metrics, and the two
kinds together give the tracing overhead.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro.core import jobs
from repro.workloads import catalog

from . import checks, tracing
from .workloads import WORKERS, WORKLOADS, Round

#: Set-ups per run; ``setup_s`` takes their median.
SETUPS = 5
#: Fewest rounds per run, of each kind in a traced run.
MIN_ROUNDS = 3
#: Campaigns a served round holds at least, so that ten or more lie
#: beyond p90 even when one round is reported.
MIN_CAMPAIGNS = 100
#: No round starts once the next one could end past this many seconds of
#: timing, which keeps a run (set-up and checks included) under 3 minutes.
DEADLINE_S = 110.0
#: Cells per run re-run on the generic engine as the output check.
CHECK_CELLS = 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "mrefs_per_s": "Mref/s",
    "cells_per_s": "1/s",
    "campaign_p50_ms": "ms",
    "campaign_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "workloads.generate_s": "s",
    "trace.resolve_s": "s",
    "trace.resolve_calls": "count",
    "trace.compile_s": "s",
    "trace.compile_builds": "count",
    "core.sweep_s": "s",
    "core.sweep_refs": "count",
    "core.lru_replay_s": "s",
    "core.lru_refs": "count",
    "core.lru_bundle_builds": "count",
    "core.fifo_replay_s": "s",
    "core.fifo_refs": "count",
    "core.org_build_s": "s",
    "core.generic_replay_s": "s",
    "core.generic_refs": "count",
    "campaign.cell_busy_s": "s",
    "campaign.worker_util": "ratio",
    "campaign.key_s": "s",
    "campaign.cache_get_s": "s",
    "campaign.cache_put_s": "s",
    "campaign.result_bytes": "bytes",
    "campaign.cells_failed": "count",
    "campaign.cells_retried": "count",
    "service.submit_ms": "ms",
    "service.queue_wait_ms": "ms",
    "service.dispatch_overhead_s": "s",
    "service.cells_run": "count",
    "service.cells_cache": "count",
    "service.cells_shared": "count",
    "bench.trace_overhead_frac": "ratio",
}


def cold() -> None:
    """Drop every trace this process holds, so the next round starts cold.

    Pool workers fork from this process, so this also keeps a worker from
    inheriting a trace or compiled view from an earlier round.
    """
    jobs._build_trace.cache_clear()
    catalog._MEMO.clear()
    gc.collect()


def set_up_store(workload, store: Path) -> float:
    """Generate the workload's traces into a fresh store; seconds taken.

    Points ``REPRO_TRACE_STORE`` at the store, so that the rounds which
    follow, and their pool workers, map these files.
    """
    os.environ["REPRO_TRACE_STORE"] = str(store)
    cold()
    start = time.perf_counter()
    for name, length in workload.traces:
        catalog.generate(name, length)
    elapsed = time.perf_counter() - start
    cold()
    return elapsed


def import_s(root: Path) -> float:
    """Seconds a fresh interpreter takes to import what a run imports."""
    probe = (
        "import sys, time\n"
        "start = time.perf_counter()\n"
        f"sys.path[:0] = [{str(root / 'src')!r}, {str(root)!r}]\n"
        "import perfbench.harness\n"
        "print(time.perf_counter() - start)\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, timeout=60
    )
    return float(completed.stdout)


def run_round(workload, directory: Path, *, traced: bool) -> Round:
    """One cold round of the workload in a fresh directory."""
    directory.mkdir(parents=True)
    cold()
    if not traced:
        return workload.run_round(directory, runner=None)
    span_dir = directory / "spans"
    span_dir.mkdir()
    patches = [tracing.install_cell_layers(), tracing.install_parent_layers()]
    tracing.mark_installed(True)
    try:
        with tracing.span("bench.round", workload=workload.name) as round_span:
            runner = tracing.TracedRunner(str(span_dir), os.getpid(), round_span["id"])
            result = workload.run_round(directory, runner=runner)
    finally:
        for patch in reversed(patches):
            patch.remove()
        tracing.mark_installed(False)
    result.spans = tracing.take_spans() + tracing.read_worker_spans(span_dir)
    return result


def _core_probe() -> float:
    start = time.perf_counter()
    total = 0
    for value in range(200_000):
        total += value * value
    return time.perf_counter() - start


def move_to_quickest_core(cores: list[int]) -> None:
    """Pin this thread, and all it starts, to the core quickest right now.

    The whole run (pool workers and the served workload's server too)
    shares one core.  Spread over two cores of a shared host, the served
    workload left both idle 40% of the time, waiting on wake-ups whose
    latency the host sets.  Neighbours slow one core at a time, by up to
    60% for spells of a minute, so the core is chosen afresh before each
    round by timing a fixed task on each.
    """
    speeds = {}
    for core in cores:
        os.sched_setaffinity(0, {core})
        speeds[core] = min(_core_probe() for _ in range(3))
    os.sched_setaffinity(0, {min(speeds, key=speeds.get)})


def quickest_third(rounds: list[Round]) -> list[Round]:
    """The quickest third of the rounds, at least one.

    A busy neighbour on a shared host only ever slows a round, often by
    half or more, and its spells can cover most of a run, so the
    end-to-end figures are medians over the rounds it disturbed least.
    """
    return sorted(rounds, key=lambda r: r.wall)[: -(-len(rounds) // 3)]


def timed_rounds(workload, work: Path, seconds: float, traced: bool, set_up, cores):
    """Rounds until ``seconds`` have passed; returns (untraced, traced).

    ``set_up(index)`` makes set-up ``index``.  The first comes before the
    rounds, the last after them and the others evenly between, so that a
    slow spell of the host reaches few of them.
    """
    plain: list[Round] = []
    spanned: list[Round] = []
    start = time.perf_counter()
    move_to_quickest_core(cores)
    set_up(0)
    made = 1
    longest = 0.0
    while True:
        elapsed = time.perf_counter() - start
        if made < SETUPS - 1 and elapsed >= seconds * made / (SETUPS - 1):
            set_up(made)
            made += 1
            continue
        short = len(plain) < MIN_ROUNDS or (traced and len(spanned) < MIN_ROUNDS)
        if not short and elapsed >= seconds:
            break
        if elapsed + longest > DEADLINE_S and plain and (spanned or not traced):
            break
        use_trace = traced and len(spanned) < len(plain)
        directory = work / f"round-{len(plain) + len(spanned)}"
        move_to_quickest_core(cores)
        begin = time.perf_counter()
        result = run_round(workload, directory, traced=use_trace)
        longest = max(longest, time.perf_counter() - begin)
        shutil.rmtree(directory)
        (spanned if use_trace else plain).append(result)
    for index in range(made, SETUPS):
        set_up(index)
    return plain, spanned


def check_rounds(workload, rounds: list[Round], seed: int) -> int:
    """Cells that failed, in the program or in the output checks."""
    failed = sum(r.failed for r in rounds)
    for other in rounds[1:]:
        failed += checks.differences(rounds[0].outputs, other.outputs)
    if workload.served:
        failed += sum(checks.served_violations(r.outcomes) for r in rounds)
    cold()
    failed += checks.spot_check(list(rounds[0].outputs.values()), seed, CHECK_CELLS)
    cold()
    return failed


def peak_rss_mb() -> float:
    """Largest resident set of this process or any finished child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(workload, rounds: list[Round], setup_s: float, rss: float) -> dict:
    walls = [r.wall for r in rounds]
    if workload.served:
        turnaround = [t for r in rounds for t in r.turnaround]
        p50, p90 = np.percentile(turnaround, [50, 90]) * 1000.0
    else:
        # A local round is one campaign, so both figures read the median
        # turnaround of that campaign; no tail is claimed.
        p50 = p90 = statistics.median(walls) * 1000.0
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "mrefs_per_s": statistics.median(r.refs / r.wall / 1e6 for r in rounds),
        "cells_per_s": statistics.median(r.delivered / r.wall for r in rounds),
        "campaign_p50_ms": float(p50),
        "campaign_p90_ms": float(p90),
        "peak_rss_mb": rss,
    }


def layer_metrics(result: Round) -> dict[str, float]:
    """Per-layer figures of one traced round."""
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    own = tracing.self_times(result.spans)
    bundles, submits = set(), []
    backend_run: dict[str, float] = {}
    worker_run: dict[str, float] = {}
    for item in result.spans:
        name, took = item["name"], item["end"] - item["start"]
        if name == "trace.resolve":
            metrics["trace.resolve_s"] += took
            metrics["trace.resolve_calls"] += 1
        elif name == "trace.compile" and item["built"]:
            metrics["trace.compile_s"] += took
            metrics["trace.compile_builds"] += 1
        elif name == "core.sweep":
            metrics["core.sweep_s"] += own[item["id"]]
            metrics["core.sweep_refs"] += item["refs"]
        elif name == "core.simulate":
            metrics[f"core.{item['path']}_replay_s"] += own[item["id"]]
            metrics[f"core.{item['path']}_refs"] += item["refs"]
            if item["path"] == "lru":
                bundles.add((item["pid"], *item["bundle"]))
        elif name == "core.org_build":
            metrics["core.org_build_s"] += took
        elif name == "campaign.run_cell":
            metrics["campaign.cell_busy_s"] += took
            worker_run[item["key"]] = worker_run.get(item["key"], 0.0) + took
        elif name == "campaign.key":
            metrics["campaign.key_s"] += took
        elif name == "campaign.cache_get":
            metrics["campaign.cache_get_s"] += took
        elif name == "campaign.cache_put":
            metrics["campaign.cache_put_s"] += took
            metrics["campaign.result_bytes"] += item.get("bytes", 0)
        elif name == "service.backend_run":
            backend_run[item["key"]] = backend_run.get(item["key"], 0.0) + took
        elif name == "service.submit":
            submits.append(took)
    metrics["core.lru_bundle_builds"] = len(bundles)
    metrics["campaign.worker_util"] = metrics["campaign.cell_busy_s"] / (WORKERS * result.wall)
    metrics["campaign.cells_failed"] = result.failed
    metrics["campaign.cells_retried"] = result.retried
    if submits:
        metrics["service.submit_ms"] = statistics.median(submits) * 1000.0
    if result.queue_wait:
        metrics["service.queue_wait_ms"] = statistics.median(result.queue_wait) * 1000.0
    metrics["service.dispatch_overhead_s"] = sum(
        took - worker_run[key] for key, took in backend_run.items() if key in worker_run
    )
    for source in ("run", "cache", "shared"):
        metrics[f"service.cells_{source}"] = sum(
            1 for outcome in result.outcomes if outcome["source"] == source
        )
    return metrics


def per_layer(plain: list[Round], spanned: list[Round], generate: list[float]) -> dict:
    rounds = [layer_metrics(result) for result in spanned]
    metrics = {
        name: statistics.median(values[name] for values in rounds) for name in PER_LAYER
    }
    metrics["workloads.generate_s"] = statistics.median(generate)
    metrics["bench.trace_overhead_frac"] = (
        statistics.median(r.wall for r in spanned) / statistics.median(r.wall for r in plain)
        - 1.0
    )
    return metrics


def host_probe() -> float:
    """Seconds for a fixed CPU task that does not touch the program.

    Timed beside every run, so that a slow host shows as a slow host.
    """
    start = time.perf_counter()
    total = 0
    for value in range(1_000_000):
        total += value * value
    np.sort(np.random.default_rng(0).random(2_000_000))
    return time.perf_counter() - start


def _commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(root, name, seed, traced, plain, spanned, probes) -> dict:
    return {
        "workload": name,
        "seed": seed,
        "traced": traced,
        "commit": _commit(root),
        "source_sha256": _source_digest(root),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "workers": WORKERS,
        "references_per_round": plain[0].refs,
        "cells_per_round": plain[0].attempted,
        "rounds": len(plain),
        "round_walls_s": [r.wall for r in plain],
        "reported_rounds": len(quickest_third(plain)),
        "traced_rounds": len(spanned),
        "campaigns": sum(len(r.turnaround) for r in quickest_third(plain)),
        "host_probe_s": probes,
    }


def run_benchmark(name, *, seed, seconds, traced, length, started, root: Path) -> dict:
    """Run one workload and return the result document."""
    imports = [time.perf_counter() - started]
    for variable in [v for v in os.environ if v.startswith("REPRO_")]:
        del os.environ[variable]
    workload = WORKLOADS[name](seed, length)
    work = root / ".perfbench_work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    generate: list[float] = []

    def set_up(index: int) -> None:
        if index:
            imports.append(import_s(root))
        generate.append(set_up_store(workload, work / f"store-{index}"))
        if index:
            shutil.rmtree(work / f"store-{index - 1}")

    try:
        probes = [host_probe()]
        plain, spanned = timed_rounds(
            workload, work, seconds, traced, set_up, sorted(os.sched_getaffinity(0))
        )
        probes.append(host_probe())
        rss = peak_rss_mb()
        failed = check_rounds(workload, plain + spanned, seed)
    finally:
        os.environ.pop("REPRO_TRACE_STORE", None)
        cold()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    rounds = plain + spanned
    attempted = sum(r.attempted for r in rounds)
    if traced:
        values, units = per_layer(plain, spanned, generate), PER_LAYER
    else:
        setup_s = (
            statistics.median(imports)
            + statistics.median(generate)
            + statistics.median(r.setup for r in rounds)
        )
        values, units = end_to_end(workload, quickest_third(plain), setup_s, rss), END_TO_END
    print(f"perfbench {name} seed={seed} {'traced' if traced else 'untraced'}")
    for metric, value in values.items():
        print(f"{metric} {value!r} {units[metric]}")
    print(f"failed_frac {failed / max(attempted, 1)!r} ratio")
    print(json.dumps({"provenance": provenance(root, name, seed, traced, plain, spanned, probes)}))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": float(value), "unit": units[metric]}
            for metric, value in values.items()
        },
    }
