"""Throughput benchmarks for the simulator core itself.

Conventional pytest-benchmark microbenchmarks (multiple rounds) over the
hot paths: the specialized replay kernels (one per replacement policy,
plus Belady's MIN), the generic per-access engine, mechanism-attached
replay (victim/miss caches, stream buffers, a two-level sweep), the
one-pass stack-distance sweep, the all-associativity surface kernel, trace
generation — both engines, per workload family, at ``REPRO_BENCH_GEN_REFS``
references — the shared trace store's cold-write and warm-mmap paths,
and the ``.rtrc`` load paths (memory-mapped vs eager copy).

The LRU kernel, the mechanism-carrying replays and the stack-distance
sweep are timed twice.  The plain entries (``simulator_kernel``,
``simulator_victim_cache``, ``stack_distance_sweep``, ...) are *cold*:
every round gets a fresh ``Trace`` object over the same arrays, so the
line expansion and the hit/miss classification run each time instead of
being served from ``CompiledTrace.memo``.  The ``_warm`` entries reuse one
trace and so time the memo hit a repeated query pays.

Besides the usual pytest-benchmark console table, the module writes a
machine-readable summary — references/second per hot path — to
``benchmarks/results/BENCH_core_throughput.json`` so CI can archive and
diff throughput without parsing terminal output.  ``REPRO_BENCH_REFS``
scales the trace length (default 30 000; CI's smoke step uses a shorter
setting).
"""

import os

import pytest

from common import fresh_trace, merge_json_result

from repro.core import (
    CacheGeometry,
    MechanismConfig,
    UnifiedCache,
    associativity_miss_surface,
    belady_min_misses,
    lru_miss_ratio_curve,
    simulate,
)
from repro.core.replacement import policy_factory
from repro.trace.io import read_binary_trace, write_binary_trace
from repro.trace.store import TraceStore
from repro.workloads import catalog
from repro.workloads.generator import SyntheticWorkload, trace_identity

REFS = int(os.environ.get("REPRO_BENCH_REFS", "30000"))

#: Trace length for the engine-comparison generation benchmarks.  The
#: vectorized engine amortizes per-call setup over the whole trace, so
#: short lengths understate it; 200k is past the knee without making the
#: scalar oracle runs (~0.4 Mrefs/s) dominate the suite.
GEN_REFS = int(os.environ.get("REPRO_BENCH_GEN_REFS", "200000"))

#: One catalog entry per workload family / architecture group.
GEN_FAMILIES = ("VCCOM", "FGO1", "TWOD", "ZGREP")

#: Timed rounds of the cold entries (each on its own fresh trace object).
COLD_ROUNDS = 10

_ASSOC_WAYS = (1, 2, 4, 8, None)
_ASSOC_CAPACITIES = (1024, 8192)


@pytest.fixture(scope="module")
def trace():
    return catalog.generate("VCCOM", REFS)


@pytest.fixture(scope="module")
def trace_file(trace, tmp_path_factory):
    """The benchmark trace saved as a version-2 ``.rtrc`` file."""
    path = tmp_path_factory.mktemp("rtrc") / "bench.rtrc"
    write_binary_trace(trace, path)
    return path


@pytest.fixture(scope="module")
def throughput_log():
    """Collects per-path refs/sec; written to JSON when the module ends."""
    entries = {}
    yield entries
    # Merge-update: a partial run (``pytest -k ...``) must not clobber
    # paths a previous full pass recorded at the same trace length.
    merge_json_result(
        "BENCH_core_throughput",
        {"references_per_run": REFS, "paths": entries},
        merge_keys=("paths",),
        match_keys=("references_per_run",),
    )


def _cold(benchmark, trace, run):
    """Time ``run(fresh_trace)``; the copy is made outside the timed region."""
    return benchmark.pedantic(
        run, setup=lambda: ((fresh_trace(trace),), {}), rounds=COLD_ROUNDS
    )


def _record(throughput_log, name, benchmark, references):
    mean = benchmark.stats.stats.mean
    throughput_log[name] = {
        "mean_seconds": mean,
        "refs_per_second": references / mean if mean else 0.0,
    }


def _lru_kernel(trace):
    # Default engine selection: the specialized LRU demand-fetch replay.
    return simulate(trace, UnifiedCache(CacheGeometry(16384, 16)))


def test_simulator_kernel_throughput(benchmark, trace, throughput_log):
    report = _cold(benchmark, trace, _lru_kernel)
    assert report.references == REFS
    _record(throughput_log, "simulator_kernel", benchmark, REFS)


def test_simulator_kernel_warm_throughput(benchmark, trace, throughput_log):
    _lru_kernel(trace)  # fill the memo; every timed round is a hit
    report = benchmark(_lru_kernel, trace)
    assert report.references == REFS
    _record(throughput_log, "simulator_kernel_warm", benchmark, REFS)


def test_simulator_fifo_kernel_throughput(benchmark, trace, throughput_log):
    def run():
        return simulate(
            trace,
            UnifiedCache(CacheGeometry(16384, 16, 4), replacement=policy_factory("fifo")),
            engine="kernel",
        )

    report = benchmark(run)
    assert report.references == REFS
    _record(throughput_log, "simulator_kernel_fifo", benchmark, REFS)


def test_simulator_random_kernel_throughput(benchmark, trace, throughput_log):
    def run():
        return simulate(
            trace,
            UnifiedCache(
                CacheGeometry(16384, 16, 4), replacement=policy_factory("random", seed=7)
            ),
            engine="kernel",
        )

    report = benchmark(run)
    assert report.references == REFS
    _record(throughput_log, "simulator_kernel_random", benchmark, REFS)


def test_opt_kernel_throughput(benchmark, trace, throughput_log):
    lines = trace.compiled(16).lines

    def run():
        return belady_min_misses(lines, 1024, num_sets=256)

    misses = benchmark(run)
    assert 0 < misses <= len(lines)
    _record(throughput_log, "opt_min", benchmark, REFS)


def test_simulator_generic_throughput(benchmark, trace, throughput_log):
    def run():
        return simulate(trace, UnifiedCache(CacheGeometry(16384, 16)), engine="generic")

    report = benchmark(run)
    assert report.references == REFS
    _record(throughput_log, "simulator_generic", benchmark, REFS)


def _mechanism(config):
    """``run(trace)``: a 16 KB direct-mapped primary carrying ``config``."""

    def run(trace):
        return simulate(
            trace,
            UnifiedCache(CacheGeometry(16384, 16, 1), miss_path=config.build(16)),
        )

    return run


_victim_cache = _mechanism(MechanismConfig(victim_entries=4))
_miss_cache = _mechanism(MechanismConfig(miss_entries=4))
_stream_buffers = _mechanism(MechanismConfig(stream_buffers=4, stream_depth=4))


def test_simulator_victim_cache_throughput(benchmark, trace, throughput_log):
    report = _cold(benchmark, trace, _victim_cache)
    assert report.references == REFS
    assert "victim-cache" in report.mechanism_names
    _record(throughput_log, "simulator_victim_cache", benchmark, REFS)


def test_simulator_victim_cache_warm_throughput(benchmark, trace, throughput_log):
    _victim_cache(trace)  # fill the memo; every timed round is a hit
    report = benchmark(_victim_cache, trace)
    assert report.references == REFS
    _record(throughput_log, "simulator_victim_cache_warm", benchmark, REFS)


def test_simulator_miss_cache_throughput(benchmark, trace, throughput_log):
    report = _cold(benchmark, trace, _miss_cache)
    assert report.references == REFS
    assert "miss-cache" in report.mechanism_names
    _record(throughput_log, "simulator_miss_cache", benchmark, REFS)


def test_simulator_miss_cache_warm_throughput(benchmark, trace, throughput_log):
    _miss_cache(trace)
    report = benchmark(_miss_cache, trace)
    assert report.references == REFS
    _record(throughput_log, "simulator_miss_cache_warm", benchmark, REFS)


def test_simulator_stream_buffers_throughput(benchmark, trace, throughput_log):
    report = _cold(benchmark, trace, _stream_buffers)
    assert report.references == REFS
    assert "stream-buffers" in report.mechanism_names
    _record(throughput_log, "simulator_stream_buffers", benchmark, REFS)


def test_simulator_stream_buffers_warm_throughput(benchmark, trace, throughput_log):
    _stream_buffers(trace)
    report = benchmark(_stream_buffers, trace)
    assert report.references == REFS
    _record(throughput_log, "simulator_stream_buffers_warm", benchmark, REFS)


#: Primary sizes of the two-level sweep (the hierarchy study's inner loop:
#: the same trace through DL1+L2 at several primary sizes).
_TWO_LEVEL_SIZES = (1024, 4096, 16384)


def _two_level_sweep(trace):
    reports = []
    for size in _TWO_LEVEL_SIZES:
        organization = UnifiedCache(
            CacheGeometry(size, 16, 1),
            miss_path=MechanismConfig(l2_size=size * 16, l2_line_size=32).build(16),
        )
        reports.append(simulate(trace, organization))
    return reports


def test_simulator_two_level_sweep_throughput(benchmark, trace, throughput_log):
    reports = _cold(benchmark, trace, _two_level_sweep)
    assert all("l2" in r.mechanism_names for r in reports)
    # One run replays the trace once per primary size.
    refs = REFS * len(_TWO_LEVEL_SIZES)
    _record(throughput_log, "simulator_two_level_sweep", benchmark, refs)


def test_simulator_two_level_sweep_warm_throughput(benchmark, trace, throughput_log):
    _two_level_sweep(trace)
    reports = benchmark(_two_level_sweep, trace)
    assert all("l2" in r.mechanism_names for r in reports)
    refs = REFS * len(_TWO_LEVEL_SIZES)
    _record(throughput_log, "simulator_two_level_sweep_warm", benchmark, refs)


def _table1_sweep(trace):
    return lru_miss_ratio_curve(trace, [32 * 2**i for i in range(12)])


def test_stack_distance_throughput(benchmark, trace, throughput_log):
    curve = _cold(benchmark, trace, _table1_sweep)
    assert len(curve) == 12
    _record(throughput_log, "stack_distance_sweep", benchmark, REFS)


def test_stack_distance_warm_throughput(benchmark, trace, throughput_log):
    _table1_sweep(trace)  # fill the memo; every timed round is a hit
    curve = benchmark(_table1_sweep, trace)
    assert len(curve) == 12
    _record(throughput_log, "stack_distance_sweep_warm", benchmark, REFS)


def test_associativity_surface_throughput(benchmark, trace, throughput_log):
    def run():
        return associativity_miss_surface(trace, _ASSOC_WAYS, _ASSOC_CAPACITIES)

    surface = benchmark(run)
    assert surface.shape == (len(_ASSOC_WAYS), len(_ASSOC_CAPACITIES))
    # One run covers the whole grid; refs/sec is per grid, not per cell.
    _record(throughput_log, "associativity_surface", benchmark, REFS)


def test_trace_load_mmap(benchmark, trace, trace_file, throughput_log):
    def run():
        return read_binary_trace(trace_file, mmap=True)

    loaded = benchmark(run)
    assert len(loaded) == len(trace)
    _record(throughput_log, "trace_load_mmap", benchmark, REFS)


def test_trace_load_copy(benchmark, trace, trace_file, throughput_log):
    def run():
        return read_binary_trace(trace_file)

    loaded = benchmark(run)
    assert len(loaded) == len(trace)
    _record(throughput_log, "trace_load_copy", benchmark, REFS)


def test_generator_throughput(benchmark, throughput_log):
    workload = SyntheticWorkload(catalog.get("VCCOM"))

    def run():
        return workload.generate(REFS)

    generated = benchmark(run)
    assert len(generated) == REFS
    _record(throughput_log, "trace_generator", benchmark, REFS)


@pytest.mark.parametrize("family", GEN_FAMILIES)
def test_generation_vectorized_throughput(benchmark, family, throughput_log):
    workload = SyntheticWorkload(catalog.get(family))
    workload.generate(GEN_REFS, engine="vectorized")  # warm code + page cache

    def run():
        return workload.generate(GEN_REFS, engine="vectorized")

    generated = benchmark(run)
    assert len(generated) == GEN_REFS
    _record(throughput_log, f"generation_vectorized_{family}", benchmark, GEN_REFS)


@pytest.mark.parametrize("family", GEN_FAMILIES)
def test_generation_reference_throughput(benchmark, family, throughput_log):
    # The scalar oracle runs ~10-20x slower, so it gets a tenth of the
    # references; refs/sec in the report stays directly comparable.
    refs = max(1000, GEN_REFS // 10)
    workload = SyntheticWorkload(catalog.get(family))

    def run():
        return workload.generate(refs, engine="reference")

    generated = benchmark(run)
    assert len(generated) == refs
    _record(throughput_log, f"generation_reference_{family}", benchmark, refs)


def test_trace_store_cold_write(benchmark, trace, tmp_path_factory, throughput_log):
    # Cold path: the store serializes an already-built trace and maps it
    # back (generation cost is benchmarked separately above).
    identity = trace_identity(catalog.get("VCCOM"), REFS)
    counter = iter(range(10**9))

    def run():
        store = TraceStore(tmp_path_factory.mktemp(f"store{next(counter)}"))
        resolved, hit = store.get_or_create(identity, lambda: trace)
        assert hit is False
        return resolved

    resolved = benchmark(run)
    assert len(resolved) == len(trace)
    _record(throughput_log, "trace_store_cold", benchmark, REFS)


def test_trace_store_warm_load(benchmark, trace, tmp_path_factory, throughput_log):
    store = TraceStore(tmp_path_factory.mktemp("store_warm"))
    identity = trace_identity(catalog.get("VCCOM"), REFS)
    store.get_or_create(identity, lambda: trace)

    def run():
        resolved, hit = store.get_or_create(
            identity, lambda: pytest.fail("warm load must not rebuild")
        )
        assert hit is True
        return resolved

    resolved = benchmark(run)
    assert len(resolved) == len(trace)
    _record(throughput_log, "trace_store_warm", benchmark, REFS)
