"""Ablation 1: the locality model vs random-number-driven simulation.

Section 1.1's argument for trace-driven simulation: "there do not
currently exist any generally accepted or believable models ... thus it is
not possible to ... drive a simulator with a good representation of a
program."  A uniform-random address stream (the naive alternative) has no
temporal locality, so it wildly overpredicts miss ratios; this ablation
quantifies the gap between it and the structured workload model at equal
footprint and mix.
"""

import numpy as np

from common import bench_length, run_once, save_result

from repro.analysis import render_series
from repro.core import lru_miss_ratio_curve
from repro.trace import Trace, TraceMetadata
from repro.workloads import catalog

SIZES = (256, 1024, 4096, 16384)


def _random_equivalent(trace, seed=99):
    """Uniform-random trace with the same mix, footprint and length."""
    rng = np.random.default_rng(seed)
    unique = np.unique(trace.addresses // 16) * 16
    addresses = rng.choice(unique, size=len(trace)) + 4 * rng.integers(
        0, 4, size=len(trace)
    )
    return Trace(
        trace.kinds, addresses, trace.sizes, TraceMetadata(name="random-equivalent")
    )


def test_ablation_locality_model(benchmark):
    def experiment():
        length = bench_length()
        rows = {}
        for name in ("VCCOM", "FGO1", "ZGREP"):
            structured = catalog.generate(name, length)
            random_like = _random_equivalent(structured)
            rows[f"{name} (model)"] = lru_miss_ratio_curve(structured, list(SIZES)).tolist()
            rows[f"{name} (random)"] = lru_miss_ratio_curve(random_like, list(SIZES)).tolist()
        return rows

    rows = run_once(benchmark, experiment)

    text = render_series(
        "stream \\ bytes", list(SIZES), rows,
        title="Ablation: structured workload model vs uniform-random addresses",
    )
    save_result("ablation_locality", text)
    print()
    print(text)

    for name in ("VCCOM", "FGO1", "ZGREP"):
        model = np.array(rows[f"{name} (model)"])
        random_like = np.array(rows[f"{name} (random)"])
        # Random streams overpredict at every size, by a large factor for
        # the small caches a 1985 designer cared about.
        assert (random_like >= model - 1e-9).all()
        assert random_like[0] > 3 * model[0]
