"""Ablation 2: sensitivity to the task-switch quantum.

Table 3's caveat: "We believe that the value 20,000 is reasonable and
representative, but the results are definitely sensitive to that figure."
This ablation sweeps the purge interval and shows the sensitivity: shorter
quanta mean more cold restarts and higher miss ratios, with the effect
largest for big caches (which lose the most state per purge).
"""

import numpy as np

from common import bench_length, run_once, save_result

from repro.analysis import render_series
from repro.core import lru_miss_ratio_curve
from repro.workloads import catalog

QUANTA = (5_000, 10_000, 20_000, 40_000, None)
SIZES = (1024, 4096, 16384)


def test_ablation_purge_interval(benchmark):
    def experiment():
        trace = catalog.generate("VCCOM", bench_length())
        rows = {}
        for quantum in QUANTA:
            label = f"quantum={quantum or 'none'}"
            rows[label] = lru_miss_ratio_curve(
                trace, list(SIZES), purge_interval=quantum
            ).tolist()
        return rows

    rows = run_once(benchmark, experiment)

    text = render_series(
        "quantum \\ bytes", list(SIZES), rows,
        title="Ablation: miss ratio vs task-switch quantum (VCCOM)",
    )
    save_result("ablation_purge", text)
    print()
    print(text)

    # Monotone: purging more often can only hurt.
    matrix = np.array([rows[f"quantum={q or 'none'}"] for q in QUANTA])
    for column in matrix.T:
        assert (np.diff(column) <= 1e-9).all()

    # The sensitivity is real: 5k vs no purging differs substantially at
    # 16K, which is the paper's caveat in numbers.
    no_purge = rows["quantum=none"][-1]
    fast_switch = rows["quantum=5000"][-1]
    assert fast_switch > 1.5 * no_purge
