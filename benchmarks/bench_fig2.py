"""Figure 2: the [Hard80] MVS supervisor / problem-state curves.

These are analytic power laws (re-fitted to the paper's quoted hit ratios,
see repro.analysis.published); the benchmark regenerates the series and
checks them against the quoted anchors, then compares our MVS trace rows
with the supervisor curve the way Section 3.1 does.
"""

from common import bench_length, run_once, save_result

from repro.analysis import (
    HARD80_SUPERVISOR,
    PAPER_CACHE_SIZES,
    figure2_series,
    render_series,
)
from repro.core import lru_miss_ratio_curve
from repro.workloads import catalog


def _make():
    sizes = list(PAPER_CACHE_SIZES)
    series = figure2_series(sizes)
    mvs = catalog.generate("MVS2", bench_length())
    series["MVS2 (ours, 16B lines)"] = lru_miss_ratio_curve(mvs, sizes).tolist()
    return sizes, series


def test_fig2(benchmark):
    sizes, series = run_once(benchmark, _make)

    text = render_series("curve \\ bytes", sizes, series,
                         title="Figure 2: [Hard80] MVS miss ratios")
    save_result("fig2", text)
    print()
    print(text)

    # The quoted [Hard80] hit-ratio anchors.
    assert abs(HARD80_SUPERVISOR.hit_ratio(16384) - 0.925) < 0.003
    assert abs(HARD80_SUPERVISOR.hit_ratio(65536) - 0.964) < 0.003

    # Section 3.1: "The MV52 trace corresponds fairly well with the MVS
    # trace miss ratios from [Hard80]" — after allowing for the line-size
    # difference (32B there, 16B here), our MVS row should bracket the
    # supervisor curve within a factor of ~2 in the 8K-64K range.
    ours = dict(zip(sizes, series["MVS2 (ours, 16B lines)"]))
    for size in (8192, 16384, 32768):
        hard80 = HARD80_SUPERVISOR.miss_ratio(size)
        assert 0.4 * hard80 < ours[size] < 3.0 * hard80
