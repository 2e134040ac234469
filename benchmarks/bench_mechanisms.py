"""Miss-path mechanism study on a small catalog subset.

Runs the Jouppi-style mechanism study (victim/miss caches, stream
buffers, the VC+SB / MC+SB combinations, and a two-level hierarchy)
against a direct-mapped primary over one workload per architecture
group, asserts the literature's qualitative ordering, and writes both
the rendered tables and a machine-readable
``benchmarks/results/BENCH_mechanisms.json`` (per-variant mean
effective miss ratios and deltas) for CI to archive and diff.

The stream-buffer third-policy rerun of Section 3.5 is exercised by the
prefetch-study benchmarks (``bench_table4_fig8_9_10.py`` renders the
stream table when present); this module owns the mechanism campaign.
"""

import math

from common import bench_length, merge_json_result, run_once, save_result

from repro.analysis import mechanism_study

#: One workload per architecture group: VAX Unix, IBM batch, Z8000 Unix,
#: Motorola 68000, VAX Lisp.
STUDY_WORKLOADS = ("VCCOM", "FGO1", "ZGREP", "TWOD", "LISP1")

PRIMARY_SIZE = 4096


def test_mechanism_study(benchmark):
    study = run_once(
        benchmark,
        lambda: mechanism_study(
            workloads=list(STUDY_WORKLOADS),
            size=PRIMARY_SIZE,
            length=bench_length(),
        ),
    )

    text = study.summary()
    save_result("mechanisms", text)
    print()
    print(text)

    assert [row.workload for row in study.rows] == list(STUDY_WORKLOADS)

    # Every report carries its per-mechanism statistics blocks.
    for row in study.rows:
        for name, report in row.variants.items():
            assert report.mechanism_names, (row.workload, name)

    # The literature's qualitative ordering on a direct-mapped primary:
    # conflict absorbers help; the victim cache beats the miss cache;
    # combinations beat their constituents; the L2 leaves the primary
    # (effective) miss ratio unchanged.
    for name in ("vc", "mc", "sb", "vc+sb", "mc+sb"):
        assert study.mean_delta(name) < 0, name
    assert study.mean_effective("vc") <= study.mean_effective("mc")
    assert study.mean_effective("vc+sb") < study.mean_effective("vc")
    assert study.mean_effective("vc+sb") < study.mean_effective("sb")
    assert math.isclose(study.mean_delta("l2"), 0.0, abs_tol=1e-12)

    payload = {
        "workloads": list(STUDY_WORKLOADS),
        "primary_size": PRIMARY_SIZE,
        "line_size": study.line_size,
        "associativity": study.associativity,
        "trace_length": study.trace_length,
        "mean_baseline_miss_ratio": study.mean_baseline(),
        "variants": {
            name: {
                "mean_effective_miss_ratio": study.mean_effective(name),
                "mean_delta_vs_baseline": study.mean_delta(name),
            }
            for name in study.variant_names
        },
    }
    merge_json_result("BENCH_mechanisms", payload)
