"""One-shot experiment report: every table and figure in one document.

:func:`generate_report` runs the complete reproduction — calibration
check, Tables 1-5, Figures 1-10, validations — and renders a Markdown
document of paper-vs-measured results.  The repository's EXPERIMENTS.md
is not produced this way: it records the benches' full-length run
(``REPRO_BENCH_FULL=1 pytest benchmarks/``), annotated.

The prefetch study dominates the cost (four simulations per workload per
size); pass ``include_prefetch=False`` for a quick pass.
"""

from __future__ import annotations

import time
from collections.abc import Callable

from ..workloads.validation import validate_catalog
from .design_targets import (
    clark_comparison,
    design_target_estimate,
    estimate_68020_icache,
    fit_design_curve,
    z80000_comparison,
)
from .fudge import ArchitectureEstimator
from .missratio import table1_experiment
from .prefetch import prefetch_study
from .published import figure2_series
from .split import figures_3_and_4
from .sweep import PAPER_CACHE_SIZES
from .table2 import table2_experiment
from .tables import render_series
from .writeback import table3_experiment

__all__ = ["generate_report"]


def _block(text: str) -> str:
    return f"```\n{text}\n```"


def generate_report(
    length: int | None = None,
    include_prefetch: bool = True,
    progress: Callable[[str], None] | None = None,
) -> str:
    """Run every experiment and render a Markdown report.

    Args:
        length: references per trace (None = the paper's lengths).
        include_prefetch: run the expensive Section 3.5 study.
        progress: optional callback receiving one line per completed stage.

    Returns:
        The report as a Markdown string.
    """
    def say(message: str) -> None:
        if progress is not None:
            progress(message)

    started = time.time()
    sections: list[str] = [
        "# Experiment report — Smith, ISCA 1985 reproduction",
        "",
        f"Trace length: {length or 'paper defaults (250k, M68000 100k)'}.",
        "",
    ]

    say("calibration")
    calibration = validate_catalog(length)
    sections += ["## Catalog calibration", "", _block(calibration.render()), ""]

    say("table 1 / figure 1")
    table1 = table1_experiment(length=length)
    comparison = table1.comparison_with_paper()
    lines = ["group average miss ratio @1K — paper vs measured:"]
    for group, (paper, ours) in comparison.items():
        lines.append(f"  {group:18s} {paper:.3f}  {ours:.3f}")
    averages = table1.group_averages()
    sections += [
        "## Table 1 / Figure 1 — unified miss ratios",
        "",
        _block("\n".join(lines)),
        "",
        _block(render_series(
            "group \\ bytes", list(table1.sizes),
            {g: a.tolist() for g, a in averages.items()},
            title="Figure 1 (group averages)",
        )),
        "",
    ]

    say("table 2")
    table2 = table2_experiment(length=length)
    sections += ["## Table 2 — trace characteristics", "",
                 _block(table2.render().split("\n\n")[-1]), ""]

    say("figure 2")
    sections += [
        "## Figure 2 — [Hard80] MVS curves",
        "",
        _block(render_series(
            "curve \\ bytes", list(PAPER_CACHE_SIZES),
            figure2_series(list(PAPER_CACHE_SIZES)),
        )),
        "",
    ]

    say("table 3")
    table3 = table3_experiment(length=length)
    sections += ["## Table 3 — dirty-push fractions", "",
                 _block(table3.render()),
                 f"\nmeasured average {table3.average:.2f} (paper 0.47), "
                 f"sigma {table3.stdev:.2f} (paper 0.18).", ""]

    say("figures 3-4")
    split = figures_3_and_4(length=length)
    instruction, data = split.average_curves()
    sections += [
        "## Figures 3-4 — split instruction/data miss ratios",
        "",
        _block(render_series(
            "average \\ bytes", list(split.sizes),
            {"instruction": instruction.tolist(), "data": data.tolist()},
            title="workload-average split miss ratios",
        )),
        "",
    ]

    if include_prefetch:
        say("prefetch study (tables 4, figures 5-10)")
        study = prefetch_study(length=length)
        sections += ["## Table 4 / Figures 5-10 — the prefetch study", "",
                     _block(study.render_table4()), ""]

    say("table 5")
    targets = design_target_estimate(length=length)
    law = fit_design_curve(targets)
    sections += [
        "## Table 5 — design target miss ratios",
        "",
        _block(targets.render()),
        f"\nfitted power law: miss ~ {law.coefficient:.3f} x (size/1KiB)^"
        f"-{law.exponent:.3f}; doubling factors "
        f"{targets.halving_factor(32, 512):.2f} (32-512B), "
        f"{targets.halving_factor(512, 65536):.2f} (512B-64K), "
        f"{targets.halving_factor(32, 65536):.2f} overall "
        "(paper: 0.14 / 0.27 / 0.23).",
        "",
    ]

    say("validations")
    clark = clark_comparison(targets)
    z80000 = z80000_comparison(length)
    icache = estimate_68020_icache(length=length)
    estimator = ArchitectureEstimator(length=length)
    lines = ["[Clar83] VAX 11/780:"]
    for key, value in clark.items():
        lines.append(f"  {key:32s} {value:.4f}")
    lines.append("")
    lines.append("[Alpe83] Z80000 256B sector cache (hit ratios):")
    for subblock, row in z80000.items():
        lines.append(
            f"  {subblock:2d}B: projected={row['alpert_hit']:.3f} "
            f"z8000={row['z8000_hit']:.3f} 32-bit={row['design_hit']:.3f}"
        )
    lines.append("")
    lines.append("68020 256B/4B-line I-cache (paper predicts 0.2-0.6):")
    lines.append(
        f"  min={icache['minimum']:.3f} median={icache['median']:.3f} "
        f"p85={icache['percentile85']:.3f} max={icache['maximum']:.3f}"
    )
    lines.append("")
    lines.append("Section 4.3 interpolation (instruction:data ratio):")
    for complexity in (1.0, 0.5, 0.0):
        ratio = estimator.estimate(complexity).instruction_to_data_ratio
        lines.append(f"  complexity {complexity:.1f} -> {ratio:.2f}")
    sections += ["## Section 4.1 / 4.3 — validations and fudge factors", "",
                 _block("\n".join(lines)), ""]

    elapsed = time.time() - started
    sections.append(f"_Generated in {elapsed:.0f}s._")
    say("done")
    return "\n".join(sections)
