"""The paper's experiments (Layer C of the reproduction).

One module per table/figure family — see DESIGN.md's experiment index:

* :mod:`repro.analysis.missratio` — Table 1 / Figure 1;
* :mod:`repro.analysis.split` — Figures 3-4;
* :mod:`repro.analysis.writeback` — Table 3;
* :mod:`repro.analysis.prefetch` — Table 4, Figures 5-10;
* :mod:`repro.analysis.published` — Figure 2 and the published validation
  data of Sections 1.2 / 4.1;
* :mod:`repro.analysis.design_targets` — Table 5 and the Section 3.4/4.1
  estimates;
* :mod:`repro.analysis.fudge` — Section 4's cross-architecture factors;
* :mod:`repro.analysis.mechanisms` — miss-path mechanism study (beyond
  the paper: victim/miss caches, stream buffers, two-level hierarchy).
"""

from .sweep import PAPER_CACHE_SIZES, PAPER_LINE_SIZE, MissRatioCurve
from .missratio import (
    PAPER_GROUP_AVERAGES_1K,
    PAPER_LISP_AVERAGES,
    Table1Result,
    table1_experiment,
)
from .writeback import PAPER_TABLE3, Table3Result, Table3Row, table3_experiment
from .writepolicy import WritePolicyStudy, write_policy_study
from .split import SplitMissRatioResult, figures_3_and_4
from .prefetch import (
    PAPER_TABLE4,
    PREFETCH_WORKLOADS,
    PolicyComparison,
    PrefetchStudyResult,
    PrefetchWorkloadResult,
    prefetch_study,
)
from .mechanisms import (
    DEFAULT_VARIANTS,
    MechanismStudyResult,
    WorkloadMechanismResult,
    mechanism_study,
)
from .published import (
    ALPERT83_Z80000,
    CLARK83_VAX,
    HARD80_PROBLEM,
    HARD80_SUPERVISOR,
    PowerLawMissRatio,
    figure2_series,
)
from .design_targets import (
    PAPER_TABLE5,
    DesignTargets,
    clark_comparison,
    design_target_estimate,
    estimate_68020_icache,
    fit_design_curve,
    z80000_comparison,
)
from .fudge import (
    ARCHITECTURE_COMPLEXITY,
    ArchitectureEstimator,
    ArchitectureStatistics,
    architecture_statistics,
    fudge_factor,
    fudge_table,
)
from .associativity import DEFAULT_WAYS, AssociativityStudy, associativity_study
from .linesize import DEFAULT_LINE_SIZES, LineSizeStudy, line_size_study
from .report import generate_report
from .tables import render_series, render_table

__all__ = [
    "PAPER_CACHE_SIZES",
    "PAPER_LINE_SIZE",
    "MissRatioCurve",
    "PAPER_GROUP_AVERAGES_1K",
    "PAPER_LISP_AVERAGES",
    "Table1Result",
    "table1_experiment",
    "PAPER_TABLE3",
    "Table3Result",
    "Table3Row",
    "table3_experiment",
    "WritePolicyStudy",
    "write_policy_study",
    "SplitMissRatioResult",
    "figures_3_and_4",
    "PAPER_TABLE4",
    "PREFETCH_WORKLOADS",
    "PolicyComparison",
    "PrefetchStudyResult",
    "PrefetchWorkloadResult",
    "prefetch_study",
    "DEFAULT_VARIANTS",
    "MechanismStudyResult",
    "WorkloadMechanismResult",
    "mechanism_study",
    "ALPERT83_Z80000",
    "CLARK83_VAX",
    "HARD80_PROBLEM",
    "HARD80_SUPERVISOR",
    "PowerLawMissRatio",
    "figure2_series",
    "PAPER_TABLE5",
    "DesignTargets",
    "clark_comparison",
    "design_target_estimate",
    "estimate_68020_icache",
    "fit_design_curve",
    "z80000_comparison",
    "ARCHITECTURE_COMPLEXITY",
    "ArchitectureEstimator",
    "ArchitectureStatistics",
    "architecture_statistics",
    "fudge_factor",
    "fudge_table",
    "DEFAULT_WAYS",
    "AssociativityStudy",
    "associativity_study",
    "DEFAULT_LINE_SIZES",
    "LineSizeStudy",
    "line_size_study",
    "generate_report",
    "render_series",
    "render_table",
]
