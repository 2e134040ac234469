"""The paper's multiprogramming quantum.

Table 3's mixes run "in a round robin manner, switching and purging every
20,000 memory references": in a campaign, a ``mix`` trace spec whose job
purges at the same interval (:func:`repro.analysis.sweep.workload_spec`).
"""

from __future__ import annotations

__all__ = ["DEFAULT_QUANTUM"]

#: The paper's standard task-switch quantum in references ("We believe that
#: the value 20,000 is reasonable and representative").
DEFAULT_QUANTUM = 20_000
