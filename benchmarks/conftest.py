"""Record the paper run's wall time, bench module by bench module.

Every passing pytest session over the benches adds one row to ``runs``
in ``results/BENCH_paper.json``: the wall time of each bench module
that ran (the setup, call and teardown of its tests) and their total.
A row is keyed by the source commit, the bench length
(:func:`common.bench_length`; the core-throughput and service benches
size their own inputs), the result cache (``no-cache``; ``cold`` when
the cache directory starts empty; else ``warm``) and the campaign worker
count, so successive runs build a trajectory instead of replacing the
file; a rerun under the same key replaces its row.
"""

from __future__ import annotations

import os
from pathlib import Path

from common import bench_length, merge_json_result, provenance


def _result_cache() -> str:
    directory = os.environ.get("REPRO_CACHE_DIR")
    if not directory:
        return "no-cache"
    path = Path(directory)
    return "warm" if path.is_dir() and any(path.iterdir()) else "cold"


class _PaperRun:
    def __init__(self) -> None:
        self.cache = _result_cache()
        self.seconds: dict[str, float] = {}

    def pytest_runtest_logreport(self, report) -> None:
        module = report.nodeid.split("::")[0]
        self.seconds[module] = self.seconds.get(module, 0.0) + report.duration

    def pytest_sessionfinish(self, session) -> None:
        if not self.seconds or session.testsfailed:
            return
        where = provenance()
        length = bench_length()
        key = "|".join(
            [
                str(where["commit"]),
                "paper" if length is None else str(length),
                self.cache,
                f"workers={where['workers']}",
            ]
        )
        row = {
            "benches": {name: round(s, 3) for name, s in sorted(self.seconds.items())},
            "total_s": round(sum(self.seconds.values()), 3),
            "dirty": where["dirty"],
        }
        merge_json_result("BENCH_paper", {"runs": {key: row}}, merge_keys=("runs",))


def pytest_configure(config) -> None:
    config.pluginmanager.register(_PaperRun(), "paper-run")
