"""Output checks: the program's results against its own oracle.

``simulate(..., engine="generic")`` is the repository's bit-identity
reference: every fast path must reproduce its report exactly.  After the
timed rounds a seeded sample of cells is re-run on it in this process;
every round's outputs must equal the first round's; and a served round
must show the dedupe invariants.  Each cell that fails a check counts as
a failed cell.
"""

from __future__ import annotations

import dataclasses
import random

from repro.core.address import CacheGeometry
from repro.core.jobs import StackSweepJob
from repro.core.organization import UnifiedCache
from repro.core.simulator import simulate
from repro.service.spec import summarize_value


def oracle_agrees(cell, value, rng: random.Random) -> bool:
    """Whether ``value`` is what the generic engine computes for ``cell``.

    A served value is the JSON summary the service returns, so it is
    compared with the summary of the oracle's report.
    """
    trace = cell.trace.build()
    job = cell.job
    if isinstance(job, StackSweepJob):
        # A sweep is checked at one of its sizes against a fully
        # associative LRU cache of that size.  The sweep reports
        # 1 - hits/refs, which differs from misses/refs in the last bits,
        # so the two must agree on the miss count instead.
        index = rng.randrange(len(job.sizes))
        organization = UnifiedCache(CacheGeometry(job.sizes[index], job.line_size))
        report = simulate(
            trace, organization, purge_interval=job.purge_interval, engine="generic"
        )
        return abs(value[index] - report.miss_ratio) * report.overall.references < 0.5
    report = dataclasses.replace(job, engine="generic").run(trace)
    if isinstance(value, dict):
        return summarize_value(report) == value
    return report == value


def spot_check(outputs, seed: int, count: int) -> int:
    """Failures among a seeded sample of ``count`` (cell, value) pairs."""
    rng = random.Random(seed)
    pairs = [pair for pair in outputs if pair[1] is not None]
    sample = rng.sample(pairs, min(count, len(pairs)))
    return sum(not oracle_agrees(cell, value, rng) for cell, value in sample)


def differences(reference: dict, other: dict) -> int:
    """Cells whose value differs between two rounds of one workload."""
    return sum(
        reference.get(name, (None, None))[1] != other.get(name, (None, None))[1]
        for name in reference.keys() | other.keys()
    )


def served_violations(outcomes: list[dict]) -> int:
    """Served cells breaking the dedupe invariants of one round.

    Every client and campaign must see the same value for a cell key, and
    no key may run more than once: the count of ``source == "run"`` is at
    most the number of distinct cells.
    """
    values: dict[str, list] = {}
    for outcome in outcomes:
        values.setdefault(outcome["key"], []).append(outcome["value"])
    disagreeing = sum(
        value != seen[0] for seen in values.values() for value in seen[1:]
    )
    runs = sum(1 for outcome in outcomes if outcome["source"] == "run")
    return disagreeing + max(0, runs - len(values))
