"""The benchmark's workloads, each built from a seed.

A workload turns ``--seed`` into campaign cells; the program under test
receives only those cells.  One round runs the whole workload once,
cold: a fresh result cache, fresh pool workers, and no trace object or
compiled view carried over from an earlier round (the harness clears this
process's memos before each round).  The traces were generated into the
trace store during set-up, so a round maps them instead of generating.

Every workload simulates on one worker: local campaigns run serially in
this process, and the served workload's pool has one worker process.  On
a host whose few cores are shared with other tenants, a round spread over
every core times the host's scheduler as much as the program: at two
workers on two cores, rounds of the same inputs in one run differed by
30%, at one worker by 7%.
"""

from __future__ import annotations

import asyncio
import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis import mechanisms, missratio
from repro.campaign import CampaignError, run_campaign
from repro.core.jobs import CampaignCell, SimulateJob, TraceSpec
from repro.service import BackgroundServer, PoolBackend, Scheduler, ServiceClient
from repro.workloads import catalog

WORKERS = 1

#: Catalog traces by the machine they model.  miss-path draws one trace from each group, so every seed mixes
#: architectures.  The groups leave out the traces whose mechanism study
#: costs 15-100% more than a typical trace of the group (MVS1, MVS2,
#: CCOMP1, CGO2, FCOMP1, ZPR, ZOD), so a seed changes which traces run
#: but hardly how much work a round does.
GROUPS = {
    "ibm370": ("FGO1", "FGO2", "FGO3", "CGO1", "CGO3"),
    "z8000": ("ZVI", "ZGREP", "ZSORT", "ZCC", "ZNM", "ZED", "ZWC", "ZCAT",
              "ZAWK", "ZLS"),
    "vax": ("VCCOM", "VSPICE", "VTWOD", "VTROFF", "VQSORT", "VMERGE",
            "VGREP", "VOD", "VCOMPACT", "VDC"),
}


@dataclass
class Round:
    """What one round did, as the harness measures and checks it.

    Attributes:
        wall: host seconds from the first request to the last result.
        attempted: cells asked for.
        delivered: cells that came back with a value.
        refs: references replayed by the cells that ran (not cache hits).
        failed: cells the program reported as failed.
        retried: cells that needed more than one attempt.
        outputs: cell id (label, or key when served) -> (cell, value).
        turnaround: seconds per campaign, submit to ``campaign_finished``.
        queue_wait: seconds per served campaign from queued to started.
        outcomes: served outcome documents, every campaign's.
        setup: per-round set-up outside ``wall`` (starting the server).
        spans: spans of a traced round.
    """

    wall: float
    attempted: int
    delivered: int
    refs: int
    failed: int
    retried: int
    outputs: dict
    turnaround: list = field(default_factory=list)
    queue_wait: list = field(default_factory=list)
    outcomes: list = field(default_factory=list)
    setup: float = 0.0
    spans: list = field(default_factory=list)


@contextmanager
def _substituted(module, name: str, value):
    original = getattr(module, name)
    setattr(module, name, value)
    try:
        yield
    finally:
        setattr(module, name, original)


class _Campaigns:
    """``run_campaign`` for an analysis study: adds the runner seam, keeps results."""

    def __init__(self, runner) -> None:
        self.runner = runner
        self.results = []

    def __call__(self, cells, **kwargs):
        if self.runner is not None:
            kwargs["runner"] = self.runner
        try:
            result = run_campaign(cells, **kwargs)
        except CampaignError as exc:
            self.results.append(exc.result)
            raise
        self.results.append(result)
        return result


class LocalWorkload:
    """A workload run as local campaigns through ``run_campaign``."""

    name = ""
    served = False
    traces: list[tuple[str, int | None]]

    def drive(self, run, cache: Path) -> None:
        raise NotImplementedError

    def run_round(self, directory: Path, runner=None) -> Round:
        campaigns = _Campaigns(runner)
        start = time.perf_counter()
        try:
            self.drive(campaigns, directory / "cache")
        except CampaignError:
            pass  # the failed cells are counted below
        wall = time.perf_counter() - start
        outcomes = [o for result in campaigns.results for o in result.outcomes]
        return Round(
            wall=wall,
            attempted=len(outcomes),
            delivered=sum(o.ok for o in outcomes),
            refs=sum(o.references for o in outcomes if not o.cached),
            failed=sum(not o.ok for o in outcomes),
            retried=sum(o.attempts > 1 for o in outcomes),
            outputs={o.label: (o.cell, o.value) for o in outcomes},
            turnaround=[wall],
        )


class Table1(LocalWorkload):
    """The paper's headline table: ``analysis.table1_experiment``.

    A 12-size fully associative LRU stack sweep over all 57 catalog traces
    at paper length, one cell per trace.  The seed orders the traces.
    """

    name = "table1"

    def __init__(self, seed: int, length: int | None) -> None:
        names = catalog.table1_names()
        random.Random(seed).shuffle(names)
        self.names, self.length = names, length
        self.traces = [(name, length) for name in names]

    def drive(self, run, cache: Path) -> None:
        with _substituted(missratio, "run_campaign", run):
            missratio.table1_experiment(
                names=self.names, length=self.length, workers=WORKERS, cache=cache
            )


class MissPath(LocalWorkload):
    """``analysis.mechanism_study`` at 4 KB direct-mapped.

    Several traces plus one Table-3 multiprogramming mix, each with the
    baseline and the vc, mc, sb, vc+sb, mc+sb and l2 variants; every
    variant runs on the generic per-reference engine.  Traces are half
    the paper's length, so that a round takes about three seconds and a
    run holds enough rounds to report the quickest third of.
    """

    name = "miss-path"
    LENGTH = 125_000
    #: The mix is fixed, so that the seed varies only the single traces.
    MIX = "Z8000 - Assorted"

    def __init__(self, seed: int, length: int | None) -> None:
        rng = random.Random(seed)
        names = [rng.choice(group) for group in GROUPS.values()]
        self.labels = names + [self.MIX]
        self.length = length = length or self.LENGTH
        members = catalog.MULTIPROGRAMMING_MIXES[self.MIX]
        self.traces = [(name, length) for name in dict.fromkeys(names + members)]

    def drive(self, run, cache: Path) -> None:
        with _substituted(mechanisms, "run_campaign", run):
            mechanisms.mechanism_study(
                workloads=self.labels, size=4096, associativity=1,
                length=self.length, workers=WORKERS, cache=cache,
            )


@dataclass
class _Campaign:
    cells: list
    final: dict | None = None
    turnaround: float | None = None
    queue_wait: float | None = None


def _one_campaign(client: ServiceClient, cells: list) -> _Campaign:
    """Submit one campaign and wait for it, timing what the client sees."""
    seen: dict[str, tuple[float, float]] = {}

    def on_event(event: dict) -> None:
        seen.setdefault(event["event"], (event["time"], time.perf_counter()))

    record = _Campaign(cells)
    start = time.perf_counter()
    try:
        record.final = client.run(cells, on_event=on_event)
        record.turnaround = seen["campaign_finished"][1] - start
        record.queue_wait = seen["campaign_started"][0] - seen["campaign_queued"][0]
    except Exception:  # an undelivered campaign: its cells count as failed
        record.final = None
    return record


class Served:
    """An in-process service under two closed-loop clients.

    A ``BackgroundServer`` over ``Scheduler`` + ``PoolBackend`` (``pool`` is
    the ``serve`` default) with one worker.  Each client submits its
    campaigns one after another.  A campaign holds eight 5k-reference
    cells: half drawn from a small pool shared by both clients (reads
    served from the result cache or shared in flight), half seen nowhere
    else in the round (writes: a run followed by ``ResultCache.put``).
    Cells are short so that the service, not the worker's replay, sets the
    pace: at 20k references the worker was busy 70% of a round.
    """

    name = "served"
    served = True
    LENGTH = 5_000
    CLIENTS = 2
    CAMPAIGNS = 60  # per client and round: 120 a round, so p90 has 12 beyond it
    REPEATED = 4
    UNIQUE = 4
    POOL = 16
    TRACES = 8
    WARMUP_LENGTH = 500
    SIZES = (256, 512, 1024, 2048, 4096, 8192, 16384)
    WAYS = (1, 2, 4, 8, None)

    def __init__(self, seed: int, length: int | None) -> None:
        rng = random.Random(seed)
        length = length or self.LENGTH
        names = rng.sample(catalog.names(), self.TRACES)
        grid = [
            CampaignCell(
                label=f"{name}/{size}/{ways or 'full'}/{policy}",
                trace=TraceSpec.catalog(name, length),
                job=SimulateJob(size=size, associativity=ways, replacement=policy),
            )
            for name in names
            for size in self.SIZES
            for ways in self.WAYS
            for policy in ("lru", "fifo")
        ]
        rng.shuffle(grid)
        pool, unique = grid[: self.POOL], iter(grid[self.POOL:])
        self.campaigns = [
            [
                rng.sample(pool, self.REPEATED) + [next(unique) for _ in range(self.UNIQUE)]
                for _ in range(self.CAMPAIGNS)
            ]
            for _ in range(self.CLIENTS)
        ]
        # Starting the server begins with one tiny cell, on a trace of its
        # own, run straight on the backend: that forks the pool's workers
        # before the server accepts a connection.  Workers forked later
        # inherit the sockets of connections open at that moment, so
        # those connections never close and their campaigns never end.
        self.warmup = CampaignCell(
            label="warmup",
            trace=TraceSpec.catalog(names[0], self.WARMUP_LENGTH),
            job=SimulateJob(size=1024),
        )
        self.traces = [(name, length) for name in names]
        self.traces.append((names[0], self.WARMUP_LENGTH))

    def run_round(self, directory: Path, runner=None) -> Round:
        backend = (
            PoolBackend(workers=WORKERS)
            if runner is None
            else PoolBackend(workers=WORKERS, runner=runner)
        )
        begin = time.perf_counter()
        asyncio.run(backend.run(self.warmup))
        server = BackgroundServer(Scheduler(backend, cache=directory / "cache")).start()
        setup = time.perf_counter() - begin
        records: list[list[_Campaign]] = [[] for _ in range(self.CLIENTS)]

        def client_loop(slot: int) -> None:
            client = ServiceClient(server.url, user=f"client-{slot}", timeout=60.0)
            for cells in self.campaigns[slot]:
                records[slot].append(_one_campaign(client, cells))

        threads = [
            threading.Thread(target=client_loop, args=(slot,))
            for slot in range(self.CLIENTS)
        ]
        start = time.perf_counter()
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=150.0)
            wall = time.perf_counter() - start
            if any(thread.is_alive() for thread in threads):
                raise RuntimeError("a served client did not finish in time")
        finally:
            server.stop()
        return self._collect(records, wall, setup)

    def _collect(self, records, wall: float, setup: float) -> Round:
        campaigns = [record for slot in records for record in slot]
        outcomes, outputs, failed = [], {}, 0
        for record in campaigns:
            if record.final is None or record.final.get("status") != "done":
                failed += len(record.cells)
                continue
            for outcome in record.final["results"]:
                outcomes.append(outcome)
                if outcome["ok"]:
                    cell = record.cells[outcome["index"]]
                    outputs.setdefault(outcome["key"], (cell, outcome["value"]))
                else:
                    failed += 1
        return Round(
            wall=wall,
            attempted=sum(len(record.cells) for record in campaigns),
            delivered=sum(1 for o in outcomes if o["ok"]),
            refs=sum(o["references"] for o in outcomes if o["ok"] and o["source"] == "run"),
            failed=failed,
            retried=0,
            outputs=outputs,
            turnaround=[r.turnaround for r in campaigns if r.turnaround is not None],
            queue_wait=[r.queue_wait for r in campaigns if r.queue_wait is not None],
            outcomes=outcomes,
            setup=setup,
        )


WORKLOADS = {
    workload.name: workload for workload in (Table1, MissPath, Served)
}
