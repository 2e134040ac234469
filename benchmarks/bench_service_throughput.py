"""End-to-end campaign-service throughput under concurrent clients.

One in-process service (``BackgroundServer`` over a ``PoolBackend``)
takes the same 20-cell campaign from 1, 2, then 4 concurrent clients.
Each phase measures delivered cells/second and — the service's reason to
exist — asserts the dedupe invariant from ``docs/service.md``: N clients
submitting an identical campaign cause at most 20 actual simulations
(counted as ``cell_finished`` events with ``source == "run"`` across
every client's SSE stream), every client receives the full event stream,
and all clients get byte-identical merged results.  The payload records
the pool's worker count and the host's ``os.cpu_count()`` beside the
rates, since cells/second scales with both.

The machine-readable summary goes to
``benchmarks/results/BENCH_service_throughput.json`` so CI can archive
it.  ``REPRO_BENCH_SERVICE_REFS`` scales the per-cell trace length
(default 20 000; CI's smoke step uses a shorter setting).
"""

import json
import os
import tempfile
import threading
import time

from common import RESULTS_DIR

from repro.core.jobs import CampaignCell, SimulateJob, TraceSpec
from repro.service import (
    BackgroundServer,
    PoolBackend,
    Scheduler,
    ServiceClient,
)

SERVICE_REFS = int(os.environ.get("REPRO_BENCH_SERVICE_REFS", "20000"))
CELLS_PER_CAMPAIGN = 20
CLIENT_COUNTS = (1, 2, 4)
TRACES = ("VCCOM", "ZGREP", "PLO", "FGO1")
SIZES = (512, 1024, 4096, 16384, 32768)
#: Pool size: one worker per core, at most four.
WORKERS = min(4, os.cpu_count() or 1)


def make_cells(phase: int):
    """The phase's 20-cell campaign; phase-distinct lengths keep cache
    keys distinct across phases, so every phase does real work."""
    return [
        CampaignCell(
            label=f"p{phase}/{name}/{size}",
            trace=TraceSpec.catalog(name, SERVICE_REFS + phase),
            job=SimulateJob(size=size, line_size=16),
        )
        for name in TRACES
        for size in SIZES
    ]


def run_phase(server, clients: int, phase: int) -> dict:
    """``clients`` threads submit the identical campaign concurrently."""
    cells = make_cells(phase)
    finals = [None] * clients
    streams = [None] * clients

    def one_client(slot: int) -> None:
        client = ServiceClient(server.url, user=f"client-{slot}")
        events = []
        finals[slot] = client.run(cells, on_event=events.append)
        streams[slot] = events

    start = time.perf_counter()
    threads = [
        threading.Thread(target=one_client, args=(slot,))
        for slot in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start

    # --- the dedupe invariant, verified from the event logs ---
    assert all(f is not None for f in finals), "a client never finished"
    simulated = sum(
        1
        for events in streams
        for event in events
        if event["event"] == "cell_finished" and event.get("source") == "run"
    )
    assert simulated <= CELLS_PER_CAMPAIGN, (
        f"{clients} clients caused {simulated} simulations of "
        f"{CELLS_PER_CAMPAIGN} unique cells"
    )
    for events in streams:  # every client saw the full SSE stream
        kinds = [event["event"] for event in events]
        assert kinds.count("cell_finished") == CELLS_PER_CAMPAIGN, kinds
        assert kinds[-1] == "campaign_finished", kinds
    reference = [outcome["value"] for outcome in finals[0]["results"]]
    for final in finals[1:]:  # identical merged results for everyone
        assert [o["value"] for o in final["results"]] == reference
        assert final["failed"] == 0

    delivered = clients * CELLS_PER_CAMPAIGN
    return {
        "clients": clients,
        "cells": CELLS_PER_CAMPAIGN,
        "delivered_cells": delivered,
        "simulated_cells": simulated,
        "wall_seconds": wall,
        "cells_per_second": delivered / wall,
        "unique_cells_per_second": CELLS_PER_CAMPAIGN / wall,
    }


def test_service_throughput_under_concurrent_clients():
    with tempfile.TemporaryDirectory(prefix="repro-service-bench-") as tmp:
        os.environ["REPRO_TRACE_STORE"] = os.path.join(tmp, "traces")
        scheduler = Scheduler(
            backend=PoolBackend(workers=WORKERS),
            cache=os.path.join(tmp, "cache"),
        )
        phases = []
        with BackgroundServer(scheduler) as server:
            for phase, clients in enumerate(CLIENT_COUNTS, start=1):
                phases.append(run_phase(server, clients, phase))

    payload = {
        "benchmark": "service_throughput",
        "refs_per_cell": SERVICE_REFS,
        "backend": "pool",
        "workers": WORKERS,
        "cpu_count": os.cpu_count(),
        "phases": phases,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_service_throughput.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    for entry in phases:
        print(
            f"{entry['clients']} client(s): "
            f"{entry['cells_per_second']:.1f} cells/s delivered "
            f"({entry['simulated_cells']} simulated, "
            f"{entry['wall_seconds']:.2f}s)"
        )
