"""A local campaign and the same campaign served report alike.

``run_campaign`` and the HTTP service both run a campaign through the
scheduler, so one campaign must settle its cells the same way, count
them the same way and log the same events in either tier.
"""

import json
from collections import Counter

from repro.campaign import ResultCache, run_campaign
from repro.core.jobs import CampaignCell, StackSweepJob, TraceSpec, cell_key
from repro.service import BackgroundServer, InlineBackend, Scheduler, ServiceClient

from .helpers import fail_on_marker, fake_run

COUNTS = ("cells", "cached", "shared", "simulated", "failed")


def parity_cells():
    """A plain cell, its duplicate, a cell already cached, a failing cell."""
    plain, cached, failing = (
        CampaignCell(label, TraceSpec.catalog("ZGREP", 4_000 + i),
                     StackSweepJob(sizes=(512,)))
        for i, label in enumerate(("plain", "cached", "FAIL"))
    )
    return [plain, CampaignCell("twin", plain.trace, plain.job), cached, failing]


def primed_cache(directory, cells):
    cache = ResultCache(directory)
    cache.put(cell_key(cells[2]), fake_run(cells[2]))
    return cache


def test_local_and_served_campaigns_report_alike(tmp_path):
    cells = parity_cells()
    log = tmp_path / "local.jsonl"
    local = run_campaign(
        cells, workers=1, cache=primed_cache(tmp_path / "local", cells),
        runner=fail_on_marker, events=log,
    )
    local_events = [json.loads(line) for line in log.read_text().splitlines()]

    scheduler = Scheduler(
        InlineBackend(runner=fail_on_marker),
        cache=primed_cache(tmp_path / "served", cells),
    )
    with BackgroundServer(scheduler) as server:
        client = ServiceClient(server.url)
        campaign_id = client.submit_cells(cells)
        served_events = list(client.events(campaign_id))
        final = client.status(campaign_id)

    expected = [(True, "run"), (True, "shared"), (True, "cache"), (False, "run")]
    assert [(o.ok, o.source) for o in local.outcomes] == expected
    assert [(r["ok"], r["source"]) for r in final["results"]] == expected

    local_end, served_end = local_events[-1], served_events[-1]
    assert local_end["event"] == served_end["event"] == "campaign_finished"
    counts = {"cells": 4, "cached": 1, "shared": 1, "simulated": 1, "failed": 1}
    assert {name: local_end[name] for name in COUNTS} == counts
    assert {name: served_end[name] for name in COUNTS} == counts

    assert (Counter(e["event"] for e in local_events)
            == Counter(e["event"] for e in served_events))
