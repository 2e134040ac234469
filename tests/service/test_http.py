"""End-to-end service tests over real HTTP: lifecycle, SSE, errors.

Each test runs a :class:`BackgroundServer` (the whole service on a
daemon thread) and talks to it with the stdlib :class:`ServiceClient`,
so the bytes on the wire are the same ones ``repro-cachesim campaign
--remote`` would see.
"""

import os
import signal
import threading
import time
from http.client import HTTPConnection

import pytest

from repro.core.jobs import CampaignCell, StackSweepJob, TraceSpec
from repro.service import (
    BackgroundServer,
    InlineBackend,
    PoolBackend,
    Scheduler,
    ServiceClient,
    ServiceError,
)
from repro.service.backends import BackendCrash

from .helpers import fake_run, slow_fake_run

LENGTH = 4_000


def make_cells(count=3, offset=0):
    return [
        CampaignCell(
            f"cell-{offset + i}",
            TraceSpec.catalog("ZGREP", LENGTH + offset + i),
            StackSweepJob(sizes=(512, 2048)),
        )
        for i in range(count)
    ]


def make_server(tmp_path, runner=fake_run, **scheduler_kwargs):
    scheduler = Scheduler(
        InlineBackend(capacity=4, runner=runner),
        cache=tmp_path / "cache",
        **scheduler_kwargs,
    )
    return BackgroundServer(scheduler)


class TestLifecycle:
    def test_submit_status_and_results(self, tmp_path):
        with make_server(tmp_path) as server:
            client = ServiceClient(server.url, user="alice")
            campaign_id = client.submit_cells(make_cells(3))
            final = client.wait(campaign_id)
            assert final["status"] == "done"
            assert final["simulated"] == 3 and final["failed"] == 0
            labels = [r["label"] for r in final["results"]]
            assert labels == ["cell-0", "cell-1", "cell-2"]

    def test_sse_stream_replays_and_terminates(self, tmp_path):
        with make_server(tmp_path) as server:
            client = ServiceClient(server.url, user="alice")
            campaign_id = client.submit_cells(make_cells(2))
            live = list(client.events(campaign_id))
            # A late joiner replays the identical history.
            replay = list(client.events(campaign_id))
            assert [e["event"] for e in live] == [e["event"] for e in replay]
            assert replay[0]["event"] == "campaign_queued"
            assert replay[-1]["event"] == "campaign_finished"
            assert sum(e["event"] == "cell_finished" for e in replay) == 2

    def test_health_endpoint(self, tmp_path):
        with make_server(tmp_path) as server:
            health = ServiceClient(server.url).health()
            assert health["status"] == "ok"
            assert health["backend"] == "inline"

    def test_health_reports_the_pool_and_its_respawns(self, tmp_path):
        scheduler = Scheduler(PoolBackend(workers=2), cache=tmp_path / "cache")
        with BackgroundServer(scheduler) as server:
            health = ServiceClient(server.url).health()
        assert health["backend"] == "pool"
        assert health["capacity"] == 2
        assert health["respawns"] == 0

    def test_identical_submissions_dedupe_across_clients(self, tmp_path):
        with make_server(tmp_path) as server:
            cells = make_cells(4)
            finals = [None, None]

            def submit(slot):
                client = ServiceClient(server.url, user=f"user-{slot}")
                finals[slot] = client.run(cells)

            threads = [
                threading.Thread(target=submit, args=(slot,))
                for slot in range(2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            assert all(final is not None for final in finals)
            simulated = sum(final["simulated"] for final in finals)
            assert simulated == 4  # the other campaign shared or hit cache
            assert [r["value"] for r in finals[0]["results"]] == [
                r["value"] for r in finals[1]["results"]
            ]


class TestErrors:
    def test_quota_maps_to_429(self, tmp_path):
        with make_server(tmp_path, runner=slow_fake_run, quota=1) as server:
            client = ServiceClient(server.url, user="alice")
            client.submit_cells(make_cells(3))
            with pytest.raises(ServiceError) as excinfo:
                client.submit_cells(make_cells(3, offset=10))
            assert excinfo.value.status == 429

    def test_bad_spec_maps_to_400(self, tmp_path):
        with make_server(tmp_path) as server:
            client = ServiceClient(server.url)
            with pytest.raises(ServiceError) as excinfo:
                client.submit({"cells": []})
            assert excinfo.value.status == 400

    def test_invalid_json_maps_to_400(self, tmp_path):
        with make_server(tmp_path) as server:
            connection = HTTPConnection("127.0.0.1", server.port, timeout=30)
            try:
                connection.request("POST", "/campaigns", body=b"{nope")
                response = connection.getresponse()
                assert response.status == 400
                assert b"invalid JSON" in response.read()
            finally:
                connection.close()

    def test_unknown_campaign_maps_to_404(self, tmp_path):
        with make_server(tmp_path) as server:
            client = ServiceClient(server.url)
            with pytest.raises(ServiceError) as excinfo:
                client.status("c999999-deadbeef")
            assert excinfo.value.status == 404
            with pytest.raises(ServiceError) as excinfo:
                list(client.events("c999999-deadbeef"))
            assert excinfo.value.status == 404

    def test_unknown_route_maps_to_404(self, tmp_path):
        with make_server(tmp_path) as server:
            connection = HTTPConnection("127.0.0.1", server.port, timeout=30)
            try:
                connection.request("GET", "/teapot")
                assert connection.getresponse().status == 404
            finally:
                connection.close()

    def test_wrong_method_maps_to_405(self, tmp_path):
        with make_server(tmp_path) as server:
            client = ServiceClient(server.url)
            campaign_id = client.submit_cells(make_cells(1))
            client.wait(campaign_id)
            connection = HTTPConnection("127.0.0.1", server.port, timeout=30)
            try:
                connection.request("PUT", f"/campaigns/{campaign_id}")
                assert connection.getresponse().status == 405
            finally:
                connection.close()

    def test_backend_crash_fails_the_cells_instead_of_hanging(self, tmp_path):
        class CrashingBackend:
            name = "crashing"
            capacity = 2

            async def start(self):
                pass

            async def run(self, cell):
                raise BackendCrash("vehicle lost")

            async def close(self):
                pass

        scheduler = Scheduler(CrashingBackend(), cache=tmp_path / "cache")
        with BackgroundServer(scheduler) as server:
            client = ServiceClient(server.url, user="alice")
            final = client.run(make_cells(2))
            assert final["status"] == "done"
            assert final["failed"] == 2
            assert all(r["error"] == "BackendCrash" for r in final["results"])


class TestCancellation:
    def test_delete_unknown_campaign_maps_to_404(self, tmp_path):
        with make_server(tmp_path) as server:
            client = ServiceClient(server.url)
            with pytest.raises(ServiceError) as excinfo:
                client.cancel("c999999-deadbeef")
            assert excinfo.value.status == 404

    def test_delete_cancels_a_running_campaign(self, tmp_path):
        with make_server(tmp_path, runner=slow_fake_run) as server:
            client = ServiceClient(server.url, user="alice")
            campaign_id = client.submit_cells(make_cells(4))
            reply = client.cancel(campaign_id)
            assert reply["cancelled"] is True
            final = client.wait(campaign_id)
            assert final["status"] == "cancelled"
            events = list(client.events(campaign_id))
            kinds = [e["event"] for e in events]
            assert "campaign_cancelled" in kinds
            assert events[-1]["event"] == "campaign_finished"
            assert events[-1]["status"] == "cancelled"

    def test_delete_after_done_reports_not_cancelled(self, tmp_path):
        with make_server(tmp_path) as server:
            client = ServiceClient(server.url, user="alice")
            campaign_id = client.submit_cells(make_cells(1))
            client.wait(campaign_id)
            reply = client.cancel(campaign_id)
            assert reply["cancelled"] is False
            assert reply["status"] == "done"


class TestSampledCampaigns:
    """A top-level field other than cells/user/priority (``sampling``, a
    misspelled ``priorty``) is a 400 naming it, never silently ignored."""

    def test_malformed_sampling_spec_maps_to_400(self, tmp_path):
        cells = [
            {
                "label": "c",
                "trace": {"kind": "catalog", "name": "ZGREP", "length": LENGTH},
                "job": {"type": "simulate", "size": 1024},
            }
        ]
        with make_server(tmp_path) as server:
            client = ServiceClient(server.url)
            for field, value in [("sampling", {"plan": "clairvoyant"}),
                                 ("priorty", 5)]:
                with pytest.raises(ServiceError) as excinfo:
                    client.submit({"cells": cells, field: value})
                assert excinfo.value.status == 400
                assert repr(field) in str(excinfo.value)


class TestStrictSpecs:
    """A cell field its job cannot hold is a 400 naming the field, before
    any cell runs: the decoder never coerces it into another experiment."""

    @pytest.mark.parametrize("job, trace, field", [
        ({"split": "false"}, {}, "split"),
        ({"size": 1024.9}, {}, "size"),
        ({"associativity": True}, {}, "associativity"),
        ({"write": "copyback"}, {}, "write"),
        ({}, {"length": "4000"}, "length"),
    ])
    def test_bad_field_is_a_400(self, tmp_path, job, trace, field):
        cell = {
            "label": "c",
            "trace": {"kind": "catalog", "name": "ZGREP", "length": LENGTH, **trace},
            "job": {"type": "simulate", "size": 1024, **job},
        }
        with make_server(tmp_path) as server:
            with pytest.raises(ServiceError) as excinfo:
                ServiceClient(server.url).submit({"cells": [cell]})
            assert excinfo.value.status == 400
            assert field in str(excinfo.value)
            assert server.scheduler.describe()["campaigns"] == 0

    @pytest.mark.parametrize("envelope, field", [
        ({"priority": 2.9}, "priority"),
        ({"priority": "5"}, "priority"),
        ({"priority": True}, "priority"),
        ({"user": 5}, "user"),
    ])
    def test_bad_envelope_field_is_a_400(self, tmp_path, envelope, field):
        cell = {
            "label": "c",
            "trace": {"kind": "catalog", "name": "ZGREP", "length": LENGTH},
            "job": {"type": "simulate", "size": 1024},
        }
        with make_server(tmp_path) as server:
            with pytest.raises(ServiceError) as excinfo:
                ServiceClient(server.url).submit({"cells": [cell], **envelope})
            assert excinfo.value.status == 400
            assert field in str(excinfo.value)
            assert server.scheduler.describe()["campaigns"] == 0


class TestForkedSockets:
    @pytest.mark.filterwarnings("ignore::DeprecationWarning")  # fork + threads
    def test_sse_stream_ends_while_a_forked_child_holds_the_socket(self, tmp_path):
        # PoolBackend forks its workers lazily (first cell, pool rebuild),
        # so a worker can inherit an open SSE connection's fd.  Closing
        # the server's copy then sends no FIN; the stream must still end.
        subscribed = threading.Event()
        children = []

        def forking_run(cell):
            subscribed.wait(10)
            pid = os.fork()
            if pid == 0:  # the child just holds every inherited fd
                time.sleep(60)
                os._exit(0)
            children.append(pid)
            return fake_run(cell)

        try:
            with make_server(tmp_path, runner=forking_run) as server:
                client = ServiceClient(server.url, timeout=10)
                start = time.monotonic()
                final = client.run(
                    make_cells(1), on_event=lambda event: subscribed.set()
                )
                assert final["status"] == "done"
                assert time.monotonic() - start < 10
        finally:
            for pid in children:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
