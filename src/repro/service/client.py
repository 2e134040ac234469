"""Thin synchronous client for the campaign service HTTP API.

Plain :mod:`http.client` over the endpoints ``POST /campaigns``,
``GET /campaigns/{id}`` and ``GET /campaigns/{id}/events`` — no
dependencies, usable from scripts, threads, and the
``repro-cachesim campaign --remote`` CLI path.

>>> client = ServiceClient("http://127.0.0.1:8795", user="alice")
>>> campaign_id = client.submit_cells(cells)
>>> for event in client.events(campaign_id):      # SSE tail, replay first
...     print(event["event"])
>>> final = client.status(campaign_id)            # merged results JSON

:meth:`ServiceClient.events` is a generator over the SSE stream: it
yields each ``data:`` frame as a parsed dict and returns when the
server closes the stream after ``campaign_finished`` — so iterating it
to exhaustion *is* waiting for the campaign.
"""

from __future__ import annotations

import json
import os
from http.client import HTTPConnection
from urllib.parse import urlsplit

from .spec import encode_cells

__all__ = ["ServiceError", "ServiceClient", "SERVICE_URL_ENV"]

#: Default service URL for ``--remote`` when no URL is given.
SERVICE_URL_ENV = "REPRO_SERVICE_URL"


class ServiceError(RuntimeError):
    """An HTTP error reply from the service, with its status code."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"service replied {status}: {message}")
        self.status = status


class ServiceClient:
    """One service endpoint plus the identity requests are made under."""

    def __init__(
        self, url: str, *, user: str | None = None, timeout: float = 600.0
    ) -> None:
        parts = urlsplit(url if "//" in url else f"http://{url}")
        if parts.scheme not in ("http", ""):
            raise ValueError(f"only http:// service URLs are supported, got {url!r}")
        self.host = parts.hostname or "127.0.0.1"
        self.port = parts.port or 80
        self.user = user or os.environ.get("USER") or "anonymous"
        self.timeout = timeout

    def _connect(self) -> HTTPConnection:
        return HTTPConnection(self.host, self.port, timeout=self.timeout)

    def _request(self, method: str, path: str, document=None) -> dict:
        connection = self._connect()
        try:
            body = json.dumps(document).encode("utf-8") if document is not None else None
            connection.request(
                method,
                path,
                body=body,
                headers={"Content-Type": "application/json"} if body else {},
            )
            response = connection.getresponse()
            payload = response.read().decode("utf-8")
            try:
                parsed = json.loads(payload) if payload else {}
            except json.JSONDecodeError:
                parsed = {"error": payload.strip()}
            if response.status >= 400:
                raise ServiceError(
                    response.status, parsed.get("error", response.reason)
                )
            return parsed
        finally:
            connection.close()

    # ----------------------------- API -----------------------------

    def health(self) -> dict:
        """The service's ``/healthz`` document."""
        return self._request("GET", "/healthz")

    def submit(self, document: dict) -> str:
        """Submit a raw spec document; returns the campaign id.

        The document's ``user`` defaults to this client's identity.
        """
        document = dict(document)
        document.setdefault("user", self.user)
        return self._request("POST", "/campaigns", document)["id"]

    def submit_cells(self, cells, *, priority: int = 0) -> str:
        """Encode and submit :class:`~repro.core.jobs.CampaignCell` objects."""
        return self.submit({"cells": encode_cells(cells), "priority": priority})

    def status(self, campaign_id: str) -> dict:
        """Status counts, plus merged results once the campaign is done."""
        return self._request("GET", f"/campaigns/{campaign_id}")

    def cancel(self, campaign_id: str) -> dict:
        """Cancel a queued or running campaign (``DELETE /campaigns/{id}``).

        Returns the server's reply, ``{"cancelled": true/false, ...}``;
        raises :class:`ServiceError` (404) for unknown ids.
        """
        return self._request("DELETE", f"/campaigns/{campaign_id}")

    def events(self, campaign_id: str):
        """Generator over the campaign's SSE stream (replay, then live).

        Yields each event as a dict; returns when the server ends the
        stream after the terminal ``campaign_finished`` event.
        """
        connection = self._connect()
        try:
            connection.request("GET", f"/campaigns/{campaign_id}/events")
            response = connection.getresponse()
            if response.status >= 400:
                payload = response.read().decode("utf-8", "replace")
                try:
                    message = json.loads(payload).get("error", payload)
                except json.JSONDecodeError:
                    message = payload.strip()
                raise ServiceError(response.status, message)
            for raw_line in response:
                line = raw_line.strip()
                if line.startswith(b"data:"):
                    yield json.loads(line[len(b"data:"):].strip().decode("utf-8"))
        finally:
            connection.close()

    def wait(self, campaign_id: str, *, on_event=None) -> dict:
        """Block until the campaign finishes; returns its final status.

        ``on_event`` (if given) observes every SSE event along the way —
        exceptions it raises are swallowed, mirroring the campaign
        runner's progress-callback contract.
        """
        for event in self.events(campaign_id):
            if on_event is not None:
                try:
                    on_event(event)
                except Exception:
                    pass
        return self.status(campaign_id)

    def run(self, cells, *, priority: int = 0, on_event=None) -> dict:
        """Submit cells and wait: the one-call remote campaign."""
        campaign_id = self.submit_cells(cells, priority=priority)
        return self.wait(campaign_id, on_event=on_event)
