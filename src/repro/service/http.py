"""Asyncio HTTP front end of the campaign service (stdlib only).

A deliberately small HTTP/1.1 server over ``asyncio.start_server`` — no
web framework, three endpoints:

* ``POST /campaigns`` — submit a campaign spec
  (:func:`repro.service.spec.decode_cells` document, plus optional
  ``user`` (a JSON string) and ``priority`` (a JSON integer) top-level
  fields).  Replies ``202`` with the campaign id, ``400`` on a malformed
  spec, a ``user`` or ``priority`` of another type, or any other
  top-level field, ``429`` when the user is over quota.
* ``GET /campaigns/{id}`` — status counts, and the merged results
  array once the campaign is done.  ``404`` for unknown ids.
* ``DELETE /campaigns/{id}`` — cancel a queued or running campaign.
  Replies ``200`` with ``{"cancelled": true}`` when the cancellation was
  initiated, ``{"cancelled": false, "status": ...}`` when the campaign
  had already reached a terminal state, ``404`` for unknown ids.
* ``GET /campaigns/{id}/events`` — the campaign's JSONL event log as
  Server-Sent Events: one ``data: {json}`` frame per event, full replay
  from the first event, then live until ``campaign_finished`` closes the
  stream.  The payload schema is exactly the ``docs/campaign.md`` event
  schema a local campaign logs, so a client can pipe the data lines
  straight into anything that already consumes campaign JSONL logs.

Plus ``GET /healthz`` for liveness probes.  Each connection serves one
request (``Connection: close``), which keeps the parser honest and is
plenty for a result-cache-backed service where the expensive work is
deduped behind the scheduler.

:class:`BackgroundServer` runs the whole service (scheduler included)
on a daemon thread with its own event loop — what the CLI tests, the
benchmarks, and embedding callers use.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import signal
import threading

from .queue import QuotaExceeded
from .scheduler import Scheduler
from .spec import SpecError, decode_cells

__all__ = ["ServiceServer", "BackgroundServer", "serve"]

#: Default bind address of ``repro-cachesim serve``.
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8795

#: Refuse request bodies over this size (64 MiB of JSON is not a campaign).
MAX_BODY_BYTES = 64 * 1024 * 1024

_STATUS_TEXT = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
}


def _json_bytes(document) -> bytes:
    return (json.dumps(document) + "\n").encode("utf-8")


class ServiceServer:
    """The campaign service's HTTP listener, bound to one scheduler."""

    def __init__(
        self,
        scheduler: Scheduler,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
    ) -> None:
        self.scheduler = scheduler
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None

    async def start(self) -> None:
        """Start the scheduler and begin accepting connections.

        ``port=0`` binds an ephemeral port; :attr:`port` is updated to
        the actual one either way.
        """
        await self.scheduler.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def serve_forever(self) -> None:
        await self._server.serve_forever()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.scheduler.close()

    # --------------------------- plumbing ---------------------------

    async def _handle_connection(self, reader, writer) -> None:
        try:
            request = await self._read_request(reader)
            if request is None:
                return
            method, path, body = request
            await self._route(method, path, body, writer)
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass  # client went away; nothing to answer
        except Exception as exc:
            try:
                await self._respond(
                    writer, 500, {"error": f"{type(exc).__name__}: {exc}"}
                )
            except Exception:
                pass
        finally:
            # Swallow cancellation too: connection tasks are cancelled en
            # masse on shutdown, and ending normally here keeps asyncio's
            # stream machinery from logging the cancellations as errors.
            try:
                # A worker process forked while this connection was open
                # holds a copy of its fd, so close() alone sends no FIN
                # and an SSE client would wait for EOF forever.  Shutting
                # down the write side ends the stream whoever holds the fd.
                if writer.can_write_eof():
                    writer.write_eof()
            except (Exception, asyncio.CancelledError):
                pass
            try:
                writer.close()
                await writer.wait_closed()
            except (Exception, asyncio.CancelledError):
                pass

    async def _read_request(self, reader):
        request_line = await reader.readline()
        if not request_line:
            return None
        try:
            method, target, _version = request_line.decode("latin-1").split(None, 2)
        except ValueError:
            return None
        headers = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", 0) or 0)
        if length > MAX_BODY_BYTES:
            return method, "\x00too-large", b""
        body = await reader.readexactly(length) if length else b""
        return method, target.split("?", 1)[0], body

    async def _respond(
        self, writer, status: int, document, *, content_type: str = "application/json"
    ) -> None:
        payload = document if isinstance(document, bytes) else _json_bytes(document)
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + payload)
        await writer.drain()

    # ---------------------------- routes ----------------------------

    async def _route(self, method: str, path: str, body: bytes, writer) -> None:
        if path == "\x00too-large":
            await self._respond(writer, 413, {"error": "request body too large"})
            return
        if path == "/healthz" and method == "GET":
            await self._respond(writer, 200, self.scheduler.describe())
            return
        if path == "/campaigns" and method == "POST":
            await self._submit(body, writer)
            return
        if path.startswith("/campaigns/"):
            rest = path[len("/campaigns/"):]
            if rest.endswith("/events"):
                campaign_id, tail = rest[: -len("/events")].rstrip("/"), "events"
            else:
                campaign_id, tail = rest.rstrip("/"), "status"
            state = self.scheduler.get(campaign_id)
            if state is None:
                await self._respond(
                    writer, 404, {"error": f"unknown campaign {campaign_id!r}"}
                )
                return
            if method == "DELETE" and tail == "status":
                if state.done:
                    await self._respond(
                        writer, 200, {"id": state.id, "cancelled": False,
                                      "status": state.status}
                    )
                else:
                    self.scheduler.cancel(state.id)
                    await self._respond(
                        writer, 200, {"id": state.id, "cancelled": True,
                                      "status": state.status}
                    )
                return
            if method != "GET":
                await self._respond(writer, 405, {"error": "use GET or DELETE"})
                return
            if tail == "events":
                await self._stream_events(state, writer)
            else:
                await self._respond(writer, 200, state.describe())
            return
        await self._respond(writer, 404, {"error": f"no route for {method} {path}"})

    async def _submit(self, body: bytes, writer) -> None:
        try:
            document = json.loads(body.decode("utf-8") or "{}")
            if not isinstance(document, dict):
                raise SpecError("campaign spec must be a JSON object")
            cells = decode_cells(document)
        except SpecError as exc:
            await self._respond(writer, 400, {"error": str(exc)})
            return
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            await self._respond(writer, 400, {"error": f"invalid JSON: {exc}"})
            return
        try:
            state = self.scheduler.submit(
                cells,
                user=document.get("user") or "anonymous",
                priority=document.get("priority", 0),
            )
        except QuotaExceeded as exc:
            await self._respond(writer, 429, {"error": str(exc)})
            return
        await self._respond(
            writer,
            202,
            {"id": state.id, "status": state.status, "cells": len(state.cells)},
        )

    async def _stream_events(self, state, writer) -> None:
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-cache\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()
        async for event in self.scheduler.stream_events(state):
            writer.write(b"data: " + json.dumps(event).encode("utf-8") + b"\n\n")
            await writer.drain()


async def serve(
    scheduler: Scheduler,
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    *,
    ready=None,
) -> None:
    """Run the service until cancelled (the ``repro-cachesim serve`` body).

    On the main thread SIGTERM cancels it too, so the scheduler and its
    worker processes shut down rather than outlive it.

    ``ready``, if given, is called with the started :class:`ServiceServer`
    once the socket is listening (startup hook for embedding callers).
    """
    server = ServiceServer(scheduler, host, port)
    await server.start()
    if ready is not None:
        ready(server)
    loop = asyncio.get_running_loop()
    try:
        loop.add_signal_handler(signal.SIGTERM, asyncio.current_task().cancel)
    except (NotImplementedError, RuntimeError):
        pass  # no signal handling off the main thread: cancellation only
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await server.close()
        with contextlib.suppress(NotImplementedError):
            loop.remove_signal_handler(signal.SIGTERM)


class BackgroundServer:
    """The whole service on a daemon thread (tests, benchmarks, notebooks).

    >>> handle = BackgroundServer(Scheduler(InlineBackend()))
    >>> handle.start()
    >>> client = ServiceClient(handle.url)
    ...
    >>> handle.stop()
    """

    def __init__(
        self, scheduler: Scheduler, host: str = DEFAULT_HOST, port: int = 0
    ) -> None:
        self.scheduler = scheduler
        self.host = host
        self.port = port
        self.url: str | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._server: ServiceServer | None = None
        self._ready = threading.Event()
        self._stopping: asyncio.Event | None = None
        self._startup_error: BaseException | None = None

    def start(self, timeout: float = 30.0) -> "BackgroundServer":
        self._thread = threading.Thread(
            target=self._run, name="repro-service", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise TimeoutError("service failed to start listening in time")
        if self._startup_error is not None:
            raise RuntimeError("service failed to start") from self._startup_error
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._stopping = asyncio.Event()
        self._loop = loop

        async def body():
            server = ServiceServer(self.scheduler, self.host, self.port)
            try:
                await server.start()
            except BaseException as exc:
                self._startup_error = exc
                self._ready.set()
                return
            self._server = server
            self.port = server.port
            self.url = server.url
            self._ready.set()
            try:
                await self._stopping.wait()
            finally:
                await server.close()
            # Connection tasks still streaming events for campaigns that
            # never finished would otherwise outlive the loop; cancel and
            # drain them so loop.close() sees a quiet house.
            current = asyncio.current_task()
            leftovers = [t for t in asyncio.all_tasks() if t is not current]
            for task in leftovers:
                task.cancel()
            if leftovers:
                await asyncio.gather(*leftovers, return_exceptions=True)

        try:
            loop.run_until_complete(body())
        except asyncio.CancelledError:
            pass
        finally:
            loop.close()

    def stop(self, timeout: float = 30.0) -> None:
        if self._loop is None or self._thread is None:
            return
        try:
            self._loop.call_soon_threadsafe(self._stopping.set)
        except RuntimeError:
            pass  # loop already shut down
        self._thread.join(timeout)

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
