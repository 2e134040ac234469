"""Spans around the program's public entry points, recorded from outside.

A traced round wraps public functions of each layer with a timer:

* in whichever process runs a cell: ``TraceSpec.build``,
  ``Trace.compiled``, ``SimulateJob.build_organization``, and ``simulate``
  and ``lru_miss_ratio_curve`` as the job module calls them; ``run_cell``
  itself is reached through the ``runner=`` seam of ``run_campaign`` and
  ``PoolBackend`` (:class:`TracedRunner`);
* in the benchmark process: ``cell_key`` as the campaign runner and the
  scheduler call it, ``ResultCache.get``/``put``, ``PoolBackend.run`` and
  the ``ServiceClient`` calls.

A span records its name, start and end, the cell key it served and the
span that caused it (a round, a campaign or an enclosing call).  Spans
stay in memory in the process that made them; a pool worker writes its
spans to one JSON file when it exits, and the benchmark reads them back
once the pool has shut down.  Every wrapper returns the original's result
unchanged.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import os
import time
from pathlib import Path

_span_var: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "perfbench_span", default=None
)
_cell_var: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "perfbench_cell", default=None
)
_ids = itertools.count()


class _Spans:
    """Spans of the current process.

    A forked worker inherits its parent's list; the first span the worker
    records replaces that copy, so each process reports only its own
    spans.  No lock: ``list.append`` is atomic, and spans are taken only
    after every recording thread has stopped.
    """

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.items: list[dict] = []

    def add(self, span: dict) -> None:
        if os.getpid() != self.pid:
            self.pid, self.items = os.getpid(), []
        self.items.append(span)

    def take(self) -> list[dict]:
        if os.getpid() != self.pid:
            return []
        items, self.items = self.items, []
        return items


_SPANS = _Spans()


def _open(name: str, parent: str | None = None, **attrs) -> tuple[dict, object]:
    cell = _cell_var.get() or {}
    span = {
        "id": f"{os.getpid()}:{next(_ids)}",
        "parent": parent if parent is not None else _span_var.get(),
        "name": name,
        "pid": os.getpid(),
        "key": cell.get("key"),
        **attrs,
        "start": time.perf_counter(),
    }
    return span, _span_var.set(span["id"])


def _close(span: dict, token) -> None:
    span["end"] = time.perf_counter()
    _span_var.reset(token)
    _SPANS.add(span)


class span:
    """Record the enclosed block as one span (rounds and campaigns)."""

    def __init__(self, name: str, parent: str | None = None, **attrs) -> None:
        self._name = name
        self._parent = parent
        self._attrs = attrs

    def __enter__(self) -> dict:
        self._span, self._token = _open(self._name, self._parent, **self._attrs)
        return self._span

    def __exit__(self, *exc_info) -> None:
        _close(self._span, self._token)


def take_spans() -> list[dict]:
    """Remove and return every span this process has recorded."""
    return _SPANS.take()


class Patches:
    """Installed wrappers, removable in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def _original(self, owner, attr: str):
        return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

    def wrap(self, owner, attr: str, name: str, describe=None) -> None:
        """Replace ``owner.attr`` by a timed call of the original.

        ``describe(args, kwargs)`` returns span attributes taken before the
        call; an ``"_after"`` entry is a callable turning the result into
        attributes added after it.
        """
        original = self._original(owner, attr)

        @functools.wraps(original)
        def timed(*args, **kwargs):
            attrs = describe(args, kwargs) if describe is not None else {}
            after = attrs.pop("_after", None)
            opened, token = _open(name, **attrs)
            try:
                result = original(*args, **kwargs)
                if after is not None:
                    opened.update(after(result))
                return result
            finally:
                _close(opened, token)

        setattr(owner, attr, timed)
        self._undo.append((owner, attr, original))

    def wrap_async(self, owner, attr: str, name: str, describe=None) -> None:
        """:meth:`wrap` for a coroutine method."""
        original = self._original(owner, attr)

        @functools.wraps(original)
        async def timed(*args, **kwargs):
            attrs = describe(args, kwargs) if describe is not None else {}
            opened, token = _open(name, **attrs)
            try:
                return await original(*args, **kwargs)
            finally:
                _close(opened, token)

        setattr(owner, attr, timed)
        self._undo.append((owner, attr, original))

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _describe_compile(args, kwargs) -> dict:
    trace = args[0]
    line_size = args[1] if len(args) > 1 else kwargs["line_size"]
    return {"built": line_size not in trace._compiled}


def _describe_simulate(args, kwargs) -> dict:
    from repro.core import kernels

    trace, organization = args[0], args[1]
    cell = _cell_var.get() or {}
    if kwargs.get("engine", "auto") != "generic" and kernels.can_replay(organization):
        path = cell.get("replacement") or "lru"
    else:
        path = "generic"
    plan = organization.replay_plan()
    sets = plan[0][0].geometry.num_sets if plan is not None else None
    return {"path": path, "refs": len(trace), "bundle": [cell.get("trace"), sets]}


def install_cell_layers() -> Patches:
    """Wrap the layers a cell runs through, in the process that runs it."""
    from repro.core import jobs
    from repro.trace.stream import Trace

    patches = Patches()
    patches.wrap(jobs.TraceSpec, "build", "trace.resolve")
    patches.wrap(Trace, "compiled", "trace.compile", _describe_compile)
    patches.wrap(jobs.SimulateJob, "build_organization", "core.org_build")
    patches.wrap(jobs, "simulate", "core.simulate", _describe_simulate)
    patches.wrap(
        jobs, "lru_miss_ratio_curve", "core.sweep",
        lambda args, kwargs: {"refs": len(args[0])},
    )
    return patches


def install_parent_layers() -> Patches:
    """Wrap the layers that run in the benchmark process itself."""
    from repro import campaign
    from repro.core import jobs
    from repro.service import backends, client, scheduler

    patches = Patches()
    for module in (campaign, scheduler):
        patches.wrap(
            module, "cell_key", "campaign.key",
            lambda args, kwargs: {"_after": lambda key: {"key": key}},
        )

    def describe_put(args, kwargs) -> dict:
        cache, key = args[0], args[1]
        return {"key": key, "_after": lambda _: {"bytes": cache._path(key).stat().st_size}}

    patches.wrap(
        campaign.ResultCache, "get", "campaign.cache_get",
        lambda args, kwargs: {"key": args[1]},
    )
    patches.wrap(campaign.ResultCache, "put", "campaign.cache_put", describe_put)
    patches.wrap_async(
        backends.PoolBackend, "run", "service.backend_run",
        lambda args, kwargs: {"key": jobs.cell_key(args[1])},
    )
    patches.wrap(client.ServiceClient, "submit_cells", "service.submit")
    patches.wrap(client.ServiceClient, "wait", "service.wait")
    return patches


#: Whether this process's cell layers are wrapped; a forked worker
#: inherits the flag, a spawned one starts unwrapped.
_WORKER = {"installed": False, "pid": None}


def mark_installed(installed: bool) -> None:
    _WORKER["installed"] = installed


def _write_spans(path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(take_spans(), handle)


class TracedRunner:
    """``run_cell`` with spans, passed through the ``runner=`` seam.

    Picklable, so it crosses into pool workers.  In a worker it wraps the
    cell layers on first use (unless inherited across fork) and registers
    a write of the worker's spans for when the worker exits.  In the
    benchmark process itself (a serial campaign) it records directly.
    """

    def __init__(self, span_dir: str, parent_pid: int, round_id: str) -> None:
        self.span_dir = span_dir
        self.parent_pid = parent_pid
        self.round_id = round_id

    def __call__(self, cell):
        from repro.core import jobs

        pid = os.getpid()
        if pid != self.parent_pid and _WORKER["pid"] != pid:
            from multiprocessing import util

            _WORKER["pid"] = pid
            if not _WORKER["installed"]:
                install_cell_layers()
                _WORKER["installed"] = True
            util.Finalize(
                None, _write_spans,
                args=(os.path.join(self.span_dir, f"spans-{pid}.json"),),
                exitpriority=100,
            )
        token = _cell_var.set({
            "key": jobs.cell_key(cell),
            "trace": cell.trace.name,
            "replacement": getattr(cell.job, "replacement", None),
        })
        try:
            with span("campaign.run_cell", parent=self.round_id):
                return jobs.run_cell(cell)
        finally:
            _cell_var.reset(token)


def read_worker_spans(span_dir: Path) -> list[dict]:
    """Spans the pool workers of one round wrote when they exited."""
    spans: list[dict] = []
    for path in sorted(Path(span_dir).glob("spans-*.json")):
        spans.extend(json.loads(path.read_text(encoding="utf-8")))
    return spans


def self_times(spans: list[dict]) -> dict[str, float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[str, list[tuple[float, float]]] = {}
    for item in spans:
        if item["parent"] is not None:
            children.setdefault(item["parent"], []).append((item["start"], item["end"]))
    own = {}
    for item in spans:
        covered, edge = 0.0, item["start"]
        for start, end in sorted(children.get(item["id"], ())):
            start, end = max(start, edge), min(end, item["end"])
            if end > start:
                covered += end - start
                edge = end
        own[item["id"]] = item["end"] - item["start"] - covered
    return own
