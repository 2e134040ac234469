"""Wire format of the campaign service: JSON campaign specs and results.

The HTTP API ships campaigns as JSON documents, so the service needs a
bidirectional mapping between the picklable cell layer
(:class:`~repro.core.jobs.CampaignCell` and its job dataclasses) and
plain JSON.  Only *reconstructible* cells travel over the wire: catalog
and mix trace specs, whose identity is a handful of names and integers
that any worker can regenerate deterministically.  ``inline`` and
``file`` specs are rejected — an inline trace only exists in the
caller's process and a file path is not portable across hosts.  A job
travels as its content fields under its ``"type"``, checked strictly
(:func:`repro.core.jobs.job_from_document`); this module keeps the
envelope.  A campaign spec document looks like::

    {
      "cells": [
        {"label": "VCCOM/1024",
         "trace": {"kind": "catalog", "name": "VCCOM", "length": 20000},
         "job": {"type": "simulate", "size": 1024, "associativity": 1,
                 "mechanisms": {"victim_entries": 4}}},
        ...
      ]
    }

Results travel back as JSON *summaries* (:func:`summarize_value`): the
numbers a client tabulates (miss ratios, references, per-sweep curves),
not the full pickled payloads — those stay in the shared
content-addressed result cache, which is the scalable channel for bulky
data.  Two clients submitting identical cells receive byte-identical
summaries because both are rendered from the same cached
:class:`~repro.core.jobs.CellResult`.
"""

from __future__ import annotations

import math

from ..core.jobs import (
    CampaignCell,
    TraceSpec,
    job_document,
    job_from_document,
    strict_json,
)
from ..core.simulator import SimulationReport

__all__ = [
    "SpecError",
    "MAX_CELLS_DEFAULT",
    "CAMPAIGN_FIELDS",
    "encode_cells",
    "decode_cells",
    "summarize_value",
]


class SpecError(ValueError):
    """A campaign spec document that cannot be (safely) reconstructed."""


#: Default ceiling on cells per submitted campaign (guards the service
#: against a single request monopolizing the backend).
MAX_CELLS_DEFAULT = 4096

#: The optional envelope fields of a campaign spec document, checked as
#: strictly as a cell's: ``priority`` is a JSON integer, ``user`` a string.
_ENVELOPE = {"user": strict_json(str), "priority": strict_json(int)}

#: The only top-level fields of a campaign spec document; anything else
#: (a misspelled ``priorty``, a retired option) is a :class:`SpecError`,
#: never silently ignored.
CAMPAIGN_FIELDS = frozenset({"cells", *_ENVELOPE})


# --------------------------- trace specs ---------------------------

def _encode_trace(spec: TraceSpec) -> dict:
    if spec.kind == "catalog":
        return {"kind": "catalog", "name": spec.name, "length": spec.length}
    if spec.kind == "mix":
        return {
            "kind": "mix",
            "name": spec.name,
            "length": spec.length,
            "members": list(spec.members),
            "quantum": spec.quantum,
            "total": spec.total,
        }
    raise SpecError(
        f"trace spec kind {spec.kind!r} cannot travel over the wire; "
        "only 'catalog' and 'mix' traces are reconstructible remotely"
    )


def _catalog_name(name) -> str:
    """A catalog trace name, checked: a cell's key needs its content digest."""
    from ..workloads import catalog

    name = str(name)
    try:
        catalog.get(name)
    except KeyError:
        raise SpecError(f"unknown catalog trace {name!r}") from None
    return name


_int = strict_json(int)
_opt_int = strict_json(int | None)


def _decode_trace(doc: dict) -> TraceSpec:
    kind = doc.get("kind")
    length = _opt_int("length", doc.get("length"))
    if kind == "catalog":
        return TraceSpec.catalog(_catalog_name(doc["name"]), length)
    if kind == "mix":
        members = doc.get("members")
        if not isinstance(members, list) or not members:
            raise SpecError("mix trace spec needs a non-empty 'members' list")
        return TraceSpec.mix(
            str(doc.get("name", "+".join(members))),
            tuple(_catalog_name(m) for m in members),
            quantum=_int("quantum", doc.get("quantum")),
            length=length,
            total=_opt_int("total", doc.get("total")),
        )
    raise SpecError(f"unknown trace spec kind {kind!r}")


# ------------------------------ cells ------------------------------

def encode_cells(cells) -> list[dict]:
    """Render campaign cells as the JSON wire document (``cells`` list)."""
    return [
        {
            "label": cell.label,
            "trace": _encode_trace(cell.trace),
            "job": job_document(cell.job),
        }
        for cell in cells
    ]


def decode_cells(document, *, max_cells: int = MAX_CELLS_DEFAULT) -> list[CampaignCell]:
    """Reconstruct campaign cells from a spec document.

    Accepts either the full ``{"cells": [...]}`` document or the bare
    cell list.  Raises :class:`SpecError` on anything malformed, unknown,
    or over the ``max_cells`` ceiling — the server maps that to a 400.
    A full document may carry only the :data:`CAMPAIGN_FIELDS`, and its
    ``user`` and ``priority`` must be a JSON string and integer.
    """
    if isinstance(document, dict):
        unknown = sorted(set(document) - CAMPAIGN_FIELDS)
        if unknown:
            raise SpecError(
                "unknown campaign field(s): " + ", ".join(map(repr, unknown))
            )
        try:
            for name, check in _ENVELOPE.items():
                if name in document:
                    check(name, document[name])
        except ValueError as exc:
            raise SpecError(str(exc)) from None
        document = document.get("cells")
    if not isinstance(document, list) or not document:
        raise SpecError("campaign spec needs a non-empty 'cells' list")
    if len(document) > max_cells:
        raise SpecError(
            f"campaign has {len(document)} cells; the service caps "
            f"campaigns at {max_cells}"
        )
    cells = []
    for position, doc in enumerate(document):
        if not isinstance(doc, dict):
            raise SpecError(f"cell {position} is not an object")
        try:
            trace = _decode_trace(doc.get("trace") or {})
            job = job_from_document(doc.get("job") or {})
        except (KeyError, TypeError, ValueError) as exc:
            raise SpecError(f"cell {position} is malformed: {exc}") from None
        label = str(doc.get("label") or f"{trace.name}/{position}")
        cells.append(CampaignCell(label=label, trace=trace, job=job))
    return cells


# ----------------------------- results -----------------------------

def _finite(value: float) -> float | None:
    """NaN-safe JSON number (JSON has no NaN; clients get null)."""
    value = float(value)
    return value if math.isfinite(value) else None


def summarize_value(value) -> dict:
    """JSON-able summary of one cell's payload.

    * :class:`SimulationReport` → miss ratios (overall / instruction /
      data, plus ``effective`` and per-mechanism blocks when a miss path
      was attached), references, and memory traffic;
    * stack-sweep tuples → ``{"curve": [...]}``;
    * associativity surfaces → ``{"surface": [[...], ...]}``.
    """
    if isinstance(value, SimulationReport):
        summary = {
            "type": "report",
            "trace": value.trace_name,
            "references": value.references,
            "miss_ratio": _finite(value.miss_ratio),
            "instruction_miss_ratio": _finite(value.instruction_miss_ratio),
            "data_miss_ratio": _finite(value.data_miss_ratio),
            "memory_traffic_bytes": value.overall.memory_traffic_bytes,
        }
        if value.mechanisms:
            summary["effective_miss_ratio"] = _finite(value.effective_miss_ratio)
            summary["mechanisms"] = {
                name: {
                    "references": stats.references,
                    "miss_ratio": _finite(stats.miss_ratio),
                }
                for name, stats in value.mechanisms
            }
        return summary
    if isinstance(value, tuple) and value and isinstance(value[0], tuple):
        return {
            "type": "surface",
            "surface": [[_finite(v) for v in row] for row in value],
        }
    if isinstance(value, tuple):
        return {"type": "curve", "curve": [_finite(v) for v in value]}
    return {"type": "opaque", "repr": repr(value)}
