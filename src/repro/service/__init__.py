"""The campaign service: async scheduling, pluggable backends, HTTP/SSE.

The service tier turns :func:`repro.campaign.run_campaign` — a
single-process library call — into a shared facility many clients can
hit concurrently without multiplying work (``docs/service.md``):

* :mod:`repro.service.scheduler` — async scheduler that splits
  campaigns into content-addressed cells and dedupes them across
  clients, processes, and the on-disk result cache;
* :mod:`repro.service.backends` — pluggable execution backends
  (in-process threads, or a pool of one-process workers);
* :mod:`repro.service.queue` — priority admission queue with per-user
  quotas and fair-share start order;
* :mod:`repro.service.http` / :mod:`repro.service.client` — the
  HTTP/SSE API (``POST /campaigns``, ``GET /campaigns/{id}``,
  ``GET /campaigns/{id}/events``) and its stdlib client;
* :mod:`repro.service.spec` — the JSON wire format for campaign specs
  and result summaries.

CLI: ``repro-cachesim serve`` runs the service;
``repro-cachesim campaign --remote URL`` submits to one and tails its
SSE stream.
"""

from .backends import BackendCrash, InlineBackend, PoolBackend
from .client import SERVICE_URL_ENV, ServiceClient, ServiceError
from .http import BackgroundServer, ServiceServer, serve
from .queue import FairShareQueue, QuotaExceeded
from .scheduler import CampaignState, Scheduler
from .spec import SpecError, decode_cells, encode_cells, summarize_value

__all__ = [
    "BackendCrash",
    "BackgroundServer",
    "CampaignState",
    "FairShareQueue",
    "InlineBackend",
    "PoolBackend",
    "QuotaExceeded",
    "Scheduler",
    "ServiceClient",
    "ServiceError",
    "ServiceServer",
    "SERVICE_URL_ENV",
    "SpecError",
    "decode_cells",
    "encode_cells",
    "serve",
    "summarize_value",
]
