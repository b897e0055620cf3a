"""The serving subsystem: an always-on placement server over HTTP/1.1.

Every scaling layer below this one is a library — the cached
:class:`~repro.service.engine.PlacementService`, the dedup → shard →
fan-out machinery of :mod:`repro.parallel`, the :mod:`repro.obs`
instrumentation.  :mod:`repro.serve` is the process that stays up and
takes traffic:

* :mod:`repro.serve.protocol` — the JSON/HTTP wire protocol: payload
  shapes, the error taxonomy (429 backpressure, 503 draining, 504
  deadline), and circuit resolution.
* :mod:`repro.serve.batcher` — :class:`MicroBatcher`: concurrent requests
  entering within a small window coalesce into one batched service call,
  optionally split into sub-batches by a per-item key (the server keys
  by circuit).
* :mod:`repro.serve.affinity` — :class:`AffinityRouter`: shard-affine
  dispatch, picking for each circuit's sub-batch the worker slot that
  owns its registry shard.
* :mod:`repro.serve.admission` — the bounded inflight budget that sheds
  overload with 429 + ``Retry-After`` instead of queueing it.
* :mod:`repro.serve.quotas` — per-tenant token buckets keyed by the
  ``X-Tenant`` header.
* :mod:`repro.serve.server` — :class:`PlacementServer`: the asyncio
  daemon (``/place`` ``/place_batch`` ``/route`` ``/healthz``
  ``/metrics`` plus the ``/debug/statusz`` ``/debug/tracez``
  ``/debug/vars`` debug plane) with per-request root spans, tail-based
  trace sampling, SLO burn tracking, a flight-recorder ring, and
  graceful SIGTERM drain.
* :mod:`repro.serve.harness` — :class:`ServerHarness` +
  :class:`ServeClient` for tests, benchmarks and examples.
* :mod:`repro.serve.cli` — the ``python -m repro.serve`` entry point.
"""

from repro.serve.admission import AdmissionController, AdmissionTicket
from repro.serve.affinity import AffinityDecision, AffinityRouter
from repro.serve.batcher import MicroBatcher
from repro.serve.harness import ServeClient, ServeResponse, ServerHarness, StreamChunk
from repro.serve.protocol import (
    BadRequest,
    DeadlineExceeded,
    Overloaded,
    QuotaExceeded,
    ServeError,
    ServerDraining,
    mint_request_id,
    with_header,
)
from repro.serve.quotas import TenantQuotas, TokenBucket
from repro.serve.server import PlacementServer, ServerConfig, run_server

__all__ = [
    "AdmissionController",
    "AdmissionTicket",
    "AffinityDecision",
    "AffinityRouter",
    "BadRequest",
    "DeadlineExceeded",
    "MicroBatcher",
    "Overloaded",
    "PlacementServer",
    "QuotaExceeded",
    "ServeClient",
    "ServeError",
    "ServeResponse",
    "ServerConfig",
    "ServerDraining",
    "ServerHarness",
    "StreamChunk",
    "TenantQuotas",
    "TokenBucket",
    "mint_request_id",
    "run_server",
    "with_header",
]
