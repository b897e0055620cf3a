"""The always-on placement server: asyncio front end over ``PlacementService``.

:class:`PlacementServer` is the process that stays up and takes traffic.
One asyncio event loop accepts JSON-over-HTTP/1.1 connections; one
shared :class:`~repro.serve.batcher.MicroBatcher` coalesces concurrent
``/place`` requests across circuits and splits each batch by circuit;
every circuit group of ``/place`` or ``/place_batch`` is one
:meth:`PlacementService.instantiate_batch` call made by ``_dispatch_circuit``
(the dedup → memo stack, run on the service's ``service_workers`` worker
processes when configured); admission control and per-tenant quotas shed
overload with 429 before it turns into queueing latency; and SIGTERM
drains gracefully — in-flight requests finish, the batcher flushes, owned
pools close, and not one accepted request is lost.

The blocking service calls run on a small thread pool so the event loop
never stalls behind a placement; the service layer is thread-safe by
construction and runs batches on its worker processes when configured,
so threads here are dispatch plumbing, not the parallelism story.
"""

from __future__ import annotations

import asyncio
import json
import socket
import time
import urllib.parse
from dataclasses import asdict, dataclass, field
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.exporters import spans_to_chrome_events
from repro.obs.flight import FlightRecorder, TraceBuffer
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SLObjective, SLOTracker
from repro.obs.spans import (
    add_root_hook,
    add_span_sink,
    anchored,
    is_enabled as _obs_enabled,
    metrics as _obs_metrics,
    remove_root_hook,
    remove_span_sink,
    root_span,
    span,
    span_context,
)
from repro.serve.admission import AdmissionController, AdmissionTicket
from repro.serve.affinity import AffinityDecision, AffinityRouter
from repro.serve.batcher import MicroBatcher
from repro.serve.protocol import (
    STREAM_TERMINATOR,
    BadRequest,
    CircuitResolver,
    HttpRequest,
    MethodNotAllowed,
    NotFound,
    PayloadTooLarge,
    ServeError,
    ServerDraining,
    encode_chunk,
    error_response,
    json_response,
    mint_request_id,
    parse_dims,
    parse_dims_batch,
    parse_queries,
    placement_payload,
    render_response,
    routed_payload,
    stream_response_head,
    with_header,
)
from repro.service.engine import PlacementService
from repro.serve.quotas import TenantQuotas
from repro.utils.logging_utils import get_logger

LOGGER = get_logger("serve.server")

#: Hard bound on header count per request (parser safety valve).
MAX_HEADERS = 64
#: Hard bound on one header/request line (bytes).
MAX_LINE_BYTES = 16384


@dataclass(frozen=True)
class ServerConfig:
    """Everything that shapes a :class:`PlacementServer`'s behavior."""

    host: str = "127.0.0.1"
    #: ``0`` binds an ephemeral port (read it back from ``server.port``).
    port: int = 0
    #: Coalesce window of the shared ``/place`` micro-batcher (seconds).
    window_seconds: float = 0.004
    #: Largest coalesced batch one dispatch may carry.
    max_batch: int = 64
    #: Total query cost admitted at once; the rest sheds with 429.
    max_inflight: int = 256
    #: Per-tenant sustained queries/second (``None`` disables quotas).
    quota_rate: Optional[float] = None
    #: Per-tenant burst ceiling (defaults to ``2 * quota_rate``).
    quota_burst: Optional[float] = None
    #: Queueing budget applied when a request carries no ``X-Deadline-Ms``.
    default_deadline_seconds: Optional[float] = None
    #: Worker processes forwarded to ``instantiate_batch(workers=...)``;
    #: the server forks exactly this many at start.
    service_workers: Optional[int] = None
    #: Shard-affine dispatch: pin each circuit's batches to the worker
    #: process owning its registry shard (needs ``service_workers > 1``
    #: and a registry-backed service; inert otherwise).
    affinity: bool = True
    #: Threads running the blocking service calls off the event loop.
    executor_threads: int = 4
    #: Largest accepted request body.
    max_body_bytes: int = 4 * 1024 * 1024
    #: How long :meth:`PlacementServer.drain` waits for in-flight work.
    drain_timeout_seconds: float = 30.0
    #: Availability objective (fraction of requests answering below 500).
    slo_availability_target: float = 0.999
    #: Latency objective: this fraction of successful requests must finish
    #: within ``slo_latency_threshold_seconds``.
    slo_latency_target: float = 0.99
    slo_latency_threshold_seconds: float = 0.5
    #: Rolling compliance window of both objectives.
    slo_window_seconds: float = 3600.0
    #: Flight-recorder ring size (last N request records).
    flight_records: int = 512
    #: When set, the flight ring dumps here as JSONL on drain and on 500s.
    flight_dump_path: Optional[str] = None
    #: When set, every request appends a structured JSONL access-log line.
    access_log_path: Optional[str] = None
    #: Tail-sampled trace retention (kept traces; errors evict last).
    trace_capacity: int = 64
    #: Keep traces at or above this duration quantile.
    trace_slow_quantile: float = 0.9
    #: Requests observed before the slow-keep threshold activates.
    trace_min_samples: int = 32


#: Paths whose outcomes feed the SLO tracker (debug/health traffic doesn't
#: burn the error budget).
_API_PATHS = frozenset({"/place", "/place_batch", "/route"})

#: Bounded route-label set for per-route metrics (uncontrolled paths would
#: otherwise mint one histogram per probe URL).
_ROUTE_LABELS = {
    "/place": "place",
    "/place_batch": "place_batch",
    "/route": "route",
    "/healthz": "healthz",
    "/metrics": "metrics",
    "/debug/statusz": "statusz",
    "/debug/tracez": "tracez",
    "/debug/vars": "vars",
}


@dataclass
class _HandlerResult:
    """Response bytes plus the admission ticket released after the write."""

    response: bytes
    ticket: Optional[AdmissionTicket] = None
    close: bool = False
    #: Coalesced-batch id the request rode, for the access log.
    batch_id: Optional[str] = None
    #: Admitted query cost, for the access log.
    cost: int = 0
    #: Chunked-transfer body: an async iterator of pre-framed chunks the
    #: connection loop writes after ``response`` (the header block).  The
    #: ticket is released only once the stream is fully written.
    stream: Optional[Any] = None


class _BatchItem:
    """One ``/place`` query riding a coalesced batch: dims plus identity.

    The batcher treats items opaquely but duck-calls :meth:`on_batch` when
    the item's batch dispatches, which is how the request learns the batch
    id it rode (for its access-log line) and how the dispatch span learns
    which request traces to link.  ``circuit`` keys the shared batcher's
    split of a mixed coalesced batch into per-circuit sub-batches.
    """

    __slots__ = (
        "circuit",
        "dims",
        "trace",
        "request_id",
        "batch_id",
        "batch_size",
    )

    def __init__(
        self,
        dims: Any,
        trace: Optional[Tuple[str, str]] = None,
        request_id: Optional[str] = None,
        circuit: Any = None,
    ) -> None:
        self.circuit = circuit
        self.dims = dims
        self.trace = trace
        self.request_id = request_id
        self.batch_id: Optional[str] = None
        self.batch_size = 0

    def on_batch(self, batch_id: str, size: int) -> None:
        self.batch_id = batch_id
        self.batch_size = size


class PlacementServer:
    """Serve ``PlacementService`` queries over asyncio HTTP/1.1.

    Parameters
    ----------
    service:
        The placement service answering queries.  Pass ``owns_service=True``
        when the server should close the service's process pools on drain
        (the CLI and harness do).
    config:
        A :class:`ServerConfig`.
    owns_service:
        Whether drain closes the service's pools.
    """

    def __init__(
        self,
        service: PlacementService,
        config: Optional[ServerConfig] = None,
        owns_service: bool = False,
    ) -> None:
        self._service = service
        self._config = config if config is not None else ServerConfig()
        self._owns_service = owns_service
        self._metrics = MetricsRegistry()
        self._admission = AdmissionController(
            max_inflight=self._config.max_inflight, metrics=self._metrics
        )
        self._quotas = TenantQuotas(
            rate=self._config.quota_rate,
            burst=self._config.quota_burst,
            metrics=self._metrics,
        )
        self._resolver = CircuitResolver()
        self._affinity = AffinityRouter(
            service,
            workers=self._config.service_workers,
            metrics=self._metrics,
            enabled=self._config.affinity,
        )
        #: One shared ``/place`` batcher for every circuit: concurrent
        #: requests coalesce across circuits, and the batcher splits the
        #: coalesced batch by circuit, so each dispatch holds one circuit.
        self._batcher = MicroBatcher(
            dispatch=self._dispatch_batch,
            window_seconds=self._config.window_seconds,
            max_batch=self._config.max_batch,
            name="place",
            metrics=self._metrics,
            key=lambda item: id(item.circuit),
        )
        self._executor: Optional[ThreadPoolExecutor] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: "set[asyncio.Task[None]]" = set()
        self._draining = False
        self._drained = asyncio.Event()
        self._started_at: Optional[float] = None
        self._slo = SLOTracker(
            [
                SLObjective(
                    name="availability",
                    target=self._config.slo_availability_target,
                    kind="availability",
                    window_seconds=self._config.slo_window_seconds,
                ),
                SLObjective(
                    name="latency",
                    target=self._config.slo_latency_target,
                    kind="latency",
                    latency_threshold=self._config.slo_latency_threshold_seconds,
                    window_seconds=self._config.slo_window_seconds,
                ),
            ]
        )
        self._flight = FlightRecorder(capacity=self._config.flight_records)
        self._traces = TraceBuffer(
            capacity=self._config.trace_capacity,
            slow_quantile=self._config.trace_slow_quantile,
            min_samples=self._config.trace_min_samples,
        )
        self._access_log = None
        self._trace_taps_installed = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def config(self) -> ServerConfig:
        """The configuration this server runs under."""
        return self._config

    @property
    def service(self) -> PlacementService:
        """The placement service answering this server's queries."""
        return self._service

    @property
    def metrics(self) -> MetricsRegistry:
        """The server's own metrics registry (``serve.*`` names)."""
        return self._metrics

    @property
    def draining(self) -> bool:
        """True once drain began; new requests answer 503."""
        return self._draining

    @property
    def port(self) -> int:
        """The bound TCP port (valid after :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def address(self) -> str:
        """``http://host:port`` of the running server."""
        return f"http://{self._config.host}:{self.port}"

    async def start(self) -> None:
        """Bind the listener and start accepting connections."""
        if self._server is not None:
            raise RuntimeError("server is already started")
        # Pre-fork the service's worker processes while this is still the
        # only active thread: a fork taken once dispatch threads are
        # serving can inherit a sibling's held import lock and deadlock
        # the child worker on its first lazy import.
        self._service.prestart_pool(self._config.service_workers)
        self._executor = ThreadPoolExecutor(
            max_workers=self._config.executor_threads,
            thread_name_prefix="serve-dispatch",
        )
        self._install_trace_taps()
        if self._config.access_log_path:
            from pathlib import Path

            log_path = Path(self._config.access_log_path)
            log_path.parent.mkdir(parents=True, exist_ok=True)
            self._access_log = log_path.open("a", encoding="utf-8")
        self._server = await asyncio.start_server(
            self._on_connection,
            host=self._config.host,
            port=self._config.port,
            family=socket.AF_INET,
        )
        self._started_at = asyncio.get_running_loop().time()
        LOGGER.info("placement server listening on %s", self.address)

    def _install_trace_taps(self) -> None:
        """Feed the tail sampler from the span substrate (session-scoped).

        Both taps are transient: removed on drain and by ``obs.reset()``,
        so repeated harness sessions in one process never leave a dead
        server's buffers wired into the live span feed.
        """
        if self._trace_taps_installed:
            return
        add_span_sink(self._traces.ingest)
        add_root_hook(self._on_root_span)
        self._trace_taps_installed = True

    def _remove_trace_taps(self) -> None:
        if not self._trace_taps_installed:
            return
        remove_span_sink(self._traces.ingest)
        remove_root_hook(self._on_root_span)
        self._trace_taps_installed = False

    def _on_root_span(self, record: Dict[str, Any]) -> None:
        """Root hook: only request roots reach the tail sampler's verdict."""
        if record.get("name") == "serve.request":
            self._traces.seal(record)

    async def serve_until_drained(self) -> None:
        """Block until :meth:`drain` completes (the CLI's main await)."""
        await self._drained.wait()

    async def drain(self) -> None:
        """Graceful shutdown: stop accepting, finish in-flight, close pools.

        Idempotent.  Order matters: the listener closes first (no new
        connections), the draining flag flips (new requests on live
        keep-alive connections answer 503), queued batches flush, and only
        when the admission controller reports zero inflight work — every
        accepted request answered and written — do owned resources close.
        """
        if self._draining:
            await self._drained.wait()
            return
        self._draining = True
        LOGGER.info("drain: closing listener, finishing in-flight requests")
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self._batcher.flush()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self._config.drain_timeout_seconds
        while not self._admission.idle and loop.time() < deadline:
            await asyncio.sleep(0.005)
        if not self._admission.idle:  # pragma: no cover - pathological stall
            LOGGER.warning(
                "drain: %d inflight queries still pending at timeout",
                self._admission.inflight,
            )
        await self._batcher.close()
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        if self._owns_service:
            self._service.close()
        if self._config.flight_dump_path and len(self._flight):
            try:
                self._flight.dump(self._config.flight_dump_path)
                LOGGER.info(
                    "drain: flight recorder dumped %d records to %s",
                    len(self._flight),
                    self._config.flight_dump_path,
                )
            except OSError:  # pragma: no cover - disk full / permissions
                LOGGER.warning("drain: flight recorder dump failed")
        if self._access_log is not None:
            self._access_log.close()
            self._access_log = None
        self._remove_trace_taps()
        self._flush_metrics()
        self._drained.set()
        LOGGER.info("drain: complete")

    async def aclose(self) -> None:
        """Drain, then tear down any connection tasks still parked on reads."""
        await self.drain()
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*tuple(self._connections), return_exceptions=True)

    def _flush_metrics(self) -> None:
        """Log the final counter snapshot so a drained server leaves a record."""
        summary = {
            "admission": self._admission.stats(),
            "quota_tenants": self._quotas.stats(),
            "service": self._service.snapshot().as_dict(),
        }
        LOGGER.info("final serving stats: %s", json.dumps(summary, default=str))

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)
        self._metrics.inc("serve.connections")
        try:
            await self._connection_loop(reader, writer)
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _connection_loop(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        while True:
            try:
                request = await _read_request(reader, self._config.max_body_bytes)
            except ServeError as exc:
                writer.write(error_response(exc, close=True))
                await writer.drain()
                return
            if request is None:
                return
            result = await self._handle_request(request)
            try:
                writer.write(result.response)
                await writer.drain()
                if result.stream is not None:
                    # Chunked body: flush each shard sub-batch the moment
                    # it lands, then the zero-length terminator chunk.
                    async for chunk in result.stream:
                        writer.write(chunk)
                        await writer.drain()
                    writer.write(STREAM_TERMINATOR)
                    await writer.drain()
            finally:
                if result.ticket is not None:
                    # Released only after the response bytes are flushed:
                    # drain's inflight==0 therefore means every accepted
                    # request was fully answered, not merely computed.
                    result.ticket.release()
            if result.close or request.wants_close:
                return

    async def _handle_request(self, request: HttpRequest) -> _HandlerResult:
        loop = asyncio.get_running_loop()
        started = loop.time()
        route = (request.method, request.path.split("?", 1)[0])
        request_id = request.request_id or mint_request_id()
        self._metrics.inc("serve.requests")
        outcome = "ok"
        # A forced-root span: concurrent requests interleave awaits on this
        # event-loop thread, so stack parenting would chain strangers.
        with root_span(
            "serve.request",
            trace_id=request.trace_id,
            method=route[0],
            path=route[1],
            request_id=request_id,
            tenant=request.tenant,
        ) as obs_span:
            try:
                result = await self._route(request, route, obs_span, request_id)
                status = 200
            except ServeError as exc:
                status = exc.status
                outcome = exc.code
                obs_span.set(error=exc.code)
                result = _HandlerResult(
                    response=error_response(exc, close=self._draining)
                )
            except Exception as exc:  # noqa: BLE001 - last-resort 500
                LOGGER.exception("unhandled error serving %s %s", *route)
                status = 500
                outcome = type(exc).__name__
                obs_span.set(error=outcome)
                internal = ServeError(f"{type(exc).__name__}: {exc}")
                result = _HandlerResult(response=error_response(internal, close=True))
            obs_span.set(status=status)
            trace_ctx = span_context(obs_span)
        elapsed = loop.time() - started
        self._metrics.inc(f"serve.status.{status}")
        self._metrics.observe("serve.request_seconds", elapsed)
        label = _ROUTE_LABELS.get(route[1], "other")
        self._metrics.observe(f"serve.route.{label}.seconds", elapsed)
        if status == 200 and route[0] == "POST":
            self._admission.observe_service_time(elapsed)
        if route[1] in _API_PATHS:
            self._slo.record(status, elapsed)
        self._log_request(
            request, route, request_id, trace_ctx, status, outcome, elapsed, result
        )
        result.response = with_header(result.response, "X-Request-Id", request_id)
        return result

    def _log_request(
        self,
        request: HttpRequest,
        route: Tuple[str, str],
        request_id: str,
        trace_ctx: Optional[Tuple[str, str]],
        status: int,
        outcome: str,
        elapsed: float,
        result: _HandlerResult,
    ) -> None:
        """One structured access-log record: flight ring + optional JSONL."""
        entry = {
            "ts": round(time.time(), 6),
            "request_id": request_id,
            "trace_id": trace_ctx[0] if trace_ctx else None,
            "tenant": request.tenant,
            "method": route[0],
            "route": route[1],
            "status": status,
            "outcome": outcome,
            "latency_seconds": round(elapsed, 6),
            "batch_id": result.batch_id,
            "cost": result.cost,
        }
        self._flight.record(entry)
        handle = self._access_log
        if handle is not None:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
            handle.flush()
        if status >= 500 and self._config.flight_dump_path:
            # An unhandled error (or 504) snapshots the minutes before it.
            try:
                self._flight.dump(self._config.flight_dump_path)
            except OSError:  # pragma: no cover - disk full / permissions
                pass

    async def _route(
        self,
        request: HttpRequest,
        route: Tuple[str, str],
        obs_span: Any,
        request_id: str,
    ) -> _HandlerResult:
        method, path = route
        if path in ("/healthz", "/metrics", "/debug/statusz", "/debug/tracez", "/debug/vars"):
            if method != "GET":
                raise MethodNotAllowed(f"{path} only supports GET")
            if path == "/healthz":
                return self._handle_healthz()
            if path == "/metrics":
                return self._handle_metrics()
            if path == "/debug/statusz":
                return self._handle_statusz()
            if path == "/debug/tracez":
                return self._handle_tracez(request)
            return self._handle_vars()
        if path in _API_PATHS:
            if method != "POST":
                raise MethodNotAllowed(f"{path} only supports POST")
            if self._draining:
                raise ServerDraining("server is draining; retry against a peer")
            handler = {
                "/place": self._handle_place,
                "/place_batch": self._handle_place_batch,
                "/route": self._handle_route,
            }[path]
            return await handler(request, obs_span, request_id)
        raise NotFound(f"no handler for {method} {path}")

    # ------------------------------------------------------------------ #
    # Endpoints
    # ------------------------------------------------------------------ #
    def _handle_healthz(self) -> _HandlerResult:
        loop = asyncio.get_running_loop()
        payload = {
            "status": "draining" if self._draining else "ok",
            "inflight": self._admission.inflight,
            "queued": self._batcher.queued,
            "batchers": 1,
            "uptime_seconds": (
                round(loop.time() - self._started_at, 3)
                if self._started_at is not None
                else 0.0
            ),
        }
        return _HandlerResult(response=json_response(200, payload))

    def _handle_metrics(self) -> _HandlerResult:
        # Three registries render into one exposition: the server's own
        # serve.* metrics, a consistent snapshot of the service counters,
        # and (when tracing is on) the process-global repro.obs registry.
        parts = [self._metrics.to_prometheus()]
        parts.append(self._service.snapshot().metrics.to_prometheus())
        if _obs_enabled():
            parts.append(_obs_metrics().to_prometheus())
        body = "".join(parts).encode("utf-8")
        return _HandlerResult(
            response=render_response(
                200, body, content_type="text/plain; version=0.0.4"
            )
        )

    def _deadline_for(self, request: HttpRequest) -> Optional[float]:
        budget = request.deadline_seconds
        if budget is None:
            budget = self._config.default_deadline_seconds
        if budget is None:
            return None
        return asyncio.get_running_loop().time() + budget

    def _admit(self, request: HttpRequest, cost: int) -> AdmissionTicket:
        """Quota first (cheap, per-tenant), then the global inflight budget."""
        self._quotas.check(request.tenant, cost)
        return self._admission.admit(cost)

    async def _handle_place(
        self, request: HttpRequest, obs_span: Any, request_id: str
    ) -> _HandlerResult:
        payload = request.json()
        circuit = self._resolver.resolve(payload)
        dims = parse_dims(payload.get("dims"), circuit.num_blocks)
        ticket = self._admit(request, 1)
        item = _BatchItem(
            dims,
            trace=span_context(obs_span),
            request_id=request_id,
            circuit=circuit,
        )
        try:
            placement = await self._batcher.submit(
                item, deadline=self._deadline_for(request)
            )
        except BaseException:
            ticket.release()
            raise
        if item.batch_id is not None:
            obs_span.set(batch_id=item.batch_id, batch_size=item.batch_size)
        return _HandlerResult(
            response=json_response(200, placement_payload(placement)),
            ticket=ticket,
            batch_id=item.batch_id,
            cost=1,
        )

    async def _handle_place_batch(
        self, request: HttpRequest, obs_span: Any, request_id: str
    ) -> _HandlerResult:
        """A whole batch in one call, split by shard owner before fan-out.

        Two payload shapes: the single-circuit ``dims_batch`` form and the
        mixed-circuit ``queries`` form.  Either way the batch groups by
        circuit (one shard sub-batch each), every sub-batch dispatches
        concurrently to its shard owner, and with ``"stream": true`` the
        response flushes one chunk per sub-batch *as it lands* — callers
        see the fast shards' placements while the slow shard still runs.
        """
        payload = request.json()
        stream = bool(payload.get("stream"))
        raw_queries = payload.get("queries")
        if raw_queries is not None:
            if payload.get("dims_batch") is not None:
                raise BadRequest("pass either 'dims_batch' or 'queries', not both")
            queries = parse_queries(raw_queries, self._resolver)
        else:
            circuit = self._resolver.resolve(payload)
            dims_batch = parse_dims_batch(payload.get("dims_batch"), circuit.num_blocks)
            queries = [(circuit, dims) for dims in dims_batch]
        ticket = self._admit(request, len(queries))
        try:
            groups = self._group_queries(queries)
            obs_span.set(queries=len(queries), shards=len(groups), stream=stream)
            loop = asyncio.get_running_loop()
            trace = span_context(obs_span)
            started = loop.time()
            tasks = [
                loop.run_in_executor(
                    self._require_executor(),
                    partial(
                        self._anchored_call,
                        trace,
                        partial(
                            self._dispatch_circuit,
                            group_circuit,
                            decision,
                            [queries[i][1] for i in indices],
                        ),
                    ),
                )
                for group_circuit, decision, indices in groups
            ]
        except BaseException:
            ticket.release()
            raise
        if stream:
            return _HandlerResult(
                response=stream_response_head(200),
                ticket=ticket,
                cost=len(queries),
                stream=self._stream_shard_chunks(groups, tasks, started),
            )
        try:
            batches = await asyncio.gather(*tasks)
        except BaseException:
            ticket.release()
            raise
        results: List[Any] = [None] * len(queries)
        shards = []
        unique = duplicates = 0
        for (group_circuit, decision, indices), batch in zip(groups, batches):
            for index, placement in zip(indices, batch.results):
                results[index] = placement
            unique += batch.unique_queries
            duplicates += batch.duplicate_queries
            shards.append(
                {
                    "shard": decision.shard,
                    "slot": decision.slot,
                    "circuit": group_circuit.name,
                    "queries": len(indices),
                    "elapsed_seconds": round(batch.elapsed_seconds, 6),
                }
            )
        body = {
            "results": [placement_payload(placement) for placement in results],
            "unique_queries": unique,
            "duplicate_queries": duplicates,
            "elapsed_seconds": round(loop.time() - started, 6),
        }
        if raw_queries is not None or len(groups) > 1:
            body["shards"] = shards
        return _HandlerResult(
            response=json_response(200, body), ticket=ticket, cost=len(queries)
        )

    def _group_queries(
        self, queries: List[Tuple[Any, Any]]
    ) -> List[Tuple[Any, AffinityDecision, List[int]]]:
        """Group (circuit, dims) queries into per-circuit shard sub-batches."""
        order: List[int] = []
        grouped: Dict[int, List[int]] = {}
        circuits: Dict[int, Any] = {}
        for index, (circuit, _dims) in enumerate(queries):
            circuit_id = id(circuit)
            if circuit_id not in grouped:
                grouped[circuit_id] = []
                circuits[circuit_id] = circuit
                order.append(circuit_id)
            grouped[circuit_id].append(index)
        return [
            (
                circuits[circuit_id],
                self._affinity.route(circuits[circuit_id]),
                grouped[circuit_id],
            )
            for circuit_id in order
        ]

    async def _stream_shard_chunks(self, groups, tasks, started):
        """Yield one pre-framed chunk per shard sub-batch, completion order.

        A failing sub-batch yields an error chunk for *its* indices only;
        the other shards' results still stream.  The trailing summary
        chunk tells the client the stream is complete (on top of the
        chunked-transfer terminator).
        """
        loop = asyncio.get_running_loop()
        pending = {
            asyncio.ensure_future(task): group for task, group in zip(tasks, groups)
        }
        failed = 0
        while pending:
            done, _ = await asyncio.wait(
                pending.keys(), return_when=asyncio.FIRST_COMPLETED
            )
            for task in done:
                group_circuit, decision, indices = pending.pop(task)
                chunk: Dict[str, Any] = {
                    "shard": decision.shard,
                    "slot": decision.slot,
                    "circuit": group_circuit.name,
                    "indices": list(indices),
                }
                try:
                    batch = task.result()
                except Exception as exc:  # noqa: BLE001 - per-shard isolation
                    failed += 1
                    chunk["error"] = f"{type(exc).__name__}: {exc}"
                else:
                    chunk["results"] = [
                        placement_payload(placement) for placement in batch.results
                    ]
                    chunk["elapsed_seconds"] = round(batch.elapsed_seconds, 6)
                yield encode_chunk(chunk)
        yield encode_chunk(
            {
                "done": True,
                "shards": len(groups),
                "failed": failed,
                "elapsed_seconds": round(loop.time() - started, 6),
            }
        )

    async def _handle_route(
        self, request: HttpRequest, obs_span: Any, request_id: str
    ) -> _HandlerResult:
        payload = request.json()
        circuit = self._resolver.resolve(payload)
        dims = parse_dims(payload.get("dims"), circuit.num_blocks)
        ticket = self._admit(request, 1)
        try:
            loop = asyncio.get_running_loop()
            placement, layout = await loop.run_in_executor(
                self._require_executor(),
                partial(
                    self._anchored_call,
                    span_context(obs_span),
                    partial(self._service.route, circuit, dims),
                ),
            )
        except BaseException:
            ticket.release()
            raise
        return _HandlerResult(
            response=json_response(200, routed_payload(placement, layout)),
            ticket=ticket,
            cost=1,
        )

    # ------------------------------------------------------------------ #
    # Debug plane
    # ------------------------------------------------------------------ #
    def _handle_statusz(self) -> _HandlerResult:
        loop = asyncio.get_running_loop()
        import platform as _platform

        payload = {
            "status": "draining" if self._draining else "ok",
            "uptime_seconds": (
                round(loop.time() - self._started_at, 3)
                if self._started_at is not None
                else 0.0
            ),
            "build": {
                "python": _platform.python_version(),
                "platform": _platform.platform(),
            },
            "config": asdict(self._config),
            "slo": self._slo.snapshot(),
            "admission": self._admission.stats(),
            "quotas": self._quotas.stats(),
            "batchers": {"place": self._batcher.stats()},
            "affinity": self._affinity.stats(),
            "tracing": {
                "enabled": _obs_enabled(),
                "sampler": self._traces.stats(),
                "flight_records": len(self._flight),
            },
        }
        return _HandlerResult(response=json_response(200, payload))

    def _handle_tracez(self, request: HttpRequest) -> _HandlerResult:
        query = urllib.parse.urlparse(request.path).query
        params = urllib.parse.parse_qs(query)
        trace_id = params.get("trace_id", [None])[0]
        if trace_id:
            records = self._traces.get(trace_id)
            if records is None:
                raise NotFound(f"trace {trace_id!r} is not in the sample buffer")
            fmt = params.get("fmt", ["spans"])[0]
            if fmt == "chrome":
                body = {
                    "traceEvents": spans_to_chrome_events(records),
                    "displayTimeUnit": "ms",
                }
                return _HandlerResult(response=json_response(200, body))
            return _HandlerResult(
                response=json_response(200, {"trace_id": trace_id, "spans": records})
            )
        payload = {
            "sampler": self._traces.stats(),
            "traces": self._traces.summaries(),
        }
        return _HandlerResult(response=json_response(200, payload))

    def _handle_vars(self) -> _HandlerResult:
        payload: Dict[str, Any] = {
            "serve": self._metrics.snapshot(),
            "service": self._service.snapshot().metrics.snapshot(),
        }
        if _obs_enabled():
            payload["obs"] = _obs_metrics().snapshot()
        return _HandlerResult(response=json_response(200, payload))

    # ------------------------------------------------------------------ #
    # Batching
    # ------------------------------------------------------------------ #
    def _require_executor(self) -> ThreadPoolExecutor:
        if self._executor is None:
            raise ServerDraining("server dispatch executor is shut down")
        return self._executor

    @staticmethod
    def _anchored_call(ctx: Optional[Tuple[str, str]], fn: Callable[[], Any]) -> Any:
        """Run ``fn`` on this (executor) thread, parented under ``ctx``.

        ``run_in_executor`` severs the thread-local span stack; the anchor
        re-attaches the service-side spans to the request trace.
        """
        with anchored(ctx):
            return fn()

    async def _dispatch_batch(self, items: List[Any]) -> List[Any]:
        """One coalesced dispatch: the blocking batch call, off the loop.

        The batcher keys items by circuit, so ``items`` hold one circuit.
        """
        loop = asyncio.get_running_loop()
        results, duplicates = await loop.run_in_executor(
            self._require_executor(),
            partial(self._dispatch_blocking, list(items)),
        )
        self._metrics.inc("serve.dispatches")
        self._metrics.inc("serve.coalesced_queries", len(items))
        self._metrics.inc("serve.dedup_hits", duplicates)
        return results

    def _dispatch_blocking(
        self, items: List[_BatchItem]
    ) -> Tuple[List[Any], int]:
        """The blocking half of a ``/place`` dispatch, on an executor thread.

        The dispatch span opens *here*, not on the event loop: the
        executor thread's span stack then parents the service-side spans
        naturally, and the span never sits on the loop thread's stack
        where concurrent requests would mis-parent onto it.  It anchors
        onto the first coalesced request's trace and links the rest via
        the ``links`` attribute, so every rider's trace names the batch.
        """
        circuit = items[0].circuit
        primary = next((item.trace for item in items if item.trace), None)
        links = sorted({item.trace[0] for item in items if item.trace})
        attrs: Dict[str, Any] = {}
        if items[0].batch_id is not None:
            attrs["batch_id"] = items[0].batch_id
        if links:
            attrs["links"] = ",".join(links)
        with anchored(primary):
            batch = self._dispatch_circuit(
                circuit,
                self._affinity.route(circuit),
                [item.dims for item in items],
                **attrs,
            )
        return batch.results, batch.duplicate_queries

    def _dispatch_circuit(
        self,
        circuit: Any,
        decision: AffinityDecision,
        dims_list: List[Any],
        **span_attrs: Any,
    ) -> Any:
        """One circuit's queries as one ``instantiate_batch`` (blocking).

        Every placement dispatch runs here, on an executor thread, inside
        a ``serve.dispatch`` span, pinned to the slot ``decision`` names.
        """
        attrs: Dict[str, Any] = {
            "circuit": circuit.name,
            "queries": len(dims_list),
            "shard": decision.shard,
        }
        if decision.pinned:
            attrs["slot"] = decision.slot
        with span("serve.dispatch", **attrs, **span_attrs):
            started = time.monotonic()
            try:
                return self._service.instantiate_batch(
                    circuit,
                    dims_list,
                    workers=self._config.service_workers,
                    pin_slot=decision.slot,
                )
            finally:
                self._affinity.record(decision, time.monotonic() - started)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        state = "draining" if self._draining else (
            "listening" if self._server is not None else "idle"
        )
        return f"PlacementServer({state}, inflight={self._admission.inflight})"


# ---------------------------------------------------------------------- #
# HTTP parsing
# ---------------------------------------------------------------------- #
async def _read_request(
    reader: asyncio.StreamReader, max_body_bytes: int
) -> Optional[HttpRequest]:
    """Parse one HTTP/1.1 request; ``None`` on a cleanly closed connection."""
    try:
        line = await reader.readline()
    except (asyncio.LimitOverrunError, ValueError) as exc:
        raise BadRequest(f"request line too long: {exc}") from exc
    if not line:
        return None
    if len(line) > MAX_LINE_BYTES:
        raise BadRequest("request line too long")
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise BadRequest(f"malformed request line: {line.decode('latin-1')!r}")
    method, target, _version = parts
    headers: Dict[str, str] = {}
    while True:
        header_line = await reader.readline()
        if header_line in (b"\r\n", b"\n", b""):
            break
        if len(header_line) > MAX_LINE_BYTES:
            raise BadRequest("header line too long")
        if len(headers) >= MAX_HEADERS:
            raise BadRequest(f"too many headers (limit {MAX_HEADERS})")
        name, separator, value = header_line.decode("latin-1").partition(":")
        if not separator:
            raise BadRequest(f"malformed header line: {header_line!r}")
        name, value = name.strip().lower(), value.strip()
        if name == "content-length" and headers.get(name, value) != value:
            # A proxy honouring the other value would frame another request.
            raise BadRequest(f"conflicting Content-Length values {headers[name]!r}, {value!r}")
        headers[name] = value
    if "transfer-encoding" in headers:
        raise BadRequest("Transfer-Encoding is not supported; send a Content-Length body")
    raw_length = headers.get("content-length", "0") or "0"
    try:
        length = int(raw_length)
    except ValueError as exc:
        raise BadRequest(f"invalid Content-Length {raw_length!r}") from exc
    if length < 0:
        raise BadRequest(f"invalid Content-Length {raw_length!r}")
    if length > max_body_bytes:
        raise PayloadTooLarge(
            f"request body of {length} bytes exceeds the {max_body_bytes}-byte bound"
        )
    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            return None
    return HttpRequest(method=method.upper(), path=target, headers=headers, body=body)


async def run_server(
    server: PlacementServer, install_signal_handlers: bool = True
) -> None:
    """Start ``server`` and block until a signal (or :meth:`drain`) stops it.

    SIGTERM and SIGINT both trigger the graceful drain; platforms without
    ``add_signal_handler`` (Windows event loops) skip installation and
    rely on the caller to invoke :meth:`PlacementServer.drain`.
    """
    import signal

    await server.start()
    if install_signal_handlers:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    signum, lambda: asyncio.ensure_future(server.drain())
                )
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                break
    await server.serve_until_drained()
    await server.aclose()
