"""The wire protocol of the placement server: JSON over HTTP/1.1.

Everything the server says to a client is defined here — request payload
shapes, response encodings, and the error taxonomy that maps onto HTTP
status codes — so the asyncio plumbing in :mod:`repro.serve.server` never
invents a response format inline and tests can assert against one place.

Endpoints (all bodies are JSON):

===================  ====  ===================================================
path                 verb  payload
===================  ====  ===================================================
``/place``           POST  ``{"circuit": <name|netlist>, "dims": [[w,h],..]}``
``/place_batch``     POST  ``{"circuit": ..., "dims_batch": [[[w,h],..],..]}``
                           or ``{"queries": [{"circuit":..,"dims":..},..]}``;
                           ``"stream": true`` flushes per-shard chunks
``/route``           POST  ``{"circuit": ..., "dims": [[w,h],..]}``
``/healthz``         GET   —
``/metrics``         GET   — (Prometheus text exposition)
``/debug/statusz``   GET   — (uptime, config, SLO burn, subsystem state)
``/debug/tracez``    GET   — (tail-sampled traces; ``?trace_id=`` for spans)
``/debug/vars``      GET   — (raw metrics snapshot as JSON)
===================  ====  ===================================================

``circuit`` is either the name of a built-in benchmark circuit (served via
:func:`repro.benchcircuits.get_benchmark`) or a full netlist dict in
:func:`repro.core.serialization.circuit_to_dict` form.  Request headers
carry serving semantics: ``X-Tenant`` names the quota bucket the request
draws from, ``X-Deadline-Ms`` bounds how long the request may wait before
the server drops it (a :class:`DeadlineExceeded` 504), ``X-Request-Id``
carries the caller's correlation id (the server mints one when absent and
echoes it on every response), and ``X-Trace-Id`` joins the request's root
span to an upstream trace.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.api.placement import Dims, Placement
from repro.service.cache import LRUCache

#: Header naming the quota bucket a request draws from.
TENANT_HEADER = "x-tenant"
#: Tenant assumed when the header is absent.
DEFAULT_TENANT = "anonymous"
#: Header bounding the request's queueing budget, in milliseconds.
DEADLINE_HEADER = "x-deadline-ms"
#: Header carrying the caller's request correlation id (minted when absent).
REQUEST_ID_HEADER = "x-request-id"
#: Header carrying an upstream trace id the request's root span should join.
TRACE_ID_HEADER = "x-trace-id"
#: Distinct serialized netlists a :class:`CircuitResolver` keeps resolved.
RESOLVED_CIRCUITS = 64

# Request ids come from a pid-qualified counter, never an RNG, so serving
# stays bit-identical with fixed-seed golden trajectories.
_REQUEST_IDS = itertools.count(1)


def mint_request_id() -> str:
    """A process-unique request id (``<pid hex>r<counter hex>``)."""
    return f"{os.getpid():x}r{next(_REQUEST_IDS):x}"


def _sanitize_token(raw: Optional[str], max_len: int = 64) -> Optional[str]:
    """Clamp a caller-supplied correlation token to a safe charset."""
    if not raw:
        return None
    cleaned = "".join(ch for ch in raw.strip() if ch.isalnum() or ch in "-_.")
    return cleaned[:max_len] or None

#: HTTP reason phrases for the statuses the server emits.
REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


# ---------------------------------------------------------------------- #
# Error taxonomy
# ---------------------------------------------------------------------- #
class ServeError(Exception):
    """Base of every protocol-visible failure; renders as a JSON error body."""

    status = 500
    code = "internal"
    #: When set, rendered as a ``Retry-After`` header (seconds).
    retry_after: Optional[float] = None

    def payload(self) -> Dict[str, Any]:
        """The JSON error body."""
        body: Dict[str, Any] = {"error": self.code, "message": str(self)}
        if self.retry_after is not None:
            body["retry_after_seconds"] = round(self.retry_after, 3)
        return body


class BadRequest(ServeError):
    """Malformed payload, unknown circuit, or dimension-vector mismatch."""

    status = 400
    code = "bad_request"


class NotFound(ServeError):
    """No handler for the requested path."""

    status = 404
    code = "not_found"


class MethodNotAllowed(ServeError):
    """The path exists but not under this HTTP verb."""

    status = 405
    code = "method_not_allowed"


class PayloadTooLarge(ServeError):
    """Request body above the configured bound."""

    status = 413
    code = "payload_too_large"


class Overloaded(ServeError):
    """Admission control shed the request: the inflight queue is full."""

    status = 429
    code = "overloaded"

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class QuotaExceeded(ServeError):
    """The tenant's token bucket cannot cover the request right now."""

    status = 429
    code = "quota_exceeded"

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class ServerDraining(ServeError):
    """The server received SIGTERM and is finishing in-flight work only."""

    status = 503
    code = "draining"


class DeadlineExceeded(ServeError):
    """The request's ``X-Deadline-Ms`` budget expired while it was queued."""

    status = 504
    code = "deadline_exceeded"


# ---------------------------------------------------------------------- #
# HTTP request/response plumbing
# ---------------------------------------------------------------------- #
@dataclass
class HttpRequest:
    """One parsed HTTP/1.1 request."""

    method: str
    path: str
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> Dict[str, Any]:
        """The decoded JSON body (an empty body decodes to ``{}``)."""
        if not self.body:
            return {}
        try:
            payload = json.loads(self.body)
        except json.JSONDecodeError as exc:
            raise BadRequest(f"request body is not valid JSON: {exc}") from exc
        except RecursionError as exc:
            raise BadRequest("request body nests JSON too deeply") from exc
        if not isinstance(payload, dict):
            raise BadRequest("request body must be a JSON object")
        return payload

    @property
    def tenant(self) -> str:
        """The quota bucket this request draws from: ``X-Tenant``, sanitized
        like ``X-Request-Id``, or ``anonymous`` when that leaves nothing."""
        return _sanitize_token(self.headers.get(TENANT_HEADER)) or DEFAULT_TENANT

    @property
    def deadline_seconds(self) -> Optional[float]:
        """The request's queueing budget in seconds, if the header is set."""
        raw = self.headers.get(DEADLINE_HEADER)
        if raw is None:
            return None
        try:
            millis = float(raw)
        except ValueError as exc:
            raise BadRequest(f"{DEADLINE_HEADER} must be a number, got {raw!r}") from exc
        if not math.isfinite(millis) or millis <= 0:  # ``nan <= 0`` is false
            raise BadRequest(f"{DEADLINE_HEADER} must be positive and finite, got {raw!r}")
        return millis / 1000.0

    @property
    def request_id(self) -> Optional[str]:
        """The caller's ``X-Request-Id``, sanitized, or ``None``."""
        return _sanitize_token(self.headers.get(REQUEST_ID_HEADER))

    @property
    def trace_id(self) -> Optional[str]:
        """The caller's ``X-Trace-Id``, sanitized, or ``None``."""
        return _sanitize_token(self.headers.get(TRACE_ID_HEADER))

    @property
    def wants_close(self) -> bool:
        """True when the client asked to drop the connection after this request."""
        return self.headers.get("connection", "").lower() == "close"


def render_response(
    status: int,
    body: bytes,
    content_type: str = "application/json",
    extra_headers: Optional[Mapping[str, str]] = None,
    close: bool = False,
) -> bytes:
    """Serialize one HTTP/1.1 response (status line, headers, body)."""
    reason = REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'close' if close else 'keep-alive'}",
    ]
    if extra_headers:
        lines.extend(f"{name}: {value}" for name, value in extra_headers.items())
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + body


def json_response(
    status: int,
    payload: Mapping[str, Any],
    extra_headers: Optional[Mapping[str, str]] = None,
    close: bool = False,
) -> bytes:
    """Serialize a JSON response body (non-JSON values fall back to ``str``)."""
    body = json.dumps(payload, sort_keys=True, default=str).encode("utf-8")
    return render_response(status, body, extra_headers=extra_headers, close=close)


def error_response(error: ServeError, close: bool = False) -> bytes:
    """The response bytes for a :class:`ServeError`."""
    headers: Dict[str, str] = {}
    if error.retry_after is not None:
        # Retry-After is integer seconds in HTTP; never round a positive
        # backoff down to "retry immediately".
        headers["Retry-After"] = str(max(1, int(round(error.retry_after))))
    return json_response(error.status, error.payload(), extra_headers=headers, close=close)


#: Final frame of a chunked-transfer stream (zero-length chunk).
STREAM_TERMINATOR = b"0\r\n\r\n"


def stream_response_head(
    status: int = 200,
    content_type: str = "application/x-ndjson",
    extra_headers: Optional[Mapping[str, str]] = None,
    close: bool = False,
) -> bytes:
    """The header block of a chunked-transfer response (no body yet).

    Streamed ``/place_batch`` responses flush one JSON line per shard
    sub-batch as it lands; chunked transfer encoding is self-delimiting,
    so keep-alive connections survive a streamed response.
    """
    reason = REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        "Transfer-Encoding: chunked",
        f"Connection: {'close' if close else 'keep-alive'}",
    ]
    if extra_headers:
        lines.extend(f"{name}: {value}" for name, value in extra_headers.items())
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")


def encode_chunk(payload: Mapping[str, Any]) -> bytes:
    """One JSON line framed as an HTTP chunk."""
    data = json.dumps(payload, sort_keys=True, default=str).encode("utf-8") + b"\n"
    return f"{len(data):x}\r\n".encode("ascii") + data + b"\r\n"


def with_header(response: bytes, name: str, value: str) -> bytes:
    """Splice one header into already-rendered response bytes.

    Lets the server stamp ``X-Request-Id`` on every response — including
    error bodies rendered deep inside handlers — without threading the id
    through each renderer.  The header lands right after the status line.
    """
    newline = response.find(b"\r\n")
    if newline < 0:
        return response
    injected = f"\r\n{name}: {value}".encode("ascii")
    return response[:newline] + injected + response[newline:]


# ---------------------------------------------------------------------- #
# Payload decoding
# ---------------------------------------------------------------------- #
class CircuitResolver:
    """Turn a request's ``circuit`` field into a live :class:`Circuit`.

    Named benchmark circuits load once from
    :mod:`repro.benchcircuits`; full netlist dicts are rebuilt via
    :func:`~repro.core.serialization.circuit_from_dict` and cached by
    content digest, so repeated requests for the same netlist never pay
    deserialization twice.
    """

    def __init__(self, capacity: int = RESOLVED_CIRCUITS) -> None:
        self._by_name: Dict[str, Any] = {}
        self._by_digest: LRUCache[str, Any] = LRUCache(capacity)

    def resolve(self, payload: Mapping[str, Any]):
        spec = payload.get("circuit")
        if spec is None:
            raise BadRequest("request payload must carry a 'circuit' field")
        if isinstance(spec, str):
            return self._named(spec)
        if isinstance(spec, Mapping):
            return self._from_data(spec)
        raise BadRequest(
            "'circuit' must be a benchmark name or a serialized netlist object, "
            f"got {type(spec).__name__}"
        )

    def _named(self, name: str):
        circuit = self._by_name.get(name)
        if circuit is None:
            from repro.benchcircuits.library import benchmark_names, get_benchmark

            try:
                circuit = get_benchmark(name)
            except (KeyError, ValueError) as exc:
                raise BadRequest(
                    f"unknown benchmark circuit {name!r}; available: {benchmark_names()}"
                ) from exc
            self._by_name[name] = circuit
        return circuit

    def _from_data(self, data: Mapping[str, Any]):
        from repro.core.serialization import circuit_from_dict
        from repro.parallel.jobs import circuit_data_key

        try:
            digest = circuit_data_key(dict(data))
        except TypeError as exc:
            raise BadRequest(f"serialized circuit is not JSON-clean: {exc}") from exc
        circuit = self._by_digest.get(digest)
        if circuit is None:
            try:
                circuit = circuit_from_dict(dict(data))
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise BadRequest(f"invalid serialized circuit: {exc}") from exc
            self._by_digest.put(digest, circuit)
        return circuit


def parse_dims(raw: Any, num_blocks: int, field_name: str = "dims") -> Tuple[Dims, ...]:
    """Validate one dimension vector from a JSON payload."""
    if not isinstance(raw, Sequence) or isinstance(raw, (str, bytes)):
        raise BadRequest(f"'{field_name}' must be a list of [width, height] pairs")
    if len(raw) != num_blocks:
        raise BadRequest(
            f"'{field_name}' must have {num_blocks} entries (one per block), "
            f"got {len(raw)}"
        )
    dims: List[Dims] = []
    for index, pair in enumerate(raw):
        if (
            not isinstance(pair, Sequence)
            or isinstance(pair, (str, bytes))
            or len(pair) != 2
        ):
            raise BadRequest(f"'{field_name}[{index}]' must be a [width, height] pair")
        try:
            dims.append((int(pair[0]), int(pair[1])))
        except (OverflowError, TypeError, ValueError) as exc:
            raise BadRequest(f"'{field_name}[{index}]' must hold integers: {exc}") from exc
    return tuple(dims)


def parse_dims_batch(raw: Any, num_blocks: int) -> List[Tuple[Dims, ...]]:
    """Validate a batch of dimension vectors from a JSON payload."""
    if not isinstance(raw, Sequence) or isinstance(raw, (str, bytes)):
        raise BadRequest("'dims_batch' must be a list of dimension vectors")
    if not raw:
        raise BadRequest("'dims_batch' must not be empty")
    return [
        parse_dims(entry, num_blocks, field_name=f"dims_batch[{index}]")
        for index, entry in enumerate(raw)
    ]


def parse_queries(
    raw: Any, resolver: CircuitResolver
) -> List[Tuple[Any, Tuple[Dims, ...]]]:
    """Validate a mixed-circuit batch: ``[{"circuit": ..., "dims": ...}, ...]``.

    Each entry resolves its own circuit (names and serialized netlists are
    cached by the resolver, so repeated entries share one object), which
    is what lets one ``/place_batch`` call span shards.
    """
    if not isinstance(raw, Sequence) or isinstance(raw, (str, bytes)):
        raise BadRequest("'queries' must be a list of {circuit, dims} objects")
    if not raw:
        raise BadRequest("'queries' must not be empty")
    queries: List[Tuple[Any, Tuple[Dims, ...]]] = []
    for index, entry in enumerate(raw):
        if not isinstance(entry, Mapping):
            raise BadRequest(f"'queries[{index}]' must be a {{circuit, dims}} object")
        circuit = resolver.resolve(entry)
        queries.append(
            (
                circuit,
                parse_dims(
                    entry.get("dims"),
                    circuit.num_blocks,
                    field_name=f"queries[{index}].dims",
                ),
            )
        )
    return queries


def placement_payload(placement: Placement) -> Dict[str, Any]:
    """The JSON body describing one served placement."""
    return placement.as_dict()


def routed_payload(placement: Placement, layout) -> Dict[str, Any]:
    """The JSON body describing one served placement plus its routed layout."""
    payload = placement_payload(placement)
    payload["routing"] = dict(layout.stats())
    payload["net_wirelengths"] = {
        name: round(value, 3) for name, value in layout.net_wirelengths().items()
    }
    payload["failed_nets"] = list(layout.failed_nets)
    return payload
