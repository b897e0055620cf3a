"""Tests for the serve wire protocol: parsing, errors, circuit resolution."""

import json

import pytest

from repro.serve.protocol import (
    BadRequest,
    CircuitResolver,
    DeadlineExceeded,
    HttpRequest,
    Overloaded,
    QuotaExceeded,
    ServeError,
    ServerDraining,
    error_response,
    json_response,
    mint_request_id,
    parse_dims,
    parse_dims_batch,
    render_response,
    with_header,
)
from tests.conftest import build_chain_circuit


def make_request(headers=None, body=b""):
    return HttpRequest(method="POST", path="/place", headers=headers or {}, body=body)


class TestHttpRequest:
    def test_empty_body_decodes_to_empty_object(self):
        assert make_request().json() == {}

    def test_json_body_round_trips(self):
        request = make_request(body=json.dumps({"dims": [[1, 2]]}).encode())
        assert request.json() == {"dims": [[1, 2]]}

    def test_invalid_json_raises_bad_request(self):
        with pytest.raises(BadRequest, match="not valid JSON"):
            make_request(body=b"{nope").json()

    def test_non_object_body_raises_bad_request(self):
        with pytest.raises(BadRequest, match="JSON object"):
            make_request(body=b"[1, 2]").json()

    def test_tenant_defaults_to_anonymous(self):
        assert make_request().tenant == "anonymous"
        assert make_request(headers={"x-tenant": "  "}).tenant == "anonymous"
        assert make_request(headers={"x-tenant": " alice "}).tenant == "alice"
        # Clamped like the correlation ids: a 16 KB header names a
        # 64-character tenant, not a 16 KB quota-table key.
        huge = make_request(headers={"x-tenant": "t" * 16_000}).tenant
        assert huge == "t" * 64

    def test_deadline_header_parses_to_seconds(self):
        assert make_request().deadline_seconds is None
        request = make_request(headers={"x-deadline-ms": "250"})
        assert request.deadline_seconds == pytest.approx(0.25)

    @pytest.mark.parametrize("raw", ["abc", "0", "-5"])
    def test_bad_deadline_raises_bad_request(self, raw):
        with pytest.raises(BadRequest):
            make_request(headers={"x-deadline-ms": raw}).deadline_seconds

    def test_wants_close_reads_connection_header(self):
        assert not make_request().wants_close
        assert make_request(headers={"connection": "Close"}).wants_close


class TestCorrelationHeaders:
    def test_request_and_trace_ids_default_to_none(self):
        request = make_request()
        assert request.request_id is None
        assert request.trace_id is None

    def test_ids_pass_through_when_clean(self):
        request = make_request(
            headers={"x-request-id": "req-42.a_b", "x-trace-id": "trace7"}
        )
        assert request.request_id == "req-42.a_b"
        assert request.trace_id == "trace7"

    def test_hostile_characters_are_stripped(self):
        # Header values end up in logs and response headers: no CR/LF or
        # exotic bytes may survive sanitization.
        request = make_request(
            headers={"x-request-id": "evil\r\nSet-Cookie: x=1", "x-trace-id": "  t 1  "}
        )
        assert "\r" not in request.request_id
        assert "\n" not in request.request_id
        assert request.request_id == "evilSet-Cookiex1"
        assert request.trace_id == "t1"

    def test_overlong_ids_are_clamped(self):
        request = make_request(headers={"x-request-id": "a" * 500})
        assert len(request.request_id) == 64

    def test_all_garbage_id_becomes_none(self):
        assert make_request(headers={"x-request-id": "///"}).request_id is None

    def test_minted_ids_are_unique_and_clean(self):
        first, second = mint_request_id(), mint_request_id()
        assert first != second
        assert all(ch.isalnum() for ch in first)


class TestWithHeader:
    def test_injects_after_the_status_line(self):
        raw = with_header(render_response(200, b"{}"), "X-Request-Id", "r1")
        head, _, body = raw.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        assert lines[0] == b"HTTP/1.1 200 OK"
        assert lines[1] == b"X-Request-Id: r1"
        assert body == b"{}"

    def test_body_and_content_length_are_untouched(self):
        original = json_response(200, {"a": 1})
        stamped = with_header(original, "X-Request-Id", "r2")
        assert stamped.partition(b"\r\n\r\n")[2] == original.partition(b"\r\n\r\n")[2]
        assert b"Content-Length: " in stamped

    def test_headerless_bytes_pass_through(self):
        assert with_header(b"garbage", "X", "y") == b"garbage"


class TestResponses:
    def test_render_response_shape(self):
        raw = render_response(200, b'{"a": 1}')
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"Content-Length: 8" in head
        assert b"Connection: keep-alive" in head
        assert body == b'{"a": 1}'

    def test_close_flag_sets_connection_close(self):
        assert b"Connection: close" in render_response(200, b"", close=True)

    def test_json_response_serializes_deterministically(self):
        raw = json_response(200, {"b": 2, "a": 1})
        body = raw.partition(b"\r\n\r\n")[2]
        assert body == b'{"a": 1, "b": 2}'

    def test_error_response_carries_retry_after_header(self):
        raw = error_response(Overloaded("full", retry_after=2.4))
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 429 Too Many Requests")
        assert b"Retry-After: 2" in head
        payload = json.loads(body)
        assert payload["error"] == "overloaded"
        assert payload["retry_after_seconds"] == pytest.approx(2.4)

    def test_retry_after_never_rounds_to_zero(self):
        raw = error_response(QuotaExceeded("slow down", retry_after=0.05))
        assert b"Retry-After: 1\r\n" in raw

    @pytest.mark.parametrize(
        "error, status",
        [
            (BadRequest("x"), 400),
            (Overloaded("x", retry_after=1.0), 429),
            (QuotaExceeded("x", retry_after=1.0), 429),
            (ServerDraining("x"), 503),
            (DeadlineExceeded("x"), 504),
            (ServeError("x"), 500),
        ],
    )
    def test_status_codes(self, error, status):
        assert error.status == status
        assert error_response(error).startswith(f"HTTP/1.1 {status} ".encode())


class TestParseDims:
    def test_valid_dims_coerce_to_int_tuples(self):
        assert parse_dims([[4, 5], (6.0, 7)], 2) == ((4, 5), (6, 7))

    def test_rejects_non_list(self):
        with pytest.raises(BadRequest, match="list of"):
            parse_dims("nope", 2)

    def test_rejects_wrong_block_count(self):
        with pytest.raises(BadRequest, match="2 entries"):
            parse_dims([[4, 5]], 2)

    def test_rejects_malformed_pair(self):
        with pytest.raises(BadRequest, match=r"dims\[1\]"):
            parse_dims([[4, 5], [4]], 2)

    def test_rejects_non_integer_pair(self):
        with pytest.raises(BadRequest, match="integers"):
            parse_dims([[4, 5], ["a", "b"]], 2)

    def test_batch_validates_each_vector(self):
        batch = parse_dims_batch([[[4, 5], [6, 7]]], 2)
        assert batch == [((4, 5), (6, 7))]
        with pytest.raises(BadRequest, match="must not be empty"):
            parse_dims_batch([], 2)
        with pytest.raises(BadRequest, match=r"dims_batch\[0\]"):
            parse_dims_batch([[[4, 5]]], 2)


class TestCircuitResolver:
    def test_missing_circuit_field(self):
        with pytest.raises(BadRequest, match="'circuit' field"):
            CircuitResolver().resolve({})

    def test_wrong_circuit_type(self):
        with pytest.raises(BadRequest, match="benchmark name or a serialized"):
            CircuitResolver().resolve({"circuit": 42})

    def test_named_benchmark_loads_once(self):
        resolver = CircuitResolver()
        first = resolver.resolve({"circuit": "two_stage_opamp"})
        second = resolver.resolve({"circuit": "two_stage_opamp"})
        assert first is second
        assert first.name == "two_stage_opamp"

    def test_unknown_benchmark_lists_alternatives(self):
        with pytest.raises(BadRequest, match="unknown benchmark"):
            CircuitResolver().resolve({"circuit": "no_such_circuit"})

    def test_serialized_circuit_caches_by_digest(self, chain_payload):
        resolver = CircuitResolver()
        first = resolver.resolve({"circuit": chain_payload})
        second = resolver.resolve({"circuit": dict(chain_payload)})
        assert first is second
        assert first.num_blocks == build_chain_circuit().num_blocks

    def test_invalid_serialized_circuit(self):
        with pytest.raises(BadRequest, match="invalid serialized circuit"):
            CircuitResolver().resolve({"circuit": {"not": "a netlist"}})
