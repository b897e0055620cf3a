"""End-to-end tests for the placement server over real sockets.

Every test runs a real :class:`PlacementServer` (via
:class:`ServerHarness`) and talks HTTP to it, so request parsing,
coalescing, admission, quota, deadline and drain behavior are exercised
exactly as a production client would see them.
"""

import http.client
import json
import re
import signal
import socket
import subprocess
import sys
import threading
from collections import Counter

import pytest

from repro.serve import ServerConfig, ServerHarness
from tests.serve.conftest import CHAIN_DIMS, make_service


@pytest.fixture
def harness(chain_payload):
    with ServerHarness(
        make_service(), ServerConfig(window_seconds=0.002, max_batch=16)
    ) as running:
        yield running


class TestEndpoints:
    def test_place_round_trip(self, harness, chain_payload):
        response = harness.client().place(chain_payload, CHAIN_DIMS)
        assert response.ok
        assert len(response.payload["rects"]) == 4
        assert response.payload["source"] in ("structure", "nearest", "fallback")

    def test_place_batch_reports_dedup(self, harness, chain_payload):
        response = harness.client().place_batch(chain_payload, [CHAIN_DIMS] * 5)
        assert response.ok
        assert len(response.payload["results"]) == 5
        assert response.payload["unique_queries"] == 1
        assert response.payload["duplicate_queries"] == 4

    def test_route_returns_routing_stats(self, harness, chain_payload):
        response = harness.client().route(chain_payload, CHAIN_DIMS)
        assert response.ok
        assert "routing" in response.payload
        assert "net_wirelengths" in response.payload
        assert response.payload["failed_nets"] == []

    def test_healthz(self, harness):
        response = harness.client().healthz()
        assert response.ok
        assert response.payload["status"] == "ok"
        assert response.payload["inflight"] == 0

    def test_metrics_exposition_merges_server_and_service(self, harness, chain_payload):
        client = harness.client()
        assert client.place(chain_payload, CHAIN_DIMS).ok
        response = client.metrics()
        assert response.ok
        assert "serve_requests" in response.payload
        assert "service_queries" in response.payload

    def test_keep_alive_serves_many_requests_per_connection(
        self, harness, chain_payload
    ):
        client = harness.client()
        for _ in range(5):
            assert client.place(chain_payload, CHAIN_DIMS).ok
        snapshot = harness.server.metrics.snapshot()
        assert snapshot["serve.requests"] == 5
        assert snapshot["serve.connections"] == 1


class TestCoalescing:
    def test_concurrent_places_coalesce_into_fewer_dispatches(
        self, harness, chain_payload
    ):
        # Warm the structure first so coalesced requests hit the fast path.
        harness.client().place(chain_payload, CHAIN_DIMS)
        barrier = threading.Barrier(8)
        statuses = []

        def fire():
            client = harness.client()
            barrier.wait()
            statuses.append(client.place(chain_payload, CHAIN_DIMS).status)

        threads = [threading.Thread(target=fire) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert statuses == [200] * 8
        snapshot = harness.server.metrics.snapshot()
        # 9 single-query requests answered by strictly fewer batch dispatches.
        assert snapshot["serve.coalesced_queries"] == 9
        assert snapshot["serve.dispatches"] < 9


class TestErrors:
    def test_unknown_path_is_404(self, harness):
        assert harness.client().request("GET", "/nope").status == 404

    def test_wrong_verb_is_405(self, harness):
        assert harness.client().request("POST", "/healthz").status == 405
        assert harness.client().request("GET", "/place").status == 405

    def test_malformed_json_is_400(self, harness):
        client = harness.client()
        response = client.request("POST", "/place")
        assert response.status == 400
        assert response.payload["error"] == "bad_request"

    def test_dims_mismatch_is_400(self, harness, chain_payload):
        response = harness.client().place(chain_payload, [[5, 5]])
        assert response.status == 400
        assert "4 entries" in response.payload["message"]

    def test_unknown_circuit_is_400(self, harness):
        response = harness.client().place("no_such_benchmark", CHAIN_DIMS)
        assert response.status == 400
        assert "unknown benchmark" in response.payload["message"]

    @pytest.mark.parametrize(
        "case",
        [
            "deeply_nested_json",
            "blocks_not_objects",
            "pins_a_list",
            "infinite_dims",
            "nan_deadline",
            "inf_deadline",
        ],
    )
    def test_malformed_input_is_400(self, harness, chain_payload, case):
        netlist, dims, headers = chain_payload, CHAIN_DIMS, {}
        if case == "blocks_not_objects":
            netlist = dict(chain_payload, blocks=[1, 2, 3, 4])
        elif case == "pins_a_list":
            blocks = [dict(block, pins=[]) for block in chain_payload["blocks"]]
            netlist = dict(chain_payload, blocks=blocks)
        elif case == "infinite_dims":
            dims = [[float("inf"), 5]] + CHAIN_DIMS[1:]
        elif case.endswith("_deadline"):
            headers["X-Deadline-Ms"] = case.split("_")[0]
        body = json.dumps({"circuit": netlist, "dims": dims}).encode()
        if case == "deeply_nested_json":
            body = b"[" * 100_000
        connection = http.client.HTTPConnection("127.0.0.1", harness.port, timeout=30)
        try:
            connection.request("POST", "/place", body=body, headers=headers)
            response = connection.getresponse()
            payload = json.loads(response.read())
        finally:
            connection.close()
        assert response.status == 400, payload
        assert payload["error"] == "bad_request"

    @pytest.mark.parametrize("framing", ["chunked", "conflicting_length"])
    def test_unhonoured_framing_is_one_400_then_close(self, harness, chain_payload, framing):
        body = json.dumps({"circuit": chain_payload, "dims": CHAIN_DIMS}).encode()
        if framing == "chunked":
            framing_headers = b"Transfer-Encoding: chunked\r\n"
            body = b"%x\r\n%s\r\n0\r\n\r\n" % (len(body), body)
            named = "Transfer-Encoding"
        else:
            framing_headers = b"Content-Length: 0\r\nContent-Length: %d\r\n" % len(body)
            named = "Content-Length"
        request = (
            b"POST /place HTTP/1.1\r\nHost: localhost\r\n"
            b"Content-Type: application/json\r\n" + framing_headers + b"\r\n" + body
        )
        received = b""
        with socket.create_connection(("127.0.0.1", harness.port), timeout=30) as sock:
            sock.sendall(request)
            while True:  # the server closes the connection after its answer
                try:
                    chunk = sock.recv(65536)
                except ConnectionResetError:
                    break
                if not chunk:
                    break
                received += chunk
        head, _, payload = received.partition(b"\r\n\r\n")
        assert received.count(b"HTTP/1.1 ") == 1, received
        assert head.startswith(b"HTTP/1.1 400 "), received
        assert b"connection: close" in head.lower()
        message = json.loads(payload)["message"]
        assert named in message, message

    def test_oversized_body_is_413(self, chain_payload):
        config = ServerConfig(max_body_bytes=256)
        with ServerHarness(make_service(), config) as harness:
            response = harness.client().place(chain_payload, CHAIN_DIMS)
            assert response.status == 413


class TestBackpressure:
    def test_overload_sheds_with_429_and_never_hangs(self, chain_payload):
        config = ServerConfig(
            window_seconds=0.05, max_batch=4, max_inflight=2
        )
        with ServerHarness(make_service(), config) as harness:
            harness.client().place(chain_payload, CHAIN_DIMS)  # warm
            results = []

            def fire():
                response = harness.client().place(chain_payload, CHAIN_DIMS)
                results.append((response.status, response.retry_after))

            threads = [threading.Thread(target=fire) for _ in range(12)]
            for thread in threads:
                thread.start()
            for thread in threads:
                # A shed must answer promptly, not park the client.
                thread.join(timeout=30.0)
                assert not thread.is_alive()
            statuses = Counter(status for status, _ in results)
            assert set(statuses) == {200, 429}
            assert statuses[429] >= 1
            for status, retry_after in results:
                if status == 429:
                    assert retry_after is not None and retry_after >= 1

    def test_tenant_quota_throttles_only_that_tenant(self, chain_payload):
        config = ServerConfig(
            window_seconds=0.001, quota_rate=0.001, quota_burst=2.0
        )
        with ServerHarness(make_service(), config) as harness:
            alice = harness.client(tenant="alice")
            codes = [alice.place(chain_payload, CHAIN_DIMS).status for _ in range(4)]
            assert codes == [200, 200, 429, 429]
            throttled = alice.place(chain_payload, CHAIN_DIMS)
            assert throttled.payload["error"] == "quota_exceeded"
            bob = harness.client(tenant="bob")
            assert bob.place(chain_payload, CHAIN_DIMS).ok

    def test_expired_deadline_is_504(self, chain_payload):
        config = ServerConfig(window_seconds=0.25, max_batch=64)
        with ServerHarness(make_service(), config) as harness:
            client = harness.client()
            client.place(chain_payload, CHAIN_DIMS)  # warm
            # A fraction of the coalesce window: expires while queued.
            response = client.place(chain_payload, CHAIN_DIMS, deadline_ms=0.01)
            assert response.status == 504
            assert response.payload["error"] == "deadline_exceeded"


class TestDrain:
    def test_draining_server_answers_503(self, harness, chain_payload):
        client = harness.client()
        assert client.place(chain_payload, CHAIN_DIMS).ok
        harness.drain()
        response = client.place(chain_payload, CHAIN_DIMS)
        assert response.status == 503
        assert response.payload["error"] == "draining"

    def test_drain_loses_no_accepted_request(self, chain_payload):
        config = ServerConfig(window_seconds=0.01, max_batch=8)
        harness = ServerHarness(make_service(), config).start()
        harness.client().place(chain_payload, CHAIN_DIMS)  # warm
        statuses = []
        stop = threading.Event()

        def hammer():
            client = harness.client()
            while not stop.is_set():
                try:
                    response = client.place(chain_payload, CHAIN_DIMS)
                except OSError:
                    break  # connection refused after the listener closed
                statuses.append(response.status)
                if response.status == 503:
                    break

        threads = [threading.Thread(target=hammer) for _ in range(6)]
        for thread in threads:
            thread.start()
        # Drain while traffic is in flight.
        import time

        time.sleep(0.15)
        harness.drain()
        stop.set()
        for thread in threads:
            thread.join(timeout=30.0)
            assert not thread.is_alive()
        harness.stop()
        counts = Counter(statuses)
        # Zero-loss: every accepted request answered 200; the rest saw a
        # clean 503, never an error or a hang.
        assert set(counts) <= {200, 503}
        assert counts[200] >= 1


class TestCli:
    def test_cli_serves_and_drains_on_sigterm(self, chain_payload):
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.serve",
                "--port",
                "0",
                "--window-ms",
                "2",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            banner = proc.stdout.readline()
            match = re.search(r"listening on http://([\d.]+):(\d+)", banner)
            assert match, f"unexpected banner: {banner!r}"
            import http.client

            connection = http.client.HTTPConnection(
                match.group(1), int(match.group(2)), timeout=60
            )
            connection.request(
                "POST",
                "/place",
                body=json.dumps({"circuit": chain_payload, "dims": CHAIN_DIMS}),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 200
            response.read()
            connection.close()
            proc.send_signal(signal.SIGTERM)
            output, _ = proc.communicate(timeout=60)
            assert proc.returncode == 0
            assert "placement server drained cleanly" in output
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup on failure
                proc.kill()
                proc.communicate(timeout=10)
