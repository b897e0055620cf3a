"""Request-scoped tracing, the debug plane, SLO burn, and the flight ring.

The acceptance spine of the observability plane: one traced request
through a real :class:`ServerHarness` must yield one *connected* span
tree — HTTP request → coalesced dispatch → ``instantiate_batch`` →
worker-side placement spans — and the ``/debug/*`` endpoints must report
the sampler, SLO burn, and metrics that traffic produced.
"""

import json
import threading

import pytest

from repro import obs
from repro.core.serialization import circuit_to_dict
from repro.parallel.sharding import open_registry
from repro.serve import ServerConfig, ServerHarness
from repro.service.engine import PlacementService
from tests.conftest import build_chain_circuit
from tests.serve.conftest import CHAIN_DIMS, SMOKE, make_service


@pytest.fixture(autouse=True)
def clean_obs():
    """Every test starts and ends with a pristine obs substrate."""
    obs.reset()
    yield
    obs.reset()


@pytest.fixture
def chain_data():
    return circuit_to_dict(build_chain_circuit())


def run_harness(config=None, service=None, requests=None, **client_kwargs):
    """Start a harness, fire ``requests(client)``, return its result."""
    with ServerHarness(service or make_service(), config or ServerConfig()) as harness:
        client = harness.client(**client_kwargs)
        return requests(client) if requests is not None else None


def spans_by_id(records):
    return {record["span_id"]: record for record in records}


class TestRequestSpans:
    def test_request_id_is_minted_and_echoed(self):
        def go(client):
            return client.healthz()

        response = run_harness(requests=go)
        assert response.ok
        assert response.request_id  # minted server-side even untraced

    def test_caller_request_id_is_echoed_back(self):
        def go(client):
            return client.request("GET", "/healthz", request_id="my-req-1")

        assert run_harness(requests=go).request_id == "my-req-1"

    def test_error_responses_carry_the_request_id_too(self):
        def go(client):
            return client.request("POST", "/place", {"circuit": "nope"},
                                  request_id="bad-1")

        response = run_harness(requests=go)
        assert response.status == 400
        assert response.request_id == "bad-1"

    def test_caller_trace_id_roots_the_server_trace(self, chain_data):
        obs.configure(enabled=True)

        def go(client):
            return client.request(
                "POST",
                "/place",
                {"circuit": chain_data, "dims": CHAIN_DIMS},
                trace_id="caller-trace-1",
            )

        assert run_harness(requests=go).ok
        records = obs.spans_snapshot("caller-trace-1")
        names = {record["name"] for record in records}
        assert "serve.request" in names
        assert "serve.dispatch" in names

    def test_untraced_requests_produce_no_spans(self, chain_data):
        def go(client):
            return client.request(
                "POST", "/place", {"circuit": chain_data, "dims": CHAIN_DIMS}
            )

        assert run_harness(requests=go).ok
        assert obs.spans_snapshot() == []


class TestConnectedSpanTree:
    def test_traced_place_yields_one_connected_tree(self, chain_data):
        obs.configure(enabled=True)

        def go(client):
            return client.request(
                "POST",
                "/place",
                {"circuit": chain_data, "dims": CHAIN_DIMS},
                trace_id="accept-1",
            )

        assert run_harness(requests=go).ok
        records = obs.spans_snapshot("accept-1")
        by_id = spans_by_id(records)
        roots = [record for record in records if record["parent_id"] is None]
        assert [record["name"] for record in roots] == ["serve.request"]
        # Fully connected: every non-root span's parent is in the trace.
        for record in records:
            if record["parent_id"] is not None:
                assert record["parent_id"] in by_id, record["name"]
        names = {record["name"] for record in records}
        assert {"serve.request", "serve.dispatch", "service.instantiate_batch"} <= names

    def test_traced_request_connects_through_worker_processes(self, tmp_path, chain_data):
        """The acceptance tree: request → batch window → instantiate_batch
        → worker-side placement spans, one trace, fully connected."""
        obs.configure(enabled=True)
        registry = open_registry(tmp_path / "registry", sharded=True)
        service = PlacementService(registry, default_config=SMOKE)
        config = ServerConfig(service_workers=2, window_seconds=0.02, max_batch=8)

        def go(client):
            return client.request(
                "POST",
                "/place_batch",
                {"circuit": chain_data, "dims_batch": [CHAIN_DIMS] * 8},
                trace_id="accept-workers",
            )

        response = run_harness(config=config, service=service, requests=go)
        assert response.ok
        records = obs.spans_snapshot("accept-workers")
        by_id = spans_by_id(records)
        roots = [record for record in records if record["parent_id"] is None]
        assert [record["name"] for record in roots] == ["serve.request"]
        for record in records:
            if record["parent_id"] is not None:
                assert record["parent_id"] in by_id, record["name"]
        names = {record["name"] for record in records}
        assert "service.instantiate_batch" in names
        assert any(name.startswith("worker.") for name in names)

    def test_batch_span_links_every_coalesced_request_trace(self, chain_data):
        obs.configure(enabled=True)
        # A wide window coalesces the pilot's requests into one batch.
        config = ServerConfig(window_seconds=0.05, max_batch=16)

        def fire(harness, trace_id, results):
            client = harness.client()
            results[trace_id] = client.request(
                "POST",
                "/place",
                {"circuit": chain_data, "dims": CHAIN_DIMS},
                trace_id=trace_id,
            )
            client.close()

        with ServerHarness(make_service(), config) as harness:
            results = {}
            trace_ids = [f"ride{i}" for i in range(3)]
            threads = [
                threading.Thread(target=fire, args=(harness, tid, results))
                for tid in trace_ids
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert all(results[tid].ok for tid in trace_ids)
        dispatches = [
            record
            for record in obs.spans_snapshot()
            if record["name"] == "serve.dispatch"
        ]
        assert dispatches
        linked = set()
        for record in dispatches:
            linked.update(record["attrs"].get("links", "").split(","))
            assert record["attrs"].get("batch_id")
        # Every rider's trace is named by some batch's links attribute.
        assert set(trace_ids) <= linked


class TestDebugEndpoints:
    def test_statusz_reports_uptime_config_and_subsystems(self):
        def go(client):
            client.healthz()
            return client.statusz()

        response = run_harness(requests=go)
        assert response.ok
        payload = response.payload
        assert payload["status"] == "ok"
        assert payload["uptime_seconds"] >= 0.0
        assert payload["config"]["max_inflight"] == 256
        assert {"availability", "latency"} == {o["name"] for o in payload["slo"]}
        assert "admission" in payload and "quotas" in payload
        assert payload["tracing"]["enabled"] is False

    def test_statusz_burn_rate_is_correct_under_slow_load(self, chain_data):
        """Acceptance: an impossible latency threshold makes every request
        slow, and statusz must report burn = (bad/total)/(1 - target)."""
        config = ServerConfig(
            slo_latency_target=0.9, slo_latency_threshold_seconds=1e-9
        )

        def go(client):
            for _ in range(10):
                assert client.request(
                    "POST", "/place", {"circuit": chain_data, "dims": CHAIN_DIMS}
                ).ok
            return client.statusz()

        payload = run_harness(config=config, requests=go).payload
        latency = next(o for o in payload["slo"] if o["name"] == "latency")
        assert latency["total"] == 10
        assert latency["good"] == 0
        # All 10 requests breached a 0.9 target: burn = 1.0 / 0.1 = 10x.
        assert latency["burn_rate"] == pytest.approx(10.0)
        availability = next(o for o in payload["slo"] if o["name"] == "availability")
        assert availability["burn_rate"] == pytest.approx(0.0)

    def test_tracez_serves_sampled_trace_summaries(self, chain_data):
        obs.configure(enabled=True)
        config = ServerConfig(trace_min_samples=2)

        def go(client):
            client.request(
                "POST", "/place", {"circuit": "nope", "dims": CHAIN_DIMS}
            )  # 400 -> not an error keep (client fault), but sealed
            client.request(
                "POST",
                "/place",
                {"circuit": chain_data, "dims": CHAIN_DIMS},
                deadline_ms=0.0001,
            )  # expires in the coalesce queue -> 504 -> kept
            return client.tracez()

        response = run_harness(config=config, requests=go)
        assert response.ok
        summaries = response.payload["traces"]
        assert response.payload["sampler"]["sealed"] >= 2
        kept_categories = {entry["category"] for entry in summaries}
        assert "error" in kept_categories

    def test_tracez_single_trace_lookup_and_chrome_rendering(self, chain_data):
        obs.configure(enabled=True)
        config = ServerConfig(trace_min_samples=1)

        def go(client):
            client.request(
                "POST",
                "/place",
                {"circuit": chain_data, "dims": CHAIN_DIMS},
                trace_id="lookup-1",
                deadline_ms=0.0001,  # 504: guaranteed keep
            )
            spans = client.tracez(trace_id="lookup-1")
            chrome = client.tracez(trace_id="lookup-1", fmt="chrome")
            missing = client.tracez(trace_id="never-kept")
            return spans, chrome, missing

        spans, chrome, missing = run_harness(config=config, requests=go)
        assert spans.ok
        assert {record["trace_id"] for record in spans.payload["spans"]} == {"lookup-1"}
        assert chrome.ok
        events = chrome.payload["traceEvents"]
        assert any(event.get("ph") == "X" for event in events)
        assert missing.status == 404

    def test_debug_vars_returns_metric_snapshots(self, chain_data):
        def go(client):
            client.request(
                "POST", "/place", {"circuit": chain_data, "dims": CHAIN_DIMS}
            )
            return client.debug_vars()

        response = run_harness(requests=go)
        assert response.ok
        assert response.payload["serve"]["serve.requests"] >= 1
        assert "service" in response.payload

    def test_traced_metrics_name_each_family_once(self, chain_data):
        # The text format allows one TYPE line per metric name, so the
        # registries /metrics renders must not share a name.
        from dataclasses import fields

        from repro.service.engine import ServiceStats

        obs.configure(enabled=True)

        def go(client):
            assert client.request(
                "POST", "/place", {"circuit": chain_data, "dims": CHAIN_DIMS}
            ).ok
            assert client.route(chain_data, CHAIN_DIMS).ok
            return client.metrics()

        response = run_harness(requests=go)
        assert response.ok
        families = [
            line.split()[2]
            for line in response.payload.splitlines()
            if line.startswith("# TYPE ")
        ]
        repeated = sorted({name for name in families if families.count(name) > 1})
        assert repeated == []
        counters = [item.name for item in fields(ServiceStats)]
        assert len(counters) == 18
        for name in counters:
            assert families.count(f"service_{name}") == 1, name

    def test_debug_endpoints_reject_post(self):
        def go(client):
            return client.request("POST", "/debug/statusz", {})

        assert run_harness(requests=go).status == 405


class TestAccessLogAndFlight:
    def test_access_log_lines_carry_the_request_schema(self, tmp_path, chain_data):
        log_path = tmp_path / "access.jsonl"
        config = ServerConfig(access_log_path=str(log_path))

        def go(client):
            assert client.request(
                "POST",
                "/place",
                {"circuit": chain_data, "dims": CHAIN_DIMS},
                request_id="logged-1",
            ).ok
            client.request("POST", "/place", {"circuit": "nope"})

        run_harness(config=config, requests=go, tenant="acme")
        lines = [json.loads(line) for line in log_path.read_text().splitlines()]
        assert len(lines) == 2
        ok_line = next(line for line in lines if line["status"] == 200)
        assert ok_line["request_id"] == "logged-1"
        assert ok_line["tenant"] == "acme"
        assert ok_line["route"] == "/place"
        assert ok_line["outcome"] == "ok"
        assert ok_line["latency_seconds"] > 0.0
        assert ok_line["batch_id"]  # the coalesced batch this request rode
        assert ok_line["cost"] == 1
        bad_line = next(line for line in lines if line["status"] == 400)
        assert bad_line["outcome"] == "bad_request"
        assert bad_line["batch_id"] is None

    def test_flight_ring_dumps_on_drain(self, tmp_path, chain_data):
        dump_path = tmp_path / "flight.jsonl"
        config = ServerConfig(flight_dump_path=str(dump_path), flight_records=4)

        with ServerHarness(make_service(), config) as harness:
            client = harness.client()
            for index in range(6):
                client.request(
                    "POST",
                    "/place",
                    {"circuit": chain_data, "dims": CHAIN_DIMS},
                    request_id=f"fl{index}",
                )
            assert not dump_path.exists()  # only dumped at drain / on 500s
        lines = [json.loads(line) for line in dump_path.read_text().splitlines()]
        # Ring of 4: only the last four requests survive.
        assert [line["request_id"] for line in lines] == ["fl2", "fl3", "fl4", "fl5"]

    def test_repeated_harness_sessions_do_not_leak_trace_taps(self, chain_data):
        obs.configure(enabled=True)

        def one_request(client):
            return client.request(
                "POST", "/place", {"circuit": chain_data, "dims": CHAIN_DIMS}
            )

        config = ServerConfig(trace_min_samples=1)
        with ServerHarness(make_service(), config) as harness:
            assert one_request(harness.client()).ok
            first_server = harness.server
        sealed_after_session_one = first_server._traces.stats()["sealed"]
        assert sealed_after_session_one >= 1
        with ServerHarness(make_service(), config) as harness:
            assert one_request(harness.client()).ok
        # Session two's spans never reached session one's sampler.
        assert first_server._traces.stats()["sealed"] == sealed_after_session_one


class TestTracingStaysCheap:
    def test_rng_trajectories_identical_with_tracing_on(self, chain_data):
        """Golden determinism: the placement a traced server returns is
        bit-identical to the untraced one."""

        def go(client):
            return client.request(
                "POST", "/place", {"circuit": chain_data, "dims": CHAIN_DIMS}
            )

        untraced = run_harness(requests=go)
        obs.reset()
        obs.configure(enabled=True)
        traced = run_harness(requests=go)
        assert untraced.ok and traced.ok
        assert untraced.payload["rects"] == traced.payload["rects"]
        assert untraced.payload["total_cost"] == traced.payload["total_cost"]
