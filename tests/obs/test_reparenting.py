"""Worker-pool span re-parenting: one coordinator trace across N processes."""

import json
import os

import pytest

from repro import obs
from repro.core.generator import GeneratorConfig
from repro.parallel.sharding import open_registry
from repro.service.engine import PlacementService
from tests.conftest import build_chain_circuit

SMOKE = GeneratorConfig.smoke(seed=7)


def make_queries(n, unique=4):
    vectors = [[(4 + i % 9, 4 + (i * 3) % 9)] * 4 for i in range(unique)]
    return [vectors[i % unique] for i in range(n)]


@pytest.fixture
def service(tmp_path):
    registry = open_registry(tmp_path / "registry", sharded=True)
    service = PlacementService(registry, default_config=SMOKE)
    yield service
    service.close()


def _trace_tree(records):
    """Group the records of the (single) trace and index them by span id."""
    roots = [record for record in records if record["parent_id"] is None]
    assert len(roots) == 1, f"expected one root, got {[r['name'] for r in roots]}"
    root = roots[0]
    members = [record for record in records if record["trace_id"] == root["trace_id"]]
    return root, members, {record["span_id"]: record for record in members}


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_batch_spans_form_one_connected_trace(service, workers):
    obs.configure(enabled=True)
    circuit = build_chain_circuit()
    service.instantiate_batch(circuit, make_queries(16), workers=workers)
    root, members, by_id = _trace_tree(obs.spans_snapshot())
    assert root["name"] == "service.instantiate_batch"
    # Every span — including any produced inside worker processes — links
    # back to a span of the same trace: the tree is fully connected.
    for record in members:
        if record["parent_id"] is not None:
            assert record["parent_id"] in by_id, record["name"]
    names = {record["name"] for record in members}
    if workers > 1:
        # Only the real process fan-out goes through the pool; workers=1
        # serves the batch on the coordinator's thread path.
        assert "pool.dispatch" in names
        assert any(name.startswith("worker.") for name in names)
    assert "registry.fetch" in names


def test_multi_worker_spans_come_from_other_pids(service):
    obs.configure(enabled=True)
    circuit = build_chain_circuit()
    service.instantiate_batch(circuit, make_queries(16), workers=2)
    _, members, by_id = _trace_tree(obs.spans_snapshot())
    worker_jobs = [record for record in members if record["name"] == "worker.job"]
    assert worker_jobs, "pool path should have produced worker.job spans"
    assert all(record["pid"] != os.getpid() for record in worker_jobs)
    # Each worker job is parented under the coordinator span that carried
    # the trace context into the job spec.
    for record in worker_jobs:
        parent = by_id[record["parent_id"]]
        assert parent["pid"] == os.getpid()


def test_single_worker_runs_inline_without_foreign_pids(service):
    obs.configure(enabled=True)
    circuit = build_chain_circuit()
    service.instantiate_batch(circuit, make_queries(16), workers=1)
    _, members, _ = _trace_tree(obs.spans_snapshot())
    assert all(record["pid"] == os.getpid() for record in members)


def test_four_worker_chrome_trace_is_valid_and_reparented(service, tmp_path):
    obs.configure(enabled=True)
    circuit = build_chain_circuit()
    service.instantiate_batch(circuit, make_queries(16), workers=4)
    root, _, _ = _trace_tree(obs.spans_snapshot())
    path = obs.export_chrome_trace(tmp_path / "trace.json", trace_id=root["trace_id"])
    payload = json.loads(path.read_text())
    events = [event for event in payload["traceEvents"] if event["ph"] == "X"]
    assert events
    worker_events = [event for event in events if event["pid"] != os.getpid()]
    assert worker_events, "4-worker batch must contribute worker-process events"
    span_ids = {event["args"]["span_id"] for event in events}
    for event in worker_events:
        assert event["args"]["trace_id"] == root["trace_id"]
        assert event["args"]["parent_id"] in span_ids
    lanes = {event["args"]["name"] for event in payload["traceEvents"] if event["ph"] == "M"}
    assert any(name.startswith("coordinator") for name in lanes)
    assert any(name.startswith("worker") for name in lanes)


def test_route_batch_spans_reparent_across_pool(service):
    obs.configure(enabled=True)
    circuit = build_chain_circuit()
    with obs.span("test.route_root"):
        service.route_batch(circuit, make_queries(8), workers=2)
    roots = [r for r in obs.spans_snapshot() if r["parent_id"] is None]
    assert [r["name"] for r in roots] == ["test.route_root"]
    names = {r["name"] for r in obs.spans_snapshot()}
    assert "service.route_batch" in names
    assert "service.instantiate_batch" in names
