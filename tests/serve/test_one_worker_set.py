"""One set of worker processes behind every dispatch path.

A ``service_workers=N`` server forks exactly ``N`` worker processes, with
shard affinity on or off: pinned sub-batches and fanned-out batches ride
the same slots.  And the path a query takes — inline, fanned out, pinned,
or over HTTP with or without workers — never changes the answer.
"""

import json
import multiprocessing

import pytest

from repro.parallel.sharding import open_registry
from repro.serve import ServerConfig, ServerHarness
from repro.service.engine import PlacementService
from tests.conftest import build_chain_circuit
from tests.serve.conftest import SMOKE

#: Eight distinct chain queries: enough unique vectors to fan out.
QUERIES = [[[4 + index, 5 + index % 3]] * 4 for index in range(8)]


def answer(placement_dict):
    """A placement's JSON form minus the one field that is a timing."""
    plain = json.loads(json.dumps(placement_dict))
    plain.pop("elapsed_seconds")
    return plain


def registry_service(root):
    return PlacementService(open_registry(root, sharded=True), default_config=SMOKE)


@pytest.mark.parametrize("affinity", [True, False])
def test_server_forks_exactly_its_workers(tmp_path, chain_payload, affinity):
    before = set(multiprocessing.active_children())
    config = ServerConfig(service_workers=2, affinity=affinity)
    with ServerHarness(registry_service(tmp_path / "registry"), config) as harness:
        started = set(multiprocessing.active_children()) - before
        assert len(started) == 2
        client = harness.client()
        assert client.place(chain_payload, QUERIES[0]).ok
        assert client.place_batch(chain_payload, QUERIES).ok
        # Traffic, pinned or fanned out, reuses the two; nothing else forks.
        assert set(multiprocessing.active_children()) - before == started


def test_placements_identical_at_one_two_and_four_workers(tmp_path):
    circuit = build_chain_circuit()
    service = registry_service(tmp_path / "registry")
    try:
        batches = {
            workers: service.instantiate_batch(circuit, QUERIES, workers=workers)
            for workers in (1, 2, 4)
        }
    finally:
        service.close()
    assert batches[1].pool_stats == {}  # one worker never leaves this process
    assert batches[4].pool_stats["pool_worker_processes"] == 4
    expected = [answer(placement.as_dict()) for placement in batches[1].results]
    for workers in (2, 4):
        assert [answer(p.as_dict()) for p in batches[workers].results] == expected


def test_every_path_returns_the_same_placement(tmp_path, chain_payload):
    circuit = build_chain_circuit()
    service = registry_service(tmp_path / "registry")
    try:
        inline = service.instantiate_batch(circuit, QUERIES)
        fanned = service.instantiate_batch(circuit, QUERIES, workers=2)
        pinned = service.instantiate_batch(circuit, QUERIES, workers=2, pin_slot=1)
    finally:
        service.close()
    assert fanned.pool_stats["pool_jobs"] == 2
    assert pinned.pool_stats["pool_pinned_slot"] == 1
    expected = [answer(placement.as_dict()) for placement in inline.results]
    assert {entry["placer"] for entry in expected} == {"mps"}
    assert [answer(p.as_dict()) for p in fanned.results] == expected
    assert [answer(p.as_dict()) for p in pinned.results] == expected

    for workers in (None, 2):
        config = ServerConfig(service_workers=workers)
        with ServerHarness(registry_service(tmp_path / "registry"), config) as harness:
            client = harness.client()
            served = [client.place(chain_payload, dims) for dims in QUERIES]
        assert all(response.ok for response in served)
        assert [answer(response.payload) for response in served] == expected
