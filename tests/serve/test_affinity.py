"""Tests for shard-affine dispatch: routing, sub-batches, streaming.

The unit half exercises :class:`AffinityRouter` directly; the
integration half drives a real :class:`ServerHarness` through concurrent
``/place`` requests for two circuits, the mixed-circuit ``/place_batch``
form and the chunked streaming path, including an injected slow shard
proving that a fast shard's chunk reaches the client while the slow
shard is still running.
"""

import json
import threading
import time

import pytest

from repro.benchcircuits.library import get_benchmark
from repro.core.generator import GeneratorConfig
from repro.core.serialization import circuit_to_dict
from repro.parallel.sharding import open_registry
from repro.serve.affinity import AffinityRouter
from repro.serve.harness import ServerHarness
from repro.serve.protocol import RESOLVED_CIRCUITS, CircuitResolver
from repro.serve.server import ServerConfig
from repro.service.engine import PlacementService
from repro.service.fingerprint import structure_key
from tests.conftest import build_chain_circuit
from tests.serve.conftest import CHAIN_DIMS, SMOKE, make_service

#: A second topology (3 blocks) so one batch spans two shards.
TRIO_DIMS = [[6, 5], [5, 6], [7, 5]]


def build_trio_circuit():
    return build_chain_circuit(num_blocks=3, name="trio")


class TestAffinityRouter:
    def test_inactive_without_registry(self):
        router = AffinityRouter(make_service(), workers=4)
        assert not router.active
        decision = router.route(build_chain_circuit())
        assert decision.slot is None
        assert not decision.pinned
        # The shard prefix is still computed (metrics and grouping use it).
        assert decision.shard == decision.key[:2]

    def test_inactive_with_one_worker(self, tmp_path):
        registry = open_registry(tmp_path / "registry", sharded=True)
        service = PlacementService(registry, default_config=SMOKE)
        assert not AffinityRouter(service, workers=1).active
        assert not AffinityRouter(service, workers=None).active

    def test_disabled_router_never_pins(self, tmp_path):
        registry = open_registry(tmp_path / "registry", sharded=True)
        service = PlacementService(registry, default_config=SMOKE)
        router = AffinityRouter(service, workers=4, enabled=False)
        assert not router.active
        assert router.route(build_chain_circuit()).slot is None

    def test_active_router_pins_to_the_shard_owner(self, tmp_path):
        registry = open_registry(tmp_path / "registry", sharded=True)
        service = PlacementService(registry, default_config=SMOKE)
        router = AffinityRouter(service, workers=4)
        assert router.active
        circuit = build_chain_circuit()
        decision = router.route(circuit)
        assert decision.key == structure_key(circuit, SMOKE)
        assert decision.shard == decision.key[: registry.shard_chars]
        assert decision.slot == router.owner_map.owner_for(decision.shard)
        # Cached: the same circuit object yields the same decision.
        assert router.route(circuit) is decision

    def test_router_honours_registry_shard_chars(self, tmp_path):
        registry = open_registry(tmp_path / "registry", sharded=True, shard_chars=3)
        service = PlacementService(registry, default_config=SMOKE)
        router = AffinityRouter(service, workers=2)
        assert router.route(build_chain_circuit()).shard == router.route(
            build_chain_circuit()
        ).key[:3]

    @pytest.mark.parametrize("sharded", [False, True], ids=["flat", "sharded"])
    def test_benchmark_circuits_keep_their_slots(self, tmp_path, sharded):
        # The twin-walk benchmark pins its two circuits to different slots.
        registry = open_registry(tmp_path / "registry", sharded=sharded)
        service = PlacementService(registry, default_config=GeneratorConfig(seed=0))
        router = AffinityRouter(service, workers=2)
        routed = {
            name: router.route(get_benchmark(name))
            for name in ("tso_cascode", "benchmark24")
        }
        assert (routed["tso_cascode"].shard, routed["tso_cascode"].slot) == ("8f", 1)
        assert (routed["benchmark24"].shard, routed["benchmark24"].slot) == ("e4", 0)

    def test_record_tracks_hits_misses_and_shard_latency(self, tmp_path):
        registry = open_registry(tmp_path / "registry", sharded=True)
        service = PlacementService(registry, default_config=SMOKE)
        router = AffinityRouter(service, workers=4)
        pinned = router.route(build_chain_circuit())
        router.record(pinned, 0.02)
        router.record(pinned, 0.04)
        stats = router.stats()
        assert stats["active"]
        assert stats["hits"] == 2
        assert stats["misses"] == 0
        shard_stats = stats["shards"][pinned.shard]
        assert shard_stats["slot"] == pinned.slot
        assert shard_stats["dispatches"] == 2
        assert shard_stats["mean_seconds"] == pytest.approx(0.03, abs=1e-6)
        assert shard_stats["max_seconds"] == pytest.approx(0.04, abs=1e-6)

    def test_decision_cache_stays_bounded_over_distinct_netlists(self):
        # Regression: decisions were kept per circuit object forever, so
        # inline netlists cycling through the resolver's LRU grew the map
        # by one entry per resolution.
        resolver = CircuitResolver()
        router = AffinityRouter(make_service(), workers=2)
        netlists = [
            circuit_to_dict(build_chain_circuit(name=f"inline{index}"))
            for index in range(100)
        ]
        for _ in range(5):
            for netlist in netlists:
                circuit = resolver.resolve({"circuit": netlist})
                decision = router.route(circuit)
                assert decision.key == structure_key(circuit, SMOKE)
                assert len(router._decisions) <= RESOLVED_CIRCUITS
        assert len(router._decisions) == RESOLVED_CIRCUITS

    def test_unpinned_dispatches_count_as_misses(self):
        router = AffinityRouter(make_service(), workers=4)
        decision = router.route(build_chain_circuit())
        router.record(decision, 0.01)
        stats = router.stats()
        assert stats["hits"] == 0
        assert stats["misses"] == 1
        assert stats["shards"][decision.shard]["slot"] == -1


class TestMixedBatch:
    def test_queries_form_reports_per_shard_results(self, chain_payload):
        trio_payload = circuit_to_dict(build_trio_circuit())
        queries = [
            {"circuit": chain_payload, "dims": CHAIN_DIMS},
            {"circuit": trio_payload, "dims": TRIO_DIMS},
            {"circuit": chain_payload, "dims": CHAIN_DIMS},
        ]
        with ServerHarness(make_service()) as harness:
            response = harness.client().place_queries(queries)
        assert response.ok
        body = response.payload
        assert len(body["results"]) == 3
        # Input order survives shard grouping: queries 0 and 2 are the
        # 4-block chain, query 1 the 3-block trio.
        assert len(body["results"][0]["rects"]) == 4
        assert len(body["results"][1]["rects"]) == 3
        assert len(body["results"][2]["rects"]) == 4
        shards = body["shards"]
        assert len(shards) == 2
        assert {entry["circuit"] for entry in shards} == {"chain", "trio"}
        assert {entry["queries"] for entry in shards} == {2, 1}

    def test_single_circuit_form_keeps_its_shape(self, chain_payload):
        with ServerHarness(make_service()) as harness:
            response = harness.client().place_batch(
                chain_payload, [CHAIN_DIMS, CHAIN_DIMS]
            )
        assert response.ok
        assert set(response.payload) == {
            "results",
            "unique_queries",
            "duplicate_queries",
            "elapsed_seconds",
        }

    def test_both_forms_at_once_is_a_bad_request(self, chain_payload):
        with ServerHarness(make_service()) as harness:
            response = harness.client().request(
                "POST",
                "/place_batch",
                {
                    "circuit": chain_payload,
                    "dims_batch": [CHAIN_DIMS],
                    "queries": [{"circuit": chain_payload, "dims": CHAIN_DIMS}],
                },
            )
        assert response.status == 400
        assert "not both" in str(response.payload)

    def test_statusz_exposes_affinity_and_the_place_batcher(self, chain_payload):
        with ServerHarness(make_service()) as harness:
            client = harness.client()
            assert client.place(chain_payload, CHAIN_DIMS).ok
            status = client.statusz().payload
        affinity = status["affinity"]
        assert affinity["enabled"]
        assert not affinity["active"]  # no registry, no workers
        assert affinity["hits"] + affinity["misses"] >= 1
        assert affinity["shards"]
        assert "place" in status["batchers"]

    def test_affinity_disabled_by_config(self, chain_payload):
        config = ServerConfig(port=0, affinity=False)
        with ServerHarness(make_service(), config) as harness:
            client = harness.client()
            assert client.place(chain_payload, CHAIN_DIMS).ok
            status = client.statusz().payload
        assert not status["affinity"]["enabled"]
        assert not status["affinity"]["active"]


class TestCoalescedPlace:
    def test_two_circuits_share_a_batch_and_dispatch_once_each(
        self, tmp_path, chain_payload
    ):
        registry = open_registry(tmp_path / "registry", sharded=True)
        service = PlacementService(registry, default_config=SMOKE)
        calls = []
        original = service.instantiate_batch

        def spy(circuit, dims_list, **kwargs):
            calls.append((circuit, kwargs.get("pin_slot")))
            return original(circuit, dims_list, **kwargs)

        service.instantiate_batch = spy
        requests = {
            "chain": (chain_payload, CHAIN_DIMS),
            "trio": (circuit_to_dict(build_trio_circuit()), TRIO_DIMS),
        }
        config = ServerConfig(service_workers=2, window_seconds=0.25)
        with ServerHarness(service, config) as harness:
            barrier = threading.Barrier(len(requests))
            answers = {}

            def fire(name):
                client = harness.client()
                barrier.wait(timeout=30)
                answers[name] = client.place(*requests[name])
                client.close()

            threads = [threading.Thread(target=fire, args=(name,)) for name in requests]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            batcher = harness.client().statusz().payload["batchers"]["place"]
        # One coalesced batch, split into one sub-batch per circuit.
        assert batcher["batches"] == 1
        assert batcher["subbatch_splits"] == 1
        router = AffinityRouter(service, workers=2)
        assert sorted(circuit.name for circuit, _slot in calls) == ["chain", "trio"]
        for circuit, slot in calls:
            assert slot == router.route(circuit).slot
        inline = make_service()
        for name, (netlist, dims) in requests.items():
            assert answers[name].ok
            expected = inline.instantiate(
                CircuitResolver().resolve({"circuit": netlist}), dims
            ).as_dict()
            expected = json.loads(json.dumps(expected))
            expected.pop("elapsed_seconds")
            served = dict(answers[name].payload)
            served.pop("elapsed_seconds")
            assert served == expected


class TestStreaming:
    def test_stream_yields_one_chunk_per_shard_then_done(self, chain_payload):
        trio_payload = circuit_to_dict(build_trio_circuit())
        queries = [
            {"circuit": chain_payload, "dims": CHAIN_DIMS},
            {"circuit": trio_payload, "dims": TRIO_DIMS},
        ]
        with ServerHarness(make_service()) as harness:
            client = harness.client()
            chunks = client.place_batch_stream(queries)
            # The keep-alive connection survives the chunked response.
            assert client.healthz().ok
        assert len(chunks) == 3
        done = chunks[-1]
        assert done.done
        assert done.payload["shards"] == 2
        assert done.payload["failed"] == 0
        by_circuit = {chunk.payload["circuit"]: chunk for chunk in chunks[:-1]}
        assert set(by_circuit) == {"chain", "trio"}
        assert by_circuit["chain"].payload["indices"] == [0]
        assert by_circuit["trio"].payload["indices"] == [1]
        assert len(by_circuit["chain"].payload["results"]) == 1
        assert len(by_circuit["chain"].payload["results"][0]["rects"]) == 4

    def test_fast_shard_chunk_arrives_before_the_slow_shard_finishes(
        self, chain_payload
    ):
        trio_payload = circuit_to_dict(build_trio_circuit())
        queries = [
            {"circuit": chain_payload, "dims": CHAIN_DIMS},
            {"circuit": trio_payload, "dims": TRIO_DIMS},
        ]
        slow_seconds = 0.8
        with ServerHarness(make_service()) as harness:
            server = harness.server
            original = server._dispatch_circuit

            def slow_on_trio(circuit, decision, dims_list, **span_attrs):
                if circuit.name == "trio":
                    time.sleep(slow_seconds)
                return original(circuit, decision, dims_list, **span_attrs)

            server._dispatch_circuit = slow_on_trio
            arrivals = {}
            for chunk in harness.client().iter_place_batch_stream(queries):
                if not chunk.done:
                    arrivals[chunk.payload["circuit"]] = chunk.arrived_seconds
        # The fast shard's placements reached the client long before the
        # injected slow shard completed — the batch really streams instead
        # of barriering on its slowest shard.
        assert arrivals["chain"] < slow_seconds * 0.6
        assert arrivals["trio"] >= slow_seconds
        assert arrivals["trio"] - arrivals["chain"] > slow_seconds * 0.5

    def test_failing_shard_streams_an_error_chunk_only_for_its_items(
        self, chain_payload
    ):
        trio_payload = circuit_to_dict(build_trio_circuit())
        queries = [
            {"circuit": chain_payload, "dims": CHAIN_DIMS},
            {"circuit": trio_payload, "dims": TRIO_DIMS},
        ]
        with ServerHarness(make_service()) as harness:
            server = harness.server
            original = server._dispatch_circuit

            def explode_on_trio(circuit, decision, dims_list, **span_attrs):
                if circuit.name == "trio":
                    raise RuntimeError("shard down")
                return original(circuit, decision, dims_list, **span_attrs)

            server._dispatch_circuit = explode_on_trio
            client = harness.client()
            chunks = client.place_batch_stream(queries)
            follow_up = client.healthz()
        assert follow_up.ok
        by_circuit = {
            chunk.payload["circuit"]: chunk.payload
            for chunk in chunks
            if not chunk.done
        }
        assert "results" in by_circuit["chain"]
        assert "shard down" in by_circuit["trio"]["error"]
        assert "results" not in by_circuit["trio"]
        assert chunks[-1].payload["failed"] == 1

    def test_stream_works_for_the_single_circuit_form(self, chain_payload):
        with ServerHarness(make_service()) as harness:
            response_chunks = []
            client = harness.client()
            raw = client.request(
                "POST",
                "/place_batch",
                {
                    "circuit": chain_payload,
                    "dims_batch": [CHAIN_DIMS, CHAIN_DIMS],
                    "stream": True,
                },
            )
            # The generic request helper reads the whole chunked body as
            # text; every line must parse as one chunk.
            import json

            for line in str(raw.payload).strip().splitlines():
                response_chunks.append(json.loads(line))
        assert raw.status == 200
        assert response_chunks[-1]["done"]
        assert len(response_chunks[0]["results"]) == 2
