"""Tests for the ``"parallel"`` engine and the service's process fan-out."""

import multiprocessing

import pytest

from repro.api import available_placers, make_placer
from repro.core.generator import GeneratorConfig
from repro.parallel.placer import ParallelPlacer
from repro.parallel.sharding import open_registry
from repro.service.engine import PlacementService
from tests.conftest import build_chain_circuit

SMOKE = GeneratorConfig.smoke(seed=7)


def make_queries(n, unique=4):
    vectors = [[(4 + i % 9, 4 + (i * 3) % 9)] * 4 for i in range(unique)]
    return [vectors[i % unique] for i in range(n)]


class TestParallelPlacer:
    def test_registered_as_builtin_kind(self):
        assert "parallel" in available_placers()

    def test_spec_round_trip(self):
        circuit = build_chain_circuit()
        placer = make_placer(
            {"kind": "parallel", "inner": {"kind": "template"}, "workers": 2}, circuit
        )
        assert isinstance(placer, ParallelPlacer)
        assert placer.spec["kind"] == "parallel"
        clone = make_placer(placer.spec, circuit)
        assert isinstance(clone, ParallelPlacer)
        assert clone.inner_spec == placer.inner_spec
        placer.close()
        clone.close()

    def test_single_place_uses_local_engine(self):
        circuit = build_chain_circuit()
        before = set(multiprocessing.active_children())
        with ParallelPlacer(circuit, {"kind": "template"}, workers=2) as placer:
            placement = placer.place([(6, 6)] * 4)
            assert set(placement.rects) == set(circuit.block_names())
            # No pool was spun up for a single query: the local engine
            # answered it, and counted it under its own name.
            assert set(multiprocessing.active_children()) == before
            stats = placer.stats()
            assert stats["pool_batches"] == 0
            assert stats["queries"] == 1

    def test_batch_matches_inner_engine_exactly(self):
        circuit = build_chain_circuit()
        queries = make_queries(12)
        inner = make_placer({"kind": "template"}, circuit)
        expected = inner.place_batch(queries)
        with ParallelPlacer(circuit, {"kind": "template"}, workers=3) as placer:
            got = placer.place_batch(queries)
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            assert dict(a.rects) == dict(b.rects)
            assert a.cost == b.cost

    def test_batch_identical_across_worker_counts(self):
        circuit = build_chain_circuit()
        queries = make_queries(10)
        batches = {}
        for workers in (1, 2, 4):
            with ParallelPlacer(circuit, {"kind": "template"}, workers=workers) as placer:
                batches[workers] = placer.place_batch(queries)
        for workers in (2, 4):
            for a, b in zip(batches[1], batches[workers]):
                assert dict(a.rects) == dict(b.rects)
                assert a.cost == b.cost

    def test_reseed_per_query_makes_stochastic_engines_deterministic(self):
        circuit = build_chain_circuit()
        queries = make_queries(6, unique=6)
        results = {}
        for workers in (1, 3):
            with ParallelPlacer(
                circuit,
                {"kind": "random", "seed": 13, "attempts": 20},
                workers=workers,
                reseed="per_query",
            ) as placer:
                results[workers] = placer.place_batch(queries)
        for a, b in zip(results[1], results[3]):
            assert dict(a.rects) == dict(b.rects)

    def test_invalid_reseed_rejected(self):
        with pytest.raises(ValueError):
            ParallelPlacer(build_chain_circuit(), {"kind": "template"}, reseed="bogus")

    def test_stats_merge_worker_counters(self):
        # One name per event: the workers' and the local engine's queries
        # both land as the inner engine's ``queries``, and a batch's
        # repeats as ``pool_dedup_hits``.
        circuit = build_chain_circuit()
        with ParallelPlacer(circuit, {"kind": "template"}, workers=2) as placer:
            placer.place_batch(make_queries(8))
            placer.place([(6, 6)] * 4)
            stats = placer.stats()
        assert stats.pop("total_seconds") > 0.0
        assert stats == {
            "queries": 5,
            "pool_batches": 1,
            "pool_jobs": 2,
            "pool_unique_queries": 4,
            "pool_dedup_hits": 4,
            "workers": 2,
        }

    def test_service_inner_stats_hold_counters_only(self, tmp_path, monkeypatch):
        # Job deltas sum across jobs and batches, which is only right for
        # additive counters: a ratio summed that way is meaningless, and so
        # is a per-batch fact such as the worker processes a batch used.
        circuit = build_chain_circuit()
        inner = {"kind": "service", "registry": str(tmp_path / "registry"), "seed": 7}
        with ParallelPlacer(circuit, inner, workers=2) as placer:
            batches = []
            place_batch = placer.pool.place_batch

            def recording_place_batch(*args, **kwargs):
                results, merged = place_batch(*args, **kwargs)
                batches.append(merged)
                return results, merged

            monkeypatch.setattr(placer.pool, "place_batch", recording_place_batch)
            for _ in range(3):
                placer.place_batch(make_queries(16, unique=16))
            stats = placer.stats()
        assert stats["queries"] == stats["pool_unique_queries"] == 27
        # The inner services count a batch per job; this placer its own.
        assert stats["batches"] == stats["pool_jobs"] == 6
        assert stats["pool_batches"] == 3
        assert [key for key in stats if key.endswith("_rate")] == []
        assert [key for key in stats if key.startswith("mean_")] == []
        assert "pool_worker_processes" not in stats
        assert "pool_pinned_slot" not in stats
        assert len(batches) == 3
        assert stats["pool_jobs"] == sum(batch["pool_jobs"] for batch in batches)


class TestServiceProcessFanOut:
    @pytest.fixture
    def service(self, tmp_path):
        registry = open_registry(tmp_path / "registry", sharded=True)
        service = PlacementService(registry, default_config=SMOKE)
        yield service
        service.close()

    def test_workers_batch_matches_serial(self, service):
        circuit = build_chain_circuit()
        queries = make_queries(16)
        serial = service.instantiate_batch(circuit, queries)
        pooled = service.instantiate_batch(circuit, queries, workers=2)
        for a, b in zip(serial.results, pooled.results):
            assert dict(a.rects) == dict(b.rects)
            assert a.cost == b.cost
        assert pooled.pool_stats["pool_jobs"] >= 1
        assert pooled.duplicate_queries == 12

    def test_workers_merge_service_stats(self, service):
        circuit = build_chain_circuit()
        service.instantiate_batch(circuit, make_queries(8), workers=2)
        stats = service.stats
        assert stats.batches == 1
        assert stats.queries == 8
        assert stats.dedup_hits == 4
        # The workers loaded (or generated) the structure; their counters merged.
        assert stats.structures_loaded + stats.structures_generated >= 1

    def test_adopted_structure_reaches_process_workers(self, tmp_path):
        # Regression: adopt() used to seed only the in-memory LRU, so the
        # workers=N path regenerated a different structure in each worker.
        from repro.core.generator import MultiPlacementGenerator

        circuit = build_chain_circuit()
        adopted_config = GeneratorConfig.smoke(seed=41)
        structure = MultiPlacementGenerator(circuit, adopted_config).generate()
        registry = open_registry(tmp_path / "registry", sharded=True)
        service = PlacementService(registry, default_config=adopted_config)
        service.adopt(structure)
        assert registry.contains(circuit, adopted_config)  # persisted, not just cached
        queries = make_queries(8)
        serial = service.instantiate_batch(circuit, queries)
        pooled = service.instantiate_batch(circuit, queries, workers=2)
        for a, b in zip(serial.results, pooled.results):
            assert dict(a.rects) == dict(b.rects)
            assert a.cost == b.cost
        # Nothing was regenerated anywhere: the workers loaded the adopted copy.
        assert pooled.pool_stats.get("structures_generated", 0) == 0
        service.close()

    def test_workers_without_registry_degrade_to_threads(self, tmp_path):
        service = PlacementService(None, default_config=SMOKE)
        batch = service.instantiate_batch(build_chain_circuit(), make_queries(6), workers=4)
        assert len(batch.results) == 6
        assert batch.pool_stats == {}

    def test_route_batch_shares_layouts_across_duplicates(self, service):
        circuit = build_chain_circuit()
        pairs = service.route_batch(circuit, make_queries(6, unique=2), workers=2)
        assert len(pairs) == 6
        for placement, layout in pairs:
            assert placement.is_routed
            assert placement.routing["routed_wirelength"] == pytest.approx(
                layout.total_wirelength
            )
        assert pairs[0][1] is pairs[2][1]  # duplicate floorplans share the layout
        assert service.stats.route_queries == 6

    def test_pool_stays_up_across_batches_until_close(self, service):
        circuit = build_chain_circuit()
        before = set(multiprocessing.active_children())
        service.instantiate_batch(circuit, make_queries(8), workers=2)
        forked = set(multiprocessing.active_children()) - before
        assert len(forked) == 2
        # Later batches, placement and routing alike, reuse the same two
        # processes (their caches stay warm) instead of forking again.
        service.instantiate_batch(circuit, make_queries(8, unique=8), workers=2)
        service.route_batch(circuit, make_queries(4, unique=4), workers=2)
        assert set(multiprocessing.active_children()) - before == forked
        service.close()
        assert set(multiprocessing.active_children()) <= before

    def test_route_batch_serial_matches_pooled(self, service):
        circuit = build_chain_circuit()
        queries = make_queries(4, unique=4)
        pooled = service.route_batch(circuit, queries, workers=2)
        service_serial = PlacementService(
            open_registry(service.registry.root, sharded=True), default_config=SMOKE
        )
        serial = service_serial.route_batch(circuit, queries)
        for (pp, pl), (sp, sl) in zip(pooled, serial):
            assert dict(pp.rects) == dict(sp.rects)
            assert pl.total_wirelength == pytest.approx(sl.total_wirelength)
