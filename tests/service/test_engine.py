"""Tests for the PlacementService facade and its statistics."""

from dataclasses import FrozenInstanceError

import pytest

from repro.circuit.builder import CircuitBuilder
from repro.core.generator import GeneratorConfig
from repro.core.instantiator import (
    SOURCE_FALLBACK,
    SOURCE_NEAREST,
    SOURCE_STRUCTURE,
)
from repro.core.intervals import Interval
from repro.core.placement_entry import DimensionRange
from repro.core.structure import MultiPlacementStructure
from repro.geometry.floorplan import FloorplanBounds
from repro.service.engine import PlacementService
from repro.service.registry import StructureRegistry
from tests.conftest import build_chain_circuit

SMOKE = GeneratorConfig.smoke(seed=7)

#: Hand-built structure queries with a known tier for each (see build_structure).
IN_BOX = [(5, 5), (6, 6)]
OUT_OF_BOX_LEGAL = [(10, 10), (10, 10)]
OUT_OF_BOX_ILLEGAL = [(12, 12), (12, 12)]


def build_structure(circuit=None):
    circuit = circuit or build_chain_circuit(2)
    structure = MultiPlacementStructure(circuit, FloorplanBounds(60, 60))
    structure.add_placement(
        anchors=[(0, 0), (10, 0)],
        ranges=[
            DimensionRange(Interval(4, 8), Interval(4, 8)),
            DimensionRange(Interval(4, 8), Interval(4, 8)),
        ],
        average_cost=10.0,
        best_cost=9.0,
    )
    structure.set_fallback([(0, 30), (25, 30)])
    return structure


@pytest.fixture
def service(tmp_path):
    registry = StructureRegistry(tmp_path / "registry")
    registry.put(build_structure())
    return PlacementService(registry)


class TestServing:
    def test_serves_from_the_registry(self, service):
        result = service.instantiate(build_chain_circuit(2), IN_BOX)
        assert result.source == SOURCE_STRUCTURE
        assert service.stats.structures_loaded == 1
        assert service.stats.structures_generated == 0

    def test_generates_in_memory_without_registry(self):
        service = PlacementService(default_config=SMOKE)
        circuit = build_chain_circuit()
        result = service.instantiate(circuit, [(5, 5)] * 4)
        assert len(result.rects) == 4
        assert service.stats.structures_generated == 1

    def test_generates_through_the_registry_on_miss(self, tmp_path):
        registry = StructureRegistry(tmp_path / "registry")
        service = PlacementService(registry, default_config=SMOKE)
        service.warm(build_chain_circuit())
        assert service.stats.structures_generated == 1
        assert registry.contains(build_chain_circuit(), SMOKE)

    def test_instantiator_cache_hits_on_repeat(self, service):
        circuit = build_chain_circuit(2)
        service.instantiate(circuit, IN_BOX)
        service.instantiate(circuit, OUT_OF_BOX_LEGAL)
        assert service.stats.cache_misses == 1
        assert service.stats.cache_hits == 1

    def test_warm_returns_the_structure(self, service):
        structure = service.warm(build_chain_circuit(2))
        assert structure.num_placements == 1


class TestTierStats:
    def test_mixed_workload_reports_per_tier_counts(self, service):
        circuit = build_chain_circuit(2)
        for _ in range(3):
            service.instantiate(circuit, IN_BOX)
        for _ in range(2):
            service.instantiate(circuit, OUT_OF_BOX_LEGAL)
        service.instantiate(circuit, OUT_OF_BOX_ILLEGAL)
        stats = service.stats
        assert stats.queries == 6
        assert stats.structure_hits == 3
        assert stats.nearest_hits == 2
        assert stats.fallback_hits == 1
        assert stats.tier_counts == {
            SOURCE_STRUCTURE: 3,
            SOURCE_NEAREST: 2,
            SOURCE_FALLBACK: 1,
        }
        assert stats.structure_hit_rate == pytest.approx(0.5)
        assert stats.memo_hits == 3  # every repeat after the first of each vector
        assert stats.total_seconds > 0.0
        assert stats.mean_latency_seconds > 0.0

    def test_batch_updates_tier_and_dedup_counters(self, service):
        circuit = build_chain_circuit(2)
        batch = [IN_BOX] * 4 + [OUT_OF_BOX_LEGAL] * 3 + [OUT_OF_BOX_ILLEGAL]
        result = service.instantiate_batch(circuit, batch)
        assert result.total_queries == 8
        assert result.unique_queries == 3
        stats = service.stats
        assert stats.batches == 1
        assert stats.queries == 8
        assert stats.dedup_hits == 5
        assert stats.structure_hits == 4
        assert stats.nearest_hits == 3
        assert stats.fallback_hits == 1

    def test_snapshot_is_independent(self, service):
        circuit = build_chain_circuit(2)
        service.instantiate(circuit, IN_BOX)
        frozen = service.snapshot()
        service.instantiate(circuit, IN_BOX)
        assert frozen.queries == 1
        assert service.stats.queries == 2

    def test_reset_returns_old_counters(self, service):
        circuit = build_chain_circuit(2)
        service.instantiate(circuit, IN_BOX)
        old = service.reset_stats()
        assert old.queries == 1
        assert service.stats.queries == 0

    def test_stats_are_a_frozen_value(self, service):
        # service.stats is a snapshot taken on access, not a live view.
        circuit = build_chain_circuit(2)
        service.instantiate(circuit, IN_BOX)
        stats = service.stats
        service.instantiate(circuit, IN_BOX)
        assert (stats.queries, service.stats.queries) == (1, 2)
        with pytest.raises(FrozenInstanceError):
            stats.queries = 0

    def test_as_dict_includes_rates(self, service):
        service.instantiate(build_chain_circuit(2), IN_BOX)
        data = service.stats.as_dict()
        assert data["queries"] == 1
        assert 0.0 <= data["structure_hit_rate"] <= 1.0
        assert data["mean_latency_seconds"] >= 0.0


class TestBlockOrderIndependence:
    def build_ab_circuit(self, order):
        builder = CircuitBuilder("ab")
        specs = {"a": (4, 8, 4, 8), "b": (5, 9, 5, 9)}
        for name in order:
            builder.block(name, *specs[name])
        builder.simple_net("n1", ["a", "b"])
        return builder.build()

    def test_permuted_caller_gets_correctly_mapped_dims(self, tmp_path):
        canonical = self.build_ab_circuit(["a", "b"])
        structure = MultiPlacementStructure(canonical, FloorplanBounds(60, 60))
        structure.set_fallback([(0, 0), (20, 0)])
        registry = StructureRegistry(tmp_path / "registry")
        registry.put(structure)
        service = PlacementService(registry)

        permuted = self.build_ab_circuit(["b", "a"])
        # Caller order is (b, a): b gets 9x9, a gets 5x5.
        result = service.instantiate(permuted, [(9, 9), (5, 5)])
        assert (result.rects["a"].w, result.rects["a"].h) == (5, 5)
        assert (result.rects["b"].w, result.rects["b"].h) == (9, 9)
        # Both declarations share one registry slot.
        assert service.registry.keys() == [service.registry.key_for(canonical)]

    def test_dimension_vector_length_is_validated(self, service):
        with pytest.raises(ValueError):
            service.instantiate(build_chain_circuit(2), [(5, 5)])


class TestVectorEvalStats:
    def test_batch_records_vector_counters(self, service, monkeypatch):
        pytest.importorskip("numpy")
        monkeypatch.delenv("REPRO_VECTORIZE", raising=False)
        circuit = build_chain_circuit(2)
        batch = [IN_BOX] * 2 + [OUT_OF_BOX_LEGAL] * 2 + [[(7, 7), (7, 7)]]
        service.instantiate_batch(circuit, batch)
        stats = service.stats
        assert stats.batch_evals >= 1
        assert stats.batch_candidates >= stats.batch_evals
        assert stats.vector_fallbacks == 0
        as_dict = stats.as_dict()
        assert as_dict["batch_evals"] == stats.batch_evals
        assert as_dict["batch_candidates"] == stats.batch_candidates

    def test_env_gate_records_fallback(self, service, monkeypatch):
        monkeypatch.setenv("REPRO_VECTORIZE", "0")
        circuit = build_chain_circuit(2)
        service.instantiate_batch(circuit, [IN_BOX, OUT_OF_BOX_LEGAL, [(7, 7), (7, 7)]])
        stats = service.stats
        assert stats.batch_evals == 0
        assert stats.vector_fallbacks == 1

    def test_results_identical_with_and_without_vectorization(
        self, tmp_path, monkeypatch
    ):
        pytest.importorskip("numpy")
        circuit = build_chain_circuit(2)
        batch = [IN_BOX, OUT_OF_BOX_LEGAL, OUT_OF_BOX_ILLEGAL, [(7, 7), (7, 7)]]

        def serve(env_value):
            if env_value is None:
                monkeypatch.delenv("REPRO_VECTORIZE", raising=False)
            else:
                monkeypatch.setenv("REPRO_VECTORIZE", env_value)
            registry = StructureRegistry(tmp_path / f"registry-{env_value}")
            registry.put(build_structure())
            return PlacementService(registry).instantiate_batch(circuit, batch)

        scalar = serve("0")
        vectorized = serve(None)
        assert scalar.source_counts == vectorized.source_counts
        for a, b in zip(scalar, vectorized):
            assert a.cost == b.cost
            assert dict(a.rects) == dict(b.rects)
