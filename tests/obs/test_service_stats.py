"""ServiceStats as a frozen snapshot of one registry: values, no mirror, merging."""

from dataclasses import FrozenInstanceError

import pytest

from repro import obs
from repro.core.instantiator import PlacementInstantiator
from repro.service.engine import PlacementService, ServiceStats
from repro.service.registry import StructureRegistry
from tests.conftest import build_chain_circuit
from tests.service.test_counter_pins import (
    CONFIG,
    FALLBACK,
    IN_CHEAP,
    NEAREST,
    build_structure,
)


def serve_some(service):
    circuit = build_chain_circuit(2)
    service.instantiate_batch(circuit, [IN_CHEAP, IN_CHEAP, NEAREST])
    service.instantiate(circuit, FALLBACK)
    service.instantiate(circuit, FALLBACK)


def service_counters_in_global_registry():
    return [
        line
        for line in obs.metrics().to_prometheus().splitlines()
        if line.startswith("# TYPE service_") and line.endswith(" counter")
    ]


@pytest.fixture
def registry(tmp_path):
    registry = StructureRegistry(tmp_path / "registry")
    registry.put(build_structure(), CONFIG)
    return registry


@pytest.fixture
def service(registry):
    return PlacementService(registry, default_config=CONFIG)


class TestSnapshotValues:
    def test_defaults_are_zero_with_legacy_types(self):
        for stats in (ServiceStats(), PlacementService().snapshot()):
            assert stats.queries == 0 and isinstance(stats.queries, int)
            assert stats.total_seconds == 0.0 and isinstance(stats.total_seconds, float)

    def test_events_accumulate_into_the_snapshot(self, service):
        serve_some(service)
        stats = service.snapshot()
        assert stats.queries == 5
        assert stats.batches == 1
        assert stats.structure_hits == 2
        assert stats.nearest_hits == 1
        assert stats.fallback_hits == 2
        assert stats.memo_hits == 1
        assert stats.dedup_hits == 1
        assert isinstance(stats.memo_hits, int)
        assert isinstance(stats.total_seconds, float) and stats.total_seconds > 0.0

    def test_keyword_construction_and_unknown_field_rejected(self):
        stats = ServiceStats(queries=5, total_seconds=1.5)
        assert stats.queries == 5
        assert stats.total_seconds == 1.5
        with pytest.raises(TypeError):
            ServiceStats(teleports=1)

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            ServiceStats().bogus_counter

    def test_equality_by_counter_values(self):
        a = ServiceStats(queries=2)
        b = ServiceStats(queries=2)
        c = ServiceStats(queries=3)
        assert a == b
        assert a != c

    def test_snapshot_is_frozen_and_independent(self, service):
        circuit = build_chain_circuit(2)
        service.instantiate(circuit, IN_CHEAP)
        frozen = service.snapshot()
        service.instantiate(circuit, NEAREST)
        assert frozen.queries == 1
        assert service.snapshot().queries == 2
        with pytest.raises(FrozenInstanceError):
            frozen.queries = 10

    def test_metrics_render_every_counter_exactly(self, service):
        serve_some(service)
        stats = service.snapshot()
        rendered = stats.metrics.snapshot()
        counters = stats.counters()
        assert len(counters) == 18
        assert rendered == {f"service.{name}": value for name, value in counters.items()}

    def test_counters_leave_out_the_derived_ratios(self, service):
        serve_some(service)
        stats = service.snapshot()
        extra = set(stats.as_dict()) - set(stats.counters())
        assert extra == {"structure_hit_rate", "mean_latency_seconds"}
        assert ServiceStats.from_counts(stats.counters()) == stats

    def test_derived_rates_still_work(self):
        stats = ServiceStats(queries=4, structure_hits=3, total_seconds=2.0)
        assert stats.structure_hit_rate == pytest.approx(0.75)
        assert stats.mean_latency_seconds == pytest.approx(0.5)
        assert stats.tier_counts["structure"] == 3


class TestNoGlobalMirror:
    def test_no_service_counter_reaches_global_metrics_when_enabled(self, service):
        obs.configure(enabled=True)
        serve_some(service)
        assert service.snapshot().queries == 5
        assert service_counters_in_global_registry() == []

    def test_no_service_counter_reaches_global_metrics_while_disabled(self, service):
        serve_some(service)
        assert service_counters_in_global_registry() == []

    def test_two_services_keep_separate_counters(self, registry):
        obs.configure(enabled=True)
        a = PlacementService(registry, default_config=CONFIG)
        b = PlacementService(registry, default_config=CONFIG)
        circuit = build_chain_circuit(2)
        a.instantiate(circuit, IN_CHEAP)
        b.instantiate(circuit, IN_CHEAP)
        b.instantiate(circuit, NEAREST)
        assert a.snapshot().queries == 1 and b.snapshot().queries == 2
        assert service_counters_in_global_registry() == []

    def test_snapshot_and_rendering_write_nothing(self, service):
        obs.configure(enabled=True)
        serve_some(service)
        before = service.snapshot()
        service.snapshot().metrics.to_prometheus()
        assert service.snapshot() == before
        assert service_counters_in_global_registry() == []


class FakePool:
    """Answers a pooled batch in this process, reporting chosen worker counters."""

    def __init__(self, worker_counters):
        self.worker_counters = worker_counters

    def place_batch(self, circuit_data, spec, queries, pin_slot=None):
        results = PlacementInstantiator(build_structure()).place_batch(queries)
        return results, dict(self.worker_counters)


def pooled_batch(service, monkeypatch, worker_counters):
    monkeypatch.setattr(service, "_pool_for", lambda workers: FakePool(worker_counters))
    service.instantiate_batch(build_chain_circuit(2), [IN_CHEAP, NEAREST], workers=2)


class TestWorkerMerge:
    def test_a_worker_that_reported_nothing_adds_only_the_batch(
        self, service, monkeypatch
    ):
        pooled_batch(service, monkeypatch, {})
        stats = service.snapshot()
        assert stats.total_seconds > 0.0
        assert stats == ServiceStats(
            queries=2,
            batches=1,
            structure_hits=1,
            nearest_hits=1,
            total_seconds=stats.total_seconds,
        )

    def test_disjoint_keys_are_ignored(self, service, monkeypatch):
        pooled_batch(
            service,
            monkeypatch,
            {"queries": 100, "pool_jobs": 4, "unheard_of": 9, "memo_hits": 2},
        )
        stats = service.snapshot()
        # Only what the workers alone can see merges; this process counts
        # queries itself and unknown keys never land anywhere.
        assert stats.queries == 2
        assert stats.memo_hits == 2
        with pytest.raises(AttributeError):
            stats.unheard_of

    def test_nested_dict_values_are_skipped(self, service, monkeypatch):
        pooled_batch(
            service,
            monkeypatch,
            {
                "memo_hits": {"by_circuit": {"chain": 3}},
                "cache_hits": 2,
                "structures_loaded": None,
            },
        )
        stats = service.snapshot()
        assert stats.memo_hits == 0
        assert stats.cache_hits == 2
        assert stats.structures_loaded == 0

    def test_multiple_batches_sum_additively(self, service, monkeypatch):
        for worker_counters in (
            {"memo_hits": 1, "cache_hits": 2, "batch_evals": 1},
            {"memo_hits": 3, "structures_generated": 1, "batch_evals": 2},
        ):
            pooled_batch(service, monkeypatch, worker_counters)
        stats = service.snapshot()
        assert stats.batches == 2
        assert stats.memo_hits == 4
        assert stats.cache_hits == 2
        assert stats.structures_generated == 1
        assert stats.batch_evals == 3
