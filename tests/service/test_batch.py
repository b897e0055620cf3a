"""Tests for batched instantiation with deduplication and fan-out."""

import multiprocessing

import pytest

from repro.core.generator import GeneratorConfig
from repro.core.instantiator import PlacementInstantiator
from repro.core.intervals import Interval
from repro.core.placement_entry import DimensionRange
from repro.core.structure import MultiPlacementStructure
from repro.geometry.floorplan import FloorplanBounds
from repro.parallel.sharding import open_registry
from repro.service.batch import instantiate_batch
from repro.service.cache import MemoizingInstantiator
from repro.service.engine import PlacementService
from tests.conftest import build_chain_circuit


def build_structure(num_blocks=2):
    circuit = build_chain_circuit(num_blocks)
    structure = MultiPlacementStructure(circuit, FloorplanBounds(40 * num_blocks, 60))
    structure.add_placement(
        anchors=[(14 * i, 0) for i in range(num_blocks)],
        ranges=[DimensionRange(Interval(4, 8), Interval(4, 8)) for _ in range(num_blocks)],
        average_cost=10.0,
        best_cost=9.0,
    )
    structure.set_fallback([(14 * i, 30) for i in range(num_blocks)])
    return structure


def all_dims(num_blocks, w, h):
    return [(w, h)] * num_blocks


class TestDeduplication:
    def test_duplicates_are_instantiated_once_and_shared(self):
        instantiator = PlacementInstantiator(build_structure())
        batch = [all_dims(2, 5, 5), all_dims(2, 6, 6), all_dims(2, 5, 5)]
        result = instantiate_batch(instantiator, batch)
        assert result.total_queries == 3
        assert result.unique_queries == 2
        assert result.duplicate_queries == 1
        assert result[0] is result[2]
        assert result[0] is not result[1]

    def test_clamped_duplicates_collapse(self):
        instantiator = PlacementInstantiator(build_structure())
        # (1, 1) clamps to the block minimum (4, 4).
        result = instantiate_batch(instantiator, [all_dims(2, 1, 1), all_dims(2, 4, 4)])
        assert result.unique_queries == 1

    def test_source_counts_cover_every_query(self):
        instantiator = PlacementInstantiator(build_structure())
        batch = [all_dims(2, 5, 5)] * 3 + [all_dims(2, 10, 10)] * 2
        result = instantiate_batch(instantiator, batch)
        assert sum(result.source_counts.values()) == 5
        assert result.source_counts["structure"] == 3

    def test_empty_batch(self):
        instantiator = PlacementInstantiator(build_structure())
        result = instantiate_batch(instantiator, [])
        assert result.total_queries == 0
        assert result.unique_queries == 0
        assert list(result) == []

    def test_wrong_length_vector_rejected(self):
        instantiator = PlacementInstantiator(build_structure())
        with pytest.raises(ValueError):
            instantiate_batch(instantiator, [all_dims(2, 5, 5), [(5, 5)]])
        with pytest.raises(ValueError):
            instantiate_batch(instantiator, [all_dims(3, 5, 5)])


class TestResultsMatchSequential:
    def test_results_in_input_order(self):
        instantiator = PlacementInstantiator(build_structure())
        batch = [all_dims(2, w, w) for w in (5, 6, 7, 5, 12, 6)]
        result = instantiate_batch(instantiator, batch)
        for dims, got in zip(batch, result):
            expected = instantiator.instantiate(dims)
            assert got.source == expected.source
            assert dict(got.rects) == dict(expected.rects)

    def test_memoizing_instantiator_is_supported(self):
        memo = MemoizingInstantiator(PlacementInstantiator(build_structure()))
        batch = [all_dims(2, 5, 5), all_dims(2, 5, 5), all_dims(2, 6, 6)]
        result = instantiate_batch(memo, batch)
        assert result.unique_queries == 2
        # A second batch is answered entirely from the memo.
        hits_before = memo.memo_stats.hits
        instantiate_batch(memo, batch)
        assert memo.memo_stats.hits == hits_before + 2


class TestParallelism:
    """The worker-process fan-out answers exactly like the serial batch."""

    @pytest.fixture
    def service(self, tmp_path):
        registry = open_registry(tmp_path / "registry", sharded=True)
        service = PlacementService(registry, default_config=GeneratorConfig.smoke())
        yield service
        service.close()

    def test_worker_pool_matches_serial(self, service):
        structure = build_structure(4)
        service.adopt(structure)
        batch = [all_dims(4, 4 + (i % 9), 4 + ((i * 3) % 9)) for i in range(24)]
        serial = instantiate_batch(PlacementInstantiator(structure), batch)
        parallel = service.instantiate_batch(structure.circuit, batch, workers=4)
        assert parallel.pool_stats["pool_jobs"] == 4
        assert serial.unique_queries == parallel.unique_queries
        assert serial.source_counts == parallel.source_counts
        for a, b in zip(serial, parallel):
            assert a.source == b.source
            assert a.placer == b.placer
            assert a.cost == b.cost
            assert dict(a.rects) == dict(b.rects)

    def test_first_sight_fan_out_generates_once_on_a_flat_root(self, tmp_path):
        # Both workers miss the fresh registry at once; the per-key lock
        # lets one generate while the other waits and loads its result.
        service = PlacementService(
            open_registry(tmp_path / "registry"), default_config=GeneratorConfig.smoke()
        )
        try:
            circuit = build_chain_circuit(4)
            batch = [all_dims(4, 4 + i, 12 - i) for i in range(8)]
            result = service.instantiate_batch(circuit, batch, workers=2)
            assert result.unique_queries == 8
            assert result.pool_stats["pool_jobs"] == 2
            assert service.stats.structures_generated == 1
        finally:
            service.close()

    def test_small_batches_stay_serial(self, service):
        structure = build_structure()
        service.adopt(structure)
        before = set(multiprocessing.active_children())
        result = service.instantiate_batch(
            structure.circuit, [all_dims(2, 5, 5)], workers=8
        )
        assert result.total_queries == 1
        # One unique query is not worth a pool round trip: it ran in this
        # process as a single job, and no worker process was forked.
        assert result.pool_stats["pool_jobs"] == 1
        assert set(multiprocessing.active_children()) <= before
        expected = PlacementInstantiator(structure).instantiate(all_dims(2, 5, 5))
        assert result[0].source == expected.source
        assert dict(result[0].rects) == dict(expected.rects)


class TestBatchResult:
    def test_throughput_and_container_protocol(self):
        instantiator = PlacementInstantiator(build_structure())
        result = instantiate_batch(instantiator, [all_dims(2, 5, 5), all_dims(2, 6, 6)])
        assert len(result) == 2
        assert result.elapsed_seconds >= 0.0
        assert result.queries_per_second >= 0.0
        assert [r.source for r in result] == [result[0].source, result[1].source]


class TestVectorizedBatchPath:
    def test_serial_batch_matches_scalar_loop(self, monkeypatch):
        pytest.importorskip("numpy")
        batch = [all_dims(4, 4 + (i % 9), 4 + ((i * 3) % 9)) for i in range(24)]
        monkeypatch.setenv("REPRO_VECTORIZE", "0")
        scalar = instantiate_batch(PlacementInstantiator(build_structure(4)), batch)
        monkeypatch.delenv("REPRO_VECTORIZE")
        instantiator = PlacementInstantiator(build_structure(4))
        vectorized = instantiate_batch(instantiator, batch)
        assert instantiator.vector_stats()["batch_evals"] >= 1
        assert scalar.unique_queries == vectorized.unique_queries
        assert scalar.source_counts == vectorized.source_counts
        for a, b in zip(scalar, vectorized):
            assert a.source == b.source
            assert a.cost == b.cost
            assert dict(a.rects) == dict(b.rects)

    def test_memoizing_batch_uses_vector_path(self, monkeypatch):
        pytest.importorskip("numpy")
        monkeypatch.delenv("REPRO_VECTORIZE", raising=False)
        memo = MemoizingInstantiator(PlacementInstantiator(build_structure()))
        assert memo.vector_ready()
        batch = [all_dims(2, 5, 5), all_dims(2, 6, 6), all_dims(2, 5, 5)]
        first = instantiate_batch(memo, batch)
        assert memo.vector_stats()["batch_evals"] >= 1
        sweeps = memo.vector_stats()["batch_evals"]
        # Replaying the batch answers from the memo table: no new sweep.
        again = instantiate_batch(memo, batch)
        assert memo.vector_stats()["batch_evals"] == sweeps
        for a, b in zip(first, again):
            assert a is b
