"""Exact service counters across the in-process, memo, pooled and routing paths.

One fixed sequence runs on a registry-backed service over a hand-built
structure whose tiers are known for every query, so each counter of
``ServiceStats.as_dict()`` has one right value.  Timing fields are only
checked to be positive.
"""

import pytest

from repro.core.generator import GeneratorConfig
from repro.core.intervals import Interval
from repro.core.placement_entry import DimensionRange
from repro.core.structure import MultiPlacementStructure
from repro.geometry.floorplan import FloorplanBounds
from repro.service.engine import PlacementService
from repro.service.registry import StructureRegistry
from tests.conftest import build_chain_circuit

CONFIG = GeneratorConfig.smoke(seed=7)

#: Inside the cheaper placement's box: the structure tier.
IN_CHEAP = [(5, 5), (6, 6)]
#: Inside the dearer placement's box: the structure tier.
IN_DEAR = [(9, 9), (9, 9)]
#: Inside the cheaper box as well, but a different vector.
IN_CHEAP_2 = [(7, 7), (7, 7)]
#: Outside both boxes; only the dearer placement is legal: the nearest tier.
NEAREST = [(11, 11), (11, 11)]
#: Outside both boxes and legal for neither: the fallback tier.
FALLBACK = [(12, 12), (12, 12)]

TIMING_FIELDS = ("total_seconds", "mean_latency_seconds", "route_seconds")


def build_structure():
    unit = DimensionRange(Interval(4, 8), Interval(4, 8))
    wide = DimensionRange(Interval(9, 10), Interval(9, 10))
    structure = MultiPlacementStructure(build_chain_circuit(2), FloorplanBounds(60, 60))
    structure.add_placement(
        anchors=[(0, 0), (10, 0)], ranges=[unit, unit], average_cost=10.0, best_cost=9.0
    )
    structure.add_placement(
        anchors=[(0, 0), (11, 0)], ranges=[wide, wide], average_cost=13.0, best_cost=12.0
    )
    structure.set_fallback([(0, 30), (25, 30)])
    return structure


@pytest.fixture
def service(tmp_path):
    registry = StructureRegistry(tmp_path / "registry")
    registry.put(build_structure(), CONFIG)
    service = PlacementService(registry, default_config=CONFIG)
    yield service
    service.close()


def run_sequence(service):
    circuit = build_chain_circuit(2)
    # In-process batch: 6 queries, 4 unique, one structure load.
    service.instantiate_batch(
        circuit, [IN_CHEAP, IN_CHEAP, NEAREST, FALLBACK, IN_DEAR, IN_CHEAP]
    )
    # A memo repeat of a query the batch already answered.
    service.instantiate(circuit, NEAREST)
    # Pooled batch: 6 queries, 5 unique, split 3 + 2 over two workers that
    # each load the structure from the registry.
    service.instantiate_batch(
        circuit,
        [IN_CHEAP, NEAREST, FALLBACK, IN_DEAR, IN_CHEAP_2, IN_CHEAP],
        workers=2,
    )
    # A routed query: a memo miss in this process, then one route.
    service.route(circuit, IN_CHEAP_2)


COMMON = {
    "queries": 14,
    "batches": 2,
    "structure_hits": 9,
    "nearest_hits": 3,
    "fallback_hits": 2,
    "memo_hits": 1,
    "dedup_hits": 3,
    "structures_loaded": 3,
    "structures_generated": 0,
    "cache_hits": 2,
    "cache_misses": 3,
    "structure_hit_rate": 9 / 14,
    "route_queries": 1,
    "route_cache_hits": 0,
}

#: Sweeps per mode.  Vectorized: each batch scores its unique answers in one
#: sweep, and each out-of-box resolution checks legality in one sweep over
#: the two stored placements (in-process 3 sweeps over 2+2+4 candidates,
#: workers 3 over 2+2+3 and 1 over 2).  Scalar: each multi-query batch that
#: reaches an instantiator counts one fallback (one here, one per worker).
SWEEPS = {
    "1": {"batch_evals": 7, "batch_candidates": 17, "vector_fallbacks": 0},
    "0": {"batch_evals": 0, "batch_candidates": 0, "vector_fallbacks": 3},
}


@pytest.mark.parametrize("vectorize", ["1", "0"])
def test_every_counter_is_pinned(service, monkeypatch, vectorize):
    if vectorize == "1":
        pytest.importorskip("numpy")
    monkeypatch.setenv("REPRO_VECTORIZE", vectorize)
    run_sequence(service)
    counters = service.snapshot().as_dict()
    expected = {**COMMON, **SWEEPS[vectorize]}
    assert set(counters) == set(expected) | set(TIMING_FIELDS)
    for name in TIMING_FIELDS:
        assert counters[name] > 0.0, name
    assert {name: counters[name] for name in expected} == expected
