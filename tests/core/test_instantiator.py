"""Tests for placement instantiation (the online half of Figure 1.b)."""

import pytest

from repro.core.instantiator import (
    FALLBACK_TEMPLATE,
    PlacementInstantiator,
    SOURCE_FALLBACK,
    SOURCE_NEAREST,
    SOURCE_STRUCTURE,
)
from repro.core.intervals import Interval
from repro.core.placement_entry import DimensionRange
from repro.core.structure import MultiPlacementStructure
from repro.geometry.floorplan import FloorplanBounds
from repro.modgen.mosfet import FoldedMosfetGenerator
from tests.conftest import build_chain_circuit
from tests.service.test_counter_pins import (
    FALLBACK,
    IN_CHEAP,
    IN_CHEAP_2,
    IN_DEAR,
    NEAREST,
    build_structure as build_two_placement_structure,
)


def build_structure():
    circuit = build_chain_circuit(2)
    structure = MultiPlacementStructure(circuit, FloorplanBounds(60, 60))
    structure.add_placement(
        anchors=[(0, 0), (10, 0)],
        ranges=[
            DimensionRange(Interval(4, 8), Interval(4, 8)),
            DimensionRange(Interval(4, 8), Interval(4, 8)),
        ],
        average_cost=10.0,
        best_cost=9.0,
        best_dims=[(6, 6), (6, 6)],
    )
    structure.set_fallback([(0, 30), (25, 30)])
    return structure


class TestInstantiation:
    def test_covered_query_uses_structure(self):
        instantiator = PlacementInstantiator(build_structure())
        result = instantiator.instantiate([(5, 5), (6, 6)])
        assert result.source == SOURCE_STRUCTURE
        assert result.from_structure
        assert result.used_stored_placement
        assert result.placement_index == 0
        rects = list(result.rects.values())
        assert rects[0].anchor.as_tuple() == (0, 0)
        assert rects[1].anchor.as_tuple() == (10, 0)

    def test_uncovered_query_uses_nearest_stored(self):
        instantiator = PlacementInstantiator(build_structure())
        # Outside the stored box but the stored anchors remain legal.
        result = instantiator.instantiate([(10, 10), (10, 10)])
        assert result.source == SOURCE_NEAREST
        assert result.used_stored_placement
        assert not result.from_structure
        assert result.placement_index == 0

    def test_template_fallback_mode_skips_nearest(self):
        instantiator = PlacementInstantiator(build_structure(), fallback_mode=FALLBACK_TEMPLATE)
        result = instantiator.instantiate([(10, 10), (10, 10)])
        assert result.source == SOURCE_FALLBACK
        assert result.placement_index is None
        rects = list(result.rects.values())
        assert rects[0].anchor.as_tuple() == (0, 30)

    def test_fallback_used_when_stored_anchors_become_illegal(self):
        structure = build_structure()
        instantiator = PlacementInstantiator(structure)
        # Dimensions so large the stored anchors (10 apart) would overlap;
        # the fallback anchors (25 apart) must be used instead.
        result = instantiator.instantiate([(12, 12), (12, 12)])
        assert result.source == SOURCE_FALLBACK

    def test_dims_clamped_into_block_bounds(self):
        instantiator = PlacementInstantiator(build_structure())
        result = instantiator.instantiate([(1, 1), (100, 100)])
        assert result.dims[0] == (4, 4)
        assert result.dims[1] == (12, 12)

    def test_invalid_fallback_mode_rejected(self):
        with pytest.raises(ValueError):
            PlacementInstantiator(build_structure(), fallback_mode="nope")

    def test_cost_matches_rects(self):
        structure = build_structure()
        instantiator = PlacementInstantiator(structure)
        result = instantiator.instantiate([(5, 5), (6, 6)])
        from repro.cost.cost_function import PlacementCostFunction

        cost_fn = PlacementCostFunction(structure.circuit, structure.bounds)
        assert result.total_cost == pytest.approx(cost_fn.evaluate(dict(result.rects)).total)

    def test_missing_fallback_falls_back_to_packing(self):
        circuit = build_chain_circuit(2)
        structure = MultiPlacementStructure(circuit, FloorplanBounds(60, 60))
        instantiator = PlacementInstantiator(structure)
        result = instantiator.instantiate([(5, 5), (5, 5)])
        assert result.source == SOURCE_FALLBACK
        rects = list(result.rects.values())
        assert not rects[0].intersects(rects[1])

    def test_instantiate_from_params_uses_generators(self):
        structure = build_structure()
        instantiator = PlacementInstantiator(structure)
        generator = FoldedMosfetGenerator()
        result = instantiator.instantiate_from_params(
            {"m0": {"width": 20.0, "length": 0.5, "fingers": 4}},
            {"m0": generator},
        )
        expected = generator.footprint(width=20.0, length=0.5, fingers=4)
        clamped = structure.circuit.blocks[0].clamp_dims(*expected.dims)
        assert result.dims[0] == clamped
        # Block m1 has no generator: it keeps its minimum dimensions.
        assert result.dims[1] == structure.circuit.blocks[1].min_dims


#: A standalone instantiator's ``stats()`` after the sequence below.  The
#: verbs count each query they answer; ``place_batch`` answers its unique
#: queries only (4 of 6), so a batch repeat counts no query and no tier.
STANDALONE_COUNTS = {
    "queries": 9,
    "structure_hits": 5,
    "nearest_hits": 2,
    "fallback_hits": 2,
}

#: Vectorized: the two out-of-box ``place`` calls and the batch's two
#: out-of-box queries each check legality in one sweep over the 2 stored
#: placements, and the batch scores its 4 unique answers in one more.
#: Scalar: the batch falls back once.
STANDALONE_SWEEPS = {
    "1": {"batch_evals": 5, "batch_candidates": 12, "vector_fallbacks": 0},
    "0": {"batch_evals": 0, "batch_candidates": 0, "vector_fallbacks": 1},
}


@pytest.mark.parametrize("vectorize", ["1", "0"])
def test_standalone_stats_are_pinned(monkeypatch, vectorize):
    if vectorize == "1":
        pytest.importorskip("numpy")
    monkeypatch.setenv("REPRO_VECTORIZE", vectorize)
    instantiator = PlacementInstantiator(build_two_placement_structure())
    for dims in (IN_CHEAP, IN_DEAR, NEAREST, FALLBACK, IN_CHEAP_2):
        instantiator.place(dims)
    instantiator.place_batch([IN_CHEAP, IN_CHEAP, NEAREST, FALLBACK, IN_DEAR, IN_CHEAP])
    stats = instantiator.stats()
    expected = {**STANDALONE_COUNTS, **STANDALONE_SWEEPS[vectorize]}
    assert set(stats) == set(expected) | {"total_seconds"}
    assert stats["total_seconds"] > 0.0
    assert {name: stats[name] for name in expected} == expected
