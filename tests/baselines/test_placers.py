"""Tests for the baseline placers (template, annealing, genetic, random)."""

import pytest

from repro.baselines.annealing_placer import AnnealingPlacer, AnnealingPlacerConfig
from repro.baselines.genetic import GeneticPlacer, GeneticPlacerConfig
from repro.baselines.random_placer import RandomPlacer
from repro.baselines.template import MODE_ADAPTIVE, MODE_FIXED, TemplatePlacer
from repro.geometry.floorplan import FloorplanBounds
from tests.conftest import build_chain_circuit


def mid_dims(circuit):
    return [((b.min_w + b.max_w) // 2, (b.min_h + b.max_h) // 2) for b in circuit.blocks]


def assert_legal(result, bounds):
    rects = list(result.rects.values())
    for i in range(len(rects)):
        assert bounds.contains(rects[i])
        for j in range(i + 1, len(rects)):
            assert not rects[i].intersects(rects[j])


@pytest.fixture
def circuit():
    return build_chain_circuit(5)


@pytest.fixture
def bounds(circuit):
    return FloorplanBounds.for_blocks(circuit.max_dims(), whitespace_factor=2.0)


class TestRandomPlacer:
    def test_produces_legal_layout(self, circuit, bounds):
        placer = RandomPlacer(circuit, bounds, seed=0)
        result = placer.place(mid_dims(circuit))
        assert_legal(result, bounds)
        assert result.placer == "random"
        assert result.total_cost > 0

    def test_clamps_out_of_bounds_dims(self, circuit, bounds):
        placer = RandomPlacer(circuit, bounds, seed=0)
        result = placer.place([(100, 100)] * circuit.num_blocks)
        for rect in result.rects.values():
            assert rect.w == 12 and rect.h == 12

    def test_wrong_dims_length_rejected(self, circuit, bounds):
        placer = RandomPlacer(circuit, bounds, seed=0)
        with pytest.raises(ValueError):
            placer.place([(5, 5)])


class TestTemplatePlacer:
    def test_fixed_mode_reuses_anchors(self, circuit, bounds):
        placer = TemplatePlacer(circuit, bounds, seed=0, mode=MODE_FIXED)
        small = placer.place([(4, 4)] * circuit.num_blocks)
        large = placer.place(mid_dims(circuit))
        anchors_small = [(r.x, r.y) for r in small.rects.values()]
        anchors_large = [(r.x, r.y) for r in large.rects.values()]
        assert anchors_small == anchors_large
        assert_legal(small, FloorplanBounds(10 ** 6, 10 ** 6))
        assert_legal(large, FloorplanBounds(10 ** 6, 10 ** 6))

    def test_adaptive_mode_repacks(self, circuit, bounds):
        placer = TemplatePlacer(circuit, bounds, seed=0, mode=MODE_ADAPTIVE)
        result = placer.place(mid_dims(circuit))
        assert_legal(result, FloorplanBounds(10 ** 6, 10 ** 6))

    def test_adaptive_never_overlaps_at_any_dims(self, circuit, bounds):
        placer = TemplatePlacer(circuit, bounds, seed=1, mode=MODE_ADAPTIVE)
        for dims in ([(4, 4)] * 5, [(12, 12)] * 5, [(4, 12), (12, 4), (8, 8), (6, 10), (10, 6)]):
            result = placer.place(dims)
            rects = list(result.rects.values())
            for i in range(len(rects)):
                for j in range(i + 1, len(rects)):
                    assert not rects[i].intersects(rects[j])

    def test_invalid_mode_rejected(self, circuit, bounds):
        with pytest.raises(ValueError):
            TemplatePlacer(circuit, bounds, mode="nope")

    def test_fixed_template_is_deterministic(self, circuit, bounds):
        a = TemplatePlacer(circuit, bounds, seed=3)
        b = TemplatePlacer(circuit, bounds, seed=3)
        dims = mid_dims(circuit)
        assert a.anchors_for(dims) == b.anchors_for(dims)


class TestAnnealingPlacer:
    def test_beats_random_placement(self, circuit, bounds):
        dims = mid_dims(circuit)
        random_result = RandomPlacer(circuit, bounds, seed=0).place(dims)
        annealed = AnnealingPlacer(
            circuit, bounds, config=AnnealingPlacerConfig(max_iterations=600), seed=0
        ).place(dims)
        assert annealed.total_cost <= random_result.total_cost
        assert_legal(annealed, bounds)

    def test_config_scaled(self):
        config = AnnealingPlacerConfig(max_iterations=1000)
        assert config.scaled(0.1).max_iterations == 100

    def test_result_reports_elapsed(self, circuit, bounds):
        result = AnnealingPlacer(
            circuit, bounds, config=AnnealingPlacerConfig(max_iterations=100), seed=0
        ).place(mid_dims(circuit))
        assert result.elapsed_seconds > 0


class TestGeneticPlacer:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            GeneticPlacerConfig(population_size=1)
        with pytest.raises(ValueError):
            GeneticPlacerConfig(population_size=4, elite_count=4)

    def test_produces_legal_layout_and_improves(self, circuit, bounds):
        dims = mid_dims(circuit)
        random_result = RandomPlacer(circuit, bounds, seed=0).place(dims)
        genetic = GeneticPlacer(
            circuit,
            bounds,
            config=GeneticPlacerConfig(population_size=12, generations=10),
            seed=0,
        ).place(dims)
        assert_legal(genetic, bounds)
        assert genetic.total_cost <= random_result.total_cost * 1.2

    def test_deterministic_with_seed(self, circuit, bounds):
        dims = mid_dims(circuit)
        config = GeneticPlacerConfig(population_size=8, generations=5)
        a = GeneticPlacer(circuit, bounds, config=config, seed=5).place(dims)
        b = GeneticPlacer(circuit, bounds, config=config, seed=5).place(dims)
        assert a.total_cost == pytest.approx(b.total_cost)


#: The fixed-seed query sequence every stats pin replays.
def pin_sequence(circuit):
    return (mid_dims(circuit), [(4, 4)] * circuit.num_blocks, mid_dims(circuit))


#: Per-engine counters after :func:`pin_sequence`, timing aside.
STATS_PINS = {
    "template": {"queries": 3},
    "random": {"queries": 3},
    "annealing": {
        "queries": 3,
        "delta_moves": 600,
        "delta_commits": 320,
        "delta_reverts": 280,
        "delta_resyncs": 0,
    },
    "annealing-scalar": {"queries": 3},
    "genetic-vectorized": {"queries": 3, "batch_evals": 15, "batch_candidates": 120},
    "genetic-scalar": {
        "queries": 3,
        "vector_fallbacks": 15,
        "delta_moves": 120,
        "delta_commits": 120,
        "delta_reverts": 0,
        "delta_resyncs": 0,
    },
}


def build_pinned_placer(kind, circuit, bounds):
    if kind == "template":
        return TemplatePlacer(circuit, bounds, seed=0)
    if kind == "random":
        return RandomPlacer(circuit, bounds, seed=0)
    if kind.startswith("annealing"):
        config = AnnealingPlacerConfig(
            max_iterations=200, incremental=kind == "annealing"
        )
        return AnnealingPlacer(circuit, bounds, config=config, seed=0)
    config = GeneticPlacerConfig(population_size=8, generations=4)
    return GeneticPlacer(circuit, bounds, config=config, seed=0)


class TestStatsPins:
    @pytest.mark.parametrize("kind", sorted(STATS_PINS))
    def test_stats_after_fixed_sequence(self, circuit, bounds, monkeypatch, kind):
        if kind == "genetic-vectorized":
            pytest.importorskip("numpy")
        monkeypatch.setenv("REPRO_VECTORIZE", "0" if kind == "genetic-scalar" else "1")
        placer = build_pinned_placer(kind, circuit, bounds)
        assert placer.stats() == {"queries": 0, "total_seconds": 0.0}
        for dims in pin_sequence(circuit):
            placer.place(dims)
        stats = placer.stats()
        assert stats.pop("total_seconds") > 0
        assert stats == STATS_PINS[kind]
