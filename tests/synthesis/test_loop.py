"""Tests for the unified placement engines and the layout-inclusive synthesis loop."""

import pytest

from repro.api import Placement, make_placer
from repro.core.generator import GeneratorConfig, MultiPlacementGenerator
from repro.core.instantiator import PlacementInstantiator
from repro.service.engine import PlacementService
from repro.service.placer import ServicePlacer
from repro.service.registry import StructureRegistry
from repro.synthesis.loop import LayoutInclusiveSynthesis, SynthesisConfig
from repro.synthesis.opamp_design import two_stage_opamp_design
from repro.synthesis.optimizer import SizingOptimizer, SizingOptimizerConfig
from repro.synthesis.sizing import DesignSpace, SizingVariable


@pytest.fixture(scope="module")
def opamp_setup():
    design = two_stage_opamp_design()
    generator = MultiPlacementGenerator(design.circuit, GeneratorConfig.smoke(seed=2))
    structure = generator.generate()
    return design, generator, structure


def default_dims(design):
    return design.sizing_model.dims_for(design.sizing_model.design_space.default_point())


class TestBackends:
    def test_mps_backend_places_all_blocks(self, opamp_setup):
        design, generator, structure = opamp_setup
        backend = PlacementInstantiator(structure, generator.cost_function)
        placement = backend.place(default_dims(design))
        assert isinstance(placement, Placement)
        assert set(placement.rects) == set(design.circuit.block_names())
        assert placement.elapsed_seconds < 0.5
        assert placement.source in ("structure", "nearest", "fallback")
        assert placement.placer == "mps"

    def test_template_backend_via_spec(self, opamp_setup):
        design, generator, _ = opamp_setup
        backend = make_placer({"kind": "template"}, design.circuit, bounds=generator.bounds)
        placement = backend.place(default_dims(design))
        assert isinstance(placement, Placement)
        assert placement.source == "template"
        assert placement.cost.total > 0

    def test_service_backend_places_all_blocks(self, opamp_setup, tmp_path):
        design, _, structure = opamp_setup
        registry = StructureRegistry(tmp_path / "registry")
        registry.put(structure, GeneratorConfig.smoke(seed=2))
        service = PlacementService(registry, default_config=GeneratorConfig.smoke(seed=2))
        backend = ServicePlacer(service, design.circuit)
        placement = backend.place(default_dims(design))
        assert isinstance(placement, Placement)
        assert set(placement.rects) == set(design.circuit.block_names())
        assert placement.placer == "service"
        assert placement.source in ("structure", "nearest", "fallback")
        assert service.stats.queries == 1
        assert backend.stats()["queries"] == 1

    def test_annealing_backend_slower_than_mps(self, opamp_setup):
        design, generator, structure = opamp_setup
        dims = default_dims(design)
        mps = PlacementInstantiator(structure, generator.cost_function).place(dims)
        annealing = make_placer(
            {"kind": "annealing", "iterations": 400}, design.circuit, bounds=generator.bounds
        )
        annealed = annealing.place(dims)
        assert annealed.elapsed_seconds > mps.elapsed_seconds


class TestSizingOptimizer:
    def test_minimizes_simple_objective(self):
        space = DesignSpace([SizingVariable("x", 0.0, 10.0, default=9.0)])
        optimizer = SizingOptimizer(
            space,
            objective=lambda point: (point["x"] - 2.0) ** 2,
            config=SizingOptimizerConfig(max_iterations=120),
            seed=0,
        )
        result = optimizer.run()
        assert abs(result.best_state["x"] - 2.0) < 1.0


class TestSynthesisLoop:
    def test_evaluate_produces_consistent_objective(self, opamp_setup):
        design, generator, structure = opamp_setup
        loop = LayoutInclusiveSynthesis(
            design.sizing_model,
            design.performance_model,
            design.spec,
            PlacementInstantiator(structure, generator.cost_function),
            seed=0,
        )
        point = design.sizing_model.design_space.default_point()
        evaluation = loop.evaluate(point)
        config = SynthesisConfig()
        expected = (
            config.spec_weight * evaluation.spec_penalty
            + config.layout_weight * evaluation.placement.cost.total
            + config.power_weight * evaluation.performance.power_mw
        )
        assert evaluation.objective == pytest.approx(expected)

    def test_run_tracks_best_and_placement_time(self, opamp_setup):
        design, generator, structure = opamp_setup
        loop = LayoutInclusiveSynthesis(
            design.sizing_model,
            design.performance_model,
            design.spec,
            PlacementInstantiator(structure, generator.cost_function),
            config=SynthesisConfig(optimizer=SizingOptimizerConfig(max_iterations=15)),
            seed=0,
        )
        result = loop.run()
        assert result.evaluations >= 15
        assert result.best.objective <= min(result.history) + 1e-9
        assert 0.0 <= result.placement_fraction <= 1.0
        assert result.backend == "mps"

    def test_annealing_backend_reports_incremental_eval_stats(self, opamp_setup):
        design, _, _ = opamp_setup
        loop = LayoutInclusiveSynthesis(
            design.sizing_model,
            design.performance_model,
            design.spec,
            {"kind": "annealing", "iterations": 40, "seed": 0},
            config=SynthesisConfig(optimizer=SizingOptimizerConfig(max_iterations=4)),
            seed=0,
        )
        result = loop.run()
        assert result.backend == "annealing"
        # The inner loop priced its moves by delta; the counters flow from
        # the placer's stats() into the synthesis result.
        stats = result.incremental_eval_stats
        assert stats["delta_moves"] > 0
        assert stats["delta_commits"] + stats["delta_reverts"] == stats["delta_moves"]

    def test_genetic_backend_reports_vector_eval_stats(self, opamp_setup, monkeypatch):
        pytest.importorskip("numpy")
        monkeypatch.delenv("REPRO_VECTORIZE", raising=False)
        design, _, _ = opamp_setup
        loop = LayoutInclusiveSynthesis(
            design.sizing_model,
            design.performance_model,
            design.spec,
            {"kind": "genetic", "population": 8, "generations": 3, "seed": 0},
            config=SynthesisConfig(optimizer=SizingOptimizerConfig(max_iterations=3)),
            seed=0,
        )
        result = loop.run()
        assert result.backend == "genetic"
        # Populations scored in vectorized sweeps; the counters flow from
        # the placer's stats() into the synthesis result.
        stats = result.vector_eval_stats
        assert stats["batch_evals"] > 0
        assert stats["batch_candidates"] >= stats["batch_evals"] * 8
        assert "vector_fallbacks" not in stats

    def test_loop_accepts_spec_dict(self, opamp_setup):
        design, _, structure = opamp_setup
        loop = LayoutInclusiveSynthesis(
            design.sizing_model,
            design.performance_model,
            design.spec,
            {"kind": "mps", "structure": structure},
            config=SynthesisConfig(optimizer=SizingOptimizerConfig(max_iterations=5)),
            seed=0,
        )
        result = loop.run()
        assert result.backend == "mps"
        assert loop.backend.spec["kind"] == "mps"
        assert result.evaluations >= 5

    def test_service_backed_run_reports_service_stats(self, opamp_setup, tmp_path):
        design, _, structure = opamp_setup
        registry = StructureRegistry(tmp_path / "registry")
        registry.put(structure, GeneratorConfig.smoke(seed=2))
        service = PlacementService(registry, default_config=GeneratorConfig.smoke(seed=2))
        loop = LayoutInclusiveSynthesis(
            design.sizing_model,
            design.performance_model,
            design.spec,
            ServicePlacer(service, design.circuit),
            config=SynthesisConfig(optimizer=SizingOptimizerConfig(max_iterations=10)),
            seed=0,
        )
        result = loop.run()
        assert result.backend == "service"
        assert result.backend_stats is not None
        assert result.backend_stats["queries"] == result.evaluations
        tier_total = (
            result.backend_stats["structure_hits"]
            + result.backend_stats["nearest_hits"]
            + result.backend_stats["fallback_hits"]
        )
        assert tier_total == result.evaluations

    def test_mps_run_reports_tier_stats(self, opamp_setup):
        design, generator, structure = opamp_setup
        loop = LayoutInclusiveSynthesis(
            design.sizing_model,
            design.performance_model,
            design.spec,
            PlacementInstantiator(structure, generator.cost_function),
            config=SynthesisConfig(optimizer=SizingOptimizerConfig(max_iterations=5)),
            seed=0,
        )
        result = loop.run()
        # The uniform stats() hook now reports for *every* engine.
        assert result.backend_stats is not None
        assert result.backend_stats["queries"] == result.evaluations

    def test_best_improves_over_default_point(self, opamp_setup):
        design, generator, structure = opamp_setup
        backend = PlacementInstantiator(structure, generator.cost_function)
        loop = LayoutInclusiveSynthesis(
            design.sizing_model,
            design.performance_model,
            design.spec,
            backend,
            config=SynthesisConfig(optimizer=SizingOptimizerConfig(max_iterations=25)),
            seed=1,
        )
        default_objective = loop.evaluate(
            design.sizing_model.design_space.default_point()
        ).objective
        result = loop.run()
        assert result.best.objective <= default_objective + 1e-9
