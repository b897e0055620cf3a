"""Tests for the declarative placer registry (`make_placer` and friends)."""

import json

import pytest

from repro.api import Placement, Placer, available_placers, make_placer, register_placer
from repro.api.registry import normalize_spec
from tests.conftest import build_chain_circuit


@pytest.fixture
def circuit():
    return build_chain_circuit(4)


def mid_dims(circuit):
    return [((b.min_w + b.max_w) // 2, (b.min_h + b.max_h) // 2) for b in circuit.blocks]


class TestAvailable:
    def test_builtin_kinds_listed(self):
        kinds = available_placers()
        for kind in ("template", "random", "genetic", "annealing", "mps", "service"):
            assert kind in kinds


class TestSpecForms:
    def test_bare_kind_string(self, circuit):
        placer = make_placer("template", circuit)
        assert placer.name == "template"

    def test_json_string(self, circuit):
        placer = make_placer('{"kind": "annealing", "iterations": 50}', circuit)
        assert placer.name == "annealing"
        assert placer.spec == {"kind": "annealing", "iterations": 50}

    def test_invalid_json_rejected(self, circuit):
        with pytest.raises(ValueError, match="not valid JSON"):
            make_placer('{"kind": ', circuit)

    def test_missing_kind_rejected(self, circuit):
        with pytest.raises(ValueError, match="'kind'"):
            make_placer({"iterations": 10}, circuit)

    def test_non_mapping_rejected(self, circuit):
        with pytest.raises(ValueError, match="must be a mapping"):
            make_placer(42, circuit)


class TestErrors:
    def test_unknown_kind_lists_available(self, circuit):
        with pytest.raises(KeyError, match="no placement engine registered") as excinfo:
            make_placer({"kind": "quantum"}, circuit)
        assert "template" in str(excinfo.value)

    @pytest.mark.parametrize(
        "spec, allowed",
        [
            ({"kind": "annealing", "iterationz": 10}, "iterations"),
            ({"kind": "parallel", "min_batch": 2}, "start_method"),
        ],
    )
    def test_unknown_option_lists_allowed(self, circuit, spec, allowed):
        with pytest.raises(ValueError, match="invalid option") as excinfo:
            make_placer(spec, circuit)
        assert allowed in str(excinfo.value)


class TestRoundTrip:
    """spec -> placer -> spec is stable, and the spec rebuilds the placer."""

    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "template", "mode": "adaptive", "seed": 3},
            {"kind": "random", "seed": 1, "attempts": 10},
            {"kind": "genetic", "population": 8, "generations": 3, "seed": 2},
            {"kind": "annealing", "iterations": 30, "seed": 0},
        ],
    )
    def test_direct_engines_round_trip(self, circuit, spec):
        placer = make_placer(spec, circuit)
        assert placer.spec == normalize_spec(spec)
        rebuilt = make_placer(placer.spec, circuit)
        assert rebuilt.spec == placer.spec
        assert type(rebuilt) is type(placer)

    def test_structure_engines_round_trip(self, circuit, tmp_path):
        mps = make_placer({"kind": "mps", "scale": "smoke", "seed": 0}, circuit)
        assert make_placer(mps.spec, circuit).spec == mps.spec
        service = make_placer(
            {"kind": "service", "registry": str(tmp_path / "reg"), "cache": 4}, circuit
        )
        assert make_placer(service.spec, circuit).spec == service.spec

    def test_spec_is_json_serializable(self, circuit):
        placer = make_placer({"kind": "genetic", "population": 8, "generations": 3}, circuit)
        assert json.loads(json.dumps(placer.spec)) == placer.spec


class TestAllEngineFamiliesUnified:
    """Acceptance: every engine family builds via make_placer and returns Placement."""

    def test_all_four_families(self, circuit, tmp_path, generated_chain_structure):
        specs = [
            {"kind": "template"},
            {"kind": "random", "seed": 0},
            {"kind": "genetic", "population": 6, "generations": 2},
            {"kind": "annealing", "iterations": 30},
            {"kind": "mps", "structure": generated_chain_structure},
            {"kind": "service", "registry": str(tmp_path / "reg"), "scale": "smoke"},
        ]
        dims = mid_dims(circuit)
        for spec in specs:
            placer = make_placer(spec, circuit)
            assert isinstance(placer, Placer)
            placement = placer.place(dims)
            assert type(placement) is Placement
            assert set(placement.rects) == set(circuit.block_names())
            assert placement.total_cost > 0
            assert isinstance(placer.stats(), dict)

    def test_mps_structure_mismatch_rejected(self, generated_chain_structure):
        other = build_chain_circuit(5, name="other")
        with pytest.raises(ValueError, match="does not"):
            make_placer({"kind": "mps", "structure": generated_chain_structure}, other)

    def test_mps_spec_carries_cost_function(self, circuit, generated_chain_structure):
        from repro.cost.cost_function import CostWeights, PlacementCostFunction

        weights = CostWeights(wirelength=0.0, area=5.0)
        cost_fn = PlacementCostFunction(
            generated_chain_structure.circuit, generated_chain_structure.bounds, weights=weights
        )
        placer = make_placer(
            {"kind": "mps", "structure": generated_chain_structure, "cost_function": cost_fn},
            generated_chain_structure.circuit,
        )
        dims = mid_dims(generated_chain_structure.circuit)
        default = make_placer(
            {"kind": "mps", "structure": generated_chain_structure},
            generated_chain_structure.circuit,
        )
        assert placer.place(dims).total_cost != pytest.approx(
            default.place(dims).total_cost
        )

    def test_bounds_spec_entry_pins_the_canvas(self, circuit):
        from repro.geometry.floorplan import FloorplanBounds

        bounds = FloorplanBounds(500, 500)
        placer = make_placer({"kind": "template", "bounds": bounds}, circuit)
        assert placer.bounds is bounds

    def test_service_spec_adopts_structure(self, generated_chain_structure):
        placer = make_placer(
            {"kind": "service", "structure": generated_chain_structure, "scale": "smoke"},
            generated_chain_structure.circuit,
        )
        dims = mid_dims(generated_chain_structure.circuit)
        placer.place(dims)
        stats = placer.stats()
        # Served from the adopted structure: nothing was generated or loaded.
        assert stats["structures_generated"] == 0
        assert stats["structures_loaded"] == 0
        assert stats["cache_hits"] == 1


class TestCustomRegistration:
    def test_register_and_build(self, circuit):
        from repro.baselines.random_placer import RandomPlacer

        @register_placer("test-custom")
        def factory(circuit, bounds=None, *, seed=0):
            return RandomPlacer(circuit, bounds, seed=seed)

        try:
            placer = make_placer({"kind": "test-custom", "seed": 5}, circuit)
            assert placer.spec["kind"] == "test-custom"
            assert isinstance(placer.place(mid_dims(circuit)), Placement)
        finally:
            from repro.api import registry as registry_module

            registry_module._REGISTRY.pop("test-custom", None)

    def test_duplicate_kind_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_placer("template", lambda circuit, bounds=None: None)
