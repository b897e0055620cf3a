"""Tests for the unified, frozen Placement result."""

import pytest

from repro.api import Placement
from repro.cost.cost_function import CostBreakdown
from repro.geometry.rect import Rect


def breakdown(total=10.0):
    return CostBreakdown(total=total, wirelength=total, area=0.0)


def make_placement(**overrides):
    kwargs = dict(
        rects={"a": Rect(0, 0, 4, 4), "b": Rect(4, 0, 4, 4)},
        cost=breakdown(),
        placer="template",
        source="template",
        elapsed_seconds=0.01,
        metadata={"dims": ((4, 4), (4, 4)), "placement_index": 2},
    )
    kwargs.update(overrides)
    return Placement(**kwargs)


class TestImmutability:
    def test_rects_cannot_be_mutated(self):
        placement = make_placement()
        with pytest.raises(TypeError):
            placement.rects["a"] = Rect(1, 1, 2, 2)
        with pytest.raises(TypeError):
            del placement.rects["a"]
        # The mutating dict API is simply absent from the immutable view.
        assert not hasattr(placement.rects, "clear")

    def test_metadata_cannot_be_mutated(self):
        placement = make_placement()
        with pytest.raises(TypeError):
            placement.metadata["dims"] = ()

    def test_owns_copy_of_source_dict(self):
        source = {"a": Rect(0, 0, 4, 4)}
        placement = make_placement(rects=source)
        source["a"] = Rect(9, 9, 1, 1)
        source["b"] = Rect(0, 0, 1, 1)
        assert placement.rects["a"] == Rect(0, 0, 4, 4)
        assert set(placement.rects) == {"a"}

    def test_fields_are_frozen(self):
        placement = make_placement()
        with pytest.raises(AttributeError):
            placement.placer = "other"


class TestProperties:
    def test_total_cost(self):
        assert make_placement().total_cost == pytest.approx(10.0)

    def test_tier_predicates(self):
        assert make_placement(source="structure").from_structure
        assert make_placement(source="structure").used_stored_placement
        assert make_placement(source="nearest").used_stored_placement
        assert not make_placement(source="nearest").from_structure
        assert not make_placement(source="fallback").used_stored_placement
        assert not make_placement(source="template").used_stored_placement

    def test_metadata_accessors(self):
        placement = make_placement()
        assert placement.dims == ((4, 4), (4, 4))
        assert placement.placement_index == 2
        bare = make_placement(metadata={})
        assert bare.dims is None
        assert bare.placement_index is None

    def test_anchors_follow_rect_order(self):
        assert make_placement().anchors() == ((0, 0), (4, 0))

    def test_with_metadata_merges(self):
        placement = make_placement().with_metadata(from_memo=True)
        assert placement.metadata["from_memo"] is True
        assert placement.placement_index == 2

    def test_as_dict_is_plain_data(self):
        data = make_placement().as_dict()
        assert data["placer"] == "template"
        assert data["rects"]["a"] == (0, 0, 4, 4)
        assert data["metadata"] == {"placement_index": 2}


class TestBackendStateIsolation:
    """Regression: no engine may leak a mutable reference to its internals."""

    def test_template_fixed_anchors_survive_caller_mutation(self):
        from repro.api import make_placer
        from tests.conftest import build_chain_circuit

        circuit = build_chain_circuit(4)
        placer = make_placer({"kind": "template"}, circuit)
        dims = [(6, 6)] * 4
        first = placer.place(dims)
        # The old TemplateBackend returned the placer's dict by reference;
        # callers could (and one day would) mutate backend state through it.
        with pytest.raises(TypeError):
            first.rects["m0"] = Rect(99, 99, 1, 1)
        second = placer.place(dims)
        assert dict(second.rects) == dict(first.rects)

    def test_memoized_service_results_are_tamper_proof(self, tmp_path):
        from repro.api import make_placer
        from tests.conftest import build_chain_circuit

        circuit = build_chain_circuit(4)
        placer = make_placer(
            {"kind": "service", "registry": str(tmp_path / "reg"), "scale": "smoke"},
            circuit,
        )
        dims = [(6, 6)] * 4
        first = placer.place(dims)
        with pytest.raises(TypeError):
            del first.rects["m0"]
        # The memoized entry served to the next caller is unchanged.
        assert dict(placer.place(dims).rects) == dict(first.rects)


def test_clean_imports_do_not_warn():
    """Importing the packages stays warning-free."""
    import importlib
    import warnings

    import repro
    import repro.baselines
    import repro.core
    import repro.synthesis

    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        for module in (repro, repro.baselines, repro.core, repro.synthesis):
            importlib.reload(module)


def test_pre_unification_names_are_gone():
    """The old result-type aliases and backend module no longer import."""
    from repro.synthesis.loop import SynthesisResult

    with pytest.raises(ImportError):
        from repro.baselines.base import PlacementResult  # noqa: F401
    with pytest.raises(ImportError):
        from repro.baselines import PlacementResult  # noqa: F401,F811
    with pytest.raises(ImportError):
        from repro.core.instantiator import InstantiatedPlacement  # noqa: F401
    with pytest.raises(ImportError):
        from repro.core import InstantiatedPlacement  # noqa: F401,F811
    with pytest.raises(ImportError):
        from repro.synthesis import BackendPlacement  # noqa: F401
    with pytest.raises(ModuleNotFoundError):
        import repro.synthesis.backends  # noqa: F401
    assert not hasattr(SynthesisResult, "service_stats")
