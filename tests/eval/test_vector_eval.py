"""The vectorized batch kernels reproduce the scalar cost oracle bitwise.

Every test compares :class:`~repro.eval.BatchEvaluator` output against
``PlacementCostFunction.evaluate_layout`` with *exact* float equality —
dataclass ``==`` on :class:`CostBreakdown` compares every component bit
for bit.  Randomized layouts include negative anchors, out-of-bounds and
heavily overlapping placements, so each penalty term is exercised off its
zero branch.
"""

import random

import pytest

from repro.circuit.builder import CircuitBuilder
from repro.core.instantiator import PlacementInstantiator
from repro.core.intervals import Interval
from repro.core.placement_entry import DimensionRange
from repro.core.structure import MultiPlacementStructure
from repro.cost.cost_function import CostWeights, PlacementCostFunction
from repro.eval.batch import batch_evaluator_for, vectorize_enabled
from repro.eval.vector import VECTORIZABLE_MODELS, BatchEvaluator, numpy_available
from repro.geometry.floorplan import FloorplanBounds
from repro.geometry.overlap import any_overlap
from repro.geometry.rect import Rect
from tests.conftest import build_chain_circuit

np = pytest.importorskip("numpy")

ALL_WEIGHTS = CostWeights(
    wirelength=1.0,
    area=0.05,
    overlap=7.5,
    out_of_bounds=11.0,
    symmetry=3.0,
    aspect_ratio=0.75,
    routability=0.125,
)


def build_rich_circuit(seed: int = 0, num_blocks: int = 7):
    """A circuit with off-center pins, weighted/external nets and symmetry."""
    rng = random.Random(seed)
    builder = CircuitBuilder(f"rich{seed}")
    for i in range(num_blocks):
        builder.block(
            f"b{i}",
            3,
            10,
            3,
            10,
            pins={
                "c": (0.5, 0.5),
                "p": (round(rng.random(), 2), round(rng.random(), 2)),
            },
        )
    # Nets of degree 1..4 with non-unit weights; the degree-1 case is the
    # external net, where the I/O point makes it a legal 2-point net.
    names = [f"b{i}" for i in range(num_blocks)]
    for n in range(6):
        degree = rng.randint(1, 4) if n == 0 else rng.randint(2, 4)
        attached = rng.sample(names, degree)
        builder.net(
            f"n{n}",
            *[(block, rng.choice(["c", "p"])) for block in attached],
            weight=round(0.5 + rng.random(), 2),
            external=(n == 0),
            io_position=(0.0, 0.25),
        )
    builder.symmetry("g0", pairs=[("b0", "b1")], self_symmetric=["b2"])
    builder.symmetry("g1", pairs=[("b3", "b4"), ("b5", "b6")])
    return builder.build()


def random_layouts(circuit, bounds, rng, count):
    """Anchors/dims batches spanning legal, overlapping and out-of-bounds."""
    anchors_batch, dims_batch = [], []
    for _ in range(count):
        anchors, dims = [], []
        for block in circuit.blocks:
            w = rng.randint(block.min_w, block.max_w)
            h = rng.randint(block.min_h, block.max_h)
            anchors.append((rng.randint(-5, bounds.width - 2), rng.randint(-5, bounds.height - 2)))
            dims.append((w, h))
        anchors_batch.append(tuple(anchors))
        dims_batch.append(tuple(dims))
    return anchors_batch, dims_batch


class TestBitwiseEquivalence:
    @pytest.mark.parametrize("model", sorted(VECTORIZABLE_MODELS))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_all_terms_match_scalar_oracle_exactly(self, model, seed):
        circuit = build_rich_circuit(seed)
        bounds = FloorplanBounds(48, 40)
        cost = PlacementCostFunction(
            circuit, bounds, weights=ALL_WEIGHTS, wirelength_model=model
        )
        evaluator = cost.batch()
        rng = random.Random(100 + seed)
        anchors_batch, dims_batch = random_layouts(circuit, bounds, rng, 23)
        batch = evaluator.evaluate_batch(evaluator.stack(anchors_batch, dims_batch))
        for i, (anchors, dims) in enumerate(zip(anchors_batch, dims_batch)):
            assert batch.breakdown(i) == cost.evaluate_layout(anchors, dims)

    @pytest.mark.parametrize("model", sorted(VECTORIZABLE_MODELS))
    def test_no_bounds_cost_matches(self, model):
        # Without bounds there is no external I/O point, no out-of-bounds
        # term and no RUDY grid — those terms gate off exactly as scalar.
        circuit = build_rich_circuit(3)
        cost = PlacementCostFunction(
            circuit, None, weights=ALL_WEIGHTS, wirelength_model=model
        )
        evaluator = cost.batch()
        rng = random.Random(7)
        anchors_batch, dims_batch = random_layouts(circuit, FloorplanBounds(48, 40), rng, 9)
        batch = evaluator.evaluate_batch(evaluator.stack(anchors_batch, dims_batch))
        for i, (anchors, dims) in enumerate(zip(anchors_batch, dims_batch)):
            assert batch.breakdown(i) == cost.evaluate_layout(anchors, dims)

    def test_shared_dims_broadcast_matches_per_candidate(self):
        circuit = build_chain_circuit(4)
        bounds = FloorplanBounds(60, 60)
        cost = PlacementCostFunction(circuit, bounds, weights=ALL_WEIGHTS)
        evaluator = cost.batch()
        rng = random.Random(5)
        anchors_batch, _ = random_layouts(circuit, bounds, rng, 11)
        dims = tuple((6, 7) for _ in circuit.blocks)
        shared = evaluator.totals(evaluator.stack(anchors_batch, dims))
        per_candidate = evaluator.totals(
            evaluator.stack(anchors_batch, [dims] * len(anchors_batch))
        )
        assert shared.tolist() == per_candidate.tolist()
        for total, anchors in zip(shared.tolist(), anchors_batch):
            assert total == cost.evaluate_layout(anchors, dims).total

    def test_chunked_evaluation_matches_unchunked(self):
        circuit = build_chain_circuit(3)
        bounds = FloorplanBounds(60, 60)
        cost = PlacementCostFunction(circuit, bounds, weights=ALL_WEIGHTS)
        evaluator = cost.batch()
        rng = random.Random(9)
        anchors_batch, dims_batch = random_layouts(circuit, bounds, rng, 17)
        rects = evaluator.stack(anchors_batch, dims_batch)
        whole = evaluator.evaluate_batch(rects)
        evaluator._chunk = 4  # force the candidate-slice path
        sliced = evaluator.evaluate_batch(rects)
        assert whole.total.tolist() == sliced.total.tolist()
        assert whole.routability.tolist() == sliced.routability.tolist()
        assert len(sliced) == 17

    def test_empty_batch(self):
        circuit = build_chain_circuit(3)
        cost = PlacementCostFunction(circuit, FloorplanBounds(60, 60))
        evaluator = cost.batch()
        rects = evaluator.stack(np.zeros((0, 3, 2), dtype=np.int64), [(5, 5)] * 3)
        batch = evaluator.evaluate_batch(rects)
        assert len(batch) == 0
        assert evaluator.feasible_mask(rects).shape == (0,)

    def test_breakdown_helpers(self):
        circuit = build_chain_circuit(3)
        bounds = FloorplanBounds(60, 60)
        cost = PlacementCostFunction(circuit, bounds)
        evaluator = cost.batch()
        anchors_batch = [((0, 0), (20, 0), (40, 0)), ((0, 0), (6, 0), (12, 0))]
        dims = [(5, 5)] * 3
        batch = evaluator.evaluate_batch(evaluator.stack(anchors_batch, dims))
        assert len(batch.breakdowns()) == 2
        totals = batch.total
        assert batch.best_index() == (0 if totals[0] < totals[1] else 1)


class TestFeasibleMask:
    def test_matches_scalar_legality_checks(self):
        circuit = build_rich_circuit(11)
        bounds = FloorplanBounds(48, 40)
        cost = PlacementCostFunction(circuit, bounds)
        evaluator = cost.batch()
        rng = random.Random(13)
        anchors_batch, dims_batch = random_layouts(circuit, bounds, rng, 40)
        mask = evaluator.feasible_mask(evaluator.stack(anchors_batch, dims_batch))
        hits = 0
        for got, anchors, dims in zip(mask.tolist(), anchors_batch, dims_batch):
            rects = [Rect(x, y, w, h) for (x, y), (w, h) in zip(anchors, dims)]
            expected = all(bounds.contains(r) for r in rects) and not any_overlap(rects)
            assert got == expected
            hits += got
        # The random batch must exercise both branches.
        assert 0 < hits < len(anchors_batch) or len(anchors_batch) == 0

    def test_requires_bounds(self):
        circuit = build_chain_circuit(2)
        evaluator = PlacementCostFunction(circuit, None).batch()
        with pytest.raises(ValueError, match="bounds"):
            evaluator.feasible_mask(
                evaluator.stack([((0, 0), (10, 0))], [(5, 5), (5, 5)])
            )


class TestValidation:
    @pytest.fixture
    def evaluator(self):
        return PlacementCostFunction(build_chain_circuit(3), FloorplanBounds(60, 60)).batch()

    def test_wrong_block_count_rejected(self, evaluator):
        with pytest.raises(ValueError, match="shape"):
            evaluator.stack([((0, 0), (5, 0))], [(5, 5)] * 3)

    def test_wrong_dims_shape_rejected(self, evaluator):
        with pytest.raises(ValueError, match="dims"):
            evaluator.stack([((0, 0), (5, 0), (10, 0))], [(5, 5)] * 2)

    def test_float_tensor_rejected(self, evaluator):
        rects = np.zeros((2, 3, 4), dtype=np.float64)
        with pytest.raises(TypeError, match="integer"):
            evaluator.evaluate_batch(rects)

    def test_negative_dims_rejected(self, evaluator):
        rects = np.zeros((1, 3, 4), dtype=np.int64)
        rects[0, 1, 2] = -3
        with pytest.raises(ValueError, match="non-negative"):
            evaluator.evaluate_batch(rects)

    def test_mst_model_rejected(self):
        cost = PlacementCostFunction(
            build_chain_circuit(3), FloorplanBounds(60, 60), wirelength_model="mst"
        )
        with pytest.raises(ValueError, match="mst"):
            cost.batch()
        assert batch_evaluator_for(cost) is None

    def test_overriding_subclass_rejected(self):
        class TaxedCost(PlacementCostFunction):
            def evaluate(self, rects):
                breakdown = super().evaluate(rects)
                return type(breakdown)(**{**breakdown.as_dict()})

        cost = TaxedCost(build_chain_circuit(3), FloorplanBounds(60, 60))
        assert not cost.supports_vectorized
        with pytest.raises(TypeError, match="array-evaluated"):
            BatchEvaluator(cost)
        assert batch_evaluator_for(cost) is None

    def test_overriding_compose_rejected(self):
        class ComposeCost(PlacementCostFunction):
            @staticmethod
            def compose(weights, wirelength, area, **terms):
                return PlacementCostFunction.compose(weights, wirelength, area, **terms)

        cost = ComposeCost(build_chain_circuit(3), FloorplanBounds(60, 60))
        assert cost.supports_incremental
        assert not cost.supports_vectorized
        assert batch_evaluator_for(cost) is None


class TestPathSelection:
    def test_env_gate_forces_scalar_fallback(self, monkeypatch, chain_cost_function):
        monkeypatch.setenv("REPRO_VECTORIZE", "0")
        assert not vectorize_enabled()
        assert batch_evaluator_for(chain_cost_function) is None

    def test_vector_path_matches_scalar_bitwise(self, monkeypatch, chain_cost_function):
        monkeypatch.delenv("REPRO_VECTORIZE", raising=False)
        anchors = [
            ((0, 0), (10, 0), (20, 0), (30, 0)),
            ((0, 0), (6, 0), (12, 0), (18, 0)),
        ]
        dims = [(5, 5)] * 4
        evaluator = batch_evaluator_for(chain_cost_function)
        assert evaluator is not None
        stacked = evaluator.stack(anchors, dims)
        totals = evaluator.totals(stacked).tolist()
        breakdowns = evaluator.breakdowns(stacked)
        for total, breakdown, anchor_vec in zip(totals, breakdowns, anchors):
            scalar = chain_cost_function.evaluate_layout(anchor_vec, dims)
            assert total == scalar.total
            assert breakdown == scalar

    def test_evaluator_cached_per_cost_function(self, monkeypatch, chain_cost_function):
        monkeypatch.delenv("REPRO_VECTORIZE", raising=False)
        first = batch_evaluator_for(chain_cost_function)
        assert first is not None
        assert batch_evaluator_for(chain_cost_function) is first


class TestInstantiatorVectorPath:
    @staticmethod
    def build_structure(n_stored=6):
        circuit = build_chain_circuit(3)
        structure = MultiPlacementStructure(circuit, FloorplanBounds(80, 80))
        rng = random.Random(7)
        for k in range(n_stored):
            xs = sorted(rng.sample(range(0, 60, 4), 3))
            best = 9.0 + rng.random() * 5
            structure.add_placement(
                anchors=[(x, rng.randrange(0, 40, 2)) for x in xs],
                ranges=[DimensionRange(Interval(4, 8), Interval(4, 8)) for _ in range(3)],
                average_cost=best + 1.0,
                best_cost=best,
                best_dims=[(6, 6)] * 3,
            )
        structure.set_fallback([(0, 60), (25, 60), (50, 60)])
        return structure

    @staticmethod
    def queries(count=30):
        rng = random.Random(11)
        return [[(rng.randint(1, 14), rng.randint(1, 14)) for _ in range(3)] for _ in range(count)]

    def test_instantiate_many_matches_scalar_loop(self, monkeypatch):
        queries = self.queries()
        monkeypatch.setenv("REPRO_VECTORIZE", "0")
        scalar = PlacementInstantiator(self.build_structure())
        expected = [scalar.instantiate(q) for q in queries]
        monkeypatch.delenv("REPRO_VECTORIZE")
        vectorized = PlacementInstantiator(self.build_structure())
        assert vectorized.vector_ready()
        got = vectorized.instantiate_many(queries)
        for a, b in zip(expected, got):
            assert dict(a.rects) == dict(b.rects)
            assert a.cost == b.cost
            assert a.source == b.source
            assert a.metadata["placement_index"] == b.metadata["placement_index"]

    def test_tier_hit_stats_identical_both_paths(self, monkeypatch):
        """The vectorized stored-placement sweep picks the same winners."""
        queries = self.queries()
        tier_keys = ("queries", "structure_hits", "nearest_hits", "fallback_hits")
        monkeypatch.setenv("REPRO_VECTORIZE", "0")
        scalar = PlacementInstantiator(self.build_structure())
        for q in queries:
            scalar.place(q)
        scalar_tiers = {k: scalar.stats()[k] for k in tier_keys}
        assert scalar.vector_stats() == {
            "batch_evals": 0,
            "batch_candidates": 0,
            "vector_fallbacks": 0,
        }
        monkeypatch.delenv("REPRO_VECTORIZE")
        vectorized = PlacementInstantiator(self.build_structure())
        for q in queries:
            vectorized.place(q)
        assert {k: vectorized.stats()[k] for k in tier_keys} == scalar_tiers
        # Every uncovered query ran one feasibility sweep over the six
        # stored placements.
        uncovered = scalar_tiers["nearest_hits"] + scalar_tiers["fallback_hits"]
        vector_stats = vectorized.vector_stats()
        assert vector_stats["batch_evals"] == uncovered
        assert vector_stats["batch_candidates"] == uncovered * 6
        assert vector_stats["vector_fallbacks"] == 0

    def test_instantiate_many_fallback_counts(self, monkeypatch):
        monkeypatch.setenv("REPRO_VECTORIZE", "0")
        instantiator = PlacementInstantiator(self.build_structure())
        assert not instantiator.vector_ready()
        results = instantiator.instantiate_many(self.queries(5))
        assert len(results) == 5
        assert instantiator.vector_stats()["vector_fallbacks"] == 1

    def test_place_batch_uses_vector_path(self, monkeypatch):
        monkeypatch.delenv("REPRO_VECTORIZE", raising=False)
        instantiator = PlacementInstantiator(self.build_structure())
        results = instantiator.place_batch(self.queries(12))
        assert len(results) == 12
        assert instantiator.vector_stats()["batch_evals"] >= 1
        stats = instantiator.stats()
        assert stats["queries"] >= 1
        assert "batch_candidates" in stats


def test_numpy_available_in_test_environment():
    assert numpy_available()
