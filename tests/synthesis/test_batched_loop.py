"""Tests for the batched (``workers > 0``) synthesis path."""

import pytest

from repro.eval.batch import vectorize_enabled
from repro.eval.vector import numpy_available
from repro.parallel.placer import ParallelPlacer
from repro.synthesis.loop import LayoutInclusiveSynthesis, SynthesisConfig
from repro.synthesis.opamp_design import two_stage_opamp_design
from repro.synthesis.optimizer import SizingOptimizerConfig


def run_loop(workers, max_iterations=10, seed=0, backend=None):
    design = two_stage_opamp_design()
    loop = LayoutInclusiveSynthesis(
        design.sizing_model,
        design.performance_model,
        design.spec,
        backend if backend is not None else {"kind": "template"},
        config=SynthesisConfig(
            optimizer=SizingOptimizerConfig(max_iterations=max_iterations),
            workers=workers,
        ),
        seed=seed,
    )
    return loop.run()


class TestBatchedSynthesis:
    def test_bit_identical_across_worker_counts(self):
        results = {workers: run_loop(workers) for workers in (1, 2, 4)}
        reference = results[1]
        for workers in (2, 4):
            result = results[workers]
            assert result.history == reference.history
            assert result.evaluations == reference.evaluations
            assert result.best.objective == reference.best.objective
            assert dict(result.best.placement.rects) == dict(
                reference.best.placement.rects
            )

    def test_stochastic_backend_bit_identical_across_worker_counts(self):
        # Regression: annealing carries RNG state across queries, so without
        # per-query reseeding the trajectory used to drift with sharding.
        backend_spec = {"kind": "annealing", "iterations": 40, "seed": 7}
        results = {
            workers: run_loop(workers, max_iterations=6, backend=dict(backend_spec))
            for workers in (1, 2, 4)
        }
        reference = results[1]
        assert reference.backend == "parallel"  # wrapped with reseed="per_query"
        for workers in (2, 4):
            assert results[workers].history == reference.history
            assert results[workers].best.objective == reference.best.objective

    def test_spec_backend_wrapped_in_parallel(self):
        result = run_loop(2)
        assert result.backend == "parallel"
        assert result.backend_stats["workers"] == 2

    def test_workers_one_does_not_wrap(self):
        result = run_loop(1)
        assert result.backend == "template"

    def test_hand_built_placer_never_wrapped(self):
        design = two_stage_opamp_design()
        backend = ParallelPlacer(design.circuit, {"kind": "template"}, workers=2)
        with backend:
            result = run_loop(3, backend=backend)
        assert result.backend == "parallel"

    def test_batched_run_reports_the_inner_engine_counters(self):
        # The parallel wrapper counts its workers' events under the inner
        # engine's own names, which is where the result's views look.
        genetic = run_loop(
            2,
            max_iterations=2,
            backend={"kind": "genetic", "population": 8, "generations": 2, "seed": 7},
        )
        assert genetic.backend == "parallel"
        sweeps = genetic.vector_eval_stats
        if vectorize_enabled() and numpy_available():
            assert sweeps["batch_evals"] > 0
        else:
            assert sweeps["vector_fallbacks"] > 0
        annealing = run_loop(
            2, max_iterations=2, backend={"kind": "annealing", "iterations": 20, "seed": 7}
        )
        assert annealing.incremental_eval_stats["delta_moves"] > 0

    def test_respects_iteration_budget_and_tracks_best(self):
        result = run_loop(2, max_iterations=9)
        # The initial evaluation plus at most max_iterations candidates.
        assert result.evaluations <= 9 + 1 + 1
        assert result.best.objective <= min(result.history) + 1e-9
        assert result.history[0] >= result.best.objective

    def test_different_seeds_diverge(self):
        a = run_loop(2, seed=0)
        b = run_loop(2, seed=1)
        assert a.history != b.history

    def test_sequential_path_untouched_by_default(self):
        sequential = run_loop(0)
        assert sequential.backend == "template"
        assert len(sequential.history) >= 1
