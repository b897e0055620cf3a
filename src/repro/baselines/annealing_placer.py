"""Per-instance simulated annealing placement (KOAN/ANAGRAM-style baseline).

This is the optimization-based approach whose "major drawback is
convergence time which makes it hard to use in a layout-inclusive sizing
process" — it re-anneals the block coordinates from scratch for every
dimension vector, producing high-quality placements slowly.

The inner loop runs through the incremental evaluation engine
(:mod:`repro.eval`) by default: each proposal is priced by delta over the
nets and neighbourhoods it touches instead of re-scoring the whole
layout, with a bit-identical cost trajectory for a fixed seed.  Set
``AnnealingPlacerConfig(incremental=False)`` to force the historical
from-scratch path (the comparison baseline of
``benchmarks/bench_incremental_eval.py``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from repro.annealing.annealer import SimulatedAnnealer
from repro.annealing.schedule import AdaptiveSchedule
from repro.baselines.base import CircuitPlacer, Dims, Placement
from repro.baselines.random_placer import RandomPlacer
from repro.cost.cost_function import CostWeights
from repro.eval.engines import PerturbDeltaEngine, anchor_update
from repro.eval.incremental import IncrementalEvaluator
from repro.utils.rng import make_rng
from repro.utils.timer import Timer

Anchor = Tuple[int, int]


@dataclass(frozen=True)
class AnnealingPlacerConfig:
    """Tuning knobs of the per-instance annealing placer."""

    max_iterations: int = 3000
    moves_per_temperature: int = 25
    initial_temperature_fraction: float = 0.4
    alpha: float = 0.92
    #: Fraction of blocks moved per proposal.
    perturb_fraction: float = 0.3
    #: Maximum move distance as a fraction of the floorplan side.
    perturb_step_fraction: float = 0.35
    #: Probability of swapping two blocks' anchors instead of translating.
    swap_probability: float = 0.25
    #: Price proposals by delta through :mod:`repro.eval` (same trajectory,
    #: much faster); ``False`` re-scores every proposal from scratch.
    incremental: bool = True

    def scaled(self, factor: float) -> "AnnealingPlacerConfig":
        """Copy with the iteration budget scaled by ``factor``."""
        return replace(self, max_iterations=max(1, int(self.max_iterations * factor)))


class AnnealingPlacer(CircuitPlacer):
    """Anneal block anchors from scratch for every dimension vector."""

    name = "annealing"

    def __init__(
        self,
        *args,
        config: AnnealingPlacerConfig = AnnealingPlacerConfig(),
        seed: Optional[int] = 0,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self._config = config
        self._rng = make_rng(seed)
        # Intermediate states may overlap or leave the canvas, so the cost
        # used *during* annealing adds legalization penalties; the returned
        # result is scored with the caller's weights.
        self._anneal_cost = self._cost_function
        if self._cost_function.weights.overlap == 0.0:
            weights = self._cost_function.weights.with_legalization()
            self._anneal_cost = type(self._cost_function)(
                self._circuit, self._bounds, weights=weights
            )

    @property
    def config(self) -> AnnealingPlacerConfig:
        """The configuration in use."""
        return self._config

    def place(self, dims: Sequence[Dims]) -> Placement:
        clamped = self._clamp_dims(dims)
        with Timer() as timer:
            anchors = self._anneal(clamped)
        return self._result(anchors, clamped, timer.elapsed)

    # ------------------------------------------------------------------ #
    # Annealing internals
    # ------------------------------------------------------------------ #
    def _anneal(self, dims: Tuple[Dims, ...]) -> Tuple[Anchor, ...]:
        config = self._config
        initial = self._initial_anchors(dims)
        use_incremental = config.incremental and self._anneal_cost.supports_incremental

        evaluator: Optional[IncrementalEvaluator] = None
        if use_incremental:
            evaluator = self._anneal_cost.bind(initial, dims)
            initial_cost = evaluator.total
        else:
            initial_cost = self._anneal_cost.evaluate_layout(initial, dims).total
        schedule = AdaptiveSchedule(
            reference_cost=max(initial_cost, 1e-9),
            fraction=config.initial_temperature_fraction,
            alpha=config.alpha,
        )
        if evaluator is not None:
            annealer: SimulatedAnnealer = SimulatedAnnealer(
                schedule=schedule,
                moves_per_temperature=config.moves_per_temperature,
                max_iterations=config.max_iterations,
                seed=self._rng,
            )
            engine = PerturbDeltaEngine(
                evaluator,
                initial,
                lambda anchors, rng: self._perturb(anchors, dims, rng),
                anchor_update,
            )
            best = annealer.run_incremental(engine).best_state
            self._metrics.merge_counters(evaluator.stats(), prefix="delta_")
            return best

        def evaluate(anchors: Tuple[Anchor, ...]) -> float:
            return self._anneal_cost.evaluate_layout(anchors, dims).total

        def propose(anchors: Tuple[Anchor, ...], rng: random.Random) -> Tuple[Anchor, ...]:
            return self._perturb(anchors, dims, rng)

        annealer = SimulatedAnnealer(
            evaluate=evaluate,
            propose=propose,
            schedule=schedule,
            moves_per_temperature=config.moves_per_temperature,
            max_iterations=config.max_iterations,
            seed=self._rng,
        )
        return annealer.run(initial).best_state

    def _initial_anchors(self, dims: Tuple[Dims, ...]) -> Tuple[Anchor, ...]:
        placer = RandomPlacer(
            self._circuit,
            self._bounds,
            weights=CostWeights(),
            seed=self._rng.getrandbits(32),
        )
        result = placer.place(dims)
        return tuple(
            (result.rects[block.name].x, result.rects[block.name].y)
            for block in self._circuit.blocks
        )

    def _perturb(
        self,
        anchors: Tuple[Anchor, ...],
        dims: Tuple[Dims, ...],
        rng: random.Random,
    ) -> Tuple[Anchor, ...]:
        config = self._config
        new_anchors: List[Anchor] = list(anchors)
        if len(anchors) >= 2 and rng.random() < config.swap_probability:
            i, j = rng.sample(range(len(anchors)), 2)
            new_anchors[i], new_anchors[j] = new_anchors[j], new_anchors[i]
            return tuple(new_anchors)
        count = max(1, int(round(len(anchors) * config.perturb_fraction)))
        max_dx = max(1, int(self._bounds.width * config.perturb_step_fraction))
        max_dy = max(1, int(self._bounds.height * config.perturb_step_fraction))
        for block_index in rng.sample(range(len(anchors)), min(count, len(anchors))):
            x, y = new_anchors[block_index]
            w, h = dims[block_index]
            new_x = x + rng.randint(-max_dx, max_dx)
            new_y = y + rng.randint(-max_dy, max_dy)
            new_anchors[block_index] = self._bounds.clamp_anchor(new_x, new_y, w, h)
        return tuple(new_anchors)
