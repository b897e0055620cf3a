"""Genetic-algorithm placement (the Zhang ISCAS 2002-style baseline).

Chromosomes encode the block anchors directly; selection is tournament
based, crossover mixes parents block-wise, and mutation jitters a subset of
anchors.  Like the annealing placer, legalization penalties are enabled
during evolution so illegal intermediate individuals are driven out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.baselines.base import CircuitPlacer, Dims, Placement
from repro.baselines.random_placer import RandomPlacer
from repro.cost.cost_function import CostWeights
from repro.eval.batch import batch_evaluator_for, record_batch, record_fallback
from repro.eval.incremental import IncrementalEvaluator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.eval.vector import BatchEvaluator
from repro.utils.rng import make_rng
from repro.utils.timer import Timer

Anchor = Tuple[int, int]
Chromosome = Tuple[Anchor, ...]


@dataclass(frozen=True)
class GeneticPlacerConfig:
    """Tuning knobs of the genetic placer."""

    population_size: int = 30
    generations: int = 40
    tournament_size: int = 3
    crossover_rate: float = 0.85
    mutation_rate: float = 0.25
    #: Fraction of blocks jittered per mutation.
    mutation_fraction: float = 0.3
    #: Maximum mutation distance as a fraction of the floorplan side.
    mutation_step_fraction: float = 0.3
    elite_count: int = 2
    #: Score individuals by diffing them against the incremental
    #: evaluator's current layout (mutated children re-price only their
    #: jittered anchors); ``False`` re-scores every individual from scratch.
    incremental: bool = True
    #: Score each generation's whole population in one vectorized
    #: :class:`~repro.eval.BatchEvaluator` sweep (bitwise-identical
    #: fitness, so fixed-seed trajectories are unchanged).  Falls back to
    #: the incremental/scalar path when numpy is unavailable, the cost
    #: subclass overrides evaluation, or ``REPRO_VECTORIZE=0``.
    vectorize: bool = True

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise ValueError("population_size must be at least 2")
        if self.elite_count >= self.population_size:
            raise ValueError("elite_count must be smaller than population_size")


class GeneticPlacer(CircuitPlacer):
    """Evolve block anchors for a fixed dimension vector."""

    name = "genetic"

    def __init__(
        self,
        *args,
        config: GeneticPlacerConfig = GeneticPlacerConfig(),
        seed: Optional[int] = 0,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self._config = config
        self._rng = make_rng(seed)
        self._fitness_cost = self._cost_function
        if self._cost_function.weights.overlap == 0.0:
            weights = self._cost_function.weights.with_legalization()
            self._fitness_cost = type(self._cost_function)(
                self._circuit, self._bounds, weights=weights
            )

    @property
    def config(self) -> GeneticPlacerConfig:
        """The configuration in use."""
        return self._config

    def place(self, dims: Sequence[Dims]) -> Placement:
        clamped = self._clamp_dims(dims)
        with Timer() as timer:
            anchors = self._evolve(clamped)
        return self._result(anchors, clamped, timer.elapsed)

    # ------------------------------------------------------------------ #
    # Evolution internals
    # ------------------------------------------------------------------ #
    def _evolve(self, dims: Tuple[Dims, ...]) -> Chromosome:
        config = self._config
        population = [self._random_chromosome(dims) for _ in range(config.population_size)]
        batch: Optional["BatchEvaluator"] = None
        if config.vectorize:
            batch = batch_evaluator_for(self._fitness_cost)
        evaluator: Optional[IncrementalEvaluator] = None
        if batch is None and config.incremental and self._fitness_cost.supports_incremental:
            evaluator = self._fitness_cost.bind(population[0], dims)
        scored = self._score_population(population, dims, evaluator, batch)
        scored.sort(key=lambda pair: pair[0])
        for _ in range(config.generations):
            next_population: List[Chromosome] = [ind for _, ind in scored[: config.elite_count]]
            while len(next_population) < config.population_size:
                parent_a = self._tournament(scored)
                parent_b = self._tournament(scored)
                if self._rng.random() < config.crossover_rate:
                    child = self._crossover(parent_a, parent_b)
                else:
                    child = parent_a
                if self._rng.random() < config.mutation_rate:
                    child = self._mutate(child, dims)
                next_population.append(child)
            scored = self._score_population(next_population, dims, evaluator, batch)
            scored.sort(key=lambda pair: pair[0])
        if evaluator is not None:
            self._metrics.merge_counters(evaluator.stats(), prefix="delta_")
        return scored[0][1]

    def _score_population(
        self,
        population: List[Chromosome],
        dims: Tuple[Dims, ...],
        evaluator: Optional[IncrementalEvaluator],
        batch: Optional["BatchEvaluator"],
    ) -> List[Tuple[float, Chromosome]]:
        """Fitness-score one generation, batched when vectorization is on.

        The vectorized sweep produces bitwise-identical totals, and the
        subsequent sort is stable on equal keys, so trajectories match the
        scalar/incremental path for any fixed seed.
        """
        if batch is not None:
            totals = batch.totals(batch.stack(population, dims)).tolist()
            record_batch(len(totals))
            self._metrics.merge_counters({"batch_evals": 1, "batch_candidates": len(totals)})
            return list(zip(totals, population))
        if self._config.vectorize:
            record_fallback()
            self._metrics.merge_counters({"vector_fallbacks": 1})
        return [(self._fitness(ind, dims, evaluator), ind) for ind in population]

    def _fitness(
        self,
        chromosome: Chromosome,
        dims: Tuple[Dims, ...],
        evaluator: Optional[IncrementalEvaluator] = None,
    ) -> float:
        if evaluator is not None:
            # Diff against the evaluator's current layout: elites and
            # near-duplicate children re-price only the anchors that moved.
            return evaluator.rebase(anchors=chromosome)
        return self._fitness_cost.evaluate_layout(chromosome, dims).total

    def _random_chromosome(self, dims: Tuple[Dims, ...]) -> Chromosome:
        placer = RandomPlacer(
            self._circuit,
            self._bounds,
            weights=CostWeights(),
            seed=self._rng.getrandbits(32),
            attempts=30,
        )
        result = placer.place(dims)
        return tuple(
            (result.rects[block.name].x, result.rects[block.name].y)
            for block in self._circuit.blocks
        )

    def _tournament(self, scored: List[Tuple[float, Chromosome]]) -> Chromosome:
        contenders = self._rng.sample(scored, min(self._config.tournament_size, len(scored)))
        contenders.sort(key=lambda pair: pair[0])
        return contenders[0][1]

    def _crossover(self, parent_a: Chromosome, parent_b: Chromosome) -> Chromosome:
        child = []
        for anchor_a, anchor_b in zip(parent_a, parent_b):
            child.append(anchor_a if self._rng.random() < 0.5 else anchor_b)
        return tuple(child)

    def _mutate(self, chromosome: Chromosome, dims: Tuple[Dims, ...]) -> Chromosome:
        config = self._config
        count = max(1, int(round(len(chromosome) * config.mutation_fraction)))
        max_dx = max(1, int(self._bounds.width * config.mutation_step_fraction))
        max_dy = max(1, int(self._bounds.height * config.mutation_step_fraction))
        mutated = list(chromosome)
        for block_index in self._rng.sample(range(len(chromosome)), min(count, len(chromosome))):
            x, y = mutated[block_index]
            w, h = dims[block_index]
            new_x = x + self._rng.randint(-max_dx, max_dx)
            new_y = y + self._rng.randint(-max_dy, max_dy)
            mutated[block_index] = self._bounds.clamp_anchor(new_x, new_y, w, h)
        return tuple(mutated)
