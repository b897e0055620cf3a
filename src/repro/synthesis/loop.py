"""The layout-inclusive synthesis loop (Figure 1.b).

Each sizing evaluation runs the full chain

    sizes -> module generators -> block dimensions -> placement backend ->
    wiring parasitics -> performance model -> spec penalty + layout cost

so the choice of placement backend directly changes both the evaluation
quality (parasitics reflect the actual floorplan) and the loop's wall-clock
time (the paper's core motivation for multi-placement structures).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Union

from repro.annealing.acceptance import metropolis_accept
from repro.annealing.schedule import AdaptiveSchedule
from repro.api import Placement, Placer, make_placer
from repro.obs.spans import is_enabled as _obs_enabled, metrics as _obs_metrics, span
from repro.route.batch import rects_key
from repro.route.result import RoutedLayout
from repro.route.router import GlobalRouter, RouterConfig, derive_bounds
from repro.synthesis.binding import CircuitSizingModel
from repro.synthesis.optimizer import SizingOptimizer, SizingOptimizerConfig
from repro.synthesis.parasitics import (
    ParasiticEstimate,
    estimate_parasitics,
    estimate_parasitics_from_routes,
)
from repro.synthesis.performance import PerformanceReport, PerformanceSpec
from repro.synthesis.sizing import SizingPoint
from repro.utils.rng import RandomLike, make_rng, stream_rng
from repro.utils.timer import Timer


#: Builtin engine kinds that answer every query independently of the
#: previous ones — safe to shard across workers without reseeding.
_STATELESS_KINDS = frozenset({"mps", "service", "template"})


def _resolve_backend(
    spec: Union[Mapping[str, object], str], circuit, config: "SynthesisConfig"
) -> Placer:
    """Build the backend for a declarative spec, honouring ``config.workers``.

    In batched mode a spec-described backend is wrapped in the
    ``parallel`` engine (unless it already is one), so the loop's batched
    candidate evaluation actually fans across processes.  Stateless kinds
    are wrapped only when there is more than one worker; every other kind
    carries hidden RNG state across queries, so it is wrapped *at any
    worker count* with ``reseed="per_query"`` — each query gets a
    deterministic seed stream, which is what keeps the trajectory
    bit-identical whether the batch runs on 1 worker or 8.  Hand-built
    :class:`Placer` instances are never wrapped — the caller controls
    their concurrency.
    """
    from repro.api.registry import normalize_spec

    normalized = normalize_spec(spec)
    kind = normalized.get("kind")
    if config.workers > 0 and kind != "parallel":
        if kind not in _STATELESS_KINDS:
            return make_placer(
                {
                    "kind": "parallel",
                    "inner": normalized,
                    "workers": config.workers,
                    "reseed": "per_query",
                },
                circuit,
            )
        if config.workers > 1:
            return make_placer(
                {"kind": "parallel", "inner": normalized, "workers": config.workers},
                circuit,
            )
    return make_placer(normalized, circuit)


@dataclass(frozen=True)
class SynthesisConfig:
    """Weights and budgets of the synthesis loop."""

    optimizer: SizingOptimizerConfig = field(default_factory=SizingOptimizerConfig)
    #: Weight of the spec-violation penalty in the sizing objective.
    spec_weight: float = 100.0
    #: Weight of the placement cost (wirelength + area) in the sizing objective.
    layout_weight: float = 0.01
    #: Weight of the power term (drives the optimizer once specs are met).
    power_weight: float = 1.0
    #: Wirelength estimator feeding the parasitics (``hpwl``/``star``/``mst``)
    #: when routing is off.
    wirelength_model: str = "hpwl"
    #: Route every placement and extract parasitics from the routed
    #: wirelength (the paper's route-and-extract step).  Slower but
    #: honest; HPWL stays the default for speed.
    routed_parasitics: bool = False
    #: Router knobs used when :attr:`routed_parasitics` is on.
    router: RouterConfig = field(default_factory=RouterConfig)
    #: Routed layouts memoized per distinct floorplan.  Sizing proposals
    #: oscillate around accepted states and collapse onto repeated
    #: placements, so revisits would otherwise re-run the whole maze
    #: search for a byte-identical result.
    route_memo_capacity: int = 256
    #: ``workers > 0`` switches :meth:`LayoutInclusiveSynthesis.run` to
    #: *batched* candidate evaluation: each temperature step proposes
    #: ``optimizer.moves_per_temperature`` candidates at once — every
    #: candidate drawing from its own deterministic RNG stream — places
    #: them through the backend's batch path (where a ``parallel`` or
    #: ``service`` backend fans them across processes), and only then runs
    #: the sequential first-accept Metropolis pass.  Because proposals and
    #: acceptance never depend on how the batch was fanned out, the
    #: trajectory is bit-identical at any worker count.  When the backend
    #: is given as a declarative spec, it is additionally wrapped in
    #: ``{"kind": "parallel", "workers": ...}`` so the batch really runs
    #: concurrently.
    workers: int = 0


@dataclass
class SynthesisEvaluation:
    """Everything produced by one sizing-point evaluation."""

    point: SizingPoint
    performance: PerformanceReport
    placement: Placement
    spec_penalty: float
    objective: float
    #: The wiring parasitics the performance model saw (records which
    #: wirelength estimator — or routed extraction — produced them).
    parasitics: Optional[ParasiticEstimate] = None


@dataclass
class SynthesisResult:
    """Outcome of one synthesis run."""

    best: SynthesisEvaluation
    evaluations: int
    elapsed_seconds: float
    placement_seconds: float
    backend: str
    #: Wall-clock seconds spent inside the global router (0 when routed
    #: parasitics are off).
    routing_seconds: float = 0.0
    history: List[float] = field(default_factory=list)
    #: The backend's uniform ``stats()`` counters (tier hits for structure
    #: engines, cache/latency stats for the service, query counts for the
    #: direct placers — including the ``delta_*`` incremental-evaluation
    #: counters of the annealing/genetic engines); ``None`` when the
    #: backend reports nothing.
    backend_stats: Optional[Dict[str, float]] = None

    @property
    def placement_fraction(self) -> float:
        """Fraction of the wall-clock time spent inside the placement backend."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.placement_seconds / self.elapsed_seconds

    @property
    def incremental_eval_stats(self) -> Dict[str, float]:
        """The placement backend's delta-evaluation counters, if any.

        Iterative backends (annealing, genetic) price their inner-loop
        moves through :mod:`repro.eval`; the ``delta_moves`` /
        ``delta_commits`` / ``delta_reverts`` / ``delta_resyncs`` counters
        they report quantify how much of the loop's placement wall-clock
        ran on the incremental path.
        """
        if not self.backend_stats:
            return {}
        return {
            key: value
            for key, value in self.backend_stats.items()
            if key.startswith("delta_")
        }

    @property
    def vector_eval_stats(self) -> Dict[str, float]:
        """The placement backend's vectorized batch-scoring counters, if any.

        Backends that score candidate batches through
        :class:`~repro.eval.BatchEvaluator` (genetic populations, batched
        instantiation) report ``batch_evals`` / ``batch_candidates`` /
        ``vector_fallbacks``, quantifying how much of the loop's placement
        traffic ran on the array path versus the scalar fallback.
        """
        if not self.backend_stats:
            return {}
        return {
            key: value
            for key, value in self.backend_stats.items()
            if key in ("batch_evals", "batch_candidates", "vector_fallbacks")
        }


class LayoutInclusiveSynthesis:
    """Size a circuit with layout-in-the-loop performance estimation."""

    def __init__(
        self,
        sizing_model: CircuitSizingModel,
        performance_model,
        spec: PerformanceSpec,
        backend: Union[Placer, Mapping[str, object], str],
        config: SynthesisConfig = SynthesisConfig(),
        seed: RandomLike = None,
    ) -> None:
        self._sizing_model = sizing_model
        self._performance_model = performance_model
        self._spec = spec
        # A declarative spec ({"kind": "mps", ...}, "template", JSON) is as
        # good as a hand-built placer.
        self._owns_backend = not isinstance(backend, Placer)
        if not isinstance(backend, Placer):
            backend = _resolve_backend(backend, sizing_model.circuit, config)
        self._backend = backend
        self._config = config
        self._seed = seed
        self._router: Optional[GlobalRouter] = None
        self._route_memo: "OrderedDict[object, RoutedLayout]" = OrderedDict()
        if config.routed_parasitics:
            self._router = GlobalRouter(sizing_model.circuit, config=config.router)
        self._placement_seconds = 0.0
        self._routing_seconds = 0.0
        self._evaluations = 0
        self._best: Optional[SynthesisEvaluation] = None

    @property
    def backend(self) -> Placer:
        """The placement backend in use."""
        return self._backend

    def close(self) -> None:
        """Release backend resources this loop created.

        A spec backend built under ``workers > 0`` owns a process pool;
        closing the loop shuts it down.  Hand-built placers passed in by
        the caller are left alone.  Safe to call repeatedly — the loop
        (and a wrapped backend's pool) restarts on the next use.
        """
        closer = getattr(self._backend, "close", None)
        if self._owns_backend and callable(closer):
            closer()

    def __enter__(self) -> "LayoutInclusiveSynthesis":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Single-point evaluation
    # ------------------------------------------------------------------ #
    def evaluate(self, point: SizingPoint) -> SynthesisEvaluation:
        """Run the full sizes -> layout -> performance chain for one point."""
        with span("synthesis.evaluate"):
            dims = self._sizing_model.dims_for(point)
            with Timer() as placement_timer:
                placement = self._backend.place(dims)
            self._placement_seconds += placement_timer.elapsed
            return self._complete_evaluation(point, placement)

    def evaluate_batch(self, points: Sequence[SizingPoint]) -> List[SynthesisEvaluation]:
        """Evaluate many sizing points, placing them through one batch call.

        The placement stage goes through :meth:`Placer.place_batch` —
        deduplicated and, for parallel/service backends, fanned across
        worker processes — and each point's parasitics/performance chain
        completes in input order, so the result list is a pure function of
        ``points`` regardless of worker count.
        """
        with span("synthesis.evaluate_batch", points=len(points)):
            dims_batch = [self._sizing_model.dims_for(point) for point in points]
            with Timer() as placement_timer:
                placements = self._backend.place_batch(dims_batch)
            self._placement_seconds += placement_timer.elapsed
            return [
                self._complete_evaluation(point, placement)
                for point, placement in zip(points, placements)
            ]

    def _complete_evaluation(
        self, point: SizingPoint, placement: Placement
    ) -> SynthesisEvaluation:
        """Parasitics -> performance -> objective for an already-placed point."""
        circuit = self._sizing_model.circuit
        config = self._config
        if self._router is not None:
            routed = self._route_memoized(placement)
            # Any net the router failed to connect falls back to its
            # placement estimate — with the same derived bounds the router
            # used, so external nets keep their boundary I/O terminal and
            # the loop never sees zero parasitics.
            parasitics = estimate_parasitics_from_routes(
                circuit,
                routed,
                rects=dict(placement.rects),
                bounds=derive_bounds(placement.rects),
            )
            placement = placement.with_routing(routed)
        else:
            parasitics = estimate_parasitics(
                circuit, placement.rects, wirelength_model=config.wirelength_model
            )
        performance = self._performance_model.evaluate(point, parasitics)
        spec_penalty = self._spec.penalty(performance)
        objective = (
            config.spec_weight * spec_penalty
            + config.layout_weight * placement.cost.total
            + config.power_weight * performance.power_mw
        )
        evaluation = SynthesisEvaluation(
            point=dict(point),
            performance=performance,
            placement=placement,
            spec_penalty=spec_penalty,
            objective=objective,
            parasitics=parasitics,
        )
        self._evaluations += 1
        if self._best is None or evaluation.objective < self._best.objective:
            self._best = evaluation
        return evaluation

    def _route_memoized(self, placement: Placement) -> RoutedLayout:
        """Route a placement, answering repeated floorplans from the memo."""
        assert self._router is not None
        key = rects_key(placement.rects)
        memo = self._route_memo
        routed = memo.get(key)
        if routed is not None:
            memo.move_to_end(key)
            return routed
        with Timer() as routing_timer:
            routed = self._router.route(placement.rects)
        self._routing_seconds += routing_timer.elapsed
        memo[key] = routed
        if len(memo) > self._config.route_memo_capacity:
            memo.popitem(last=False)
        return routed

    # ------------------------------------------------------------------ #
    # Full synthesis run
    # ------------------------------------------------------------------ #
    def run(self, initial: Optional[SizingPoint] = None) -> SynthesisResult:
        """Anneal the sizing point against the layout-inclusive objective.

        With ``config.workers > 0`` the annealing runs in *batched* mode
        (see :attr:`SynthesisConfig.workers`); otherwise it is the
        historical one-candidate-at-a-time loop.
        """
        self._placement_seconds = 0.0
        self._routing_seconds = 0.0
        self._evaluations = 0
        self._best = None
        with span(
            "synthesis.run",
            backend=self._backend.name,
            workers=self._config.workers,
            batched=self._config.workers > 0,
        ) as obs_span:
            if self._config.workers > 0:
                result = self._run_batched(initial)
            else:
                optimizer = SizingOptimizer(
                    self._sizing_model.design_space,
                    objective=lambda point: self.evaluate(point).objective,
                    config=self._config.optimizer,
                    seed=self._seed,
                )
                with Timer() as timer:
                    anneal_result = optimizer.run(initial)
                assert self._best is not None
                stats = self._backend.stats()
                result = SynthesisResult(
                    best=self._best,
                    evaluations=self._evaluations,
                    elapsed_seconds=timer.elapsed,
                    placement_seconds=self._placement_seconds,
                    backend=self._backend.name,
                    routing_seconds=self._routing_seconds,
                    history=list(anneal_result.cost_history),
                    backend_stats=stats or None,
                )
            obs_span.set(evaluations=result.evaluations)
            if _obs_enabled():
                metrics = _obs_metrics()
                metrics.inc("synthesis.runs")
                metrics.inc("synthesis.evaluations", result.evaluations)
                metrics.observe("synthesis.run_seconds", result.elapsed_seconds)
        return result

    def _run_batched(self, initial: Optional[SizingPoint]) -> SynthesisResult:
        """Batched speculative annealing over the sizing space.

        Mirrors the :class:`SizingOptimizer` schedule, but each temperature
        step proposes the whole ``moves_per_temperature`` quota up front —
        candidate ``i`` of step ``s`` perturbs the current point with the
        RNG stream ``(base, s, i)`` — evaluates them in one
        :meth:`evaluate_batch` call, and then runs the sequential
        Metropolis pass in candidate order, keeping the first acceptance
        (the rest were proposed from a state that no longer exists).  All
        randomness is drawn from pure stream RNGs before any evaluation
        happens, so the trajectory never depends on how the backend fanned
        the batch out.
        """
        space = self._sizing_model.design_space
        optimizer_config = self._config.optimizer
        start = space.clamp(initial) if initial is not None else space.default_point()
        # One draw from the caller's seed pins the whole run's streams.
        base_seed = make_rng(self._seed).getrandbits(64)

        with Timer() as timer:
            current = dict(start)
            current_cost = self.evaluate(start).objective
            history: List[float] = [current_cost]
            schedule = AdaptiveSchedule(
                reference_cost=max(abs(current_cost), 1e-9),
                fraction=optimizer_config.initial_temperature_fraction,
                alpha=optimizer_config.alpha,
            )
            step = 0
            while (
                not schedule.finished(step)
                and self._evaluations <= optimizer_config.max_iterations
            ):
                temperature = schedule.temperature(step)
                quota = min(
                    optimizer_config.moves_per_temperature,
                    optimizer_config.max_iterations - self._evaluations + 1,
                )
                if quota <= 0:
                    break
                candidates = [
                    space.perturb(
                        current,
                        stream_rng(base_seed, step, index),
                        fraction=optimizer_config.perturb_fraction,
                        step_fraction=optimizer_config.perturb_step_fraction,
                    )
                    for index in range(quota)
                ]
                evaluations = self.evaluate_batch(candidates)
                accept_rng = stream_rng(base_seed, step, "accept")
                for candidate, evaluation in zip(candidates, evaluations):
                    if metropolis_accept(
                        current_cost, evaluation.objective, temperature, accept_rng
                    ):
                        current = dict(candidate)
                        current_cost = evaluation.objective
                        history.append(current_cost)
                        break  # later candidates were proposed from the old state
                step += 1
        assert self._best is not None
        stats = self._backend.stats()
        return SynthesisResult(
            best=self._best,
            evaluations=self._evaluations,
            elapsed_seconds=timer.elapsed,
            placement_seconds=self._placement_seconds,
            backend=self._backend.name,
            routing_seconds=self._routing_seconds,
            history=history,
            backend_stats=stats or None,
        )
