"""Circuit-bound base class of the baseline placement engines.

:class:`CircuitPlacer` specialises the unified :class:`repro.api.Placer`
protocol for engines that are constructed from a circuit, a floorplan
canvas and a cost function (template, random, genetic, per-instance
annealing).  The multi-placement structure and the placement service
implement the same protocol elsewhere, so every layer of the package can
swap engines freely.

The historical name ``Placer`` still imports from here as an alias of
:class:`CircuitPlacer`.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.api.placement import Dims, Placement
from repro.api.placer import Placer as _PlacerProtocol
from repro.circuit.netlist import Circuit
from repro.cost.cost_function import CostWeights, PlacementCostFunction
from repro.geometry.floorplan import FloorplanBounds
from repro.obs.metrics import MetricsRegistry


class CircuitPlacer(_PlacerProtocol):
    """Base class of the placement engines bound to one circuit + canvas."""

    #: Registry kind / report name (used in experiment reports).
    name: str = "placer"

    def __init__(
        self,
        circuit: Circuit,
        bounds: Optional[FloorplanBounds] = None,
        weights: CostWeights = CostWeights(),
        wirelength_model: str = "hpwl",
    ) -> None:
        self._circuit = circuit
        self._bounds = bounds or FloorplanBounds.for_blocks(circuit.max_dims())
        self._cost_function = PlacementCostFunction(
            circuit, self._bounds, weights=weights, wirelength_model=wirelength_model
        )
        #: Every ``stats()`` counter.  Each event lands as one
        #: ``merge_counters`` group, which the registry applies under the
        #: lock its snapshot reads under, so ``stats()`` never sees half of one.
        self._metrics = MetricsRegistry()

    @property
    def circuit(self) -> Circuit:
        """The circuit being placed."""
        return self._circuit

    @property
    def bounds(self) -> FloorplanBounds:
        """The floorplan canvas."""
        return self._bounds

    @property
    def cost_function(self) -> PlacementCostFunction:
        """The cost function used for evaluation."""
        return self._cost_function

    def stats(self) -> Dict[str, float]:
        """Uniform query counters (every engine reports through ``stats()``).

        ``queries`` and ``total_seconds`` cover every answered query.
        Engines that price moves through :mod:`repro.eval` add their
        ``delta_*`` counters, and the genetic engine its ``batch_evals`` /
        ``batch_candidates`` / ``vector_fallbacks`` sweep counters, which
        flow into ``SynthesisResult.vector_eval_stats``.  Each is counted
        once, into the placer's own registry, and read from there.
        """
        return {"queries": 0, "total_seconds": 0.0, **self._metrics.snapshot()}

    # ------------------------------------------------------------------ #
    # Shared helpers
    # ------------------------------------------------------------------ #
    def _clamp_dims(self, dims: Sequence[Dims]) -> Tuple[Dims, ...]:
        if len(dims) != self._circuit.num_blocks:
            raise ValueError(
                f"dims must have {self._circuit.num_blocks} entries, got {len(dims)}"
            )
        return tuple(
            block.clamp_dims(int(w), int(h))
            for block, (w, h) in zip(self._circuit.blocks, dims)
        )

    def _result(
        self,
        anchors: Sequence[Tuple[int, int]],
        dims: Sequence[Dims],
        elapsed: float,
        **metadata: object,
    ) -> Placement:
        rects = self._cost_function.rects_from(anchors, dims)
        self._metrics.merge_counters({"queries": 1, "total_seconds": elapsed})
        return Placement(
            rects=rects,
            cost=self._cost_function.evaluate(rects),
            placer=self.name,
            source=self.name,
            elapsed_seconds=elapsed,
            metadata={"dims": tuple(dims), **metadata},
        )


#: The historical name of the baselines' base class.
Placer = CircuitPlacer
