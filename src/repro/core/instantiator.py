"""Placement instantiation — the fast, online half of Figure 1.b.

During synthesis the sizing tool proposes device sizes, the module
generators turn them into block dimensions, and the instantiator asks the
multi-placement structure for the placement to use.

Three tiers are tried in order:

1. **structure** — the stored placement whose dimension box contains the
   query (the strict Equation 4/5 lookup).
2. **nearest** — when the query falls outside every stored box, the
   lowest-cost stored placement whose anchors still give a legal (in-bounds,
   overlap-free) layout for the queried dimensions.  This realises the
   paper's Figure 6 behaviour ("the lowest cost placement was selected,
   depending on the location of the proposed solution in the search
   space") for the uncovered part of the space.
3. **fallback** — the template placement registered on the structure
   (Section 3.1.4's "template-like placement for backup purposes").

Tier 2 can be disabled (``fallback_mode="template"``) to reproduce the
strictest reading of the paper.

:class:`PlacementInstantiator` is the ``"mps"`` engine of the unified
placement API: it implements :class:`repro.api.Placer` (``place`` /
``place_batch`` / ``stats``) and returns the unified
:class:`~repro.api.Placement`.  Only the ``Placer`` verbs count queries and
tier hits; a placement service counts the queries it serves itself.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.api.placement import (
    Placement,
    SOURCE_FALLBACK,
    SOURCE_NEAREST,
    SOURCE_STRUCTURE,
)
from repro.api.placer import Placer
from repro.core.placement_entry import Dims, StoredPlacement
from repro.core.structure import MultiPlacementStructure
from repro.cost.cost_function import PlacementCostFunction
from repro.geometry.overlap import any_overlap
from repro.geometry.rect import Rect
from repro.obs.metrics import MetricsRegistry
from repro.utils.timer import Timer

#: Fallback behaviour when the query lies outside every stored box.
FALLBACK_BEST_STORED = "best_stored"
FALLBACK_TEMPLATE = "template"

#: The query and tier counters the ``Placer`` verbs count.
QUERY_COUNTERS = ("queries", "structure_hits", "nearest_hits", "fallback_hits")

#: The vectorized batch-scoring counters, as ``vector_stats()`` reports them.
SWEEP_COUNTERS = ("batch_evals", "batch_candidates", "vector_fallbacks")


class PlacementInstantiator(Placer):
    """Turn dimension vectors into concrete floorplans using a generated structure.

    ``metrics`` receives the vectorized-sweep counters and, from the
    ``Placer`` verbs, the query and tier counters (a placement service
    passes its own registry); without it the instantiator keeps a private one.
    """

    name = "mps"

    def __init__(
        self,
        structure: MultiPlacementStructure,
        cost_function: Optional[PlacementCostFunction] = None,
        fallback_mode: str = FALLBACK_BEST_STORED,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if fallback_mode not in (FALLBACK_BEST_STORED, FALLBACK_TEMPLATE):
            raise ValueError(
                f"fallback_mode must be '{FALLBACK_BEST_STORED}' or '{FALLBACK_TEMPLATE}'"
            )
        self._structure = structure
        self._cost_function = cost_function or PlacementCostFunction(
            structure.circuit, structure.bounds
        )
        self._fallback_mode = fallback_mode
        #: (structure mutation count, placements in ascending best-cost order).
        self._sorted_stored: Optional[Tuple[int, Tuple[StoredPlacement, ...]]] = None
        #: (structure mutation count, stacked stored anchors (S, B, 2)).
        self._stored_anchor_stack: Optional[Tuple[int, object]] = None
        self._metrics = metrics if metrics is not None else MetricsRegistry()

    @property
    def structure(self) -> MultiPlacementStructure:
        """The structure being queried."""
        return self._structure

    @property
    def fallback_mode(self) -> str:
        """The configured fallback behaviour."""
        return self._fallback_mode

    @property
    def metrics(self) -> MetricsRegistry:
        """The registry the counters (and a memo's hits) go to."""
        return self._metrics

    def instantiate(self, dims: Sequence[Dims]) -> Placement:
        """Instantiate the best placement for ``dims`` (clamped into block bounds)."""
        with Timer() as timer:
            circuit = self._structure.circuit
            clamped = tuple(
                block.clamp_dims(int(w), int(h))
                for block, (w, h) in zip(circuit.blocks, dims)
            )
            anchors, source, index = self._resolve_anchors(clamped)
            rects = self._rects(anchors, clamped)
            cost = self._cost_function.evaluate(rects)
        return Placement(
            rects=rects,
            cost=cost,
            placer=self.name,
            source=source,
            elapsed_seconds=timer.elapsed,
            metadata={"dims": clamped, "placement_index": index},
        )

    # ------------------------------------------------------------------ #
    # Unified placement API
    # ------------------------------------------------------------------ #
    def place(self, dims: Sequence[Dims]) -> Placement:
        """:meth:`instantiate`, counted (the :class:`repro.api.Placer` verb)."""
        placement = self.instantiate(dims)
        self._count_queries((placement,))
        return placement

    def place_batch(self, queries: Sequence[Sequence[Dims]]) -> List[Placement]:
        """Batch instantiation with duplicate elimination, counted.

        Delegates to :func:`repro.service.batch.instantiate_batch`, so any
        caller going through the unified API gets deduplication (and, when
        numpy is available, one vectorized cost sweep over the unique
        queries) for free.  Counts the unique queries it instantiates;
        a repeat shares its first occurrence's placement object.
        """
        from repro.service.batch import instantiate_batch

        results = list(instantiate_batch(self, queries).results)
        self._count_queries({id(placement): placement for placement in results}.values())
        return results

    def instantiate_many(self, dims_batch: Sequence[Sequence[Dims]]) -> List[Placement]:
        """Instantiate a batch of queries, scoring every lookup in one sweep.

        Tier resolution (structure / nearest / fallback) runs per query
        exactly as :meth:`instantiate` would, but the winning layouts of
        the whole batch are then cost-evaluated in a single
        :class:`~repro.eval.BatchEvaluator` sweep instead of one scalar
        evaluation per query.  Costs are bitwise identical either way.
        Falls back to the scalar loop when vectorization is unavailable
        (see :func:`repro.eval.batch.batch_evaluator_for`).
        """
        evaluator = self._vector()
        if evaluator is None:
            from repro.eval.batch import record_fallback

            record_fallback()
            self._metrics.merge_counters({"vector_fallbacks": 1})
            return [self.instantiate(dims) for dims in dims_batch]

        with Timer() as timer:
            circuit = self._structure.circuit
            resolved: List[Tuple[Tuple[Dims, ...], Tuple[Tuple[int, int], ...], str, Optional[int]]] = []
            for dims in dims_batch:
                clamped = tuple(
                    block.clamp_dims(int(w), int(h))
                    for block, (w, h) in zip(circuit.blocks, dims)
                )
                anchors, source, index = self._resolve_anchors(clamped)
                resolved.append((clamped, anchors, source, index))
            anchors_batch = [anchors for _, anchors, _, _ in resolved]
            dims_stack = [clamped for clamped, _, _, _ in resolved]
            breakdowns = evaluator.breakdowns(
                evaluator.stack(anchors_batch, dims_stack)
            )
        count = len(resolved)
        self._count_sweep(count)
        per_query = timer.elapsed / count if count else 0.0
        return [
            Placement(
                rects=self._rects(anchors, clamped),
                cost=cost,
                placer=self.name,
                source=source,
                elapsed_seconds=per_query,
                metadata={"dims": clamped, "placement_index": index},
            )
            for (clamped, anchors, source, index), cost in zip(resolved, breakdowns)
        ]

    def vector_ready(self) -> bool:
        """True when batch lookups will score on the vectorized path."""
        return self._vector() is not None

    def vector_stats(self) -> Dict[str, int]:
        """The vectorized batch-scoring counters in :attr:`metrics` (as of now)."""
        counts = self._metrics.snapshot()
        return {name: int(counts.get(name, 0)) for name in SWEEP_COUNTERS}

    def stats(self) -> Dict[str, float]:
        """Query, tier-hit, timing and sweep counters in :attr:`metrics`.

        Standalone, these cover every query the ``Placer`` verbs answered.
        With a placement service's registry, this and :meth:`vector_stats`
        read the service's counts.
        """
        counts = self._metrics.snapshot()
        stats = {name: counts.get(name, 0) for name in QUERY_COUNTERS + SWEEP_COUNTERS}
        stats["total_seconds"] = counts.get("total_seconds", 0.0)
        return stats

    def instantiate_from_params(
        self,
        params_per_block: Mapping[str, Mapping[str, float]],
        generators: Mapping[str, "object"],
    ) -> Placement:
        """Instantiate from device sizing parameters via module generators.

        ``generators`` maps block names to :class:`~repro.modgen.base.ModuleGenerator`
        instances; ``params_per_block`` maps block names to their parameter
        values.  Blocks without an entry use their generator's defaults, and
        blocks without a generator keep their minimum dimensions.
        """
        circuit = self._structure.circuit
        dims = []
        for block in circuit.blocks:
            generator = generators.get(block.name)
            if generator is None:
                dims.append(block.min_dims)
                continue
            params = dict(params_per_block.get(block.name, {}))
            footprint = generator.footprint(**generator.resolve_params(params))
            dims.append(footprint.dims)
        return self.instantiate(dims)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _resolve_anchors(
        self, clamped: Tuple[Dims, ...]
    ) -> Tuple[Tuple[Tuple[int, int], ...], str, Optional[int]]:
        """``(anchors, source, placement_index)`` — tier resolution without costing.

        Tries structure, then nearest, then fallback, and leaves cost
        evaluation to the caller: :meth:`instantiate` scores its one
        layout, :meth:`instantiate_many` a whole batch in one sweep.
        """
        placement = self._structure.query(clamped)
        if placement is not None:
            return placement.anchors, SOURCE_STRUCTURE, placement.index
        if self._fallback_mode == FALLBACK_BEST_STORED:
            stored = self._best_feasible_entry(clamped)
            if stored is not None:
                return stored.anchors, SOURCE_NEAREST, stored.index
        return self._fallback_anchors(), SOURCE_FALLBACK, None

    def _best_feasible_entry(self, dims: Tuple[Dims, ...]) -> Optional[StoredPlacement]:
        """First stored placement (ascending best-cost order) legal at ``dims``.

        With numpy available the legality of *all* stored candidates is
        checked in one :meth:`~repro.eval.BatchEvaluator.feasible_mask`
        sweep over the cached stored-anchor tensor, short-circuiting on the
        first feasible index; the mask reproduces the scalar
        ``contains``/``intersects`` checks exactly, so the winner — and
        therefore the tier-hit statistics — are identical to the scalar
        scan.
        """
        ordered = self._stored_by_best_cost()
        if not ordered:
            return None
        evaluator = self._vector()
        if evaluator is not None and len(ordered) > 1:
            mask = evaluator.feasible_mask(
                evaluator.stack(self._stored_anchor_array(ordered), dims)
            )
            self._count_sweep(len(ordered))
            hits = mask.nonzero()[0]
            return ordered[int(hits[0])] if hits.size else None
        for stored in ordered:
            if self._is_legal(self._rects(stored.anchors, dims)):
                return stored
        return None

    def _count_queries(self, placements: Iterable[Placement]) -> None:
        """Count answered queries, their tiers and their seconds as one group."""
        counters: Dict[str, float] = {"queries": 0, "total_seconds": 0.0}
        for placement in placements:
            counters["queries"] += 1
            tier = f"{placement.source}_hits"
            counters[tier] = counters.get(tier, 0) + 1
            counters["total_seconds"] += placement.elapsed_seconds
        self._metrics.merge_counters(counters)

    def _count_sweep(self, candidates: int) -> None:
        """Count one vectorized sweep in :attr:`metrics` (and the traced mirror)."""
        from repro.eval.batch import record_batch

        record_batch(candidates)
        self._metrics.merge_counters({"batch_evals": 1, "batch_candidates": candidates})

    def _vector(self):
        """The batch evaluator for this instantiator, or ``None`` (scalar path).

        Beyond :func:`~repro.eval.batch.batch_evaluator_for`'s own gating,
        the legality sweep additionally requires the cost function's bounds
        to be the structure's canvas — ``_is_legal`` checks against the
        structure, so a custom cost function scoring a different canvas
        must keep the scalar scan.
        """
        from repro.eval.batch import batch_evaluator_for

        evaluator = batch_evaluator_for(self._cost_function)
        if evaluator is None or self._cost_function.bounds != self._structure.bounds:
            return None
        return evaluator

    def _stored_anchor_array(self, ordered: Tuple[StoredPlacement, ...]):
        """Stacked ``(n_stored, n_blocks, 2)`` anchors, cached per structure state."""
        version = self._structure.mutation_count
        cached = self._stored_anchor_stack
        if cached is None or cached[0] != version:
            from repro.eval.vector import require_numpy

            np = require_numpy()
            cached = (version, np.asarray([sp.anchors for sp in ordered], dtype=np.int64))
            self._stored_anchor_stack = cached
        return cached[1]

    def _stored_by_best_cost(self) -> Tuple[StoredPlacement, ...]:
        """Stored placements sorted ascending by best cost, cached per structure state."""
        version = self._structure.mutation_count
        if self._sorted_stored is None or self._sorted_stored[0] != version:
            ordered = tuple(
                sorted(self._structure, key=lambda sp: (sp.best_cost, sp.index))
            )
            self._sorted_stored = (version, ordered)
        return self._sorted_stored[1]

    def _is_legal(self, rects: Dict[str, Rect]) -> bool:
        bounds = self._structure.bounds
        rect_list = list(rects.values())
        if any(not bounds.contains(rect) for rect in rect_list):
            return False
        return not any_overlap(rect_list)

    def _fallback_anchors(self) -> Tuple[Tuple[int, int], ...]:
        anchors = self._structure.fallback_anchors
        if anchors is not None:
            return anchors
        # Last resort: pack the blocks at their maximum dimensions; valid for
        # any smaller dimensions because blocks grow from their anchor.
        from repro.geometry.packing import shelf_pack

        circuit = self._structure.circuit
        packed = shelf_pack(circuit.max_dims(), max_width=self._structure.bounds.width)
        return tuple(packed)

    def _rects(
        self, anchors: Sequence[Tuple[int, int]], dims: Sequence[Dims]
    ) -> Dict[str, Rect]:
        circuit = self._structure.circuit
        return {
            block.name: Rect(x, y, w, h)
            for block, (x, y), (w, h) in zip(circuit.blocks, anchors, dims)
        }
