"""Batched routing with deduplication and fan-out.

Synthesis optimizers evaluate placements in batches, and — exactly as with
placement queries — those batches are heavy with repeats: distinct sizing
points collapse onto the same dimension vector and therefore the same
floorplan.  Identical placements route identically, so
:func:`route_batch` routes each unique rect-set once, in this process,
and fans the :class:`~repro.route.result.RoutedLayout` back out.
Spreading unique layouts across processes is the worker pool's job
(:meth:`repro.service.engine.PlacementService.route_batch` with
``workers``), not this module's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.api.placement import Placement
from repro.circuit.netlist import Circuit
from repro.geometry.floorplan import FloorplanBounds
from repro.geometry.rect import Rect
from repro.route.result import RoutedLayout
from repro.route.router import GlobalRouter, RouterConfig
from repro.utils.timer import Timer

#: Hashable identity of one placement's rect-set.
RectsKey = Tuple[Tuple[str, int, int, int, int], ...]


@dataclass
class RouteBatchResult:
    """Everything produced by one batched routing call."""

    #: One routed layout per input placement, in input order.
    results: List[RoutedLayout]
    #: Number of unique rect-sets actually routed.
    unique_layouts: int
    #: Number of inputs answered by deduplication.
    duplicate_layouts: int
    elapsed_seconds: float = 0.0

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, index: int) -> RoutedLayout:
        return self.results[index]

    @property
    def total_layouts(self) -> int:
        """Number of input placements."""
        return len(self.results)

    @property
    def total_overflow(self) -> int:
        """Summed overflow over the unique routed layouts."""
        seen: set = set()
        total = 0
        for layout in self.results:
            if id(layout) not in seen:
                seen.add(id(layout))
                total += layout.overflow
        return total


def rects_key(rects: Mapping[str, Rect]) -> RectsKey:
    return tuple(
        sorted((name, r.x, r.y, r.w, r.h) for name, r in rects.items())
    )


def route_batch(
    circuit: Circuit,
    placements: Sequence[Union[Placement, Mapping[str, Rect]]],
    bounds: Optional[FloorplanBounds] = None,
    config: Optional[RouterConfig] = None,
) -> RouteBatchResult:
    """Route every placement in ``placements``, deduplicating identical ones."""
    router = GlobalRouter(circuit, bounds=bounds, config=config)
    with Timer() as timer:
        order: List[RectsKey] = []
        rects_for: Dict[RectsKey, Mapping[str, Rect]] = {}
        positions: Dict[RectsKey, List[int]] = {}
        for position, placement in enumerate(placements):
            rects = placement.rects if isinstance(placement, Placement) else placement
            key = rects_key(rects)
            if key not in positions:
                positions[key] = []
                rects_for[key] = rects
                order.append(key)
            positions[key].append(position)

        unique_layouts = [router.route(rects_for[key]) for key in order]

        results: List[Optional[RoutedLayout]] = [None] * len(placements)
        for key, layout in zip(order, unique_layouts):
            for position in positions[key]:
                results[position] = layout
    return RouteBatchResult(
        results=results,  # type: ignore[arg-type] # every slot filled above
        unique_layouts=len(order),
        duplicate_layouts=len(placements) - len(order),
        elapsed_seconds=timer.elapsed,
    )

