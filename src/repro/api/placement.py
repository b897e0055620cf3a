"""The unified placement result every engine returns.

One question — "place these block dimensions" — is answered by several
interchangeable engines (stored multi-placement structures, templates,
per-instance optimization, the placement service).  They all return the
same frozen :class:`Placement`, so callers never care which engine
produced a floorplan:

* ``rects`` — the placed rectangles, as an *immutable* mapping.  The
  placement owns a private copy, so no caller can mutate another
  backend's internal state through a shared dict.
* ``cost`` — the :class:`~repro.cost.cost_function.CostBreakdown`.
* ``placer`` — the engine's registry kind (``"mps"``, ``"template"``,
  ``"annealing"``, ``"service"``, …).
* ``source`` — provenance of the floorplan itself.  For structure-backed
  engines this is the instantiation tier (``structure`` / ``nearest`` /
  ``fallback``); for the direct placers it equals the placer name.
* ``metadata`` — optional per-call details (the clamped dimension
  vector, the stored-placement index, memoization flags, …), also
  frozen.

The historical result types it replaced are gone from the package.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Dict, Mapping, Optional, Tuple

from repro.cost.cost_function import CostBreakdown
from repro.geometry.rect import Rect

#: One block's (width, height) dimensions.
Dims = Tuple[int, int]

#: Source tags of a structure-backed placement (the instantiator's tiers).
SOURCE_STRUCTURE = "structure"
SOURCE_NEAREST = "nearest"
SOURCE_FALLBACK = "fallback"

@dataclass(frozen=True)
class Placement:
    """A placed floorplan, its cost, and where it came from."""

    rects: Mapping[str, Rect]
    cost: CostBreakdown
    placer: str
    #: Defaults to ``placer`` when omitted, which keeps keyword-style
    #: construction of the legacy result types (none of which had it) valid.
    source: str = ""
    elapsed_seconds: float = 0.0
    metadata: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Own an immutable copy: backends frequently hand over internal
        # dicts (fixed template anchors, memoized results shared between
        # callers), and a mutable view would let one caller corrupt them.
        object.__setattr__(self, "rects", MappingProxyType(dict(self.rects)))
        object.__setattr__(self, "metadata", MappingProxyType(dict(self.metadata)))
        if not self.source:
            object.__setattr__(self, "source", self.placer)

    # ------------------------------------------------------------------ #
    # Pickling
    # ------------------------------------------------------------------ #
    # ``MappingProxyType`` cannot be pickled, which would bar placements
    # from crossing process boundaries (the parallel worker pool returns
    # them from placement jobs).  State travels as plain dicts and is
    # re-frozen on arrival.
    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        state["rects"] = dict(self.rects)
        state["metadata"] = dict(self.metadata)
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        for key, value in state.items():
            if key in ("rects", "metadata"):
                value = MappingProxyType(dict(value))  # type: ignore[arg-type]
            object.__setattr__(self, key, value)

    # ------------------------------------------------------------------ #
    # Cost and provenance
    # ------------------------------------------------------------------ #
    @property
    def total_cost(self) -> float:
        """Weighted total cost of the floorplan."""
        return self.cost.total

    @property
    def from_structure(self) -> bool:
        """True when a stored placement (strict containment hit) was used."""
        return self.source == SOURCE_STRUCTURE

    @property
    def used_stored_placement(self) -> bool:
        """True when any stored placement (strict or nearest) was used."""
        return self.source in (SOURCE_STRUCTURE, SOURCE_NEAREST)

    # ------------------------------------------------------------------ #
    # Metadata accessors
    # ------------------------------------------------------------------ #
    @property
    def dims(self) -> Optional[Tuple[Dims, ...]]:
        """The (clamped) dimension vector this floorplan answers, if recorded."""
        return self.metadata.get("dims")  # type: ignore[return-value]

    @property
    def placement_index(self) -> Optional[int]:
        """Index of the stored placement used, if one was."""
        return self.metadata.get("placement_index")  # type: ignore[return-value]

    @property
    def routing(self) -> Optional[Mapping[str, float]]:
        """Routing statistics of the floorplan, when it has been routed.

        Populated by :meth:`with_routing` (the placement service's routed
        path and the synthesis loop's routed-parasitics mode do this):
        routed wirelength, overflow, max congestion, failed/mirrored net
        counts, negotiation iterations and grid geometry.
        """
        return self.metadata.get("routing")  # type: ignore[return-value]

    @property
    def is_routed(self) -> bool:
        """True when routing statistics are attached."""
        return "routing" in self.metadata

    def anchors(self) -> Tuple[Tuple[int, int], ...]:
        """Lower-left anchors in the order of ``rects`` iteration."""
        return tuple((rect.x, rect.y) for rect in self.rects.values())

    def with_metadata(self, **extra: object) -> "Placement":
        """A copy with ``extra`` merged into the metadata."""
        merged = dict(self.metadata)
        merged.update(extra)
        return replace(self, metadata=merged)

    def with_routing(self, routed: object) -> "Placement":
        """A copy carrying routing statistics in ``metadata["routing"]``.

        Accepts a :class:`repro.route.RoutedLayout` (anything with a
        ``stats()`` method) or a plain stats mapping.  Duck-typed so this
        layer stays independent of the routing subsystem, which imports it.
        The stats are stored as a plain dict, keeping :meth:`as_dict`
        JSON-serializable.
        """
        stats_method = getattr(routed, "stats", None)
        stats = stats_method() if callable(stats_method) else dict(routed)  # type: ignore[call-overload]
        return self.with_metadata(routing=dict(stats))

    def as_dict(self) -> Dict[str, object]:
        """Plain-data form for reports and JSON output."""
        return {
            "placer": self.placer,
            "source": self.source,
            "total_cost": self.total_cost,
            "elapsed_seconds": self.elapsed_seconds,
            "rects": {
                name: (rect.x, rect.y, rect.w, rect.h) for name, rect in self.rects.items()
            },
            "metadata": {
                key: value for key, value in self.metadata.items() if key != "dims"
            },
        }
