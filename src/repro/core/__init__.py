"""The paper's primary contribution: multi-placement structures.

* :mod:`repro.core.intervals` — the ascending, non-overlapping interval rows
  of Figure 3 (the ``W_i`` / ``H_i`` functions).
* :mod:`repro.core.structure` — the multi-placement structure itself
  (the function ``M`` of Equations 1, 4 and 5).
* :mod:`repro.core.expansion` — the Placement Expansion step.
* :mod:`repro.core.bdio` — the Block Dimensions-Interval Optimizer (inner SA).
* :mod:`repro.core.overlap_resolution` — the Resolve Overlaps routine.
* :mod:`repro.core.explorer` — the Placement Explorer (outer SA).
* :mod:`repro.core.generator` — one-shot generation entry point (Figure 1.a).
* :mod:`repro.core.instantiator` — fast placement instantiation (Figure 1.b).
* :mod:`repro.core.serialization` — persist generated structures as JSON.
"""

from repro.core.bdio import BDIOConfig, BDIOResult, BlockDimensionsIntervalOptimizer
from repro.core.coverage import marginal_coverage, volume_coverage_estimate
from repro.core.expansion import expand_placement
from repro.core.explorer import ExplorerConfig, ExplorerStats, PlacementExplorer
from repro.core.generator import GenerationResult, GeneratorConfig, MultiPlacementGenerator
from repro.core.instantiator import PlacementInstantiator
from repro.core.intervals import Interval, IntervalList
from repro.core.overlap_resolution import resolve_overlaps
from repro.core.placement_entry import DimensionRange, StoredPlacement
from repro.core.serialization import (
    load_structure,
    save_structure,
    structure_from_dict,
    structure_to_dict,
)
from repro.core.structure import MultiPlacementStructure

__all__ = [
    "BDIOConfig",
    "BDIOResult",
    "BlockDimensionsIntervalOptimizer",
    "marginal_coverage",
    "volume_coverage_estimate",
    "expand_placement",
    "ExplorerConfig",
    "ExplorerStats",
    "PlacementExplorer",
    "GenerationResult",
    "GeneratorConfig",
    "MultiPlacementGenerator",
    "PlacementInstantiator",
    "Interval",
    "IntervalList",
    "resolve_overlaps",
    "DimensionRange",
    "StoredPlacement",
    "load_structure",
    "save_structure",
    "structure_from_dict",
    "structure_to_dict",
    "MultiPlacementStructure",
]
