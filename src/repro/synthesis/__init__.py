"""Layout-inclusive synthesis substrate (Figure 1.b).

The sizing optimizer proposes device sizes; module generators turn them
into block dimensions; a placement engine (any :class:`repro.api.Placer`,
or a declarative ``make_placer`` spec dict) produces a floorplan; wiring
parasitics extracted from the floorplan feed analytical performance models;
and the optimizer iterates on the resulting cost.
"""

from repro.synthesis.binding import BlockBinding, CircuitSizingModel
from repro.synthesis.loop import LayoutInclusiveSynthesis, SynthesisConfig, SynthesisResult
from repro.synthesis.optimizer import SizingOptimizer, SizingOptimizerConfig
from repro.synthesis.parasitics import ParasiticEstimate, estimate_parasitics
from repro.synthesis.performance import (
    PerformanceReport,
    PerformanceSpec,
    TwoStageOpampModel,
)
from repro.synthesis.sizing import DesignSpace, SizingVariable

__all__ = [
    "BlockBinding",
    "CircuitSizingModel",
    "LayoutInclusiveSynthesis",
    "SynthesisConfig",
    "SynthesisResult",
    "SizingOptimizer",
    "SizingOptimizerConfig",
    "ParasiticEstimate",
    "estimate_parasitics",
    "PerformanceReport",
    "PerformanceSpec",
    "TwoStageOpampModel",
    "DesignSpace",
    "SizingVariable",
]
