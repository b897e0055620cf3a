"""Baseline placement approaches the paper positions itself against.

* :class:`TemplatePlacer` — template-based layout generation (BALLISTIC /
  MSL style): one fixed relative arrangement instantiated for any sizes.
* :class:`AnnealingPlacer` — optimization-based, per-instance simulated
  annealing placement (KOAN/ANAGRAM style): high quality, slow.
* :class:`GeneticPlacer` — genetic-algorithm placement (Zhang, ISCAS 2002).
* :class:`RandomPlacer` — legal random placement, the sanity-check floor.

All of them implement the unified :class:`repro.api.Placer` protocol and
return the unified :class:`repro.api.Placement`; construct them directly
or through ``repro.api.make_placer`` specs (kinds ``template`` /
``annealing`` / ``genetic`` / ``random``).
"""

from repro.baselines.annealing_placer import AnnealingPlacer, AnnealingPlacerConfig
from repro.baselines.base import CircuitPlacer, Placer
from repro.baselines.genetic import GeneticPlacer, GeneticPlacerConfig
from repro.baselines.random_placer import RandomPlacer
from repro.baselines.template import TemplatePlacer

__all__ = [
    "AnnealingPlacer",
    "AnnealingPlacerConfig",
    "CircuitPlacer",
    "Placer",
    "GeneticPlacer",
    "GeneticPlacerConfig",
    "RandomPlacer",
    "TemplatePlacer",
]
