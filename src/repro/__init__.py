"""Reproduction of "Multi-Placement Structures for Fast and Optimized Placement
in Analog Circuit Synthesis" (Badaoui & Vemuri, DATE 2005).

The package is organised as a set of substrates (geometry, circuit, module
generators, cost models, annealing) underneath the paper's primary
contribution: the multi-placement structure (:mod:`repro.core`) and its
generation algorithm, plus the baselines, the layout-inclusive synthesis
loop the paper motivates, and a service layer that turns the offline/online
split into long-lived infrastructure.

Module map
----------

* :mod:`repro.api` — the single placement API: the unified frozen
  :class:`~repro.api.Placement` result, the batch-first
  :class:`~repro.api.Placer` protocol, and the declarative backend
  registry (:func:`~repro.api.make_placer`, :func:`~repro.api.available_placers`).
* :mod:`repro.geometry` — rectangles, floorplan bounds, packing, overlap.
* :mod:`repro.circuit` — blocks, nets, pins, symmetry groups, netlists.
* :mod:`repro.modgen` — module generators (sizes -> block footprints).
* :mod:`repro.cost` — wirelength/area cost functions and penalties.
* :mod:`repro.eval` — incremental evaluation: the mutable
  :class:`~repro.eval.LayoutState` and the exact delta-cost
  :class:`~repro.eval.IncrementalEvaluator`
  (``cost_function.bind(anchors, dims)``) behind every optimizer's
  inner loop.
* :mod:`repro.annealing` — generic simulated-annealing machinery (the
  pure ``run()`` path and the delta ``run_incremental()`` path).
* :mod:`repro.core` — the multi-placement structure: generation (Figure
  1.a), instantiation (Figure 1.b) and JSON serialization.
* :mod:`repro.baselines` — template, random, genetic and annealing placers.
* :mod:`repro.synthesis` — the layout-inclusive sizing loop (takes any
  placer, or a ``make_placer`` spec dict).
* :mod:`repro.route` — global routing: the uniform
  :class:`~repro.route.RoutingGrid`, the congestion-negotiated,
  symmetry-aware :class:`~repro.route.GlobalRouter`, batched
  :func:`~repro.route.route_batch`, and the frozen
  :class:`~repro.route.RoutedLayout` feeding parasitics, cost and viz.
* :mod:`repro.service` — placement-as-a-service: topology fingerprints,
  the on-disk structure registry, LRU/memo caching, batched instantiation,
  route caching, and the :class:`~repro.service.engine.PlacementService`
  facade with per-tier statistics.
* :mod:`repro.parallel` — process-pool execution: the
  :class:`~repro.parallel.pool.WorkerPool` running picklable job specs,
  :func:`~repro.parallel.sharding.open_registry` opening a registry root
  flat or fingerprint-sharded, and the ``"parallel"`` engine
  (:class:`~repro.parallel.placer.ParallelPlacer`) fanning any inner
  spec's batches across workers.
* :mod:`repro.obs` — observability: the process-local
  :class:`~repro.obs.MetricsRegistry` (counters, gauges, bounded
  histograms, Prometheus export), hierarchical :func:`~repro.obs.span`
  tracing that re-parents worker-pool spans into the coordinator's
  trace, Chrome-trace/JSONL exporters and run manifests. Off by
  default; enabling it never perturbs an RNG.
* :mod:`repro.benchcircuits` / :mod:`repro.experiments` — the paper's
  benchmark circuits and table/figure reproductions.
* :mod:`repro.viz` / :mod:`repro.utils` — rendering and shared utilities.

Typical usage — one API, many engines::

    from repro.api import make_placer
    from repro.benchcircuits import get_benchmark

    circuit = get_benchmark("two_stage_opamp")
    placer = make_placer({"kind": "mps", "scale": "smoke"}, circuit)
    placement = placer.place([(10, 12), (8, 8), (14, 10), (9, 9), (11, 7)])
    print(placement.source, placement.total_cost)

Or, served through the long-lived placement service (same API, plus an
on-disk registry, caching and per-tier statistics)::

    placer = make_placer({"kind": "service", "registry": "structures/"}, circuit)
    placements = placer.place_batch(dim_vectors)   # deduplicated fan-out
    print(placer.stats())
"""

from repro.api import Placement, Placer, available_placers, make_placer
from repro.parallel import ParallelPlacer, WorkerPool, open_registry
from repro.service import PlacementService, StructureRegistry
from repro.version import __version__

__all__ = [
    "__version__",
    "Placement",
    "Placer",
    "available_placers",
    "make_placer",
    "ParallelPlacer",
    "PlacementService",
    "StructureRegistry",
    "WorkerPool",
    "open_registry",
]
