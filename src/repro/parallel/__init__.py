"""Parallel execution: process pools, picklable jobs, registry sharding.

The synthesis loop is embarrassingly parallel across candidate placements;
this package is the concurrency story that exploits it:

* :class:`~repro.parallel.pool.WorkerPool` — a reusable process pool that
  executes :mod:`repro.parallel.jobs` specs (placers reconstructed from
  declarative registry specs inside each worker, results reassembled
  deterministically).
* :mod:`repro.parallel.sharding` — :func:`~repro.parallel.sharding.open_registry`
  opens a structure registry root flat or fingerprint-sharded (either
  layout generates each topology exactly once across processes), and
  :class:`~repro.parallel.sharding.ShardOwnerMap` maps shards to worker
  slots.
* :class:`~repro.parallel.placer.ParallelPlacer` — the ``"parallel"``
  engine kind: any inner spec, batches fanned across workers.

Entry points: ``make_placer({"kind": "parallel", "inner": ...})``,
``PlacementService.instantiate_batch(..., workers=N)`` /
``route_batch(..., workers=N)``, and ``SynthesisConfig(workers=N)``.
"""

from repro.parallel.jobs import (
    JobResult,
    PlacementJob,
    RouteJob,
    run_placement_job,
    run_route_job,
)
from repro.parallel.placer import ParallelPlacer
from repro.parallel.pool import WorkerPool, default_workers, resolve_start_method
from repro.parallel.sharding import open_registry

__all__ = [
    "JobResult",
    "ParallelPlacer",
    "PlacementJob",
    "RouteJob",
    "WorkerPool",
    "default_workers",
    "open_registry",
    "resolve_start_method",
    "run_placement_job",
    "run_route_job",
]
