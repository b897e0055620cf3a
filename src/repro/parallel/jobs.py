"""Picklable job specifications for the process-pool execution engine.

Live placer objects do not cross process boundaries well: structures hold
thousands of interval entries, services hold locks and LRU caches, and the
frozen result types wrap ``MappingProxyType``.  The worker pool therefore
ships *specifications* instead — a :class:`PlacementJob` carries the
circuit as plain data (:func:`repro.core.serialization.circuit_to_dict`)
and the placer as a declarative registry spec dict, and each worker
reconstructs the live engine with :func:`repro.api.make_placer` on first
sight.  Reconstruction is cached per worker process in a bounded LRU, so
a long-lived pool pays the build cost (structure generation, registry
load) once per worker and circuit, not once per job, and a stream of
distinct netlists cannot grow a worker without bound.

Results come back as real :class:`~repro.api.Placement` /
:class:`~repro.route.RoutedLayout` objects (both pickle via plain-dict
state) plus the *delta* of the worker placer's ``stats()`` counters over
the job, so the caller can merge per-worker statistics exactly.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.api.placement import Dims, Placement
from repro.obs.spans import TraceContext, remote_span_capture, span
from repro.service.cache import LRUCache
from repro.utils.timer import Timer

#: Engines each worker process keeps built, per cache below.  A service
#: placer holds a structure and a memo table, so this caps a worker's memory.
WORKER_CACHE_CAPACITY = 8

#: Worker-process cache of reconstructed placers, keyed by job identity.
_WORKER_PLACERS: LRUCache[str, Any] = LRUCache(WORKER_CACHE_CAPACITY)
#: Worker-process cache of reconstructed routers, keyed by job identity.
_WORKER_ROUTERS: LRUCache[str, Any] = LRUCache(WORKER_CACHE_CAPACITY)


def _freeze_spec(spec: Mapping[str, object]) -> str:
    """A stable cache key for a placer spec (tolerates non-JSON option values)."""
    return repr(sorted((key, repr(value)) for key, value in spec.items()))


def circuit_data_key(circuit_data: Mapping[str, Any]) -> str:
    """A content digest of serialized circuit data.

    Worker caches key on this rather than the circuit *name*: two
    different circuits may share a name (an edited netlist resubmitted
    under the same label), and a name-keyed cache would silently serve the
    stale engine.
    """
    payload = json.dumps(circuit_data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class PlacementJob:
    """One worker's share of a batched placement request.

    Everything in here is plain data or a picklable dataclass, so jobs
    survive any ``multiprocessing`` start method (fork *and* spawn).
    """

    #: ``circuit_to_dict`` form of the circuit being placed.
    circuit_data: Dict[str, Any]
    #: Declarative placer spec (``{"kind": ..., **options}``).
    spec: Dict[str, Any]
    #: The dimension-vector queries assigned to this job, in order.
    queries: Tuple[Tuple[Dims, ...], ...]
    #: Position of this job in the request (results reassemble by id).
    job_id: int = 0
    #: When set (one seed per query), the placer is rebuilt per query with
    #: ``spec["seed"]`` overridden — the opt-in that makes *stochastic*
    #: engines bit-identical at any worker count.  Stateless engines
    #: (mps / service / template) never need it.
    per_query_seeds: Optional[Tuple[int, ...]] = None
    #: Observability propagation context (``repro.obs.trace_context()``):
    #: when set, worker-side spans re-parent under the coordinator span
    #: that dispatched this job.  ``None`` whenever tracing is off, so
    #: traced and untraced job specs hash/pickle identically by default.
    trace: Optional[TraceContext] = None

    def __post_init__(self) -> None:
        if self.per_query_seeds is not None and len(self.per_query_seeds) != len(self.queries):
            raise ValueError(
                f"per_query_seeds must match queries: "
                f"{len(self.per_query_seeds)} != {len(self.queries)}"
            )


@dataclass(frozen=True)
class RouteJob:
    """One worker's share of a batched routing request."""

    circuit_data: Dict[str, Any]
    #: One placed floorplan per query: ``{block: (x, y, w, h)}``.
    rects_batch: Tuple[Dict[str, Tuple[int, int, int, int]], ...]
    #: Router configuration (a plain picklable dataclass), or ``None``.
    router_config: Optional[object] = None
    job_id: int = 0
    #: Observability propagation context (see :class:`PlacementJob`).
    trace: Optional[TraceContext] = None


@dataclass
class JobResult:
    """What one job produced, tagged for reassembly."""

    job_id: int
    #: One placement (or routed layout for route jobs) per query, in order.
    results: List[Any]
    #: Delta of the worker placer's ``stats()`` counters over this job.
    stats: Dict[str, float] = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    #: PID of the worker that ran the job (telemetry / tests).
    worker_pid: int = 0
    #: Plain-dict span records produced in the worker process while the
    #: job's trace capture was active; empty for inline/untraced jobs.
    #: The coordinator re-parents these via ``repro.obs.ingest_spans``.
    spans: List[Dict[str, Any]] = field(default_factory=list)


def _build_placer(circuit_data: Dict[str, Any], spec: Mapping[str, object]):
    from repro.api.registry import make_placer
    from repro.core.serialization import circuit_from_dict

    return make_placer(dict(spec), circuit_from_dict(circuit_data))


def _worker_placer(job: PlacementJob):
    """The (cached) live placer answering ``job`` in this worker process."""
    key = f"{circuit_data_key(job.circuit_data)}|{_freeze_spec(job.spec)}"
    placer = _WORKER_PLACERS.get(key)
    if placer is None:
        with span("worker.build_placer", kind=str(job.spec.get("kind"))):
            placer = _build_placer(job.circuit_data, job.spec)
        _WORKER_PLACERS.put(key, placer)
    return placer


def _stats_delta(before: Mapping[str, float], after: Mapping[str, float]) -> Dict[str, float]:
    """Numeric counter deltas between two ``stats()`` snapshots."""
    delta: Dict[str, float] = {}
    for key, value in after.items():
        if not isinstance(value, (int, float)):
            continue
        previous = before.get(key, 0)
        if isinstance(previous, (int, float)):
            delta[key] = value - previous
    return delta


def run_placement_job(job: PlacementJob) -> JobResult:
    """Execute one placement job inside a worker process (or inline).

    Module-level so it pickles by reference under any start method.
    """
    with remote_span_capture(job.trace) as captured:
        with Timer() as timer:
            with span(
                "worker.job", job_id=job.job_id, queries=len(job.queries)
            ) as job_span:
                if job.trace is not None and job.trace[2] != os.getpid():
                    # Time the job spent queued (and pickled) between the
                    # coordinator's submit and this worker picking it up.
                    job_span.set(queue_seconds=time.time() - job.trace[3])
                if job.per_query_seeds is not None:
                    results: List[Placement] = []
                    stats: Dict[str, float] = {}
                    for seed, query in zip(job.per_query_seeds, job.queries):
                        spec = dict(job.spec)
                        spec["seed"] = seed
                        placer = _build_placer(job.circuit_data, spec)
                        results.append(placer.place(query))
                        for key, value in placer.stats().items():
                            if isinstance(value, (int, float)):
                                stats[key] = stats.get(key, 0.0) + value
                else:
                    placer = _worker_placer(job)
                    before = dict(placer.stats())
                    results = placer.place_batch(list(job.queries))
                    stats = _stats_delta(before, placer.stats())
        return JobResult(
            job_id=job.job_id,
            results=list(results),
            stats=stats,
            elapsed_seconds=timer.elapsed,
            worker_pid=os.getpid(),
            spans=list(captured) if captured else [],
        )


def run_route_job(job: RouteJob) -> JobResult:
    """Execute one routing job inside a worker process (or inline)."""
    from repro.core.serialization import circuit_from_dict
    from repro.geometry.rect import Rect
    from repro.route.router import GlobalRouter, RouterConfig

    with remote_span_capture(job.trace) as captured:
        with Timer() as timer:
            with span(
                "worker.route_job", job_id=job.job_id, queries=len(job.rects_batch)
            ) as job_span:
                if job.trace is not None and job.trace[2] != os.getpid():
                    job_span.set(queue_seconds=time.time() - job.trace[3])
                key = f"{circuit_data_key(job.circuit_data)}|{job.router_config!r}"
                router = _WORKER_ROUTERS.get(key)
                if router is None:
                    config = (
                        job.router_config if job.router_config is not None else RouterConfig()
                    )
                    router = GlobalRouter(circuit_from_dict(job.circuit_data), config=config)
                    _WORKER_ROUTERS.put(key, router)
                results = [
                    router.route({name: Rect(*values) for name, values in rects.items()})
                    for rects in job.rects_batch
                ]
        return JobResult(
            job_id=job.job_id,
            results=results,
            stats={"route_queries": float(len(results))},
            elapsed_seconds=timer.elapsed,
            worker_pid=os.getpid(),
            spans=list(captured) if captured else [],
        )


def make_placement_jobs(
    circuit_data: Dict[str, Any],
    spec: Mapping[str, object],
    queries: Sequence[Sequence[Dims]],
    num_jobs: int,
    per_query_seeds: Optional[Sequence[int]] = None,
) -> List[PlacementJob]:
    """Split ``queries`` into at most ``num_jobs`` contiguous placement jobs.

    Contiguous chunks (rather than round-robin) keep each worker's memo
    locality and make reassembly a simple concatenation by ``job_id``.
    """
    from repro.obs.spans import trace_context

    frozen = [tuple((int(w), int(h)) for w, h in query) for query in queries]
    chunks = chunk_evenly(frozen, num_jobs)
    trace = trace_context()
    jobs: List[PlacementJob] = []
    start = 0
    for job_id, chunk in enumerate(chunks):
        seeds = (
            tuple(per_query_seeds[start : start + len(chunk)])
            if per_query_seeds is not None
            else None
        )
        jobs.append(
            PlacementJob(
                circuit_data=circuit_data,
                spec=dict(spec),
                queries=tuple(chunk),
                job_id=job_id,
                per_query_seeds=seeds,
                trace=trace,
            )
        )
        start += len(chunk)
    return jobs


def chunk_evenly(items: Sequence[Any], num_chunks: int) -> List[List[Any]]:
    """Split ``items`` into up to ``num_chunks`` contiguous, near-equal chunks."""
    if num_chunks <= 0:
        raise ValueError("num_chunks must be positive")
    count = min(num_chunks, len(items))
    if count == 0:
        return []
    base, extra = divmod(len(items), count)
    chunks: List[List[Any]] = []
    start = 0
    for index in range(count):
        size = base + (1 if index < extra else 0)
        chunks.append(list(items[start : start + size]))
        start += size
    return chunks
