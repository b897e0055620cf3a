"""The process-pool execution engine behind every parallel entry point.

:class:`WorkerPool` owns one single-process ``ProcessPoolExecutor`` per
worker slot and runs :mod:`repro.parallel.jobs` job specs on them.  A
pinned dispatch sends all its jobs to one slot (shard-affine serving:
that process's caches stay warm); a fan-out dispatch sends job ``i`` to
slot ``i % workers``.  Both ride the same ``workers`` processes, so a
pool never holds more.  Three design rules keep it predictable:

* **Jobs, not objects** — only picklable job specs cross the boundary;
  workers rebuild placers from declarative registry specs and cache them
  for the pool's lifetime (see :mod:`repro.parallel.jobs`).
* **Deterministic reassembly** — results are ordered by ``job_id`` and
  queries keep their in-job order, so the output is a pure function of
  the input batch regardless of worker count or completion order.
* **Graceful degradation** — ``workers <= 1`` (or a tiny batch) runs the
  same job functions inline in the calling process: identical results,
  no pool overhead, and a single code path to test.
"""

from __future__ import annotations

import atexit
import os
import threading
import weakref
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import multiprocessing

from repro.api.placement import Dims, Placement
from repro.obs.spans import (
    ingest_spans,
    is_enabled as _obs_enabled,
    metrics as _obs_metrics,
    span,
    trace_context,
)
from repro.parallel.jobs import (
    JobResult,
    RouteJob,
    chunk_evenly,
    make_placement_jobs,
    run_placement_job,
    run_route_job,
)
from repro.utils.logging_utils import get_logger

LOGGER = get_logger("parallel.pool")

#: Below this many unique queries a pool round-trip costs more than it saves.
MIN_POOL_QUERIES = 4

#: The keys of a placement batch's stats that describe that one batch (the
#: worker processes that answered it, the slot it was pinned to); every
#: other key is an additive counter that sums across batches.
BATCH_FACTS = frozenset({"pool_worker_processes", "pool_pinned_slot"})


def _shutdown_slots(slots: Dict[int, ProcessPoolExecutor]) -> None:
    """Finalizer target: tear abandoned slot executors down without blocking."""
    for executor in slots.values():
        executor.shutdown(wait=False, cancel_futures=True)


#: Every pool with a started slot, so a crashed or signalled process can
#: still reap its worker processes at interpreter exit.  Weak references:
#: registration must never keep an abandoned pool (or its slots) alive.
_LIVE_POOLS: "weakref.WeakSet[WorkerPool]" = weakref.WeakSet()
_ATEXIT_LOCK = threading.Lock()
_ATEXIT_REGISTERED = False


def _close_live_pools() -> None:
    """The atexit guard: shut down every pool still holding worker processes.

    A server that crashes (or a test run that never reaches ``close()``)
    must not leak executor processes past interpreter exit — orphaned
    workers survive their parent and pile up across runs.  ``wait=False``:
    exit teardown must not block behind in-flight jobs.
    """
    for pool in list(_LIVE_POOLS):
        try:
            pool.close(wait=False)
        except Exception:  # pragma: no cover - teardown must never raise
            pass


def _register_atexit_guard(pool: "WorkerPool") -> None:
    global _ATEXIT_REGISTERED
    with _ATEXIT_LOCK:
        if not _ATEXIT_REGISTERED:
            atexit.register(_close_live_pools)
            _ATEXIT_REGISTERED = True
        _LIVE_POOLS.add(pool)


def default_workers() -> int:
    """A sensible worker count for this machine (at least 1)."""
    return max(1, os.cpu_count() or 1)


def resolve_start_method(preferred: Optional[str] = None) -> str:
    """The multiprocessing start method to use (prefer ``fork`` where legal).

    ``fork`` shares the parent's imported modules copy-on-write, so worker
    startup is milliseconds instead of a fresh interpreter; platforms
    without it (Windows, macOS defaults) fall back to ``spawn``.
    """
    available = multiprocessing.get_all_start_methods()
    if preferred is not None:
        if preferred not in available:
            raise ValueError(
                f"start method {preferred!r} unavailable; choose from {available}"
            )
        return preferred
    return "fork" if "fork" in available else "spawn"


class WorkerPool:
    """A reusable set of worker processes that executes placement and routing jobs.

    Parameters
    ----------
    workers:
        Number of worker processes (slots).  ``1`` (or ``0``) never
        starts a process — jobs run inline, bit-identically.
    start_method:
        ``"fork"`` / ``"spawn"`` / ``"forkserver"``; default picks
        ``fork`` when the platform offers it.

    Batches with fewer than :data:`MIN_POOL_QUERIES` unique queries run
    inline.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        start_method: Optional[str] = None,
    ) -> None:
        self._workers = max(1, workers if workers is not None else default_workers())
        self._start_method = resolve_start_method(start_method)
        #: One single-process executor per slot, so every job sent to slot
        #: *k* runs in the same OS process and finds its caches warm.
        self._slots: Dict[int, ProcessPoolExecutor] = {}
        self._finalizer: Optional[weakref.finalize] = None
        #: Guards the slot map: concurrent dispatch threads must not fork
        #: at the same time (nor each build an executor for one slot,
        #: orphaning the loser's process), and close() claims it whole.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def workers(self) -> int:
        """Configured worker-process count."""
        return self._workers

    @property
    def start_method(self) -> str:
        """The multiprocessing start method the pool uses."""
        return self._start_method

    def _slot(self, slot: int) -> ProcessPoolExecutor:
        """The single-process executor of ``slot`` (created on first use)."""
        if not 0 <= slot < self._workers:
            raise ValueError(
                f"pin slot {slot} out of range for {self._workers} workers"
            )
        with self._lock:
            executor = self._slots.get(slot)
            if executor is None:
                if self._finalizer is None:
                    self._finalizer = weakref.finalize(
                        self, _shutdown_slots, self._slots
                    )
                    _register_atexit_guard(self)
                context = multiprocessing.get_context(self._start_method)
                executor = ProcessPoolExecutor(max_workers=1, mp_context=context)
                self._slots[slot] = executor
            return executor

    def prestart(self) -> None:
        """Fork every worker process now, from a quiescent thread state.

        A fork taken mid-traffic copies any lock a sibling thread holds
        at that instant — import locks included — into the child *held*,
        with no thread left to release it: the worker deadlocks on its
        first lazy import.  Servers call this once at startup, before
        request threads exist.  Worker-side modules are imported into the
        parent first (forked children then find them in ``sys.modules``),
        every slot forks here, and dispatches during traffic reuse the
        warm processes.
        """
        if self._workers <= 1:
            return
        from repro.api.registry import preload_builtin_factories

        preload_builtin_factories()
        warm = [self._slot(slot).submit(os.getpid) for slot in range(self._workers)]
        for future in warm:
            future.result()

    def close(self, wait: bool = True) -> None:
        """Shut every slot down (idempotent; the pool restarts on next use).

        Safe to call any number of times, from ``__exit__`` after an
        error, and concurrently with the atexit guard: the slot map is
        claimed under the lock before shutdown, so exactly one caller
        tears each executor down.
        """
        with self._lock:
            slots, self._slots = self._slots, {}
            finalizer, self._finalizer = self._finalizer, None
            _LIVE_POOLS.discard(self)
        if finalizer is None:
            return
        finalizer.detach()
        for executor in slots.values():
            executor.shutdown(wait=wait, cancel_futures=not wait)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Job execution
    # ------------------------------------------------------------------ #
    def run_jobs(
        self,
        jobs: Sequence[Any],
        runner: Callable[[Any], JobResult],
        pin_slot: Optional[int] = None,
    ) -> List[JobResult]:
        """Run ``jobs`` through ``runner`` and return results sorted by job id.

        Fans out when it can pay for itself (more than one job and more
        than one worker): job ``i`` runs on slot ``i % workers``.
        Otherwise runs inline.  With ``pin_slot`` every job runs in that
        slot's worker process — even a single job, because the point of
        pinning is *which* process does the work (warm shard caches), not
        fan-out.  A one-worker pool ignores pinning: the calling process
        already owns everything.
        """
        pinned = pin_slot is not None and self._workers > 1
        inline = not pinned and (self._workers <= 1 or len(jobs) <= 1)
        with span(
            "pool.dispatch",
            jobs=len(jobs),
            workers=self._workers,
            inline=inline,
            pin_slot=pin_slot if pinned else None,
        ):
            if inline:
                results = [runner(job) for job in jobs]
            else:
                futures = []
                for index, job in enumerate(jobs):
                    slot = pin_slot if pinned else index % self._workers
                    futures.append(self._slot(slot).submit(runner, job))  # type: ignore[arg-type]
                results = [future.result() for future in futures]
            # Re-parent worker-side spans into this trace (records carry
            # the coordinator's trace/span ids already; inline jobs return
            # no records because their spans landed here directly).
            for result in results:
                if result.spans:
                    ingest_spans(result.spans)
        if _obs_enabled():
            metrics = _obs_metrics()
            metrics.inc("pool.jobs", len(jobs))
            if inline:
                metrics.inc("pool.inline_jobs", len(jobs))
            elif pinned:
                metrics.inc("pool.pinned_jobs", len(jobs))
            else:
                metrics.inc("pool.pool_jobs", len(jobs))
        return sorted(results, key=lambda result: result.job_id)

    def place_batch(
        self,
        circuit_data: Dict[str, Any],
        spec: Mapping[str, object],
        queries: Sequence[Sequence[Dims]],
        per_query_seeds: Optional[Sequence[int]] = None,
        pin_slot: Optional[int] = None,
    ) -> Tuple[List[Placement], Dict[str, float]]:
        """Answer a placement batch: dedup, shard, fan out, reassemble.

        Returns ``(placements, merged_stats)`` where ``placements`` is in
        input order (duplicates share one result object) and
        ``merged_stats`` sums the per-worker ``stats()`` counter deltas
        plus pool-level ``pool_*`` counters and this batch's
        :data:`BATCH_FACTS`.  With ``pin_slot`` the whole batch runs as
        one job in that slot's worker process (shard-affine dispatch):
        one IPC round trip, warm caches, no barrier across workers that
        don't own the shard.
        """
        if _obs_enabled():
            _obs_metrics().inc("pool.batches")
        frozen = [tuple((int(w), int(h)) for w, h in query) for query in queries]
        if per_query_seeds is None:
            order: List[Tuple[Dims, ...]] = []
            positions: Dict[Tuple[Dims, ...], List[int]] = {}
            for position, query in enumerate(frozen):
                if query not in positions:
                    positions[query] = []
                    order.append(query)
                positions[query].append(position)
        else:
            # Per-query seeds make every query unique by construction.
            order = list(frozen)
            positions = {}

        num_jobs = self._workers
        if pin_slot is not None or len(order) < MIN_POOL_QUERIES:
            num_jobs = 1
        jobs = make_placement_jobs(
            circuit_data, spec, order, num_jobs, per_query_seeds=per_query_seeds
        )
        job_results = self.run_jobs(jobs, run_placement_job, pin_slot=pin_slot)

        unique_results: List[Placement] = []
        merged: Dict[str, float] = {}
        for job_result in job_results:
            unique_results.extend(job_result.results)
            for key, value in job_result.stats.items():
                merged[key] = merged.get(key, 0.0) + value
        merged["pool_jobs"] = float(len(job_results))
        merged["pool_unique_queries"] = float(len(order))
        merged["pool_dedup_hits"] = float(len(frozen) - len(order))
        merged["pool_worker_processes"] = float(
            len({result.worker_pid for result in job_results})
        )
        if pin_slot is not None:
            merged["pool_pinned_slot"] = float(pin_slot)

        if positions:
            results: List[Optional[Placement]] = [None] * len(frozen)
            for key, result in zip(order, unique_results):
                for position in positions[key]:
                    results[position] = result
            return results, merged  # type: ignore[return-value] # every slot filled
        return unique_results, merged

    def route_batch(
        self,
        circuit_data: Dict[str, Any],
        rects_batch: Sequence[Mapping[str, Tuple[int, int, int, int]]],
        router_config: Optional[object] = None,
    ) -> Tuple[List[Any], Dict[str, float]]:
        """Route a batch of placed floorplans across the pool.

        ``rects_batch`` entries are plain ``{block: (x, y, w, h)}`` dicts;
        returns ``(layouts, merged_stats)`` in input order.
        """
        if _obs_enabled():
            _obs_metrics().inc("pool.batches")
        frozen = [
            {name: tuple(int(v) for v in values) for name, values in rects.items()}
            for rects in rects_batch
        ]
        num_jobs = self._workers if len(frozen) >= MIN_POOL_QUERIES else 1
        chunks = chunk_evenly(frozen, num_jobs)
        trace = trace_context()
        jobs = [
            RouteJob(
                circuit_data=circuit_data,
                rects_batch=tuple(chunk),
                router_config=router_config,
                job_id=job_id,
                trace=trace,
            )
            for job_id, chunk in enumerate(chunks)
        ]
        job_results = self.run_jobs(jobs, run_route_job)
        layouts: List[Any] = []
        merged: Dict[str, float] = {}
        for job_result in job_results:
            layouts.extend(job_result.results)
            for key, value in job_result.stats.items():
                merged[key] = merged.get(key, 0.0) + value
        merged["pool_jobs"] = float(len(job_results))
        return layouts, merged

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        state = f"{len(self._slots)} slots started"
        return (
            f"WorkerPool(workers={self._workers}, "
            f"start_method={self._start_method!r}, {state})"
        )
