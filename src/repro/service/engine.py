"""The placement service facade.

:class:`PlacementService` is the front door of the subsystem: callers hand
it a circuit and dimension vectors and get placements back, while the
service transparently

* keys the circuit by topology fingerprint,
* serves the structure from its in-memory LRU, the on-disk registry, or a
  fresh generation run (in that order),
* memoizes repeated queries and deduplicates batches, and
* tracks per-tier hit counters (``structure`` / ``nearest`` / ``fallback``)
  plus cache and latency statistics, so the offline/online split of the
  paper becomes observable in production.

Each event is counted once, where it happens, into one
:class:`~repro.obs.MetricsRegistry` the service owns (its instantiators
count their memo hits and scoring sweeps there too);
:meth:`PlacementService.snapshot` freezes it into a :class:`ServiceStats`
value.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING, ClassVar, Dict, List, Mapping, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (parallel imports service)
    from repro.parallel.pool import WorkerPool

from repro.circuit.netlist import Circuit
from repro.core.generator import GeneratorConfig, MultiPlacementGenerator
from repro.api.placement import (
    Placement,
    SOURCE_FALLBACK,
    SOURCE_NEAREST,
    SOURCE_STRUCTURE,
)
from repro.core.instantiator import FALLBACK_BEST_STORED, PlacementInstantiator
from repro.core.placement_entry import Dims
from repro.core.structure import MultiPlacementStructure
from repro.geometry.rect import Rect
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import is_enabled as _obs_enabled, metrics as _obs_metrics, span
from repro.route.batch import RectsKey, rects_key
from repro.route.result import RoutedLayout
from repro.route.router import RouterConfig, route_placement
from repro.service.batch import BatchResult, instantiate_batch
from repro.service.cache import LRUCache, MemoizingInstantiator
from repro.service.fingerprint import structure_key
from repro.service.registry import StructureRegistry
from repro.utils.timer import Timer


@dataclass(frozen=True)
class ServiceStats:
    """Counters describing everything a :class:`PlacementService` served.

    A frozen value: :meth:`PlacementService.snapshot` builds one from the
    service's counter registry, and nothing writes to it afterwards.

    Tier counters follow the instantiator's three-tier lookup: a
    ``structure`` hit is the strict Equation 4/5 containment lookup, a
    ``nearest`` hit reuses the best legal stored placement outside every
    box, and ``fallback`` is the template placement of last resort.
    """

    queries: int = 0
    batches: int = 0
    structure_hits: int = 0
    nearest_hits: int = 0
    fallback_hits: int = 0
    #: Queries answered from a per-structure memo table.
    memo_hits: int = 0
    #: Batch queries answered by deduplication against the same batch.
    dedup_hits: int = 0
    #: Structures served from the on-disk registry.
    structures_loaded: int = 0
    #: Structures generated because no tier had them.
    structures_generated: int = 0
    #: Instantiators served from the in-memory LRU.
    cache_hits: int = 0
    cache_misses: int = 0
    #: Wall-clock seconds spent answering queries.
    total_seconds: float = 0.0
    #: Routing queries served (placements turned into routed layouts).
    route_queries: int = 0
    #: Routing queries answered from the route cache.
    route_cache_hits: int = 0
    #: Wall-clock seconds spent routing.
    route_seconds: float = 0.0
    #: Vectorized batch cost sweeps run by the served instantiators.
    batch_evals: int = 0
    #: Candidate layouts scored inside those sweeps.
    batch_candidates: int = 0
    #: Batches that fell back to the scalar evaluation loop.
    vector_fallbacks: int = 0

    #: Namespace the counters take when rendered as metrics.
    METRIC_PREFIX: ClassVar[str] = "service."

    @classmethod
    def from_counts(cls, counts: Mapping[str, float]) -> "ServiceStats":
        """The stats holding ``counts`` (a name that is absent counts zero)."""
        # Each field's default, 0 or 0.0, gives the type its count takes.
        return cls(**{
            item.name: type(item.default)(counts.get(item.name, 0))
            for item in fields(cls)
        })

    def counters(self) -> Dict[str, float]:
        """The additive counters as plain data (no derived ratios)."""
        return {item.name: getattr(self, item.name) for item in fields(self)}

    @property
    def metrics(self) -> MetricsRegistry:
        """The counters as a metrics registry, named ``service.<field>``."""
        registry = MetricsRegistry()
        registry.merge_counters(self.counters(), prefix=self.METRIC_PREFIX)
        return registry

    @property
    def tier_counts(self) -> Dict[str, int]:
        """Per-tier hit counters keyed by the instantiator's source tags."""
        return {
            SOURCE_STRUCTURE: self.structure_hits,
            SOURCE_NEAREST: self.nearest_hits,
            SOURCE_FALLBACK: self.fallback_hits,
        }

    @property
    def structure_hit_rate(self) -> float:
        """Fraction of queries answered by strict containment."""
        if self.queries == 0:
            return 0.0
        return self.structure_hits / self.queries

    @property
    def mean_latency_seconds(self) -> float:
        """Average wall-clock seconds per query."""
        if self.queries == 0:
            return 0.0
        return self.total_seconds / self.queries

    def as_dict(self) -> Dict[str, float]:
        """Plain-data form for reports: the counters plus the derived ratios."""
        return {
            **self.counters(),
            "structure_hit_rate": self.structure_hit_rate,
            "mean_latency_seconds": self.mean_latency_seconds,
        }


#: What the workers of a pooled batch count that this process cannot see:
#: their structure-cache and memo traffic and their scoring sweeps.  The
#: queries, tiers, dedup and latency of the batch are counted here, from
#: the answers the workers hand back.
_WORKER_COUNTERS = (
    "memo_hits", "structures_loaded", "structures_generated", "cache_hits",
    "cache_misses", "batch_evals", "batch_candidates", "vector_fallbacks",
)


def _tier_counts(source_counts: Mapping[str, int]) -> Dict[str, int]:
    """The tier counters (``structure_hits``, …) of a ``{source: count}`` tally."""
    return {f"{source}_hits": count for source, count in source_counts.items()}


class PlacementService:
    """Serve placements for any circuit from one long-lived object.

    Parameters
    ----------
    registry:
        Optional on-disk structure library.  Without one the service still
        works, generating structures in memory (and losing them when the
        instantiator cache evicts them).
    default_config:
        Generation configuration used when a call does not pass its own.
    cache_capacity:
        Number of (structure, instantiator) pairs kept loaded.
    memo_capacity:
        Per-structure bound on memoized dimension-vector queries.
    fallback_mode:
        Passed through to every :class:`PlacementInstantiator`.
    route_cache_capacity:
        Number of routed layouts kept alongside the placements; routes
        are keyed by the structure fingerprint plus the placed rects, so
        re-routing the same floorplan is a cache hit.
    default_router:
        Router configuration used when a routing call does not pass its
        own.
    """

    def __init__(
        self,
        registry: Optional[StructureRegistry] = None,
        default_config: Optional[GeneratorConfig] = None,
        cache_capacity: int = 8,
        memo_capacity: int = 4096,
        fallback_mode: str = FALLBACK_BEST_STORED,
        route_cache_capacity: int = 256,
        default_router: Optional[RouterConfig] = None,
    ) -> None:
        self._registry = registry
        self._default_config = default_config
        self._cache_capacity = cache_capacity
        self._memo_capacity = memo_capacity
        self._fallback_mode = fallback_mode
        self._instantiators: LRUCache[str, MemoizingInstantiator] = LRUCache(cache_capacity)
        self._routes: LRUCache[Tuple[str, RectsKey, Optional[RouterConfig]], RoutedLayout] = (
            LRUCache(route_cache_capacity)
        )
        self._default_router = default_router
        #: Every counter of :class:`ServiceStats`, by field name.  Each event
        #: lands as one ``merge_counters`` group, which the registry applies
        #: under its lock, so a snapshot never sees half an event.
        self._metrics = MetricsRegistry()
        self._lock = threading.RLock()
        # Process pools for the workers=N fan-out, keyed by worker count
        # and reused across batches (workers cache their placers, so a
        # warm pool answers from loaded structures).
        self._pools: Dict[int, "WorkerPool"] = {}

    @property
    def registry(self) -> Optional[StructureRegistry]:
        """The backing structure library, if any."""
        return self._registry

    @property
    def default_config(self) -> Optional[GeneratorConfig]:
        """The generation config used when a call passes none."""
        return self._default_config

    @property
    def stats(self) -> ServiceStats:
        """The counters as of now (the same frozen value as :meth:`snapshot`)."""
        return self.snapshot()

    def snapshot(self) -> ServiceStats:
        """A *consistent* frozen copy of the counters.

        Each event's counters move together in one group under the
        registry lock (a query bumps ``queries``, its tier counter and
        ``total_seconds`` at once), and the snapshot reads under the same
        lock, so a reader never observes a torn state — e.g. a query
        counted whose tier hit is missing — however many requests are in
        flight.
        """
        return ServiceStats.from_counts(self._metrics.snapshot())

    def reset_stats(self) -> ServiceStats:
        """Zero every counter and return their values from before."""
        with self._lock:  # one reset at a time
            old = self.snapshot()
            # Subtracting (not dropping the counters) keeps a concurrent event
            # for the new window, in the registry the instantiators count into.
            self._metrics.merge_counters(
                {name: -value for name, value in old.counters().items()}
            )
        return old

    # ------------------------------------------------------------------ #
    # Structure provisioning
    # ------------------------------------------------------------------ #
    def warm(
        self, circuit: Circuit, config: Optional[GeneratorConfig] = None
    ) -> MultiPlacementStructure:
        """Ensure the structure for (``circuit``, ``config``) is loaded and return it."""
        return self.instantiator_for(circuit, config).structure

    def adopt(
        self, structure: MultiPlacementStructure, config: Optional[GeneratorConfig] = None
    ) -> None:
        """Seed the service with an already-generated ``structure``.

        Queries for the structure's circuit under ``config`` (default: the
        service's default config) are then served from it directly — the
        generation cost is never paid again, even without a registry.
        When the service *has* a registry, the structure is persisted into
        it too, so the ``workers=N`` process fan-out (whose workers answer
        from the registry) and future services see the adopted structure
        instead of regenerating a default one.
        """
        config = config if config is not None else self._default_config
        key = structure_key(structure.circuit, config)
        if self._registry is not None:
            self._registry.put(structure, config)
        with self._lock:
            self._instantiators.put(key, self._memoizing(structure))

    def _memoizing(self, structure: MultiPlacementStructure) -> MemoizingInstantiator:
        """A memoizing instantiator over ``structure`` that counts into this service."""
        return MemoizingInstantiator(
            PlacementInstantiator(
                structure, fallback_mode=self._fallback_mode, metrics=self._metrics
            ),
            capacity=self._memo_capacity,
        )

    def instantiator_for(
        self, circuit: Circuit, config: Optional[GeneratorConfig] = None
    ) -> MemoizingInstantiator:
        """The memoizing instantiator serving (``circuit``, ``config``).

        Resolution order: in-memory LRU, then the registry (which itself
        generates on a miss), then a direct in-memory generation run when
        the service has no registry.
        """
        config = config if config is not None else self._default_config
        key = structure_key(circuit, config)
        with self._lock:
            cached = self._instantiators.get(key)
            if cached is not None:
                self._metrics.merge_counters({"cache_hits": 1})
                return cached
            if self._registry is not None:
                structure, generated = self._registry.fetch(circuit, config)
            else:
                generator = MultiPlacementGenerator(circuit, config or GeneratorConfig())
                structure, generated = generator.generate(), True
            self._metrics.merge_counters(
                {
                    "cache_misses": 1,
                    "structures_generated" if generated else "structures_loaded": 1,
                }
            )
            memoizing = self._memoizing(structure)
            self._instantiators.put(key, memoizing)
            return memoizing

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def instantiate(
        self,
        circuit: Circuit,
        dims: Sequence[Dims],
        config: Optional[GeneratorConfig] = None,
    ) -> Placement:
        """Serve one placement for ``dims`` (given in ``circuit`` block order)."""
        with span("service.instantiate", circuit=circuit.name) as obs_span:
            with Timer() as timer:
                instantiator = self.instantiator_for(circuit, config)
                mapped = _map_dims(circuit, instantiator.structure.circuit, dims)
                result, from_memo = instantiator.instantiate_with_info(mapped)
            obs_span.set(source=result.source, memo_hit=from_memo)
        self._metrics.merge_counters(
            {
                "queries": 1,
                f"{result.source}_hits": 1,
                "total_seconds": timer.elapsed,
            }
        )
        if _obs_enabled():
            _obs_metrics().observe("service.query_seconds", timer.elapsed)
        return result

    def instantiate_batch(
        self,
        circuit: Circuit,
        dims_batch: Sequence[Sequence[Dims]],
        config: Optional[GeneratorConfig] = None,
        workers: Optional[int] = None,
        pin_slot: Optional[int] = None,
    ) -> BatchResult:
        """Serve a whole batch of queries with deduplication and fan-out.

        Without ``workers`` the batch runs in this process.  ``workers``
        asks for a process pool instead — the batch is deduplicated,
        sharded into picklable jobs, and each worker rebuilds a service
        over this service's registry (so the structure loads once per
        worker, and the workers' counter deltas fold into these
        counters).  Needs a registry; without one the call runs
        in this process.  ``pin_slot`` (with ``workers``) routes the whole
        batch to one worker process — the shard-affine path, where the
        owner of the circuit's registry shard answers from warm caches
        instead of fanning out.  Every path returns the same placements.
        """
        with span(
            "service.instantiate_batch",
            circuit=circuit.name,
            queries=len(dims_batch),
            workers=workers or 0,
        ) as obs_span:
            if workers is not None and workers > 1 and self._registry is not None:
                batch = self._instantiate_batch_processes(
                    circuit, dims_batch, config, workers, pin_slot=pin_slot
                )
                obs_span.set(
                    unique=batch.unique_queries, dedup=batch.duplicate_queries
                )
                return batch
            with Timer() as timer:
                instantiator = self.instantiator_for(circuit, config)
                structure_circuit = instantiator.structure.circuit
                if circuit.block_names() == structure_circuit.block_names():
                    mapped_batch = dims_batch
                else:
                    mapped_batch = [
                        _map_dims(circuit, structure_circuit, dims) for dims in dims_batch
                    ]
                batch = instantiate_batch(instantiator, mapped_batch)
            obs_span.set(unique=batch.unique_queries, dedup=batch.duplicate_queries)
        self._metrics.merge_counters(
            {
                "batches": 1,
                "queries": batch.total_queries,
                "dedup_hits": batch.duplicate_queries,
                "total_seconds": timer.elapsed,
                **_tier_counts(batch.source_counts),
            }
        )
        if _obs_enabled():
            _obs_metrics().observe("service.batch_seconds", timer.elapsed)
        return batch

    # ------------------------------------------------------------------ #
    # Process fan-out
    # ------------------------------------------------------------------ #
    def _pool_for(self, workers: int) -> "WorkerPool":
        from repro.parallel.pool import WorkerPool

        with self._lock:
            pool = self._pools.get(workers)
            if pool is None:
                pool = WorkerPool(workers=workers)
                self._pools[workers] = pool
            return pool

    def prestart_pool(self, workers: Optional[int]) -> None:
        """Fork the worker pool for ``workers`` now (see WorkerPool.prestart).

        Servers call this at startup so every worker process forks before
        request threads exist; forking mid-traffic risks inheriting a
        sibling thread's held import lock into the child, deadlocking it.
        A no-op without a registry or with ``workers <= 1`` (those paths
        never fork).
        """
        if workers is None or workers <= 1 or self._registry is None:
            return
        self._pool_for(workers).prestart()

    def _worker_spec(self, config: Optional[GeneratorConfig]) -> Dict[str, object]:
        """The declarative spec a worker rebuilds this service from.

        Ships the *resolved* generation config (never the ``scale`` name),
        so the worker's registry keys match the parent's exactly.
        """
        assert self._registry is not None
        config = config if config is not None else self._default_config
        return {
            "kind": "service",
            "registry": str(self._registry.root),
            "config": config if config is not None else GeneratorConfig(),
            "cache": self._cache_capacity,
            "memo": self._memo_capacity,
            "fallback": self._fallback_mode,
        }

    def _instantiate_batch_processes(
        self,
        circuit: Circuit,
        dims_batch: Sequence[Sequence[Dims]],
        config: Optional[GeneratorConfig],
        workers: int,
        pin_slot: Optional[int] = None,
    ) -> BatchResult:
        from repro.core.serialization import circuit_to_dict

        with Timer() as timer:
            pool = self._pool_for(workers)
            results, merged = pool.place_batch(
                circuit_to_dict(circuit),
                self._worker_spec(config),
                dims_batch,
                pin_slot=pin_slot,
            )
            # Workers answer through a ServicePlacer, which stamps its own
            # kind on each result; restore the label this process's
            # instantiator gives, so the answer does not depend on the path.
            relabeled: Dict[int, Placement] = {}
            for result in results:
                if id(result) not in relabeled:
                    relabeled[id(result)] = replace(
                        result, placer=PlacementInstantiator.name
                    )
            results = [relabeled[id(result)] for result in results]
        source_counts: Dict[str, int] = {}
        for result in results:
            source_counts[result.source] = source_counts.get(result.source, 0) + 1
        duplicates = int(merged.get("pool_dedup_hits", 0))
        self._metrics.merge_counters(
            {
                **{name: merged[name] for name in _WORKER_COUNTERS if name in merged},
                "batches": 1,
                "queries": len(results),
                "dedup_hits": duplicates,
                "total_seconds": timer.elapsed,
                **_tier_counts(source_counts),
            }
        )
        return BatchResult(
            results=list(results),
            unique_queries=int(merged.get("pool_unique_queries", len(results))),
            duplicate_queries=duplicates,
            elapsed_seconds=timer.elapsed,
            source_counts=source_counts,
            pool_stats=merged,
        )

    def close(self) -> None:
        """Shut down any process pools the fan-out paths started."""
        with self._lock:
            pools, self._pools = self._pools, {}
        for pool in pools.values():
            pool.close()

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    def route(
        self,
        circuit: Circuit,
        dims: Sequence[Dims],
        config: Optional[GeneratorConfig] = None,
        router: Optional[RouterConfig] = None,
    ) -> Tuple[Placement, RoutedLayout]:
        """Serve one placement for ``dims`` *with* its routed layout.

        The returned placement carries the routing statistics in
        ``metadata["routing"]``; the full :class:`RoutedLayout` rides
        alongside for consumers that need per-net paths.
        """
        placement = self.instantiate(circuit, dims, config)
        layout = self.route_rects(circuit, placement.rects, config=config, router=router)
        return placement.with_routing(layout), layout

    def route_rects(
        self,
        circuit: Circuit,
        rects: Mapping[str, Rect],
        config: Optional[GeneratorConfig] = None,
        router: Optional[RouterConfig] = None,
    ) -> RoutedLayout:
        """Route an already-placed floorplan, through the route cache.

        Routes are cached next to the placements, keyed by the structure
        fingerprint of (``circuit``, ``config``) plus the placed rects and
        the router configuration — identical floorplans of the same
        topology route once.
        """
        router = router if router is not None else self._default_router
        config = config if config is not None else self._default_config
        with span("service.route", circuit=circuit.name) as obs_span:
            with Timer() as timer:
                key = (structure_key(circuit, config), rects_key(rects), router)
                layout = self._routes.get(key)
                cached = layout is not None
                if layout is None:
                    layout = route_placement(circuit, rects, config=router)
                    self._routes.put(key, layout)
            obs_span.set(cache_hit=cached)
        self._metrics.merge_counters(
            {
                "route_queries": 1,
                "route_cache_hits": int(cached),
                "route_seconds": timer.elapsed,
            }
        )
        return layout

    def route_batch(
        self,
        circuit: Circuit,
        dims_batch: Sequence[Sequence[Dims]],
        config: Optional[GeneratorConfig] = None,
        router: Optional[RouterConfig] = None,
        workers: Optional[int] = None,
    ) -> List[Tuple[Placement, RoutedLayout]]:
        """Serve a batch of placements *with* routed layouts.

        Placements come from :meth:`instantiate_batch` (``workers`` fans
        both stages across the same process pool); distinct floorplans are
        then routed once each — first through the route cache, the cache
        misses across the pool — and every duplicate shares the layout.
        """
        with span(
            "service.route_batch",
            circuit=circuit.name,
            queries=len(dims_batch),
            workers=workers or 0,
        ) as obs_span:
            return self._route_batch_inner(
                circuit, dims_batch, config, router, workers, obs_span
            )

    def _route_batch_inner(
        self,
        circuit: Circuit,
        dims_batch: Sequence[Sequence[Dims]],
        config: Optional[GeneratorConfig],
        router: Optional[RouterConfig],
        workers: Optional[int],
        obs_span,
    ) -> List[Tuple[Placement, RoutedLayout]]:
        batch = self.instantiate_batch(circuit, dims_batch, config, workers=workers)
        router_config = router if router is not None else self._default_router
        skey = structure_key(
            circuit, config if config is not None else self._default_config
        )
        with Timer() as timer:
            # One routing job per distinct floorplan; cache hits never route.
            order: List[RectsKey] = []
            rects_by_key: Dict[RectsKey, Mapping[str, Rect]] = {}
            for placement in batch.results:
                key = rects_key(placement.rects)
                if key not in rects_by_key:
                    rects_by_key[key] = placement.rects
                    order.append(key)
            layouts: Dict[RectsKey, RoutedLayout] = {}
            misses: List[RectsKey] = []
            cache_hits = 0
            for key in order:
                cached = self._routes.get((skey, key, router_config))
                if cached is not None:
                    layouts[key] = cached
                    cache_hits += 1
                else:
                    misses.append(key)
            if misses:
                if workers is not None and workers > 1 and len(misses) > 1:
                    from repro.core.serialization import circuit_to_dict

                    routed, _ = self._pool_for(workers).route_batch(
                        circuit_to_dict(circuit),
                        [
                            {
                                name: (rect.x, rect.y, rect.w, rect.h)
                                for name, rect in rects_by_key[key].items()
                            }
                            for key in misses
                        ],
                        router_config,
                    )
                else:
                    routed = [
                        route_placement(
                            circuit, rects_by_key[key], config=router_config
                        )
                        for key in misses
                    ]
                for key, layout in zip(misses, routed):
                    layouts[key] = layout
                    self._routes.put((skey, key, router_config), layout)
        obs_span.set(unique_floorplans=len(order), route_cache_hits=cache_hits)
        self._metrics.merge_counters(
            {
                "route_queries": len(batch.results),
                "route_cache_hits": cache_hits,
                "route_seconds": timer.elapsed,
            }
        )
        return [
            (placement.with_routing(layouts[rects_key(placement.rects)]),
             layouts[rects_key(placement.rects)])
            for placement in batch.results
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        registry = "none" if self._registry is None else str(self._registry.root)
        return (
            f"PlacementService(registry={registry!r}, "
            f"cached={len(self._instantiators)}, queries={self.snapshot().queries})"
        )


def _map_dims(
    caller: Circuit, served: Circuit, dims: Sequence[Dims]
) -> Tuple[Dims, ...]:
    """Reorder ``dims`` from the caller's block order to the served circuit's.

    Fingerprints are order-insensitive, so a registry structure may have
    been generated from a permutation of the caller's block list; block
    names identify the mapping.
    """
    if len(dims) != caller.num_blocks:
        raise ValueError(
            f"dimension vector must have {caller.num_blocks} entries, got {len(dims)}"
        )
    caller_names = caller.block_names()
    served_names = served.block_names()
    if caller_names == served_names:
        return tuple((int(w), int(h)) for w, h in dims)
    return tuple(
        (int(dims[caller.block_index(name)][0]), int(dims[caller.block_index(name)][1]))
        for name in served_names
    )
