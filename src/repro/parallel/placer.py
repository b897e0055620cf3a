"""The ``"parallel"`` engine: any inner placer, fanned across processes.

``make_placer({"kind": "parallel", "inner": {"kind": "service", ...},
"workers": 4}, circuit)`` wraps an *inner* declarative spec in a
:class:`ParallelPlacer`.  Single queries run on a local instance of the
inner engine (a pool round-trip cannot beat an in-process call);
``place_batch`` deduplicates the batch, shards the unique queries into
picklable jobs and fans them across a :class:`~repro.parallel.pool.WorkerPool`,
where each worker reconstructs the inner engine from the spec.

Determinism: for stateless inner engines (``mps`` / ``service`` /
``template``) every query is answered independently, so results are
bit-identical at any worker count by construction.  Stochastic inner
engines (``annealing`` / ``genetic`` / ``random``) carry hidden RNG state
across queries and would drift with sharding; ``reseed="per_query"``
rebuilds them per query with a deterministic seed stream instead, which
restores bit-identity at the cost of per-query construction.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Union

from repro.api.placement import Dims, Placement
from repro.api.placer import Placer
from repro.circuit.netlist import Circuit
from repro.obs.metrics import MetricsRegistry
from repro.parallel.pool import BATCH_FACTS, WorkerPool
from repro.utils.rng import stream_seed

#: ``reseed`` modes: leave the inner spec alone, or reseed per query.
RESEED_NONE = "none"
RESEED_PER_QUERY = "per_query"


class ParallelPlacer(Placer):
    """Fan an inner placement engine's batches across worker processes."""

    name = "parallel"

    def __init__(
        self,
        circuit: Circuit,
        inner: Union[str, Mapping[str, object]],
        workers: int = 2,
        bounds=None,
        reseed: str = RESEED_NONE,
        start_method: Optional[str] = None,
    ) -> None:
        from repro.api.registry import normalize_spec

        if reseed not in (RESEED_NONE, RESEED_PER_QUERY):
            raise ValueError(
                f"reseed must be {RESEED_NONE!r} or {RESEED_PER_QUERY!r}, got {reseed!r}"
            )
        self._circuit = circuit
        self._inner_spec = normalize_spec(inner)
        if bounds is not None and "bounds" not in self._inner_spec:
            self._inner_spec["bounds"] = bounds
        self._reseed = reseed
        self._pool = WorkerPool(workers=workers, start_method=start_method)
        self._local: Optional[Placer] = None
        self._circuit_data: Optional[Dict[str, object]] = None
        #: The workers' inner-engine counters and the pool counters, under
        #: their own names; each batch lands as one ``merge_counters`` group.
        self._metrics = MetricsRegistry()

    # ------------------------------------------------------------------ #
    # Wiring
    # ------------------------------------------------------------------ #
    @property
    def circuit(self) -> Circuit:
        """The circuit this placer answers queries for."""
        return self._circuit

    @property
    def inner_spec(self) -> Dict[str, object]:
        """The declarative spec workers rebuild the inner engine from."""
        return dict(self._inner_spec)

    @property
    def workers(self) -> int:
        """Worker-process count of the underlying pool."""
        return self._pool.workers

    @property
    def pool(self) -> WorkerPool:
        """The worker pool (shared; close it with :meth:`close`)."""
        return self._pool

    def _local_placer(self) -> Placer:
        from repro.api.registry import make_placer

        if self._local is None:
            self._local = make_placer(self._inner_spec, self._circuit)
        return self._local

    def _serialized_circuit(self) -> Dict[str, object]:
        from repro.core.serialization import circuit_to_dict

        if self._circuit_data is None:
            self._circuit_data = circuit_to_dict(self._circuit)
        return self._circuit_data

    def close(self) -> None:
        """Shut the worker pool down (the placer stays usable; it restarts)."""
        self._pool.close()

    def __enter__(self) -> "ParallelPlacer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Placer protocol
    # ------------------------------------------------------------------ #
    def place(self, dims: Sequence[Dims]) -> Placement:
        """One query — answered by a local inner engine, never the pool."""
        return self._local_placer().place(dims)

    def place_batch(self, queries: Sequence[Sequence[Dims]]) -> List[Placement]:
        """Dedup, shard and fan the batch across the worker pool."""
        per_query_seeds = None
        if self._reseed == RESEED_PER_QUERY:
            base = int(self._inner_spec.get("seed", 0))  # type: ignore[arg-type]
            per_query_seeds = [stream_seed(base, index) for index in range(len(queries))]
        results, merged = self._pool.place_batch(
            self._serialized_circuit(),
            self._inner_spec,
            queries,
            per_query_seeds=per_query_seeds,
        )
        counters = {key: value for key, value in merged.items() if key not in BATCH_FACTS}
        counters["pool_batches"] = 1
        self._metrics.merge_counters(counters)
        return results

    def stats(self) -> Dict[str, float]:
        """Counters only, summed over every query and batch served.

        The inner engine's counters under their own names, summed over the
        workers' batches and the local engine's single queries, plus the
        pool's ``pool_*`` counters (``pool_batches`` counts batches) and
        ``workers``, the pool size.  A batch's
        :data:`~repro.parallel.pool.BATCH_FACTS` describe that batch alone,
        so they stay in its own stats and are never summed.
        """
        stats: Dict[str, float] = {"pool_batches": 0.0}
        for key, value in self._metrics.snapshot().items():
            stats[key] = float(value)  # type: ignore[arg-type] # counters only
        local = self._local
        if local is not None:
            for key, value in local.stats().items():
                if isinstance(value, (int, float)):
                    stats[key] = stats.get(key, 0.0) + float(value)
        stats["workers"] = float(self._pool.workers)
        return stats
