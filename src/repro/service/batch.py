"""Batched placement instantiation with deduplication.

Synthesis optimizers (population-based sizing, parallel SA chains, design
space sweeps) naturally produce *batches* of dimension vectors, and those
batches are heavy with duplicates: module generators snap continuous sizes
onto integer grids, so distinct sizing points frequently collapse onto the
same dimension vector.  Instantiating each unique vector once and fanning
the results back out is therefore the single biggest win of the service
layer.  The unique queries run in this process, scored in one vectorized
sweep; spreading a batch across processes is the worker pool's job
(:meth:`repro.service.engine.PlacementService.instantiate_batch` with
``workers``), not this module's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.api.placement import Placement
from repro.core.instantiator import PlacementInstantiator
from repro.core.placement_entry import Dims
from repro.service.cache import MemoizingInstantiator
from repro.utils.timer import Timer

AnyInstantiator = Union[PlacementInstantiator, MemoizingInstantiator]


@dataclass
class BatchResult:
    """Everything produced by one batched instantiation call."""

    #: One placement per input query, in input order.
    results: List[Placement]
    #: Number of unique dimension vectors actually instantiated.
    unique_queries: int
    #: Number of input queries answered by deduplication.
    duplicate_queries: int
    elapsed_seconds: float = 0.0
    #: Sources of the returned placements, tallied over *all* queries.
    source_counts: Dict[str, int] = field(default_factory=dict)
    #: Merged worker/pool counters when the batch ran on a process pool
    #: (``pool_jobs``, ``pool_worker_processes``, worker stats deltas, …);
    #: empty for in-process batches.
    pool_stats: Dict[str, float] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, index: int) -> Placement:
        return self.results[index]

    @property
    def total_queries(self) -> int:
        """Number of input queries."""
        return len(self.results)

    @property
    def queries_per_second(self) -> float:
        """Throughput of the batch call."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.total_queries / self.elapsed_seconds


def _dims_key(instantiator: AnyInstantiator, dims: Sequence[Dims]) -> Tuple[Dims, ...]:
    """The clamped, hashable dedup key of one query."""
    if isinstance(instantiator, MemoizingInstantiator):
        return instantiator.cache_key(dims)
    blocks = instantiator.structure.circuit.blocks
    return tuple(block.clamp_dims(int(w), int(h)) for block, (w, h) in zip(blocks, dims))


def instantiate_batch(
    instantiator: AnyInstantiator,
    dims_batch: Sequence[Sequence[Dims]],
) -> BatchResult:
    """Instantiate every dimension vector in ``dims_batch``.

    Identical vectors (after per-block clamping) are instantiated once and
    shared.

    Parameters
    ----------
    instantiator:
        A :class:`PlacementInstantiator` or :class:`MemoizingInstantiator`.
    dims_batch:
        One dimension vector per query.
    """
    with Timer() as timer:
        order: List[Tuple[Dims, ...]] = []
        positions: Dict[Tuple[Dims, ...], List[int]] = {}
        # Two-level dedup: exact repeats collapse on the raw vector without
        # paying the per-block clamp, then clamping merges the remainder.
        raw_to_clamped: Dict[Tuple[Dims, ...], Tuple[Dims, ...]] = {}
        num_blocks = instantiator.structure.circuit.num_blocks
        for position, dims in enumerate(dims_batch):
            raw = tuple((w, h) for w, h in dims)
            if len(raw) != num_blocks:
                raise ValueError(
                    f"dimension vector {position} must have {num_blocks} entries, "
                    f"got {len(raw)}"
                )
            key = raw_to_clamped.get(raw)
            if key is None:
                key = _dims_key(instantiator, dims)
                raw_to_clamped[raw] = key
            if key not in positions:
                positions[key] = []
                order.append(key)
            positions[key].append(position)

        # More than one unique query goes through ``instantiate_many``,
        # which scores the batch in one vectorized cost sweep — bitwise
        # identical to the per-query loop — and itself falls back to (and
        # counts) the scalar loop when vectorization is unavailable.
        instantiate_many = getattr(instantiator, "instantiate_many", None)
        if len(order) > 1 and instantiate_many is not None:
            unique_results = instantiate_many(order)
        else:
            unique_results = [instantiator.instantiate(key) for key in order]

        results: List[Optional[Placement]] = [None] * len(dims_batch)
        source_counts: Dict[str, int] = {}
        for key, result in zip(order, unique_results):
            spots = positions[key]
            source_counts[result.source] = source_counts.get(result.source, 0) + len(spots)
            for position in spots:
                results[position] = result
    return BatchResult(
        results=results,  # type: ignore[arg-type] # every slot filled above
        unique_queries=len(order),
        duplicate_queries=len(dims_batch) - len(order),
        elapsed_seconds=timer.elapsed,
        source_counts=source_counts,
    )

