"""Bounded LRU caching for the placement service.

Two levels of caching sit between a query and the disk:

* :class:`LRUCache` — a small, thread-safe, bounded map used by the engine
  to keep recently-served (structure, instantiator) pairs loaded, so a
  service juggling many topologies does not re-deserialize a structure on
  every request.
* :class:`MemoizingInstantiator` — wraps a
  :class:`~repro.core.instantiator.PlacementInstantiator` and memoizes the
  dimension-vector -> placement mapping.  Synthesis loops revisit sizing
  points constantly (SA proposals oscillate around accepted states), so
  repeated queries are the common case, and a
  :class:`~repro.api.Placement` is frozen and safe to share between
  callers.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Generic, Hashable, List, Optional, Sequence, Tuple, TypeVar

from repro.api.placement import Placement
from repro.core.instantiator import PlacementInstantiator
from repro.core.placement_entry import Dims

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


@dataclass
class CacheStats:
    """Hit/miss/eviction counters of one cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def requests(self) -> int:
        """Total lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache."""
        if self.requests == 0:
            return 0.0
        return self.hits / self.requests

    def as_dict(self) -> Dict[str, float]:
        """Plain-data snapshot."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


class LRUCache(Generic[K, V]):
    """A thread-safe, bounded least-recently-used map."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        self._capacity = capacity
        self._lock = threading.Lock()
        self._data: "OrderedDict[K, V]" = OrderedDict()
        self._stats = CacheStats()

    @property
    def capacity(self) -> int:
        """Maximum number of entries held."""
        return self._capacity

    @property
    def stats(self) -> CacheStats:
        """The cache's hit/miss/eviction counters."""
        return self._stats

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: K) -> bool:
        with self._lock:
            return key in self._data

    def get(self, key: K, default: Optional[V] = None) -> Optional[V]:
        """The value under ``key`` (marking it most-recently used), or ``default``."""
        with self._lock:
            if key not in self._data:
                self._stats.misses += 1
                return default
            self._stats.hits += 1
            self._data.move_to_end(key)
            return self._data[key]

    def put(self, key: K, value: V) -> None:
        """Insert ``key``, evicting the least-recently-used entry when full."""
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                self._data[key] = value
                return
            if len(self._data) >= self._capacity:
                self._data.popitem(last=False)
                self._stats.evictions += 1
            self._data[key] = value

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._data.clear()

    def keys(self) -> Tuple[K, ...]:
        """Current keys, least-recently used first."""
        with self._lock:
            return tuple(self._data.keys())

    def items(self) -> Tuple[Tuple[K, V], ...]:
        """Current entries, least-recently used first (recency unchanged)."""
        with self._lock:
            return tuple(self._data.items())


class MemoizingInstantiator:
    """A :class:`PlacementInstantiator` with a bounded per-query memo table.

    The memo key is the *clamped* dimension vector — the same normalization
    the instantiator itself applies — so out-of-bounds queries that clamp
    to the same admissible vector share one entry.  Each memo hit counts
    as ``memo_hits`` in the wrapped instantiator's metrics registry (the
    placement service's, for the instantiators a service builds).
    """

    def __init__(self, instantiator: PlacementInstantiator, capacity: int = 4096) -> None:
        self._instantiator = instantiator
        self._memo: LRUCache[Tuple[Dims, ...], Placement] = LRUCache(capacity)

    @property
    def instantiator(self) -> PlacementInstantiator:
        """The wrapped instantiator."""
        return self._instantiator

    @property
    def structure(self):
        """The structure being queried (mirrors the instantiator's property)."""
        return self._instantiator.structure

    @property
    def memo_stats(self) -> CacheStats:
        """Hit/miss/eviction counters of the memo table."""
        return self._memo.stats

    def cache_key(self, dims: Sequence[Dims]) -> Tuple[Dims, ...]:
        """The clamped, hashable form of a dimension vector."""
        blocks = self._instantiator.structure.circuit.blocks
        return tuple(
            block.clamp_dims(int(w), int(h)) for block, (w, h) in zip(blocks, dims)
        )

    def instantiate(self, dims: Sequence[Dims]) -> Placement:
        """Memoized :meth:`PlacementInstantiator.instantiate`."""
        return self.instantiate_with_info(dims)[0]

    def instantiate_many(self, dims_batch: Sequence[Sequence[Dims]]) -> List[Placement]:
        """Memoized :meth:`PlacementInstantiator.instantiate_many`.

        Memo hits are answered from the table; the misses run through the
        wrapped instantiator's single vectorized cost sweep and are stored
        for next time.  Memo hit/miss statistics match the per-query path.
        """
        keys = [self.cache_key(dims) for dims in dims_batch]
        resolved: Dict[Tuple[Dims, ...], Placement] = {}
        # An insertion-ordered set: a list's ``in`` made this quadratic.
        pending: Dict[Tuple[Dims, ...], None] = {}
        for key in keys:
            if key in resolved or key in pending:
                continue
            cached = self._memo.get(key)
            if cached is not None:
                resolved[key] = cached
            else:
                pending[key] = None
        if resolved:
            self._instantiator.metrics.merge_counters({"memo_hits": len(resolved)})
        if pending:
            placements = self._instantiator.instantiate_many(list(pending))
            for key, placement in zip(pending, placements):
                self._memo.put(key, placement)
                resolved[key] = placement
        return [resolved[key] for key in keys]

    def vector_ready(self) -> bool:
        """Whether batch queries will score on the vectorized path."""
        return self._instantiator.vector_ready()

    def vector_stats(self) -> Dict[str, int]:
        """The wrapped instantiator's vectorized batch-scoring counters."""
        return self._instantiator.vector_stats()

    def instantiate_with_info(
        self, dims: Sequence[Dims]
    ) -> Tuple[Placement, bool]:
        """``(placement, from_memo)`` — the flag is True on a memo hit."""
        key = self.cache_key(dims)
        cached = self._memo.get(key)
        if cached is not None:
            self._instantiator.metrics.merge_counters({"memo_hits": 1})
            return cached, True
        result = self._instantiator.instantiate(key)
        self._memo.put(key, result)
        return result, False

    def clear(self) -> None:
        """Drop all memoized placements."""
        self._memo.clear()
