"""Shard-affinity routing: send each batch to the worker that owns it.

The PR 5 registry shards structures by fingerprint prefix, and the PR 7
server fans batches across a process pool — but shard-blind: any worker
may answer any circuit, so every worker ends up loading every structure,
and a coalesced batch barriers on the slowest of N IPC round trips.

:class:`AffinityRouter` closes that gap.  It maps a circuit's registry
key through the :class:`~repro.parallel.sharding.ShardOwnerMap` to the
one worker slot that owns the circuit's shard, and the server pins the
whole sub-batch there (``instantiate_batch(pin_slot=...)``): one IPC
round trip to a process whose structure cache, memo table, and shard
index are already warm.  The router only picks the slot: the
:class:`~repro.serve.batcher.MicroBatcher` splits a mixed batch by
circuit before dispatch, so a fast circuit's requests resolve without
waiting for a slow one's.

Routing decisions are cached per circuit object, in an LRU as large as
the server's circuit resolver cache; recording is thread-safe because
dispatches land on executor threads.  Everything the router observes is
exposed twice: ``serve.affinity.*`` metrics (hit/miss counters and
per-shard latency histograms) and a structured :meth:`stats` payload for
``/debug/statusz``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.parallel.sharding import (
    DEFAULT_SHARD_CHARS,
    ShardedStructureRegistry,
    ShardOwnerMap,
)
from repro.serve.protocol import RESOLVED_CIRCUITS
from repro.service.cache import LRUCache
from repro.service.engine import PlacementService
from repro.service.fingerprint import structure_key


@dataclass(frozen=True)
class AffinityDecision:
    """Where one circuit's work goes: its shard prefix and owner slot.

    ``slot`` is ``None`` when affinity is inactive (no registry, a single
    worker, or disabled by config) — the dispatch then takes the
    shard-blind path and counts as an affinity *miss*.
    """

    key: str
    shard: str
    slot: Optional[int]

    @property
    def pinned(self) -> bool:
        """True when the dispatch is routed to a dedicated owner slot."""
        return self.slot is not None


class AffinityRouter:
    """Route circuits to the worker slots that own their registry shards.

    Parameters
    ----------
    service:
        The placement service whose registry defines the shard layout.
        A :class:`ShardedStructureRegistry` contributes its persisted
        ``shard_chars``; a flat registry gets *virtual* shards over the
        same fingerprint prefix (the owner map works identically).
    workers:
        The server's ``service_workers`` process fan-out; affinity needs
        more than one worker to mean anything.
    metrics:
        Registry receiving ``serve.affinity.*`` counters and per-shard
        latency histograms.
    enabled:
        Master switch (``ServerConfig.affinity``); when off every
        dispatch takes the shard-blind path.
    """

    def __init__(
        self,
        service: PlacementService,
        workers: Optional[int],
        metrics: Optional[MetricsRegistry] = None,
        enabled: bool = True,
    ) -> None:
        self._service = service
        self._workers = int(workers) if workers else 0
        self._enabled = enabled
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        registry = service.registry
        shard_chars = DEFAULT_SHARD_CHARS
        if isinstance(registry, ShardedStructureRegistry):
            shard_chars = registry.shard_chars
        self._owner_map = ShardOwnerMap(
            workers=max(1, self._workers), shard_chars=shard_chars
        )
        #: id(circuit) -> (circuit, decision); the strong reference keeps
        #: the id stable for the entry's lifetime.  Bounded like the
        #: resolver's circuit cache, so a stream of distinct inline
        #: netlists cannot grow it without limit.
        self._decisions: LRUCache[int, Tuple[Any, AffinityDecision]] = LRUCache(
            RESOLVED_CIRCUITS
        )
        self._lock = threading.Lock()
        self._shard_stats: Dict[str, Dict[str, float]] = {}

    @property
    def active(self) -> bool:
        """True when dispatches are actually pinned to owner slots."""
        return (
            self._enabled
            and self._workers > 1
            and self._service.registry is not None
        )

    @property
    def owner_map(self) -> ShardOwnerMap:
        """The deterministic shard → slot assignment in force."""
        return self._owner_map

    def route(self, circuit: Any, config: Optional[Any] = None) -> AffinityDecision:
        """The (cached) routing decision for ``circuit``.

        ``config`` defaults to the service's default generation config so
        the computed key matches what the dispatch path will look up.
        """
        entry = self._decisions.get(id(circuit))
        if entry is not None:
            return entry[1]
        key = structure_key(
            circuit, config if config is not None else self._service.default_config
        )
        shard = self._owner_map.prefix_for(key)
        slot = self._owner_map.owner_for(shard) if self.active else None
        decision = AffinityDecision(key=key, shard=shard, slot=slot)
        self._decisions.put(id(circuit), (circuit, decision))
        return decision

    # ------------------------------------------------------------------ #
    # Observation
    # ------------------------------------------------------------------ #
    def record(self, decision: AffinityDecision, seconds: float) -> None:
        """Account one dispatch routed under ``decision`` (thread-safe)."""
        if decision.pinned:
            self._metrics.inc("serve.affinity.hits")
        else:
            self._metrics.inc("serve.affinity.misses")
        self._metrics.observe(
            f"serve.affinity.shard.{decision.shard}.seconds", seconds
        )
        with self._lock:
            stats = self._shard_stats.get(decision.shard)
            if stats is None:
                stats = {
                    "slot": float(decision.slot) if decision.pinned else -1.0,
                    "dispatches": 0.0,
                    "total_seconds": 0.0,
                    "max_seconds": 0.0,
                }
                self._shard_stats[decision.shard] = stats
            stats["dispatches"] += 1
            stats["total_seconds"] += seconds
            stats["max_seconds"] = max(stats["max_seconds"], seconds)

    def stats(self) -> Dict[str, Any]:
        """The router's state for ``/debug/statusz``."""
        snapshot = self._metrics.snapshot()
        with self._lock:
            shards = {
                shard: {
                    "slot": int(stats["slot"]),
                    "dispatches": int(stats["dispatches"]),
                    "mean_seconds": (
                        round(stats["total_seconds"] / stats["dispatches"], 6)
                        if stats["dispatches"]
                        else 0.0
                    ),
                    "max_seconds": round(stats["max_seconds"], 6),
                }
                for shard, stats in self._shard_stats.items()
            }
        return {
            "enabled": self._enabled,
            "active": self.active,
            "workers": self._workers,
            "shard_chars": self._owner_map.shard_chars,
            "hits": float(snapshot.get("serve.affinity.hits", 0)),
            "misses": float(snapshot.get("serve.affinity.misses", 0)),
            "shards": shards,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"AffinityRouter(active={self.active}, workers={self._workers}, "
            f"shard_chars={self._owner_map.shard_chars})"
        )
