"""Shard-affinity routing: send each batch to the worker that owns it.

A registry key's leading characters name its shard: a directory of a
sharded registry, or a virtual shard of a flat one.  A shard-blind process
pool lets any worker answer any circuit, so every worker ends up loading
every structure, and a coalesced batch barriers on the slowest of N IPC
round trips.

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
the server's circuit resolver cache.  Each dispatch is counted once, into
the server's metrics registry: a ``serve.affinity.hits`` or ``misses``
counter and a ``serve.affinity.shard.<shard>.seconds`` latency histogram.
:meth:`AffinityRouter.stats` reads the ``/debug/statusz`` payload back
from those metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.parallel.sharding import DEFAULT_SHARD_CHARS, ShardOwnerMap
from repro.serve.protocol import RESOLVED_CIRCUITS
from repro.service.cache import LRUCache
from repro.service.engine import PlacementService
from repro.service.fingerprint import structure_key

#: A shard's dispatch latency histogram is named ``<prefix><shard><suffix>``.
_SHARD_PREFIX = "serve.affinity.shard."
_SHARD_SUFFIX = ".seconds"


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
        A sharded registry contributes its persisted ``shard_chars``; a
        flat registry (or none) gets *virtual* shards of
        ``DEFAULT_SHARD_CHARS`` over the same fingerprint prefix (the
        owner map works identically).
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
        shard_chars = registry.shard_chars if registry is not None else None
        self._owner_map = ShardOwnerMap(
            workers=max(1, self._workers),
            shard_chars=shard_chars or DEFAULT_SHARD_CHARS,
        )
        #: id(circuit) -> (circuit, decision); the strong reference keeps
        #: the id stable for the entry's lifetime.  Bounded like the
        #: resolver's circuit cache, so a stream of distinct inline
        #: netlists cannot grow it without limit.
        self._decisions: LRUCache[int, Tuple[Any, AffinityDecision]] = LRUCache(
            RESOLVED_CIRCUITS
        )

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
        """Account one dispatch routed under ``decision``."""
        if decision.pinned:
            self._metrics.inc("serve.affinity.hits")
        else:
            self._metrics.inc("serve.affinity.misses")
        self._metrics.observe(
            f"{_SHARD_PREFIX}{decision.shard}{_SHARD_SUFFIX}", seconds
        )

    def stats(self) -> Dict[str, Any]:
        """The router's state for ``/debug/statusz``.

        Hit and miss totals come from the ``serve.affinity.*`` counters,
        and each shard's dispatch count and mean and max seconds from its
        latency histogram; a shard's slot is its owner in the owner map,
        or -1 while dispatches are not pinned.
        """
        snapshot = self._metrics.snapshot()
        shards = {}
        for name, summary in snapshot.items():
            if name.startswith(_SHARD_PREFIX) and name.endswith(_SHARD_SUFFIX):
                shard = name[len(_SHARD_PREFIX):-len(_SHARD_SUFFIX)]
                shards[shard] = {
                    "slot": self._owner_map.owner_for(shard) if self.active else -1,
                    "dispatches": int(summary["count"]),
                    "mean_seconds": round(summary["mean"], 6),
                    "max_seconds": round(summary["max"], 6),
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
