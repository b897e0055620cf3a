"""Shard prefixes for many-process deployments.

A sharded :class:`~repro.service.registry.StructureRegistry` splits its
keys by fingerprint prefix into ``root/<prefix>/`` directories, each with
its own index, so writers touching different shards never contend.  This
module holds what the serving side needs on top of that layout:

* :class:`ShardOwnerMap` — the deterministic shard-prefix → worker-slot
  map the serving daemon pins dispatches by.  A flat root gets virtual
  shards of :data:`DEFAULT_SHARD_CHARS` characters over the same prefixes.
* :func:`open_registry` — opens a root in the layout it already has, and
  picks the layout of a fresh one.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.service.registry import StructureRegistry

#: Default number of leading key characters that pick a shard (16^2 dirs max).
DEFAULT_SHARD_CHARS = 2


@dataclass(frozen=True)
class ShardOwnerMap:
    """Deterministic shard-prefix → worker-slot assignment.

    The serving daemon pins each registry shard to one worker process so
    that a shard's structure files and in-process caches stay warm in a
    single place.  Ownership is modular over the hex value of the shard
    prefix: fingerprints are uniformly distributed, so shards spread
    evenly over workers, and the assignment is a pure function of
    ``(prefix, workers)`` — every process (and every restart) computes the
    same map without coordination.  Rebalancing on a worker-count change
    is wholesale, which is fine for single-node process pinning; a
    multi-node deployment would swap this for consistent hashing.
    """

    workers: int
    shard_chars: int = DEFAULT_SHARD_CHARS

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.shard_chars < 1:
            raise ValueError("shard_chars must be at least 1")

    def prefix_for(self, key: str) -> str:
        """The shard prefix of a registry ``key``."""
        return key[: self.shard_chars]

    def owner_for(self, prefix: str) -> int:
        """The worker slot owning shard ``prefix`` (``0 .. workers-1``)."""
        try:
            value = int(prefix, 16)
        except ValueError:
            # Registry keys are hex fingerprints, but stay total for any
            # string so callers never need a fallback path of their own.
            digest = hashlib.sha256(prefix.encode("utf-8")).digest()
            value = int.from_bytes(digest[:8], "big")
        return value % self.workers

    def owner_for_key(self, key: str) -> int:
        """The worker slot owning the shard of registry ``key``."""
        return self.owner_for(self.prefix_for(key))

    def assignments(self, keys: Sequence[str]) -> Dict[int, List[str]]:
        """Group ``keys`` by owning worker slot (slots with no keys omitted)."""
        grouped: Dict[int, List[str]] = {}
        for key in keys:
            grouped.setdefault(self.owner_for_key(key), []).append(key)
        return grouped


def open_registry(
    root: Union[str, Path],
    sharded: Optional[bool] = None,
    shard_chars: int = DEFAULT_SHARD_CHARS,
) -> StructureRegistry:
    """Open the registry at ``root`` in the layout it already has.

    An existing sharded root (marker file present) opens sharded with its
    persisted ``shard_chars``; an existing flat root (``index.json``
    present) opens flat.  For a fresh directory ``sharded`` decides
    (default: flat, the historical layout); passing ``sharded`` against an
    existing layout of the other kind raises rather than silently
    splitting the library in two.
    """
    registry = StructureRegistry(root, shard_chars=shard_chars if sharded else None)
    if sharded is False and registry.shard_chars is not None:
        raise ValueError(f"registry at {root} is sharded; cannot open flat")
    return registry
