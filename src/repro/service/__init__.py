"""Placement-as-a-service: registry, caching and batched instantiation.

The paper's offline/online split (generate once per topology, query
thousands of times per synthesis run) becomes an operable service here:

* :mod:`repro.service.fingerprint` — canonical, order-insensitive topology
  hashes that key structures by what they were generated for.
* :mod:`repro.service.registry` — the on-disk structure library, flat or
  fingerprint-sharded, with exactly-once ``get_or_generate`` across
  processes and atomic writes.
* :mod:`repro.service.cache` — bounded LRU caching of loaded structures
  and memoization of repeated dimension-vector queries.
* :mod:`repro.service.batch` — batched instantiation with duplicate
  elimination and ``concurrent.futures`` fan-out.
* :mod:`repro.service.engine` — the :class:`PlacementService` facade with
  per-tier hit/miss/latency statistics.
* :mod:`repro.service.placer` — :class:`ServicePlacer`, the service as a
  unified :class:`repro.api.Placer` engine (registry kind ``"service"``).
"""

from repro.service.batch import BatchResult, instantiate_batch
from repro.service.cache import CacheStats, LRUCache, MemoizingInstantiator
from repro.service.engine import PlacementService, ServiceStats
from repro.service.placer import ServicePlacer
from repro.service.fingerprint import (
    canonical_circuit_dict,
    circuit_fingerprint,
    config_fingerprint,
    structure_key,
)
from repro.service.registry import RegistryEntry, StructureRegistry

__all__ = [
    "BatchResult",
    "instantiate_batch",
    "CacheStats",
    "LRUCache",
    "MemoizingInstantiator",
    "PlacementService",
    "ServicePlacer",
    "ServiceStats",
    "canonical_circuit_dict",
    "circuit_fingerprint",
    "config_fingerprint",
    "structure_key",
    "RegistryEntry",
    "StructureRegistry",
]
