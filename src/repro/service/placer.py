"""The placement service as a unified-API engine.

:class:`ServicePlacer` pins one circuit (and optionally one generation
config) onto a long-lived :class:`~repro.service.engine.PlacementService`
and exposes it through the :class:`repro.api.Placer` protocol.  Queries go
through the service's registry, caches and statistics, so a synthesis loop
keeps hitting the same warm structure and several loops can share one
service instance.

Its :meth:`ServicePlacer.place_batch` overrides the protocol's default
loop with the service's deduplicating, vector-scored batch path — any
caller of the unified API gets batching for free.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence

from repro.api.placement import Dims, Placement
from repro.api.placer import Placer
from repro.circuit.netlist import Circuit
from repro.core.generator import GeneratorConfig
from repro.service.engine import PlacementService


class ServicePlacer(Placer):
    """Placement served by a :class:`~repro.service.engine.PlacementService`."""

    name = "service"

    def __init__(
        self,
        service: PlacementService,
        circuit: Circuit,
        config: Optional[GeneratorConfig] = None,
    ) -> None:
        self._service = service
        self._circuit = circuit
        self._config = config

    @property
    def service(self) -> PlacementService:
        """The placement service answering this placer's queries."""
        return self._service

    @property
    def circuit(self) -> Circuit:
        """The circuit this placer is pinned to."""
        return self._circuit

    def place(self, dims: Sequence[Dims]) -> Placement:
        result = self._service.instantiate(self._circuit, dims, config=self._config)
        # The caller asked the *service* engine; the tier provenance stays
        # on ``source`` while ``placer`` names what served the query.
        return replace(result, placer=self.name)

    def place_batch(self, queries: Sequence[Sequence[Dims]]) -> List[Placement]:
        """The service's deduplicating, memoizing batch path."""
        batch = self._service.instantiate_batch(self._circuit, queries, config=self._config)
        return [replace(result, placer=self.name) for result in batch.results]

    def stats(self) -> Dict[str, float]:
        """The service's counters, as plain data (no derived ratios)."""
        return self._service.snapshot().counters()
