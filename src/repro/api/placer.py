"""The batch-first protocol every placement engine implements.

A :class:`Placer` answers dimension-vector queries for one circuit:

* :meth:`Placer.place` — one query, one :class:`~repro.api.placement.Placement`.
* :meth:`Placer.place_batch` — many queries at once.  The default simply
  loops, so every engine supports batching out of the box; engines with a
  real batch path (the placement service's deduplicating fan-out, the
  instantiator's duplicate elimination) override it, and *any* caller —
  experiments, the synthesis loop, benchmarks — gets the speedup without
  code changes.
* :meth:`Placer.stats` — a uniform counters hook.  Engines report the
  additive counters they track (tier hits, cache hits, seconds spent);
  engines with nothing to report return ``{}``.

Engines built by :func:`repro.api.make_placer` also carry their canonical
construction ``spec``, so a placer can be serialized back into the
config dict that creates it.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Mapping, Optional, Sequence

from repro.api.placement import Dims, Placement


class Placer(abc.ABC):
    """Common interface of all placement engines."""

    #: Registry kind / report name of the engine (``"mps"``, ``"template"``, …).
    name: str = "placer"

    #: Canonical construction spec, attached by :func:`repro.api.make_placer`.
    _spec: Optional[Mapping[str, object]] = None

    @abc.abstractmethod
    def place(self, dims: Sequence[Dims]) -> Placement:
        """Produce a floorplan for one dimension vector."""

    def place_batch(self, queries: Sequence[Sequence[Dims]]) -> List[Placement]:
        """Produce one floorplan per query, in input order.

        The base implementation loops over :meth:`place`; engines with a
        native batch path (deduplication, fan-out) override it.
        """
        return [self.place(dims) for dims in queries]

    def stats(self) -> Dict[str, float]:
        """Counters describing everything this engine served so far.

        Keys are engine-specific (tier hits for structure-backed engines,
        cache counters for the service, query counts for the direct
        placers); engines with nothing to report return an empty dict.
        Report additive counters, not ratios: callers diff and sum stats
        across calls, jobs and workers, which only counters survive, and
        readers compute a ratio such as a hit rate from the counters.
        """
        return {}

    @property
    def spec(self) -> Dict[str, object]:
        """The canonical spec dict that (re)constructs this placer.

        Placers built by :func:`repro.api.make_placer` return the
        normalized spec they were built from; hand-built placers fall back
        to ``{"kind": self.name}``.
        """
        if self._spec is not None:
            return dict(self._spec)
        return {"kind": self.name}
