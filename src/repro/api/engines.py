"""Factories behind the built-in engine kinds of the placer registry.

Each factory turns the options of a declarative spec into a live engine:

==============  ==========================================================
kind            options (all optional)
==============  ==========================================================
``template``    ``mode`` ("fixed" / "adaptive"), ``seed``
``random``      ``seed``, ``attempts``
``genetic``     ``seed``, ``population``, ``generations``
``annealing``   ``seed``, ``iterations``
``mps``         ``scale`` ("smoke"/"medium"/"full"), ``seed``,
                ``fallback`` ("best_stored"/"template"), or a pre-built
                ``structure`` (programmatic specs only)
``service``     ``registry`` (directory path), ``cache``, ``memo``,
                ``scale``, ``seed``, ``fallback``, ``sharded`` (makes
                a fresh registry root fingerprint-sharded), a full
                ``config`` (GeneratorConfig), or a shared ``service``
                instance (programmatic specs only); batches run in-process
``parallel``    ``inner`` (any spec), ``workers``, ``reseed``
                ("none"/"per_query"), ``start_method``; the only kind
                that starts worker processes
==============  ==========================================================

``mps`` and ``service`` specs built from plain JSON generate their
multi-placement structure on first use (the offline Figure 1.a cost);
programmatic callers that already hold a structure or a long-lived
:class:`~repro.service.engine.PlacementService` pass it straight in the
spec dict so nothing is regenerated.

This module is imported lazily by :mod:`repro.api.registry` on the first
``make_placer`` call, keeping ``import repro.api`` free of the heavier
engine modules.
"""

from __future__ import annotations

from typing import Optional

from repro.api.placer import Placer


def _scaled_config(circuit, scale: str, seed: int):
    from repro.experiments.config import get_scale

    return get_scale(scale).generator_config(circuit, seed=seed)


def _check_structure_matches(structure, circuit) -> None:
    if sorted(structure.circuit.block_names()) != sorted(circuit.block_names()):
        raise ValueError(
            f"structure was generated for circuit {structure.circuit.name!r} "
            f"(blocks {sorted(structure.circuit.block_names())}), which does not "
            f"match {circuit.name!r} (blocks {sorted(circuit.block_names())})"
        )


def make_template(circuit, bounds=None, *, mode: str = "fixed", seed: int = 0) -> Placer:
    """A slicing-tree template placer (``kind: "template"``)."""
    from repro.baselines.template import TemplatePlacer

    return TemplatePlacer(circuit, bounds, seed=seed, mode=mode)


def make_random(circuit, bounds=None, *, seed: int = 0, attempts: int = 200) -> Placer:
    """A legal random placer (``kind: "random"``)."""
    from repro.baselines.random_placer import RandomPlacer

    return RandomPlacer(circuit, bounds, seed=seed, attempts=attempts)


def make_genetic(
    circuit,
    bounds=None,
    *,
    seed: int = 0,
    population: int = 30,
    generations: int = 40,
) -> Placer:
    """A genetic-algorithm placer (``kind: "genetic"``)."""
    from repro.baselines.genetic import GeneticPlacer, GeneticPlacerConfig

    config = GeneticPlacerConfig(population_size=population, generations=generations)
    return GeneticPlacer(circuit, bounds, config=config, seed=seed)


def make_annealing(
    circuit, bounds=None, *, seed: int = 0, iterations: int = 3000
) -> Placer:
    """A per-instance simulated-annealing placer (``kind: "annealing"``)."""
    from repro.baselines.annealing_placer import AnnealingPlacer, AnnealingPlacerConfig

    config = AnnealingPlacerConfig(max_iterations=iterations)
    return AnnealingPlacer(circuit, bounds, config=config, seed=seed)


def make_mps(
    circuit,
    bounds=None,
    *,
    structure=None,
    cost_function=None,
    scale: str = "smoke",
    seed: int = 0,
    fallback: str = "best_stored",
) -> Placer:
    """A multi-placement-structure instantiator (``kind: "mps"``).

    Without a pre-built ``structure`` the factory generates one at the
    requested experiment ``scale`` — the one-time offline cost the paper's
    Figure 1.a describes.  Programmatic specs may also carry the
    ``cost_function`` the structure was generated with, so custom weights
    survive the move to the unified API.
    """
    from repro.core.generator import MultiPlacementGenerator
    from repro.core.instantiator import PlacementInstantiator

    if structure is None:
        generator = MultiPlacementGenerator(circuit, _scaled_config(circuit, scale, seed))
        structure = generator.generate()
        if cost_function is None:
            cost_function = generator.cost_function
    else:
        _check_structure_matches(structure, circuit)
    return PlacementInstantiator(structure, cost_function, fallback_mode=fallback)


def make_service(
    circuit,
    bounds=None,
    *,
    service=None,
    structure=None,
    registry: Optional[str] = None,
    cache: int = 8,
    memo: int = 4096,
    scale: str = "smoke",
    seed: int = 0,
    fallback: str = "best_stored",
    sharded: Optional[bool] = None,
    config=None,
) -> Placer:
    """A placement-service-backed placer (``kind: "service"``).

    ``registry`` points the service at an on-disk structure library
    (get-or-generate semantics, exactly once across processes) — an
    existing root opens in its own layout, flat or fingerprint-sharded,
    and ``sharded=True`` creates a fresh root sharded (one index per
    shard, so index writers in different shards never contend).  ``cache`` /
    ``memo`` bound the in-memory LRU and per-structure memo table.
    Passing a shared ``service`` instance lets several placers (and
    several circuits) ride one warm service; passing a pre-built
    ``structure`` (programmatic specs only) seeds the service so it never
    regenerates it; passing a full ``config``
    (:class:`~repro.core.generator.GeneratorConfig`) overrides the
    ``scale``/``seed`` shorthand — this is how parallel workers rebuild a
    service identical to the parent's.
    """
    from repro.parallel.sharding import open_registry
    from repro.service.engine import PlacementService
    from repro.service.placer import ServicePlacer

    if service is None:
        structure_registry = (
            open_registry(registry, sharded=sharded) if registry is not None else None
        )
        if config is None:
            config = _scaled_config(circuit, scale, seed)
        service = PlacementService(
            structure_registry,
            default_config=config,
            cache_capacity=cache,
            memo_capacity=memo,
            fallback_mode=fallback,
        )
    if structure is not None:
        _check_structure_matches(structure, circuit)
        service.adopt(structure)
    return ServicePlacer(service, circuit)


def make_parallel(
    circuit,
    bounds=None,
    *,
    inner="template",
    workers: int = 2,
    reseed: str = "none",
    start_method: Optional[str] = None,
) -> Placer:
    """A process-pool fan-out around any inner engine (``kind: "parallel"``).

    ``inner`` is itself a placer spec (dict, JSON string or kind name);
    workers reconstruct it from the spec, so it must be declarative —
    programmatic-only options (live ``structure`` / ``service`` objects)
    cannot cross the process boundary.  Prefer a registry-backed
    ``service`` inner spec so workers share one structure library instead
    of each generating their own.  ``reseed="per_query"`` makes stochastic
    inner engines deterministic at any worker count.
    """
    from repro.parallel.placer import ParallelPlacer

    return ParallelPlacer(
        circuit,
        inner,
        workers=workers,
        bounds=bounds,
        reseed=reseed,
        start_method=start_method,
    )


def preload_engine_modules() -> None:
    """Import every module the factories above load lazily.

    Fork-based worker pools call this (through
    :func:`repro.api.registry.preload_builtin_factories`) before spawning
    workers.  A forked child inherits the parent's per-module import
    locks exactly as they were at fork time — a sibling thread caught
    mid-import leaves a lock no thread in the child can ever release.
    With these modules already in ``sys.modules`` the children never
    touch the import machinery at all.
    """
    import repro.baselines.annealing_placer  # noqa: F401
    import repro.baselines.genetic  # noqa: F401
    import repro.baselines.random_placer  # noqa: F401
    import repro.baselines.template  # noqa: F401
    import repro.core.generator  # noqa: F401
    import repro.core.instantiator  # noqa: F401
    import repro.core.serialization  # noqa: F401
    import repro.geometry.rect  # noqa: F401
    import repro.parallel.placer  # noqa: F401
    import repro.parallel.sharding  # noqa: F401
    import repro.route.router  # noqa: F401
    import repro.service.engine  # noqa: F401
    import repro.service.placer  # noqa: F401
