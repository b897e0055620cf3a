"""Placement service throughput — cold vs. warm registry, batching, dedup.

The service layer's value proposition in numbers:

* **cold vs. warm registry** — ``get_or_generate`` pays the full Figure 1.a
  generation cost exactly once per topology; afterwards the structure loads
  from disk in milliseconds.
* **batch sizes 1 / 32 / 256** — queries/sec of ``instantiate_batch`` on a
  warm service, where duplicate-heavy batches collapse via deduplication
  and memoization.
* **acceptance check** — a warm service answering 256 duplicated-heavy
  queries in one batch must beat 256 sequential cold
  ``PlacementInstantiator.instantiate`` calls by at least 5x.
"""

import random
import shutil
import tempfile
import time

import pytest

from repro.benchcircuits.library import get_benchmark
from repro.core.generator import MultiPlacementGenerator
from repro.core.instantiator import PlacementInstantiator
from repro.service.engine import PlacementService
from repro.service.registry import StructureRegistry
from benchmarks.conftest import bench_scale

CIRCUIT = "two_stage_opamp"
BATCH_SIZES = [1, 32, 256]
#: Unique dimension vectors behind the duplicated-heavy 256-query workload.
UNIQUE_VECTORS = 16


def make_workload(circuit, structure, size, unique=UNIQUE_VECTORS, seed=1):
    """``size`` queries drawn round-robin from ``unique`` mixed vectors.

    Half the unique vectors are stored placements' best dimensions (in-box
    structure hits), half are random (mostly out-of-box), so the workload
    exercises every tier.
    """
    rng = random.Random(seed)
    vectors = [list(p.best_dims) for p in structure if p.best_dims][: unique // 2]
    while len(vectors) < unique:
        vectors.append(
            [
                (rng.randint(b.min_w, b.max_w), rng.randint(b.min_h, b.max_h))
                for b in circuit.blocks
            ]
        )
    return [vectors[i % len(vectors)] for i in range(size)]


@pytest.fixture(scope="module")
def service_setup():
    scale = bench_scale()
    circuit = get_benchmark(CIRCUIT)
    config = scale.generator_config(circuit, seed=0)
    root = tempfile.mkdtemp(prefix="repro-bench-registry-")
    registry = StructureRegistry(root)
    structure = registry.get_or_generate(circuit, config)  # the one-time cold cost
    yield circuit, config, root, structure
    shutil.rmtree(root, ignore_errors=True)


def test_cold_vs_warm_registry(benchmark, service_setup):
    """Warm ``fetch`` (disk load) vs. the cold generation run."""
    circuit, config, root, _ = service_setup

    with tempfile.TemporaryDirectory() as cold_root:
        start = time.perf_counter()
        StructureRegistry(cold_root).get_or_generate(circuit, config)
        cold_seconds = time.perf_counter() - start

    warm_registry = StructureRegistry(root)
    generated_flags = []

    def warm_fetch():
        structure, generated = warm_registry.fetch(circuit, config)
        generated_flags.append(generated)
        return structure

    structure = benchmark(warm_fetch)
    assert structure.num_placements > 0
    # Every timed call loaded from disk: none of them generated.
    assert generated_flags and not any(generated_flags)

    warm_seconds = benchmark.stats["mean"]
    benchmark.extra_info["cold_seconds"] = round(cold_seconds, 4)
    benchmark.extra_info["cold_over_warm"] = round(cold_seconds / warm_seconds, 1)
    assert warm_seconds < cold_seconds


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_batch_throughput(benchmark, service_setup, batch_size):
    """Queries/sec of a warm service across batch sizes."""
    circuit, config, root, structure = service_setup
    service = PlacementService(StructureRegistry(root), default_config=config)
    service.warm(circuit)
    workload = make_workload(circuit, structure, batch_size)

    result = benchmark(lambda: service.instantiate_batch(circuit, workload))
    assert result.total_queries == batch_size
    benchmark.extra_info["batch_size"] = batch_size
    benchmark.extra_info["unique_queries"] = result.unique_queries
    benchmark.extra_info["queries_per_second"] = round(
        batch_size / benchmark.stats["mean"]
    )


def best_of(fn, repeats=3):
    """Minimum wall-clock over ``repeats`` runs (robust to scheduler noise)."""
    best_seconds, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best_seconds = min(best_seconds, time.perf_counter() - start)
    return best_seconds, result


def test_acceptance_batch_5x_faster_than_sequential_cold(service_setup):
    """The ISSUE acceptance bar: warm batched >= 5x sequential cold."""
    circuit, config, root, structure = service_setup
    workload = make_workload(circuit, structure, 256)

    # Baseline: 256 sequential instantiate calls on a cold (uncached,
    # unmemoized) instantiator.
    cold = PlacementInstantiator(structure)
    sequential_seconds, cold_results = best_of(
        lambda: [cold.instantiate(dims) for dims in workload]
    )

    service = PlacementService(StructureRegistry(root), default_config=config)
    service.warm(circuit)
    batched_seconds, batch = best_of(
        lambda: service.instantiate_batch(circuit, workload)
    )

    # Same answers, >= 5x faster.
    for got, expected in zip(batch, cold_results):
        assert got.source == expected.source
        assert dict(got.rects) == dict(expected.rects)
    speedup = sequential_seconds / batched_seconds
    print(
        f"\nsequential cold: {sequential_seconds * 1000:.1f}ms, "
        f"warm batch: {batched_seconds * 1000:.1f}ms, speedup: {speedup:.1f}x"
    )
    assert speedup >= 5.0, f"warm batched speedup {speedup:.1f}x is below the 5x bar"

    # And the tier stats must cover a whole mixed workload.
    service.reset_stats()
    batch = service.instantiate_batch(circuit, workload)
    stats = service.stats
    assert stats.queries == 256
    assert sum(stats.tier_counts.values()) == 256
    assert stats.dedup_hits == 256 - batch.unique_queries
