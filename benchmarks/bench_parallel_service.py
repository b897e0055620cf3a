"""Parallel placement service throughput — process fan-out vs. single process.

What the parallel subsystem buys, in numbers:

* **single-process baseline** — the historical path: one process answering
  the workload one ``instantiate`` call at a time (no dedup, no memo, no
  pool), exactly what a non-batch caller pays per query.
* **parallel batch at workers ∈ {1, 2, 4}** — the ``"parallel"`` engine's
  full pipeline: batch-level dedup, sharding into picklable jobs, process
  fan-out over a shared structure registry, deterministic reassembly.
* **acceptance checks** — ``workers=4`` must answer the 256-query workload
  at ≥ 2x the single-process baseline throughput, and the placements and
  costs must be bit-identical across every worker count.

On a single-core machine the 2x comes from dedup + batching alone (the
pool adds overhead, not speed); every additional core stacks real
parallelism on top — the CI runners' 4 vCPUs see both effects.
"""

import random
import shutil
import tempfile
import time

import pytest

from repro.benchcircuits.library import get_benchmark
from repro.core.instantiator import PlacementInstantiator
from repro.parallel.placer import ParallelPlacer
from repro.parallel.sharding import open_registry
from benchmarks.conftest import bench_scale

CIRCUIT = "two_stage_opamp"
WORKLOAD_SIZE = 256
#: Unique dimension vectors behind the duplicated-heavy workload (synthesis
#: batches collapse heavily after integer-grid snapping; see PR 1's bench).
UNIQUE_VECTORS = 16
WORKER_COUNTS = [1, 2, 4]
ACCEPTANCE_SPEEDUP = 2.0


def make_workload(circuit, structure, size, unique=UNIQUE_VECTORS, seed=1):
    """``size`` queries drawn round-robin from ``unique`` mixed vectors."""
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
def parallel_setup():
    scale = bench_scale()
    circuit = get_benchmark(CIRCUIT)
    config = scale.generator_config(circuit, seed=0)
    root = tempfile.mkdtemp(prefix="repro-bench-parallel-")
    registry = open_registry(root, sharded=True)
    structure = registry.get_or_generate(circuit, config)  # one-time offline cost
    yield circuit, config, root, structure
    shutil.rmtree(root, ignore_errors=True)


def service_spec(root, config):
    """The inner spec every worker reconstructs its engine from."""
    return {"kind": "service", "registry": root, "config": config}


def best_of(fn, repeats=3):
    """Minimum wall-clock over ``repeats`` runs (robust to scheduler noise)."""
    best_seconds, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best_seconds = min(best_seconds, time.perf_counter() - start)
    return best_seconds, result


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_parallel_batch_throughput(benchmark, parallel_setup, workers):
    """Queries/sec of the parallel batch path per worker count (warm pool)."""
    circuit, config, root, structure = parallel_setup
    workload = make_workload(circuit, structure, WORKLOAD_SIZE)
    with ParallelPlacer(circuit, service_spec(root, config), workers=workers) as placer:
        placer.place_batch(workload)  # warm the pool and the worker caches
        results = benchmark(lambda: placer.place_batch(workload))
    assert len(results) == WORKLOAD_SIZE
    benchmark.extra_info["workers"] = workers
    benchmark.extra_info["queries_per_second"] = round(
        WORKLOAD_SIZE / benchmark.stats["mean"]
    )


def test_acceptance_4_workers_at_least_2x_single_process(parallel_setup):
    """The ISSUE acceptance bar: workers=4 >= 2x single-process throughput."""
    circuit, config, root, structure = parallel_setup
    workload = make_workload(circuit, structure, WORKLOAD_SIZE)

    # Baseline: one process, one instantiate call per query — no dedup, no
    # memo, no pool (the per-query cost every non-batch caller pays).
    baseline = PlacementInstantiator(structure)
    baseline_seconds, baseline_results = best_of(
        lambda: [baseline.instantiate(dims) for dims in workload]
    )

    with ParallelPlacer(circuit, service_spec(root, config), workers=4) as placer:
        placer.place_batch(workload)  # warm pool + per-worker structures
        parallel_seconds, parallel_results = best_of(
            lambda: placer.place_batch(workload)
        )

    # Same answers...
    for got, expected in zip(parallel_results, baseline_results):
        assert dict(got.rects) == dict(expected.rects)
        assert got.source == expected.source
    # ...at >= 2x the throughput.
    speedup = baseline_seconds / parallel_seconds
    print(
        f"\nsingle-process: {baseline_seconds * 1000:.1f}ms, "
        f"workers=4 batch: {parallel_seconds * 1000:.1f}ms, speedup: {speedup:.1f}x"
    )
    assert speedup >= ACCEPTANCE_SPEEDUP, (
        f"workers=4 batch only {speedup:.2f}x the single-process baseline "
        f"(needs >= {ACCEPTANCE_SPEEDUP}x)"
    )


def test_acceptance_bit_identical_across_worker_counts(parallel_setup):
    """Fixed workload => identical placements and costs at any worker count."""
    circuit, config, root, structure = parallel_setup
    workload = make_workload(circuit, structure, 64)
    batches = {}
    for workers in WORKER_COUNTS:
        with ParallelPlacer(
            circuit, service_spec(root, config), workers=workers
        ) as placer:
            batches[workers] = placer.place_batch(workload)
    reference = batches[WORKER_COUNTS[0]]
    for workers in WORKER_COUNTS[1:]:
        for got, expected in zip(batches[workers], reference):
            assert dict(got.rects) == dict(expected.rects)
            assert got.cost == expected.cost
            assert got.source == expected.source
            assert got.placer == expected.placer
