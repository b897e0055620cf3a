"""Concurrency stress: N processes hammer one structure registry root.

Multiple worker processes race ``get_or_generate`` over an overlapping set
of topologies against a single shared registry root, flat and sharded.
The invariants the advisory-lock protocol must hold in both layouts:

* **Exactly-once generation** — across all processes, each topology is
  generated by exactly one fetch; everyone else loads from disk.
* **No torn files** — every fetch parses a complete structure (a torn
  JSON write would raise), and a post-run scan re-reads every structure
  file and index from scratch.
* **No lost index entries** — processes indexing distinct keys into one
  index at once all find their entries in it afterwards.
"""

from __future__ import annotations

import json
import multiprocessing
from typing import Dict, List, Tuple

import pytest

from repro.core.bdio import BDIOConfig
from repro.core.explorer import ExplorerConfig
from repro.core.generator import GeneratorConfig
from repro.core.serialization import load_structure
from repro.parallel.sharding import open_registry
from tests.conftest import build_chain_circuit

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="stress test forks worker processes",
)

#: A deliberately tiny generation budget: the stress is on the locking, not
#: the annealer, and 20 consecutive local runs must stay fast and flake-free.
TINY = GeneratorConfig(
    explorer=ExplorerConfig(max_iterations=2, coverage_target=0.5),
    bdio=BDIOConfig(max_iterations=12, moves_per_temperature=3),
    seed=5,
)

NUM_WORKERS = 4
#: Each worker fetches every circuit this many times (shuffled per worker).
FETCHES_PER_CIRCUIT = 2
CIRCUIT_SIZES = (3, 4, 5)


def _stress_worker(args: Tuple[str, int, Dict[str, object]]) -> Dict[str, object]:
    """One process's share: open the root, fetch all circuits repeatedly."""
    root, worker_seed, options = args
    import random

    registry = open_registry(root, **options)
    sequence = [size for size in CIRCUIT_SIZES for _ in range(FETCHES_PER_CIRCUIT)]
    random.Random(worker_seed).shuffle(sequence)
    outcomes: List[Tuple[str, bool, int]] = []
    for size in sequence:
        circuit = build_chain_circuit(num_blocks=size, name=f"chain{size}")
        structure, generated = registry.fetch(circuit, TINY)
        key = registry.key_for(circuit, TINY)
        outcomes.append((key, generated, structure.num_placements))
    return {"outcomes": outcomes, "shard_chars": registry.shard_chars}


#: The layouts under test, as ``open_registry`` options for a fresh root.
#: One shard character puts every key of one circuit into one index.
LAYOUTS = {"flat": {}, "sharded": {"sharded": True, "shard_chars": 1}}


def _shard(registry, key: str) -> str:
    """The directory under the root that holds ``key`` ("" when flat)."""
    return key[: registry.shard_chars] if registry.shard_chars else ""


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_concurrent_get_or_generate_is_exactly_once(tmp_path, layout):
    # Every worker opens the fresh root itself, so the sharded case also
    # races the creation of the sharding marker.
    root = str(tmp_path / "registry")
    context = multiprocessing.get_context("fork")
    with context.Pool(NUM_WORKERS) as pool:
        reports = pool.map(
            _stress_worker,
            [(root, worker, LAYOUTS[layout]) for worker in range(NUM_WORKERS)],
        )

    all_outcomes = [outcome for report in reports for outcome in report["outcomes"]]
    expected_fetches = NUM_WORKERS * len(CIRCUIT_SIZES) * FETCHES_PER_CIRCUIT
    assert len(all_outcomes) == expected_fetches

    # Exactly-once generation per topology, across every process.
    generated_by_key: Dict[str, int] = {}
    placements_by_key: Dict[str, set] = {}
    for key, generated, num_placements in all_outcomes:
        generated_by_key[key] = generated_by_key.get(key, 0) + int(generated)
        placements_by_key.setdefault(key, set()).add(num_placements)
    assert sorted(generated_by_key) == sorted(placements_by_key)
    assert len(generated_by_key) == len(CIRCUIT_SIZES)
    for key, generations in generated_by_key.items():
        assert generations == 1, f"key {key} generated {generations} times"
    # Every fetch of a key saw the same structure (no torn/partial reads).
    for key, placement_counts in placements_by_key.items():
        assert len(placement_counts) == 1

    # The surviving registry is complete and uncorrupted: re-read every
    # index and structure file from scratch.
    registry = open_registry(root)
    assert registry.shard_chars == LAYOUTS[layout].get("shard_chars")
    assert {report["shard_chars"] for report in reports} == {registry.shard_chars}
    assert len(registry) == len(CIRCUIT_SIZES)
    for entry in registry.entries():
        path = registry.root / _shard(registry, entry.key) / entry.filename
        structure = load_structure(path)  # raises on torn JSON
        assert structure.num_placements == entry.num_placements
        with (path.parent / "index.json").open() as handle:
            json.load(handle)

    # No orphaned temp files survived the stampede.
    leftovers = [
        path
        for path in registry.root.rglob("*.tmp")
        if path.is_file()
    ]
    assert leftovers == []


PUTS_PER_WORKER = 10


def _put_worker(root: str, worker: int, barrier, structure) -> None:
    """Index this worker's own keys, starting with every other worker."""
    registry = open_registry(root)
    barrier.wait(timeout=60)
    for index in range(PUTS_PER_WORKER):
        registry.put(structure, GeneratorConfig.smoke(seed=1000 * worker + index))


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_concurrent_puts_lose_no_index_entry(
    tmp_path, generated_chain_structure, layout
):
    root = str(tmp_path / "registry")
    registry = open_registry(root, **LAYOUTS[layout])
    expected = {
        registry.key_for(
            generated_chain_structure.circuit,
            GeneratorConfig.smoke(seed=1000 * worker + index),
        )
        for worker in range(NUM_WORKERS)
        for index in range(PUTS_PER_WORKER)
    }
    assert len(expected) == NUM_WORKERS * PUTS_PER_WORKER
    assert len({_shard(registry, key) for key in expected}) == 1

    context = multiprocessing.get_context("fork")
    barrier = context.Barrier(NUM_WORKERS)
    workers = [
        context.Process(
            target=_put_worker,
            args=(root, worker, barrier, generated_chain_structure),
        )
        for worker in range(NUM_WORKERS)
    ]
    for process in workers:
        process.start()
    for process in workers:
        process.join(timeout=120)
    assert [process.exitcode for process in workers] == [0] * NUM_WORKERS

    assert set(open_registry(root).keys()) == expected

