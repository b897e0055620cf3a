"""Service counters under concurrency and across ``reset_stats()``.

The instantiators a service builds count their scoring sweeps and memo
hits into the service's counters exactly once, however many threads share
them, and a reset zeroes every counter without cutting the instantiators
off from the counters that follow it.
"""

import random
import sys
import threading

from repro.core.generator import GeneratorConfig
from repro.eval import batch as batch_module
from repro.eval.vector import BatchEvaluator
from repro.service.engine import PlacementService
from repro.service.registry import StructureRegistry
from tests.conftest import build_chain_circuit
from tests.service.test_counter_pins import CONFIG, build_structure

SWEEP_FIELDS = ("batch_evals", "batch_candidates", "vector_fallbacks")
#: Clock readings and the ratios derived from counters.
NOT_COUNTS = (
    "total_seconds", "route_seconds", "mean_latency_seconds", "structure_hit_rate"
)

FIRST = [[(5, 5), (6, 6)], [(11, 11), (11, 11)], [(12, 12), (12, 12)]]
SECOND = [[(7, 7), (7, 7)], [(11, 12), (11, 11)], [(9, 9), (9, 10)], [(7, 7), (7, 7)]]


def counters(stats):
    return {
        name: value
        for name, value in stats.as_dict().items()
        if name not in NOT_COUNTS
    }


def registry_service(root):
    registry = StructureRegistry(root)
    registry.put(build_structure(), CONFIG)
    return PlacementService(registry, default_config=CONFIG)


def batch_from_four_threads(service, circuit, largest, seconds=1.0):
    """Four threads batch ``circuit`` for ``seconds``, block sizes 4..``largest``.

    A fifth thread snapshots the counters meanwhile: a batch counts its
    queries and their tiers in one group, so every snapshot balances.
    """
    stop = threading.Event()
    errors = []

    def hammer(seed):
        rng = random.Random(seed)
        try:
            while not stop.is_set():
                batch = [
                    [(rng.randint(4, largest), rng.randint(4, largest)) for _ in range(4)]
                    for _ in range(6)
                ]
                service.instantiate_batch(circuit, batch)
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)
            stop.set()

    def observe():
        while not stop.is_set():
            stats = service.snapshot()
            if stats.queries != sum(stats.tier_counts.values()):
                errors.append(f"torn snapshot: {stats}")
                stop.set()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=hammer, args=(seed,)) for seed in range(4)]
        threads.append(threading.Thread(target=observe))
        for thread in threads:
            thread.start()
        stop.wait(seconds)
        stop.set()
        for thread in threads:
            thread.join(timeout=30.0)
            assert not thread.is_alive()
    finally:
        stop.set()
        sys.setswitchinterval(interval)
    assert errors == []


def count_sweeps_where_they_run(monkeypatch):
    """Wrap the scoring sweeps and the scalar fallback with a locked tally.

    The oracle counts each :class:`BatchEvaluator` sweep and each counted
    fallback as it happens, independently of any metrics registry.
    """
    lock = threading.Lock()
    swept = dict.fromkeys(SWEEP_FIELDS, 0)

    def count(**deltas):
        with lock:
            for name, value in deltas.items():
                swept[name] += value

    breakdowns = BatchEvaluator.breakdowns
    feasible_mask = BatchEvaluator.feasible_mask
    record_fallback = batch_module.record_fallback

    def counted_breakdowns(self, rects):
        result = breakdowns(self, rects)
        count(batch_evals=1, batch_candidates=len(result))
        return result

    def counted_feasible_mask(self, rects):
        mask = feasible_mask(self, rects)
        count(batch_evals=1, batch_candidates=len(mask))
        return mask

    def counted_fallback(batches=1):
        count(vector_fallbacks=batches)
        record_fallback(batches)

    monkeypatch.setattr(BatchEvaluator, "breakdowns", counted_breakdowns)
    monkeypatch.setattr(BatchEvaluator, "feasible_mask", counted_feasible_mask)
    monkeypatch.setattr(batch_module, "record_fallback", counted_fallback)
    return swept


class TestConcurrentCounting:
    def test_four_threads_count_each_sweep_once(self, monkeypatch):
        service = PlacementService(
            default_config=GeneratorConfig.smoke(seed=7), memo_capacity=64
        )
        circuit = build_chain_circuit()
        service.warm(circuit)
        swept = count_sweeps_where_they_run(monkeypatch)
        service_before = service.snapshot()
        batch_from_four_threads(service, circuit, largest=12)
        service_after = service.snapshot()
        service_delta = {
            name: getattr(service_after, name) - getattr(service_before, name)
            for name in SWEEP_FIELDS
        }
        assert swept["batch_evals"] + swept["vector_fallbacks"] > 0
        assert service_delta == swept

    def test_four_threads_count_each_memo_hit_once(self):
        service = PlacementService(
            default_config=GeneratorConfig.smoke(seed=7), memo_capacity=64
        )
        circuit = build_chain_circuit()
        memo = service.instantiator_for(circuit)
        memo_before = memo.memo_stats.hits
        service_before = service.snapshot().memo_hits
        # Two sizes per side: 256 vectors against a 64-entry memo, so
        # batches both hit and miss.
        batch_from_four_threads(service, circuit, largest=5, seconds=0.5)
        hits = memo.memo_stats.hits - memo_before
        assert hits > 0
        assert service.snapshot().memo_hits - service_before == hits


class TestReset:
    def test_reset_returns_the_old_snapshot_and_zeroes_every_counter(self, tmp_path):
        service = registry_service(tmp_path / "registry")
        circuit = build_chain_circuit(2)
        service.instantiate_batch(circuit, FIRST)
        service.route(circuit, FIRST[0])
        live = service.snapshot()
        old = service.reset_stats()
        assert old.as_dict() == live.as_dict()
        assert old.batch_evals + old.vector_fallbacks > 0
        assert old.route_queries == 1
        assert all(value == 0 for value in service.snapshot().as_dict().values())

    def test_a_batch_after_reset_counts_as_on_a_fresh_service(self, tmp_path):
        circuit = build_chain_circuit(2)
        reset = registry_service(tmp_path / "reset")
        fresh = registry_service(tmp_path / "fresh")
        for service in (reset, fresh):
            service.instantiate_batch(circuit, FIRST)
        reset.reset_stats()
        before = counters(fresh.snapshot())
        reset.instantiate_batch(circuit, SECOND)
        fresh.instantiate_batch(circuit, SECOND)
        after = counters(fresh.snapshot())
        expected = {name: after[name] - before[name] for name in after}
        got = counters(reset.snapshot())
        assert got == expected
        assert got["batch_evals"] + got["vector_fallbacks"] > 0
