"""Tests for the worker pool and its picklable job layer."""

import multiprocessing
import os
import pickle
import signal
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.core.serialization import circuit_to_dict
from repro.parallel.jobs import (
    JobResult,
    PlacementJob,
    chunk_evenly,
    make_placement_jobs,
    run_placement_job,
)
from repro.parallel.pool import WorkerPool, default_workers, resolve_start_method
from tests.conftest import build_chain_circuit


@pytest.fixture(scope="module")
def chain_data():
    return circuit_to_dict(build_chain_circuit())


def make_queries(n, unique=None):
    unique = unique if unique is not None else n
    vectors = [[(4 + i % 9, 4 + (i * 3) % 9)] * 4 for i in range(unique)]
    return [vectors[i % unique] for i in range(n)]


def run_pid_job(job_id):
    """Picklable runner reporting which process executed the job."""
    return JobResult(job_id=job_id, results=[os.getpid()], worker_pid=os.getpid())


class TestChunking:
    def test_chunks_cover_in_order(self):
        chunks = chunk_evenly(list(range(10)), 3)
        assert [len(c) for c in chunks] == [4, 3, 3]
        assert [x for chunk in chunks for x in chunk] == list(range(10))

    def test_more_chunks_than_items(self):
        chunks = chunk_evenly([1, 2], 8)
        assert chunks == [[1], [2]]

    def test_empty_and_invalid(self):
        assert chunk_evenly([], 4) == []
        with pytest.raises(ValueError):
            chunk_evenly([1], 0)


class TestJobs:
    def test_jobs_are_picklable(self, chain_data):
        jobs = make_placement_jobs(chain_data, {"kind": "template"}, make_queries(6), 2)
        assert len(jobs) == 2
        for job in jobs:
            clone = pickle.loads(pickle.dumps(job))
            assert clone.queries == job.queries
            assert clone.spec == job.spec

    def test_run_job_inline_matches_direct_placement(self, chain_data):
        queries = make_queries(4)
        job = make_placement_jobs(chain_data, {"kind": "template"}, queries, 1)[0]
        result = run_placement_job(job)
        assert len(result.results) == 4
        from repro.api import make_placer

        direct = make_placer({"kind": "template"}, build_chain_circuit())
        expected = [direct.place(query) for query in queries]
        for got, want in zip(result.results, expected):
            assert dict(got.rects) == dict(want.rects)
            assert got.cost == want.cost

    def test_per_query_seed_length_checked(self, chain_data):
        with pytest.raises(ValueError):
            PlacementJob(
                circuit_data=chain_data,
                spec={"kind": "template"},
                queries=tuple(tuple(q) for q in make_queries(3)),
                per_query_seeds=(1, 2),
            )

    def test_worker_cache_distinguishes_same_named_circuits(self):
        # Regression: the worker placer cache used to key on circuit *name*,
        # serving a stale engine for a different circuit with the same name.
        small = circuit_to_dict(build_chain_circuit(num_blocks=4, name="chain"))
        large = circuit_to_dict(build_chain_circuit(num_blocks=6, name="chain"))
        job_small = make_placement_jobs(small, {"kind": "template"}, [[(6, 6)] * 4], 1)[0]
        job_large = make_placement_jobs(large, {"kind": "template"}, [[(6, 6)] * 6], 1)[0]
        run_placement_job(job_small)
        result = run_placement_job(job_large)  # used to hit the 4-block placer
        assert len(result.results[0].rects) == 6

    def test_worker_placer_cache_is_bounded(self, monkeypatch):
        from repro.api import make_placer
        from repro.parallel import jobs
        from repro.service.cache import LRUCache

        capacity = jobs.WORKER_CACHE_CAPACITY
        assert capacity >= 2
        cache = LRUCache(capacity)
        monkeypatch.setattr(jobs, "_WORKER_PLACERS", cache)
        spec = {"kind": "template"}
        queries = make_queries(3)
        circuits = [build_chain_circuit(name=f"chain{i}") for i in range(capacity + 1)]
        # The first circuit comes back after its eviction and is rebuilt.
        for circuit in circuits + circuits[:1]:
            job = make_placement_jobs(circuit_to_dict(circuit), spec, queries, 1)[0]
            got = run_placement_job(job).results
            want = make_placer(spec, circuit).place_batch(queries)
            assert [dict(p.rects) for p in got] == [dict(p.rects) for p in want]
            assert [p.cost for p in got] == [p.cost for p in want]
        assert len(cache) == capacity
        assert cache.stats.evictions == 2

    def test_job_stats_report_worker_counters(self, chain_data):
        job = make_placement_jobs(chain_data, {"kind": "template"}, make_queries(5), 1)[0]
        result = run_placement_job(job)
        assert result.stats.get("queries", 0) >= 1
        assert result.worker_pid > 0


class TestWorkerPool:
    def test_start_method_resolution(self):
        assert resolve_start_method() in ("fork", "spawn")
        with pytest.raises(ValueError):
            resolve_start_method("not-a-method")
        assert default_workers() >= 1

    def test_inline_and_pooled_results_identical(self, chain_data):
        queries = make_queries(12, unique=6)
        with WorkerPool(workers=1) as inline_pool:
            inline, _ = inline_pool.place_batch(chain_data, {"kind": "template"}, queries)
        with WorkerPool(workers=3) as pool:
            pooled, stats = pool.place_batch(chain_data, {"kind": "template"}, queries)
        assert len(inline) == len(pooled) == 12
        for a, b in zip(inline, pooled):
            assert dict(a.rects) == dict(b.rects)
            assert a.cost == b.cost
        assert stats["pool_unique_queries"] == 6
        assert stats["pool_dedup_hits"] == 6

    def test_duplicates_share_one_result_object(self, chain_data):
        queries = make_queries(8, unique=2)
        with WorkerPool(workers=2) as pool:
            results, _ = pool.place_batch(chain_data, {"kind": "template"}, queries)
        assert results[0] is results[2]
        assert results[1] is results[3]

    def test_close_is_idempotent_and_restartable(self, chain_data):
        pool = WorkerPool(workers=2)
        pool.place_batch(chain_data, {"kind": "template"}, make_queries(8))
        pool.close()
        pool.close()
        results, _ = pool.place_batch(chain_data, {"kind": "template"}, make_queries(4))
        assert len(results) == 4
        pool.close()

    def test_route_batch_on_pool(self, chain_data):
        queries = make_queries(4, unique=2)
        with WorkerPool(workers=2) as pool:
            placements, _ = pool.place_batch(chain_data, {"kind": "template"}, queries)
            rects_batch = [
                {name: (rect.x, rect.y, rect.w, rect.h) for name, rect in p.rects.items()}
                for p in placements
            ]
            layouts, stats = pool.route_batch(chain_data, rects_batch)
        assert len(layouts) == 4
        assert stats["route_queries"] == 4
        for layout in layouts:
            assert layout.total_wirelength >= 0


class TestPinnedDispatch:
    def test_pinned_jobs_land_in_one_dedicated_process(self):
        with WorkerPool(workers=3) as pool:
            first = pool.run_jobs(list(range(4)), run_pid_job, pin_slot=1)
            second = pool.run_jobs(list(range(4)), run_pid_job, pin_slot=1)
            pids = {result.results[0] for result in first + second}
        # Every job of every pinned dispatch ran in the same worker
        # process — that process's caches stay warm across batches.
        assert len(pids) == 1
        assert os.getpid() not in pids

    def test_distinct_slots_use_distinct_processes(self):
        with WorkerPool(workers=2) as pool:
            slot0 = pool.run_jobs([0], run_pid_job, pin_slot=0)
            slot1 = pool.run_jobs([0], run_pid_job, pin_slot=1)
        assert slot0[0].results[0] != slot1[0].results[0]

    def test_pinning_bypasses_the_inline_path(self):
        with WorkerPool(workers=2) as pool:
            # A single job would run inline without a pin; pinned it must
            # still cross into the slot's worker process.
            result = pool.run_jobs([0], run_pid_job, pin_slot=0)
        assert result[0].results[0] != os.getpid()

    def test_one_worker_pool_ignores_pinning(self):
        with WorkerPool(workers=1) as pool:
            result = pool.run_jobs([0], run_pid_job, pin_slot=0)
        assert result[0].results[0] == os.getpid()

    def test_out_of_range_slot_rejected(self):
        with WorkerPool(workers=2) as pool:
            with pytest.raises(ValueError, match="out of range"):
                pool.run_jobs(list(range(3)), run_pid_job, pin_slot=2)
            with pytest.raises(ValueError, match="out of range"):
                pool.run_jobs(list(range(3)), run_pid_job, pin_slot=-1)

    def test_close_shuts_pinned_executors_and_restarts(self):
        pool = WorkerPool(workers=2)
        before = pool.run_jobs([0], run_pid_job, pin_slot=0)[0].results[0]
        pool.close()
        after = pool.run_jobs([0], run_pid_job, pin_slot=0)[0].results[0]
        pool.close()
        assert before != after  # a fresh process after close()

    def test_place_batch_pin_slot_single_job_same_process(self, chain_data):
        with WorkerPool(workers=3) as pool:
            results, stats = pool.place_batch(
                chain_data, {"kind": "template"}, make_queries(12, unique=6),
                pin_slot=2,
            )
        assert len(results) == 12
        assert stats["pool_pinned_slot"] == 2.0
        # The whole batch ran as one job in the slot's one process.
        assert stats["pool_jobs"] == 1.0
        assert stats["pool_worker_processes"] == 1.0

    def test_prestart_forks_every_slot_eagerly(self):
        before = set(multiprocessing.active_children())
        pool = WorkerPool(workers=2)
        try:
            pool.prestart()
            forked = {
                child.pid
                for child in multiprocessing.active_children()
                if child not in before
            }
            # Both slots exist before any dispatch: later pinned and
            # fan-out jobs reuse the pre-forked processes instead of
            # forking mid-traffic.
            assert len(forked) == 2
            pinned = {
                pool.run_jobs([0], run_pid_job, pin_slot=slot)[0].results[0]
                for slot in (0, 1)
            }
            fanned = {result.results[0] for result in pool.run_jobs([0, 1], run_pid_job)}
            assert pinned == fanned == forked
        finally:
            pool.close()

    def test_prestart_is_a_noop_for_one_worker(self):
        before = set(multiprocessing.active_children())
        pool = WorkerPool(workers=1)
        pool.prestart()
        assert set(multiprocessing.active_children()) <= before
        pool.close()

    def test_fanout_batch_runs_on_the_slot_processes(self, chain_data):
        before = set(multiprocessing.active_children())
        with WorkerPool(workers=2) as pool:
            slots = [
                pool.run_jobs([0], run_pid_job, pin_slot=slot)[0].results[0]
                for slot in (0, 1)
            ]
            fanned = pool.run_jobs(list(range(4)), run_pid_job)
            _, stats = pool.place_batch(chain_data, {"kind": "template"}, make_queries(8))
            forked = set(multiprocessing.active_children()) - before
        # Job i ran on slot i % workers, and no process besides the two
        # slots was ever forked.
        assert [result.results[0] for result in fanned] == slots * 2
        assert {child.pid for child in forked} == set(slots)
        assert stats["pool_jobs"] == 2.0
        assert stats["pool_worker_processes"] == 2.0

    def test_killed_slot_fails_only_its_own_jobs(self):
        with WorkerPool(workers=2) as pool:
            pids = [
                pool.run_jobs([0], run_pid_job, pin_slot=slot)[0].results[0]
                for slot in (0, 1)
            ]
            os.kill(pids[0], signal.SIGKILL)
            with pytest.raises(BrokenProcessPool):
                pool.run_jobs([0], run_pid_job, pin_slot=0)
            # Slot 1's process never noticed: it keeps answering.
            assert pool.run_jobs([0], run_pid_job, pin_slot=1)[0].results[0] == pids[1]
            # A fan-out sends job 0 to the dead slot, so the batch fails...
            with pytest.raises(BrokenProcessPool):
                pool.run_jobs([0, 1], run_pid_job)
            # ...and slot 1 still answers from the same process.
            assert pool.run_jobs([0], run_pid_job, pin_slot=1)[0].results[0] == pids[1]

    def test_pinned_and_fanout_results_identical(self, chain_data):
        queries = make_queries(10, unique=5)
        with WorkerPool(workers=3) as pool:
            fanned, _ = pool.place_batch(chain_data, {"kind": "template"}, queries)
            pinned, _ = pool.place_batch(
                chain_data, {"kind": "template"}, queries, pin_slot=1
            )
        for a, b in zip(fanned, pinned):
            assert dict(a.rects) == dict(b.rects)
            assert a.cost == b.cost
