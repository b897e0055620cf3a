"""Lifecycle-safety tests for WorkerPool: double close, atexit guard."""

import multiprocessing
import os
import threading
import time

import pytest

from repro.parallel import pool as pool_module
from repro.parallel.jobs import JobResult
from repro.parallel.placer import ParallelPlacer
from repro.parallel.pool import WorkerPool, _LIVE_POOLS, _close_live_pools
from tests.conftest import build_chain_circuit


def report_pid(job_id):
    """Picklable runner reporting which process executed the job."""
    return JobResult(job_id=job_id, results=[], worker_pid=os.getpid())


def started_pool():
    """A two-slot pool whose worker processes are already forked."""
    pool = WorkerPool(workers=2)
    pool.prestart()
    return pool


def slot_pids(pool):
    """The pid of every slot's worker process."""
    return {
        pool.run_jobs([0], report_pid, pin_slot=slot)[0].worker_pid
        for slot in range(pool.workers)
    }


def live(pids, timeout=5.0):
    """Those of ``pids`` still running once ``timeout`` seconds have passed.

    Returns as soon as none is left, so a closed pool costs no wait.
    """
    deadline = time.monotonic() + timeout
    while True:
        running = pids & {child.pid for child in multiprocessing.active_children()}
        if not running or time.monotonic() >= deadline:
            return running
        time.sleep(0.01)


class TestDoubleClose:
    def test_close_is_idempotent(self):
        pool = started_pool()
        pids = slot_pids(pool)
        pool.close()
        pool.close()
        assert len(pids) == 2
        assert not live(pids)

    def test_close_without_start_is_a_noop(self):
        WorkerPool(workers=2).close()

    def test_exit_after_explicit_close(self):
        # The pattern a failing server hits: close() in an error path,
        # then __exit__ runs again on unwind.
        with started_pool() as pool:
            pids = slot_pids(pool)
            pool.close()
        assert not live(pids)

    def test_exit_after_error_still_closes(self):
        pids = set()
        with pytest.raises(RuntimeError):
            with started_pool() as pool:
                pids = slot_pids(pool)
                raise RuntimeError("boom")
        assert pids and not live(pids)

    def test_pool_restarts_after_close(self):
        pool = WorkerPool(workers=2)
        first = slot_pids(pool)
        pool.close()
        second = slot_pids(pool)
        pool.close()
        assert len(second) == 2
        assert first.isdisjoint(second)

    def test_concurrent_closes_race_safely(self):
        pool = started_pool()
        pids = slot_pids(pool)
        barrier = threading.Barrier(4)

        def slam():
            barrier.wait()
            pool.close()

        threads = [threading.Thread(target=slam) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not live(pids)

    def test_parallel_placer_close_is_idempotent(self):
        placer = ParallelPlacer(
            build_chain_circuit(), {"kind": "template"}, workers=2
        )
        placer.close()
        placer.close()
        with placer:
            pass  # __exit__ closes a third time


class TestAtexitGuard:
    def test_started_pool_registers_for_atexit_cleanup(self):
        pool = started_pool()
        assert pool in _LIVE_POOLS
        pool.close()
        assert pool not in _LIVE_POOLS

    def test_guard_shuts_down_leaked_pools(self):
        pool = started_pool()
        pids = slot_pids(pool)
        _close_live_pools()
        assert not live(pids)
        # A reaped pool is restartable and closeable as usual.
        assert len(slot_pids(pool)) == 2
        pool.close()

    def test_guard_tolerates_already_closed_pools(self):
        pool = started_pool()
        pool.close()
        _close_live_pools()

    def test_atexit_hook_is_registered_once(self):
        started_pool().close()
        started_pool().close()
        assert pool_module._ATEXIT_REGISTERED
