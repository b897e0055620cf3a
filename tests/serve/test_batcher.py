"""Edge-case tests pinning down the MicroBatcher contract.

Everything runs on a private event loop via ``asyncio.run`` (the suite
does not depend on an async test plugin).  The dispatch doubles record
every batch they receive, so the tests can assert *how* items were
grouped, not just what came back.
"""

import asyncio

import pytest

from repro.serve.batcher import MicroBatcher
from repro.serve.protocol import DeadlineExceeded


class RecordingDispatch:
    """Echo dispatch that remembers each batch (optionally slowly)."""

    def __init__(self, delay=0.0):
        self.batches = []
        self.delay = delay

    async def __call__(self, items):
        self.batches.append(list(items))
        if self.delay:
            await asyncio.sleep(self.delay)
        return [f"result:{item}" for item in items]

    @property
    def dispatched_items(self):
        return [item for batch in self.batches for item in batch]


class TestCoalescing:
    def test_single_request_flushes_after_window(self):
        async def scenario():
            dispatch = RecordingDispatch()
            batcher = MicroBatcher(dispatch, window_seconds=0.005, max_batch=8)
            result = await batcher.submit("a")
            await batcher.close()
            return dispatch, result

        dispatch, result = asyncio.run(scenario())
        assert result == "result:a"
        assert dispatch.batches == [["a"]]

    def test_concurrent_submissions_coalesce_into_one_batch(self):
        async def scenario():
            dispatch = RecordingDispatch()
            batcher = MicroBatcher(dispatch, window_seconds=0.02, max_batch=16)
            results = await asyncio.gather(
                *(batcher.submit(f"q{i}") for i in range(6))
            )
            await batcher.close()
            return dispatch, results

        dispatch, results = asyncio.run(scenario())
        assert results == [f"result:q{i}" for i in range(6)]
        assert len(dispatch.batches) == 1
        assert dispatch.batches[0] == [f"q{i}" for i in range(6)]

    def test_full_batch_dispatches_without_waiting_for_window(self):
        async def scenario():
            dispatch = RecordingDispatch()
            # A window long enough that reaching it would time the test out.
            batcher = MicroBatcher(dispatch, window_seconds=30.0, max_batch=4)
            results = await asyncio.wait_for(
                asyncio.gather(*(batcher.submit(i) for i in range(4))), timeout=5.0
            )
            await batcher.close()
            return dispatch, results

        dispatch, results = asyncio.run(scenario())
        assert results == [f"result:{i}" for i in range(4)]
        assert [len(b) for b in dispatch.batches] == [4]


class TestOverflow:
    def test_overflow_splits_into_multiple_batches(self):
        async def scenario():
            dispatch = RecordingDispatch()
            batcher = MicroBatcher(dispatch, window_seconds=0.01, max_batch=4)
            results = await asyncio.gather(
                *(batcher.submit(i) for i in range(11))
            )
            await batcher.close()
            return dispatch, results, batcher.stats()

        dispatch, results, stats = asyncio.run(scenario())
        assert results == [f"result:{i}" for i in range(11)]
        assert [len(b) for b in dispatch.batches] == [4, 4, 3]
        # Two batches filled and flushed immediately; the remainder waited
        # for its own window instead of queueing behind them.
        assert stats["flushes_full"] == 2
        assert stats["flushes_window"] == 1
        # Submission order survives splitting.
        assert dispatch.dispatched_items == list(range(11))

    def test_nothing_waits_behind_a_full_batch(self):
        async def scenario():
            dispatch = RecordingDispatch(delay=0.05)
            batcher = MicroBatcher(dispatch, window_seconds=0.005, max_batch=2)
            loop = asyncio.get_running_loop()
            started = loop.time()
            await asyncio.gather(*(batcher.submit(i) for i in range(4)))
            elapsed = loop.time() - started
            await batcher.close()
            return dispatch, elapsed

        dispatch, elapsed = asyncio.run(scenario())
        assert [len(b) for b in dispatch.batches] == [2, 2]
        # The two dispatches overlap instead of queueing serially.
        assert elapsed < 0.09


class TestDeadlinesAndCancellation:
    def test_expired_items_fail_before_dispatch(self):
        async def scenario():
            dispatch = RecordingDispatch()
            batcher = MicroBatcher(dispatch, window_seconds=0.02, max_batch=8)
            loop = asyncio.get_running_loop()
            expired = asyncio.ensure_future(
                batcher.submit("dead", deadline=loop.time() - 0.001)
            )
            alive = asyncio.ensure_future(batcher.submit("alive"))
            results = await asyncio.gather(expired, alive, return_exceptions=True)
            await batcher.close()
            return dispatch, results, batcher.stats()

        dispatch, (dead, alive), stats = asyncio.run(scenario())
        assert isinstance(dead, DeadlineExceeded)
        assert alive == "result:alive"
        # The expired item never consumed dispatch work.
        assert dispatch.dispatched_items == ["alive"]
        assert stats["expired"] == 1

    def test_cancelled_item_is_dropped_from_its_batch(self):
        async def scenario():
            dispatch = RecordingDispatch()
            batcher = MicroBatcher(dispatch, window_seconds=0.02, max_batch=8)
            doomed = asyncio.ensure_future(batcher.submit("doomed"))
            survivor = asyncio.ensure_future(batcher.submit("survivor"))
            await asyncio.sleep(0)  # both items enqueued, window armed
            doomed.cancel()
            result = await survivor
            with pytest.raises(asyncio.CancelledError):
                await doomed
            await batcher.close()
            return dispatch, result, batcher.stats()

        dispatch, result, stats = asyncio.run(scenario())
        assert result == "result:survivor"
        assert dispatch.dispatched_items == ["survivor"]
        assert stats["cancelled"] == 1

    def test_all_cancelled_means_empty_flush_and_no_dispatch(self):
        async def scenario():
            dispatch = RecordingDispatch()
            batcher = MicroBatcher(dispatch, window_seconds=0.01, max_batch=8)
            doomed = asyncio.ensure_future(batcher.submit("doomed"))
            await asyncio.sleep(0)
            doomed.cancel()
            await asyncio.sleep(0.03)  # let the window close on cancelled work
            await batcher.close()
            return dispatch, batcher.stats()

        dispatch, stats = asyncio.run(scenario())
        assert dispatch.batches == []
        assert stats.get("empty_flushes", 0) >= 1
        assert stats.get("batches", 0) == 0


class TestExactlyOnce:
    def test_every_item_dispatches_exactly_once_under_concurrency(self):
        async def scenario():
            dispatch = RecordingDispatch(delay=0.002)
            batcher = MicroBatcher(dispatch, window_seconds=0.003, max_batch=7)

            async def submitter(worker, count):
                results = []
                for i in range(count):
                    results.append(await batcher.submit((worker, i)))
                    if i % 3 == 0:
                        await asyncio.sleep(0.001)
                return results

            nested = await asyncio.gather(*(submitter(w, 20) for w in range(5)))
            await batcher.close()
            return dispatch, nested

        dispatch, nested = asyncio.run(scenario())
        for worker, results in enumerate(nested):
            assert results == [f"result:({worker}, {i})" for i in range(20)]
        # Exactly-once: the multiset of dispatched items is the input set.
        dispatched = dispatch.dispatched_items
        assert len(dispatched) == 100
        assert set(dispatched) == {(w, i) for w in range(5) for i in range(20)}
        assert all(len(batch) <= 7 for batch in dispatch.batches)


class TestFailuresAndLifecycle:
    def test_dispatch_error_fails_every_item_of_that_batch(self):
        async def scenario():
            async def explode(items):
                raise RuntimeError("boom")

            batcher = MicroBatcher(explode, window_seconds=0.005, max_batch=8)
            results = await asyncio.gather(
                batcher.submit("a"), batcher.submit("b"), return_exceptions=True
            )
            await batcher.close()
            return results, batcher.stats()

        results, stats = asyncio.run(scenario())
        assert all(isinstance(r, RuntimeError) for r in results)
        assert stats["failed_batches"] == 1

    def test_result_count_mismatch_is_an_error(self):
        async def scenario():
            async def short_changed(items):
                return ["only one"]

            batcher = MicroBatcher(short_changed, window_seconds=0.005, max_batch=8)
            results = await asyncio.gather(
                batcher.submit("a"), batcher.submit("b"), return_exceptions=True
            )
            await batcher.close()
            return results

        results = asyncio.run(scenario())
        assert all(isinstance(r, RuntimeError) for r in results)
        assert all("2 items" in str(r) for r in results)

    def test_flush_dispatches_immediately(self):
        async def scenario():
            dispatch = RecordingDispatch()
            batcher = MicroBatcher(dispatch, window_seconds=30.0, max_batch=8)
            pending = asyncio.ensure_future(batcher.submit("a"))
            await asyncio.sleep(0)
            await batcher.flush()
            result = await asyncio.wait_for(pending, timeout=5.0)
            await batcher.close()
            return result

        assert asyncio.run(scenario()) == "result:a"

    def test_closed_batcher_refuses_submissions(self):
        async def scenario():
            batcher = MicroBatcher(RecordingDispatch(), window_seconds=0.005)
            await batcher.close()
            assert batcher.closed
            with pytest.raises(RuntimeError, match="closed"):
                await batcher.submit("late")

        asyncio.run(scenario())

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="window_seconds"):
            MicroBatcher(RecordingDispatch(), window_seconds=-1.0)
        with pytest.raises(ValueError, match="max_batch"):
            MicroBatcher(RecordingDispatch(), max_batch=0)


class TestCloseDrain:
    """Regressions for close()/flush() stranding an overflow backlog.

    An overflow backlog (pending > max_batch) can't arise through plain
    ``submit`` — the full-batch flush keeps pending bounded — so these
    tests widen ``max_batch`` while queueing and restore it before the
    drain, reproducing the state the old single-flush ``close()`` hit:
    one claim of ``max_batch`` items, a remainder left behind, and (worse)
    a fresh coalesce window armed after the batcher refused submissions.
    """

    @staticmethod
    def _queue_backlog(batcher, count):
        tasks = [asyncio.ensure_future(batcher.submit(i)) for i in range(count)]
        return tasks

    def test_close_drains_overflow_backlog_completely(self):
        max_batch = 4

        async def scenario():
            dispatch = RecordingDispatch()
            batcher = MicroBatcher(dispatch, window_seconds=30.0, max_batch=max_batch)
            batcher._max_batch = 100  # let 2*max_batch+1 items queue unflushed
            tasks = self._queue_backlog(batcher, 2 * max_batch + 1)
            await asyncio.sleep(0)  # all 9 queued, window armed, none dispatched
            assert batcher.queued == 2 * max_batch + 1
            batcher._max_batch = max_batch
            await batcher.close()
            results = await asyncio.gather(*tasks)
            return dispatch, results, batcher

        dispatch, results, batcher = asyncio.run(scenario())
        # Every submitted future resolved before close() returned.
        assert results == [f"result:{i}" for i in range(9)]
        assert [len(b) for b in dispatch.batches] == [4, 4, 1]
        assert batcher.queued == 0
        # A closed batcher never re-arms a coalesce window.
        assert batcher._window_task is None

    def test_flush_drains_overflow_backlog_completely(self):
        max_batch = 3

        async def scenario():
            dispatch = RecordingDispatch()
            batcher = MicroBatcher(dispatch, window_seconds=30.0, max_batch=max_batch)
            batcher._max_batch = 100
            tasks = self._queue_backlog(batcher, 2 * max_batch + 1)
            await asyncio.sleep(0)
            batcher._max_batch = max_batch
            await batcher.flush()
            results = await asyncio.gather(*tasks)
            await batcher.close()
            return dispatch, results

        dispatch, results = asyncio.run(scenario())
        assert results == [f"result:{i}" for i in range(7)]
        assert [len(b) for b in dispatch.batches] == [3, 3, 1]

    def test_expired_deadline_during_close_fails_only_that_item(self):
        async def scenario():
            dispatch = RecordingDispatch()
            batcher = MicroBatcher(dispatch, window_seconds=30.0, max_batch=8)
            loop = asyncio.get_running_loop()
            dead = asyncio.ensure_future(
                batcher.submit("dead", deadline=loop.time() - 0.001)
            )
            alive = asyncio.ensure_future(batcher.submit("alive"))
            await asyncio.sleep(0)  # both queued; window (30s) never fires
            await batcher.close()
            results = await asyncio.gather(dead, alive, return_exceptions=True)
            return dispatch, results, batcher.stats()

        dispatch, (dead, alive), stats = asyncio.run(scenario())
        assert isinstance(dead, DeadlineExceeded)
        assert alive == "result:alive"
        assert dispatch.dispatched_items == ["alive"]
        assert stats["expired"] == 1


def first_char(item):
    """Group items by the first character of their str() form."""
    return str(item)[0]


class TestKeyGroups:
    def test_key_splits_one_coalesced_batch_into_groups(self):
        async def scenario():
            dispatch = RecordingDispatch()
            batcher = MicroBatcher(
                dispatch, window_seconds=0.02, max_batch=16, key=first_char
            )
            results = await asyncio.gather(
                *(batcher.submit(item) for item in ["a1", "b1", "a2", "b2"])
            )
            await batcher.close()
            return dispatch, results, batcher.stats()

        dispatch, results, stats = asyncio.run(scenario())
        assert results == ["result:a1", "result:b1", "result:a2", "result:b2"]
        # One coalesced batch, dispatched as two per-key sub-batches.
        assert sorted(map(tuple, dispatch.batches)) == [("a1", "a2"), ("b1", "b2")]
        assert stats["batches"] == 1
        assert stats["subbatch_splits"] == 1
        assert stats["subbatches"] == 2

    def test_fast_group_resolves_before_slow_group_lands(self):
        async def scenario():
            class GroupDispatch:
                async def __call__(self, items):
                    if any(str(item).startswith("s") for item in items):
                        await asyncio.sleep(0.25)
                    return [f"result:{item}" for item in items]

            batcher = MicroBatcher(
                GroupDispatch(),
                window_seconds=0.01,
                max_batch=16,
                key=first_char,
            )
            fast = [asyncio.ensure_future(batcher.submit(f"f{i}")) for i in range(2)]
            slow = asyncio.ensure_future(batcher.submit("s0"))
            done, _ = await asyncio.wait(fast, timeout=0.15)
            streamed = len(done) == len(fast) and not slow.done()
            results = await asyncio.gather(*fast, slow)
            await batcher.close()
            return streamed, results

        streamed, results = asyncio.run(scenario())
        # The fast group's futures resolved while the slow group was still
        # in flight — partial results really stream.
        assert streamed
        assert results == ["result:f0", "result:f1", "result:s0"]

    def test_failing_group_fails_only_its_own_items(self):
        async def scenario():
            async def dispatch(items):
                if any(str(item).startswith("x") for item in items):
                    raise RuntimeError("shard down")
                return [f"result:{item}" for item in items]

            batcher = MicroBatcher(
                dispatch, window_seconds=0.02, max_batch=16, key=first_char
            )
            results = await asyncio.gather(
                *(batcher.submit(item) for item in ["a1", "x1", "a2", "x2"]),
                return_exceptions=True,
            )
            await batcher.close()
            return results, batcher.stats()

        results, stats = asyncio.run(scenario())
        assert results[0] == "result:a1"
        assert results[2] == "result:a2"
        assert isinstance(results[1], RuntimeError)
        assert isinstance(results[3], RuntimeError)
        assert stats["failed_batches"] == 1

    def test_cancelled_future_inside_a_group_is_dropped(self):
        async def scenario():
            dispatch = RecordingDispatch()
            batcher = MicroBatcher(
                dispatch, window_seconds=0.02, max_batch=16, key=first_char
            )
            doomed = asyncio.ensure_future(batcher.submit("a1"))
            keepers = [
                asyncio.ensure_future(batcher.submit(item))
                for item in ["a2", "b1", "b2"]
            ]
            await asyncio.sleep(0)  # all queued in one window
            doomed.cancel()
            results = await asyncio.gather(*keepers)
            with pytest.raises(asyncio.CancelledError):
                await doomed
            await batcher.close()
            return dispatch, results, batcher.stats()

        dispatch, results, stats = asyncio.run(scenario())
        assert results == ["result:a2", "result:b1", "result:b2"]
        # The cancelled item vanished from its group; the group survived.
        assert sorted(map(tuple, dispatch.batches)) == [("a2",), ("b1", "b2")]
        assert stats["cancelled"] == 1

    def test_raising_key_fails_only_its_own_submission(self):
        async def scenario():
            def picky_key(item):
                if item == "bad":
                    raise ValueError("unkeyable item")
                return first_char(item)

            dispatch = RecordingDispatch()
            batcher = MicroBatcher(
                dispatch, window_seconds=0.02, max_batch=16, key=picky_key
            )
            results = await asyncio.gather(
                *(batcher.submit(item) for item in ["a1", "bad", "a2"]),
                return_exceptions=True,
            )
            await batcher.close()
            return dispatch, results, batcher.stats()

        dispatch, results, stats = asyncio.run(scenario())
        assert results[0] == "result:a1"
        assert isinstance(results[1], ValueError)
        assert results[2] == "result:a2"
        # The unkeyable item never queued; its neighbours shared one batch.
        assert dispatch.batches == [["a1", "a2"]]
        assert stats["submitted"] == 2
        assert stats.get("subbatch_splits", 0) == 0

    def test_single_item_batch_dispatches_unsplit(self):
        calls = []

        async def scenario():
            def spy_key(item):
                calls.append(item)
                return first_char(item)

            dispatch = RecordingDispatch()
            batcher = MicroBatcher(
                dispatch, window_seconds=0.005, max_batch=16, key=spy_key
            )
            result = await batcher.submit("solo")
            await batcher.close()
            return dispatch, result, batcher.stats()

        dispatch, result, stats = asyncio.run(scenario())
        assert result == "result:solo"
        assert dispatch.batches == [["solo"]]
        # Keyed once at submit; a one-group batch is not a split.
        assert calls == ["solo"]
        assert stats.get("subbatch_splits", 0) == 0
