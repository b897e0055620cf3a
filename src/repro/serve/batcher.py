"""Micro-batching: coalesce concurrent requests into one batched call.

The entire value of the service stack — dedup, memoization, shard-affine
process fan-out — unlocks on *batches*, but HTTP clients send requests one
at a time.  :class:`MicroBatcher` bridges the two: requests submitted
within a small time window (or up to a maximum batch size) coalesce into
one dispatch, so a thousand concurrent ``/place`` calls for the same
topology become a handful of ``instantiate_batch`` calls instead of a
thousand single-query round trips.

Semantics the tests pin down:

* **Exactly-once dispatch** — every submitted item lands in exactly one
  dispatched batch (or fails without dispatching); the pending list is
  only touched from the event loop, so there is no window in which two
  flushes could both claim an item.
* **Overflow splitting** — when submissions outrun ``max_batch``, the
  batcher dispatches a full batch immediately and re-arms the window for
  the remainder; nothing waits behind an already-full batch.
* **Deadlines and cancellation** — items whose deadline expired while
  queued are failed with :class:`~repro.serve.protocol.DeadlineExceeded`
  *before* dispatch, and items whose futures were cancelled are silently
  dropped; neither consumes dispatch work.
* **Complete drain** — ``flush()`` and ``close()`` loop until the pending
  list is empty (an overflow backlog flushes as several batches), and a
  closed batcher never re-arms a coalesce window: every submitted future
  resolves before ``close()`` returns.
* **Key grouping** — with a ``key``, each submission is keyed once
  before it queues, and a dispatched batch splits into one group per key
  (in submission order) that dispatch concurrently; each group's futures
  resolve as that group lands and a failing group fails only its own
  items.
"""

from __future__ import annotations

import asyncio
import itertools
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Dict, Hashable, List, Optional, Sequence

from repro.obs.metrics import MetricsRegistry
from repro.serve.protocol import DeadlineExceeded

#: Dispatch callable: a list of coalesced items to one awaited result list.
DispatchFn = Callable[[List[Any]], Awaitable[Sequence[Any]]]


@dataclass
class _Pending:
    """One submitted item waiting for its batch."""

    item: Any
    future: "asyncio.Future[Any]"
    #: Absolute event-loop time after which the item must not dispatch.
    deadline: Optional[float]
    enqueued_at: float
    #: The item's group within its batch (``None`` without a ``key``).
    key: Hashable = None


class MicroBatcher:
    """Coalesce single submissions into batched dispatches.

    Parameters
    ----------
    dispatch:
        Async callable receiving the coalesced items (in submission order)
        and returning one result per item, same order.  A raised exception
        fails every item of that batch.
    window_seconds:
        How long the first item of a batch may wait for company.
    max_batch:
        Dispatch immediately once this many items are pending.
    name:
        Metric label (``serve.batcher.<name>.*``).
    metrics:
        Registry receiving the batcher's counters and histograms
        (defaults to a private one; the server passes its own).
    key:
        Optional grouping key, called once per item in :meth:`submit`
        (a raising key fails only that submission).  When a dispatched
        batch holds more than one key, each key's items dispatch as their
        own concurrent sub-batch: a group's futures resolve as soon as
        *that group's* dispatch lands (streamed partial results), and a
        failing group fails only its own items.
    """

    def __init__(
        self,
        dispatch: DispatchFn,
        window_seconds: float = 0.004,
        max_batch: int = 64,
        name: str = "default",
        metrics: Optional[MetricsRegistry] = None,
        key: Optional[Callable[[Any], Hashable]] = None,
    ) -> None:
        if window_seconds < 0:
            raise ValueError("window_seconds must be non-negative")
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        self._dispatch = dispatch
        self._key = key
        self._window = window_seconds
        self._max_batch = max_batch
        self._name = name
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._pending: List[_Pending] = []
        self._window_task: Optional["asyncio.Task[None]"] = None
        self._dispatch_tasks: "set[asyncio.Task[None]]" = set()
        self._closed = False
        self._batch_ids = itertools.count(1)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def window_seconds(self) -> float:
        """The coalescing window."""
        return self._window

    @property
    def max_batch(self) -> int:
        """Largest batch one dispatch may carry."""
        return self._max_batch

    @property
    def queued(self) -> int:
        """Items currently waiting for a batch."""
        return len(self._pending)

    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran; further submissions raise."""
        return self._closed

    def _metric(self, suffix: str) -> str:
        return f"serve.batcher.{self._name}.{suffix}"

    def stats(self) -> Dict[str, float]:
        """The batcher's counters as a plain dict."""
        snapshot = self._metrics.snapshot()
        prefix = self._metric("")
        return {
            key[len(prefix) :]: value
            for key, value in snapshot.items()
            if key.startswith(prefix) and isinstance(value, (int, float))
        }

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    async def submit(self, item: Any, deadline: Optional[float] = None) -> Any:
        """Queue ``item`` for the next batch and await its result.

        ``deadline`` is an absolute event-loop time (``loop.time()``
        basis); expired items fail with :class:`DeadlineExceeded` instead
        of dispatching.  Cancelling the awaiting task drops the item from
        its batch.
        """
        if self._closed:
            raise RuntimeError(f"MicroBatcher {self._name!r} is closed")
        key = self._key(item) if self._key is not None else None
        loop = asyncio.get_running_loop()
        pending = _Pending(
            item=item,
            future=loop.create_future(),
            deadline=deadline,
            enqueued_at=loop.time(),
            key=key,
        )
        self._pending.append(pending)
        self._metrics.inc(self._metric("submitted"))
        self._metrics.set_gauge(self._metric("queue_depth"), len(self._pending))
        if len(self._pending) >= self._max_batch:
            self._flush_now(reason="full")
        elif self._window_task is None:
            self._window_task = loop.create_task(self._window_flush())
        return await pending.future

    async def flush(self) -> None:
        """Dispatch whatever is pending immediately (drain helper).

        Loops until the pending list is empty: an overflow backlog of more
        than ``max_batch`` items flushes as several batches rather than
        leaving a remainder behind a fresh window.
        """
        while self._pending:
            self._flush_now(reason="flush")
        await self._drain_dispatches()

    async def close(self) -> None:
        """Flush pending items, wait for in-flight dispatches, then refuse work."""
        self._closed = True
        if self._window_task is not None:
            self._window_task.cancel()
            self._window_task = None
        # Loop: one _flush_now claims at most max_batch items, and a
        # closed batcher must not re-arm a window for the remainder — a
        # timer firing after close() returns would strand its futures.
        while self._pending:
            self._flush_now(reason="close")
        await self._drain_dispatches()

    async def _drain_dispatches(self) -> None:
        while self._dispatch_tasks:
            await asyncio.gather(*tuple(self._dispatch_tasks), return_exceptions=True)

    # ------------------------------------------------------------------ #
    # Flushing
    # ------------------------------------------------------------------ #
    async def _window_flush(self) -> None:
        try:
            await asyncio.sleep(self._window)
        except asyncio.CancelledError:
            raise
        self._window_task = None
        if self._pending:
            self._flush_now(reason="window")
        else:
            # Every queued item was cancelled (and reaped) before the
            # window closed: an empty flush, nothing dispatches.
            self._metrics.inc(self._metric("empty_flushes"))

    def _flush_now(self, reason: str) -> None:
        """Claim up to ``max_batch`` pending items and dispatch them.

        Synchronous from claim to task creation: once an item leaves
        ``self._pending`` it belongs to exactly one dispatch task.
        """
        if self._window_task is not None:
            self._window_task.cancel()
            self._window_task = None
        batch = self._pending[: self._max_batch]
        self._pending = self._pending[self._max_batch :]
        self._metrics.set_gauge(self._metric("queue_depth"), len(self._pending))
        if self._pending:
            # Overflow split: the remainder starts a fresh window rather
            # than waiting behind the full batch being dispatched.  Once
            # closed there is no next window — close()/flush() loop until
            # the remainder is claimed instead.
            self._metrics.inc(self._metric("overflow_splits"))
            if not self._closed:
                self._window_task = asyncio.get_running_loop().create_task(
                    self._window_flush()
                )
        if not batch:
            self._metrics.inc(self._metric("empty_flushes"))
            return
        task = asyncio.get_running_loop().create_task(self._run_batch(batch, reason))
        self._dispatch_tasks.add(task)
        task.add_done_callback(self._dispatch_tasks.discard)

    async def _run_batch(self, batch: List[_Pending], reason: str) -> None:
        loop = asyncio.get_running_loop()
        now = loop.time()
        live: List[_Pending] = []
        for pending in batch:
            if pending.future.cancelled():
                self._metrics.inc(self._metric("cancelled"))
                continue
            if pending.deadline is not None and now >= pending.deadline:
                pending.future.set_exception(
                    DeadlineExceeded(
                        "request deadline expired after "
                        f"{now - pending.enqueued_at:.3f}s in the coalesce queue"
                    )
                )
                self._metrics.inc(self._metric("expired"))
                continue
            live.append(pending)
        if not live:
            self._metrics.inc(self._metric("empty_flushes"))
            return
        batch_id = f"{self._name}#{next(self._batch_ids)}"
        for pending in live:
            # Duck-typed: items that care about batch identity (the
            # server's _BatchItem, for tracing and access logs) expose
            # ``on_batch``; plain payloads don't and are left alone.
            on_batch = getattr(pending.item, "on_batch", None)
            if on_batch is not None:
                on_batch(batch_id, len(live))
        self._metrics.inc(self._metric("batches"))
        self._metrics.inc(self._metric(f"flushes_{reason}"))
        self._metrics.inc(self._metric("items"), len(live))
        self._metrics.observe(
            self._metric("fill_ratio"), len(live) / self._max_batch
        )
        if self._window > 0:
            # How much of the coalesce window the batch actually used —
            # ~1.0 means the window is the bottleneck, ~0.0 means batches
            # fill (or flush) long before it closes.
            oldest = min(pending.enqueued_at for pending in live)
            self._metrics.observe(
                self._metric("window_utilization"),
                min((now - oldest) / self._window, 1.0),
            )
        groups: Dict[Hashable, List[_Pending]] = {}
        for pending in live:
            groups.setdefault(pending.key, []).append(pending)
        if len(groups) == 1:
            await self._dispatch_group(live)
            return
        # Each key's group dispatches concurrently, and a group's futures
        # resolve the moment its own dispatch lands — a fast group's
        # callers never wait for the slowest group.
        self._metrics.inc(self._metric("subbatch_splits"))
        self._metrics.inc(self._metric("subbatches"), len(groups))
        await asyncio.gather(
            *(self._dispatch_group(members) for members in groups.values())
        )

    async def _dispatch_group(self, group: List[_Pending]) -> None:
        """Dispatch one (sub-)batch and resolve exactly its futures."""
        try:
            results = await self._dispatch([pending.item for pending in group])
        except Exception as exc:  # noqa: BLE001 - failures propagate per item
            self._metrics.inc(self._metric("failed_batches"))
            for pending in group:
                if not pending.future.done():
                    pending.future.set_exception(exc)
            return
        if len(results) != len(group):
            mismatch = RuntimeError(
                f"batch dispatch returned {len(results)} results for {len(group)} items"
            )
            for pending in group:
                if not pending.future.done():
                    pending.future.set_exception(mismatch)
            return
        for pending, result in zip(group, results):
            if not pending.future.done():
                pending.future.set_result(result)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"MicroBatcher(name={self._name!r}, window={self._window * 1000:.1f}ms, "
            f"max_batch={self._max_batch}, queued={len(self._pending)})"
        )
