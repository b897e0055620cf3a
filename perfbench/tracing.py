"""Span recording from outside the program, and the per-layer metrics.

The traced run starts the daemon through ``server.py --trace-dir``, which
calls :func:`install` before the server is built and its worker processes
fork.  :func:`install` wraps each public callable of the served path with a
span recorder (name, start, end, thread, attributes), at every place its
callers look it up: class attributes for methods, and every ``repro``
module namespace that imported a function by name.  Forked workers
inherit the wrappers.  Spans stay in memory and each process writes them
to ``<trace-dir>/spans-<pid>.json`` when it exits.

The layer names are the repository's module names: ``serve``,
``service``, ``parallel``, ``core``, ``eval``, ``cost``, plus the
collector (``runtime``) and first-sight generation (``setup``).

A span's self time is its duration minus the part covered by child spans
on the same thread.  Coroutine spans (the batcher's ``submit`` and the
server's dispatch) interleave on the event loop, so they take no part in
nesting; the batcher wait and the pool's IPC time cross threads or
processes and are taken as differences of inclusive spans instead.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import multiprocessing.util
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

# ---------------------------------------------------------------------- #
# Wrapped callables
# ---------------------------------------------------------------------- #
#: Module-level functions: (defining module, name, span name).  Each is
#: replaced in every ``repro`` module that holds it, so callers that
#: imported it by name see the wrapper too.
FUNCTIONS = (
    ("repro.serve.protocol", "parse_dims", "serve.parse"),
    ("repro.serve.protocol", "placement_payload", "serve.encode"),
    ("repro.serve.protocol", "json_response", "serve.encode"),
    ("repro.service.fingerprint", "structure_key", "service.fingerprint"),
    ("repro.service.batch", "instantiate_batch", "service.dedup"),
    # Pickled by reference for the pool: the wrapper keeps the original's
    # module and qualified name and replaces it in jobs and pool alike.
    ("repro.parallel.jobs", "run_placement_job", "parallel.worker_job"),
)

#: Methods: (module, class, method, span name).
METHODS = (
    ("repro.serve.protocol", "HttpRequest", "json", "serve.decode"),
    ("repro.serve.protocol", "CircuitResolver", "resolve", "serve.resolve"),
    ("repro.service.engine", "PlacementService", "instantiate_batch", "service.engine"),
    ("repro.service.engine", "PlacementService", "instantiator_for", "service.cache"),
    ("repro.service.cache", "MemoizingInstantiator", "instantiate_with_info", "service.memo"),
    ("repro.service.cache", "MemoizingInstantiator", "instantiate_many", "service.memo"),
    ("repro.parallel.pool", "WorkerPool", "place_batch", "parallel.place_batch"),
    ("repro.core.instantiator", "PlacementInstantiator", "instantiate", "core.instantiate"),
    ("repro.core.instantiator", "PlacementInstantiator", "instantiate_many", "core.instantiate"),
    ("repro.core.structure", "MultiPlacementStructure", "query", "core.structure_query"),
    ("repro.eval.vector", "BatchEvaluator", "feasible_mask", "eval.feasible_mask"),
    ("repro.cost.cost_function", "PlacementCostFunction", "evaluate", "cost.evaluate"),
    ("repro.core.generator", "MultiPlacementGenerator", "generate", "setup.generate"),
)

#: Coroutine methods: recorded inclusive, never nested.
ASYNC_METHODS = (
    ("repro.serve.batcher", "MicroBatcher", "submit", "serve.batcher.submit"),
    ("repro.serve.server", "PlacementServer", "_dispatch_batch", "serve.dispatch"),
    # The endpoint handler: everything from body decode to response
    # encode.  Client latency outside it is HTTP read/write, routing,
    # access-log and SLO bookkeeping, sockets and the client itself.
    ("repro.serve.server", "PlacementServer", "_handle_place", "serve.handler"),
)

#: Modules imported before patching, so every by-name import is replaced.
PRELOAD = (
    "repro.serve.server",
    "repro.serve.affinity",
    "repro.parallel.sharding",
    "repro.parallel.pool",
    "repro.service",
    "repro.service.placer",
    "repro.api.registry",
)


def _memo_before(args, kwargs):
    stats = args[0].memo_stats
    return stats.hits, stats.requests


def _memo_after(args, kwargs, result, before):
    stats = args[0].memo_stats
    return {"hits": stats.hits - before[0], "lookups": stats.requests - before[1]}


def _submit_after(args, kwargs, result, before):
    item = args[1]
    return {"item": id(item), "batch": item.batch_id, "size": item.batch_size}


def _dispatch_before(args, kwargs):
    items = args[1]
    return {"items": [id(item) for item in items], "batch": items[0].batch_id}


def _dispatch_after(args, kwargs, result, before):
    return before


#: Attribute hooks per span name: (before(args, kwargs), after(args,
#: kwargs, result, before) -> attrs).
HOOKS: Dict[str, Tuple[Optional[Callable], Callable]] = {
    "service.memo": (_memo_before, _memo_after),
    "serve.batcher.submit": (None, _submit_after),
    "serve.dispatch": (_dispatch_before, _dispatch_after),
}


# ---------------------------------------------------------------------- #
# Recording
# ---------------------------------------------------------------------- #
class SpanRecorder:
    """This process's spans, in memory until :meth:`dump`."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = Path(out_dir)
        self.pid = os.getpid()
        # Tuples of scalars: the collector stops tracking them, so the
        # recorder adds as little as it can to the pauses it measures.
        self.spans: List[tuple] = []
        self._gc_started = 0
        multiprocessing.util.register_after_fork(self, SpanRecorder._after_fork)

    def _after_fork(self) -> None:
        # A multiprocessing child: drop the parent's spans and write this
        # process's own at its orderly exit.
        self.pid = os.getpid()
        self.spans = []
        multiprocessing.util.Finalize(None, self.dump, exitpriority=100)

    def on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        now = perf_counter_ns()
        if phase == "start":
            self._gc_started = now
        elif self._gc_started:
            self.spans.append(
                ("runtime.gc", self._gc_started, now, threading.get_ident(), 0, None)
            )
            self._gc_started = 0

    def dump(self) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{self.pid}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({"pid": self.pid, "spans": self.spans}))
        os.replace(tmp, path)

    def wrap(self, fn: Callable, name: str) -> Callable:
        before, after = HOOKS.get(name, (None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before else None
            start = perf_counter_ns()
            result = fn(*args, **kwargs)
            end = perf_counter_ns()
            attrs = after(args, kwargs, result, state) if after else None
            self.spans.append((name, start, end, threading.get_ident(), 0, attrs))
            return result

        return wrapper

    def wrap_async(self, fn: Callable, name: str) -> Callable:
        before, after = HOOKS.get(name, (None, None))

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before else None
            start = perf_counter_ns()
            result = await fn(*args, **kwargs)
            end = perf_counter_ns()
            attrs = after(args, kwargs, result, state) if after else None
            self.spans.append((name, start, end, threading.get_ident(), 1, attrs))
            return result

        return wrapper


def install(out_dir: str) -> SpanRecorder:
    """Wrap the served path's callables; returns this process's recorder."""
    recorder = SpanRecorder(out_dir)
    for module in PRELOAD:
        importlib.import_module(module)
    for module_name, name, span_name in FUNCTIONS:
        original = getattr(importlib.import_module(module_name), name)
        wrapper = recorder.wrap(original, span_name)
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro") and (
                getattr(module, name, None) is original
            ):
                setattr(module, name, wrapper)
    for module_name, cls_name, method, span_name in METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        setattr(cls, method, recorder.wrap(getattr(cls, method), span_name))
    for module_name, cls_name, method, span_name in ASYNC_METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        setattr(cls, method, recorder.wrap_async(getattr(cls, method), span_name))
    gc.callbacks.append(recorder.on_gc)
    return recorder


# ---------------------------------------------------------------------- #
# Analysis
# ---------------------------------------------------------------------- #
#: One loaded span: (pid, name, start_ns, end_ns, tid, is_async, attrs).
Span = Tuple[int, str, int, int, int, int, Optional[Dict[str, Any]]]


def load_spans(trace_dir: Path) -> List[Span]:
    """Every span every process of one server wrote."""
    spans: List[Span] = []
    for path in sorted(Path(trace_dir).glob("spans-*.json")):
        data = json.loads(path.read_text())
        pid = data["pid"]
        spans.extend((pid, *record) for record in data["spans"])
    return spans


def self_times(spans: Sequence[Span]) -> List[int]:
    """Self time (ns) per span; coroutine spans keep their full duration."""
    result = [span[3] - span[2] for span in spans]
    by_thread: Dict[Tuple[int, int], List[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if not span[5]:
            by_thread[(span[0], span[4])].append(index)
    for indices in by_thread.values():
        indices.sort(key=lambda i: (spans[i][2], -spans[i][3]))
        stack: List[int] = []
        for index in indices:
            start = spans[index][2]
            while stack and spans[stack[-1]][3] <= start:
                stack.pop()
            if stack:
                result[stack[-1]] -= spans[index][3] - start
            stack.append(index)
    return result


#: Layers whose self time the handlers' time breaks down into.
BUSY_LAYERS = (
    "serve.decode",
    "serve.resolve",
    "serve.parse",
    "serve.encode",
    "service.fingerprint",
    "service.engine",
    "service.cache",
    "service.memo",
    "service.dedup",
    "parallel.worker_job",
    "core.instantiate",
    "core.structure_query",
    "eval.feasible_mask",
    "cost.evaluate",
    "runtime.gc",
)


#: Every per-layer metric a traced run reports, with its unit.
PER_LAYER_UNITS = {
    "serve.decode.self_ms": "ms",
    "serve.resolve.self_ms": "ms",
    "serve.parse.self_ms": "ms",
    "serve.encode.self_ms": "ms",
    "serve.batcher.wait_ms": "ms",
    "serve.batcher.batch_size": "count",
    "serve.unattributed_ms": "ms",
    "service.fingerprint.self_ms": "ms",
    "service.fingerprint.calls": "count",
    "service.engine.self_ms": "ms",
    "service.cache.self_ms": "ms",
    "service.memo.self_ms": "ms",
    "service.memo.hit_ratio": "ratio",
    "service.dedup.self_ms": "ms",
    "parallel.ipc_ms": "ms",
    "parallel.worker_job.self_ms": "ms",
    "parallel.dispatches": "count",
    "core.instantiate.self_ms": "ms",
    "core.structure_query.self_ms": "ms",
    "core.tier.structure_share": "ratio",
    "core.tier.nearest_share": "ratio",
    "core.tier.fallback_share": "ratio",
    "eval.feasible_mask.self_ms": "ms",
    "eval.feasible_mask.calls": "count",
    "cost.evaluate.self_ms": "ms",
    "runtime.gc.self_ms": "ms",
    "runtime.gc.max_pause_ms": "ms",
    "setup.listen_s": "s",
    "setup.generate_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_p50_ms": "ms",
}


def layer_metrics(
    spans: Sequence[Span],
    window: Tuple[int, int],
    answered: int,
    client_ms_per_query: float,
) -> Dict[str, float]:
    """Per-layer figures over the spans that started inside ``window``.

    Busy times are ms per answered query, counts are per answered query
    unless the name says otherwise (``serve.batcher.batch_size`` is items
    per coalesced batch, ``runtime.gc.max_pause_ms`` the longest pause).
    """
    own = self_times(spans)
    low, high = window
    per_query = 1.0 / max(answered, 1)
    busy: Dict[str, float] = defaultdict(float)
    inclusive: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    max_gc = 0
    memo_hits = memo_lookups = 0
    submits: List[Span] = []
    dispatch_ns: Dict[Tuple[str, int], int] = {}
    for span, self_ns in zip(spans, own):
        _pid, name, start, end, _tid, _is_async, attrs = span
        if not low <= start <= high:
            continue
        calls[name] += 1
        busy[name] += self_ns / 1e6
        inclusive[name] += (end - start) / 1e6
        if name == "runtime.gc":
            max_gc = max(max_gc, end - start)
        elif name == "service.memo":
            memo_hits += attrs["hits"]
            memo_lookups += attrs["lookups"]
        elif name == "serve.batcher.submit":
            submits.append(span)
        elif name == "serve.dispatch":
            for item in attrs["items"]:
                dispatch_ns[(attrs["batch"], item)] = end - start

    wait_ns = 0
    batch_sizes: Dict[str, int] = {}
    for _pid, _name, start, end, _tid, _is_async, attrs in submits:
        ridden = dispatch_ns.get((attrs["batch"], attrs["item"]))
        if ridden is not None:
            wait_ns += (end - start) - ridden
            batch_sizes[attrs["batch"]] = attrs["size"]

    metrics = {f"{layer}.self_ms": busy[layer] * per_query for layer in BUSY_LAYERS}
    metrics.update(
        {
            "serve.batcher.wait_ms": wait_ns / 1e6 * per_query,
            "serve.batcher.batch_size": (
                sum(batch_sizes.values()) / len(batch_sizes) if batch_sizes else 0.0
            ),
            "service.fingerprint.calls": calls["service.fingerprint"] * per_query,
            "service.memo.hit_ratio": memo_hits / memo_lookups if memo_lookups else 0.0,
            "parallel.ipc_ms": (
                inclusive["parallel.place_batch"] - inclusive["parallel.worker_job"]
            )
            * per_query,
            "parallel.dispatches": calls["parallel.place_batch"] * per_query,
            "eval.feasible_mask.calls": calls["eval.feasible_mask"] * per_query,
            "runtime.gc.max_pause_ms": max_gc / 1e6,
        }
    )
    handler_ms = inclusive["serve.handler"] * per_query
    metrics["serve.unattributed_ms"] = client_ms_per_query - handler_ms
    metrics["trace.coverage"] = (
        handler_ms / client_ms_per_query if client_ms_per_query else 0.0
    )
    # Not a metric: what the named layers add up to inside the handlers.
    # Sub-batches running on two workers at once can take it past the
    # handler time.
    metrics["layer_sum_ms"] = (
        sum(busy[layer] for layer in BUSY_LAYERS) * per_query
        + metrics["serve.batcher.wait_ms"]
        + metrics["parallel.ipc_ms"]
    )
    metrics["handler_ms"] = handler_ms
    return metrics


def generate_seconds(spans: Sequence[Span]) -> float:
    """Busy seconds of first-sight structure generation, all processes."""
    return (
        sum(end - start for _pid, name, start, end, *_ in spans if name == "setup.generate")
        / 1e9
    )
