"""Incremental and batch layout evaluation.

The from-scratch cost path rebuilds every rectangle and rescans every net
and block pair for each proposed move; this package restructures that
computation two ways.  :class:`IncrementalEvaluator` prices *single-move
deltas* against a mutable :class:`LayoutState` with per-net, per-block and
per-group caches.  :class:`BatchEvaluator` scores *many whole layouts at
once* on stacked ``(n_candidates, n_blocks, 4)`` numpy rect tensors.
Same numbers either way — bitwise identical to the scalar oracle (the
incremental path excepting resync-bounded routability) — at a fraction of
the work.

Optimizers obtain either evaluator from the cost function itself::

    evaluator = cost_function.bind(anchors, dims)       # delta pricing
    total = evaluator.propose([(3, (10, 12), None)])    # move block 3
    evaluator.commit()                                  # or .revert()

    batch = cost_function.batch()                       # array pricing
    totals = batch.totals(batch.stack(population, dims))

so the cost weights remain the single source of truth.  Batch consumers
should prefer :func:`batch_evaluator_for`, which returns ``None`` (fall
back to the scalar loop) for overriding cost subclasses, sequential
wirelength models, a missing numpy, or ``REPRO_VECTORIZE=0``.
"""

from repro.eval.batch import (
    ENV_VECTORIZE,
    batch_evaluator_for,
    record_batch,
    record_fallback,
    vectorize_enabled,
)
from repro.eval.engines import PerturbDeltaEngine, anchor_update, dims_update
from repro.eval.incremental import (
    DEFAULT_RESYNC_INTERVAL,
    BlockUpdate,
    IncrementalEvaluator,
)
from repro.eval.state import LayoutState
from repro.eval.vector import (
    NUMPY_HINT,
    VECTORIZABLE_MODELS,
    BatchBreakdown,
    BatchEvaluator,
    numpy_available,
)

__all__ = [
    "BatchBreakdown",
    "BatchEvaluator",
    "BlockUpdate",
    "DEFAULT_RESYNC_INTERVAL",
    "ENV_VECTORIZE",
    "IncrementalEvaluator",
    "LayoutState",
    "NUMPY_HINT",
    "PerturbDeltaEngine",
    "VECTORIZABLE_MODELS",
    "anchor_update",
    "batch_evaluator_for",
    "numpy_available",
    "record_batch",
    "record_fallback",
    "vectorize_enabled",
]
