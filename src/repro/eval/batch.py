"""Batch-scoring orchestration: path selection, env gate and traced counters.

This module decides, per cost function, whether a batch of candidate
layouts scores on the vectorized :class:`~repro.eval.vector.BatchEvaluator`
or on the scalar oracle loop.  Each consumer counts the traffic it sends
each way in its own metrics registry (the instantiator and the genetic
placer report it through ``stats()``):

* ``batch_evals`` — vectorized sweeps run,
* ``batch_candidates`` — candidate layouts scored vectorized,
* ``vector_fallbacks`` — batches that fell back to the scalar loop
  (numpy missing, ``REPRO_VECTORIZE=0``, an overriding cost subclass or
  a non-vectorizable wirelength model).

While tracing is enabled, :func:`record_batch` and :func:`record_fallback`
also count them in the global observability metrics registry (as
``eval.batch_evals`` etc.), so the serving ``/metrics`` endpoint shows
vectorized vs scalar traffic alongside the per-service counters.

Setting the environment variable ``REPRO_VECTORIZE=0`` (or ``false`` /
``no`` / ``off``) forces every consumer onto the scalar oracle path —
CI runs the eval suite both ways.
"""

from __future__ import annotations

import os
import threading
import weakref
from typing import Optional

from repro.cost.cost_function import PlacementCostFunction
from repro.eval.vector import BatchEvaluator, VECTORIZABLE_MODELS, numpy_available
from repro.obs.spans import is_enabled as _obs_enabled, metrics as _obs_metrics

#: Environment variable gating the vectorized path (default: enabled).
ENV_VECTORIZE = "REPRO_VECTORIZE"

_FALSE_VALUES = frozenset({"0", "false", "no", "off"})

#: Namespace the counters occupy in the global metrics registry.
METRIC_PREFIX = "eval."

_lock = threading.Lock()

#: One BatchEvaluator per cost function — the static circuit arrays are
#: the expensive part, and cost functions are long-lived and immutable.
_evaluators: "weakref.WeakKeyDictionary[PlacementCostFunction, BatchEvaluator]"
_evaluators = weakref.WeakKeyDictionary()


def vectorize_enabled() -> bool:
    """True unless ``REPRO_VECTORIZE`` disables the vector path."""
    return os.environ.get(ENV_VECTORIZE, "1").strip().lower() not in _FALSE_VALUES


def batch_evaluator_for(
    cost_function: PlacementCostFunction,
) -> Optional[BatchEvaluator]:
    """The cached :class:`BatchEvaluator` for ``cost_function``, or ``None``.

    ``None`` means "use the scalar loop": numpy is unavailable, the env
    gate is off, the cost subclass overrides evaluation
    (``supports_vectorized`` is False) or the wirelength model is
    inherently sequential.  Callers need no further checks.
    """
    if not vectorize_enabled() or not numpy_available():
        return None
    if not cost_function.supports_vectorized:
        return None
    if cost_function.wirelength_model not in VECTORIZABLE_MODELS:
        return None
    with _lock:
        evaluator = _evaluators.get(cost_function)
        if evaluator is None:
            evaluator = BatchEvaluator(cost_function)
            _evaluators[cost_function] = evaluator
        return evaluator


# ---------------------------------------------------------------------- #
# Traced counters
# ---------------------------------------------------------------------- #
def record_batch(candidates: int, sweeps: int = 1) -> None:
    """Mirror one (or more) vectorized sweeps over ``candidates`` layouts."""
    if _obs_enabled():
        registry = _obs_metrics()
        registry.counter(METRIC_PREFIX + "batch_evals").inc(sweeps)
        registry.counter(METRIC_PREFIX + "batch_candidates").inc(candidates)


def record_fallback(batches: int = 1) -> None:
    """Mirror batches that scored on the scalar loop instead."""
    if _obs_enabled():
        _obs_metrics().counter(METRIC_PREFIX + "vector_fallbacks").inc(batches)
