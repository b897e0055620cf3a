"""The traced benchmark's hooks still name real callables.

``perfbench/tracing.py`` wraps served-path callables by module and name,
so renaming or moving one of them in ``src/`` breaks the traced benchmark
without any other test failing.  This loads the hook table by path, never
calling ``install()``, and resolves every entry against the live package.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from repro.core.instantiator import PlacementInstantiator
from repro.service.cache import MemoizingInstantiator

TRACING = Path(__file__).resolve().parents[2] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_preloaded_modules_import(tracing):
    for name in tracing.PRELOAD:
        importlib.import_module(name)


def test_wrapped_functions_resolve(tracing):
    for module_name, name, _ in tracing.FUNCTIONS:
        assert callable(getattr(importlib.import_module(module_name), name))


def test_wrapped_methods_resolve(tracing):
    for module_name, cls_name, method, _ in tracing.METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        assert callable(getattr(cls, method))


def test_wrapped_async_methods_are_coroutine_functions(tracing):
    for module_name, cls_name, method, _ in tracing.ASYNC_METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        assert inspect.iscoroutinefunction(getattr(cls, method))


def test_memo_hook_reads_hits_and_requests(tracing, generated_chain_structure):
    # The service.memo span reads memo_stats.hits and .requests around a call.
    before_hook, after_hook = tracing.HOOKS["service.memo"]
    memo = MemoizingInstantiator(PlacementInstantiator(generated_chain_structure))
    args = (memo, [(4, 4)] * generated_chain_structure.circuit.num_blocks)
    before = before_hook(args, {})
    memo.instantiate(args[1])
    memo.instantiate(args[1])
    assert after_hook(args, {}, None, before) == {"hits": 1, "lookups": 2}
