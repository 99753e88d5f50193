"""The library names the benchmark's tracer and fingerprint script rely on.

`perfbench/tracing.py` wraps library functions at the module attributes
where the library looks them up, and `scripts/search_fingerprint.py`
subclasses `search._Budget`. A simplification that deletes one of these
names breaks the benchmark run, not the library, so it is caught here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import ctxdl.search

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    # Loaded by path: `perfbench/workloads.load_modules` would purge and
    # re-import ctxdl under the running tests.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize(
    "module, attribute",
    [site[:2] for site in tracing.SPAN_SITES + tracing.COUNT_SITES],
    ids=lambda value: value,
)
def test_traced_site_is_a_callable(module, attribute):
    target = importlib.import_module(f"ctxdl.{module}")
    assert callable(getattr(target, attribute, None)), f"ctxdl.{module}.{attribute}"


def test_budget_class_exists():
    assert isinstance(ctxdl.search._Budget, type)
