"""The library names the benchmark's tracer and the measuring scripts rely on.

`perfbench/tracing.py` wraps library functions at the module attributes
where the library looks them up, `scripts/search_fingerprint.py`
subclasses `search._Budget`, and `scripts/plan_split.py` replays
`find_model` through `search._prepare`, `_solve_at_size`, `_refute` and
`_build_interpretation`. A simplification that deletes or renames one of
these names breaks the benchmark run or a script, not the library, so it is
caught here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import ctxdl.search
import ctxdl.semantics
from ctxdl.verify import curated_inconsistent_ontologies, generate_corpus

ROOT = Path(__file__).resolve().parent.parent


def load(name: str, path: Path):
    # Loaded by path: `perfbench/workloads.load_modules` would purge and
    # re-import ctxdl under the running tests.
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
plan_split = load("plan_split", ROOT / "scripts" / "plan_split.py")


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


@pytest.mark.parametrize("ontology, verdict", [
    # A curated contradiction: size 1 fails and the told-fact closure
    # refutes it.
    (dict(curated_inconsistent_ontologies())["irreflexivity"], ctxdl.semantics.NoModelUpTo),
    # A seeded corpus statement, whose model is decoded.
    (generate_corpus(1, 1, max_terms=4, max_axioms=5)[0][0], ctxdl.semantics.SatisfiableAt),
], ids=["curated", "seeded"])
def test_plan_split_replays_find_model(ontology, verdict):
    times, replayed = plan_split.replay(ctxdl.search, ctxdl.semantics, ontology, 3, 3000)
    assert len(times) == len(plan_split.STEPS)
    assert isinstance(replayed, verdict)
    found = ctxdl.search.find_model(ontology, 3, budget=3000)
    assert plan_split._key(replayed) == plan_split._key(found)
