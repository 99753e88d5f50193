"""Fingerprint of the search tree: verdicts, witnesses and candidate counts.

    python3 scripts/search_fingerprint.py CHECKOUT OUT.jsonl

Runs every cell of the benchmark's ``refute`` and ``witness`` workloads
(seeds 1 and 2) and 1500 random ontologies (``find_model`` with and without
symmetry breaking, under the transitive-only closure option, and
``check_entailment``) against the library in ``CHECKOUT/src``, and writes one
JSON line per call: the verdicts, the serialized witnesses, and the number
of candidates each search call tried (or where it ran out of budget). Two
checkouts whose files compare equal walk the same search tree on all of
these inputs:

    python3 scripts/search_fingerprint.py . new.jsonl
    python3 scripts/search_fingerprint.py ../parent old.jsonl
    cmp old.jsonl new.jsonl
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
import warnings
from pathlib import Path


def main(checkout: Path, out_path: Path) -> None:
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench"), str(checkout / "tests")]
    warnings.simplefilter("ignore")
    import workloads

    mods = workloads.load_modules()
    from generators import random_axiom, term_pool  # imports the ctxdl just loaded
    search, sem, textio = mods.search, mods.semantics, mods.textio

    budgets = []

    class RecordingBudget(search._Budget):
        def __init__(self, limit):
            super().__init__(limit)
            budgets.append(self)

    search._Budget = RecordingBudget

    def verdict(v):
        if v is None:
            return None
        model = getattr(v, "model", None) or getattr(v, "countermodel", None)
        return [type(v).__name__, getattr(v, "size", None), getattr(v, "bound", None),
                textio.serialize(model, "witness") if model is not None else None]

    with out_path.open("w", encoding="utf-8") as out:

        def emit(call_id, fn):
            budgets.clear()
            record = {"id": call_id}
            try:
                result = fn()
            except sem.BoundTooLargeError as exc:
                record["budget_out"] = [exc.explored, exc.budget]
            else:
                if hasattr(result, "premise_verdicts"):
                    record["outcome"] = result.outcome.value
                    record["premises"] = [verdict(v) for v in result.premise_verdicts]
                    record["conclusion"] = verdict(result.conclusion_verdict)
                else:
                    record["verdict"] = verdict(result)
            record["ticks"] = [b.used for b in budgets]
            out.write(json.dumps(record, sort_keys=True) + "\n")

        for workload in ("refute", "witness"):
            for seed in (1, 2):
                with tempfile.TemporaryDirectory() as work:
                    built = workloads.build(workload, mods, seed, Path(work))
                    for cell in sorted(built.cells, key=lambda c: c.id):
                        emit(f"{workload}/{seed}/{cell.id}", cell.run)

        ontology_of = mods.core.Ontology
        transitive = sem.EvalOptions(reflexive_closure=False)
        rng = random.Random(99)
        for i in range(1500):
            terms = term_pool(rng.randint(1, 3))
            o1 = ontology_of([random_axiom(rng, terms, rng.randint(0, 2)) for _ in range(rng.randint(1, 4))])
            o2 = ontology_of([random_axiom(rng, terms, rng.randint(0, 2)) for _ in range(rng.randint(1, 2))])
            emit(f"random/{i}/model", lambda: search.find_model(o1, 3, budget=3000))
            emit(f"random/{i}/symmetry", lambda: search.find_model(o1, 3, budget=3000, symmetry_breaking=True))
            emit(f"random/{i}/transitive", lambda: search.find_model(o1, 2, budget=3000, options=transitive))
            emit(f"random/{i}/entailment", lambda: search.check_entailment(o1, o2, 3, budget=3000))


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    main(Path(sys.argv[1]).resolve(), Path(sys.argv[2]))
