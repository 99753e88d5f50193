"""One-off record of the north-star spot cells and of the harness's own checks.

    python3 perfbench/baseline.py

Writes ``baseline.json`` next to this file. The spot cells are not workloads:
they run with an unlimited candidate budget, once or a few times, to pin the
numbers a search change should be compared with:

* NdTerms' rewrite of the irreflexivity contradiction, ``find_model`` at
  bounds 3 and 4;
* NdTerms entailment preservation on the running example (Example 7) at
  bound 3.

The harness checks show that the gate catches an injected wrong verdict and a
witness that does not replay, and that the 64-context ``RecursionError`` of
``models`` is counted as an error without stopping the pass.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
import warnings
from pathlib import Path

import run
import workloads

OUT_FILE = Path(__file__).resolve().parent / "baseline.json"


def timed(fn, repeats: int) -> tuple[list[float], object]:
    times, result = [], None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return times, result


def spot_cells(mods) -> dict:
    verify, strategies, search = mods.verify, mods.strategies, mods.search
    ca = workloads.running_example_annotation(mods)
    irreflexivity = dict(verify.curated_inconsistent_ontologies())["irreflexivity"]
    rewrite = strategies.contextualize(strategies.Strategy.ND_TERMS,
                                       mods.annotation.AnnotatedOntology(irreflexivity, ca))
    premise, conclusion = next((p, c) for name, p, c in verify.curated_entailment_pairs()
                               if name == "subsumption-propagation")  # Example 7
    cells = {
        "ndterms_irreflexivity_find_model_b3": (lambda: search.find_model(rewrite, 3), 5),
        "ndterms_irreflexivity_find_model_b4": (lambda: search.find_model(rewrite, 4), 3),
        "ndterms_entailment_preservation_example7_b3": (
            lambda: verify.check_entailment_preservation(strategies.Strategy.ND_TERMS, premise,
                                                         conclusion, ca, 3), 5),
    }
    record = {}
    for name, (fn, repeats) in cells.items():
        times, result = timed(fn, repeats)
        verdict = getattr(result, "outcome", result)
        record[name] = {"median_s": statistics.median(times), "runs_s": times,
                        "verdict": str(getattr(verdict, "value", verdict))}
        print(f"{name}: {record[name]['median_s']:.3f} s, {record[name]['verdict']}")
    return record


def injected_wrong_verdicts(mods) -> dict:
    """The gate must flag a flipped verdict and a witness that does not replay."""
    built = workloads.build("refute", mods, workloads.DEFAULT_SEED, Path("."))
    cell = next(c for c in built.cells if c.id == "inc/irreflexivity/rdf/b3")
    report = cell.run()
    genuine = cell.check(report)
    sem = mods.semantics
    empty = sem.Interpretation(size=1)
    tampered = mods.verify.PropertyReport(report.property, report.premise_verdicts,
                                          sem.SatisfiableAt(empty, 1), report.outcome, report.bound)
    probes = {
        "genuine": (cell.id, genuine),
        "flipped_against_known_answer": (cell.id, workloads.Outcome("holds")),
        "flipped_against_record": ("inc/disjointness/rdf/b3", workloads.Outcome("violated")),
        "witness_not_a_model": (cell.id, cell.check(tampered)),
    }
    expected = json.loads(run.EXPECTED.read_text(encoding="utf-8"))["refute"]
    result = {}
    for name, (cell_id, outcome) in probes.items():
        status, cause = workloads.judge(cell_id, outcome, expected.get(cell_id))
        result[name] = {"cell": cell_id, "status": status, "cause": cause}
    caught = all(r["status"] == "wrong" for n, r in result.items() if n != "genuine")
    return {"caught": caught and result["genuine"]["status"] == "decided", "probes": result}


def recursion_error_counted(mods) -> dict:
    """The 64-context models cell fails; the cells after it still run."""
    work = Path(tempfile.mkdtemp(prefix="baseline-cli-", dir=run.OUT))
    try:
        built = workloads.build("cli", mods, workloads.DEFAULT_SEED, work)
        wanted = ["combine/ndterms/k64", "models/ndterms/k64", "check/ndterms"]
        built.cells = [c for c in built.cells if c.id in wanted]
        expected = json.loads(run.EXPECTED.read_text(encoding="utf-8"))["cli"]
        one = run.Pass(built, mods, expected)
    finally:
        shutil.rmtree(work)
    statuses = {cell_id: [status, cause] for cell_id, status, cause in one.judged}
    counted = statuses == {
        "combine/ndterms/k64": ["decided", "exit0"],
        "models/ndterms/k64": ["error", "error:RecursionError"],
        "check/ndterms": ["decided", "exit0"],
    }
    return {"counted": counted, "cells": statuses}


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    warnings.simplefilter("ignore")
    run.OUT.mkdir(exist_ok=True)
    mods = workloads.load_modules()
    record = {
        "machine": {"python": platform.python_version(), "platform": platform.platform(),
                    "cpus": os.cpu_count()},
        "spot_cells": spot_cells(mods),
        "harness": {
            "injected_wrong_verdict": injected_wrong_verdicts(mods),
            "recursion_error": recursion_error_counted(mods),
        },
    }
    OUT_FILE.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    harness = record["harness"]
    ok = harness["injected_wrong_verdict"]["caught"] and harness["recursion_error"]["counted"]
    print("harness checks", "pass" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
