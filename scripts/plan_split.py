"""Where a search call's time goes: building constraints, planning, solving, decoding.

    python3 scripts/plan_split.py CHECKOUT [--rounds N] [--calls FILE]

Records the ``find_model`` calls of two inputs against the library in
``CHECKOUT/src``: every call the ``witness`` workload's soundness checks make
(seed 1, one pass over its cells), and the ``models`` command of each ``cli``
combined file (seed 1, one pass over its cells). Then it replays each call
``N`` times (default 5) through the steps of ``find_model`` and times each:

* ``build``: one ``_Constraint`` per axiom;
* ``plan``: ``_prepare``, the grouping and the plan of every group;
* ``solve``: ``_solve_at_size`` for each domain size until one solves, or
  until the bound or the budget is reached, and the told-fact closure
  (``_refute``) once size 1 has failed;
* ``decode``: ``_build_interpretation`` of the solved assignment.

A call's time for a step is the minimum over its rounds, and a total is the
sum of those minima. Standard output holds, per input, the number of calls,
the totals of the four steps, their shares, and the number of ``Term``
hashes each step computes, counted in one more untimed round. ``--calls``
writes one JSON line per call with its four times.

Each replay checks that its verdict is the one ``find_model`` returned, so
the split measures the search the library runs. Comparing two checkouts:

    python3 scripts/plan_split.py ../parent --rounds 7
    python3 scripts/plan_split.py . --rounds 7
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
import warnings
from pathlib import Path

STEPS = ("build", "plan", "solve", "decode")


def record_calls(workloads, mods, workload: str, module) -> list[tuple]:
    """The `(ontology, max_size, budget, verdict)` of each `find_model` call
    that `module` makes during one pass over the workload's cells (seed 1)."""
    calls = []
    original = module.find_model

    def recording(ontology, max_size, *, budget=None):
        try:
            verdict = original(ontology, max_size, budget=budget)
        except mods.semantics.BoundTooLargeError:
            calls.append((ontology, max_size, budget, None))
            raise
        calls.append((ontology, max_size, budget, verdict))
        return verdict

    module.find_model = recording
    try:
        with tempfile.TemporaryDirectory() as work:
            built = workloads.build(workload, mods, workloads.DEFAULT_SEED, Path(work))
            built.before_pass()
            for cell in built.cells:
                try:
                    cell.run()
                except mods.semantics.BoundTooLargeError:
                    pass
            built.after_pass()
    finally:
        module.find_model = original
    return calls


def replay(search, sem, ontology, max_size: int, budget, clock=time.perf_counter) -> tuple[list[float], object]:
    """The four step times of one call, and its verdict (None at a budget-out).
    `clock` is read once before each step and once after the last."""
    t0 = clock()
    slots: dict = {}
    constraints = [search._Constraint(ax, True, slots) for ax in ontology.axioms]
    t1 = clock()
    problem = search._prepare(constraints, slots)
    t2 = clock()
    tracker = search._Budget(search.DEFAULT_BUDGET if budget is None else budget)
    vals, size = None, max_size
    try:
        for size in range(1, max_size + 1):
            vals = search._solve_at_size(problem, slots, size, tracker)
            if vals is not None or size == 1 < max_size and search._refute(ontology.axioms):
                break
    except sem.BoundTooLargeError:
        t3 = clock()
        return [t1 - t0, t2 - t1, t3 - t2, 0.0], None
    t3 = clock()
    if vals is None:
        return [t1 - t0, t2 - t1, t3 - t2, 0.0], sem.NoModelUpTo(max_size)
    interp = search._build_interpretation(vals, slots, size, set(ontology.signature))
    t4 = clock()
    return [t1 - t0, t2 - t1, t3 - t2, t4 - t3], sem.SatisfiableAt(interp, size)


def count_hashes(mods, calls) -> list[int]:
    """Per step, the `Term.__hash__` calls of one untimed round over `calls`."""
    term = mods.core.Term
    counts = [0] * (len(STEPS) + 1)  # the last one catches what follows the last step
    step = [-1]

    def next_step() -> float:
        step[0] += 1
        return 0.0

    original = term.__hash__
    own = "__hash__" in vars(term)  # else the inherited one, the identity hash

    def counting(self):
        counts[step[0]] += 1
        return original(self)

    term.__hash__ = counting
    try:
        for ontology, max_size, budget, _ in calls:
            step[0] = -1
            replay(mods.search, mods.semantics, ontology, max_size, budget, clock=next_step)
    finally:
        if own:
            term.__hash__ = original
        else:
            del term.__hash__
    return counts[:len(STEPS)]


def _key(verdict):
    """A comparable form of a verdict: `SatisfiableAt` compares by identity."""
    model = getattr(verdict, "model", None)
    return verdict if model is None else (model, verdict.size)


def split(mods, calls, rounds: int) -> list[list[float]]:
    """Per call, the minimum over `rounds` of each step's time."""
    search, sem = mods.search, mods.semantics
    best = [[float("inf")] * len(STEPS) for _ in calls]
    for _ in range(rounds):
        for k, (ontology, max_size, budget, verdict) in enumerate(calls):
            times, got = replay(search, sem, ontology, max_size, budget)
            if _key(got) != _key(verdict):
                raise SystemExit(f"plan_split: replay {k} gave {got!r}, find_model gave {verdict!r}")
            best[k] = [min(a, b) for a, b in zip(best[k], times)]
    return best


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("checkout", type=Path)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--calls", type=Path, help="write one JSON line per call here")
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    warnings.simplefilter("ignore")
    import workloads

    mods = workloads.load_modules()
    inputs = {
        "witness": record_calls(workloads, mods, "witness", mods.verify),
        "cli": record_calls(workloads, mods, "cli", mods.cli),
    }
    lines = []
    for name, calls in inputs.items():
        best = split(mods, calls, args.rounds)
        totals = [sum(times[k] for times in best) for k in range(len(STEPS))]
        hashes = count_hashes(mods, calls)
        whole = sum(totals)
        print(f"{name}: {len(calls)} find_model calls, min of {args.rounds} rounds, {whole:.4f} s")
        for step, total, count in zip(STEPS, totals, hashes):
            print(f"  {step:7s} {total:9.4f} s  {total / whole:6.1%}  {count:9d} Term hashes")
        for k, (times, (ontology, max_size, budget, _)) in enumerate(zip(best, calls)):
            lines.append({"input": name, "call": k, "axioms": len(ontology.axioms), "bound": max_size,
                          "budget": budget, **{step: round(t, 7) for step, t in zip(STEPS, times)}})
    if args.calls is not None:
        args.calls.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
