"""Workload cells built from a seed, and the correctness gate for their verdicts.

A cell is one property check (``ctxdl.verify.check_*``) or one CLI command
(``ctxdl.cli.run``). Cells look the library up through its module attributes
at call time, so the tracer's wrappers apply when they are installed.

Known answers come from two places. Hand-written rules restate the assertions
of ``tests/test_verify.py`` and the paper's strategy table: NdTerms keeps every
property, the reification styles lose the irreflexivity contradiction and
role-assertion entailment, NdFluents loses nominal coupling, and soundness is
never violated. ``expected.json`` records every cell's verdict at the commit
that introduced the benchmark (``python3 perfbench/record.py`` rewrites it).
A decided verdict must match the record, except where the record holds a
budget-out or an error: such a cell may later be decided, as long as its
verdict obeys the rules and its witness replays.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
import shutil
import sys
import types
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

DEFAULT_SEED = 1
HELDOUT_SEED = 2  # never used while tuning; check a claimed gain on it as well

# Per-call candidate budgets (``budget=`` of every search call, or
# CTXDL_BUDGET for the CLI). The refute budget is sized so that one pass of
# 144 cells takes 7-10 s on a 2-CPU x86-64 VM, four or five passes per 40 s
# run; at 300000 a pass took about 105 s.
REFUTE_BUDGET = 20_000
REFUTE_BOUNDS = (3, 4)
WITNESS_BUDGET = 1_000
WITNESS_BOUND = 3
# generate_corpus arguments of the witness statement ontologies. They are
# fixed: from one corpus seed to the next, the time of a pass varied by a
# fifth (IQR over median, 8 seeds of 400 statements), far beyond any bound
# a run-to-run comparison can use. The run seed draws the annotations and
# the cell order.
WITNESS_CORPUS = {"seed": 20250810, "count": 200, "max_terms": 5, "max_axioms": 6}
CLI_BUDGET = 20_000
CLI_BOUND = 3
CLI_CONTEXTS = (1, 2, 4, 8, 16, 32, 64)
CLI_CONTEXTUALIZE_ANNOTATIONS = 4

MODULES = ("core", "semantics", "annotation", "relativize", "strategies", "textio",
           "search", "verify", "cli")
REIFICATION = ("rdf", "nary", "nary-concept", "singleton")
BUDGET_MESSAGE = "search explored "


@dataclass
class Outcome:
    """What one cell execution produced, before it is judged."""

    verdict: str  # "holds", "violated", "inconclusive", "exit0", "budget-out", "error:<type>"
    problem: Optional[str] = None  # why a decided verdict failed its replay
    explored: Optional[int] = None  # candidates explored at a budget-out


@dataclass
class Cell:
    id: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]


@dataclass
class Workload:
    cells: list[Cell]
    before_pass: Callable[[], None] = lambda: None
    after_pass: Callable[[], None] = lambda: None


def load_modules() -> types.SimpleNamespace:
    """Import ctxdl afresh, so that import time is part of every set-up."""
    for name in [n for n in sys.modules if n == "ctxdl" or n.startswith("ctxdl.")]:
        del sys.modules[name]
    importlib.import_module("ctxdl")
    return types.SimpleNamespace(**{m: importlib.import_module(f"ctxdl.{m}") for m in MODULES})


def build(workload: str, mods, seed: int, work: Path) -> Workload:
    return WORKLOADS[workload](mods, random.Random(seed), work)


# ---------------------------------------------------------------------------
# Inputs shared by the workloads
# ---------------------------------------------------------------------------


def running_example_annotation(mods, names: Callable[[str], str] = str, ctx_id: str = "CA"):
    """The validity-interval + provenance annotation of the running example."""
    core = mods.core
    nc = core.Term.nc

    def role(r, a, b):
        return core.RoleAssert(core.RoleAtom(nc(names(r))), nc(names(a)), nc(names(b)))

    def concept(c, a):
        return core.ConceptAssert(core.ConceptAtom(nc(names(c))), nc(names(a)))

    abox = [
        role("validity", "a", "t"),
        concept("Interval", "t"),
        role("from", "t", "609BC"),
        role("to", "t", "539BC"),
        role("prov", "a", "w"),
        role("name", "w", "wikipedia"),
        concept("Wiki", "w"),
    ]
    return mods.annotation.validate_annotation(nc(names("a")), abox, ctx_id=ctx_id)


def _contextualized(mods, strategy: str, ontology, annotation):
    annotated = mods.annotation.AnnotatedOntology(ontology, annotation)
    return mods.strategies.contextualize(mods.strategies.Strategy(strategy), annotated)


def _once(make: Callable[[], object]) -> Callable[[], object]:
    """A reference result computed by the gate on first use, then reused."""
    memo: list = []

    def get():
        if not memo:
            memo.append(make())
        return memo[0]

    return get


def example7_premise(mods):
    """``capitalOf ⊑ cityOf``, ``capitalOf(babylon, babylonianEmpire)``."""
    pairs = {name: premise for name, premise, _ in mods.verify.curated_entailment_pairs()}
    return pairs["subsumption-propagation"]


def _replays(mods, model, ontology) -> bool:
    try:
        return mods.semantics.is_model(model, ontology)
    except mods.semantics.UnmappedTermError:  # the witness misses part of the signature
        return False


# ---------------------------------------------------------------------------
# refute: exhaustive NoModelUpTo / NoCounterexampleUpTo searches
# ---------------------------------------------------------------------------


def _build_refute(mods, rng: random.Random, work: Path) -> Workload:
    verify = mods.verify
    ca = running_example_annotation(mods)
    cells = []
    for name, onto in verify.curated_inconsistent_ontologies():
        for strategy in mods.strategies.Strategy:
            for bound in REFUTE_BOUNDS:
                cells.append(Cell(
                    f"inc/{name}/{strategy.value}/b{bound}",
                    lambda s=strategy, o=onto, b=bound: mods.verify.check_inconsistency_preservation(
                        s, o, ca, b, budget=REFUTE_BUDGET),
                    _inconsistency_check(mods, strategy.value, onto, ca, bound),
                ))
    for name, premise, conclusion in verify.curated_entailment_pairs():
        for strategy in mods.strategies.Strategy:
            for bound in REFUTE_BOUNDS:
                cells.append(Cell(
                    f"ent/{name}/{strategy.value}/b{bound}",
                    lambda s=strategy, p=premise, c=conclusion, b=bound:
                        mods.verify.check_entailment_preservation(s, p, c, ca, b, budget=REFUTE_BUDGET),
                    _entailment_check(mods, strategy.value, premise, conclusion, ca, bound),
                ))
    rng.shuffle(cells)
    return Workload(cells)


def _inconsistency_check(mods, strategy: str, onto, ca, bound: int):
    sem = mods.semantics
    output = _once(lambda: _contextualized(mods, strategy, onto, ca))

    def check(report) -> Outcome:
        verdict = report.outcome.value
        (premise,) = report.premise_verdicts
        if isinstance(premise, sem.SatisfiableAt) and not _replays(mods, premise.model, onto):
            return Outcome(verdict, "premise model does not replay")
        out = report.conclusion_verdict
        if verdict == "violated":
            if not _replays(mods, report.witness(), output()):
                return Outcome(verdict, "witness is not a model of the contextualization")
        elif verdict == "holds" and out != sem.NoModelUpTo(bound):
            return Outcome(verdict, f"holds without NoModelUpTo({bound})")
        return Outcome(verdict)

    return check


def _entailment_check(mods, strategy: str, premise, conclusion, ca, bound: int):
    sem = mods.semantics
    f_premise = _once(lambda: _contextualized(mods, strategy, premise, ca))
    f_conclusion = _once(lambda: _contextualized(mods, strategy, conclusion, ca))

    def check(report) -> Outcome:
        verdict = report.outcome.value
        out = report.conclusion_verdict
        if verdict == "violated":
            model = report.witness()
            if not _replays(mods, model, f_premise()) or _replays(mods, model, f_conclusion()):
                return Outcome(verdict, "countermodel does not replay")
        elif verdict == "holds" and out != sem.NoCounterexampleUpTo(bound):
            return Outcome(verdict, f"holds without NoCounterexampleUpTo({bound})")
        return Outcome(verdict)

    return check


# ---------------------------------------------------------------------------
# witness: soundness checks that stop at a first small model
# ---------------------------------------------------------------------------


def _build_witness(mods, rng: random.Random, work: Path) -> Workload:
    verify = mods.verify
    statements = [onto for onto, _ in verify.generate_corpus(**WITNESS_CORPUS)]
    corpus = verify.generate_corpus(rng.randrange(2**32), WITNESS_CORPUS["count"],
                                    WITNESS_CORPUS["max_terms"], WITNESS_CORPUS["max_axioms"])
    annotations = [ca for _, ca in corpus]
    cells = []
    for index, (onto, ca) in enumerate(zip(statements, annotations)):
        for strategy in mods.strategies.Strategy:
            cells.append(Cell(
                f"snd/{index:03d}/{strategy.value}",
                lambda s=strategy, o=onto, a=ca: mods.verify.check_soundness(
                    s, o, a, WITNESS_BOUND, budget=WITNESS_BUDGET),
                _soundness_check(mods, strategy.value, onto, ca),
            ))
    rng.shuffle(cells)
    return Workload(cells)


def _soundness_check(mods, strategy: str, onto, ca):
    sem = mods.semantics
    output = _once(lambda: _contextualized(mods, strategy, onto, ca))

    def check(report) -> Outcome:
        verdict = report.outcome.value
        for verdict_in, premise in zip(report.premise_verdicts, (onto, ca.as_ontology())):
            if isinstance(verdict_in, sem.SatisfiableAt) and not _replays(mods, verdict_in.model, premise):
                return Outcome(verdict, "premise model does not replay")
        if verdict == "holds":
            if not _replays(mods, report.witness(), output()):
                return Outcome(verdict, "witness is not a model of the contextualization")
        elif verdict == "inconclusive":
            if not any(isinstance(v, sem.NoModelUpTo) for v in report.premise_verdicts):
                return Outcome(verdict, "inconclusive with consistent premises")
        return Outcome(verdict)

    return check


# ---------------------------------------------------------------------------
# cli: in-process commands on files written from the seed
# ---------------------------------------------------------------------------

_WORDS = ("ur", "kish", "lagash", "mari", "nippur", "uruk", "eridu", "sippar", "larsa", "isin")


def _seeded_namer(rng: random.Random) -> Callable[[str], str]:
    tag = f"{rng.choice(_WORDS)}{rng.randrange(10**6)}"
    return lambda name: f"{name}_{tag}"


def _build_cli(mods, rng: random.Random, work: Path) -> Workload:
    core, textio = mods.core, mods.textio
    nc = core.Term.nc
    inputs, outputs = work / "in", work / "pass"
    inputs.mkdir()
    os.environ[mods.cli.BUDGET_ENV] = str(CLI_BUDGET)

    premise = example7_premise(mods)
    babylon = core.Ontology([core.RoleAssert(core.RoleAtom(nc("capitalOf")), nc("babylon"),
                                             nc("babylonianEmpire"))])
    ca = running_example_annotation(mods)
    annotations = []
    for index in range(max(CLI_CONTEXTS)):
        namer = _seeded_namer(rng)
        annotations.append(running_example_annotation(mods, namer, ctx_id=namer(f"C{index}")))

    def write(name: str, text: str) -> str:
        path = inputs / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    premise_path = write("premise.dl", textio.serialize(premise, "premise"))
    babylon_path = write("babylon.dl", textio.serialize(babylon, "babylon"))
    ca_path = write("ctx.dl", textio.serialize(ca))
    ann_paths = [write(f"ann{i}.dl", textio.serialize(a)) for i, a in enumerate(annotations)]

    cells: list[Cell] = []
    for index, (path, annotation) in enumerate(zip(ann_paths, annotations)):
        cells.append(Cell(f"validate/{index}", _cli_call(mods, ["validate", "-A", path]),
                          _cli_check(lambda out, a=annotation: _validated(out, a))))
    strategies = [s.value for s in mods.strategies.Strategy]
    for strategy in strategies:
        for index in range(CLI_CONTEXTUALIZE_ANNOTATIONS):
            out = outputs / f"ctx_{strategy}_{index}.dl"
            expect = lambda s=strategy, a=annotations[index]: _contextualized(mods, s, premise, a)
            cells.append(Cell(
                f"contextualize/{strategy}/{index}",
                _cli_call(mods, ["contextualize", "--strategy", strategy, "-O", premise_path,
                                 "-A", ann_paths[index], "-o", str(out)]),
                _cli_check(lambda _o, p=out, v=_same_ontology(mods, expect): v(p)),
            ))
    for strategy in strategies:
        for k in CLI_CONTEXTS:
            combined = outputs / f"comb_{strategy}_k{k}.dl"
            report = outputs / f"models_{strategy}_k{k}.jsonl"
            pairs = [arg for path in ann_paths[:k] for arg in ("--pair", f"{premise_path}:{path}")]
            expect = lambda s=strategy, k=k: mods.strategies.combine_contexts(
                [mods.annotation.AnnotatedOntology(premise, a) for a in annotations[:k]], mods.strategies.Strategy(s))
            cells.append(Cell(
                f"combine/{strategy}/k{k}",
                _cli_call(mods, ["combine", "--strategy", strategy, *pairs, "-o", str(combined)]),
                _cli_check(lambda _o, p=combined, v=_same_ontology(mods, expect): v(p)),
            ))
            cells.append(Cell(
                f"models/{strategy}/k{k}",
                _cli_call(mods, ["models", str(combined), "--bound", str(CLI_BOUND), "--report", str(report)]),
                # The combine cell before it checked the combined file against the library.
                _cli_check(lambda _o, r=report, v=_witness_of(mods, lambda p=combined: _parsed(mods, p)):
                           _reported(r, "satisfiable", v)),
            ))
    for strategy in strategies:
        report = outputs / f"check_{strategy}.jsonl"
        expect = lambda s=strategy: _contextualized(mods, s, babylon, ca)
        cells.append(Cell(
            f"check/{strategy}",
            _cli_call(mods, ["check", "--property", "soundness", "--strategy", strategy, "-O", babylon_path,
                             "-A", ca_path, "--bound", str(CLI_BOUND), "--report", str(report)]),
            _cli_check(lambda _o, r=report, v=_witness_of(mods, expect): _reported(r, "holds", v)),
        ))

    def before_pass() -> None:
        outputs.mkdir()

    def after_pass() -> None:
        shutil.rmtree(outputs)

    # Commands read files written by earlier commands, so the order is fixed.
    return Workload(cells, before_pass, after_pass)


def _cli_call(mods, argv: list[str]) -> Callable[[], tuple[int, str, str]]:
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = mods.cli.run(argv)
        return code, out.getvalue(), err.getvalue()

    return call


def _cli_check(replay: Callable[[str], Optional[str]]):
    """Map an exit code to a verdict by the 0/1/2 contract, then replay."""

    def check(result) -> Outcome:
        code, out, err = result
        if code not in (0, 1, 2):
            return Outcome("error:exit-contract")
        if code == 2:
            if BUDGET_MESSAGE in err:
                explored = int(err.split(BUDGET_MESSAGE, 1)[1].split()[0])
                return Outcome("budget-out", explored=explored)
            return Outcome("error:exit2")
        verdict = f"exit{code}"
        if code == 0:
            return Outcome(verdict, replay(out))
        return Outcome(verdict)

    return check


def _validated(out: str, annotation) -> Optional[str]:
    if f"annotation {annotation.ctx_id} is valid" not in out:
        return "validate did not confirm the annotation"
    return None


class _Verified:
    """Checks a file written by a command; a later pass that writes the same
    bytes needs no second check, so the reference result is built once and
    not kept."""

    def __init__(self, verify: Callable[[str], Optional[str]]):
        self.verify = verify
        self.text: Optional[str] = None

    def __call__(self, path: Path) -> Optional[str]:
        text = path.read_text(encoding="utf-8")
        if text == self.text:
            return None
        problem = self.verify(text)
        if problem is None:
            self.text = text
        return problem


def _parsed(mods, path: Path):
    (ontology,) = mods.textio.parse(path.read_text(encoding="utf-8")).ontologies()
    return ontology


def _same_ontology(mods, expected: Callable[[], object]) -> _Verified:
    def verify(text: str) -> Optional[str]:
        (written,) = mods.textio.parse(text).ontologies()
        if set(written.axioms) != set(expected().axioms):
            return "output differs from the library's own result"
        return None

    return _Verified(verify)


def _witness_of(mods, ontology: Callable[[], object]) -> _Verified:
    def verify(text: str) -> Optional[str]:
        (model,) = mods.textio.parse(text).models()
        return None if _replays(mods, model, ontology()) else "reported witness does not replay"

    return _Verified(verify)


def _reported(report: Path, outcome: str, witness: _Verified) -> Optional[str]:
    record = json.loads(report.read_text(encoding="utf-8").splitlines()[-1])
    if record["outcome"] != outcome:
        return f"report says {record['outcome']}, expected {outcome}"
    return witness(Path(record["witness"]))


WORKLOADS = {"refute": _build_refute, "witness": _build_witness, "cli": _build_cli}


# ---------------------------------------------------------------------------
# Known answers and the gate
# ---------------------------------------------------------------------------


def known_answer(cell_id: str) -> Optional[str]:
    """The verdict tests/test_verify.py or the paper's table fix for a cell."""
    kind, *rest = cell_id.split("/")
    if kind == "inc":
        name, strategy, _bound = rest
        if strategy == "ndterms":
            return "holds"
        if name == "irreflexivity":
            return "violated" if strategy in REIFICATION else "holds"
        if name == "nominal-coupling" and strategy == "ndfluents":
            return "violated"
    elif kind == "ent":
        name, strategy, _bound = rest
        if strategy == "ndterms":
            return "holds"
        if name in ("subsumption-propagation", "role-chain") and strategy in REIFICATION:
            return "violated"
        if name == "pure-tbox" and strategy == "rdf":
            return "holds"
    elif kind in ("validate", "contextualize", "combine", "models", "check"):
        return "exit0"
    return None


def judge(cell_id: str, outcome: Outcome, recorded: Optional[str]) -> tuple[str, str]:
    """Return (status, cause); status is decided, budget_out, error or wrong."""
    verdict = outcome.verdict
    if verdict == "budget-out":
        return "budget_out", f"budget-out, explored {outcome.explored}"
    if verdict.startswith("error:"):
        return "error", verdict
    if outcome.problem:
        return "wrong", f"{verdict}: {outcome.problem}"
    if verdict == "violated" and cell_id.startswith("snd/"):
        return "wrong", "soundness violated"
    known = known_answer(cell_id)
    if known is not None and verdict != known:
        return "wrong", f"{verdict}, known answer {known}"
    if recorded is None:
        return "wrong", f"{verdict}, no recorded verdict"
    if verdict != recorded and recorded != "budget-out" and not recorded.startswith("error:"):
        return "wrong", f"{verdict}, recorded {recorded}"
    return "decided", verdict


def outcome_of(cell: Cell, result, exc: Optional[BaseException], budget_error: type) -> Outcome:
    if exc is None:
        return cell.check(result)
    if isinstance(exc, budget_error):
        return Outcome("budget-out", explored=exc.explored)
    return Outcome(f"error:{type(exc).__name__}")
