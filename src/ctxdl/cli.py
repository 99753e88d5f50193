"""Command-line front end.

Exit status contract: 0 for success or a property that holds, 1 for negative
verdicts (violated property, non-entailment, no model), 2 for usage, parse,
or I/O problems. The status is derived from the structured report record,
which can also be appended to a file as one JSON object per line via
`--report`; witness models referenced by records are written next to the
report file.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Optional

from .annotation import AnnotatedOntology, AnnotationError, ContextualAnnotation
from .core import Ontology
from .search import check_entailment, find_model
from .semantics import (
    BoundTooLargeError,
    Interpretation,
    NoCounterexampleUpTo,
    SatisfiableAt,
)
from .strategies import Strategy, combine_contexts, contextualize
from .textio import ParseError, UnprintableTermError, parse, serialize
from .verify import (
    Outcome,
    PremiseNotEntailedError,
    Property,
    check_entailment_preservation,
    check_inconsistency_preservation,
    check_soundness,
)

BUDGET_ENV = "CTXDL_BUDGET"


class CliError(Exception):
    """Usage- or I/O-level failure; maps to exit status 2."""


def _bound(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bound must be an integer, got {text!r}")
    if not 1 <= value <= 6:
        raise argparse.ArgumentTypeError("bound must be between 1 and 6")
    return value


def _strategy(text: str) -> Strategy:
    try:
        return Strategy(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"unknown strategy {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ctxdl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    ctx = sub.add_parser("contextualize", help="apply a strategy to an annotated ontology")
    ctx.add_argument("--strategy", type=_strategy, required=True)
    ctx.add_argument("-O", "--ontology", required=True)
    ctx.add_argument("-A", "--annotation", required=True)
    ctx.add_argument("-o", "--out", required=True)
    ctx.add_argument("--report")

    models = sub.add_parser("models", help="bounded model search for an ontology file")
    models.add_argument("file")
    models.add_argument("--bound", type=_bound, default=3)
    models.add_argument("--report")

    entails = sub.add_parser("entails", help="bounded entailment check between two ontology files")
    entails.add_argument("-P", "--premise", required=True)
    entails.add_argument("-C", "--conclusion", required=True)
    entails.add_argument("--bound", type=_bound, default=3)
    entails.add_argument("--report")

    check = sub.add_parser("check", help="verify a contextualization property at a bound")
    check.add_argument("--property", choices=[p.value for p in Property], required=True)
    check.add_argument("--strategy", type=_strategy, required=True)
    check.add_argument("-O", "--ontology")
    check.add_argument("-P", "--premise")
    check.add_argument("-C", "--conclusion")
    check.add_argument("-A", "--annotation", required=True)
    check.add_argument("--bound", type=_bound, default=3)
    check.add_argument("--report")

    combine = sub.add_parser("combine", help="contextualize several annotated ontologies and union them")
    combine.add_argument("--strategy", type=_strategy, required=True)
    combine.add_argument("--pair", action="append", required=True, metavar="ONT.dl:ANN.dl")
    combine.add_argument("-o", "--out", required=True)
    combine.add_argument("--report")

    validate = sub.add_parser("validate", help="check an annotation file for well-formedness")
    validate.add_argument("-A", "--annotation", required=True)

    return parser


# ---------------------------------------------------------------------------
# File helpers
# ---------------------------------------------------------------------------


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _load_ontology(path: str) -> Ontology:
    doc = parse(_read(path))
    ontologies = doc.ontologies()
    if not ontologies:
        raise CliError(f"{path}: no ontology block found")
    return ontologies[0]


def _load_annotation(path: str) -> ContextualAnnotation:
    doc = parse(_read(path))
    annotations = doc.annotations()
    if not annotations:
        raise CliError(f"{path}: no annotation block found")
    return annotations[0]


def _search_budget() -> Optional[int]:
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return None
    try:
        budget = int(raw)
    except ValueError:
        budget = None
    if budget is None or budget < 0:
        raise CliError(f"{BUDGET_ENV} must be a non-negative integer, got {raw!r}")
    return budget


def _emit(record: dict, report_path: Optional[str], witness: Optional[Interpretation]) -> dict:
    """Append the record to the report, numbered by its line in the report.

    The number also names the record's witness file, so every invocation
    that appends to one report writes its witness under a fresh name.
    """
    if report_path:
        record["seq"] = _count_lines(report_path) + 1
        if witness is not None:
            witness_path = f"{report_path}.witness{record['seq']}.model"
            _write_atomic(witness_path, serialize(witness, "witness"))
            record["witness"] = witness_path
        with open(report_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return record


def _count_lines(path: str) -> int:
    try:
        with open(path, "rb") as fh:
            return sum(1 for _ in fh)
    except FileNotFoundError:
        return 0


def _write_atomic(path: str, text: str) -> None:
    """Write through a temporary file in the same directory, so a reader
    never sees a partly written file."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", prefix=os.path.basename(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _record(command: str, outcome: str, bound: Optional[int], **extra) -> dict:
    rec = {"command": command, "outcome": outcome, "bound": bound, "witness": None, "seq": None}
    rec.update(extra)
    return rec


def _exit_code(record: dict) -> int:
    return 0 if record["outcome"] in ("ok", "holds", "inconclusive", "entailed", "satisfiable", "valid") else 1


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_contextualize(args) -> int:
    annotated = AnnotatedOntology(_load_ontology(args.ontology), _load_annotation(args.annotation))
    result = contextualize(args.strategy, annotated)
    _write_atomic(args.out, serialize(result, "out"))
    record = _record("contextualize", "ok", None, strategy=args.strategy.value, axioms=len(result.axioms))
    _emit(record, args.report, None)
    print(f"wrote {len(result.axioms)} axioms to {args.out}")
    return _exit_code(record)


def _cmd_models(args) -> int:
    onto = _load_ontology(args.file)
    verdict = find_model(onto, args.bound, budget=_search_budget())
    if isinstance(verdict, SatisfiableAt):
        record = _record("models", "satisfiable", args.bound, size=verdict.size)
        record = _emit(record, args.report, verdict.model)
        print(f"satisfiable at size {verdict.size} (bound {args.bound})")
    else:
        record = _record("models", "no-model", args.bound)
        _emit(record, args.report, None)
        print(f"no model up to size {args.bound}")
    return _exit_code(record)


def _cmd_entails(args) -> int:
    premise = _load_ontology(args.premise)
    conclusion = _load_ontology(args.conclusion)
    verdict = check_entailment(premise, conclusion, args.bound, budget=_search_budget())
    if isinstance(verdict, NoCounterexampleUpTo):
        record = _record("entails", "entailed", args.bound)
        _emit(record, args.report, None)
        print(f"no counterexample up to {args.bound}")
    else:
        record = _record("entails", "not-entailed", args.bound, size=verdict.countermodel.size)
        record = _emit(record, args.report, verdict.countermodel)
        print(f"not entailed: countermodel of size {verdict.countermodel.size}")
    return _exit_code(record)


def _cmd_check(args) -> int:
    prop = Property(args.property)
    ca = _load_annotation(args.annotation)
    budget = _search_budget()
    if prop is Property.ENTAILMENT_PRESERVATION:
        if not args.premise or not args.conclusion:
            raise CliError("entailment checks need -P and -C")
        report = check_entailment_preservation(
            args.strategy, _load_ontology(args.premise), _load_ontology(args.conclusion),
            ca, args.bound, budget=budget,
        )
    else:
        if not args.ontology:
            raise CliError(f"{prop.value} checks need -O")
        checker = check_soundness if prop is Property.SOUNDNESS else check_inconsistency_preservation
        report = checker(args.strategy, _load_ontology(args.ontology), ca, args.bound, budget=budget)
    record = _record(
        "check", report.outcome.value, args.bound,
        property=prop.value, strategy=args.strategy.value,
    )
    record = _emit(record, args.report, report.witness())
    qualifier = " (vacuous at bound)" if report.outcome is Outcome.INCONCLUSIVE_AT_BOUND else ""
    print(f"{prop.value} / {args.strategy.value}: {report.outcome.value}{qualifier} at bound {args.bound}")
    return _exit_code(record)


def _cmd_combine(args) -> int:
    inputs = []
    for pair in args.pair:
        if ":" not in pair:
            raise CliError(f"--pair must look like ONT.dl:ANN.dl, got {pair!r}")
        ont_path, ann_path = pair.split(":", 1)
        inputs.append(AnnotatedOntology(_load_ontology(ont_path), _load_annotation(ann_path)))
    result = combine_contexts(inputs, args.strategy)
    _write_atomic(args.out, serialize(result, "combined"))
    record = _record("combine", "ok", None, strategy=args.strategy.value, axioms=len(result.axioms))
    _emit(record, args.report, None)
    print(f"wrote {len(result.axioms)} axioms to {args.out}")
    return _exit_code(record)


def _cmd_validate(args) -> int:
    try:
        ca = _load_annotation(args.annotation)
    except ParseError as exc:
        if isinstance(exc.__cause__, AnnotationError):
            print(f"invalid annotation: {exc}")
            return 1
        raise
    print(f"annotation {ca.ctx_id} is valid: anchor {ca.anchor.name}, {len(ca.sigma)} signature terms")
    return 0


_COMMANDS = {
    "contextualize": _cmd_contextualize,
    "models": _cmd_models,
    "entails": _cmd_entails,
    "check": _cmd_check,
    "combine": _cmd_combine,
    "validate": _cmd_validate,
}


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except (
        CliError, ParseError, UnprintableTermError, AnnotationError, OSError, PremiseNotEntailedError,
        BoundTooLargeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
