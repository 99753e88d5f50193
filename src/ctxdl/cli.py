"""Command-line front end.

Exit status follows the command's outcome: 0 for `ok`, `satisfiable`,
`entailed`, `holds`, `inconclusive` (a vacuous check) and `valid`; 1 for the
negative outcomes `no-model`, `not-entailed`, `violated` and `invalid`; 2 for
usage, parse or I/O problems and an exhausted search budget, with an `error:`
line on stderr, no stdout line and no record.

`--report FILE` appends one JSON object per invocation to FILE. Every record
has `command`, `outcome`, `bound` (null for contextualize and combine), `seq`
(its line number in FILE) and `witness` (null, or the path
`FILE.witness<seq>.model` of the witness model written next to FILE).
contextualize and combine add `strategy` and `axioms`; models adds `size`
when satisfiable; entails adds `size` when not entailed; check adds
`property` and `strategy`. validate takes no `--report`.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .annotation import AnnotatedOntology, AnnotationError
from .core import Ontology
from .search import check_entailment, find_model
from .semantics import (
    BoundTooLargeError,
    Interpretation,
    NoCounterexampleUpTo,
    SatisfiableAt,
)
from .strategies import Strategy, combine_contexts, contextualize
from .textio import BlockKind, ParseError, UnprintableTermError, parse, serialize
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process; `parse_args` leaves it unchanged."""
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


def _load(path: str, kind: BlockKind = BlockKind.ONTOLOGY):
    """The payload of the first `kind` block in the file at `path`."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    for block in parse(text).blocks:
        if block.kind is kind:
            return block.payload
    raise CliError(f"{path}: no {kind.value} block found")


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


def _emit(report_path: str, record: dict, witness: Optional[Interpretation]) -> None:
    """Append the record to the report with its `seq`, its line number in
    the report, and its `witness` path.

    The number also names the record's witness file, so every invocation
    that appends to one report writes its witness under a fresh name. If
    the append fails, the witness just written is removed with it."""
    seq = _count_lines(report_path) + 1
    witness_path = None if witness is None else f"{report_path}.witness{seq}.model"
    if witness_path:
        _write_atomic(witness_path, serialize(witness, "witness"))
    try:
        with open(report_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({**record, "seq": seq, "witness": witness_path}, sort_keys=True) + "\n")
    except BaseException:
        if witness_path:
            with contextlib.suppress(OSError):
                os.unlink(witness_path)
        raise


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


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Result:
    """What a subcommand decided: its outcome, its stdout line, the witness
    model of a report record, and the record's subcommand-specific fields."""

    outcome: str
    line: str
    witness: Optional[Interpretation] = None
    fields: dict = field(default_factory=dict)


def _annotated(ontology_path: str, annotation_path: str, load=_load) -> AnnotatedOntology:
    return AnnotatedOntology(load(ontology_path), load(annotation_path, BlockKind.ANNOTATION))


def _wrote(args, result: Ontology, name: str) -> _Result:
    """Write a rewritten ontology to `-o`, as the block `name`."""
    _write_atomic(args.out, serialize(result, name))
    fields = {"strategy": args.strategy.value, "axioms": len(result.axioms)}
    return _Result("ok", f"wrote {len(result.axioms)} axioms to {args.out}", fields=fields)


def _cmd_contextualize(args) -> _Result:
    return _wrote(args, contextualize(args.strategy, _annotated(args.ontology, args.annotation)), "out")


def _cmd_models(args) -> _Result:
    verdict = find_model(_load(args.file), args.bound, budget=_search_budget())
    if isinstance(verdict, SatisfiableAt):
        line = f"satisfiable at size {verdict.size} (bound {args.bound})"
        return _Result("satisfiable", line, verdict.model, {"size": verdict.size})
    return _Result("no-model", f"no model up to size {args.bound}")


def _cmd_entails(args) -> _Result:
    verdict = check_entailment(_load(args.premise), _load(args.conclusion), args.bound, budget=_search_budget())
    if isinstance(verdict, NoCounterexampleUpTo):
        return _Result("entailed", f"no counterexample up to {args.bound}")
    size = verdict.countermodel.size
    return _Result("not-entailed", f"not entailed: countermodel of size {size}", verdict.countermodel, {"size": size})


def _cmd_check(args) -> _Result:
    prop = Property(args.property)
    ca = _load(args.annotation, BlockKind.ANNOTATION)
    budget = _search_budget()
    if prop is Property.ENTAILMENT_PRESERVATION:
        if not args.premise or not args.conclusion:
            raise CliError("entailment checks need -P and -C")
        report = check_entailment_preservation(
            args.strategy, _load(args.premise), _load(args.conclusion), ca, args.bound, budget=budget
        )
    else:
        if not args.ontology:
            raise CliError(f"{prop.value} checks need -O")
        checker = check_soundness if prop is Property.SOUNDNESS else check_inconsistency_preservation
        report = checker(args.strategy, _load(args.ontology), ca, args.bound, budget=budget)
    outcome = report.outcome.value
    qualifier = " (vacuous at bound)" if report.outcome is Outcome.INCONCLUSIVE_AT_BOUND else ""
    line = f"{prop.value} / {args.strategy.value}: {outcome}{qualifier} at bound {args.bound}"
    return _Result(outcome, line, report.witness(), {"property": prop.value, "strategy": args.strategy.value})


def _cmd_combine(args) -> _Result:
    load = functools.cache(_load)  # a file named in several pairs is read and parsed once
    inputs = []
    for pair in args.pair:
        if ":" not in pair:
            raise CliError(f"--pair must look like ONT.dl:ANN.dl, got {pair!r}")
        inputs.append(_annotated(*pair.split(":", 1), load=load))
    return _wrote(args, combine_contexts(inputs, args.strategy), "combined")


def _cmd_validate(args) -> _Result:
    try:
        ca = _load(args.annotation, BlockKind.ANNOTATION)
    except ParseError as exc:
        if isinstance(exc.__cause__, AnnotationError):
            return _Result("invalid", str(exc))  # the parser's text names the annotation
        raise
    line = f"annotation {ca.ctx_id} is valid: anchor {ca.anchor.name}, {len(ca.sigma)} signature terms"
    return _Result("valid", line)


_COMMANDS = {
    "contextualize": _cmd_contextualize,
    "models": _cmd_models,
    "entails": _cmd_entails,
    "check": _cmd_check,
    "combine": _cmd_combine,
    "validate": _cmd_validate,
}

_NEGATIVE = frozenset({"no-model", "not-entailed", "violated", "invalid"})


def run(argv: list[str]) -> int:
    """Run one command: the one place that appends its record, prints its
    line and maps its outcome to the exit status."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        result = _COMMANDS[args.command](args)
        if getattr(args, "report", None):
            record = {"command": args.command, "outcome": result.outcome, "bound": getattr(args, "bound", None)}
            _emit(args.report, {**record, **result.fields}, result.witness)
        print(result.line)
    except (
        CliError, ParseError, UnprintableTermError, AnnotationError, OSError, PremiseNotEntailedError,
        BoundTooLargeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if result.outcome in _NEGATIVE else 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
