"""Concrete text syntax for ontologies, annotations, and witness models.

The format is line-oriented and keyword-functional (`exists(r, c)` rather
than glyphs), which keeps the grammar LL(1) and diffs readable. Identifiers
may contain `@` and `#`; a term's kind is recovered from its shape: names
starting with `ctx@` or `st@` are anchors, other names containing `@` are
contextual, everything else is non-contextual. `#` opens a comment only at a
token boundary, so derived names like `capital#1` lex as one identifier.

One compiled pattern lexes the whole input into `(text, offset, is_ident)`
tokens; a line and column are worked out from an offset only for an error
and for a block's span. One reader takes an expression of the sorts its
position allows: a concept, a role, or either for the first operand of an
axiom, whose sort the token after it settles. One comma-list reader serves
compound forms, `oneof(...)` and element sets; a model's pair set keeps its
own loop, which also takes a trailing comma.

Serialization is canonical: one axiom per line in insertion order, single
spacing, sorted model denotations. Parsing a serialized document yields a
structurally identical document; a term whose name would not parse back as
that term, and a context id or block name that is no identifier, are refused
with an UnprintableTermError.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import get_args

from .annotation import AnnotationError, ContextualAnnotation, validate_annotation
from .core import (
    AtLeast,
    AtMost,
    Axiom,
    Bottom,
    Closure,
    Compose,
    ConceptAssert,
    ConceptAtom,
    ConceptExpr,
    ConceptIntersection,
    ConceptNeg,
    ConceptSub,
    ConceptUnion,
    Exists,
    Forall,
    Inverse,
    Nominals,
    Ontology,
    Product,
    RoleAssert,
    RoleAtom,
    RoleExpr,
    RoleIntersection,
    RoleNeg,
    RoleSub,
    RoleUnion,
    Term,
    TermKind,
    Top,
    TopCtx,
    children,
)
from .semantics import Interpretation

# Per keyword of a compound expression: its constructor and the sorts of
# its arguments in field order, "c" a concept, "r" a role, "n" a natural
# number. `top`, `bottom`, `ctxtop[...]`, atoms and `oneof(...)` are read
# and printed by hand.
_FORMS: dict[str, tuple[type, str]] = {
    "and": (ConceptIntersection, "cc"),
    "or": (ConceptUnion, "cc"),
    "not": (ConceptNeg, "c"),
    "exists": (Exists, "rc"),
    "forall": (Forall, "rc"),
    "atmost": (AtMost, "nrc"),
    "atleast": (AtLeast, "nrc"),
    "rand": (RoleIntersection, "rr"),
    "ror": (RoleUnion, "rr"),
    "rnot": (RoleNeg, "r"),
    "inv": (Inverse, "r"),
    "comp": (Compose, "rr"),
    "closure": (Closure, "r"),
    "product": (Product, "cc"),
}
_FORM_OF = {ctor: (keyword, sorts) for keyword, (ctor, sorts) in _FORMS.items()}

# The sort of the expression each keyword starts.
_SORT_OF = {keyword: "r" if ctor in get_args(RoleExpr) else "c" for keyword, (ctor, _) in _FORMS.items()}
_SORT_OF.update(top="c", bottom="c", ctxtop="c", oneof="c")

# Per sort: its noun, its atom's constructor and its expression types.
_SORTS = {"c": ("concept", ConceptAtom, get_args(ConceptExpr)), "r": ("role", RoleAtom, get_args(RoleExpr))}

RESERVED = frozenset("ontology annotation model anchor sub rsub domain indiv conc role".split()) | frozenset(_SORT_OF)

_IDENT = re.compile(r"[A-Za-z0-9_#@]+")
# Whitespace, a comment, punctuation (group 1), an identifier (group 2), or
# any other character (group 3), tried in that order at each offset.
_TOKEN = re.compile(r"\s+|#[^\n]*|([{}(),.=\[\]])|(" + _IDENT.pattern + r")|(.)", re.S)


class ParseError(ValueError):
    def __init__(self, line: int, col: int, message: str, expected: frozenset[str] = frozenset()):
        hint = f" (expected one of: {', '.join(sorted(expected))})" if expected else ""
        super().__init__(f"{line}:{col}: {message}{hint}")
        self.line = line
        self.col = col
        self.message = message
        self.expected = expected


class UnprintableTermError(ValueError):
    """A term, context id or block name that would not parse back as itself."""

    def __init__(self, term: Term | str, what: str = "context id"):
        what = (f"{what} {term!r}" if isinstance(term, str)
                else f"term {term.name!r} of kind {term.kind.name}")
        super().__init__(f"{what} has no text form: it would not parse back as itself")
        self.term = term


def infer_kind(name: str) -> TermKind:
    if name.startswith("ctx@") or name.startswith("st@"):
        return TermKind.ANCHOR
    if "@" in name:
        return TermKind.CONTEXTUAL
    return TermKind.NON_CONTEXTUAL


@lru_cache(maxsize=16384)
def _term(name: str) -> Term:
    """The term `name` reads as. The bounded cache is the parse fast path,
    past the kind inference and the term table; the table in `core.Term`,
    not this cache, makes every reading of a name one object."""
    return Term(name, infer_kind(name))


class BlockKind(Enum):
    ONTOLOGY = "ontology"
    ANNOTATION = "annotation"
    MODEL = "model"


Payload = Ontology | ContextualAnnotation | Interpretation


_PAYLOAD_TYPES = {
    BlockKind.ONTOLOGY: Ontology, BlockKind.ANNOTATION: ContextualAnnotation, BlockKind.MODEL: Interpretation,
}


@dataclass(frozen=True)
class Block:
    """A document block. Its payload has its kind's type, and an annotation
    block bears its context id as name, so it prints as text that parses back."""

    kind: BlockKind
    name: str
    payload: Payload
    span: tuple[int, int] = field(default=(0, 0), compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.payload, _PAYLOAD_TYPES[self.kind]):
            raise ValueError(f"{self.kind.value} block {self.name!r} cannot hold a {type(self.payload).__name__}")
        if self.kind is BlockKind.ANNOTATION and self.name != self.payload.ctx_id:
            raise ValueError(f"annotation block {self.name!r} holds context {self.payload.ctx_id!r}")


@dataclass(frozen=True)
class SourceDocument:
    blocks: tuple[Block, ...]

    def ontologies(self) -> list[Ontology]:
        return [b.payload for b in self.blocks if b.kind is BlockKind.ONTOLOGY]

    def annotations(self) -> list[ContextualAnnotation]:
        return [b.payload for b in self.blocks if b.kind is BlockKind.ANNOTATION]

    def models(self) -> list[Interpretation]:
        return [b.payload for b in self.blocks if b.kind is BlockKind.MODEL]


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------


def _position(text: str, offset: int) -> tuple[int, int]:
    """The line and column of `offset`, both from 1; only `\\n` ends a line."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _tokenize(text: str) -> list[tuple[str, int, bool]]:
    tokens = []
    for m in _TOKEN.finditer(text):
        group = m.lastindex
        if group == 3:
            raise ParseError(*_position(text, m.start()), f"unexpected character {m.group()!r}")
        if group:
            tokens.append((m.group(), m.start(), group == 2))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def _error(self, message: str, expected: Iterable[str] = ()) -> ParseError:
        if self.pos < len(self.tokens):
            offset = self.tokens[self.pos][1]
        else:
            message = f"unexpected end of input: {message}"
            last, offset, _ = self.tokens[-1] if self.tokens else ("", 0, False)
            offset += len(last)
        return ParseError(*_position(self.text, offset), message, frozenset(expected))

    def peek(self) -> tuple[str, int, bool] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _at(self, text: str) -> bool:
        return self.pos < len(self.tokens) and self.tokens[self.pos][0] == text

    def _take(self, text: str) -> bool:
        """Consume the next token if it is `text`."""
        if self._at(text):
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> None:
        if not self._take(text):
            raise self._error(f"expected {text!r}", {text})

    def ident(self, what: str = "identifier") -> str:
        tok = self.peek()
        if tok is None or not tok[2] or tok[0] in RESERVED:
            raise self._error(f"expected {what}", {what})
        self.pos += 1
        return tok[0]

    def nat(self, what: str = "natural number") -> int:
        tok = self.peek()
        if tok is None or not tok[2] or not tok[0].isdigit():
            raise self._error(f"expected {what}", {what})
        self.pos += 1
        return int(tok[0])

    def _list(self, open_: str, close: str, read, sorts: str = "", empty: bool = False) -> list:
        """`open item, ..., item close`, each item read by `read(sort)`: one
        per letter of `sorts`, or, without sorts, one more while a comma
        follows (and none if `empty` and the list closes at once)."""
        self.expect(open_)
        items = []
        if not (empty and (self.peek() is None or self._at(close))):
            while True:
                items.append(read(sorts[len(items):len(items) + 1]))  # "" without sorts
                if len(items) == len(sorts) or not sorts and not self._at(","):
                    break
                self.expect(",")
        self.expect(close)
        return items

    # -- documents ----------------------------------------------------------

    def document(self) -> SourceDocument:
        blocks: list[Block] = []
        while self.pos < len(self.tokens):
            blocks.append(self.block())
        return SourceDocument(tuple(blocks))

    def block(self) -> Block:
        keyword, offset, _ = self.tokens[self.pos]
        if keyword not in ("ontology", "annotation", "model"):
            raise self._error("expected a block", {"ontology", "annotation", "model"})
        kind = BlockKind(keyword)
        span = _position(self.text, offset)
        self.pos += 1
        name = self.ident(f"{keyword} name")
        if kind is BlockKind.ONTOLOGY:
            return Block(kind, name, Ontology(self._axiom_body()), span)
        if kind is BlockKind.MODEL:
            return Block(kind, name, self._model_body(), span)
        self.expect("anchor")
        anchor = _term(self.ident("anchor term"))
        axioms = self._axiom_body()
        try:
            ca = validate_annotation(anchor, axioms, ctx_id=name)
        except AnnotationError as exc:
            raise ParseError(*span, f"invalid annotation {name!r}: {exc}") from exc
        return Block(kind, name, ca, span)

    def _axiom_body(self) -> list[Axiom]:
        self.expect("{")
        axioms: list[Axiom] = []
        while not self._take("}"):
            if self.peek() is None:
                raise self._error("unterminated block", {"}"})
            axioms.append(self.axiom())
            self.expect(".")
        return axioms

    def _model_body(self) -> Interpretation:
        self.expect("{")
        self.expect("domain")
        size = self.nat("domain size")
        self.expect(".")
        tables: dict[str, dict] = {"indiv": {}, "conc": {}, "role": {}, "ctxtop": {}}
        while not self._take("}"):
            tok = self.peek()
            if tok is None:
                raise self._error("unterminated model block", {"}"})
            kind = tok[0]
            if kind not in tables:
                raise self._error("expected a denotation line", {*tables, "}"})
            self.pos += 1
            name = self.ident("term")
            self.expect("=")
            if kind == "indiv":
                value = self.nat()
            elif kind == "role":
                value = self._pair_set()
            else:
                value = frozenset(self._list("{", "}", lambda _: self.nat(), empty=True))
            tables[kind][name if kind == "ctxtop" else _term(name)] = value
            self.expect(".")
        try:
            return Interpretation(size, *tables.values())
        except ValueError as exc:
            raise self._error(f"inconsistent model block: {exc}") from exc

    def _pair_set(self) -> frozenset[tuple[int, int]]:
        self.expect("{")
        out: set[tuple[int, int]] = set()
        while self.peek() is not None and not self._at("}"):
            self.expect("(")
            x = self.nat()
            self.expect(",")
            y = self.nat()
            self.expect(")")
            out.add((x, y))
            if not self._take(","):
                break
        self.expect("}")
        return frozenset(out)

    # -- axioms and expressions ----------------------------------------------

    def axiom(self) -> Axiom:
        operand = self.expr("cr")
        if self.peek() is None:
            raise self._error("incomplete axiom", {"sub", "rsub", "("})
        if self._take("sub"):
            return ConceptSub(self._as(operand, "c"), self.expr("c"))
        if self._take("rsub"):
            return RoleSub(self._as(operand, "r"), self.expr("r"))
        if self._take("("):
            first = _term(self.ident("individual"))
            if self._take(","):
                second = _term(self.ident("individual"))
                self.expect(")")
                return RoleAssert(self._as(operand, "r"), first, second)
            self.expect(")")
            return ConceptAssert(self._as(operand, "c"), first)
        raise self._error("expected 'sub', 'rsub' or an assertion", {"sub", "rsub", "("})

    def expr(self, sorts: str):
        """An expression of one of `sorts`: "c" a concept, "r" a role, "cr"
        either, where a bare name stays a Term until `_as` gives it its
        sort, and "n" a natural number."""
        if sorts == "n":
            return self.nat("cardinality")
        text, _, is_ident = self.peek() or ("", 0, False)
        sort = _SORT_OF.get(text)
        if sort is None and is_ident and text not in RESERVED:
            self.pos += 1
            return self._as(_term(text), sorts) if sorts in _SORTS else _term(text)
        if sort is None or sort not in sorts:
            raise self._error(f"{_SORTS[sorts][0]} expected" if sorts in _SORTS else "expression expected")
        self.pos += 1
        if text == "top":
            return Top()
        if text == "bottom":
            return Bottom()
        if text == "ctxtop":
            self.expect("[")
            ctx_id = self.ident("context id")
            self.expect("]")
            return TopCtx(ctx_id)
        if text == "oneof":
            return Nominals(tuple(self._list("(", ")", lambda _: _term(self.ident("individual")))))
        ctor, arg_sorts = _FORMS[text]
        return ctor(*self._list("(", ")", self.expr, arg_sorts))

    def _as(self, operand, sort: str):
        """`operand`, a bare name or an expression, as an expression of `sort`."""
        noun, atom, types = _SORTS[sort]
        if isinstance(operand, Term):
            return atom(operand)
        if isinstance(operand, types):
            return operand
        other = "role" if sort == "c" else "concept"
        raise self._error(f"{other} expression where a {noun} is required")


def parse(text: str) -> SourceDocument:
    return _Parser(text).document()


# ---------------------------------------------------------------------------
# Serializer
# ---------------------------------------------------------------------------


@lru_cache(maxsize=4096)
def _read_back(name: str) -> TermKind | None:
    """The kind of term `name` parses as, or None if it is no identifier."""
    if name in RESERVED or not _IDENT.fullmatch(name):
        return None
    return infer_kind(name)


def _name(t: Term) -> str:
    """`t`'s name, which must parse back as `t`."""
    if _read_back(t.name) is not t.kind:
        raise UnprintableTermError(t)
    return t.name


def _ident(name: str, what: str) -> str:
    """A context id or block name, which must parse back as an identifier."""
    if _read_back(name) is None:
        raise UnprintableTermError(name, what)
    return name


def expr_text(e: ConceptExpr | RoleExpr) -> str:
    if isinstance(e, (ConceptAtom, RoleAtom)):
        return _name(e.term)
    if isinstance(e, Top):
        return "top"
    if isinstance(e, Bottom):
        return "bottom"
    if isinstance(e, TopCtx):
        return f"ctxtop[{_ident(e.ctx_id, 'context id')}]"
    if isinstance(e, Nominals):
        return f"oneof({', '.join(_name(u) for u in e.members)})"
    try:
        keyword, sorts = _FORM_OF[type(e)]
    except KeyError:
        raise TypeError(f"not an expression: {e!r}") from None
    args = [expr_text(c) for c in children(e)]
    if sorts[0] == "n":  # the cardinality bound, the one number argument, comes first
        args.insert(0, str(e.bound))
    return f"{keyword}({', '.join(args)})"


def axiom_text(ax: Axiom) -> str:
    if isinstance(ax, ConceptSub):
        return f"{expr_text(ax.left)} sub {expr_text(ax.right)}"
    if isinstance(ax, RoleSub):
        return f"{expr_text(ax.left)} rsub {expr_text(ax.right)}"
    if isinstance(ax, ConceptAssert):
        return f"{expr_text(ax.concept)}({_name(ax.individual)})"
    if isinstance(ax, RoleAssert):
        return f"{expr_text(ax.role)}({_name(ax.subject)}, {_name(ax.object)})"
    raise TypeError(f"not an axiom: {ax!r}")


def _set_text(values: frozenset) -> str:
    """A sorted element or pair set; a pair prints as the tuple `(x, y)`."""
    return "{" + ", ".join(map(str, sorted(values))) + "}"


def _lines(value: Payload, name: str) -> list[str]:
    """The lines of the block holding `value`; an annotation is named by its context id."""
    if isinstance(value, Interpretation):
        lines = [f"model {_ident(name, 'block name')} {{", f"  domain {value.size} ."]
        lines.extend(f"  indiv {_name(t)} = {value.indiv[t]} ." for t in sorted(value.indiv, key=Term.sort_key))
        for aspect, table in (("conc", value.conc), ("role", value.role)):
            lines.extend(f"  {aspect} {_name(t)} = {_set_text(table[t])} ." for t in sorted(table, key=Term.sort_key))
        lines.extend(f"  ctxtop {_ident(cid, 'context id')} = {_set_text(value.top_ctx[cid])} ."
                     for cid in sorted(value.top_ctx))
        return lines + ["}"]
    if isinstance(value, Ontology):
        head, axioms = f"ontology {_ident(name, 'block name')}", value.axioms
    elif isinstance(value, ContextualAnnotation):
        head, axioms = f"annotation {_ident(value.ctx_id, 'context id')} anchor {_name(value.anchor)}", value.abox
    else:
        raise TypeError(f"cannot serialize {value!r}")
    return [f"{head} {{", *(f"  {axiom_text(ax)} ." for ax in axioms), "}"]


def serialize(value: SourceDocument | Ontology | ContextualAnnotation | Interpretation, name: str = "o") -> str:
    """Canonical text for a document or a single block value; byte-stable.
    A single model's default name is `m`."""
    if isinstance(value, SourceDocument):
        return "\n\n".join("\n".join(_lines(b.payload, b.name)) for b in value.blocks) + "\n"
    if isinstance(value, Interpretation) and name == "o":
        name = "m"
    return "\n".join(_lines(value, name)) + "\n"
