"""Concrete text syntax for ontologies, annotations, and witness models.

The format is line-oriented and keyword-functional (`exists(r, c)` rather
than glyphs), which keeps the grammar LL(1) and diffs readable. Identifiers
may contain `@` and `#`; a term's kind is recovered from its shape: names
starting with `ctx@` or `st@` are anchors, other names containing `@` are
contextual, everything else is non-contextual. `#` opens a comment only at a
token boundary, so derived names like `capital#1` lex as one identifier.

Serialization is canonical: one axiom per line in insertion order, single
spacing, sorted model denotations. Parsing a serialized document yields a
structurally identical document; a term whose name would not parse back as
that term, and a context id that is no identifier, are refused with an
UnprintableTermError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Iterable, Union, get_args

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

_ROLE_KEYWORDS = frozenset(k for k, (ctor, _) in _FORMS.items() if ctor in get_args(RoleExpr))
_CONCEPT_KEYWORDS = frozenset(_FORMS).difference(_ROLE_KEYWORDS) | {"top", "bottom", "ctxtop", "oneof"}

RESERVED = frozenset(
    "ontology annotation model anchor sub rsub domain indiv conc role".split()
) | _CONCEPT_KEYWORDS | _ROLE_KEYWORDS

_IDENT_CHARS = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_#@")


class ParseError(ValueError):
    def __init__(self, line: int, col: int, message: str, expected: frozenset[str] = frozenset()):
        hint = f" (expected one of: {', '.join(sorted(expected))})" if expected else ""
        super().__init__(f"{line}:{col}: {message}{hint}")
        self.line = line
        self.col = col
        self.message = message
        self.expected = expected


class UnprintableTermError(ValueError):
    """A term, or a context id, whose name would not parse back as itself."""

    def __init__(self, term: Term | str):
        what = (f"context id {term!r}" if isinstance(term, str)
                else f"term {term.name!r} of kind {term.kind.name}")
        super().__init__(f"{what} has no text form: it would not parse back as itself")
        self.term = term


def infer_kind(name: str) -> TermKind:
    if name.startswith("ctx@") or name.startswith("st@"):
        return TermKind.ANCHOR
    if "@" in name:
        return TermKind.CONTEXTUAL
    return TermKind.NON_CONTEXTUAL


def _term(name: str) -> Term:
    return Term(name, infer_kind(name))


class BlockKind(Enum):
    ONTOLOGY = "ontology"
    ANNOTATION = "annotation"
    MODEL = "model"


Payload = Union[Ontology, ContextualAnnotation, Interpretation]


@dataclass(frozen=True)
class Block:
    kind: BlockKind
    name: str
    payload: Payload
    span: tuple[int, int] = field(default=(0, 0), compare=False)


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


@dataclass(frozen=True)
class _Token:
    text: str
    line: int
    col: int
    is_ident: bool = False


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch == "#":
            # comment: runs to end of line ('#' inside identifiers is consumed
            # by the ident scanner below and never reaches here mid-token)
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch in "{}(),.=[]":
            tokens.append(_Token(ch, line, col))
            i += 1
            col += 1
            continue
        if ch in _IDENT_CHARS:
            start = i
            start_col = col
            while i < n and text[i] in _IDENT_CHARS:
                i += 1
                col += 1
            tokens.append(_Token(text[start:i], line, start_col, is_ident=True))
            continue
        raise ParseError(line, col, f"unexpected character {ch!r}")
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def _error(self, message: str, expected: Iterable[str] = ()) -> ParseError:
        if self.pos < len(self.tokens):
            tok = self.tokens[self.pos]
            return ParseError(tok.line, tok.col, message, frozenset(expected))
        last = self.tokens[-1] if self.tokens else None
        line = last.line if last else 1
        col = last.col + len(last.text) if last else 1
        return ParseError(line, col, f"unexpected end of input: {message}", frozenset(expected))

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> _Token:
        tok = self.peek()
        if tok is None:
            raise self._error("token expected")
        self.pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.peek()
        if tok is None or tok.text != text:
            raise self._error(f"expected {text!r}", {text})
        return self.next()

    def ident(self, what: str = "identifier") -> _Token:
        tok = self.peek()
        if tok is None or not tok.is_ident or tok.text in RESERVED:
            raise self._error(f"expected {what}", {what})
        return self.next()

    def nat(self, what: str = "natural number") -> int:
        tok = self.peek()
        if tok is None or not tok.is_ident or not tok.text.isdigit():
            raise self._error(f"expected {what}", {what})
        self.next()
        return int(tok.text)

    # -- documents ----------------------------------------------------------

    def document(self) -> SourceDocument:
        blocks: list[Block] = []
        while self.peek() is not None:
            blocks.append(self.block())
        return SourceDocument(tuple(blocks))

    def block(self) -> Block:
        tok = self.peek()
        if tok is None or tok.text not in ("ontology", "annotation", "model"):
            raise self._error("expected a block", {"ontology", "annotation", "model"})
        span = (tok.line, tok.col)
        if tok.text == "ontology":
            self.next()
            name = self.ident("ontology name").text
            axioms = self._axiom_body()
            return Block(BlockKind.ONTOLOGY, name, Ontology(axioms), span)
        if tok.text == "annotation":
            self.next()
            name = self.ident("annotation name").text
            self.expect("anchor")
            anchor = _term(self.ident("anchor term").text)
            axioms = self._axiom_body()
            try:
                ca = validate_annotation(anchor, axioms, ctx_id=name)
            except AnnotationError as exc:
                raise ParseError(span[0], span[1], f"invalid annotation {name!r}: {exc}") from exc
            return Block(BlockKind.ANNOTATION, name, ca, span)
        self.next()
        name = self.ident("model name").text
        interp = self._model_body()
        return Block(BlockKind.MODEL, name, interp, span)

    def _axiom_body(self) -> list[Axiom]:
        self.expect("{")
        axioms: list[Axiom] = []
        while True:
            tok = self.peek()
            if tok is None:
                raise self._error("unterminated block", {"}"})
            if tok.text == "}":
                self.next()
                return axioms
            axioms.append(self.axiom())
            self.expect(".")

    def _model_body(self) -> Interpretation:
        self.expect("{")
        self.expect("domain")
        size = self.nat("domain size")
        self.expect(".")
        indiv: dict[Term, int] = {}
        conc: dict[Term, frozenset[int]] = {}
        role: dict[Term, frozenset[tuple[int, int]]] = {}
        top_ctx: dict[str, frozenset[int]] = {}
        while True:
            tok = self.peek()
            if tok is None:
                raise self._error("unterminated model block", {"}"})
            if tok.text == "}":
                self.next()
                break
            kind = tok.text
            if kind not in ("indiv", "conc", "role", "ctxtop"):
                raise self._error("expected a denotation line", {"indiv", "conc", "role", "ctxtop", "}"})
            self.next()
            name = self.ident("term").text
            self.expect("=")
            if kind == "indiv":
                indiv[_term(name)] = self.nat()
            elif kind == "conc":
                conc[_term(name)] = self._element_set()
            elif kind == "role":
                role[_term(name)] = self._pair_set()
            else:
                top_ctx[name] = self._element_set()
            self.expect(".")
        try:
            return Interpretation(size, indiv, conc, role, top_ctx)
        except ValueError as exc:
            raise self._error(f"inconsistent model block: {exc}") from exc

    def _element_set(self) -> frozenset[int]:
        self.expect("{")
        out: set[int] = set()
        if self.peek() is not None and self.peek().text != "}":
            out.add(self.nat())
            while self.peek() is not None and self.peek().text == ",":
                self.next()
                out.add(self.nat())
        self.expect("}")
        return frozenset(out)

    def _pair_set(self) -> frozenset[tuple[int, int]]:
        self.expect("{")
        out: set[tuple[int, int]] = set()
        while self.peek() is not None and self.peek().text != "}":
            self.expect("(")
            x = self.nat()
            self.expect(",")
            y = self.nat()
            self.expect(")")
            out.add((x, y))
            if self.peek() is not None and self.peek().text == ",":
                self.next()
            else:
                break
        self.expect("}")
        return frozenset(out)

    # -- axioms and expressions ----------------------------------------------

    def axiom(self) -> Axiom:
        operand = self._operand()
        tok = self.peek()
        if tok is None:
            raise self._error("incomplete axiom", {"sub", "rsub", "("})
        if tok.text == "sub":
            self.next()
            return ConceptSub(self._as_concept(operand), self.concept())
        if tok.text == "rsub":
            self.next()
            return RoleSub(self._as_role(operand), self.role())
        if tok.text == "(":
            self.next()
            first = _term(self.ident("individual").text)
            if self.peek() is not None and self.peek().text == ",":
                self.next()
                second = _term(self.ident("individual").text)
                self.expect(")")
                return RoleAssert(self._as_role(operand), first, second)
            self.expect(")")
            return ConceptAssert(self._as_concept(operand), first)
        raise self._error("expected 'sub', 'rsub' or an assertion", {"sub", "rsub", "("})

    def _operand(self):
        tok = self.peek()
        if tok is None:
            raise self._error("expression expected")
        if tok.text in _CONCEPT_KEYWORDS:
            return ("concept", self.concept())
        if tok.text in _ROLE_KEYWORDS:
            return ("role", self.role())
        if tok.is_ident and tok.text not in RESERVED:
            self.next()
            return ("name", _term(tok.text))
        raise self._error("expression expected")

    def _as_concept(self, operand) -> ConceptExpr:
        tag, value = operand
        if tag == "concept":
            return value
        if tag == "name":
            return ConceptAtom(value)
        raise self._error("role expression where a concept is required")

    def _as_role(self, operand) -> RoleExpr:
        tag, value = operand
        if tag == "role":
            return value
        if tag == "name":
            return RoleAtom(value)
        raise self._error("concept expression where a role is required")

    def concept(self) -> ConceptExpr:
        tok = self.peek()
        if tok is None:
            raise self._error("concept expected")
        text = tok.text
        if text == "top":
            self.next()
            return Top()
        if text == "bottom":
            self.next()
            return Bottom()
        if text == "ctxtop":
            self.next()
            self.expect("[")
            ctx_id = self.ident("context id").text
            self.expect("]")
            return TopCtx(ctx_id)
        if text == "oneof":
            self.next()
            self.expect("(")
            members = [_term(self.ident("individual").text)]
            while self.peek() is not None and self.peek().text == ",":
                self.next()
                members.append(_term(self.ident("individual").text))
            self.expect(")")
            return Nominals(tuple(members))
        if text in _CONCEPT_KEYWORDS:
            return self._form(text)
        if tok.is_ident and text not in RESERVED:
            self.next()
            return ConceptAtom(_term(text))
        raise self._error("concept expected")

    def role(self) -> RoleExpr:
        tok = self.peek()
        if tok is None:
            raise self._error("role expected")
        text = tok.text
        if text in _ROLE_KEYWORDS:
            return self._form(text)
        if tok.is_ident and text not in RESERVED:
            self.next()
            return RoleAtom(_term(text))
        raise self._error("role expected")

    def _form(self, keyword: str):
        """`keyword(arg, ...)`, its arguments read by their sorts."""
        ctor, sorts = _FORMS[keyword]
        self.next()
        self.expect("(")
        args = []
        for i, sort in enumerate(sorts):
            if i:
                self.expect(",")
            if sort == "c":
                args.append(self.concept())
            elif sort == "r":
                args.append(self.role())
            else:
                args.append(self.nat("cardinality"))
        self.expect(")")
        return ctor(*args)


def parse(text: str) -> SourceDocument:
    return _Parser(_tokenize(text)).document()


# ---------------------------------------------------------------------------
# Serializer
# ---------------------------------------------------------------------------


@lru_cache(maxsize=4096)
def _read_back(name: str) -> TermKind | None:
    """The kind of term `name` parses as, or None if it is no identifier."""
    if not name or name in RESERVED or not _IDENT_CHARS.issuperset(name):
        return None
    return infer_kind(name)


def _name(t: Term) -> str:
    """`t`'s name, which must parse back as `t`."""
    if _read_back(t.name) is not t.kind:
        raise UnprintableTermError(t)
    return t.name


def _ctx_id(ctx_id: str) -> str:
    """A context id, which must parse back as an identifier."""
    if _read_back(ctx_id) is None:
        raise UnprintableTermError(ctx_id)
    return ctx_id


def expr_text(e: ConceptExpr | RoleExpr) -> str:
    if isinstance(e, (ConceptAtom, RoleAtom)):
        return _name(e.term)
    if isinstance(e, Top):
        return "top"
    if isinstance(e, Bottom):
        return "bottom"
    if isinstance(e, TopCtx):
        return f"ctxtop[{_ctx_id(e.ctx_id)}]"
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


def _element_set_text(values: frozenset[int]) -> str:
    return "{" + ", ".join(str(v) for v in sorted(values)) + "}"


def _pair_set_text(values: frozenset[tuple[int, int]]) -> str:
    return "{" + ", ".join(f"({x}, {y})" for x, y in sorted(values)) + "}"


def _ontology_lines(name: str, onto: Ontology) -> list[str]:
    lines = [f"ontology {name} {{"]
    lines.extend(f"  {axiom_text(ax)} ." for ax in onto.axioms)
    lines.append("}")
    return lines


def _annotation_lines(ca: ContextualAnnotation) -> list[str]:
    lines = [f"annotation {_ctx_id(ca.ctx_id)} anchor {_name(ca.anchor)} {{"]
    lines.extend(f"  {axiom_text(ax)} ." for ax in ca.abox)
    lines.append("}")
    return lines


def _model_lines(name: str, interp: Interpretation) -> list[str]:
    lines = [f"model {name} {{", f"  domain {interp.size} ."]
    for t in sorted(interp.indiv, key=Term.sort_key):
        lines.append(f"  indiv {_name(t)} = {interp.indiv[t]} .")
    for t in sorted(interp.conc, key=Term.sort_key):
        lines.append(f"  conc {_name(t)} = {_element_set_text(interp.conc[t])} .")
    for t in sorted(interp.role, key=Term.sort_key):
        lines.append(f"  role {_name(t)} = {_pair_set_text(interp.role[t])} .")
    for cid in sorted(interp.top_ctx):
        lines.append(f"  ctxtop {_ctx_id(cid)} = {_element_set_text(interp.top_ctx[cid])} .")
    lines.append("}")
    return lines


def serialize(value: SourceDocument | Ontology | ContextualAnnotation | Interpretation, name: str = "o") -> str:
    """Canonical text for a document or a single block value; byte-stable."""
    if isinstance(value, SourceDocument):
        chunks = []
        for block in value.blocks:
            if block.kind is BlockKind.ONTOLOGY:
                chunks.append("\n".join(_ontology_lines(block.name, block.payload)))
            elif block.kind is BlockKind.ANNOTATION:
                chunks.append("\n".join(_annotation_lines(block.payload)))
            else:
                chunks.append("\n".join(_model_lines(block.name, block.payload)))
        return "\n\n".join(chunks) + "\n"
    if isinstance(value, Ontology):
        return "\n".join(_ontology_lines(name, value)) + "\n"
    if isinstance(value, ContextualAnnotation):
        return "\n".join(_annotation_lines(value)) + "\n"
    if isinstance(value, Interpretation):
        return "\n".join(_model_lines(name if name != "o" else "m", value)) + "\n"
    raise TypeError(f"cannot serialize {value!r}")
