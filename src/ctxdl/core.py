"""Core data model: terms, concept/role expressions, axioms, ontologies.

Every term can simultaneously denote an individual, a concept, and a role
(punning); the interpretation side carries all three denotations per term.
Expression trees are immutable and compared structurally, with no implicit
normalization.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from enum import Enum


class TermKind(Enum):
    NON_CONTEXTUAL = "nc"
    CONTEXTUAL = "c"
    ANCHOR = "a"


def is_clean_name(name: str) -> bool:
    """True iff `name` is nonempty and holds no whitespace (`str.isspace`'s
    Unicode whitespace): the rule for term names and context ids."""
    return name.split() == [name]


@dataclass(frozen=True)
class Term:
    """An atomic name, partitioned into non-contextual / contextual / anchor.

    Equality compares name and kind, but the hash is the name's alone: `str`
    caches its hash, and a name rarely has two kinds. Terms parsed from text
    are interned through a bounded cache (`textio._term`), so a name parsed
    again while cached is the same object.
    """

    name: str
    kind: TermKind = TermKind.NON_CONTEXTUAL

    def __post_init__(self) -> None:
        if not is_clean_name(self.name):
            raise ValueError(f"term name must be nonempty without whitespace: {self.name!r}")

    def __hash__(self) -> int:
        return hash(self.name)

    @classmethod
    def nc(cls, name: str) -> "Term":
        return cls(name, TermKind.NON_CONTEXTUAL)

    @classmethod
    def ctx(cls, name: str) -> "Term":
        return cls(name, TermKind.CONTEXTUAL)

    @classmethod
    def anchor(cls, name: str) -> "Term":
        return cls(name, TermKind.ANCHOR)

    def sort_key(self) -> tuple[str, str]:
        return (self.name, self.kind.value)


# ---------------------------------------------------------------------------
# Concept expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Top:
    pass


@dataclass(frozen=True)
class Bottom:
    pass


@dataclass(frozen=True)
class TopCtx:
    """The distinguished relativization concept for one context.

    Not a Term: it contributes nothing to signatures, and two nodes are equal
    iff their context ids are.
    """

    ctx_id: str


@dataclass(frozen=True)
class ConceptAtom:
    term: Term


@dataclass(frozen=True)
class ConceptUnion:
    left: "ConceptExpr"
    right: "ConceptExpr"


@dataclass(frozen=True)
class ConceptIntersection:
    left: "ConceptExpr"
    right: "ConceptExpr"


@dataclass(frozen=True)
class ConceptNeg:
    sub: "ConceptExpr"


@dataclass(frozen=True)
class Exists:
    role: "RoleExpr"
    concept: "ConceptExpr"


@dataclass(frozen=True)
class Forall:
    role: "RoleExpr"
    concept: "ConceptExpr"


@dataclass(frozen=True)
class AtMost:
    bound: int
    role: "RoleExpr"
    concept: "ConceptExpr"

    def __post_init__(self) -> None:
        if self.bound < 0:
            raise ValueError("cardinality bound must be >= 0")


@dataclass(frozen=True)
class AtLeast:
    bound: int
    role: "RoleExpr"
    concept: "ConceptExpr"

    def __post_init__(self) -> None:
        if self.bound < 0:
            raise ValueError("cardinality bound must be >= 0")


@dataclass(frozen=True)
class Nominals:
    members: tuple[Term, ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("nominal set must be nonempty")
        if len(set(self.members)) != len(self.members):
            raise ValueError("nominal members must be duplicate-free")


# ---------------------------------------------------------------------------
# Role expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RoleAtom:
    term: Term


@dataclass(frozen=True)
class RoleUnion:
    left: "RoleExpr"
    right: "RoleExpr"


@dataclass(frozen=True)
class RoleIntersection:
    left: "RoleExpr"
    right: "RoleExpr"


@dataclass(frozen=True)
class RoleNeg:
    sub: "RoleExpr"


@dataclass(frozen=True)
class Inverse:
    sub: "RoleExpr"


@dataclass(frozen=True)
class Compose:
    left: "RoleExpr"
    right: "RoleExpr"


@dataclass(frozen=True)
class Closure:
    """Reflexive-transitive closure: the identity on the domain plus every
    finite composition of the role with itself."""

    sub: "RoleExpr"


@dataclass(frozen=True)
class Product:
    """Concept product: the role relating every member of `left` to every member of `right`."""

    left: "ConceptExpr"
    right: "ConceptExpr"


ConceptExpr = (
    Top
    | Bottom
    | TopCtx
    | ConceptAtom
    | ConceptUnion
    | ConceptIntersection
    | ConceptNeg
    | Exists
    | Forall
    | AtMost
    | AtLeast
    | Nominals
)

RoleExpr = RoleAtom | RoleUnion | RoleIntersection | RoleNeg | Inverse | Compose | Closure | Product


# ---------------------------------------------------------------------------
# Axioms and ontologies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConceptSub:
    left: ConceptExpr
    right: ConceptExpr


@dataclass(frozen=True)
class RoleSub:
    left: RoleExpr
    right: RoleExpr


@dataclass(frozen=True)
class ConceptAssert:
    concept: ConceptExpr
    individual: Term


@dataclass(frozen=True)
class RoleAssert:
    role: RoleExpr
    subject: Term
    object: Term


Axiom = ConceptSub | RoleSub | ConceptAssert | RoleAssert

ABOX_FORMS = (ConceptAssert, RoleAssert)


# ---------------------------------------------------------------------------
# The constructor table: one traversal for every structural walker
# ---------------------------------------------------------------------------

Expr = ConceptExpr | RoleExpr | Axiom


def _none(x: Expr) -> tuple:
    return ()


def _pair(x: Expr) -> tuple[Expr, Expr]:
    return (x.left, x.right)


def _sub(x: Expr) -> tuple[Expr]:
    return (x.sub,)


def _restriction(x: Expr) -> tuple[Expr, Expr]:
    return (x.role, x.concept)


def _same(x: Expr, f: Callable, g: Callable) -> Expr:
    return x


# Per constructor: its sub-expressions, the terms it holds itself, and its
# rebuild from a sub-expression map `f` and a term map `g`.
_CONSTRUCTORS: dict[type, tuple[Callable, Callable, Callable]] = {
    Top: (_none, _none, _same),
    Bottom: (_none, _none, _same),
    TopCtx: (_none, _none, _same),
    ConceptAtom: (_none, lambda x: (x.term,), lambda x, f, g: ConceptAtom(g(x.term))),
    ConceptUnion: (_pair, _none, lambda x, f, g: ConceptUnion(f(x.left), f(x.right))),
    ConceptIntersection: (_pair, _none, lambda x, f, g: ConceptIntersection(f(x.left), f(x.right))),
    ConceptNeg: (_sub, _none, lambda x, f, g: ConceptNeg(f(x.sub))),
    Exists: (_restriction, _none, lambda x, f, g: Exists(f(x.role), f(x.concept))),
    Forall: (_restriction, _none, lambda x, f, g: Forall(f(x.role), f(x.concept))),
    AtMost: (_restriction, _none, lambda x, f, g: AtMost(x.bound, f(x.role), f(x.concept))),
    AtLeast: (_restriction, _none, lambda x, f, g: AtLeast(x.bound, f(x.role), f(x.concept))),
    Nominals: (_none, lambda x: x.members, lambda x, f, g: Nominals(tuple(g(u) for u in x.members))),
    RoleAtom: (_none, lambda x: (x.term,), lambda x, f, g: RoleAtom(g(x.term))),
    RoleUnion: (_pair, _none, lambda x, f, g: RoleUnion(f(x.left), f(x.right))),
    RoleIntersection: (_pair, _none, lambda x, f, g: RoleIntersection(f(x.left), f(x.right))),
    RoleNeg: (_sub, _none, lambda x, f, g: RoleNeg(f(x.sub))),
    Inverse: (_sub, _none, lambda x, f, g: Inverse(f(x.sub))),
    Compose: (_pair, _none, lambda x, f, g: Compose(f(x.left), f(x.right))),
    Closure: (_sub, _none, lambda x, f, g: Closure(f(x.sub))),
    Product: (_pair, _none, lambda x, f, g: Product(f(x.left), f(x.right))),
    ConceptSub: (_pair, _none, lambda x, f, g: ConceptSub(f(x.left), f(x.right))),
    RoleSub: (_pair, _none, lambda x, f, g: RoleSub(f(x.left), f(x.right))),
    ConceptAssert: (
        lambda x: (x.concept,), lambda x: (x.individual,),
        lambda x, f, g: ConceptAssert(f(x.concept), g(x.individual)),
    ),
    RoleAssert: (
        lambda x: (x.role,), lambda x: (x.subject, x.object),
        lambda x, f, g: RoleAssert(f(x.role), g(x.subject), g(x.object)),
    ),
}


def _row(x: object) -> tuple[Callable, Callable, Callable]:
    try:
        return _CONSTRUCTORS[type(x)]
    except KeyError:
        raise TypeError(f"not a core expression or axiom: {x!r}") from None


def walk(x: Expr) -> Iterator[Expr]:
    """Every node of `x`, parents first, left to right."""
    stack = [x]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(_row(node)[0](node)))


def children(x: Expr) -> tuple[Expr, ...]:
    """The sub-expressions of `x`, in field order."""
    return _row(x)[0](x)


def own_terms(node: Expr) -> tuple[Term, ...]:
    """The terms `node` holds itself: an atom's term, a nominal's members,
    an assertion's individuals. A TopCtx node holds none."""
    return _row(node)[1](node)


def map_children(x: Expr, expr_fn: Callable[[Expr], Expr], term_fn: Callable[[Term], Term]) -> Expr:
    """`x` rebuilt from `expr_fn` of each sub-expression and `term_fn` of
    each term it holds itself."""
    return _row(x)[2](x, expr_fn, term_fn)


def _terms_into(acc: set[Term], xs: Iterable[Expr]) -> set[Term]:
    """`acc` plus every term occurring in `xs`: one walk over all of them,
    in no particular order."""
    stack = list(xs)
    while stack:
        node = stack.pop()
        subs, terms, _ = _row(node)
        acc.update(terms(node))
        stack.extend(subs(node))
    return acc


def signature_of(x: Expr) -> frozenset[Term]:
    """All terms occurring in `x`. A TopCtx node contributes no term."""
    return frozenset(_terms_into(set(), (x,)))


@dataclass(frozen=True)
class Ontology:
    """A duplicate-free, insertion-ordered axiom list plus a declared signature.

    The stored signature always covers every term occurring in the axioms;
    extra declared terms are allowed.
    """

    axioms: tuple[Axiom, ...] = ()
    signature: frozenset[Term] = frozenset()

    def __init__(self, axioms: Iterable[Axiom] = (), signature: Iterable[Term] = ()) -> None:
        deduped = tuple(dict.fromkeys(axioms))
        object.__setattr__(self, "axioms", deduped)
        object.__setattr__(self, "signature", frozenset(_terms_into(set(signature), deduped)))

    def __contains__(self, axiom: Axiom) -> bool:
        return axiom in self.axioms

    def sorted_signature(self) -> list[Term]:
        return sorted(self.signature, key=Term.sort_key)


def stable_hash(value: object) -> str:
    """Eight hex digits of the SHA-256 of a core value's `repr`.

    Used to derive context ids and statement anchors, so equal inputs rename
    identically across runs. Deterministic only for values with no set
    inside: a set's `repr` follows its iteration order, which for terms and
    strings varies with `PYTHONHASHSEED`. Axioms, tuples of them and terms
    hold no set; for an ontology, hash its axioms and sorted signature.
    """
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()[:8]
