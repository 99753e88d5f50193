"""Finite interpretations and the evaluation rules for expressions and axioms.

An interpretation fixes a finite domain {0..size-1} and, for every term, an
individual element, a concept subset, and a role relation. Context tops
(TopCtx nodes) are interpreted through a separate per-context-id map.

The bounded model / countermodel search (`find_model`, `check_entailment`)
lives in `ctxdl.search`, which compiles the same rules to int-mask interval
closures, exact where every component they read is assigned; the frozenset
evaluator here stays independent of them and is the semantic reference:
witnesses replay through it. Together the two files form the semantic
oracle used by the transformation checkers.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import chain

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
    Top,
    TopCtx,
)

Pair = tuple[int, int]


class UnmappedTermError(KeyError):
    """A term (or context id) lacks a denotation in the interpretation."""

    def __init__(self, what: Term | str):
        super().__init__(what)
        self.what = what

    def __str__(self) -> str:
        return f"no denotation for {self.what!r}"


class BoundTooLargeError(RuntimeError):
    """Search exceeded its candidate budget; lower the bound or raise the budget."""

    def __init__(self, explored: int, budget: int):
        super().__init__(f"search explored {explored} candidates, budget {budget}")
        self.explored = explored
        self.budget = budget


@dataclass(frozen=True, eq=False)
class Interpretation:
    size: int
    indiv: Mapping[Term, int] = field(default_factory=dict)
    conc: Mapping[Term, frozenset[int]] = field(default_factory=dict)
    role: Mapping[Term, frozenset[Pair]] = field(default_factory=dict)
    top_ctx: Mapping[str, frozenset[int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("domain must be nonempty")
        dom = range(self.size)
        for t, e in self.indiv.items():
            if e not in dom:
                raise ValueError(f"individual {t.name} maps outside the domain: {e}")
        # One subset test per distinct denotation object: terms with equal
        # denotations often share one set. A role's pairs are inside when
        # both ends of each are.
        elements = frozenset(dom)
        # The sets found inside, by id; holding them keeps their ids from
        # passing to sets a mapping builds later.
        inside: dict[int, object] = {}
        for t, s in self.conc.items():
            if id(s) not in inside:
                if not elements.issuperset(s):
                    raise ValueError(f"concept {t.name} maps outside the domain")
                inside[id(s)] = s
        related: dict[int, object] = {}
        for t, r in self.role.items():
            if id(r) not in related:
                if not elements.issuperset(chain.from_iterable(r)):
                    raise ValueError(f"role {t.name} maps outside the domain")
                related[id(r)] = r
        for cid, s in self.top_ctx.items():
            if id(s) not in inside:
                if not elements.issuperset(s):
                    raise ValueError(f"context top {cid} maps outside the domain")
                inside[id(s)] = s

    @property
    def domain(self) -> frozenset[int]:
        return frozenset(range(self.size))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Interpretation):
            return NotImplemented
        return (
            self.size == other.size
            and dict(self.indiv) == dict(other.indiv)
            and dict(self.conc) == dict(other.conc)
            and dict(self.role) == dict(other.role)
            and dict(self.top_ctx) == dict(other.top_ctx)
        )

    def individual(self, t: Term) -> int:
        try:
            return self.indiv[t]
        except KeyError:
            raise UnmappedTermError(t) from None

    def concept(self, t: Term) -> frozenset[int]:
        try:
            return self.conc[t]
        except KeyError:
            raise UnmappedTermError(t) from None

    def relation(self, t: Term) -> frozenset[Pair]:
        try:
            return self.role[t]
        except KeyError:
            raise UnmappedTermError(t) from None

    def context_top(self, ctx_id: str) -> frozenset[int]:
        try:
            return self.top_ctx[ctx_id]
        except KeyError:
            raise UnmappedTermError(ctx_id) from None

    def with_domain(self, size: int) -> "Interpretation":
        """Same denotations over a different (larger or smaller) domain size."""
        return Interpretation(size, self.indiv, self.conc, self.role, self.top_ctx)


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SatisfiableAt:
    model: Interpretation
    size: int


@dataclass(frozen=True)
class NoModelUpTo:
    """No model of at most `bound` elements. Where the search's told-fact
    closure refuted the input, `derivation` holds its steps
    (`ctxdl.search.Step`), and no model exists at any size; it takes no
    part in equality."""

    bound: int
    derivation: tuple = field(default=(), compare=False, repr=False)


@dataclass(frozen=True, eq=False)
class NotEntailed:
    countermodel: Interpretation


@dataclass(frozen=True)
class NoCounterexampleUpTo:
    """No countermodel of at most `bound` elements. `derivation` holds the
    steps of the told-fact refutations of the conclusion axioms that the
    closure refuted, one clash each, as for `NoModelUpTo`."""

    bound: int
    derivation: tuple = field(default=(), compare=False, repr=False)


Verdict = SatisfiableAt | NoModelUpTo | NotEntailed | NoCounterexampleUpTo


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def eval_concept(c: ConceptExpr, interp: Interpretation) -> frozenset[int]:
    """The subset of the domain denoted by a concept expression."""
    if isinstance(c, Top):
        return interp.domain
    if isinstance(c, Bottom):
        return frozenset()
    if isinstance(c, TopCtx):
        return interp.context_top(c.ctx_id)
    if isinstance(c, ConceptAtom):
        return interp.concept(c.term)
    if isinstance(c, ConceptUnion):
        return eval_concept(c.left, interp) | eval_concept(c.right, interp)
    if isinstance(c, ConceptIntersection):
        return eval_concept(c.left, interp) & eval_concept(c.right, interp)
    if isinstance(c, ConceptNeg):
        return interp.domain - eval_concept(c.sub, interp)
    if isinstance(c, Exists):
        rel = eval_role(c.role, interp)
        inner = eval_concept(c.concept, interp)
        return frozenset(x for x, y in rel if y in inner)
    if isinstance(c, Forall):
        rel = eval_role(c.role, interp)
        inner = eval_concept(c.concept, interp)
        return frozenset(
            x for x in interp.domain if all(y in inner for (x2, y) in rel if x2 == x)
        )
    if isinstance(c, (AtMost, AtLeast)):
        rel = eval_role(c.role, interp)
        inner = eval_concept(c.concept, interp)
        out = set()
        for x in interp.domain:
            count = sum(1 for (x2, y) in rel if x2 == x and y in inner)
            if (count <= c.bound) if isinstance(c, AtMost) else (count >= c.bound):
                out.add(x)
        return frozenset(out)
    if isinstance(c, Nominals):
        return frozenset(interp.individual(u) for u in c.members)
    raise TypeError(f"not a concept expression: {c!r}")


def eval_role(r: RoleExpr, interp: Interpretation) -> frozenset[Pair]:
    """The binary relation over the domain denoted by a role expression."""
    if isinstance(r, RoleAtom):
        return interp.relation(r.term)
    if isinstance(r, RoleUnion):
        return eval_role(r.left, interp) | eval_role(r.right, interp)
    if isinstance(r, RoleIntersection):
        return eval_role(r.left, interp) & eval_role(r.right, interp)
    if isinstance(r, RoleNeg):
        dom = interp.domain
        full = frozenset((x, y) for x in dom for y in dom)
        return full - eval_role(r.sub, interp)
    if isinstance(r, Inverse):
        return frozenset((y, x) for x, y in eval_role(r.sub, interp))
    if isinstance(r, Compose):
        left = eval_role(r.left, interp)
        right = eval_role(r.right, interp)
        by_source: dict[int, set[int]] = {}
        for z, y in right:
            by_source.setdefault(z, set()).add(y)
        return frozenset((x, y) for x, z in left for y in by_source.get(z, ()))
    if isinstance(r, Closure):
        return _closure(eval_role(r.sub, interp), interp.domain)
    if isinstance(r, Product):
        left = eval_concept(r.left, interp)
        right = eval_concept(r.right, interp)
        return frozenset((x, y) for x in left for y in right)
    raise TypeError(f"not a role expression: {r!r}")


def _closure(rel: frozenset[Pair], domain: frozenset[int]) -> frozenset[Pair]:
    # Fixpoint of one-step extension, starting from rel plus the reflexive
    # pairs over the whole domain.
    closed: set[Pair] = set(rel) | {(x, x) for x in domain}
    changed = True
    while changed:
        changed = False
        extra = set()
        for x, y in closed:
            for y2, z in rel:
                if y2 == y and (x, z) not in closed:
                    extra.add((x, z))
        if extra:
            closed |= extra
            changed = True
    return frozenset(closed)


def satisfies(interp: Interpretation, axiom: Axiom) -> bool:
    if isinstance(axiom, ConceptSub):
        return eval_concept(axiom.left, interp) <= eval_concept(axiom.right, interp)
    if isinstance(axiom, RoleSub):
        return eval_role(axiom.left, interp) <= eval_role(axiom.right, interp)
    if isinstance(axiom, ConceptAssert):
        return interp.individual(axiom.individual) in eval_concept(axiom.concept, interp)
    if isinstance(axiom, RoleAssert):
        pair = (interp.individual(axiom.subject), interp.individual(axiom.object))
        return pair in eval_role(axiom.role, interp)
    raise TypeError(f"not an axiom: {axiom!r}")


def is_model(interp: Interpretation, ontology: Ontology) -> bool:
    return all(satisfies(interp, ax) for ax in ontology.axioms)
