"""Relativization: confine an ontology's constraints to a context top.

The rewrite guards exactly the constructs whose meaning can leak outside a
subset of the domain (top, negations, value restrictions, closures) by
intersecting them with the context top, and adds membership axioms forcing
every signature term's denotations inside it. The two domain/range axioms
quantify with the plain top on purpose: they are the global statements that
pin role denotations into the context.
"""

from __future__ import annotations

from .core import (
    Axiom,
    Closure,
    ConceptAssert,
    ConceptAtom,
    ConceptIntersection,
    ConceptNeg,
    ConceptSub,
    Exists,
    Expr,
    Forall,
    Ontology,
    Product,
    RoleAtom,
    RoleIntersection,
    RoleNeg,
    Term,
    TermKind,
    Top,
    TopCtx,
    map_children,
)


class RelativizeError(ValueError):
    pass


class AlreadyRelativizedError(RelativizeError):
    def __init__(self, ctx_id: str):
        super().__init__(f"input already mentions the context top for {ctx_id!r}")
        self.ctx_id = ctx_id


class ContextualTermInSignatureError(RelativizeError):
    def __init__(self, terms: frozenset[Term]):
        names = ", ".join(sorted(t.name for t in terms))
        super().__init__(f"signature must be non-contextual, found: {names}")
        self.terms = terms


def _keep(t: Term) -> Term:
    return t


def relativize_axiom(x: Expr, ctx_id: str) -> Expr:
    """Relativize an axiom, a concept or a role to the context top.

    The top becomes the context top, and complements, value restrictions and
    closures are intersected with it (with its square for roles). Every
    other constructor is rebuilt from its relativized parts; terms stay.
    """
    top = TopCtx(ctx_id)

    def relativize(x):
        if isinstance(x, Top):
            return top
        if isinstance(x, TopCtx) and x.ctx_id == ctx_id:
            raise AlreadyRelativizedError(ctx_id)
        y = map_children(x, relativize, _keep)
        if isinstance(x, (ConceptNeg, Forall)):
            return ConceptIntersection(y, top)
        if isinstance(x, (RoleNeg, Closure)):
            return RoleIntersection(y, Product(top, top))
        return y

    return relativize(x)


def membership_axioms(term: Term, ctx_id: str) -> list[Axiom]:
    """The four per-term axioms confining a term's denotations to the top.

    The third and fourth deliberately use the unrelativized top: they bound
    the role's domain and range over the whole interpretation domain.
    """
    top = TopCtx(ctx_id)
    return [
        ConceptSub(ConceptAtom(term), top),
        ConceptAssert(top, term),
        ConceptSub(Exists(RoleAtom(term), Top()), top),
        ConceptSub(Top(), Forall(RoleAtom(term), top)),
    ]


def relativize_ontology(ontology: Ontology, ctx_id: str) -> Ontology:
    contextual = frozenset(t for t in ontology.signature if t.kind is not TermKind.NON_CONTEXTUAL)
    if contextual:
        raise ContextualTermInSignatureError(contextual)
    axioms = [relativize_axiom(ax, ctx_id) for ax in ontology.axioms]
    for term in ontology.sorted_signature():
        axioms.extend(membership_axioms(term, ctx_id))
    return Ontology(axioms, ontology.signature)
