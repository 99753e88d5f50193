"""Contextual annotations: ABoxes describing a context, tied to an anchor.

An annotation is a set of assertions whose individuals all hang together
with one distinguished individual, the anchor. Connectivity is what makes
the annotation "about" the anchor rather than a loose bag of facts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .core import (
    ABOX_FORMS,
    Axiom,
    ConceptAssert,
    ConceptAtom,
    Ontology,
    RoleAssert,
    RoleAtom,
    Term,
    is_clean_name,
    own_terms,
    signature_of,
    stable_hash,
)
from .semantics import Interpretation


class AnnotationError(ValueError):
    pass


class NotAnABoxError(AnnotationError):
    def __init__(self, axiom: Axiom):
        super().__init__(f"not an ABox axiom usable in an annotation: {axiom!r}")
        self.axiom = axiom


class DisconnectedError(AnnotationError):
    def __init__(self, terms: frozenset[Term]):
        names = ", ".join(sorted(t.name for t in terms))
        super().__init__(f"terms not connected to the anchor: {names}")
        self.terms = terms


@dataclass(frozen=True)
class ContextualAnnotation:
    """An ABox plus its anchor; sigma is the rest of the signature.

    `ctx_id` is the stable identifier other components use for renaming and
    for the context top; equal (anchor, abox) inputs derive equal ids unless
    an explicit id is supplied.

    A validated annotation asserts only atomic concepts and roles, so it is
    consistent, and `least_model()` gives the model that `find_model`
    returns for `as_ontology()` at any bound, without a search.
    """

    anchor: Term
    abox: tuple[Axiom, ...]
    sigma: frozenset[Term]
    ctx_id: str

    def signature(self) -> frozenset[Term]:
        return self.sigma | {self.anchor}

    def as_ontology(self) -> Ontology:
        """The ABox as an ontology over the annotation's signature, built
        once per instance."""
        return self._ontology

    @cached_property
    def _ontology(self) -> Ontology:
        # Kept in the instance's `__dict__`, outside the fields, so equality,
        # hashing and `repr` do not see it.
        return Ontology(self.abox, self.signature())

    def least_model(self) -> Interpretation:
        """The one-element model of the ABox, built once per instance: every
        term of the signature is individual 0, each asserted concept name is
        {0}, each asserted role name is {(0, 0)}, and every other concept
        and role is empty. It is the first model the search meets, since
        the search tries size 1 first and gives each atom its least value
        first."""
        return self._least_model

    @cached_property
    def _least_model(self) -> Interpretation:
        # Kept outside the fields, as `_ontology` is.
        terms = self.signature()
        empty: frozenset = frozenset()
        conc, role = dict.fromkeys(terms, empty), dict.fromkeys(terms, empty)
        point, loop = frozenset({0}), frozenset({(0, 0)})
        for ax in self.abox:
            if isinstance(ax, ConceptAssert):
                conc[ax.concept.term] = point
            else:
                role[ax.role.term] = loop
        return Interpretation(size=1, indiv=dict.fromkeys(terms, 0), conc=conc, role=role)


@dataclass(frozen=True)
class AnnotatedStatement:
    axiom: Axiom
    annotation: ContextualAnnotation


@dataclass(frozen=True)
class AnnotatedOntology:
    ontology: Ontology
    annotation: ContextualAnnotation


def _individuals_of(abox: Sequence[Axiom]) -> set[Term]:
    return {t for ax in abox for t in own_terms(ax)}


def _components(abox: Sequence[Axiom]) -> dict[Term, Term]:
    """Union-find roots for the undirected graph of role-assertion edges."""
    parent: dict[Term, Term] = {t: t for t in _individuals_of(abox)}

    def find(x: Term) -> Term:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for ax in abox:
        if isinstance(ax, RoleAssert):
            ra, rb = find(ax.subject), find(ax.object)
            if ra != rb:
                parent[ra] = rb
    return {t: find(t) for t in parent}


def connected_individuals(abox: Sequence[Axiom], a: Term, b: Term) -> bool:
    """True iff `a` and `b` occur as individuals in the ABox and either
    coincide or are linked by a chain of role assertions (in any direction).
    """
    roots = _components(abox)
    if a not in roots or b not in roots:
        return False
    return a == b or roots[a] == roots[b]


def validate_annotation(
    anchor: Term,
    abox: Iterable[Axiom],
    ctx_id: str | None = None,
) -> ContextualAnnotation:
    """Check the annotation shape and connectivity, then build the value.

    Every individual occurring in the ABox must be connected to the anchor,
    and every concept/role name must appear in some assertion whose
    individual arguments are. Names used purely as concepts or roles cannot
    witness connectivity themselves (they never occur as individuals), which
    is why they are checked through their host assertions.

    Assertions must use atomic concepts and roles. An explicit `ctx_id` must
    be nonempty and without whitespace, like a term name, since strategies
    build term names from it.
    """
    if ctx_id is not None and not is_clean_name(ctx_id):
        raise AnnotationError(f"context id must be nonempty without whitespace: {ctx_id!r}")
    axioms = tuple(abox)
    for ax in axioms:
        if not isinstance(ax, ABOX_FORMS):
            raise NotAnABoxError(ax)
        if isinstance(ax, ConceptAssert) and not isinstance(ax.concept, ConceptAtom):
            raise NotAnABoxError(ax)
        if isinstance(ax, RoleAssert) and not isinstance(ax.role, RoleAtom):
            raise NotAnABoxError(ax)

    signatures = [signature_of(ax) for ax in axioms]
    roots = _components(axioms)
    anchor_root = roots.get(anchor)

    def hosts_connected(ax: Axiom) -> bool:
        if isinstance(ax, ConceptAssert):
            args = [ax.individual]
        else:
            args = [ax.subject, ax.object]
        return all(roots.get(t) == anchor_root for t in args)

    disconnected: set[Term] = set()
    if axioms:
        if anchor_root is None:
            # The anchor itself never occurs: everything else is adrift.
            disconnected.update(*signatures)
        else:
            for t in roots:
                if roots[t] != anchor_root:
                    disconnected.add(t)
            # Names used only as concepts/roles need one connected host assertion.
            name_ok: dict[Term, bool] = {}
            for ax, sig in zip(axioms, signatures):
                ok = hosts_connected(ax)
                for name in sig:
                    if name not in roots:
                        name_ok[name] = name_ok.get(name, False) or ok
            disconnected |= {name for name, ok in name_ok.items() if not ok}
    if disconnected:
        raise DisconnectedError(frozenset(disconnected - {anchor}))

    sigma = frozenset().union(*signatures) - {anchor}
    if ctx_id is None:
        ctx_id = stable_hash((anchor, axioms))
    return ContextualAnnotation(anchor=anchor, abox=axioms, sigma=sigma, ctx_id=ctx_id)
