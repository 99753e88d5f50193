"""Contextualization strategies: embed an annotated statement or ontology
into one plain ontology that carries both the statement and its context.

All strategies share the same contract: the annotation's assertions are
reproduced with the anchor replaced by a fresh anchor term, and the statement
signature maps injectively into the output. The six strategies fall into two
families, each driven by one table keyed by `Strategy`:

* Slicing (`_SLICINGS`): one walker renames the sliced positions of the
  statement into per-context copies and links each sliced term to its
  original (isContextualPartOf) and to the context anchor (isInContext).
  A row says which positions are sliced, and whether the statement is first
  relativized to the context top, with the membership axioms of each sliced
  term. NdTerms slices every term (a context top becomes its `top@ctx`
  atom) and is relativized; NdFluents, the N-dimensional 4dFluents, slices
  only the individuals of assertions and is not.
* Reification (`_REIFICATIONS`): an atomic role assertion is replaced by
  axioms hung off a per-statement anchor. A row maps (anchor, role,
  subject, object) to those axioms: subject/predicate/object triples (RDF),
  a hub with derived roles name#1/name#2 (n-ary, and with a derived hub
  concept, n-ary-concept), or the anchor itself as a role holding exactly
  between the arguments (singleton property). Every other axiom passes
  through untouched and unannotated.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from enum import Enum

from .annotation import AnnotatedOntology, AnnotatedStatement, ContextualAnnotation
from .core import (
    Axiom,
    ConceptAssert,
    ConceptAtom,
    ConceptSub,
    Exists,
    Nominals,
    Ontology,
    RoleAssert,
    RoleAtom,
    RoleSub,
    Term,
    TermKind,
    TopCtx,
    map_children,
    signature_of,
    stable_hash,
)
from .relativize import ContextualTermInSignatureError, membership_axioms, relativize_axiom
from .relativize import relativize_ontology  # noqa: F401  re-exported

# Reserved vocabulary shared by all contexts.
IS_CONTEXTUAL_PART_OF = Term.nc("isContextualPartOf")
IS_IN_CONTEXT = Term.nc("isInContext")
SUBJECT = Term.nc("subject")
PREDICATE = Term.nc("predicate")
OBJECT = Term.nc("object")
SINGLETON_PROPERTY_OF = Term.nc("singletonPropertyOf")


class Strategy(Enum):
    ND_TERMS = "ndterms"
    ND_FLUENTS = "ndfluents"
    RDF_REIFICATION = "rdf"
    NARY_TWO_ROLE = "nary"
    NARY_CONCEPT_ANCHORED = "nary-concept"
    SINGLETON_PROPERTY = "singleton"


class SignatureOverlapWarning(UserWarning):
    def __init__(self, terms: frozenset[Term]):
        names = ", ".join(sorted(t.name for t in terms))
        super().__init__(f"statement and annotation share terms: {names}")
        self.terms = terms


class NonAtomicAssertionWarning(UserWarning):
    def __init__(self, axiom: Axiom):
        super().__init__(f"reification skips non-atomic role assertion: {axiom!r}")
        self.axiom = axiom


class DuplicateContextIdError(ValueError):
    def __init__(self, ctx_id: str):
        super().__init__(f"duplicate context id {ctx_id!r}")
        self.ctx_id = ctx_id


# ---------------------------------------------------------------------------
# Renaming, anchors and the context part
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RenamingScheme:
    """Per-context injective renaming of non-contextual terms.

    Renamed names carry an "@<ctx>" suffix, so images of distinct contexts
    never collide and the original name stays recoverable by eye.
    """

    ctx_id: str

    def rename(self, t: Term) -> Term:
        return Term(f"{t.name}@{self.ctx_id}", TermKind.CONTEXTUAL)

    def top_term(self) -> Term:
        """The contextual concept standing in for this context's top."""
        return Term(f"top@{self.ctx_id}", TermKind.CONTEXTUAL)


def annotation_anchor(ca: ContextualAnnotation) -> Term:
    """The anchor-kind replacement for the annotation's own anchor."""
    return Term(f"ctx@{ca.ctx_id}", TermKind.ANCHOR)


def statement_anchor(axiom: Axiom, ca: ContextualAnnotation) -> Term:
    """A per-statement anchor; distinct statements get distinct anchors."""
    return Term(f"st@{ca.ctx_id}@{stable_hash(axiom)}", TermKind.ANCHOR)


def cx_of_annotation(ca: ContextualAnnotation, anchor_replacement: Term) -> list[Axiom]:
    """The annotation's assertions with the anchor swapped for a fresh term
    in argument positions; everything else is copied verbatim."""
    if anchor_replacement in ca.signature():
        raise ValueError(f"replacement {anchor_replacement.name!r} already occurs in the annotation")

    def swap_anchor(t: Term) -> Term:
        return anchor_replacement if t == ca.anchor else t

    return [map_children(ax, lambda x: x, swap_anchor) for ax in ca.abox]


# ---------------------------------------------------------------------------
# The slicing family: NdTerms and NdFluents
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Slicing:
    every_term: bool  # every term and context top is sliced, else only the individuals of assertions
    relativized: bool  # relativize first and add the membership axioms of each sliced term


_SLICINGS = {
    Strategy.ND_TERMS: _Slicing(every_term=True, relativized=True),
    Strategy.ND_FLUENTS: _Slicing(every_term=False, relativized=False),
}


def _sliced_statement(slicing: _Slicing, axiom: Axiom, ca: ContextualAnnotation) -> list[Axiom]:
    """The statement with its sliced positions renamed into the context,
    followed by the links of each sliced term to its original
    (isContextualPartOf) and to the context anchor (isInContext).
    Duplicates are left to the final ontology: the renaming is injective, so
    they collapse there just the same."""
    scheme = RenamingScheme(ca.ctx_id)
    sliced: set[Term] = set()
    # Only individuals of assertions: context tops, atoms and TBox axioms stay.
    kept = () if slicing.every_term else (TopCtx, ConceptAtom, RoleAtom, ConceptSub, RoleSub)

    def part(t: Term) -> Term:
        sliced.add(t)
        return scheme.rename(t)

    def rename(x):
        if isinstance(x, kept):
            return x
        if isinstance(x, TopCtx):
            return ConceptAtom(RenamingScheme(x.ctx_id).top_term())
        return map_children(x, rename, part)

    if slicing.relativized:
        out = [rename(relativize_axiom(axiom, ca.ctx_id))]
        for t in sorted(sliced, key=Term.sort_key):
            out.extend(rename(ax) for ax in membership_axioms(t, ca.ctx_id))
    else:
        out = [rename(axiom)]
    ctx_anchor = annotation_anchor(ca)
    terms = sorted(sliced, key=Term.sort_key)
    out.extend(RoleAssert(RoleAtom(IS_CONTEXTUAL_PART_OF), scheme.rename(t), t) for t in terms)
    out.extend(RoleAssert(RoleAtom(IS_IN_CONTEXT), scheme.rename(t), ctx_anchor) for t in terms)
    return out


# ---------------------------------------------------------------------------
# The reification family: RDF, n-ary, n-ary-concept, singleton property
# ---------------------------------------------------------------------------


def derived_role(role: Term, position: int) -> Term:
    return Term.nc(f"{role.name}#{position}")


def derived_concept(role: Term) -> Term:
    return Term.nc(f"C#{role.name}")


# Per strategy: the axioms standing in for the atomic role assertion
# role(subject, object), given its per-statement anchor.
_REIFICATIONS: dict[Strategy, Callable[[Term, Term, Term, Term], list[Axiom]]] = {
    Strategy.RDF_REIFICATION: lambda anchor, role, subject, obj: [
        RoleAssert(RoleAtom(SUBJECT), anchor, subject),
        RoleAssert(RoleAtom(PREDICATE), anchor, role),
        RoleAssert(RoleAtom(OBJECT), anchor, obj),
    ],
    Strategy.NARY_TWO_ROLE: lambda anchor, role, subject, obj: [
        RoleAssert(RoleAtom(derived_role(role, 1)), subject, anchor),
        RoleAssert(RoleAtom(derived_role(role, 2)), anchor, obj),
    ],
    Strategy.NARY_CONCEPT_ANCHORED: lambda anchor, role, subject, obj: [
        ConceptAssert(ConceptAtom(derived_concept(role)), anchor),
        RoleAssert(RoleAtom(derived_role(role, 1)), anchor, subject),
        RoleAssert(RoleAtom(derived_role(role, 2)), anchor, obj),
    ],
    Strategy.SINGLETON_PROPERTY: lambda anchor, role, subject, obj: [
        RoleAssert(RoleAtom(anchor), subject, obj),
        ConceptSub(Nominals((subject,)), Exists(RoleAtom(anchor), Nominals((obj,)))),
        ConceptSub(Exists(RoleAtom(anchor), Nominals((obj,))), Nominals((subject,))),
        RoleAssert(RoleAtom(SINGLETON_PROPERTY_OF), anchor, role),
    ],
}


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

AnnotatedInput = AnnotatedStatement | AnnotatedOntology


def contextualize(strategy: Strategy, annotated: AnnotatedInput) -> Ontology:
    """Apply one strategy to an annotated statement or ontology.

    An annotated ontology is handled statement by statement and the results
    are unioned (duplicates collapse, insertion order is kept).
    """
    return _contextualize(strategy, annotated)


def combine_contexts(inputs: Iterable[AnnotatedOntology], strategy: Strategy) -> Ontology:
    """Union of per-context contextualizations; context ids must be distinct
    so the renaming ranges cannot collide."""
    items = list(inputs)
    seen: set[str] = set()
    for item in items:
        cid = item.annotation.ctx_id
        if cid in seen:
            raise DuplicateContextIdError(cid)
        seen.add(cid)
    axioms: list[Axiom] = []
    signature: set[Term] = set()
    for item in items:  # no comprehension: its frame would shift the warnings' caller
        part = _contextualize(strategy, item)
        axioms.extend(part.axioms)
        signature |= part.signature
    return Ontology(axioms, signature)


# Both entry points call `_contextualize` directly: their caller is 3 frames up.
_CALLER = 3


def _contextualize(strategy: Strategy, annotated: AnnotatedInput) -> Ontology:
    if isinstance(annotated, AnnotatedStatement):
        axioms: tuple[Axiom, ...] = (annotated.axiom,)
        base_signature = signature_of(annotated.axiom)
    else:
        axioms = annotated.ontology.axioms
        base_signature = annotated.ontology.signature
    ca = annotated.annotation

    bad = frozenset(
        t for t in (base_signature | ca.signature()) if t.kind is not TermKind.NON_CONTEXTUAL
    )
    if bad:
        raise ContextualTermInSignatureError(bad)
    if strategy is Strategy.ND_TERMS:
        overlap = frozenset(base_signature & ca.signature())
        if overlap:
            warnings.warn(SignatureOverlapWarning(overlap), stacklevel=_CALLER)

    slicing = _SLICINGS.get(strategy)
    reify = _REIFICATIONS.get(strategy)
    out: list[Axiom] = []
    for i, ax in enumerate(axioms):
        if slicing is not None:
            out.extend(_sliced_statement(slicing, ax, ca))
            if i == 0:  # the context part, once, where the first statement's copy stood
                out.extend(cx_of_annotation(ca, annotation_anchor(ca)))
        elif isinstance(ax, RoleAssert) and isinstance(ax.role, RoleAtom):
            anchor = statement_anchor(ax, ca)
            out.extend(reify(anchor, ax.role.term, ax.subject, ax.object))
            out.extend(cx_of_annotation(ca, anchor))
        else:
            if isinstance(ax, RoleAssert):
                warnings.warn(NonAtomicAssertionWarning(ax), stacklevel=_CALLER)
            out.append(ax)
    return Ontology(out, base_signature)
