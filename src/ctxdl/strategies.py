"""Contextualization strategies: embed an annotated statement or ontology
into one plain ontology that carries both the statement and its context.

All strategies share the same contract: the annotation's assertions are
reproduced with the anchor replaced by a fresh anchor term, and the statement
signature maps injectively into the output. They differ in how much of the
statement is rewritten:

* NdTerms relativizes the statement to a context top, renames every term
  (including the top) into a per-context copy, and links the copies to the
  originals (isContextualPartOf) and to the context anchor (isInContext).
* NdFluents renames only individuals in ABox assertions; no relativization.
* RDF reification replaces an atomic role assertion by subject/predicate/
  object triples hung off a per-statement anchor.
* N-ary relations split an atomic role assertion through a hub individual,
  with derived roles name#1/name#2 (and optionally a derived hub concept).
* The singleton property turns the per-statement anchor itself into a role
  holding exactly between the original arguments.

The reification-style strategies annotate role assertions only; every other
axiom passes through untouched and unannotated.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Union

from .annotation import AnnotatedOntology, AnnotatedStatement, ContextualAnnotation
from .core import (
    ABOX_FORMS,
    Axiom,
    ConceptAssert,
    ConceptAtom,
    ConceptSub,
    Exists,
    Nominals,
    Ontology,
    RoleAssert,
    RoleAtom,
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
# Renaming and anchors
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


def rename_axiom(ax: Axiom, scheme: RenamingScheme) -> Axiom:
    """Rename every term of the axiom into the scheme's context; a context
    top becomes that context's contextual top concept."""

    def rename(x):
        if isinstance(x, TopCtx):
            return ConceptAtom(RenamingScheme(x.ctx_id).top_term())
        return map_children(x, rename, scheme.rename)

    return rename(ax)


# ---------------------------------------------------------------------------
# The shared context part
# ---------------------------------------------------------------------------


def cx_of_annotation(ca: ContextualAnnotation, anchor_replacement: Term) -> list[Axiom]:
    """The annotation's assertions with the anchor swapped for a fresh term
    in argument positions; everything else is copied verbatim."""
    if anchor_replacement in ca.signature():
        raise ValueError(f"replacement {anchor_replacement.name!r} already occurs in the annotation")
    out: list[Axiom] = []
    for ax in ca.abox:
        if isinstance(ax, ConceptAssert):
            ind = anchor_replacement if ax.individual == ca.anchor else ax.individual
            out.append(ConceptAssert(ax.concept, ind))
        elif isinstance(ax, RoleAssert):
            subj = anchor_replacement if ax.subject == ca.anchor else ax.subject
            obj = anchor_replacement if ax.object == ca.anchor else ax.object
            out.append(RoleAssert(ax.role, subj, obj))
        else:
            out.append(ax)
    return out


# ---------------------------------------------------------------------------
# Per-statement transformations
# ---------------------------------------------------------------------------


def _sliced(out: list[Axiom], terms: list[Term], ca: ContextualAnnotation) -> list[Axiom]:
    """`out` followed by the links of each renamed term to its original
    (isContextualPartOf) and to the context anchor (isInContext), and by the
    context part."""
    scheme = RenamingScheme(ca.ctx_id)
    ctx_anchor = annotation_anchor(ca)
    out.extend(RoleAssert(RoleAtom(IS_CONTEXTUAL_PART_OF), scheme.rename(t), t) for t in terms)
    out.extend(RoleAssert(RoleAtom(IS_IN_CONTEXT), scheme.rename(t), ctx_anchor) for t in terms)
    out.extend(cx_of_annotation(ca, ctx_anchor))
    return out


def _ndterms_statement(axiom: Axiom, ca: ContextualAnnotation) -> list[Axiom]:
    """Relativize the statement, add the membership axioms of its terms, and
    rename everything. Duplicates are left to the final ontology: the
    renaming is injective, so they collapse there just the same."""
    scheme = RenamingScheme(ca.ctx_id)
    terms = sorted(signature_of(axiom), key=Term.sort_key)
    out = [rename_axiom(relativize_axiom(axiom, ca.ctx_id), scheme)]
    for t in terms:
        out.extend(rename_axiom(ax, scheme) for ax in membership_axioms(t, ca.ctx_id))
    return _sliced(out, terms, ca)


def _ndfluents_statement(axiom: Axiom, ca: ContextualAnnotation) -> list[Axiom]:
    """Rename the individuals of an assertion: its arguments and the members
    of its nominals. Concept and role names, and every TBox axiom, stay."""
    scheme = RenamingScheme(ca.ctx_id)
    individuals: set[Term] = set()

    def rename_individual(t: Term) -> Term:
        individuals.add(t)
        return scheme.rename(t)

    def rename(x):
        if isinstance(x, (ConceptAtom, RoleAtom)):
            return x
        return map_children(x, rename, rename_individual)

    out: list[Axiom] = [rename(axiom) if isinstance(axiom, ABOX_FORMS) else axiom]
    return _sliced(out, sorted(individuals, key=Term.sort_key), ca)


def _atomic_role_assertion(axiom: Axiom) -> bool:
    return isinstance(axiom, RoleAssert) and isinstance(axiom.role, RoleAtom)


def _reified_passthrough(axiom: Axiom) -> list[Axiom]:
    if isinstance(axiom, RoleAssert):
        warnings.warn(NonAtomicAssertionWarning(axiom), stacklevel=4)
    return [axiom]


def _rdf_statement(axiom: Axiom, ca: ContextualAnnotation) -> list[Axiom]:
    if not _atomic_role_assertion(axiom):
        return _reified_passthrough(axiom)
    anchor = statement_anchor(axiom, ca)
    out: list[Axiom] = [
        RoleAssert(RoleAtom(SUBJECT), anchor, axiom.subject),
        RoleAssert(RoleAtom(PREDICATE), anchor, axiom.role.term),
        RoleAssert(RoleAtom(OBJECT), anchor, axiom.object),
    ]
    out.extend(cx_of_annotation(ca, anchor))
    return out


def derived_role(role: Term, position: int) -> Term:
    return Term.nc(f"{role.name}#{position}")


def derived_concept(role: Term) -> Term:
    return Term.nc(f"C#{role.name}")


def _nary_statement(axiom: Axiom, ca: ContextualAnnotation, concept_anchored: bool) -> list[Axiom]:
    if not _atomic_role_assertion(axiom):
        return _reified_passthrough(axiom)
    anchor = statement_anchor(axiom, ca)
    role = axiom.role.term
    if concept_anchored:
        out: list[Axiom] = [
            ConceptAssert(ConceptAtom(derived_concept(role)), anchor),
            RoleAssert(RoleAtom(derived_role(role, 1)), anchor, axiom.subject),
            RoleAssert(RoleAtom(derived_role(role, 2)), anchor, axiom.object),
        ]
    else:
        out = [
            RoleAssert(RoleAtom(derived_role(role, 1)), axiom.subject, anchor),
            RoleAssert(RoleAtom(derived_role(role, 2)), anchor, axiom.object),
        ]
    out.extend(cx_of_annotation(ca, anchor))
    return out


def _singleton_statement(axiom: Axiom, ca: ContextualAnnotation) -> list[Axiom]:
    if not _atomic_role_assertion(axiom):
        return _reified_passthrough(axiom)
    anchor = statement_anchor(axiom, ca)
    subject_nominal = Nominals((axiom.subject,))
    image = Exists(RoleAtom(anchor), Nominals((axiom.object,)))
    out: list[Axiom] = [
        RoleAssert(RoleAtom(anchor), axiom.subject, axiom.object),
        ConceptSub(subject_nominal, image),
        ConceptSub(image, subject_nominal),
        RoleAssert(RoleAtom(SINGLETON_PROPERTY_OF), anchor, axiom.role.term),
    ]
    out.extend(cx_of_annotation(ca, anchor))
    return out


_STATEMENT_TRANSFORMS = {
    Strategy.ND_TERMS: _ndterms_statement,
    Strategy.ND_FLUENTS: _ndfluents_statement,
    Strategy.RDF_REIFICATION: _rdf_statement,
    Strategy.NARY_TWO_ROLE: lambda ax, ca: _nary_statement(ax, ca, concept_anchored=False),
    Strategy.NARY_CONCEPT_ANCHORED: lambda ax, ca: _nary_statement(ax, ca, concept_anchored=True),
    Strategy.SINGLETON_PROPERTY: _singleton_statement,
}


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

AnnotatedInput = Union[AnnotatedStatement, AnnotatedOntology]


def contextualize(strategy: Strategy, annotated: AnnotatedInput) -> Ontology:
    """Apply one strategy to an annotated statement or ontology.

    An annotated ontology is handled statement by statement and the results
    are unioned (duplicates collapse, insertion order is kept).
    """
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
            warnings.warn(SignatureOverlapWarning(overlap), stacklevel=2)

    transform = _STATEMENT_TRANSFORMS[strategy]
    out: list[Axiom] = []
    for ax in axioms:
        out.extend(transform(ax, ca))
    return Ontology(out, base_signature)


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
    parts = [contextualize(strategy, item) for item in items]
    signature = frozenset().union(*(part.signature for part in parts))
    return Ontology([ax for part in parts for ax in part.axioms], signature)
