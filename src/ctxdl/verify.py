"""Executable checkers for the transformation properties, plus corpora.

The three properties (soundness, inconsistency preservation, entailment
preservation) are semantic claims about a contextualization strategy. Here
they become bounded checks: every verdict is relative to the search bound,
so a Holds outcome means "no violation up to the bound", never an unbounded
claim. Violated outcomes always carry a replayable witness inside the
conclusion verdict. The optional `budget` of each checker is the candidate
budget of every search call it makes (see `find_model`); a search that
exceeds it raises `BoundTooLargeError`.

A validated annotation asserts only atomic concepts and roles, so its
verdict is known without a search: `check_soundness` takes the
annotation's one-element least model
(`ContextualAnnotation.least_model`), which is the model `find_model`
would return, and spends no budget on it.

The premise verdict belongs to the original statement, so it is the same
under every strategy. The checkers remember a premise search that found no
model: a `NoModelUpTo`, a `NoCounterexampleUpTo` with its derivation, or a
budget-out, which is raised again as a new `BoundTooLargeError` with the
same figures. An entry is keyed by the premise ontology (by content), the
conclusion's axioms (or None for a model search), the bound and the budget,
and it lives as long as the premise ontology it was made for. A premise
with a model is searched again each time, so the memo holds no
interpretation. Searches of the rewritten ontologies are never remembered.
"""

from __future__ import annotations

import random
import weakref
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .annotation import AnnotatedOntology, ContextualAnnotation, validate_annotation
from .core import (
    AtLeast,
    AtMost,
    Axiom,
    Bottom,
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
    RoleAssert,
    RoleAtom,
    RoleExpr,
    RoleSub,
    Term,
    Top,
)
from .search import check_entailment, find_model
from .semantics import (
    BoundTooLargeError,
    Interpretation,
    NoCounterexampleUpTo,
    NoModelUpTo,
    NotEntailed,
    SatisfiableAt,
    Verdict,
    is_model,
)
from .strategies import Strategy, contextualize


class Property(Enum):
    SOUNDNESS = "soundness"
    INCONSISTENCY_PRESERVATION = "inconsistency"
    ENTAILMENT_PRESERVATION = "entailment"


class Outcome(Enum):
    HOLDS = "holds"
    VIOLATED = "violated"
    INCONCLUSIVE_AT_BOUND = "inconclusive"


class PremiseNotEntailedError(ValueError):
    """The claimed entailment between the originals already fails at the bound."""


@dataclass(frozen=True, eq=False)
class PropertyReport:
    property: Property
    premise_verdicts: tuple[Verdict, ...]
    conclusion_verdict: Optional[Verdict]
    outcome: Outcome
    bound: int

    def witness(self) -> Optional[Interpretation]:
        v = self.conclusion_verdict
        if isinstance(v, SatisfiableAt):
            return v.model
        if isinstance(v, NotEntailed):
            return v.countermodel
        return None


class ProbeResult(Enum):
    EXTENSIBLE_OBSERVED = "extensible"
    COUNTEREXAMPLE_FOUND = "counterexample"
    NO_MODEL_AT_BASE = "no-model"


@dataclass(frozen=True, eq=False)
class ExtensibilityProbe:
    ontology: Ontology
    base_size: int
    result: ProbeResult
    model: Optional[Interpretation] = None


# ---------------------------------------------------------------------------
# Property checkers
# ---------------------------------------------------------------------------

# Premise -> {(conclusion axioms or None, bound, budget): a verdict with no
# model, or the (explored, budget) of a budget-out}. The conclusion enters
# the key by its axioms, which decide a refutation: keyed by the ontology, an
# entailment of a premise by itself would keep its own entry alive.
_PREMISES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _premise_verdict(premise: Ontology, conclusion: Optional[Ontology], bound: int, budget: Optional[int]):
    """`find_model(premise, ...)`, or `check_entailment(premise, conclusion,
    ...)`, remembered where it finds no model (see the module docstring)."""
    key = (None if conclusion is None else conclusion.axioms, bound, budget)
    known = _PREMISES.get(premise, {}).get(key)
    if isinstance(known, tuple):
        raise BoundTooLargeError(*known)
    if known is not None:
        return known
    try:
        if conclusion is None:
            verdict = find_model(premise, bound, budget=budget)
        else:
            verdict = check_entailment(premise, conclusion, bound, budget=budget)
    except BoundTooLargeError as exc:
        _PREMISES.setdefault(premise, {})[key] = (exc.explored, exc.budget)
        raise
    if isinstance(verdict, (NoModelUpTo, NoCounterexampleUpTo)):
        _PREMISES.setdefault(premise, {})[key] = verdict
    return verdict


def check_soundness(
    strategy: Strategy,
    ontology: Ontology,
    ca: ContextualAnnotation,
    bound: int,
    *,
    budget: Optional[int] = None,
) -> PropertyReport:
    """Consistent statement + consistent annotation must stay consistent.

    The output ontology is searched with slack on top of the bound: the
    witness domains of the two premises may end up side by side in a model
    of the contextualization, so their sizes are added to the bound. The
    annotation is not searched: its premise verdict is `SatisfiableAt` its
    least model, of size 1, whatever the bound and budget. So `budget`
    bounds two searches, the statement's and the output's, and only they
    can raise `BoundTooLargeError`. A statement search that found no model
    at this bound and budget, or ran out of the budget, is not run again
    while the statement ontology lives.
    """
    v_onto = _premise_verdict(ontology, None, bound, budget)
    v_ca = SatisfiableAt(ca.least_model(), 1)
    premises = (v_onto, v_ca)
    if isinstance(v_onto, NoModelUpTo):
        return PropertyReport(Property.SOUNDNESS, premises, None, Outcome.INCONCLUSIVE_AT_BOUND, bound)
    slack = v_onto.size + v_ca.size
    result = contextualize(strategy, AnnotatedOntology(ontology, ca))
    v_out = find_model(result, bound + slack, budget=budget)
    outcome = Outcome.HOLDS if isinstance(v_out, SatisfiableAt) else Outcome.VIOLATED
    return PropertyReport(Property.SOUNDNESS, premises, v_out, outcome, bound)


def check_inconsistency_preservation(
    strategy: Strategy,
    ontology: Ontology,
    ca: ContextualAnnotation,
    bound: int,
    *,
    budget: Optional[int] = None,
) -> PropertyReport:
    """An inconsistent statement ontology must stay inconsistent.

    The statement's `NoModelUpTo`, or its budget-out, at this bound and
    budget is remembered while the statement ontology lives, so the other
    strategies do not search it again.
    """
    v_onto = _premise_verdict(ontology, None, bound, budget)
    if isinstance(v_onto, SatisfiableAt):
        return PropertyReport(
            Property.INCONSISTENCY_PRESERVATION, (v_onto,), None, Outcome.INCONCLUSIVE_AT_BOUND, bound
        )
    result = contextualize(strategy, AnnotatedOntology(ontology, ca))
    v_out = find_model(result, bound, budget=budget)
    outcome = Outcome.VIOLATED if isinstance(v_out, SatisfiableAt) else Outcome.HOLDS
    return PropertyReport(Property.INCONSISTENCY_PRESERVATION, (v_onto,), v_out, outcome, bound)


def check_entailment_preservation(
    strategy: Strategy,
    premise: Ontology,
    conclusion: Ontology,
    ca: ContextualAnnotation,
    bound: int,
    *,
    budget: Optional[int] = None,
) -> PropertyReport:
    """A bounded entailment between the originals must survive the rewrite.

    The originals' `NoCounterexampleUpTo`, or their budget-out, at this
    bound and budget is remembered while the premise ontology lives, keyed
    also by the conclusion's axioms, so the other strategies do not search
    it again.
    """
    pre = _premise_verdict(premise, conclusion, bound, budget)
    if isinstance(pre, NotEntailed):
        raise PremiseNotEntailedError("premise entailment fails at the bound; nothing to preserve")
    f_premise = contextualize(strategy, AnnotatedOntology(premise, ca))
    f_conclusion = contextualize(strategy, AnnotatedOntology(conclusion, ca))
    v_out = check_entailment(f_premise, f_conclusion, bound, budget=budget)
    outcome = Outcome.VIOLATED if isinstance(v_out, NotEntailed) else Outcome.HOLDS
    return PropertyReport(Property.ENTAILMENT_PRESERVATION, (pre,), v_out, outcome, bound)


def probe_domain_extensibility(
    ontology: Ontology, base_size: int, *, budget: Optional[int] = None
) -> ExtensibilityProbe:
    """Find a model, enlarge its domain with one fresh element under unchanged
    denotations, and re-check."""
    if base_size < 1:
        raise ValueError("base_size must be >= 1")
    verdict = find_model(ontology, base_size, budget=budget)
    if isinstance(verdict, NoModelUpTo):
        return ExtensibilityProbe(ontology, base_size, ProbeResult.NO_MODEL_AT_BASE)
    model = verdict.model
    extended = model.with_domain(model.size + 1)
    if is_model(extended, ontology):
        return ExtensibilityProbe(ontology, base_size, ProbeResult.EXTENSIBLE_OBSERVED, model)
    return ExtensibilityProbe(ontology, base_size, ProbeResult.COUNTEREXAMPLE_FOUND, model)


# ---------------------------------------------------------------------------
# Corpus generation
# ---------------------------------------------------------------------------


def generate_corpus(
    seed: int, count: int, max_terms: int, max_axioms: int
) -> list[tuple[Ontology, ContextualAnnotation]]:
    """Deterministic pseudo-random statement/annotation pairs.

    Statement ontologies use atomic and depth-<=2 expressions over a small
    shared term pool; annotations are atomic-ABox, connected by
    construction, and signature-disjoint from the statements.
    """
    if max_terms > 5:
        raise ValueError("max_terms must be <= 5 to keep the oracle feasible")
    if max_axioms > 6:
        raise ValueError("max_axioms must be <= 6 to keep the oracle feasible")
    rng = random.Random(seed)
    pairs = []
    for index in range(count):
        onto = _random_ontology(rng, max_terms, max_axioms)
        ca = _random_annotation(rng, f"g{index}")
        pairs.append((onto, ca))
    return pairs


def _random_ontology(rng: random.Random, max_terms: int, max_axioms: int) -> Ontology:
    terms = [Term.nc(f"t{i}") for i in range(rng.randint(1, max_terms))]
    axioms: list[Axiom] = []
    for _ in range(rng.randint(1, max_axioms)):
        form = rng.choices(["cassert", "rassert", "csub", "rsub"], weights=[4, 4, 2, 1])[0]
        if form == "cassert":
            axioms.append(ConceptAssert(_random_concept(rng, terms, 2), rng.choice(terms)))
        elif form == "rassert":
            axioms.append(RoleAssert(_random_role(rng, terms, 1), rng.choice(terms), rng.choice(terms)))
        elif form == "csub":
            axioms.append(ConceptSub(_random_concept(rng, terms, 2), _random_concept(rng, terms, 2)))
        else:
            axioms.append(RoleSub(_random_role(rng, terms, 1), _random_role(rng, terms, 1)))
    return Ontology(axioms)


def _random_concept(rng: random.Random, terms: list[Term], depth: int) -> ConceptExpr:
    leafs = ["atom", "atom", "top", "bottom", "nominal"]
    inner = leafs + ["union", "intersection", "neg", "exists", "forall", "atmost", "atleast"]
    pick = rng.choice(leafs if depth == 0 else inner)
    if pick == "atom":
        return ConceptAtom(rng.choice(terms))
    if pick == "top":
        return Top()
    if pick == "bottom":
        return Bottom()
    if pick == "nominal":
        return Nominals((rng.choice(terms),))
    if pick == "union":
        return ConceptUnion(_random_concept(rng, terms, depth - 1), _random_concept(rng, terms, depth - 1))
    if pick == "intersection":
        return ConceptIntersection(
            _random_concept(rng, terms, depth - 1), _random_concept(rng, terms, depth - 1)
        )
    if pick == "neg":
        return ConceptNeg(_random_concept(rng, terms, depth - 1))
    if pick == "exists":
        return Exists(_random_role(rng, terms, depth - 1), _random_concept(rng, terms, depth - 1))
    if pick == "forall":
        return Forall(_random_role(rng, terms, depth - 1), _random_concept(rng, terms, depth - 1))
    if pick == "atmost":
        return AtMost(rng.randint(0, 2), _random_role(rng, terms, depth - 1), _random_concept(rng, terms, depth - 1))
    return AtLeast(rng.randint(0, 2), _random_role(rng, terms, depth - 1), _random_concept(rng, terms, depth - 1))


def _random_role(rng: random.Random, terms: list[Term], depth: int) -> RoleExpr:
    if depth == 0 or rng.random() < 0.7:
        return RoleAtom(rng.choice(terms))
    pick = rng.choice(["inverse", "compose"])
    if pick == "inverse":
        return Inverse(_random_role(rng, terms, depth - 1))
    return Compose(_random_role(rng, terms, depth - 1), _random_role(rng, terms, depth - 1))


def _random_annotation(rng: random.Random, ctx_id: str) -> ContextualAnnotation:
    anchor = Term.nc(f"anch_{ctx_id}")
    abox: list[Axiom] = []
    previous = anchor
    for j in range(rng.randint(1, 3)):
        node = Term.nc(f"m{j}_{ctx_id}")
        abox.append(RoleAssert(RoleAtom(Term.nc(f"link{j}_{ctx_id}")), previous, node))
        if rng.random() < 0.5:
            abox.append(ConceptAssert(ConceptAtom(Term.nc(f"Kind{j}_{ctx_id}")), node))
        if rng.random() < 0.5:
            previous = node
    return validate_annotation(anchor, abox, ctx_id=ctx_id)


# ---------------------------------------------------------------------------
# Curated seeds
# ---------------------------------------------------------------------------


def curated_inconsistent_ontologies() -> list[tuple[str, Ontology]]:
    """Known-inconsistent statement ontologies with nonempty signatures."""
    cap = Term.nc("capitalOf")
    bab = Term.nc("babylon")
    c = Term.nc("C")
    d = Term.nc("D")
    a = Term.nc("a")
    b = Term.nc("b")
    r = Term.nc("R")
    return [
        (
            "irreflexivity",
            Ontology(
                [
                    ConceptSub(Exists(RoleAtom(cap), Top()), Forall(Inverse(RoleAtom(cap)), Bottom())),
                    RoleAssert(RoleAtom(cap), bab, bab),
                ]
            ),
        ),
        ("empty-concept", Ontology([ConceptSub(ConceptAtom(c), Bottom()), ConceptAssert(ConceptAtom(c), a)])),
        ("self-complement", Ontology([ConceptSub(ConceptAtom(c), ConceptNeg(ConceptAtom(c))), ConceptAssert(ConceptAtom(c), a)])),
        ("top-empty", Ontology([ConceptSub(Top(), Bottom()), ConceptAssert(ConceptAtom(c), a)])),
        (
            "cardinality-clash",
            Ontology(
                [
                    ConceptAssert(AtMost(0, RoleAtom(r), Top()), a),
                    RoleAssert(RoleAtom(r), a, b),
                ]
            ),
        ),
        (
            "disjointness",
            Ontology(
                [
                    ConceptSub(ConceptAtom(c), ConceptNeg(ConceptAtom(d))),
                    ConceptAssert(ConceptAtom(c), a),
                    ConceptAssert(ConceptAtom(d), a),
                ]
            ),
        ),
        (
            "nominal-coupling",
            Ontology(
                [
                    ConceptSub(Nominals((a,)), ConceptAtom(c)),
                    ConceptAssert(ConceptNeg(ConceptAtom(c)), a),
                ]
            ),
        ),
    ]


def curated_entailment_pairs() -> list[tuple[str, Ontology, Ontology]]:
    """Known-good bounded entailments used to probe preservation."""
    cap = Term.nc("capitalOf")
    city = Term.nc("cityOf")
    bab = Term.nc("babylon")
    emp = Term.nc("babylonianEmpire")
    c = Term.nc("C")
    d = Term.nc("D")
    a = Term.nc("a")
    b = Term.nc("b")
    e = Term.nc("e")
    r = Term.nc("R")
    return [
        (
            "subsumption-propagation",
            Ontology([RoleSub(RoleAtom(cap), RoleAtom(city)), RoleAssert(RoleAtom(cap), bab, emp)]),
            Ontology([RoleAssert(RoleAtom(city), bab, emp)]),
        ),
        (
            "assertion-subset",
            Ontology([ConceptAssert(ConceptAtom(c), a), RoleAssert(RoleAtom(r), a, b)]),
            Ontology([ConceptAssert(ConceptAtom(c), a)]),
        ),
        (
            "role-chain",
            Ontology([RoleAssert(RoleAtom(r), a, b), RoleAssert(RoleAtom(r), b, e)]),
            Ontology([RoleAssert(Compose(RoleAtom(r), RoleAtom(r)), a, e)]),
        ),
        (
            "concept-subsumption",
            Ontology([ConceptSub(ConceptAtom(c), ConceptAtom(d)), ConceptAssert(ConceptAtom(c), a)]),
            Ontology([ConceptAssert(ConceptAtom(d), a)]),
        ),
        (
            "pure-tbox",
            Ontology([ConceptSub(ConceptAtom(c), ConceptAtom(d)), ConceptSub(ConceptAtom(d), ConceptAtom(Term.nc("E")))]),
            Ontology([ConceptSub(ConceptAtom(c), ConceptAtom(Term.nc("E")))]),
        ),
    ]
