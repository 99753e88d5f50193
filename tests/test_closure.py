"""Soundness of the told-fact closure that refutes before the search.

A closure refutation claims that no model exists at any domain size, so it
must never be found where a model exists, and each step of its derivation
must follow, in every interpretation, from the steps and the axiom it
names.
"""

import random
import typing
import warnings

import pytest

from ctxdl.annotation import AnnotatedOntology
from ctxdl.core import (
    AtLeast,
    AtMost,
    Bottom,
    ConceptAssert,
    ConceptAtom,
    ConceptExpr,
    ConceptSub,
    Inverse,
    Ontology,
    RoleAtom,
    RoleExpr,
    RoleSub,
    Term,
)
from ctxdl.search import _CLOSURE_RULES, Step, _refute, check_entailment, find_model
from ctxdl import search as search_module
from ctxdl.semantics import (
    BoundTooLargeError,
    NoCounterexampleUpTo,
    NoModelUpTo,
    SatisfiableAt,
    eval_concept,
    eval_role,
    is_model,
    satisfies,
)
from ctxdl.strategies import Strategy, contextualize
from ctxdl.textio import parse
from ctxdl.verify import generate_corpus

from generators import random_axiom, random_interpretation, term_pool
from oracles import all_interpretations, brute_force_has_model, collect_ctx_ids

# The statements of the `witness` benchmark workload.
WITNESS_CORPUS = dict(seed=20250810, count=200, max_terms=5, max_axioms=6)


def ndterms(onto, ca):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return contextualize(Strategy.ND_TERMS, AnnotatedOntology(onto, ca))


def search_alone(monkeypatch):
    monkeypatch.setattr(search_module, "_refute", lambda *args: ())


def test_every_expression_constructor_has_a_row():
    constructors = set(typing.get_args(ConceptExpr)) | set(typing.get_args(RoleExpr))
    assert set(_CLOSURE_RULES) == constructors


def test_the_derivation_takes_no_part_in_equality():
    steps = (Step(None, None, None),)
    assert NoModelUpTo(3, steps) == NoModelUpTo(3) and hash(NoModelUpTo(3, steps)) == hash(NoModelUpTo(3))
    assert NoCounterexampleUpTo(3, steps) == NoCounterexampleUpTo(3)
    assert repr(NoModelUpTo(3, steps)) == "NoModelUpTo(bound=3)"


def random_ontology(rng, terms):
    return Ontology([random_axiom(rng, terms, rng.randint(0, 2)) for _ in range(rng.randint(1, 4))])


class TestNoRefutationWhereAModelExists:
    """Random ontologies over every constructor, and the `generate_corpus`
    statements with their NdTerms rewrites."""

    def test_against_brute_force(self):
        # One term: every interpretation up to size 2 is enumerated.
        rng = random.Random(71)
        refuted = 0
        for _ in range(1500):
            onto = random_ontology(rng, term_pool(1))
            if _refute(onto.axioms):
                refuted += 1
                assert not brute_force_has_model(onto, 2), onto.axioms
        assert refuted > 200, refuted

    def test_entailment_against_brute_force(self):
        # A conclusion axiom the closure refutes fails in no model of the
        # premise up to size 2.
        rng = random.Random(73)
        refuted = 0
        for _ in range(1500):
            premise = random_ontology(rng, term_pool(1))
            target = random_axiom(rng, term_pool(1), rng.randint(0, 2))
            if _refute(premise.axioms, target):
                refuted += 1
                whole = Ontology([*premise.axioms, target])
                for size in (1, 2):
                    for interp in all_interpretations(whole.signature, collect_ctx_ids(whole), size):
                        assert not (is_model(interp, premise) and not satisfies(interp, target)), \
                            (premise.axioms, target)
        assert refuted > 600, refuted

    def test_against_the_search_up_to_size_3(self, monkeypatch):
        # Up to three terms: the search alone, which the brute-force tests
        # pin, finds no model or countermodel up to size 3.
        search_alone(monkeypatch)
        rng = random.Random(83)
        refuted = 0
        for _ in range(1500):
            terms = term_pool(rng.randint(1, 3))
            premise, target = random_ontology(rng, terms), random_axiom(rng, terms, rng.randint(0, 2))
            for derivation, search in ((_refute(premise.axioms), lambda: find_model(premise, 3, budget=3000)),
                                       (_refute(premise.axioms, target), lambda: check_entailment(
                                           premise, Ontology([target]), 3, budget=3000))):
                if derivation:
                    refuted += 1
                    try:
                        verdict = search()
                    except BoundTooLargeError:
                        continue
                    assert isinstance(verdict, (NoModelUpTo, NoCounterexampleUpTo)), (premise.axioms, target)
        assert refuted > 700, refuted

    def test_statements_and_their_ndterms_rewrites(self, monkeypatch):
        search_alone(monkeypatch)
        refuted = 0
        for seed in (0, 1, 2):
            for onto, ca in generate_corpus(seed, 200, max_terms=4, max_axioms=5):
                for candidate in (onto, ndterms(onto, ca)):
                    if _refute(candidate.axioms):
                        refuted += 1
                        try:
                            verdict = find_model(candidate, 3, budget=20_000)
                        except BoundTooLargeError:
                            continue
                        assert verdict == NoModelUpTo(3), candidate.axioms
        assert refuted > 150, refuted


def element(key, interp, fresh):
    return fresh[key] if isinstance(key, int) else interp.individual(key)


def fact_holds(step, interp, fresh):
    """Whether `step`'s fact holds in `interp`, with the fresh elements
    bound as in `fresh`; None where a fresh element is unbound."""
    keys = step.key if isinstance(step.key, tuple) else (step.key,)
    if any(isinstance(k, int) and k not in fresh for k in keys):
        return None
    if isinstance(step.key, tuple):
        value = (element(step.key[0], interp, fresh), element(step.key[1], interp, fresh))
        inside = value in eval_role(step.expr, interp)
    else:
        inside = element(step.key, interp, fresh) in eval_concept(step.expr, interp)
    return inside is step.member


def fresh_binding(derivation, interp):
    """The fresh elements of the conclusion axiom a derivation assumes to
    fail, bound to its least counterexample in `interp`; {} where the axiom
    holds there."""
    for step in derivation:
        if step.negated and isinstance(step.axiom, (ConceptSub, RoleSub)):
            if satisfies(interp, step.axiom):
                return {}
            if isinstance(step.axiom, ConceptSub):
                left, right = eval_concept(step.axiom.left, interp), eval_concept(step.axiom.right, interp)
                return {0: min(left - right)}
            left, right = eval_role(step.axiom.left, interp), eval_role(step.axiom.right, interp)
            return dict(enumerate(min(left - right)))
    return {}


def replay(derivation, interp):
    """Check each step of `derivation` in `interp`: where its premises hold
    and its axiom holds (or, where negated, fails), its fact holds. Returns
    the number of steps whose premises held."""
    fresh = fresh_binding(derivation, interp)
    checked = 0
    holds = []
    for step in derivation:
        if step.member is None:  # the clash: its two premises contradict
            i, j = step.premises
            a, b = derivation[i], derivation[j]
            assert (a.expr, a.key, a.member, b.expr, b.key, b.member) == (step.expr, step.key, True,
                                                                          step.expr, step.key, False)
            assert not (holds[i] and holds[j])
            holds.append(False)
            continue
        premised = all(holds[p] for p in step.premises)
        if step.axiom is not None:
            premised = premised and satisfies(interp, step.axiom) is not step.negated
        truth = fact_holds(step, interp, fresh)
        if premised and truth is not None:
            checked += 1
            assert truth, (step, derivation)
        holds.append(bool(truth))
    return checked


class TestDerivationsReplay:
    """Every derivation the closure finds on the `witness` corpus, for each
    statement and for each statement less one axiom that is then assumed to
    fail, replays step by step through `semantics` on random
    interpretations of its signature."""

    def derivations(self):
        for onto, _ in generate_corpus(**WITNESS_CORPUS):
            if derivation := _refute(onto.axioms):
                yield onto, derivation
            *rest, last = onto.axioms
            if rest and (derivation := _refute(rest, last)):
                yield onto, derivation

    def test_steps_follow_from_their_premises(self):
        rng = random.Random(79)
        derivations = list(self.derivations())
        checked = 0
        for onto, derivation in derivations:
            assert derivation[-1].member is None
            for index, step in enumerate(derivation):
                assert all(p < index for p in step.premises)
            terms = sorted(onto.signature, key=Term.sort_key)
            ids = sorted(collect_ctx_ids(onto)) or ["CX"]
            for size in (1, 2, 3):
                for _ in range(100):
                    checked += replay(derivation, random_interpretation(rng, terms, size, ids))
        assert len(derivations) > 80 and checked > 30_000, (len(derivations), checked)

    def test_the_verdicts_carry_the_derivations(self):
        carried = 0
        for onto, _ in generate_corpus(**WITNESS_CORPUS):
            if derivation := _refute(onto.axioms):
                assert find_model(onto, 2, budget=10_000).derivation == derivation
                carried += 1
            *rest, last = onto.axioms
            if rest and last not in rest and (derivation := _refute(rest, last)):
                assert check_entailment(Ontology(rest), Ontology([last]), 2, budget=0).derivation == derivation
                carried += 1
        assert carried > 80, carried

    def test_a_satisfiable_call_is_not_refuted(self):
        for onto, _ in generate_corpus(**WITNESS_CORPUS):
            verdict = find_model(onto, 3, budget=200_000)
            if isinstance(verdict, SatisfiableAt):
                assert not _refute(onto.axioms), onto.axioms


def test_entailment_numbers_each_target_after_the_last():
    # Two conclusion axioms, each refuted before a first candidate: the
    # second derivation is numbered after the first one's clash.
    a, b = Term.nc("a"), Term.nc("b")
    c, d, e, f = (ConceptAtom(Term.nc(name)) for name in "CDEF")
    premise = Ontology([ConceptSub(c, d), ConceptAssert(c, a), ConceptSub(e, f), ConceptAssert(e, b)])
    verdict = check_entailment(premise, Ontology([ConceptAssert(d, a), ConceptAssert(f, b)]), 3, budget=0)
    assert verdict == NoCounterexampleUpTo(3)
    clashes = [i for i, step in enumerate(verdict.derivation) if step.member is None]
    assert len(clashes) == 2
    second = verdict.derivation[clashes[0] + 1:]
    assert all(clashes[0] < p for step in second for p in step.premises)
    assert {step.axiom for step in second if step.negated} == {ConceptAssert(f, b)}


class TestNoSuccessorInBottom:
    """No element has a successor in ⊥, so `atmost(k, R, bottom)` is ⊤ for
    every k, and `atleast(k, R, bottom)` is ⊥ for every k ≥ 1."""

    def replayed(self, onto, derivation, seed, rounds):
        rng = random.Random(seed)
        terms = sorted(onto.signature, key=Term.sort_key)
        return sum(replay(derivation, random_interpretation(rng, terms, size, ["CX"]))
                   for size in (1, 2, 3) for _ in range(rounds))

    def test_statement_189_is_refuted_with_a_derivation_that_replays(self):
        # `atmost(1, t0, bottom) sub bottom` holds in no interpretation; its
        # statement's NdTerms rewrite ran out of 200000 candidates at bound 5
        # before the closure saw it.
        onto, ca = generate_corpus(1, 200, max_terms=4, max_axioms=5)[189]
        at_most = AtMost(1, RoleAtom(Term.nc("t0")), Bottom())
        assert ConceptSub(at_most, Bottom()) in onto.axioms
        derivation = _refute(onto.axioms)
        assert derivation and derivation[-1].expr == at_most
        assert find_model(onto, 3, budget=10_000).derivation == derivation
        assert find_model(ndterms(onto, ca), 5, budget=200_000) == NoModelUpTo(5)
        assert self.replayed(onto, derivation, 89, 100) > 300

    @pytest.mark.parametrize("text, clash", [
        ("atmost(3, t0, bottom) sub bottom . t1(t2) .", AtMost(3, RoleAtom(Term.nc("t0")), Bottom())),
        ("atleast(2, inv(t0), bottom)(t1) .", AtLeast(2, Inverse(RoleAtom(Term.nc("t0"))), Bottom())),
    ])
    def test_every_bound(self, text, clash):
        (onto,) = parse(f"ontology o {{ {text} }}").ontologies()
        derivation = _refute(onto.axioms)
        assert derivation and derivation[-1].expr == clash
        assert self.replayed(onto, derivation, 97, 50) > 100
