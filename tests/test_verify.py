import contextlib
import gc
import typing
import warnings

import pytest

from ctxdl import search, verify
from ctxdl.annotation import AnnotatedOntology, ContextualAnnotation, validate_annotation
from ctxdl.core import (
    AtMost,
    Axiom,
    Bottom,
    ConceptNeg,
    ConceptSub,
    Forall,
    Nominals,
    Ontology,
    Top,
)
from ctxdl.semantics import (
    BoundTooLargeError,
    NoCounterexampleUpTo,
    NoModelUpTo,
    NotEntailed,
    SatisfiableAt,
    is_model,
)
from ctxdl.strategies import Strategy, contextualize
from ctxdl.verify import (
    Outcome,
    PremiseNotEntailedError,
    ProbeResult,
    Property,
    check_entailment_preservation,
    check_inconsistency_preservation,
    check_soundness,
    curated_entailment_pairs,
    curated_inconsistent_ontologies,
    generate_corpus,
    probe_domain_extensibility,
)

from conftest import cassert, catom, nc, rassert, ratom

AXIOM_FORMS = typing.get_args(Axiom)

REIFICATION = (
    Strategy.RDF_REIFICATION,
    Strategy.NARY_TWO_ROLE,
    Strategy.NARY_CONCEPT_ANCHORED,
    Strategy.SINGLETON_PROPERTY,
)


class TestSoundness:
    def test_ndterms_on_running_example(self, babylon_annotation):
        onto = Ontology([rassert("capital", "babylon", "babylonianEmpire")])
        report = check_soundness(Strategy.ND_TERMS, onto, babylon_annotation, 3)
        assert report.outcome is Outcome.HOLDS
        assert report.property is Property.SOUNDNESS
        assert isinstance(report.conclusion_verdict, SatisfiableAt)

    def test_inconsistent_premise_is_vacuous(self, small_annotation):
        onto = Ontology([ConceptSub(catom("C"), Bottom()), cassert("C", "a")])
        for strategy in Strategy:
            report = check_soundness(strategy, onto, small_annotation, 3)
            assert report.outcome is Outcome.INCONCLUSIVE_AT_BOUND
            assert report.conclusion_verdict is None

    def test_rdf_reification_on_disjoint_vocabulary(self, babylon_annotation):
        onto = Ontology([rassert("capital", "babylon", "babylonianEmpire")])
        report = check_soundness(Strategy.RDF_REIFICATION, onto, babylon_annotation, 3)
        assert report.outcome is Outcome.HOLDS

    def test_generated_corpus_never_violated(self):
        corpus = generate_corpus(seed=20250810, count=40, max_terms=4, max_axioms=4)
        for onto, ca in corpus:
            report = check_soundness(Strategy.ND_TERMS, onto, ca, 3)
            assert report.outcome is not Outcome.VIOLATED, onto.axioms


class TestInconsistencyPreservation:
    def test_rdf_loses_irreflexivity_contradiction(self, irreflexivity_ontology, babylon_annotation):
        report = check_inconsistency_preservation(
            Strategy.RDF_REIFICATION, irreflexivity_ontology, babylon_annotation, 3
        )
        assert report.outcome is Outcome.VIOLATED
        witness = report.witness()
        assert witness is not None
        reified = contextualize(
            Strategy.RDF_REIFICATION, AnnotatedOntology(irreflexivity_ontology, babylon_annotation)
        )
        assert is_model(witness, reified)

    def test_ndterms_keeps_irreflexivity_contradiction(self, irreflexivity_ontology, babylon_annotation):
        report = check_inconsistency_preservation(
            Strategy.ND_TERMS, irreflexivity_ontology, babylon_annotation, 3
        )
        assert report.outcome is Outcome.HOLDS
        assert report.conclusion_verdict == NoModelUpTo(3)

    def test_consistent_premise_is_vacuous(self, small_annotation):
        report = check_inconsistency_preservation(
            Strategy.ND_TERMS, Ontology([cassert("C", "a")]), small_annotation, 3
        )
        assert report.outcome is Outcome.INCONCLUSIVE_AT_BOUND

    def test_curated_suite_outcomes(self, small_annotation):
        seeds = dict(curated_inconsistent_ontologies())
        for name, onto in seeds.items():
            report = check_inconsistency_preservation(Strategy.ND_TERMS, onto, small_annotation, 3)
            assert report.outcome is Outcome.HOLDS, name
        for strategy in REIFICATION:
            report = check_inconsistency_preservation(
                strategy, seeds["irreflexivity"], small_annotation, 3
            )
            assert report.outcome is Outcome.VIOLATED, strategy
        # NdFluents keeps role-level contradictions but loses nominal coupling
        report = check_inconsistency_preservation(
            Strategy.ND_FLUENTS, seeds["irreflexivity"], small_annotation, 3
        )
        assert report.outcome is Outcome.HOLDS
        report = check_inconsistency_preservation(
            Strategy.ND_FLUENTS, seeds["nominal-coupling"], small_annotation, 3
        )
        assert report.outcome is Outcome.VIOLATED


class TestEntailmentPreservation:
    def test_rdf_loses_role_assertion_entailment(self, example7_pair, babylon_annotation):
        premise, conclusion = example7_pair
        report = check_entailment_preservation(
            Strategy.RDF_REIFICATION, premise, conclusion, babylon_annotation, 3
        )
        assert report.outcome is Outcome.VIOLATED
        assert isinstance(report.conclusion_verdict, NotEntailed)

    def test_ndterms_preserves_role_assertion_entailment(self, example7_pair, babylon_annotation):
        premise, conclusion = example7_pair
        report = check_entailment_preservation(
            Strategy.ND_TERMS, premise, conclusion, babylon_annotation, 3
        )
        assert report.outcome is Outcome.HOLDS

    def test_identity_always_preserved(self, example7_pair, small_annotation):
        premise, _ = example7_pair
        for strategy in Strategy:
            report = check_entailment_preservation(strategy, premise, premise, small_annotation, 3)
            assert report.outcome is Outcome.HOLDS, strategy

    def test_premise_failure_raises(self, small_annotation):
        o1 = Ontology([cassert("C", "a")])
        o2 = Ontology([cassert("D", "a")])
        with pytest.raises(PremiseNotEntailedError):
            check_entailment_preservation(Strategy.ND_TERMS, o1, o2, small_annotation, 3)

    @pytest.mark.filterwarnings("ignore::ctxdl.strategies.NonAtomicAssertionWarning")
    def test_curated_suite_outcomes(self, small_annotation):
        for name, o1, o2 in curated_entailment_pairs():
            nd = check_entailment_preservation(Strategy.ND_TERMS, o1, o2, small_annotation, 3)
            assert nd.outcome is Outcome.HOLDS, name
        by_name = {name: (o1, o2) for name, o1, o2 in curated_entailment_pairs()}
        for name in ("subsumption-propagation", "role-chain"):
            o1, o2 = by_name[name]
            rdf = check_entailment_preservation(Strategy.RDF_REIFICATION, o1, o2, small_annotation, 3)
            assert rdf.outcome is Outcome.VIOLATED, name
        o1, o2 = by_name["pure-tbox"]
        rdf = check_entailment_preservation(Strategy.RDF_REIFICATION, o1, o2, small_annotation, 3)
        assert rdf.outcome is Outcome.HOLDS


class TestExtensibilityProbe:
    def test_atomic_assertions_are_extensible(self):
        probe = probe_domain_extensibility(Ontology([cassert("C", "a")]), 2)
        assert probe.result is ProbeResult.EXTENSIBLE_OBSERVED

    def test_domain_pinned_by_nominal_is_not(self):
        onto = Ontology([ConceptSub(Top(), Nominals((nc("a"),)))])
        probe = probe_domain_extensibility(onto, 1)
        assert probe.result is ProbeResult.COUNTEREXAMPLE_FOUND
        assert probe.model is not None

    def test_relativized_assertions_are_extensible(self):
        from ctxdl.relativize import relativize_ontology

        rel = relativize_ontology(Ontology([cassert("C", "a")]), "CA")
        probe = probe_domain_extensibility(rel, 2)
        assert probe.result is ProbeResult.EXTENSIBLE_OBSERVED

    def test_inconsistent_base_reported(self):
        onto = Ontology([ConceptSub(catom("C"), Bottom()), cassert("C", "a")])
        probe = probe_domain_extensibility(onto, 2)
        assert probe.result is ProbeResult.NO_MODEL_AT_BASE


class TestGenerateCorpus:
    def test_postconditions(self):
        corpus = generate_corpus(seed=1, count=10, max_terms=4, max_axioms=4)
        assert len(corpus) == 10
        for onto, ca in corpus:
            assert not (set(onto.signature) & ca.signature())
            revalidated = validate_annotation(ca.anchor, ca.abox, ctx_id=ca.ctx_id)
            assert revalidated == ca

    def test_determinism(self):
        first = generate_corpus(seed=1, count=10, max_terms=4, max_axioms=4)
        second = generate_corpus(seed=1, count=10, max_terms=4, max_axioms=4)
        assert first == second
        third = generate_corpus(seed=2, count=10, max_terms=4, max_axioms=4)
        assert first != third

    def test_feasibility_limits(self):
        with pytest.raises(ValueError):
            generate_corpus(seed=1, count=1, max_terms=6, max_axioms=4)
        with pytest.raises(ValueError):
            generate_corpus(seed=1, count=1, max_terms=4, max_axioms=7)


def described(verdict):
    """A verdict as plain data: its type, size, bound, derivation and model."""
    if verdict is None:
        return None
    model = getattr(verdict, "model", None) or getattr(verdict, "countermodel", None)
    return (type(verdict), getattr(verdict, "size", None), getattr(verdict, "bound", None),
            getattr(verdict, "derivation", None),
            None if model is None else (model.size, model.indiv, model.conc, model.role, model.top_ctx))


def checked(check):
    """What a checker call gives, as plain data: its report, or its error."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = check()
    except BoundTooLargeError as exc:
        return ("budget-out", exc.explored, exc.budget, str(exc))
    except PremiseNotEntailedError:
        return ("premise not entailed",)
    return (report.outcome, tuple(described(v) for v in report.premise_verdicts),
            described(report.conclusion_verdict))


@contextlib.contextmanager
def recorded_budgets(monkeypatch):
    """The budget of every search call made inside the block."""
    budgets = []

    class Recording(search._Budget):
        def __init__(self, limit):
            super().__init__(limit)
            budgets.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(search, "_Budget", Recording)
        yield budgets


def count_searches(monkeypatch, check):
    """The result of `check()` (see `checked`) and the search calls it made."""
    with recorded_budgets(monkeypatch) as budgets:
        return checked(check), len(budgets)


class TestPremiseMemo:
    """The checkers remember a premise search that found no model, and the
    reports are those of checkers that search every premise."""

    def property_checks(self, annotation):
        """The curated suites under every strategy at bounds 3 and 4, with
        the refute budget, and the first 50 statements of the `witness`
        corpus under every strategy, with its budget. The curated inputs are
        built afresh for each strategy, so the memo is found by content."""
        for bound in (3, 4):
            for strategy in Strategy:
                for _, onto in curated_inconsistent_ontologies():
                    yield lambda s=strategy, o=onto, b=bound: check_inconsistency_preservation(
                        s, o, annotation, b, budget=20_000)
                for _, premise, conclusion in curated_entailment_pairs():
                    yield lambda s=strategy, p=premise, c=conclusion, b=bound: check_entailment_preservation(
                        s, p, c, annotation, b, budget=20_000)
        statements = generate_corpus(seed=20250810, count=50, max_terms=5, max_axioms=6)
        annotations = generate_corpus(seed=1, count=50, max_terms=5, max_axioms=6)
        for (onto, _), (_, ca) in zip(statements, annotations):
            for strategy in Strategy:
                yield lambda s=strategy, o=onto, a=ca: check_soundness(s, o, a, 3, budget=1000)
                yield lambda s=strategy, o=onto, a=ca: check_inconsistency_preservation(s, o, a, 3, budget=1000)

    def test_reports_equal_those_without_the_memo(self, monkeypatch, babylon_annotation):
        checks = list(self.property_checks(babylon_annotation))
        verify._PREMISES.clear()
        remembered = [checked(check) for check in checks]
        assert len(verify._PREMISES) > 20
        # The reference searches the annotation too, at the bound and budget
        # of the soundness checks above, as the checker once did.
        monkeypatch.setattr(ContextualAnnotation, "least_model",
                            lambda ca: search.find_model(ca.as_ontology(), 3, budget=1000).model)
        searched = []
        for check in checks:
            verify._PREMISES.clear()
            searched.append(checked(check))
        assert remembered == searched
        outcomes = {result[0] for result in searched}
        assert {Outcome.HOLDS, Outcome.VIOLATED, Outcome.INCONCLUSIVE_AT_BOUND} <= outcomes
        derivations = [v[3] for result in searched if isinstance(result[0], Outcome) for v in result[1] if v and v[3]]
        assert len(derivations) > 100

    def test_no_memo_value_holds_a_model(self, babylon_annotation):
        checks = list(self.property_checks(babylon_annotation))  # keeps the premises alive
        verify._PREMISES.clear()
        for check in checks:
            checked(check)
        values = [value for entries in verify._PREMISES.values() for value in entries.values()]
        assert len(values) > 30
        assert {type(value) for value in values} <= {NoModelUpTo, NoCounterexampleUpTo, tuple}
        assert not any(isinstance(value, (SatisfiableAt, NotEntailed)) for value in values)

    def test_a_refuted_premise_is_not_searched_again(self, monkeypatch, irreflexivity_ontology,
                                                     babylon_annotation):
        verify._PREMISES.clear()
        first, searches = count_searches(monkeypatch, lambda: check_inconsistency_preservation(
            Strategy.ND_TERMS, irreflexivity_ontology, babylon_annotation, 3))
        assert searches == 2
        assert first[1][0][0] is NoModelUpTo and first[1][0][3]
        # An equal premise, not the same object: the memo keys by content.
        equal = Ontology(irreflexivity_ontology.axioms)
        assert equal is not irreflexivity_ontology
        again, searches = count_searches(monkeypatch, lambda: check_inconsistency_preservation(
            Strategy.RDF_REIFICATION, equal, babylon_annotation, 3))
        assert searches == 1
        assert again[1] == first[1]

    def test_an_entailed_premise_is_not_searched_again(self, monkeypatch, example7_pair, babylon_annotation):
        premise, conclusion = example7_pair
        verify._PREMISES.clear()
        first, searches = count_searches(monkeypatch, lambda: check_entailment_preservation(
            Strategy.ND_TERMS, premise, conclusion, babylon_annotation, 3))
        assert searches == 2
        assert first[1][0][0] is NoCounterexampleUpTo and first[1][0][3]
        again, searches = count_searches(monkeypatch, lambda: check_entailment_preservation(
            Strategy.ND_FLUENTS, Ontology(premise.axioms), Ontology(conclusion.axioms), babylon_annotation, 3))
        assert searches == 1
        assert again[1] == first[1]
        # Another conclusion is another key, though its one axiom to refute is the same.
        other = Ontology([rassert("capitalOf", "babylon", "babylonianEmpire"), *conclusion.axioms])
        _, searches = count_searches(monkeypatch, lambda: check_entailment_preservation(
            Strategy.ND_FLUENTS, premise, other, babylon_annotation, 3))
        assert searches == 2

    @pytest.mark.parametrize("property_check", ["inconsistency", "entailment"])
    def test_a_budget_out_is_raised_again_without_a_search(self, monkeypatch, property_check,
                                                           irreflexivity_ontology, babylon_annotation):
        if property_check == "inconsistency":
            def check():
                return check_inconsistency_preservation(
                    Strategy.ND_TERMS, irreflexivity_ontology, babylon_annotation, 3, budget=0)
        else:
            # A tautology the told-fact closure does not refute, so that the
            # premise search reaches a first candidate.
            premise = Ontology([cassert("C", "b")])
            conclusion = Ontology([ConceptSub(Forall(ratom("R"), ConceptNeg(catom("C"))),
                                              AtMost(0, ratom("R"), catom("C")))])

            def check():
                return check_entailment_preservation(
                    Strategy.ND_TERMS, premise, conclusion, babylon_annotation, 3, budget=0)
        verify._PREMISES.clear()
        raised = []
        for _ in range(2):
            with recorded_budgets(monkeypatch) as budgets, pytest.raises(BoundTooLargeError) as caught:
                check()
            raised.append((caught.value, len(budgets)))
        (first, searched), (again, searched_again) = raised
        assert (searched, searched_again) == (1, 0)
        assert again is not first
        assert (again.explored, again.budget, str(again)) == (first.explored, first.budget, str(first))
        assert (first.explored, first.budget) == (1, 0)

    def test_another_bound_or_budget_is_searched(self, monkeypatch, irreflexivity_ontology, babylon_annotation):
        verify._PREMISES.clear()

        def searches(bound, budget):
            return count_searches(monkeypatch, lambda: check_inconsistency_preservation(
                Strategy.ND_TERMS, irreflexivity_ontology, babylon_annotation, bound, budget=budget))[1]

        assert searches(3, None) == 2
        assert searches(3, None) == 1
        assert searches(4, None) == 2
        assert searches(3, 5000) == 2
        assert searches(4, None) == searches(3, 5000) == 1

    def test_a_lookup_does_not_rehash_the_premise(self, monkeypatch, irreflexivity_ontology):
        verify._PREMISES.clear()
        premise, equal = Ontology(irreflexivity_ontology.axioms), Ontology(irreflexivity_ontology.axioms)
        first = verify._premise_verdict(premise, None, 3, None)
        assert isinstance(first, NoModelUpTo)
        hashed = []
        for form in AXIOM_FORMS:
            monkeypatch.setattr(form, "__hash__", lambda axiom, h=form.__hash__: hashed.append(axiom) or h(axiom))
        assert verify._premise_verdict(premise, None, 3, None) is first
        assert hashed == []
        # An equal premise is found by value, hashing its axioms once.
        assert verify._premise_verdict(equal, None, 3, None) is first
        assert verify._premise_verdict(equal, None, 3, None) is first
        assert len(hashed) == len(premise.axioms)

    def test_a_consistent_premise_is_searched_each_time(self, monkeypatch, babylon_annotation):
        onto = Ontology([rassert("capital", "babylon", "babylonianEmpire")])
        verify._PREMISES.clear()
        for _ in range(2):
            result, searches = count_searches(monkeypatch, lambda: check_soundness(
                Strategy.ND_TERMS, onto, babylon_annotation, 3))
            # The statement and its rewrite; the annotation is not searched.
            assert searches == 2
            assert result[1][1] == described(search.find_model(babylon_annotation.as_ontology(), 3))
        assert len(verify._PREMISES) == 0

    def test_a_small_budget_is_spent_only_on_the_searches_made(self, monkeypatch):
        """At a budget of 3 candidates, most annotation searches would run
        out. `check_soundness` decides wherever the statement search and the
        rewrite's search fit, and a budget-out it raises is one of theirs."""
        bound, budget = 3, 3
        annotation_out_decided = raised = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for onto, ca in generate_corpus(seed=20250810, count=60, max_terms=5, max_axioms=6):
                try:
                    search.find_model(ca.as_ontology(), bound, budget=budget)
                    annotation_out = False
                except BoundTooLargeError:
                    annotation_out = True
                for strategy in Strategy:
                    verify._PREMISES.clear()
                    expected = []
                    try:
                        v_onto = search.find_model(onto, bound, budget=budget)
                        expected.append(("statement", v_onto))
                        if isinstance(v_onto, SatisfiableAt):
                            rewrite = contextualize(strategy, AnnotatedOntology(onto, ca))
                            expected.append(("rewrite", search.find_model(rewrite, bound + v_onto.size + 1,
                                                                          budget=budget)))
                    except BoundTooLargeError as exc:
                        expected.append(("budget-out", exc.explored, exc.budget, str(exc)))
                    with recorded_budgets(monkeypatch) as budgets:
                        result = checked(lambda: check_soundness(strategy, onto, ca, bound, budget=budget))
                    assert len(budgets) == len(expected)
                    if expected[-1][0] == "budget-out":
                        assert result == expected[-1]
                        raised += 1
                        continue
                    assert result[1] == (described(expected[0][1]), described(SatisfiableAt(ca.least_model(), 1)))
                    assert result[2] == (described(expected[1][1]) if len(expected) == 2 else None)
                    annotation_out_decided += annotation_out
        assert annotation_out_decided >= 60
        assert raised >= 200

    def test_an_entry_dies_with_its_premise(self, babylon_annotation):
        verify._PREMISES.clear()
        premise = Ontology([ConceptSub(catom("C"), Bottom()), cassert("C", "x")])
        report = check_inconsistency_preservation(Strategy.ND_TERMS, premise, babylon_annotation, 3)
        assert report.outcome is Outcome.HOLDS
        assert list(verify._PREMISES) == [premise]
        del premise
        gc.collect()
        assert len(verify._PREMISES) == 0
        assert isinstance(report.premise_verdicts[0], NoModelUpTo)

