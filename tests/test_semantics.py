import random
from collections.abc import Mapping

import pytest
from hypothesis import given, settings, strategies as st

from ctxdl.core import (
    Bottom,
    Closure,
    Compose,
    ConceptAssert,
    ConceptAtom,
    ConceptIntersection,
    ConceptNeg,
    ConceptSub,
    ConceptUnion,
    Exists,
    Forall,
    Inverse,
    Ontology,
    RoleAssert,
    RoleAtom,
    Term,
    Top,
    TopCtx,
)
from ctxdl.search import check_entailment, find_model
from ctxdl.semantics import (
    BoundTooLargeError,
    Interpretation,
    NoCounterexampleUpTo,
    NoModelUpTo,
    NotEntailed,
    SatisfiableAt,
    UnmappedTermError,
    eval_concept,
    eval_role,
    is_model,
    satisfies,
)

from generators import random_concept, random_interpretation, random_role, term_pool
from oracles import direct_concept, direct_role

C = Term.nc("C")
D = Term.nc("D")
R = Term.nc("R")
S = Term.nc("S")
a = Term.nc("a")
b = Term.nc("b")


def interp(size=2, indiv=None, conc=None, role=None, top_ctx=None):
    return Interpretation(size, indiv or {}, conc or {}, role or {}, top_ctx or {})


class TestInterpretationInvariants:
    def test_domain_must_be_nonempty(self):
        with pytest.raises(ValueError):
            Interpretation(0)

    def test_denotations_must_stay_inside_domain(self):
        with pytest.raises(ValueError):
            Interpretation(1, indiv={a: 3})
        with pytest.raises(ValueError):
            Interpretation(1, conc={C: frozenset({2})})
        with pytest.raises(ValueError):
            Interpretation(2, role={R: frozenset({(0, 5)})})
        with pytest.raises(ValueError):
            Interpretation(2, top_ctx={"k": frozenset({9})})

    @pytest.mark.parametrize("size", [2, 3, 40])
    @pytest.mark.parametrize("table, message", [
        ("indiv", "individual a maps outside the domain: {size}"),
        ("conc", "concept C maps outside the domain"),
        ("role", "role R maps outside the domain"),
        ("top_ctx", "context top k maps outside the domain"),
    ])
    def test_each_table_reports_its_out_of_domain_value(self, size, table, message):
        # A valid denotation shared by another term comes first, so the
        # failing one is tested although an equal-looking one passed.
        empty = frozenset()
        valid = {"indiv": {b: 0}, "conc": {D: empty}, "role": {S: empty}, "top_ctx": {"j": empty}}
        out = {"indiv": {a: size}, "conc": {C: frozenset({0, size})},
               "role": {R: frozenset({(0, 0), (0, size)})}, "top_ctx": {"k": frozenset({size})}}
        tables = {name: dict(valid[name]) for name in valid}
        tables[table].update(out[table])
        with pytest.raises(ValueError, match=f"^{message.format(size=size)}$"):
            Interpretation(size, **tables)

    def test_denotations_built_as_they_are_read_are_each_tested(self):
        # Each read builds a new set and drops the last one, so a later set
        # may take the address, and the id, of one already found inside.
        class Fresh(Mapping):
            def __init__(self, members):
                self.members = members

            def __getitem__(self, t):
                return frozenset(self.members[t])

            def __iter__(self):
                return iter(self.members)

            def __len__(self):
                return len(self.members)

        members = {Term.nc(f"K{i}"): [i % 2] for i in range(6)}
        members[C] = [5]
        with pytest.raises(ValueError, match="concept C maps outside the domain"):
            Interpretation(2, conc=Fresh(members))

    def test_one_set_denoting_a_role_and_a_context_top_is_tested_as_each(self):
        # Roles are tested before context tops, and a set of pairs found
        # inside as a role is still tested as a set of elements.
        pairs = frozenset({(0, 1)})
        with pytest.raises(ValueError, match="context top k maps outside the domain"):
            Interpretation(2, role={R: pairs}, top_ctx={"k": pairs})
        # A set of elements found inside as a concept is no set of pairs.
        members = frozenset({0})
        with pytest.raises((TypeError, ValueError)):
            Interpretation(2, conc={C: members}, role={R: members})

    def test_domain_extension_keeps_denotations(self):
        i = Interpretation(1, {a: 0}, {C: frozenset({0})}, {}, {})
        bigger = i.with_domain(3)
        assert bigger.size == 3
        assert bigger.conc[C] == {0}


class TestEvalConcept:
    def test_top_is_whole_domain(self):
        assert eval_concept(Top(), interp(2)) == {0, 1}

    def test_intersection_with_complement_is_empty(self):
        i = interp(3, conc={C: frozenset({0, 2})})
        expr = ConceptIntersection(ConceptAtom(C), ConceptNeg(ConceptAtom(C)))
        assert eval_concept(expr, i) == frozenset()

    def test_exists_picks_sources(self):
        i = interp(3, role={R: frozenset({(0, 1)})})
        assert eval_concept(Exists(RoleAtom(R), Top()), i) == {0}

    def test_topctx_reads_context_map(self):
        i = interp(2, top_ctx={"c1": frozenset({1})})
        assert eval_concept(TopCtx("c1"), i) == {1}

    def test_unmapped_term_raises(self):
        with pytest.raises(UnmappedTermError):
            eval_concept(ConceptAtom(C), interp(1))
        with pytest.raises(UnmappedTermError):
            eval_concept(TopCtx("missing"), interp(1))


class TestEvalRole:
    def test_inverse(self):
        i = interp(2, role={R: frozenset({(0, 1)})})
        assert eval_role(Inverse(RoleAtom(R)), i) == {(1, 0)}

    def test_compose(self):
        i = interp(3, role={R: frozenset({(0, 1)}), S: frozenset({(1, 2)})})
        assert eval_role(Compose(RoleAtom(R), RoleAtom(S)), i) == {(0, 2)}

    def test_closure_is_reflexive_transitive(self):
        # hand-computed: {(0,1)} closed reflexively and transitively over {0,1}
        i = interp(2, role={R: frozenset({(0, 1)})})
        assert eval_role(Closure(RoleAtom(R)), i) == {(0, 0), (1, 1), (0, 1)}

    def test_closure_fixpoint_matches_iterated_compose(self):
        rng = random.Random(11)
        terms = term_pool(2)
        for _ in range(50):
            i = random_interpretation(rng, terms, rng.randint(1, 3))
            rel = eval_role(RoleAtom(terms[0]), i)
            closed = eval_role(Closure(RoleAtom(terms[0])), i)
            # oracle: union of identity and all |domain| compositions
            expected = {(x, x) for x in range(i.size)}
            step = {(x, x) for x in range(i.size)}
            for _ in range(i.size + 1):
                step = {(x, y) for (x, z) in step for (z2, y) in rel if z2 == z}
                expected |= step
            assert closed == frozenset(expected)


class TestSatisfies:
    def test_concept_subsumption(self):
        i = interp(2, conc={C: frozenset({0}), D: frozenset({0, 1})})
        assert satisfies(i, ConceptSub(ConceptAtom(C), ConceptAtom(D)))
        assert not satisfies(i, ConceptSub(ConceptAtom(D), ConceptAtom(C)))

    def test_concept_assertion_failure(self):
        i = interp(2, indiv={a: 0}, conc={C: frozenset()})
        assert not satisfies(i, ConceptAssert(ConceptAtom(C), a))

    def test_role_assertion(self):
        i = interp(2, indiv={a: 0, b: 1}, role={R: frozenset({(0, 1)})})
        assert satisfies(i, RoleAssert(RoleAtom(R), a, b))
        assert not satisfies(i, RoleAssert(RoleAtom(R), b, a))


class TestIsModel:
    def test_empty_ontology_vacuous(self):
        assert is_model(interp(1), Ontology())

    def test_single_assertion(self):
        i = interp(1, indiv={a: 0}, conc={C: frozenset({0})})
        assert is_model(i, Ontology([ConceptAssert(ConceptAtom(C), a)]))

    def test_contradiction_never_modelled(self):
        onto = Ontology([ConceptSub(ConceptAtom(C), Bottom()), ConceptAssert(ConceptAtom(C), a)])
        i = interp(2, indiv={a: 0}, conc={C: frozenset({0})})
        assert not is_model(i, onto)


class TestFindModel:
    def test_single_fact_has_one_element_model(self):
        onto = Ontology([ConceptAssert(ConceptAtom(Term.nc("City")), Term.nc("babylon"))])
        verdict = find_model(onto, 2)
        assert isinstance(verdict, SatisfiableAt)
        assert verdict.size == 1
        assert is_model(verdict.model, onto)

    def test_unsatisfiable_at_every_size(self):
        onto = Ontology([ConceptSub(ConceptAtom(C), Bottom()), ConceptAssert(ConceptAtom(C), a)])
        assert find_model(onto, 3) == NoModelUpTo(3)

    def test_irreflexivity_contradiction(self, irreflexivity_ontology):
        assert find_model(irreflexivity_ontology, 3) == NoModelUpTo(3)

    def test_deterministic_witness(self):
        onto = Ontology(
            [
                ConceptAssert(ConceptAtom(C), a),
                RoleAssert(RoleAtom(R), a, b),
                ConceptSub(ConceptAtom(C), ConceptAtom(D)),
            ]
        )
        first = find_model(onto, 3)
        second = find_model(onto, 3)
        assert first.model == second.model

    def test_monotone_bound(self):
        onto = Ontology([ConceptSub(ConceptAtom(C), Bottom()), ConceptAssert(ConceptAtom(C), a)])
        for bound in (1, 2, 3):
            assert find_model(onto, bound) == NoModelUpTo(bound)

    def test_budget_exhaustion_raises(self):
        rng = random.Random(0)
        terms = term_pool(3)
        axioms = [
            ConceptSub(
                Exists(RoleAtom(terms[i]), ConceptAtom(terms[(i + 1) % 3])),
                Forall(RoleAtom(terms[(i + 2) % 3]), ConceptNeg(ConceptAtom(terms[i]))),
            )
            for i in range(3)
        ]
        with pytest.raises(BoundTooLargeError):
            find_model(Ontology(axioms), 3, budget=5)


class TestCheckEntailment:
    def test_role_subsumption_propagates(self, example7_pair):
        premise, conclusion = example7_pair
        assert check_entailment(premise, conclusion, 3) == NoCounterexampleUpTo(3)

    def test_everything_entails_itself(self, example7_pair):
        premise, _ = example7_pair
        assert check_entailment(premise, premise, 3) == NoCounterexampleUpTo(3)

    def test_subset_conclusions_never_refuted(self):
        rng = random.Random(3)
        from generators import random_axiom

        for _ in range(30):
            terms = term_pool(3)
            axioms = [random_axiom(rng, terms, 1) for _ in range(3)]
            o1 = Ontology(axioms)
            o2 = Ontology(axioms[:2])
            assert check_entailment(o1, o2, 2) == NoCounterexampleUpTo(2)

    def test_countermodel_is_replayable(self):
        o1 = Ontology([ConceptAssert(ConceptAtom(C), a)])
        o2 = Ontology([ConceptAssert(ConceptAtom(D), a)])
        verdict = check_entailment(o1, o2, 3)
        assert isinstance(verdict, NotEntailed)
        assert is_model(verdict.countermodel, o1)
        assert not is_model(verdict.countermodel, o2)


class TestOracleAgreement:
    """The evaluator against an independently written comprehension oracle."""

    def test_random_concepts_and_roles(self):
        rng = random.Random(20250810)
        terms = term_pool(3)
        for _ in range(300):
            size = rng.randint(1, 3)
            i = random_interpretation(rng, terms, size)
            c = random_concept(rng, terms, rng.randint(0, 3))
            r = random_role(rng, terms, rng.randint(0, 3))
            assert eval_concept(c, i) == frozenset(direct_concept(c, i))
            assert eval_role(r, i) == frozenset(direct_role(r, i))

    @given(st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_de_morgan_at_evaluation_level(self, seed):
        rng = random.Random(seed)
        terms = term_pool(2)
        i = random_interpretation(rng, terms, rng.randint(1, 3))
        c = random_concept(rng, terms, 1)
        d = random_concept(rng, terms, 1)
        left = eval_concept(ConceptNeg(ConceptUnion(c, d)), i)
        right = eval_concept(ConceptIntersection(ConceptNeg(c), ConceptNeg(d)), i)
        assert left == right

    @given(st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_results_stay_within_domain(self, seed):
        rng = random.Random(seed)
        terms = term_pool(2)
        i = random_interpretation(rng, terms, rng.randint(1, 3))
        c = random_concept(rng, terms, rng.randint(0, 2))
        r = random_role(rng, terms, rng.randint(0, 2))
        assert eval_concept(c, i) <= i.domain
        assert eval_role(r, i) <= {(x, y) for x in i.domain for y in i.domain}
