import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from ctxdl.annotation import (
    AnnotationError,
    DisconnectedError,
    NotAnABoxError,
    connected_individuals,
    validate_annotation,
)
from ctxdl.core import (
    ConceptAssert,
    ConceptAtom,
    ConceptNeg,
    ConceptSub,
    Ontology,
    RoleAssert,
    RoleAtom,
    Top,
)
from ctxdl.search import find_model
from ctxdl.semantics import SatisfiableAt, is_model
from ctxdl.textio import serialize
from ctxdl.verify import generate_corpus

from conftest import cassert, nc, rassert


@pytest.fixture
def chain_abox():
    # two components: {a, b, c} and {d, e}
    return [
        rassert("P", "a", "b"),
        rassert("Q", "c", "b"),
        rassert("S", "d", "e"),
    ]


class TestConnectedIndividuals:
    def test_connected_pairs(self, chain_abox):
        for x, y in [("a", "b"), ("b", "c"), ("a", "c"), ("d", "e")]:
            assert connected_individuals(chain_abox, nc(x), nc(y))
            assert connected_individuals(chain_abox, nc(y), nc(x))

    def test_disconnected_pairs(self, chain_abox):
        for x, y in [("a", "d"), ("b", "d"), ("c", "d"), ("a", "e"), ("b", "e"), ("c", "e")]:
            assert not connected_individuals(chain_abox, nc(x), nc(y))

    def test_reflexive_on_occurring_individuals(self, chain_abox):
        assert connected_individuals(chain_abox, nc("a"), nc("a"))

    def test_false_for_absent_individuals(self, chain_abox):
        assert not connected_individuals(chain_abox, nc("z"), nc("z"))
        assert not connected_individuals(chain_abox, nc("a"), nc("z"))

    def test_concept_assert_subjects_occur_without_edges(self):
        abox = [cassert("C", "a"), cassert("D", "b")]
        assert connected_individuals(abox, nc("a"), nc("a"))
        assert not connected_individuals(abox, nc("a"), nc("b"))

    @given(st.integers(0, 2**32))
    @settings(max_examples=80, deadline=None)
    def test_equivalence_relation_on_random_aboxes(self, seed):
        rng = random.Random(seed)
        names = [nc(f"x{i}") for i in range(5)]
        abox = [
            RoleAssert(RoleAtom(nc(f"r{i}")), rng.choice(names), rng.choice(names))
            for i in range(rng.randint(1, 5))
        ]
        occurring = {ax.subject for ax in abox} | {ax.object for ax in abox}
        for x in occurring:
            assert connected_individuals(abox, x, x)
        for x, y in itertools.permutations(occurring, 2):
            assert connected_individuals(abox, x, y) == connected_individuals(abox, y, x)
        for x, y, z in itertools.permutations(occurring, 3):
            if connected_individuals(abox, x, y) and connected_individuals(abox, y, z):
                assert connected_individuals(abox, x, z)


class TestValidateAnnotation:
    def test_running_example_is_valid(self, babylon_annotation):
        expected_sigma = {
            "t", "Interval", "w", "wikipedia", "Wiki", "609BC", "539BC",
            "validity", "from", "to", "prov", "name",
        }
        assert {t.name for t in babylon_annotation.sigma} == expected_sigma
        assert babylon_annotation.anchor == nc("a")
        assert babylon_annotation.anchor not in babylon_annotation.sigma

    def test_single_concept_assertion(self):
        ca = validate_annotation(nc("a"), [cassert("C", "a")])
        assert {t.name for t in ca.sigma} == {"C"}

    def test_disconnected_component_rejected(self):
        abox = [rassert("validity", "a", "t"), rassert("name", "w", "wikipedia")]
        with pytest.raises(DisconnectedError) as exc:
            validate_annotation(nc("a"), abox)
        assert {t.name for t in exc.value.terms} >= {"w", "wikipedia"}

    def test_inclusion_axiom_rejected(self):
        with pytest.raises(NotAnABoxError):
            validate_annotation(nc("a"), [ConceptSub(ConceptAtom(nc("C")), Top())])

    def test_complex_assertion_needs_extended_flag(self):
        abox = [ConceptAssert(ConceptNeg(ConceptAtom(nc("C"))), nc("a"))]
        with pytest.raises(NotAnABoxError):
            validate_annotation(nc("a"), abox)

    def test_anchor_absent_from_nonempty_abox_rejected(self):
        with pytest.raises(DisconnectedError):
            validate_annotation(nc("missing"), [cassert("C", "a")])

    def test_empty_abox_is_trivially_valid(self):
        ca = validate_annotation(nc("a"), [])
        assert ca.sigma == frozenset()

    def test_context_id_derivation_is_stable(self):
        abox = [cassert("C", "a")]
        first = validate_annotation(nc("a"), abox)
        second = validate_annotation(nc("a"), list(abox))
        assert first.ctx_id == second.ctx_id
        other = validate_annotation(nc("a"), [cassert("D", "a")])
        assert other.ctx_id != first.ctx_id

    def test_ontology_view_is_built_once_outside_the_value(self, babylon_annotation):
        before = repr(babylon_annotation), hash(babylon_annotation)
        view = babylon_annotation.as_ontology()
        assert babylon_annotation.as_ontology() is view
        assert view == Ontology(babylon_annotation.abox, babylon_annotation.signature())
        assert (repr(babylon_annotation), hash(babylon_annotation)) == before
        ca = babylon_annotation
        twin = validate_annotation(ca.anchor, ca.abox, ctx_id=ca.ctx_id)
        assert twin == babylon_annotation and hash(twin) == hash(babylon_annotation)
        assert twin.as_ontology() == view

    def test_context_id_override(self):
        ca = validate_annotation(nc("a"), [cassert("C", "a")], ctx_id="mine")
        assert ca.ctx_id == "mine"

    @pytest.mark.parametrize("ctx_id", ["", "my ctx", " ", "a\tb", "x\n"])
    def test_context_id_without_a_term_name_shape_rejected(self, ctx_id):
        with pytest.raises(AnnotationError, match="context id"):
            validate_annotation(nc("a"), [cassert("C", "a")], ctx_id=ctx_id)

    def test_validity_iff_all_individuals_reach_anchor(self):
        rng = random.Random(9)
        names = [nc(f"y{i}") for i in range(4)]
        for _ in range(60):
            anchor = rng.choice(names)
            abox = [
                RoleAssert(RoleAtom(nc(f"e{i}")), rng.choice(names), rng.choice(names))
                for i in range(rng.randint(1, 4))
            ]
            occurring = {ax.subject for ax in abox} | {ax.object for ax in abox}
            expected = all(connected_individuals(abox, anchor, x) for x in occurring)
            try:
                validate_annotation(anchor, abox)
                assert expected
            except DisconnectedError:
                assert not expected


def punned_annotations():
    """Annotations where one name is an individual, a role and a concept."""
    yield validate_annotation(nc("p"), [rassert("p", "p", "p"), cassert("p", "p")])
    yield validate_annotation(nc("a"), [rassert("p", "a", "p"), cassert("p", "p"), cassert("a", "p")])
    yield validate_annotation(nc("a"), [rassert("b", "a", "b"), rassert("a", "b", "a"), cassert("b", "a")])


class TestLeastModel:
    """The least model of an annotation is the model the search finds for it."""

    def test_equals_the_first_model_the_search_finds(self, babylon_annotation):
        annotations = [babylon_annotation, validate_annotation(nc("a"), []), *punned_annotations()]
        for seed in range(10):
            annotations += [ca for _, ca in generate_corpus(seed, 200, 4, 5)]
        assert len(annotations) >= 2000
        for ca in annotations:
            model = ca.least_model()
            assert model.size == 1
            assert is_model(model, ca.as_ontology())
            text = serialize(model)
            for bound in range(1, 5):
                verdict = find_model(ca.as_ontology(), bound)
                assert isinstance(verdict, SatisfiableAt) and verdict.size == model.size
                assert serialize(verdict.model) == text
                assert verdict.model == model

    def test_punned_names_keep_each_denotation(self):
        ca = next(punned_annotations())
        model = ca.least_model()
        assert (model.indiv, model.conc, model.role, model.top_ctx) == (
            {nc("p"): 0}, {nc("p"): frozenset({0})}, {nc("p"): frozenset({(0, 0)})}, {})

    def test_built_once_outside_the_value(self, babylon_annotation):
        ca = babylon_annotation
        twin = validate_annotation(ca.anchor, ca.abox, ctx_id=ca.ctx_id)
        before = repr(ca), hash(ca)
        model = ca.least_model()
        assert ca.least_model() is model
        assert (repr(ca), hash(ca)) == before == (repr(twin), hash(twin))
        assert ca == twin and "_least_model" not in vars(twin)
        assert "_least_model" not in {f.name for f in dataclasses.fields(ca)}
        assert twin.least_model() == model and twin.least_model() is not model
