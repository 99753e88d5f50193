import random
import typing

import pytest
from hypothesis import given, strategies as st

from ctxdl.core import (
    _CONSTRUCTORS,
    AtLeast,
    AtMost,
    Axiom,
    Bottom,
    ConceptAssert,
    ConceptAtom,
    ConceptExpr,
    ConceptSub,
    Exists,
    Inverse,
    Nominals,
    Ontology,
    RoleAssert,
    RoleAtom,
    RoleExpr,
    Term,
    TermKind,
    Top,
    TopCtx,
    children,
    map_children,
    own_terms,
    signature_of,
    stable_hash,
    walk,
)

from generators import random_axiom, random_concept, term_pool


def test_term_kinds_partition_and_equality():
    plain = Term.nc("babylon")
    assert plain.kind is TermKind.NON_CONTEXTUAL
    assert Term.ctx("babylon@CA").kind is TermKind.CONTEXTUAL
    assert Term.anchor("ctx@CA").kind is TermKind.ANCHOR
    assert plain == Term("babylon", TermKind.NON_CONTEXTUAL)
    assert plain != Term("babylon", TermKind.CONTEXTUAL)


@pytest.mark.parametrize("name", ["", "has space", "a\tb", "new\nline"])
def test_term_name_must_be_clean(name):
    with pytest.raises(ValueError):
        Term.nc(name)


def test_nominals_invariants():
    a, b = Term.nc("a"), Term.nc("b")
    assert Nominals((a, b)).members == (a, b)
    with pytest.raises(ValueError):
        Nominals(())
    with pytest.raises(ValueError):
        Nominals((a, a))


def test_cardinality_bounds_nonnegative():
    with pytest.raises(ValueError):
        AtMost(-1, RoleAtom(Term.nc("R")), Top())
    with pytest.raises(ValueError):
        AtLeast(-2, RoleAtom(Term.nc("R")), Top())


def test_no_implicit_normalization():
    r = RoleAtom(Term.nc("R"))
    assert Inverse(Inverse(r)) != r
    assert TopCtx("c1") == TopCtx("c1")
    assert TopCtx("c1") != TopCtx("c2")


def test_signature_of_role_assertion():
    ax = RoleAssert(
        RoleAtom(Term.nc("capitalOf")), Term.nc("babylon"), Term.nc("babylonianEmpire")
    )
    assert signature_of(ax) == {
        Term.nc("capitalOf"),
        Term.nc("babylon"),
        Term.nc("babylonianEmpire"),
    }


def test_signature_of_constant_axiom_is_empty():
    assert signature_of(ConceptSub(Top(), Bottom())) == frozenset()


def test_signature_of_topctx_contributes_no_term():
    expr = Exists(RoleAtom(Term.nc("capitalOf")), TopCtx("c1"))
    assert signature_of(expr) == {Term.nc("capitalOf")}


@given(st.integers(0, 2**32), st.integers(1, 3))
def test_signature_monotone_under_subexpressions(seed, depth):
    rng = random.Random(seed)
    terms = term_pool(3)
    inner = random_concept(rng, terms, depth - 1)
    outer = Exists(RoleAtom(rng.choice(terms)), inner)
    assert signature_of(inner) <= signature_of(outer)


@given(st.integers(0, 2**32))
def test_ontology_signature_covers_every_axiom(seed):
    rng = random.Random(seed)
    terms = term_pool(3)
    axioms = [random_axiom(rng, terms) for _ in range(rng.randint(1, 4))]
    onto = Ontology(axioms)
    for ax in axioms:
        assert signature_of(ax) <= onto.signature


def test_ontology_axioms_deduplicate_preserving_order():
    a1 = ConceptAssert(ConceptAtom(Term.nc("C")), Term.nc("x"))
    a2 = RoleAssert(RoleAtom(Term.nc("R")), Term.nc("x"), Term.nc("y"))
    onto = Ontology([a1, a2, a1, a2, a1])
    assert onto.axioms == (a1, a2)


def test_ontology_accepts_extra_signature_terms():
    extra = Term.nc("declared")
    onto = Ontology([ConceptAssert(ConceptAtom(Term.nc("C")), Term.nc("x"))], [extra])
    assert extra in onto.signature
    assert Term.nc("C") in onto.signature


def test_stable_hash_is_deterministic():
    ax = RoleAssert(RoleAtom(Term.nc("R")), Term.nc("a"), Term.nc("b"))
    again = RoleAssert(RoleAtom(Term.nc("R")), Term.nc("a"), Term.nc("b"))
    assert stable_hash(ax) == stable_hash(again)
    assert len(stable_hash(ax)) == 8


def test_constructor_table_covers_exactly_the_expression_and_axiom_types():
    members = set(typing.get_args(ConceptExpr)) | set(typing.get_args(RoleExpr)) | set(typing.get_args(Axiom))
    assert set(_CONSTRUCTORS) == members


@given(st.integers(0, 2**32), st.integers(0, 3))
def test_map_children_with_identities_rebuilds_an_equal_value(seed, depth):
    rng = random.Random(seed)
    ax = random_axiom(rng, term_pool(3), depth)
    for node in walk(ax):
        assert map_children(node, lambda x: x, lambda t: t) == node


def test_walk_visits_parents_first_left_to_right():
    c, d = ConceptAtom(Term.nc("C")), ConceptAtom(Term.nc("D"))
    r = RoleAtom(Term.nc("R"))
    ax = ConceptSub(c, Exists(r, d))
    assert list(walk(ax)) == [ax, c, Exists(r, d), r, d]
    assert [t for node in walk(ax) for t in own_terms(node)] == [Term.nc("C"), Term.nc("R"), Term.nc("D")]


@pytest.mark.parametrize("value", [Term.nc("C"), "C", None, Ontology()])
def test_table_rejects_unknown_values(value):
    with pytest.raises(TypeError):
        list(walk(value))
    with pytest.raises(TypeError):
        own_terms(value)
    with pytest.raises(TypeError):
        map_children(value, lambda x: x, lambda t: t)


def test_children_are_the_sub_expressions_in_field_order():
    r, c = RoleAtom(Term.nc("R")), ConceptAtom(Term.nc("C"))
    assert children(AtMost(2, r, c)) == (r, c)
    assert children(ConceptSub(c, Exists(r, c))) == (c, Exists(r, c))
    assert children(ConceptAssert(c, Term.nc("a"))) == (c,)
    assert children(c) == () and children(Nominals((Term.nc("a"),))) == ()
    with pytest.raises(TypeError):
        children(Term.nc("C"))
