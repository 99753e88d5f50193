import copy
import os
import pickle
import random
import subprocess
import sys
import typing
from pathlib import Path

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
    is_clean_name,
    map_children,
    own_terms,
    signature_of,
    stable_hash,
    walk,
)

from ctxdl.annotation import AnnotatedStatement, AnnotationError, validate_annotation
from ctxdl.strategies import Strategy, contextualize

from conftest import cassert, nc, rassert
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


@pytest.mark.parametrize("name", ["", " a", "a b", "a\tb", "a\xa0", "a\u2028b", "ab", "capitalOf@C0"])
def test_one_whitespace_rule_for_term_names_and_context_ids(name):
    clean = name in ("ab", "capitalOf@C0")
    assert is_clean_name(name) is clean
    abox = [cassert("C", "a")]
    if clean:
        assert Term.nc(name).name == name
        assert validate_annotation(nc("a"), abox, ctx_id=name).ctx_id == name
        return
    with pytest.raises(ValueError):
        Term.nc(name)
    with pytest.raises(AnnotationError):
        validate_annotation(nc("a"), abox, ctx_id=name)


class TestTermContract:
    """One object per name and kind; the printed form and every id derived
    from it are as before terms were hash-consed."""

    def test_equal_terms_hash_equal(self):
        for kind in TermKind:
            assert Term("babylon", kind) is Term("babylon", kind)
            assert Term("babylon", kind) == Term("babylon", kind)
            assert hash(Term("babylon", kind)) == hash(Term("babylon", kind))
        assert Term.nc("babylon") is Term("babylon") is Term("babylon", TermKind.NON_CONTEXTUAL)
        assert Term.ctx("babylon") is Term("babylon", TermKind.CONTEXTUAL)
        assert Term.anchor("babylon") is Term("babylon", TermKind.ANCHOR)

    def test_kind_separates_terms_of_one_name(self):
        plain, contextual = Term("x", TermKind.NON_CONTEXTUAL), Term("x", TermKind.CONTEXTUAL)
        assert plain != contextual
        assert len({plain, contextual}) == 2
        assert {plain: 1, contextual: 2}[contextual] == 2

    def test_repr_and_stable_hashes_are_pinned(self):
        assert repr(Term.nc("babylon")) == "Term(name='babylon', kind=<TermKind.NON_CONTEXTUAL: 'nc'>)"
        assert repr(Term.ctx("capital@CA")) == "Term(name='capital@CA', kind=<TermKind.CONTEXTUAL: 'c'>)"
        statement = rassert("capital", "babylon", "babylonianEmpire")
        assert stable_hash(statement) == "2b8fd359"
        abox = [
            rassert("validity", "a", "t"), cassert("Interval", "t"), rassert("from", "t", "609BC"),
            rassert("to", "t", "539BC"), rassert("prov", "a", "w"), rassert("name", "w", "wikipedia"),
            cassert("Wiki", "w"),
        ]
        assert validate_annotation(nc("a"), abox).ctx_id == "5498f868"
        ca = validate_annotation(nc("a"), abox, ctx_id="CA")
        rewritten = contextualize(Strategy.ND_TERMS, AnnotatedStatement(statement, ca))
        assert stable_hash((rewritten.axioms, tuple(rewritten.sorted_signature()))) == "9fa22641"

    def test_pickle_round_trip(self):
        # Unpickling and copying return the same object.
        for term in (Term.nc("babylon"), Term.ctx("capital@CA"), Term.anchor("ctx@CA")):
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                assert pickle.loads(pickle.dumps(term, protocol)) is term
            assert copy.copy(term) is term and copy.deepcopy(term) is term
        axiom = ConceptAssert(ConceptAtom(Term.ctx("capital@CA")), Term.nc("babylon"))
        assert copy.deepcopy(axiom).individual is axiom.individual

    def test_terms_are_immutable(self):
        term = Term.nc("babylon")
        with pytest.raises(AttributeError):
            term.name = "ur"
        with pytest.raises(AttributeError):
            del term.kind
        assert term.name == "babylon" and term.sort_key() == ("babylon", "nc")


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


def test_ontology_hash_is_kept_but_not_pickled():
    onto = Ontology([ConceptAssert(ConceptAtom(Term.nc("C")), Term.nc("x"))], [Term.nc("declared")])
    assert hash(onto) == hash((onto.axioms, onto.signature)) == hash(Ontology(onto.axioms, onto.signature))
    assert "_hash" in vars(onto)
    # It follows the terms' addresses, which another process does not share.
    again = pickle.loads(pickle.dumps(onto))
    assert again == onto and "_hash" not in vars(again)


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


REIMPORT = """
import gc, sys, weakref
import ctxdl.cli, ctxdl.verify
from ctxdl.textio import parse

def use():
    (onto,) = parse("ontology o { C sub not(C) . C(a) . R(a, b) . }").ontologies()
    ctxdl.verify.check_inconsistency_preservation(
        ctxdl.strategies.Strategy.ND_TERMS, onto, ctxdl.verify.generate_corpus(1, 1, 2, 2)[0][1], 3)
    ctxdl.search.find_model(onto, 3)

use()
old = weakref.ref(ctxdl.core.Term)
for name in [n for n in sys.modules if n == "ctxdl" or n.startswith("ctxdl.")]:
    del sys.modules[name]
import ctxdl.cli, ctxdl.verify
from ctxdl.textio import parse
use()
gc.collect()
print("released" if old() is None else "pinned")
"""


def test_a_reimport_releases_the_old_copy():
    # A benchmark set-up imports the library afresh each time. Nothing may
    # keep an old copy's classes alive: typing's process-wide caches did,
    # through the `Union` and `Callable` aliases, and with the classes the
    # whole module's globals.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", REIMPORT], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120, check=True)
    assert done.stdout.split() == ["released"]
