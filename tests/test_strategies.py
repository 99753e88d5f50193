import random
import warnings

import pytest

from ctxdl.annotation import AnnotatedOntology, AnnotatedStatement, validate_annotation
from ctxdl.core import (
    ConceptAssert,
    ConceptSub,
    Compose,
    Exists,
    Nominals,
    Ontology,
    RoleAssert,
    RoleAtom,
    RoleSub,
    Term,
    TermKind,
    signature_of,
)
from ctxdl.search import find_model
from ctxdl.semantics import SatisfiableAt
from ctxdl.strategies import (
    IS_CONTEXTUAL_PART_OF,
    IS_IN_CONTEXT,
    OBJECT,
    PREDICATE,
    SINGLETON_PROPERTY_OF,
    SUBJECT,
    DuplicateContextIdError,
    NonAtomicAssertionWarning,
    RenamingScheme,
    SignatureOverlapWarning,
    Strategy,
    annotation_anchor,
    combine_contexts,
    contextualize,
    cx_of_annotation,
    statement_anchor,
)
from ctxdl.textio import axiom_text, parse

from conftest import cassert, catom, nc, rassert, ratom

STATEMENT = rassert("capital", "babylon", "babylonianEmpire")


@pytest.fixture
def annotated(babylon_annotation):
    return AnnotatedStatement(STATEMENT, babylon_annotation)


class TestCxOfAnnotation:
    def test_anchor_substituted_in_argument_positions(self, babylon_annotation):
        u = annotation_anchor(babylon_annotation)
        cx = cx_of_annotation(babylon_annotation, u)
        assert cx[0] == RoleAssert(ratom("validity"), u, nc("t"))
        assert cx[1] == cassert("Interval", "t")
        assert cx[4] == RoleAssert(ratom("prov"), u, nc("w"))
        assert len(cx) == 7

    def test_subject_only_and_object_only(self):
        ca = validate_annotation(nc("a"), [rassert("R", "x", "a")], ctx_id="k")
        u = Term.anchor("ctx@k")
        assert cx_of_annotation(ca, u) == [RoleAssert(ratom("R"), nc("x"), u)]
        ca2 = validate_annotation(nc("a"), [cassert("C", "a")], ctx_id="k2")
        assert cx_of_annotation(ca2, Term.anchor("ctx@k2")) == [
            ConceptAssert(catom("C"), Term.anchor("ctx@k2"))
        ]

    def test_replacement_must_be_fresh(self, babylon_annotation):
        with pytest.raises(ValueError):
            cx_of_annotation(babylon_annotation, nc("t"))


class TestRenaming:
    def test_injective_and_cross_context_disjoint(self):
        rng = random.Random(4)
        names = [f"n{i}" for i in range(20)]
        for _ in range(20):
            picked = [nc(n) for n in rng.sample(names, 8)]
            one = RenamingScheme("c1")
            two = RenamingScheme("c2")
            image_one = {one.rename(t) for t in picked}
            image_two = {two.rename(t) for t in picked}
            assert len(image_one) == len(picked)
            assert not image_one & image_two

    def test_renamed_terms_are_contextual(self):
        scheme = RenamingScheme("CA")
        out = scheme.rename(nc("babylon"))
        assert out == Term("babylon@CA", TermKind.CONTEXTUAL)
        assert scheme.top_term() == Term("top@CA", TermKind.CONTEXTUAL)


class TestNdTerms:
    def test_running_example_structure(self, annotated):
        out = contextualize(Strategy.ND_TERMS, annotated)
        scheme = RenamingScheme("CA")
        ren = scheme.rename
        anchor = annotation_anchor(annotated.annotation)
        renamed_assertion = RoleAssert(
            RoleAtom(ren(nc("capital"))), ren(nc("babylon")), ren(nc("babylonianEmpire"))
        )
        assert renamed_assertion in out.axioms
        for t in ("babylon", "babylonianEmpire", "capital"):
            assert RoleAssert(RoleAtom(IS_CONTEXTUAL_PART_OF), ren(nc(t)), nc(t)) in out.axioms
            assert RoleAssert(RoleAtom(IS_IN_CONTEXT), ren(nc(t)), anchor) in out.axioms
        # seven annotation axioms anchored on the context anchor
        assert RoleAssert(ratom("validity"), anchor, nc("t")) in out.axioms
        assert cassert("Wiki", "w") in out.axioms
        # twelve membership axioms: four per statement term
        membership = [ax for ax in out.axioms if isinstance(ax, ConceptSub)]
        assert len(membership) == 9  # 3 terms x (atom-sub + exists-sub + forall-sub)
        assert len(out.axioms) == 1 + 12 + 6 + 7

    def test_originals_appear_only_as_part_of_links(self, annotated):
        out = contextualize(Strategy.ND_TERMS, annotated)
        statement_terms = signature_of(STATEMENT)
        ca_terms = annotated.annotation.signature()
        for ax in out.axioms:
            if isinstance(ax, RoleAssert) and ax.role == RoleAtom(IS_CONTEXTUAL_PART_OF):
                continue
            for t in signature_of(ax):
                if t in statement_terms and t not in ca_terms:
                    pytest.fail(f"original statement term {t.name} leaked into {ax}")

    def test_overlap_warning(self, babylon_annotation):
        overlapping = Ontology([cassert("City", "t")])
        with pytest.warns(SignatureOverlapWarning):
            contextualize(Strategy.ND_TERMS, AnnotatedOntology(overlapping, babylon_annotation))

    def test_ontology_union_deduplicates_shared_parts(self, babylon_annotation):
        onto = Ontology([rassert("capital", "babylon", "babylonianEmpire"), cassert("City", "babylon")])
        out = contextualize(Strategy.ND_TERMS, AnnotatedOntology(onto, babylon_annotation))
        # Cx appears once, and babylon's membership axioms are shared
        validity_axioms = [
            ax for ax in out.axioms
            if isinstance(ax, RoleAssert) and ax.role == ratom("validity")
        ]
        assert len(validity_axioms) == 1


class TestRdfReification:
    def test_triples_and_anchored_annotation(self, annotated):
        out = contextualize(Strategy.RDF_REIFICATION, annotated)
        anchor = statement_anchor(STATEMENT, annotated.annotation)
        assert out.axioms[0] == RoleAssert(RoleAtom(SUBJECT), anchor, nc("babylon"))
        assert out.axioms[1] == RoleAssert(RoleAtom(PREDICATE), anchor, nc("capital"))
        assert out.axioms[2] == RoleAssert(RoleAtom(OBJECT), anchor, nc("babylonianEmpire"))
        assert RoleAssert(ratom("validity"), anchor, nc("t")) in out.axioms
        assert STATEMENT not in out.axioms
        assert len(out.axioms) == 3 + 7

    def test_tbox_passes_through_unannotated(self, babylon_annotation):
        tbox = RoleSub(ratom("capitalOf"), ratom("cityOf"))
        out = contextualize(Strategy.RDF_REIFICATION, AnnotatedStatement(tbox, babylon_annotation))
        assert out.axioms == (tbox,)

    def test_complex_role_assertion_warns_and_passes_through(self, babylon_annotation):
        complex_assertion = RoleAssert(Compose(ratom("R"), ratom("R")), nc("a"), nc("e"))
        with pytest.warns(NonAtomicAssertionWarning):
            out = contextualize(
                Strategy.RDF_REIFICATION, AnnotatedStatement(complex_assertion, babylon_annotation)
            )
        assert out.axioms == (complex_assertion,)

    def test_distinct_statements_get_distinct_anchors(self, babylon_annotation):
        one = statement_anchor(rassert("R", "a", "b"), babylon_annotation)
        two = statement_anchor(rassert("R", "a", "c"), babylon_annotation)
        assert one != two
        assert one.kind is TermKind.ANCHOR


class TestNAry:
    def test_two_role_variant(self, annotated):
        out = contextualize(Strategy.NARY_TWO_ROLE, annotated)
        anchor = statement_anchor(STATEMENT, annotated.annotation)
        assert out.axioms[0] == RoleAssert(RoleAtom(nc("capital#1")), nc("babylon"), anchor)
        assert out.axioms[1] == RoleAssert(RoleAtom(nc("capital#2")), anchor, nc("babylonianEmpire"))
        assert len(out.axioms) == 2 + 7

    def test_concept_anchored_variant(self, annotated):
        out = contextualize(Strategy.NARY_CONCEPT_ANCHORED, annotated)
        anchor = statement_anchor(STATEMENT, annotated.annotation)
        assert out.axioms[0] == ConceptAssert(catom("C#capital"), anchor)
        assert out.axioms[1] == RoleAssert(RoleAtom(nc("capital#1")), anchor, nc("babylon"))
        assert out.axioms[2] == RoleAssert(RoleAtom(nc("capital#2")), anchor, nc("babylonianEmpire"))


class TestSingletonProperty:
    def test_anchor_used_as_role(self, annotated):
        out = contextualize(Strategy.SINGLETON_PROPERTY, annotated)
        anchor = statement_anchor(STATEMENT, annotated.annotation)
        image = Exists(RoleAtom(anchor), Nominals((nc("babylonianEmpire"),)))
        assert out.axioms[0] == RoleAssert(RoleAtom(anchor), nc("babylon"), nc("babylonianEmpire"))
        assert out.axioms[1] == ConceptSub(Nominals((nc("babylon"),)), image)
        assert out.axioms[2] == ConceptSub(image, Nominals((nc("babylon"),)))
        assert out.axioms[3] == RoleAssert(RoleAtom(SINGLETON_PROPERTY_OF), anchor, nc("capital"))
        assert len(out.axioms) == 4 + 7


class TestNdFluents:
    def test_renames_only_individual_positions(self, annotated):
        out = contextualize(Strategy.ND_FLUENTS, annotated)
        scheme = RenamingScheme("CA")
        assert out.axioms[0] == RoleAssert(
            ratom("capital"), scheme.rename(nc("babylon")), scheme.rename(nc("babylonianEmpire"))
        )
        assert RoleAssert(
            RoleAtom(IS_CONTEXTUAL_PART_OF), scheme.rename(nc("babylon")), nc("babylon")
        ) in out.axioms

    def test_tbox_untouched_but_annotation_attached(self, babylon_annotation):
        tbox = ConceptSub(catom("C"), catom("D"))
        out = contextualize(Strategy.ND_FLUENTS, AnnotatedStatement(tbox, babylon_annotation))
        assert out.axioms[0] == tbox
        anchor = annotation_anchor(babylon_annotation)
        assert RoleAssert(ratom("validity"), anchor, nc("t")) in out.axioms


class TestSlicingContextPart:
    """The slicing family builds the context part once per ontology and
    emits it after the first statement's output, where the per-statement
    copies' deduplication left it."""

    SLICINGS = [Strategy.ND_TERMS, Strategy.ND_FLUENTS]

    @pytest.mark.parametrize("strategy", SLICINGS)
    def test_empty_ontology_gets_no_context_part(self, strategy, babylon_annotation):
        assert contextualize(strategy, AnnotatedOntology(Ontology([]), babylon_annotation)).axioms == ()

    @pytest.mark.parametrize("strategy", SLICINGS)
    def test_same_axioms_in_the_same_order_as_per_statement(self, strategy, babylon_annotation):
        onto = Ontology([
            STATEMENT, ConceptSub(catom("C"), catom("D")), cassert("C", "babylon"), rassert("near", "ur", "babylon"),
        ])
        per_statement = [ax for statement in onto.axioms for ax in contextualize(
            strategy, AnnotatedStatement(statement, babylon_annotation)).axioms]
        whole = contextualize(strategy, AnnotatedOntology(onto, babylon_annotation))
        assert whole.axioms == Ontology(per_statement).axioms
        part = cx_of_annotation(babylon_annotation, annotation_anchor(babylon_annotation))
        assert sum(ax in part for ax in whole.axioms) == len(part)


class TestContract:
    """The shared strategy contract: Cx with a replaced anchor plus an
    injective embedding of the statement signature."""

    def statement_map(self, strategy, axiom, ca):
        scheme = RenamingScheme(ca.ctx_id)
        if strategy in (Strategy.ND_TERMS,):
            return scheme.rename
        if strategy is Strategy.ND_FLUENTS:
            individuals = {axiom.subject, axiom.object} if isinstance(axiom, RoleAssert) else set()
            return lambda t: scheme.rename(t) if t in individuals else t
        if strategy in (Strategy.NARY_TWO_ROLE, Strategy.NARY_CONCEPT_ANCHORED):
            role = axiom.role.term
            return lambda t: Term.nc(f"{role.name}#1") if t == role else t
        return lambda t: t

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_conformance_on_role_assertions(self, strategy, babylon_annotation):
        axiom = STATEMENT
        out = contextualize(strategy, AnnotatedStatement(axiom, babylon_annotation))
        if strategy in (Strategy.ND_TERMS, Strategy.ND_FLUENTS):
            u = annotation_anchor(babylon_annotation)
        else:
            u = statement_anchor(axiom, babylon_annotation)
        for ax in cx_of_annotation(babylon_annotation, u):
            assert ax in out.axioms
        mapping = self.statement_map(strategy, axiom, babylon_annotation)
        images = {mapping(t) for t in signature_of(axiom)}
        assert len(images) == len(signature_of(axiom))
        assert images <= out.signature


class TestCombine:
    def test_duplicate_context_ids_rejected(self, babylon_annotation):
        onto = Ontology([cassert("C", "x")])
        with pytest.raises(DuplicateContextIdError):
            combine_contexts(
                [
                    AnnotatedOntology(onto, babylon_annotation),
                    AnnotatedOntology(onto, babylon_annotation),
                ],
                Strategy.ND_TERMS,
            )

    def test_single_input_equals_contextualize(self, babylon_annotation):
        onto = Ontology([cassert("C", "x")])
        single = combine_contexts([AnnotatedOntology(onto, babylon_annotation)], Strategy.ND_TERMS)
        direct = contextualize(Strategy.ND_TERMS, AnnotatedOntology(onto, babylon_annotation))
        assert single.axioms == direct.axioms

    def test_contradicting_contexts_stay_satisfiable(self):
        from ctxdl.core import ConceptNeg

        ca1 = validate_annotation(nc("x1"), [cassert("Src", "x1")], ctx_id="c1")
        ca2 = validate_annotation(nc("x2"), [cassert("Src", "x2")], ctx_id="c2")
        pos = Ontology([cassert("C", "a")])
        neg = Ontology([ConceptAssert(ConceptNeg(catom("C")), nc("a"))])
        combined = combine_contexts(
            [AnnotatedOntology(pos, ca1), AnnotatedOntology(neg, ca2)], Strategy.ND_TERMS
        )
        verdict = find_model(combined, 2)
        assert isinstance(verdict, SatisfiableAt)
        assert verdict.size <= 2

    def test_two_contexts_make_disjoint_copies(self, babylon_annotation):
        ca2 = validate_annotation(nc("b2"), [cassert("Src", "b2")], ctx_id="CB")
        onto = Ontology([cassert("C", "x")])
        combined = combine_contexts(
            [AnnotatedOntology(onto, babylon_annotation), AnnotatedOntology(onto, ca2)],
            Strategy.ND_TERMS,
        )
        names = {t.name for t in combined.signature}
        assert {"C@CA", "x@CA", "C@CB", "x@CB"} <= names


# Rewrite edge cases: a context top of a foreign context in a TBox axiom and
# in an assertion, a punned t(t), a role that is also its own subject, a
# two-member nominal, and a non-atomic role assertion.
EDGE = parse("""ontology edge {
  ctxtop[X] sub C .
  and(C, ctxtop[X])(a) .
  t(t) .
  r(r, a) .
  exists(r, oneof(a, t))(b) .
  inv(r)(a, t) .
}""").ontologies()[0]

REIFIED = {
    Strategy.RDF_REIFICATION: [
        "subject(st@K1@0fa0c132, r)",
        "predicate(st@K1@0fa0c132, r)",
        "object(st@K1@0fa0c132, a)",
    ],
    Strategy.NARY_TWO_ROLE: ["r#1(r, st@K1@0fa0c132)", "r#2(st@K1@0fa0c132, a)"],
    Strategy.NARY_CONCEPT_ANCHORED: [
        "C#r(st@K1@0fa0c132)",
        "r#1(st@K1@0fa0c132, r)",
        "r#2(st@K1@0fa0c132, a)",
    ],
    Strategy.SINGLETON_PROPERTY: [
        "st@K1@0fa0c132(r, a)",
        "oneof(r) sub exists(st@K1@0fa0c132, oneof(a))",
        "exists(st@K1@0fa0c132, oneof(a)) sub oneof(r)",
        "singletonPropertyOf(st@K1@0fa0c132, r)",
    ],
}


class TestEdgeRewrites:
    def lines(self, strategy, annotation):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonAtomicAssertionWarning)
            out = contextualize(strategy, AnnotatedOntology(EDGE, annotation))
        return [axiom_text(ax) for ax in out.axioms]

    def links(self, terms):
        return {f"{link}({t}@K1, {target})" for t in terms
                for link, target in (("isContextualPartOf", t), ("isInContext", "ctx@K1"))}

    def test_ndterms_slices_every_term_and_foreign_context_top(self, small_annotation):
        lines = self.lines(Strategy.ND_TERMS, small_annotation)
        statements = [
            "top@X sub C@K1",
            "and(C@K1, top@X)(a@K1)",
            "t@K1(t@K1)",
            "r@K1(r@K1, a@K1)",
            "exists(r@K1, oneof(a@K1, t@K1))(b@K1)",
            "inv(r@K1)(a@K1, t@K1)",
        ]
        assert [line for line in lines if line in statements] == statements
        assert self.links("Catrb") <= set(lines)
        assert "top@K1(r@K1)" in lines and "top sub forall(r@K1, top@K1)" in lines
        assert not any("ctxtop" in line for line in lines)
        assert len(lines) == 6 + 5 * (4 + 2) + 2

    def test_ndfluents_leaves_context_tops_and_atoms_alone(self, small_annotation):
        lines = self.lines(Strategy.ND_FLUENTS, small_annotation)
        assert lines == [
            "ctxtop[X] sub C",
            "source(ctx@K1, doc)",
            "Document(doc)",
            "and(C, ctxtop[X])(a@K1)",
            *sorted(self.links("a")),
            "t(t@K1)",
            *sorted(self.links("t")),
            "r(r@K1, a@K1)",
            *sorted(self.links("r")),
            "exists(r, oneof(a@K1, t@K1))(b@K1)",
            *sorted(self.links("b")),
            "inv(r)(a@K1, t@K1)",
        ]

    @pytest.mark.parametrize("strategy", list(REIFIED), ids=lambda s: s.value)
    def test_reifications_pass_everything_but_the_atomic_role_assertion(self, strategy, small_annotation):
        lines = self.lines(strategy, small_annotation)
        assert lines == [
            "ctxtop[X] sub C",
            "and(C, ctxtop[X])(a)",
            "t(t)",
            *REIFIED[strategy],
            "source(st@K1@0fa0c132, doc)",
            "Document(doc)",
            "exists(r, oneof(a, t))(b)",
            "inv(r)(a, t)",
        ]


class TestWarningsNameTheCaller:
    """Every strategy's warnings point at the line that called the public
    entry point, whether that is `contextualize` or `combine_contexts`."""

    @pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
    def test_contextualize_and_combine(self, strategy, babylon_annotation, small_annotation):
        pairs = [AnnotatedOntology(EDGE, babylon_annotation), AnnotatedOntology(EDGE, small_annotation)]
        # NdTerms warns once, as EDGE shares `a` and `t` with the running
        # example only; a reification warns once per context, about
        # inv(r)(a, t); NdFluents never warns.
        single, combined = {Strategy.ND_TERMS: (1, 1), Strategy.ND_FLUENTS: (0, 0)}.get(strategy, (1, 2))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            contextualize(strategy, pairs[0])
            assert len(caught) == single
            combine_contexts(pairs, strategy)
            assert len(caught) == single + combined
        assert [w.filename for w in caught] == [__file__] * len(caught)
