import random
import re
import typing

import pytest

from ctxdl.annotation import validate_annotation
from ctxdl.core import (
    Bottom,
    ConceptAssert,
    ConceptAtom,
    ConceptExpr,
    ConceptIntersection,
    ConceptSub,
    Exists,
    Forall,
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
)
from ctxdl.semantics import Interpretation
from ctxdl.textio import (
    _FORMS,
    Block,
    BlockKind,
    ParseError,
    SourceDocument,
    UnprintableTermError,
    axiom_text,
    expr_text,
    parse,
    serialize,
)

from conftest import cassert, catom, nc, rassert, ratom
from generators import random_document_ontology, random_interpretation, term_pool


class TestParse:
    def test_role_assertion(self):
        doc = parse("ontology ex { capitalOf(babylon, babylonianEmpire) . }")
        [onto] = doc.ontologies()
        assert onto.axioms == (rassert("capitalOf", "babylon", "babylonianEmpire"),)

    def test_irreflexivity_axiom_tree(self):
        doc = parse("ontology ex { exists(capitalOf, top) sub forall(inv(capitalOf), bottom) . }")
        [onto] = doc.ontologies()
        expected = ConceptSub(
            Exists(ratom("capitalOf"), Top()),
            Forall(Inverse(ratom("capitalOf")), Bottom()),
        )
        assert onto.axioms == (expected,)

    def test_malformed_input_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse("ontology bad { and( }")
        assert err.value.line == 1
        assert err.value.col >= 15

    def test_annotation_block(self):
        doc = parse("annotation K anchor a { validity(a, t) . Interval(t) . }")
        [ca] = doc.annotations()
        assert ca.ctx_id == "K"
        assert ca.anchor == nc("a")
        assert len(ca.abox) == 2

    def test_invalid_annotation_becomes_parse_error(self):
        with pytest.raises(ParseError) as err:
            parse("annotation K anchor a { C(b) . }")
        assert "invalid annotation" in str(err.value)

    def test_model_block(self):
        doc = parse(
            "model m { domain 2 . indiv a = 0 . conc C = {0} . role R = {(0, 1)} . ctxtop K = {0, 1} . }"
        )
        [interp] = doc.models()
        assert interp.size == 2
        assert interp.indiv[nc("a")] == 0
        assert interp.conc[nc("C")] == {0}
        assert interp.role[nc("R")] == {(0, 1)}
        assert interp.top_ctx["K"] == {0, 1}

    def test_comments_and_hash_identifiers(self):
        text = """# leading comment
ontology ex {
  capital#1(babylon, st@K@ff00) .  # trailing comment
}
"""
        [onto] = parse(text).ontologies()
        [axiom] = onto.axioms
        assert axiom.role == RoleAtom(nc("capital#1"))
        assert axiom.object == Term("st@K@ff00", TermKind.ANCHOR)

    def test_kind_inference(self):
        [onto] = parse("ontology k { R(babylon@C1, ctx@C1) . }").ontologies()
        [axiom] = onto.axioms
        assert axiom.subject.kind is TermKind.CONTEXTUAL
        assert axiom.object.kind is TermKind.ANCHOR

    def test_reserved_words_are_not_idents(self):
        with pytest.raises(ParseError):
            parse("ontology top { }")

    # Positions are worked out from token offsets: every character takes one
    # column, and only "\n" ends a line (so "\r", tabs, "\u00a0" and
    # "\u2028" each take a column).
    POSITIONS = [
        ("ontology\tex {\n\tC(a) .\n\tand(\tC, ) sub D .\n}\n", 3, 10, "concept expected"),
        ("ontology ex {\r\n  C(a) .\r\n  D(b)\r\n}\r\n", 4, 1, "expected '.'"),
        ("ontology\u00a0ex\u2028{ C(a) .\u00a0\u2028 D(b) E(c) . }", 1, 29, "expected '.'"),
        ("ontology ex {\n  C(a) .  # no closing brace", 2, 9, "unexpected end of input: unterminated block"),
        ("ontology ex {\n  C(a) .\n  D(b) - .\n}\n", 3, 8, "unexpected character '-'"),
        ("ontology ex {\n  C(a) .\n\n\n", 2, 9, "unexpected end of input: unterminated block"),
    ]

    @pytest.mark.parametrize("text, line, col, message", POSITIONS)
    def test_error_positions(self, text, line, col, message):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert (err.value.line, err.value.col, err.value.message) == (line, col, message)
        assert str(err.value).startswith(f"{line}:{col}: {message}")

    def test_block_spans(self):
        doc = parse("ontology a { C(a) . }\n\n  model m {\n domain 1 . }\n\t# c\n"
                    "\tannotation K anchor u { R(u, v) . } ontology b { }")
        assert [(b.name, b.span) for b in doc.blocks] == [("a", (1, 1)), ("m", (3, 3)), ("K", (6, 2)), ("b", (6, 38))]

    # Lists and sorts: fixed-arity forms, open lists, and the first operand
    # of an axiom, whose sort the token after it settles.
    LIST_AND_SORT_ERRORS = [
        ("model m { domain 2 . conc C = {0,} . }", "1:34: expected natural number"),
        ("ontology o { oneof(a,)(b) . }", "1:22: expected individual"),
        ("ontology o { exists(r)(b) . }", "1:22: expected ','"),
        ("ontology o { exists(r, C, D)(b) . }", "1:25: expected ')'"),
        ("ontology o { inv(r) sub C . }", "1:25: role expression where a concept is required"),
        ("ontology o { and(C, D)(a, b) . }", "1:30: concept expression where a role is required"),
        ("ontology o { r sub inv(s) . }", "1:20: concept expected"),
        ("ontology o { C rsub top . }", "1:21: role expected"),
        ("ontology o { sub(a) . }", "1:14: expression expected"),
    ]

    @pytest.mark.parametrize("text, message", LIST_AND_SORT_ERRORS)
    def test_list_and_sort_errors(self, text, message):
        with pytest.raises(ParseError, match=f"^{re.escape(message)}"):
            parse(text)

    def test_only_a_pair_set_takes_a_trailing_comma(self):
        [model] = parse("model m { domain 2 . conc C = {} . role r = {(0, 1),} . }").models()
        assert model.conc[nc("C")] == frozenset() and model.role[nc("r")] == {(0, 1)}

    def test_comment_only_and_empty_input(self):
        assert parse("") == parse("# only a comment") == SourceDocument(())

    def test_expected_tokens_are_reported(self):
        with pytest.raises(ParseError) as err:
            parse("ontology ex { C(a) }")
        assert "." in err.value.expected


class TestSerialize:
    def test_axiom_forms(self):
        assert axiom_text(rassert("R", "a", "b")) == "R(a, b)"
        assert axiom_text(cassert("C", "a")) == "C(a)"
        assert (
            axiom_text(ConceptSub(ConceptIntersection(catom("C"), catom("D")), Top()))
            == "and(C, D) sub top"
        )

    def test_canonical_fixpoint(self):
        src = "ontology ex { C(a) . R(a, b) . exists(R, top) sub C . }"
        once = serialize(parse(src))
        assert serialize(parse(once)) == once

    def test_model_block_is_sorted(self):
        interp = Interpretation(
            2,
            {nc("b"): 1, nc("a"): 0},
            {nc("C"): frozenset({1, 0})},
            {nc("R"): frozenset({(1, 0), (0, 1)})},
            {"K": frozenset({1, 0})},
        )
        text = serialize(interp, "m")
        assert text == (
            "model m {\n"
            "  domain 2 .\n"
            "  indiv a = 0 .\n"
            "  indiv b = 1 .\n"
            "  conc C = {0, 1} .\n"
            "  role R = {(0, 1), (1, 0)} .\n"
            "  ctxtop K = {0, 1} .\n"
            "}\n"
        )

    def test_structurally_equal_values_serialize_identically(self):
        one = Ontology([cassert("C", "a")])
        two = Ontology([ConceptAssert(ConceptAtom(nc("C")), nc("a"))])
        assert serialize(one) == serialize(two)


class TestRoundTrip:
    def random_document(self, rng: random.Random, index: int) -> SourceDocument:
        blocks = []
        for b in range(rng.randint(1, 3)):
            kind = rng.choice(["ontology", "annotation", "model"])
            if kind == "ontology":
                blocks.append(
                    Block(BlockKind.ONTOLOGY, f"o{index}_{b}", random_document_ontology(rng, index))
                )
            elif kind == "annotation":
                anchor = nc(f"a{index}_{b}")
                abox = [RoleAssert(ratom(f"r{index}_{b}"), anchor, nc(f"v{index}_{b}"))]
                if rng.random() < 0.5:
                    abox.append(cassert(f"K{index}_{b}", f"v{index}_{b}"))
                blocks.append(
                    Block(
                        BlockKind.ANNOTATION,
                        f"ctx{index}_{b}",
                        validate_annotation(anchor, abox, ctx_id=f"ctx{index}_{b}"),
                    )
                )
            else:
                terms = term_pool(rng.randint(1, 3), prefix=f"m{index}_{b}x")
                blocks.append(
                    Block(
                        BlockKind.MODEL,
                        f"m{index}_{b}",
                        random_interpretation(rng, terms, rng.randint(1, 3)),
                    )
                )
        return SourceDocument(tuple(blocks))

    def test_thousand_documents(self):
        rng = random.Random(20250810)
        failures = 0
        for index in range(1000):
            doc = self.random_document(rng, index)
            text = serialize(doc)
            if parse(text) != doc:
                failures += 1
        assert failures == 0


class TestKeywordTable:
    def test_forms_and_leaves_cover_exactly_the_expression_types(self):
        forms = {ctor for ctor, _ in _FORMS.values()}
        leaves = {Top, Bottom, TopCtx, ConceptAtom, RoleAtom, Nominals}
        assert len(forms) == len(_FORMS)
        assert not forms & leaves
        assert forms | leaves == set(typing.get_args(ConceptExpr)) | set(typing.get_args(RoleExpr))

    def test_sorts_follow_the_dataclass_fields(self):
        sort_of = {int: "n", ConceptExpr: "c", RoleExpr: "r"}
        for keyword, (ctor, sorts) in _FORMS.items():
            hints = typing.get_type_hints(ctor)
            assert sorts == "".join(sort_of[hints[f]] for f in ctor.__dataclass_fields__), keyword

    def test_non_expressions_are_rejected(self):
        with pytest.raises(TypeError):
            expr_text(nc("C"))
        with pytest.raises(TypeError):
            expr_text(cassert("C", "a"))


UNPRINTABLE_TERMS = [Term.ctx("A"), nc("a@b"), nc("a-b"), nc("top")]


class TestUnprintableTerms:
    """A term whose name would parse back as a different term, or not at
    all, is refused with its name rather than written ambiguously."""

    @pytest.mark.parametrize("term", UNPRINTABLE_TERMS, ids=lambda t: f"{t.kind.name}-{t.name}")
    def test_in_an_ontology(self, term):
        onto = Ontology([ConceptAssert(ConceptAtom(nc("C")), term)])
        with pytest.raises(ValueError, match=term.name):
            serialize(onto)
        with pytest.raises(ValueError, match=term.name):
            serialize(Ontology([RoleAssert(RoleAtom(term), nc("a"), nc("b"))]))

    @pytest.mark.parametrize("term", UNPRINTABLE_TERMS, ids=lambda t: f"{t.kind.name}-{t.name}")
    def test_in_a_model(self, term):
        with pytest.raises(ValueError, match=term.name):
            serialize(Interpretation(1, {term: 0}), "m")
        with pytest.raises(ValueError, match=term.name):
            serialize(Interpretation(1, {}, {term: frozenset({0})}), "m")

    def test_terms_whose_shape_gives_their_kind_print(self):
        terms = [nc("A"), Term.ctx("A@C"), Term.anchor("ctx@C"), Term.anchor("st@C@ff00"), nc("capital#1")]
        interp = Interpretation(1, {t: 0 for t in terms}, {t: frozenset({0}) for t in terms})
        [model] = parse(serialize(interp, "m")).models()
        assert model == interp


class TestUnprintableBlockNames:
    """Ontology and model block names are printed where the parser reads an
    identifier, so one that is no identifier, or a reserved word, is
    refused, in a single value and in a document alike."""

    @pytest.mark.parametrize("name", ["top", "a b", "x{", ""])
    def test_refused(self, name):
        cases = [(Ontology([]), name), (Interpretation(1, {}), name),
                 (SourceDocument((Block(BlockKind.ONTOLOGY, name, Ontology([])),)), "o"),
                 (SourceDocument((Block(BlockKind.MODEL, name, Interpretation(1, {})),)), "o")]
        for value, given in cases:
            with pytest.raises(UnprintableTermError, match=f"block name {name!r}"):
                serialize(value, given)

    def test_identifier_names_round_trip(self):
        doc = SourceDocument((Block(BlockKind.ONTOLOGY, "o@1#x", Ontology([cassert("C", "a")])),
                              Block(BlockKind.MODEL, "m_2", Interpretation(1, {nc("a"): 0}))))
        assert parse(serialize(doc)) == doc
        assert serialize(Ontology([]), "ctx@K") == "ontology ctx@K {\n}\n"
        assert serialize(Interpretation(1, {})) == "model m {\n  domain 1 .\n}\n"


class TestBlockConsistency:
    """A block whose kind does not match its payload, or an annotation block
    not named by its context id, would print as text that parses back to a
    different document, so it cannot be built."""

    def test_kind_must_match_the_payload(self):
        ca = validate_annotation(nc("a"), [cassert("Src", "a")], ctx_id="K")
        model, onto = Interpretation(1, {}), Ontology([])
        for kind, payload in [(BlockKind.ONTOLOGY, model), (BlockKind.MODEL, onto), (BlockKind.ONTOLOGY, ca),
                              (BlockKind.ANNOTATION, onto), (BlockKind.ANNOTATION, model)]:
            with pytest.raises(ValueError, match=f"{kind.value} block 'K' cannot hold a {type(payload).__name__}"):
                Block(kind, "K", payload)

    def test_annotation_block_is_named_by_its_context(self):
        ca = validate_annotation(nc("a"), [cassert("Src", "a")], ctx_id="K")
        with pytest.raises(ValueError, match="annotation block 'other' holds context 'K'"):
            Block(BlockKind.ANNOTATION, "other", ca)
        doc = SourceDocument((Block(BlockKind.ANNOTATION, "K", ca), Block(BlockKind.MODEL, "K", Interpretation(1, {}))))
        assert parse(serialize(doc)) == doc


UNPRINTABLE_CONTEXT_IDS = ["top", "a.b", "sub", "a-b"]


class TestUnprintableContextIds:
    """A context id is printed where the parser reads an identifier: the
    annotation header, `ctxtop[...]` and a model's `ctxtop` line. One that
    is no identifier, or a reserved word, is refused."""

    @pytest.mark.parametrize("ctx_id", UNPRINTABLE_CONTEXT_IDS)
    def test_in_an_annotation_header(self, ctx_id):
        ca = validate_annotation(nc("u"), [rassert("R", "u", "v")], ctx_id=ctx_id)
        with pytest.raises(UnprintableTermError, match=f"context id {ctx_id!r}"):
            serialize(ca)

    @pytest.mark.parametrize("ctx_id", UNPRINTABLE_CONTEXT_IDS)
    def test_in_a_context_top(self, ctx_id):
        with pytest.raises(UnprintableTermError, match=f"context id {ctx_id!r}"):
            serialize(Ontology([ConceptSub(TopCtx(ctx_id), catom("C"))]))
        with pytest.raises(UnprintableTermError, match=f"context id {ctx_id!r}"):
            serialize(Ontology([ConceptAssert(TopCtx(ctx_id), nc("a"))]))

    @pytest.mark.parametrize("ctx_id", UNPRINTABLE_CONTEXT_IDS)
    def test_in_a_model(self, ctx_id):
        with pytest.raises(UnprintableTermError, match=f"context id {ctx_id!r}"):
            serialize(Interpretation(1, {}, {}, {}, {ctx_id: frozenset({0})}), "m")

    def test_identifier_context_ids_round_trip(self):
        ca = validate_annotation(nc("u"), [rassert("R", "u", "v")], ctx_id="c@1#x")
        onto = Ontology([ConceptSub(TopCtx("c@1#x"), catom("C"))])
        interp = Interpretation(1, {}, {}, {}, {"c@1#x": frozenset({0})})
        [back] = parse(serialize(ca)).annotations()
        assert back == ca
        assert parse(serialize(onto)).ontologies() == [onto]
        assert parse(serialize(interp, "m")).models() == [interp]


class TestInterning:
    def test_a_name_read_from_two_documents_is_one_object(self):
        first = parse("ontology a { capital@CA(babylon, x) . }\n").ontologies()[0].axioms[0]
        second = parse("annotation B anchor babylon { capital@CA(babylon, y) . }\n").annotations()[0].abox[0]
        assert first.subject is second.subject
        assert first.role.term is second.role.term
        assert first.subject == Term.nc("babylon") and hash(first.subject) == hash(Term.nc("babylon"))
        assert first.role.term == Term.ctx("capital@CA")
        assert first.object != second.object
