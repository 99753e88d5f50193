"""Differential validation of the bounded search against brute-force
enumeration, plus soundness of the interval pruning rules."""

import itertools
import os
import random
import subprocess
import sys
import typing
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ctxdl.annotation import AnnotatedOntology, validate_annotation
from ctxdl.core import (
    AtLeast,
    AtMost,
    Bottom,
    Closure,
    Compose,
    ConceptAssert,
    ConceptAtom,
    ConceptExpr,
    ConceptIntersection,
    ConceptNeg,
    ConceptSub,
    Exists,
    Forall,
    Inverse,
    Nominals,
    Ontology,
    Product,
    RoleAssert,
    RoleAtom,
    RoleExpr,
    RoleSub,
    Term,
    Top,
    TopCtx,
    children,
)
from ctxdl.search import (
    _MASK_RULES,
    CONC,
    IND,
    ROLE,
    TOPCTX,
    _Constraint,
    _decode_pairs,
    _decode_set,
    _Domain,
    _exact,
    _interval,
    _polarity,
    _producer,
    _submasks,
    check_entailment,
    find_model,
)
from ctxdl.semantics import (
    BoundTooLargeError,
    Interpretation,
    NoCounterexampleUpTo,
    NoModelUpTo,
    NotEntailed,
    SatisfiableAt,
    eval_concept,
    eval_role,
    is_model,
    satisfies,
)
from ctxdl.strategies import Strategy, combine_contexts, contextualize
from ctxdl.textio import parse
from ctxdl import search as search_module
from ctxdl.verify import (
    Outcome,
    check_entailment_preservation,
    curated_entailment_pairs,
    curated_inconsistent_ontologies,
    generate_corpus,
)

from generators import random_axiom, random_concept, random_interpretation, random_role, term_pool
from oracles import (
    all_interpretations,
    brute_force_has_model,
    collect_ctx_ids,
    component_sort_key,
    components,
)


def random_small_ontology(rng, n_terms, n_axioms, depth=1):
    terms = term_pool(n_terms)
    return Ontology([random_axiom(rng, terms, depth) for _ in range(n_axioms)])


class TestFindModelComplete:
    def test_against_brute_force_two_terms(self):
        rng = random.Random(42)
        for _ in range(120):
            onto = random_small_ontology(rng, 2, rng.randint(1, 3))
            expected = brute_force_has_model(onto, 2)
            verdict = find_model(onto, 2)
            assert isinstance(verdict, SatisfiableAt) == expected, onto.axioms
            if expected:
                assert is_model(verdict.model, onto)
                # smallest size: no model must exist below the reported one
                for smaller in range(1, verdict.size):
                    assert not any(
                        is_model(i, onto)
                        for i in all_interpretations(
                            onto.signature, collect_ctx_ids(onto), smaller
                        )
                    )

    def test_against_brute_force_deeper_expressions(self):
        rng = random.Random(1234)
        for _ in range(40):
            onto = random_small_ontology(rng, 2, 2, depth=2)
            expected = brute_force_has_model(onto, 2)
            verdict = find_model(onto, 2)
            assert isinstance(verdict, SatisfiableAt) == expected, onto.axioms


class TestEntailmentComplete:
    def test_against_brute_force(self):
        rng = random.Random(77)
        for _ in range(80):
            o1 = random_small_ontology(rng, 2, 2)
            o2 = random_small_ontology(rng, 2, 1)
            sig = set(o1.signature) | set(o2.signature)
            ids = collect_ctx_ids(o1) | collect_ctx_ids(o2)
            expected = any(
                is_model(i, o1) and not is_model(i, o2)
                for size in (1, 2)
                for i in all_interpretations(sig, ids, size)
            )
            verdict = check_entailment(o1, o2, 2)
            assert isinstance(verdict, NotEntailed) == expected, (o1.axioms, o2.axioms)
            if expected:
                assert is_model(verdict.countermodel, o1)
                assert not is_model(verdict.countermodel, o2)


def encode(interp, slots, exposed=None):
    """Slot values of `interp` for the components in `slots`; components
    outside `exposed` (when given) stay unassigned."""
    n = interp.size
    vals = [None] * len(slots)
    for comp, slot in slots.items():
        if exposed is not None and comp not in exposed:
            continue
        aspect, key = comp
        if aspect == IND:
            vals[slot] = interp.indiv[key]
        elif aspect == ROLE:
            vals[slot] = sum(1 << x * n + y for x, y in interp.role[key])
        else:
            members = interp.conc[key] if aspect == CONC else interp.top_ctx[key]
            vals[slot] = sum(1 << x for x in members)
    return vals


class TestIntervalEvaluation:
    """lo/hi approximations must bracket the value under every completion."""

    @given(st.integers(0, 2**32))
    @settings(max_examples=120, deadline=None)
    def test_brackets_every_completion(self, seed):
        rng = random.Random(seed)
        terms = term_pool(3)
        size = rng.randint(1, 3)
        full = random_interpretation(rng, terms, size)
        # expose a random subset of components in the partial assignment
        exposed = set()
        for t in terms:
            for aspect in (IND, CONC, ROLE):
                if rng.random() < 0.5:
                    exposed.add((aspect, t))
        if rng.random() < 0.5:
            exposed.add((TOPCTX, "CX"))

        concept = random_concept(rng, terms, rng.randint(0, 2))
        role = random_role(rng, terms, rng.randint(0, 2))
        slots = {}
        concept_ival = _interval(concept, slots)
        role_ival = _interval(role, slots)
        vals, dom = encode(full, slots, exposed), _Domain(size)
        clo, chi = concept_ival(vals, dom)
        rlo, rhi = role_ival(vals, dom)
        actual_c = eval_concept(concept, full)
        actual_r = eval_role(role, full)
        assert _decode_set(clo) <= actual_c <= _decode_set(chi)
        assert _decode_pairs(rlo, size) <= actual_r <= _decode_pairs(rhi, size)

    def test_exact_on_full_assignments(self):
        rng = random.Random(5)
        terms = term_pool(2)
        for _ in range(50):
            size = rng.randint(1, 3)
            full = random_interpretation(rng, terms, size)
            c = random_concept(rng, terms, 2)
            slots = {}
            ival = _interval(c, slots)
            lo, hi = ival(encode(full, slots), _Domain(size))
            assert lo == hi
            assert _decode_set(lo) == eval_concept(c, full)


def node_types(expr, acc):
    acc.add(type(expr))
    for value in vars(expr).values():
        for item in value if isinstance(value, tuple) else (value,):
            if hasattr(item, "__dataclass_fields__") and not isinstance(item, Term):
                node_types(item, acc)
    return acc


class TestMaskKernel:
    """The compiled exact evaluator against the frozenset evaluator."""

    @pytest.mark.parametrize("seed", [2024, 2025])
    def test_exact_matches_semantics(self, seed):
        rng = random.Random(seed)
        terms = term_pool(3)
        seen = set()
        for _ in range(400):
            size = rng.randint(1, 4)
            interp = random_interpretation(rng, terms, size)
            dom = _Domain(size)
            concept = random_concept(rng, terms, rng.randint(0, 3))
            role = random_role(rng, terms, rng.randint(0, 3))
            axiom = random_axiom(rng, terms, rng.randint(0, 2))
            slots = {}
            concept_fn = _exact(concept, slots, set())
            role_fn = _exact(role, slots, set())
            holds_fn = _Constraint(axiom, True, slots).holds
            vals = encode(interp, slots)
            assert _decode_set(concept_fn(vals, dom)) == eval_concept(concept, interp)
            assert _decode_pairs(role_fn(vals, dom), size) == eval_role(role, interp)
            assert holds_fn(vals, dom) is satisfies(interp, axiom)
            for expr in (concept, role, axiom):
                node_types(expr, seen)
        assert {Closure, AtMost, AtLeast, Inverse, Compose, Product, Nominals} <= seen


LEAVES = {Top, Bottom, TopCtx, ConceptAtom, RoleAtom, Nominals}
COMPOUND = (set(typing.get_args(ConceptExpr)) | set(typing.get_args(RoleExpr))) - LEAVES


# Rows without a useful backward rule, by the nodes they cover: projection
# stops at them.
NO_BACKWARD_RULE = {
    Closure: lambda e: True,
    AtMost: lambda e: e.bound > 0,
    AtLeast: lambda e: e.bound != 1,
}


def random_node(rng, ctor, terms):
    """A node of `ctor` over random children of depth 0 or 1, with the
    bound that gives `AtMost` and `AtLeast` a backward rule."""
    make = {int: lambda: 0 if ctor is AtMost else 1,
            ConceptExpr: lambda: random_concept(rng, terms, rng.randint(0, 1)),
            RoleExpr: lambda: random_role(rng, terms, rng.randint(0, 1))}
    return ctor(*(make[hint]() for hint in typing.get_type_hints(ctor).values()))


def random_inclusion(rng, node, terms):
    """An axiom with `node` as one side: of a concept or role inclusion, or
    as the concept or role of an assertion."""
    a, b = rng.choice(terms), rng.choice(terms)
    if isinstance(node, typing.get_args(RoleExpr)):
        other = random_role(rng, terms, rng.randint(0, 1))
        return rng.choice([RoleSub(node, other), RoleSub(other, node), RoleAssert(node, a, b)])
    other = random_concept(rng, terms, rng.randint(0, 1))
    return rng.choice([ConceptSub(node, other), ConceptSub(other, node), ConceptAssert(node, a)])


class TestMaskRules:
    """One mask rule per compound constructor drives both evaluators and
    the projection."""

    def test_every_compound_constructor_has_a_rule_per_child(self):
        assert set(_MASK_RULES) == COMPOUND
        sample = {int: 1, ConceptExpr: ConceptAtom(Term.nc("C")), RoleExpr: RoleAtom(Term.nc("R"))}
        for ctor, (_, monotone, _) in _MASK_RULES.items():
            node = ctor(*(sample[hint] for hint in typing.get_type_hints(ctor).values()))
            assert len(monotone) == len(children(node)), ctor

    @pytest.mark.parametrize("value", [Term.nc("C"), ConceptSub(Top(), Top()),
                                       RoleAssert(RoleAtom(Term.nc("R")), Term.nc("a"), Term.nc("b"))])
    def test_evaluators_reject_non_expressions(self, value):
        with pytest.raises(TypeError):
            _exact(value, {}, set())
        with pytest.raises(TypeError):
            _interval(value, {})

    def test_every_row_has_a_backward_rule_or_is_listed_without_one(self):
        for ctor, (_, _, back) in _MASK_RULES.items():
            for bound in (0, 1, 2):
                sample = {int: bound, ConceptExpr: ConceptAtom(Term.nc("C")), RoleExpr: RoleAtom(Term.nc("R"))}
                node = ctor(*(sample[hint] for hint in typing.get_type_hints(ctor).values()))
                listed = ctor in NO_BACKWARD_RULE and NO_BACKWARD_RULE[ctor](node)
                assert (back(node) is None) == listed, node

    @pytest.mark.parametrize("ctor", sorted(COMPOUND - {Closure}, key=lambda c: c.__name__))
    def test_projection_keeps_every_value_that_satisfies_the_constraint(self, ctor):
        # A node of `ctor` over random children, one side of a random
        # inclusion or assertion; the target is an atom the node reads,
        # read as a random bracket, the other components as in a random
        # interpretation. A wrong rule drops a satisfying value for some
        # draw, or forces a member that one lacks.
        rng = random.Random(ctor.__name__)
        terms = term_pool(2)
        narrowed = 0
        for _ in range(400):
            size = rng.randint(1, 2)
            node = random_node(rng, ctor, terms)
            slots = {}
            con = _Constraint(random_inclusion(rng, node, terms), True, slots)
            read = {}
            _interval(node, read)
            atoms = [comp for comp in read if comp[0] != IND]
            if not atoms:
                continue
            comp = rng.choice(atoms)
            slot, dom = slots[comp], _Domain(size)
            project = con.projector(slot)
            if project is None:  # the atom lies under a row without a rule only
                continue
            vals = encode(random_interpretation(rng, terms, size), slots)
            width = dom.pairs if comp[0] == ROLE else dom.full
            hi = (rng.getrandbits(size * size) | rng.getrandbits(size * size)) & width
            lo = hi & rng.getrandbits(size * size) & rng.getrandbits(size * size)
            vals[slot] = (lo, hi)
            plo, phi = project(vals, dom)
            narrowed += plo | lo != lo or phi & hi != hi
            for value in _submasks(lo, hi ^ lo):
                vals[slot] = value
                if con.holds(vals, dom):
                    assert not plo & ~value and not value & ~phi, (con.left, con.right, comp, lo, hi, value)
        assert narrowed > 40

    def test_interval_brackets_every_completion_for_every_constructor(self):
        # Seeded, so every compound constructor is generated, which pins
        # each monotonicity flag: a wrong flag swaps a bound and breaks the
        # bracketing for some draw.
        rng = random.Random(31)
        terms = term_pool(3)
        seen = set()
        for _ in range(400):
            size = rng.randint(1, 3)
            full = random_interpretation(rng, terms, size)
            exposed = {(aspect, t) for t in terms for aspect in (IND, CONC, ROLE) if rng.random() < 0.5}
            if rng.random() < 0.5:
                exposed.add((TOPCTX, "CX"))
            concept = random_concept(rng, terms, rng.randint(1, 3))
            role = random_role(rng, terms, rng.randint(1, 3))
            slots = {}
            concept_ival = _interval(concept, slots)
            role_ival = _interval(role, slots)
            vals, dom = encode(full, slots, exposed), _Domain(size)
            clo, chi = concept_ival(vals, dom)
            rlo, rhi = role_ival(vals, dom)
            assert _decode_set(clo) <= eval_concept(concept, full) <= _decode_set(chi)
            assert _decode_pairs(rlo, size) <= eval_role(role, full) <= _decode_pairs(rhi, size)
            node_types(concept, seen)
            node_types(role, seen)
        assert COMPOUND <= seen


def bracket_one_atom(rng, full, slots, vals, dom):
    """Replace the value of one random non-individual atom in `vals` by a
    random bracket `(lo, hi)` around its value under `full`."""
    atoms = [comp for comp in slots if comp[0] != IND]
    if not atoms:
        return
    comp = rng.choice(atoms)
    (value,) = encode(full, {comp: 0})
    width = dom.pairs if comp[0] == ROLE else dom.full
    vals[slots[comp]] = (value & rng.getrandbits(dom.n * dom.n), (value | rng.getrandbits(dom.n * dom.n)) & width)


def producer_axiom(rng, terms, target):
    """A random axiom of a shape consumed as a bound on a component of
    `target`: the axiom, whether it is required to hold, and the component."""
    concept, role = random_concept(rng, terms, rng.randint(0, 2)), random_role(rng, terms, rng.randint(0, 2))
    a, b = rng.choice(terms), rng.choice(terms)
    positive = rng.random() < 0.5
    conc, rel = (CONC, target), (ROLE, target)
    return rng.choice([
        (ConceptSub(ConceptAtom(target), concept), True, conc),
        (ConceptSub(concept, ConceptAtom(target)), True, conc),
        (RoleSub(RoleAtom(target), role), True, rel),
        (RoleSub(role, RoleAtom(target)), True, rel),
        (ConceptSub(Exists(RoleAtom(target), Top()), concept), True, rel),
        (ConceptSub(Top(), Forall(RoleAtom(target), concept)), True, rel),
        (ConceptAssert(ConceptAtom(target), a), positive, conc),
        (RoleAssert(RoleAtom(target), a, b), positive, rel),
    ])


class TestBracketReadings:
    """A component may read as a bracket `(lo, hi)` instead of a value: the
    check-first step reads a pushed frame's own bounds that way, and a bound
    clash is lifted by reading the deepest blamed frame that way."""

    def test_bracketed_atom_contains_every_completion(self):
        rng = random.Random(37)
        terms = term_pool(3)
        seen = set()
        for _ in range(400):
            size = rng.randint(1, 3)
            full = random_interpretation(rng, terms, size)
            exposed = {(aspect, t) for t in terms for aspect in (IND, CONC, ROLE) if rng.random() < 0.5}
            if rng.random() < 0.5:
                exposed.add((TOPCTX, "CX"))
            concept = random_concept(rng, terms, rng.randint(1, 3))
            role = random_role(rng, terms, rng.randint(1, 3))
            slots = {}
            concept_ival = _interval(concept, slots)
            role_ival = _interval(role, slots)
            vals, dom = encode(full, slots, exposed), _Domain(size)
            bracket_one_atom(rng, full, slots, vals, dom)
            clo, chi = concept_ival(vals, dom)
            rlo, rhi = role_ival(vals, dom)
            assert _decode_set(clo) <= eval_concept(concept, full) <= _decode_set(chi)
            assert _decode_pairs(rlo, size) <= eval_role(role, full) <= _decode_pairs(rhi, size)
            node_types(concept, seen)
            node_types(role, seen)
        assert COMPOUND <= seen

    def test_lifted_producer_bound_contains_exact_bound(self):
        rng = random.Random(41)
        terms = term_pool(3)
        target = Term.nc("target")
        kinds = set()
        for _ in range(400):
            size = rng.randint(1, 3)
            full = random_interpretation(rng, terms + [target], size)
            axiom, positive, comp = producer_axiom(rng, terms, target)
            slots = {}
            con = _Constraint(axiom, positive, slots)
            prod = _producer(con, slots[comp])
            assert prod is not None, axiom
            # Individuals are assigned before any component that holds a bracket.
            exposed = {c for c in slots if c[0] == IND or c != comp and rng.random() < 0.5}
            dom = _Domain(size)
            vals = encode(full, slots, exposed)
            bracket_one_atom(rng, full, {c: s for c, s in slots.items() if c != comp}, vals, dom)
            exact = prod.bound(encode(full, slots), dom)
            lifted = prod.lifted(vals, dom)
            if prod.kind == "U":
                assert not exact & ~lifted, axiom
            else:
                assert not lifted & ~exact, axiom
            kinds.add(prod.kind)
        assert kinds == {"L", "U", "X"}


class TestDecide:
    """Every axiom form is decided as one inclusion `left ⊑ right`: settled
    only the way every completion of the partial assignment settles it."""

    def test_settles_only_as_the_full_interpretation_does(self):
        rng = random.Random(43)
        terms = term_pool(3)
        forms, verdicts = set(), set()
        for _ in range(800):
            size = rng.randint(1, 3)
            full = random_interpretation(rng, terms, size)
            if rng.random() < 0.5:
                axiom = random_axiom(rng, terms, rng.randint(0, 2))
            else:  # the atom-sided shapes, the domain and range shapes among them
                axiom = producer_axiom(rng, terms, rng.choice(terms))[0]
            slots = {}
            decide = _Constraint(axiom, True, slots).decide
            dom = _Domain(size)
            expected = satisfies(full, axiom)
            assert decide(encode(full, slots), dom) is expected, axiom
            # One bracketed atom, and sometimes an unassigned individual.
            exposed = {c for c in slots if c[0] == IND or rng.random() < 0.5}
            individuals = [c for c in slots if c[0] == IND]
            if individuals and rng.random() < 0.3:
                exposed.discard(rng.choice(individuals))
            vals = encode(full, slots, exposed)
            bracket_one_atom(rng, full, slots, vals, dom)
            verdict = decide(vals, dom)
            assert verdict is None or verdict is expected, axiom
            forms.add(type(axiom))
            verdicts.add(verdict)
        assert forms == {ConceptSub, RoleSub, ConceptAssert, RoleAssert}
        assert verdicts == {True, False, None}

    @pytest.mark.parametrize("value", [ConceptAtom(Term.nc("C")), RoleAtom(Term.nc("R")), Term.nc("a")])
    def test_rejects_non_axioms(self, value):
        with pytest.raises(TypeError):
            _Constraint(value, True, {})


def side_reads(side):
    """The components one side of a constraint's inclusion reads; an
    assertion's left side is the tuple of its individuals."""
    return frozenset((IND, t) for t in side) if isinstance(side, tuple) else components(side)


def expected_bound_kind(con, comp):
    """The kind of bound `con` puts on `comp`, read from the components of
    its two sides: an atom that the other side does not read is bounded
    above ("U", on the left) or below ("L", on the right) by that side, and
    an assertion required to fail excludes its point ("X")."""
    left, right = con.left, con.right
    atoms = (ConceptAtom, RoleAtom, TopCtx)
    if not con.positive:
        return "X" if isinstance(left, tuple) and isinstance(right, atoms) and side_reads(right) == {comp} else None
    if isinstance(left, atoms) and side_reads(left) == {comp} and comp not in side_reads(right):
        return "U"
    if isinstance(right, atoms) and side_reads(right) == {comp} and comp not in side_reads(left):
        return "L"
    return None


class TestConstraintSlots:
    """A constraint compiles each side in one walk, which also collects the
    slots the side reads. Those slots must be exactly the components the
    axiom reads, and the bounds `_producer` reads off them must be the ones
    the components of each side give."""

    def test_slots_map_back_to_the_components_read(self):
        rng = random.Random(47)
        terms = term_pool(3)
        forms, kinds = set(), set()
        for _ in range(400):
            if rng.random() < 0.5:
                axiom, positive = random_axiom(rng, terms, rng.randint(0, 3)), rng.random() < 0.5
            else:  # the atom-sided shapes, which give bounds
                axiom, positive, _ = producer_axiom(rng, terms, rng.choice(terms))
            slots = {}
            con = _Constraint(axiom, positive, slots)
            keys = list(slots)
            assert {keys[s] for s in con.comps} == components(axiom), axiom
            assert len(keys) == len(con.comps), axiom
            for comp, slot in slots.items():
                prod = _producer(con, slot)
                kind = expected_bound_kind(con, comp)
                assert (prod and prod.kind) == kind, (axiom, positive, comp)
                kinds.add(kind)
            forms.add(type(axiom))
        assert forms == {ConceptSub, RoleSub, ConceptAssert, RoleAssert}
        assert kinds == {"L", "U", "X", None}


def backtracking_has_model(constraints, terms, max_size):
    """Whether some interpretation with at most `max_size` elements satisfies
    every axiom of `constraints` marked True and none marked False.

    A plain chronological backtracking over the components the axioms read,
    each axiom checked with `satisfies` once its components are assigned:
    no bounds, no intervals, no backjumping."""
    reads = [(components(ax), ax, positive) for ax, positive in constraints]
    order = sorted(set().union(*(comps for comps, _, _ in reads)), key=component_sort_key)
    position = {comp: i for i, comp in enumerate(order)}
    due = [[] for _ in range(len(order) + 1)]  # due[-1]: axioms that read no component
    for comps, ax, positive in reads:
        due[max((position[c] for c in comps), default=-1)].append((ax, positive))
    for n in range(1, max_size + 1):
        elems = list(range(n))
        pairs = [(x, y) for x in elems for y in elems]
        subsets = lambda items: [frozenset(c) for k in range(len(items) + 1)  # noqa: E731
                                 for c in itertools.combinations(items, k)]
        choices = {IND: elems, CONC: subsets(elems), TOPCTX: subsets(elems), ROLE: subsets(pairs)}
        # One model, updated in place: an axiom is checked only once every
        # component it reads holds its current value.
        model = Interpretation(n, {t: 0 for t in terms}, {t: frozenset() for t in terms},
                               {t: frozenset() for t in terms}, {"CX": frozenset()})
        tables = {IND: model.indiv, CONC: model.conc, ROLE: model.role, TOPCTX: model.top_ctx}

        def holds(i):
            return all(satisfies(model, ax) is positive for ax, positive in due[i])

        def extend(i):
            if i == len(order):
                return True
            aspect, key = order[i]
            for value in choices[aspect]:
                tables[aspect][key] = value
                if holds(i) and extend(i + 1):
                    return True
            return False

        if holds(-1) and extend(0):
            return True
    return False


def bound_chain_ontology(rng, terms):
    """Atomic inclusions, assertions, exclusions and domain/range axioms over
    few terms: every axiom is consumed as a bound, so bounds clash often and
    the clashes chain through several components."""
    inds, roles = terms[:2], terms[:2]

    def c():
        return ConceptAtom(rng.choice(terms))

    def r():
        return RoleAtom(rng.choice(roles))

    def i():
        return rng.choice(inds)

    shapes = [
        lambda: ConceptAssert(c(), i()),
        lambda: ConceptSub(c(), c()),
        lambda: ConceptSub(c(), ConceptNeg(rng.choice([c(), Nominals((i(),))]))),
        lambda: ConceptSub(ConceptIntersection(c(), ConceptNeg(c())), Bottom()),  # checked, not a bound
        lambda: RoleAssert(r(), i(), i()),
        lambda: RoleSub(r(), r()),
        lambda: ConceptSub(Exists(r(), Top()), c()),
        lambda: ConceptSub(Top(), Forall(r(), c())),
    ]
    return Ontology([rng.choice(shapes)() for _ in range(rng.randint(3, 7))])


class TestPruningAgainstBacktracking:
    """The check-first step and the lifted bound clashes fail frames without
    trying their candidates; a conflict set that misses a cause there makes
    the search skip a model. These inputs make both happen often, in
    satisfiable searches too."""

    def test_bound_chains(self):
        rng = random.Random(7)
        terms = term_pool(3)
        for _ in range(800):
            onto = bound_chain_ontology(rng, terms)
            expected = backtracking_has_model([(ax, True) for ax in onto.axioms], terms, 2)
            verdict = find_model(onto, 2)
            assert isinstance(verdict, SatisfiableAt) == expected, onto.axioms
            if expected:
                assert is_model(verdict.model, onto)

    def test_producer_shapes(self):
        rng = random.Random(8)
        terms = term_pool(3)
        for _ in range(200):
            premise = []
            for _ in range(rng.randint(2, 5)):
                if rng.random() < 0.8:
                    axiom, positive, _ = producer_axiom(rng, terms, rng.choice(terms))
                    if positive:
                        premise.append(axiom)
                else:
                    premise.append(random_axiom(rng, terms, rng.randint(0, 1)))
            premise = Ontology(premise)
            target = producer_axiom(rng, terms, rng.choice(terms))[0]
            conclusion = Ontology([target])
            constraints = [(ax, True) for ax in premise.axioms]
            has_model = backtracking_has_model(constraints, terms, 2)
            assert isinstance(find_model(premise, 2), SatisfiableAt) == has_model, premise.axioms
            expected = target not in premise.axioms and backtracking_has_model(
                constraints + [(target, False)], terms, 2)
            verdict = check_entailment(premise, conclusion, 2)
            assert isinstance(verdict, NotEntailed) == expected, (premise.axioms, target)


def subsets_between(lower, free):
    """The frozenset enumeration the mask kernel replaced: `lower` plus each
    subset of the sorted list `free`, bit j of a counter selecting free[j]."""
    for mask in range(1 << len(free)):
        yield frozenset(lower) | {free[j] for j in range(len(free)) if mask >> j & 1}


class TestSubmasks:
    def test_same_sequence_as_subset_enumeration(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(1, 3)
            role = rng.random() < 0.5
            universe = [(x, y) for x in range(n) for y in range(n)] if role else list(range(n))
            bit = (lambda p: p[0] * n + p[1]) if role else (lambda x: x)
            lower = {e for e in universe if rng.random() < 0.3}
            free = sorted(e for e in universe if e not in lower and rng.random() < 0.6)
            decode = (lambda m: _decode_pairs(m, n)) if role else _decode_set
            lower_mask = sum(1 << bit(e) for e in lower)
            free_mask = sum(1 << bit(e) for e in free)
            got = [decode(m) for m in _submasks(lower_mask, free_mask)]
            assert got == list(subsets_between(lower, free))


class TestWitnessDecoding:
    """A witness is decoded from the slots: every term of the signature gets
    a denotation, 0 / ∅ / ∅ where no slot reads it, and every context top
    the constraints read gets a subset."""

    def test_term_only_declared_denotes_nothing(self):
        a, b, extra = Term.nc("A"), Term.nc("b"), Term.nc("extra")
        onto = Ontology([ConceptAssert(ConceptAtom(a), b)], signature=[extra])
        model = find_model(onto, 2).model
        assert set(model.indiv) == set(model.conc) == set(model.role) == {a, b, extra}
        assert (model.indiv[extra], model.conc[extra], model.role[extra]) == (0, frozenset(), frozenset())
        assert is_model(model, onto)

    def test_countermodel_covers_conclusion_only_terms(self):
        a, b, c, d, x = (Term.nc(name) for name in ("A", "B", "C", "D", "x"))
        premise = Ontology([ConceptSub(ConceptAtom(a), ConceptAtom(b))])
        # The first target is violated at size 1; the second one's terms
        # are read by no constraint of that search.
        conclusion = Ontology([ConceptSub(ConceptAtom(a), ConceptAtom(c)),
                               RoleAssert(RoleAtom(d), x, x), ConceptAssert(TopCtx("K"), x)])
        verdict = check_entailment(premise, conclusion, 2)
        assert isinstance(verdict, NotEntailed)
        model = verdict.countermodel
        everything = premise.signature | conclusion.signature
        assert set(model.indiv) == set(model.conc) == set(model.role) == everything
        assert (model.indiv[x], model.role[d], model.top_ctx["K"]) == (0, frozenset(), frozenset())
        assert is_model(model, premise) and not is_model(model, conclusion)

    def test_every_context_top_read_is_decoded(self):
        rng = random.Random(53)
        terms = term_pool(3)
        ctx_ids, read = ("CX", "CY"), 0
        for _ in range(200):
            premise = Ontology([random_axiom(rng, terms, rng.randint(0, 2)) for _ in range(rng.randint(1, 3))]
                               + [ConceptSub(TopCtx(rng.choice(ctx_ids)), random_concept(rng, terms, 1))])
            target = ConceptSub(random_concept(rng, terms, 1, ctx_ids), random_concept(rng, terms, 1, ctx_ids))
            conclusion = Ontology([target])
            for verdict, ids, signature in (
                (find_model(premise, 2), collect_ctx_ids(premise), premise.signature),
                (check_entailment(premise, conclusion, 2), collect_ctx_ids(premise) | collect_ctx_ids(conclusion),
                 premise.signature | conclusion.signature),
            ):
                model = getattr(verdict, "model", None) or getattr(verdict, "countermodel", None)
                if model is None:
                    continue
                assert set(model.top_ctx) == ids
                assert set(model.indiv) == set(model.conc) == set(model.role) == signature
                assert is_model(model, premise)
                read += 1
        assert read > 100


def running_example_annotation(suffix="", ctx_id="CA"):
    def nc(name):
        return Term.nc(f"{name}{suffix}")

    def role(r, a, b):
        return RoleAssert(RoleAtom(nc(r)), nc(a), nc(b))

    def concept(c, a):
        return ConceptAssert(ConceptAtom(nc(c)), nc(a))

    abox = [
        role("validity", "a", "t"),
        concept("Interval", "t"),
        role("from", "t", "609BC"),
        role("to", "t", "539BC"),
        role("prov", "a", "w"),
        role("name", "w", "wikipedia"),
        concept("Wiki", "w"),
    ]
    return validate_annotation(nc("a"), abox, ctx_id=ctx_id)


def _rewrite(strategy, ontology):
    return contextualize(strategy, AnnotatedOntology(ontology, running_example_annotation()))


def _example7():
    return next((p, c) for name, p, c in curated_entailment_pairs() if name == "subsumption-propagation")


def _irreflexivity():
    return dict(curated_inconsistent_ontologies())["irreflexivity"]


# Smallest budget that decides each search; any change to the sequence of
# candidates tried (order, pruning, backjumps) moves it.
PINNED_SEARCHES = {
    "ndterms-irreflexivity": (
        lambda b: find_model(_rewrite(Strategy.ND_TERMS, _irreflexivity()), 3, budget=b),
        271, NoModelUpTo(3),
    ),
    "ndterms-example7-entailment": (
        lambda b: check_entailment(*(_rewrite(Strategy.ND_TERMS, o) for o in _example7()), 3, budget=b),
        289, NoCounterexampleUpTo(3),
    ),
    "irreflexivity-premise": (
        lambda b: find_model(_irreflexivity(), 3, budget=b), 6, NoModelUpTo(3),
    ),
    "rdf-irreflexivity": (
        lambda b: find_model(_rewrite(Strategy.RDF_REIFICATION, _irreflexivity()), 3, budget=b),
        19, None,
    ),
    # A retried projection failure that blames a position between the
    # lifted frame k and the failing one keeps frame k (82 without that
    # guard); either conflict set is sound, so only the count moves.
    "corpus-325-20-retry-guard": (
        lambda b: find_model(generate_corpus(325, 21, max_terms=5, max_axioms=6)[20][0], 3, budget=b),
        78, None,
    ),
}


class TestSearchTree:
    @pytest.mark.parametrize("name", sorted(PINNED_SEARCHES))
    def test_smallest_deciding_budget(self, name):
        search, budget, verdict = PINNED_SEARCHES[name]
        result = search(budget)
        if verdict is None:
            assert isinstance(result, SatisfiableAt)
        else:
            assert result == verdict
        with pytest.raises(BoundTooLargeError) as info:
            search(budget - 1)
        assert info.value.explored == budget

    def test_64_combined_contexts_within_default_recursion_limit(self):
        premise, _ = _example7()
        inputs = [
            AnnotatedOntology(premise, running_example_annotation(f"_{i}", ctx_id=f"C{i}"))
            for i in range(64)
        ]
        combined = combine_contexts(inputs, Strategy.ND_TERMS)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)  # the interpreter's default
        try:
            verdict = find_model(combined, 3)
        finally:
            sys.setrecursionlimit(limit)
        assert isinstance(verdict, SatisfiableAt) and verdict.size == 1
        assert is_model(verdict.model, combined)


# Statements 35, 172 and 187 of the `witness` benchmark corpus: punned,
# self-referential shapes that read roles through `inv`, `atmost(0, ...)`
# and `forall`. Each needed 6250, 12460 and 86679 candidates at bound 3
# before the projection.
PUNNED_STATEMENTS = {
    35: """ontology s35 {
  not(t0)(t0) .
  inv(t0)(t0, t0) .
  atmost(0, t0, bottom)(t0) .
  oneof(t0) sub or(forall(t0, t0), bottom) .
}""",
    172: """ontology s172 {
  oneof(t0)(t0) .
  oneof(t0) sub atmost(0, t0, atleast(0, t0, t0)) .
  inv(t0)(t0, t0) .
}""",
    187: """ontology s187 {
  atmost(2, inv(t0), not(top))(t1) .
  or(atmost(1, t0, t2), and(oneof(t2), top)) sub not(forall(t0, t1)) .
  forall(t0, bottom)(t2) .
  atleast(2, t2, exists(t2, t0))(t2) .
  atmost(2, t1, atleast(1, t2, top))(t1) .
  t0(t1, t2) .
}""",
}


class TestRefutationsWithinBudget:
    """Refutations that ran out of their budget before bound clashes were
    checked first and lifted (20000 candidates), or before constraints over
    compound shapes were projected onto the atoms under them (1000)."""

    @pytest.mark.parametrize("index", sorted(PUNNED_STATEMENTS))
    def test_punned_statement_has_no_model_up_to_3(self, index):
        (ontology,) = parse(PUNNED_STATEMENTS[index]).ontologies()
        assert find_model(ontology, 3, budget=1000) == NoModelUpTo(3)

    def test_ndterms_irreflexivity_has_no_model_up_to_6(self):
        assert find_model(_rewrite(Strategy.ND_TERMS, _irreflexivity()), 6, budget=20000) == NoModelUpTo(6)

    def test_ndterms_preserves_example7_entailment_at_bound_4(self):
        premise, conclusion = _example7()
        report = check_entailment_preservation(
            Strategy.ND_TERMS, premise, conclusion, running_example_annotation(), 4, budget=20000)
        assert report.outcome is Outcome.HOLDS
        assert report.conclusion_verdict == NoCounterexampleUpTo(4)

    # Before a failure blamed only the producers of the end of the bracket
    # it read, these took 136829 and 35608 candidates. The role chain's
    # statement names the annotation's anchor `a`.
    @pytest.mark.filterwarnings("ignore::ctxdl.strategies.SignatureOverlapWarning")
    @pytest.mark.parametrize("name, bound, budget", [
        ("subsumption-propagation", 6, 3000),
        ("role-chain", 5, 5000),
    ])
    def test_ndterms_preserves_entailment(self, name, bound, budget):
        premise, conclusion = next((p, c) for n, p, c in curated_entailment_pairs() if n == name)
        report = check_entailment_preservation(
            Strategy.ND_TERMS, premise, conclusion, running_example_annotation(), bound, budget=budget)
        assert report.outcome is Outcome.HOLDS
        assert report.conclusion_verdict == NoCounterexampleUpTo(bound)


# Satisfiable statements `generate_corpus(seed, ..., max_terms=4,
# max_axioms=5)[index]`, as "seed/index", where the retry of a projection
# failure fails a frame whole in `find_model(..., 3)`.
RETRIED_STATEMENTS = """
10/149 13/153 23/21 25/182 32/192 37/188 40/46 40/61 41/167 43/149 47/43 57/101 59/83 61/123 66/130
68/188 69/119 73/129 79/186 85/84 86/93 89/143 91/21 91/186 94/33 96/136 103/199 105/140 108/5 117/34
121/57 123/76 123/139 128/67 128/171 131/130 138/21 144/151 147/112 148/156 152/9 152/61 154/24
154/158 156/53 160/16 162/186 163/174 164/120 166/176 167/97 173/115 175/127 177/65 177/175 183/50
184/172 185/71 186/62 190/141 195/130 200/45 203/185 207/119 209/127 210/171 229/48 235/89 237/82
238/3 248/33 248/59 252/20 254/75 269/95 269/192 270/102 272/136 274/47 275/24 275/26 281/8 288/156
289/55 290/174 294/183 296/6 298/184
""".split()


class TestLiftedRetry:
    """A check-first failure that narrowing took part in is retried with the
    deepest position it blames reading its frame's bracket, and if it fails
    again, that frame fails whole. Only frames without a model may go so: the
    search finds the same first witness as without the retry."""

    def test_retry_keeps_the_first_witness(self, monkeypatch):
        def outcome(onto):
            verdict = find_model(onto, 3, budget=3000)
            if isinstance(verdict, SatisfiableAt):
                assert is_model(verdict.model, onto)
            return verdict

        ontologies = []
        for entry in RETRIED_STATEMENTS:
            seed, index = map(int, entry.split("/"))
            ontologies.append(generate_corpus(seed, index + 1, max_terms=4, max_axioms=5)[index][0])
        retried = [outcome(onto) for onto in ontologies]
        monkeypatch.setattr(search_module, "_lift_position", lambda plan, blame, reads: -1)
        plain = [outcome(onto) for onto in ontologies]
        assert all(isinstance(verdict, SatisfiableAt) for verdict in plain)
        for entry, with_retry, without in zip(RETRIED_STATEMENTS, retried, plain):
            assert isinstance(with_retry, SatisfiableAt), entry
            assert (with_retry.size, with_retry.model) == (without.size, without.model), entry


def random_bracket(rng, width):
    """A random `(lo, hi)` with lo inside hi inside `width`."""
    hi = rng.getrandbits(width.bit_length()) & width
    return hi & rng.getrandbits(width.bit_length()), hi


class TestPolarity:
    """The end of an atom's bracket a failure reads follows from the mask
    rules' monotonicity flags: where an expression is monotone in every
    occurrence of an atom, its low end reads only the atom's low end, and
    where antitone, only the high end."""

    def test_raising_the_atom_moves_the_value_as_the_polarity_says(self):
        rng = random.Random(53)
        terms = term_pool(2)
        seen = set()
        for _ in range(400):
            size = rng.randint(1, 2)
            expr = (random_concept if rng.random() < 0.6 else random_role)(rng, terms, rng.randint(1, 3))
            slots = {}
            value_of = _exact(expr, slots, set())
            atoms = [comp for comp in slots if comp[0] != IND]
            if not atoms:
                continue
            comp = rng.choice(atoms)
            slot, dom = slots[comp], _Domain(size)
            ends = _polarity(expr, slots, slot)
            assert ends in (1, 2, 3), expr
            seen.add(ends)
            vals = encode(random_interpretation(rng, terms, size), slots)
            width = dom.pairs if comp[0] == ROLE else dom.full
            values = {}
            for atom in range(width + 1):
                vals[slot] = atom
                values[atom] = value_of(vals, dom)
            for low in values:
                for high in _submasks(low, width ^ low):
                    if ends == 1:  # monotone: raising the atom removes no member
                        assert not values[low] & ~values[high], (expr, comp)
                    elif ends == 2:  # antitone: it adds none
                        assert not values[high] & ~values[low], (expr, comp)
        assert seen == {1, 2, 3}

    def test_a_failure_holds_on_the_bracket_widened_past_the_end_it_reads(self):
        # A constraint settled against its sign on a bracket of one atom is
        # settled so on the bracket with the end it does not read widened
        # to everything: (lo, full) or (0, hi).
        rng = random.Random(59)
        terms = term_pool(3)
        refined = set()
        for _ in range(1500):
            size = rng.randint(1, 3)
            axiom = random_axiom(rng, terms, rng.randint(0, 2))
            positive = rng.random() < 0.5
            slots = {}
            con = _Constraint(axiom, positive, slots)
            atoms = [comp for comp in slots if comp[0] != IND]
            if not atoms:
                continue
            comp = rng.choice(atoms)
            slot, dom = slots[comp], _Domain(size)
            width = dom.pairs if comp[0] == ROLE else dom.full
            vals = encode(random_interpretation(rng, terms, size), slots)
            lo, hi = vals[slot] = random_bracket(rng, width)
            if con.decide(vals, dom) is not (not positive):
                continue
            ends = con.failure_ends(slot)
            vals[slot] = (lo if ends & 1 else 0, hi if ends & 2 else width)
            assert con.decide(vals, dom) is (not positive), (axiom, positive, comp, lo, hi)
            if ends != 3:
                refined.add((positive, ends))
        assert refined == {(True, 1), (True, 2), (False, 1), (False, 2)}


def pinned(plan, p, conflict):
    """The producers at position p whose positions all lie in `conflict`."""
    return [prod for prod in plan.producers_at[p] if not prod.reads & ~conflict]


def pinned_bracket(plan, p, conflict, vals, d):
    """The bracket at position p that the producers pinned by `conflict`
    give; the others are dropped."""
    return search_module._bracket(pinned(plan, p, conflict), vals, d, d.pairs if plan.aspects[p] == ROLE else d.full)


def lifted_bounds_clash(producers, vals, d):
    """Whether the lifted bounds of `producers` clash."""
    lower, upper = 0, -1
    for prod in producers:
        mask = prod.lifted(vals, d)
        if prod.kind == "L":
            lower |= mask
        elif prod.kind == "U":
            upper &= mask
        else:
            upper &= ~mask
    return bool(lower & ~upper)


def curated_searches(bounds):
    """Each search of the curated suites at each bound: the originals, and
    their rewrites under every strategy with the running example's
    annotation."""
    ca = running_example_annotation()
    inconsistent = curated_inconsistent_ontologies()
    pairs = curated_entailment_pairs()

    def rewrite(strategy, onto):
        if strategy is None:
            return onto
        with warnings.catch_warnings():  # the curated suites overlap the annotation on purpose
            warnings.simplefilter("ignore")
            return contextualize(strategy, AnnotatedOntology(onto, ca))

    for bound in bounds:
        for strategy in (None, *Strategy):
            for name, onto in inconsistent:
                yield f"inc/{name}/{strategy}/b{bound}", lambda o=rewrite(strategy, onto), b=bound: find_model(o, b)
            for name, premise, conclusion in pairs:
                yield f"ent/{name}/{strategy}/b{bound}", lambda p=rewrite(strategy, premise), \
                    c=rewrite(strategy, conclusion), b=bound: check_entailment(p, c, b)


def seeded_searches():
    """Corpus statements, and random ontologies and entailment pairs, at
    bound 3 with a budget of 3000 each. Seven of the random searches try
    fewer candidates with precise conflict sets."""
    for index, (onto, _) in enumerate(generate_corpus(3, 200, max_terms=4, max_axioms=5)):
        yield f"statement/{index}", lambda o=onto: find_model(o, 3, budget=3000)
    rng = random.Random(99)
    for index in range(1500):
        terms = term_pool(rng.randint(1, 3))
        premise = Ontology([random_axiom(rng, terms, rng.randint(0, 2)) for _ in range(rng.randint(1, 4))])
        conclusion = Ontology([random_axiom(rng, terms, rng.randint(0, 2)) for _ in range(rng.randint(1, 2))])
        yield f"random/{index}", lambda p=premise: find_model(p, 3, budget=3000)
        yield f"pair/{index}", lambda p=premise, c=conclusion: check_entailment(p, c, 3, budget=3000)


def counted(monkeypatch, search):
    """The verdict of `search()` with its witness, or None at a budget-out,
    and the candidates it tried."""
    budgets = []

    class Recording(search_module._Budget):
        def __init__(self, limit):
            super().__init__(limit)
            budgets.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(search_module, "_Budget", Recording)
        try:
            verdict = search()
        except BoundTooLargeError:
            return None, sum(b.used for b in budgets)
    witness = getattr(verdict, "model", None) or getattr(verdict, "countermodel", None)
    return (type(verdict), getattr(verdict, "size", None), getattr(verdict, "bound", None), witness), \
        sum(b.used for b in budgets)


def coarsen(patch):
    """Blame every producer of a failing position, as before conflict sets
    were made precise: every bracket end is read, and a clash is explained
    by all the producers at its position."""
    patch.setattr(search_module, "_polarity", lambda e, slots, target: 3)

    def all_producers(producers, masks):
        lower, upper = 0, -1
        for prod, mask in zip(producers, masks):
            if prod.kind == "L":
                lower |= mask
            else:
                upper &= mask if prod.kind == "U" else ~mask
        return [tuple(producers)] if lower & ~upper else []

    patch.setattr(search_module, "_clash_pairs", all_producers)


class TestPreciseConflicts:
    """A check-first failure blames only the producers that set the end of
    the bracket it reads, and a lifted clash one forcing and one excluding
    producer. The conflict sets must stay sound: what they name still
    forces the failure, so the search finds the same verdicts and first
    witnesses as with every producer blamed, and never tries more."""

    def test_blamed_producers_still_force_the_failure(self, monkeypatch):
        plan_group, clash_conflict = search_module._plan_group, search_module._clash_conflict
        seen = {"refined": 0, "lifted": 0}

        # Each check first reads a check's `decide` from its plan entry; the
        # conflict set of its failure is computed once per entry, so every
        # failure is checked against it here.
        def checked(plan, i, entry):
            decide, con, slot = entry[1], entry[4], plan.slots[i]

            def check_first(vals, d):
                settled = decide(vals, d)
                full = d.pairs if plan.aspects[i] == ROLE else d.full
                unnarrowed = vals[slot] == search_module._bracket(plan.producers_at[i], vals, d, full)
                if settled is (not con.positive) and unnarrowed:
                    conflict = search_module._check_conflict(plan, i, con, entry[3])
                    widened = list(vals)
                    widened[slot] = pinned_bracket(plan, i, conflict, vals, d)
                    assert decide(widened, d) is settled, (con.left, con.right)
                    seen["refined"] += conflict != entry[3] | plan.producer_reads[i]
                return settled

            return check_first

        def planned(*args):
            plan = plan_group(*args)
            for i, entries in enumerate(plan.checks_at):
                for entry in entries:
                    entry[1] = checked(plan, i, entry)
            return plan

        def clash(plan, frames, j, vals, d):
            conflict = clash_conflict(plan, frames, j, vals, d)
            assert not conflict >> j
            lower, upper = pinned_bracket(plan, j, conflict, vals, d)
            if not lower & ~upper:
                # Lifted: some position k outside the conflict set reads the
                # bracket the conflict set pins, and the bounds still clash.
                def lifts(k):
                    if plan.aspects[k] == IND or conflict >> k & 1:
                        return False
                    frame, slot = frames[k], plan.slots[k]
                    bracket = pinned_bracket(plan, k, conflict, vals, d)
                    if not frame[1] & ~conflict and not frame[2] & ~conflict:
                        bracket = frame[3], frame[4]  # narrowing, too, is pinned
                    value, vals[slot] = vals[slot], bracket
                    try:
                        return lifted_bounds_clash(pinned(plan, j, conflict | 1 << k), vals, d)
                    finally:
                        vals[slot] = value

                assert any(lifts(k) for k in range(j)), j
                seen["lifted"] += 1
            return conflict

        monkeypatch.setattr(search_module, "_plan_group", planned)
        monkeypatch.setattr(search_module, "_clash_conflict", clash)
        for _, search in itertools.chain(curated_searches((3, 4)), seeded_searches()):
            try:
                search()
            except BoundTooLargeError:
                pass
        assert seen["refined"] > 5000 and seen["lifted"] > 200, seen

    def test_same_verdicts_and_no_more_candidates_than_blaming_every_producer(self, monkeypatch):
        searches = list(itertools.chain(curated_searches((3, 4, 5)), seeded_searches()))
        precise = [counted(monkeypatch, search) for _, search in searches]
        with monkeypatch.context() as patch:
            coarsen(patch)
            coarse = [counted(monkeypatch, search) for _, search in searches]
        fewer = 0
        for (name, _), (verdict, tried), (coarse_verdict, coarse_tried) in zip(searches, precise, coarse):
            if verdict is not None and coarse_verdict is not None:
                assert verdict == coarse_verdict, name
            assert coarse_verdict is None or verdict is not None, name
            assert tried <= coarse_tried, name
            fewer += tried < coarse_tried
        assert fewer >= 22


@pytest.mark.parametrize("search", [
    lambda b: find_model(Ontology([]), 1, budget=b),
    lambda b: check_entailment(Ontology([]), Ontology([]), 1, budget=b),
])
def test_negative_budget_is_refused(search):
    with pytest.raises(ValueError, match="budget"):
        search(-3)
    assert search(0) is not None


WITNESSES_UNDER_A_HASH_SEED = """
from ctxdl.core import (ConceptAssert, ConceptAtom, ConceptNeg, ConceptSub, ConceptUnion, Ontology, RoleAssert,
                        RoleAtom, RoleSub, Term, TopCtx)
from ctxdl.search import check_entailment, find_model

def show(title, model):
    print(title, "domain", model.size)
    for aspect, table in (("indiv", model.indiv), ("conc", model.conc), ("role", model.role)):
        for t in sorted(table, key=Term.sort_key):
            value = table[t] if aspect == "indiv" else sorted(table[t])
            print(aspect, t.name, t.kind.value, value)
    for cid in sorted(model.top_ctx):
        print("top", cid, sorted(model.top_ctx[cid]))

nc = Term.nc
plain, contextual = ConceptAtom(nc("A")), ConceptAtom(Term.ctx("A"))
onto = Ontology([
    # Two terms that differ only in kind.
    ConceptSub(plain, ConceptNeg(contextual)),
    ConceptAssert(ConceptUnion(plain, contextual), nc("x")),
])
show("same-name", find_model(onto, 2).model)
# Four independent groups; the second is satisfiable only at size 2.
groups = Ontology([
    *onto.axioms,
    ConceptAssert(ConceptAtom(nc("B")), nc("y")),
    ConceptAssert(ConceptNeg(ConceptAtom(nc("B"))), nc("z")),
    RoleAssert(RoleAtom(nc("r")), nc("u"), nc("v")),
    RoleSub(RoleAtom(nc("r")), RoleAtom(nc("s"))),
    ConceptSub(TopCtx("K"), ConceptAtom(nc("C"))),
    ConceptAssert(TopCtx("K"), nc("w")),
])
show("groups", find_model(groups, 3).model)
conclusion = Ontology([ConceptSub(ConceptAtom(nc("B")), ConceptAtom(nc("E"))),
                       ConceptAssert(TopCtx("L"), nc("fresh"))])
show("countermodel", check_entailment(groups, conclusion, 3).countermodel)
"""


def test_witness_does_not_depend_on_the_hash_seed():
    # Two terms that differ only in kind tie on their names; the search order
    # must break the tie by kind, not by set iteration order. Groups are
    # formed and ordered over slot sets, and the witness is decoded from the
    # slots, neither of which may follow the hash seed either.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    witnesses = set()
    for seed in range(1, 7):
        env = {**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": str(seed)}
        done = subprocess.run([sys.executable, "-c", WITNESSES_UNDER_A_HASH_SEED],
                              capture_output=True, text=True, env=env, timeout=120, check=True)
        witnesses.add(done.stdout)
    assert len(witnesses) == 1
    (witness,) = witnesses
    assert "groups domain 2" in witness and "countermodel domain 2" in witness
    assert "top K [0]" in witness and "top L []" in witness
