"""Independent oracles used only by tests.

`direct_concept` / `direct_role` re-derive expression values with plain set
comprehensions over explicit domain loops, deliberately written apart from
the library evaluator so the two can be compared. `all_interpretations`
enumerates every interpretation over a signature at a fixed domain size for
brute-force model checks. `components` reads the denotation components an
axiom reads straight from the expression tree, apart from the search's own
compile walk.
"""

import itertools

from ctxdl.core import (
    AtLeast,
    AtMost,
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
    Nominals,
    Product,
    RoleAssert,
    RoleAtom,
    RoleIntersection,
    RoleNeg,
    RoleSub,
    RoleUnion,
    Term,
    Top,
    TopCtx,
    own_terms,
    walk,
)
from ctxdl.search import CONC, IND, ROLE, TOPCTX
from ctxdl.semantics import Interpretation


def components(x):
    """The denotation components an axiom or expression reads, named as the
    search names them: `(CONC, term)` / `(ROLE, term)` for each atom,
    `(TOPCTX, id)` for each context top, and `(IND, term)` for each term a
    nominal or an assertion holds itself."""
    acc = set()
    for node in walk(x):
        if isinstance(node, ConceptAtom):
            acc.add((CONC, node.term))
        elif isinstance(node, RoleAtom):
            acc.add((ROLE, node.term))
        elif isinstance(node, TopCtx):
            acc.add((TOPCTX, node.ctx_id))
        else:
            acc.update((IND, t) for t in own_terms(node))
    return frozenset(acc)


def component_sort_key(comp):
    """A total order on components that does not depend on hashing."""
    aspect, key = comp
    return (aspect, *key.sort_key()) if isinstance(key, Term) else (aspect, key)


def direct_concept(expr, interp, reflexive_closure=True):
    dom = set(range(interp.size))
    if isinstance(expr, Top):
        return dom
    if isinstance(expr, Bottom):
        return set()
    if isinstance(expr, TopCtx):
        return set(interp.top_ctx[expr.ctx_id])
    if isinstance(expr, ConceptAtom):
        return set(interp.conc[expr.term])
    if isinstance(expr, ConceptUnion):
        return direct_concept(expr.left, interp, reflexive_closure) | direct_concept(
            expr.right, interp, reflexive_closure
        )
    if isinstance(expr, ConceptIntersection):
        return direct_concept(expr.left, interp, reflexive_closure) & direct_concept(
            expr.right, interp, reflexive_closure
        )
    if isinstance(expr, ConceptNeg):
        return dom - direct_concept(expr.sub, interp, reflexive_closure)
    if isinstance(expr, Exists):
        r = direct_role(expr.role, interp, reflexive_closure)
        c = direct_concept(expr.concept, interp, reflexive_closure)
        return {x for x in dom if any((x, y) in r and y in c for y in dom)}
    if isinstance(expr, Forall):
        r = direct_role(expr.role, interp, reflexive_closure)
        c = direct_concept(expr.concept, interp, reflexive_closure)
        return {x for x in dom if all((x, y) not in r or y in c for y in dom)}
    if isinstance(expr, AtMost):
        r = direct_role(expr.role, interp, reflexive_closure)
        c = direct_concept(expr.concept, interp, reflexive_closure)
        return {x for x in dom if len([y for y in dom if (x, y) in r and y in c]) <= expr.bound}
    if isinstance(expr, AtLeast):
        r = direct_role(expr.role, interp, reflexive_closure)
        c = direct_concept(expr.concept, interp, reflexive_closure)
        return {x for x in dom if len([y for y in dom if (x, y) in r and y in c]) >= expr.bound}
    if isinstance(expr, Nominals):
        return {interp.indiv[u] for u in expr.members}
    raise TypeError(expr)


def direct_role(expr, interp, reflexive_closure=True):
    dom = set(range(interp.size))
    square = {(x, y) for x in dom for y in dom}
    if isinstance(expr, RoleAtom):
        return set(interp.role[expr.term])
    if isinstance(expr, RoleUnion):
        return direct_role(expr.left, interp, reflexive_closure) | direct_role(
            expr.right, interp, reflexive_closure
        )
    if isinstance(expr, RoleIntersection):
        return direct_role(expr.left, interp, reflexive_closure) & direct_role(
            expr.right, interp, reflexive_closure
        )
    if isinstance(expr, RoleNeg):
        return square - direct_role(expr.sub, interp, reflexive_closure)
    if isinstance(expr, Inverse):
        r = direct_role(expr.sub, interp, reflexive_closure)
        return {(y, x) for (x, y) in r}
    if isinstance(expr, Compose):
        r = direct_role(expr.left, interp, reflexive_closure)
        s = direct_role(expr.right, interp, reflexive_closure)
        return {(x, y) for x in dom for y in dom if any((x, z) in r and (z, y) in s for z in dom)}
    if isinstance(expr, Closure):
        r = direct_role(expr.sub, interp, reflexive_closure)
        # power the adjacency matrix: paths of every length up to |dom|
        reach = {(x, x) for x in dom} if reflexive_closure else set()
        frontier = {(x, x) for x in dom}
        for _ in range(len(dom) + 1):
            frontier = {(x, y) for x in dom for y in dom if any((x, z) in frontier and (z, y) in r for z in dom)}
            if reflexive_closure:
                reach |= frontier
        if not reflexive_closure:
            paths = set(r)
            for _ in range(len(dom)):
                paths = paths | {(x, y) for x in dom for y in dom if any((x, z) in paths and (z, y) in r for z in dom)}
            reach = paths
        return reach
    if isinstance(expr, Product):
        c = direct_concept(expr.left, interp, reflexive_closure)
        d = direct_concept(expr.right, interp, reflexive_closure)
        return {(x, y) for x in c for y in d}
    raise TypeError(expr)


def direct_satisfies(interp, axiom):
    if isinstance(axiom, ConceptSub):
        return direct_concept(axiom.left, interp) <= direct_concept(axiom.right, interp)
    if isinstance(axiom, RoleSub):
        return direct_role(axiom.left, interp) <= direct_role(axiom.right, interp)
    if isinstance(axiom, ConceptAssert):
        return interp.indiv[axiom.individual] in direct_concept(axiom.concept, interp)
    if isinstance(axiom, RoleAssert):
        return (interp.indiv[axiom.subject], interp.indiv[axiom.object]) in direct_role(
            axiom.role, interp
        )
    raise TypeError(axiom)


def direct_is_model(interp, ontology):
    return all(direct_satisfies(interp, ax) for ax in ontology.axioms)


def collect_ctx_ids(ontology):
    ids = set()
    stack = list(ontology.axioms)
    while stack:
        v = stack.pop()
        if isinstance(v, TopCtx):
            ids.add(v.ctx_id)
        elif hasattr(v, "__dataclass_fields__"):
            for f in v.__dataclass_fields__:
                stack.append(getattr(v, f))
    return ids


def all_interpretations(sig_terms, ctx_ids, size):
    """Every interpretation over the given terms at exactly this domain size."""
    terms = sorted(sig_terms, key=Term.sort_key)
    ctx_ids = sorted(ctx_ids)
    elems = list(range(size))
    pairs = [(x, y) for x in elems for y in elems]
    el_subsets = [frozenset(c) for k in range(size + 1) for c in itertools.combinations(elems, k)]
    pair_subsets = [
        frozenset(c) for k in range(len(pairs) + 1) for c in itertools.combinations(pairs, k)
    ]
    for ind in itertools.product(elems, repeat=len(terms)):
        for conc in itertools.product(el_subsets, repeat=len(terms)):
            for role in itertools.product(pair_subsets, repeat=len(terms)):
                for tops in itertools.product(el_subsets, repeat=len(ctx_ids)):
                    yield Interpretation(
                        size,
                        dict(zip(terms, ind)),
                        dict(zip(terms, conc)),
                        dict(zip(terms, role)),
                        dict(zip(ctx_ids, tops)),
                    )


def brute_force_has_model(ontology, max_size):
    from ctxdl.semantics import is_model

    ids = collect_ctx_ids(ontology)
    for size in range(1, max_size + 1):
        for interp in all_interpretations(ontology.signature, ids, size):
            if is_model(interp, ontology):
                return True
    return False
