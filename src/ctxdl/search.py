"""Bounded model and countermodel search, complete up to a domain-size bound.

The search assigns denotations component by component, where a component is
one aspect of one term: its individual element, its concept subset, its role
relation, or the subset interpreting a context top. Usage analysis keeps the
branching limited to aspects the axioms actually read.

Denotations are int masks over the domain {0..n-1}: an individual is an int,
a concept or context top has bit x set for each member x, and a role has bit
x*n+y set for each pair (x, y), so increasing bit order is the sorted-pair
order. Each component gets an integer slot once per call; a partial
assignment is a list indexed by slot, with None for unassigned.

Every axiom is read as one inclusion `left ⊑ right` of masks: a concept or
role inclusion keeps its sides, and an assertion's left side is its point,
the singleton of its individual or of its pair. So an axiom holds when
`left & ~right` is empty, and is settled under a partial assignment when the
high end of `left` lies inside the low end of `right` (it holds) or the low
end of `left` leaves the high end of `right` (it fails). Planning is one
compile walk per side: it builds the side's exact closure over slots and
collects the slots the side reads, which give the constraint's components
and the atoms it can bound; a bound reuses that closure. Interval closures
are compiled on first use, for checked axioms and lifted bounds, and a
projector per axiom and atom on its first projection. All follow one table
of mask rules, one per compound constructor, and take the domain size at
run time, so one plan serves every size. A witness is decoded from the
slots in one pass.

Pruning machinery, in order of impact:

* an inclusion whose one side is an atom that the other side does not read
  becomes a bound on that atom's component: an upper bound from the right
  side, a lower bound from the left (an assertion's point is a forced
  member), and an assertion required to fail excludes its point. Where the
  role is an atom, the domain and range shapes `∃R.⊤ ⊑ D` and `⊤ ⊑ ∀R.C`
  produced by relativization are read as `R ⊑ D×⊤` and `R ⊑ ⊤×C`, and bound
  the role too. Only subsets between the bounds are enumerated;
* a component whose every constraint is consumed as its bound is tried at
  its lower bound only, and needs no rule for that: its first candidate is
  the lower bound, no later check reads it, so no conflict set names it, and
  backjumping pops its frame without trying a second candidate;
* check first: before a component's candidates are tried, the axioms whose
  last component it is are decided with its atom reading the bracket
  `(lower, upper)`; an axiom settled against there fails every candidate,
  so the frame fails without trying one, and an axiom settled in favour
  is not checked per candidate;
* backward projection (HC4-revise, Benhamou et al. 1999): each mask rule
  also has a backward rule, which turns the bounds required of a node and
  the intervals of its other children into bounds on each child. At a
  position where a frame has already failed in the group's search, each
  positive axiom that check first leaves open pushes its required bounds
  (the left side inside the high end of the right side, the right side
  around the low end of the left side) down to the position's own atom and
  narrows the bracket; an empty bracket fails the frame, and the open
  axioms are decided again on the narrowed one. The constraints that
  narrowed it start the frame's conflict set. Surviving candidates keep
  their order, so the first witness does not move;
* a clash between the bounds (a forced member that is not allowed) is
  lifted: the bounds are recomputed under interval semantics with the
  deepest component they read reading its own bracket, and if the clash
  survives, that component's frame fails whole instead of trying its
  remaining candidates. A check-first failure that narrowing took part in
  is lifted the same way, by one retry of the position's check first;
* precise conflict sets: a failure blames only the bounds it read. The
  mask rules' monotonicity flags give the polarity of an atom in an axiom,
  and where the atom occurs one way only, a check-first failure on the
  bracket reads one end of it: the low end, set by the lower bounds, or
  the high end, set by the upper and excluding ones. Only the producers of
  that end are blamed. A clash is blamed on one member that one bound
  forces and another excludes, and a lifted one replaces the bracketed
  component by the producers of the ends the two lifted bounds read.
  Polarity is computed on a failure path only, once per axiom and slot;
* axioms are re-checked as soon as their last component is assigned, and
  interval-checked at each earlier one;
* independent subproblems (connected components of the axiom/term graph) are
  solved separately and merged;
* on failure, conflict-directed backjumping skips re-enumeration of
  components that did not contribute to the conflict.

Verdicts are always relative to the bound; `NoModelUpTo(n)` is a complete
claim for every domain of size <= n over the ontology's signature.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, Iterator, Optional, Sequence

from .core import (
    AtLeast,
    AtMost,
    Axiom,
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
    Ontology,
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
    children,
)
from .semantics import (  # noqa: F401  eval_*/satisfies: re-exported replay evaluator
    BoundTooLargeError,
    Interpretation,
    NoCounterexampleUpTo,
    NoModelUpTo,
    NotEntailed,
    SatisfiableAt,
    eval_concept,
    eval_role,
    satisfies,
)

DEFAULT_BUDGET = 1_000_000_000

# Component aspects: individual, concept, role, context top.
IND, CONC, ROLE, TOPCTX = "i", "c", "r", "t"

CompKey = tuple[str, object]
Slots = dict  # CompKey -> slot index, filled as constraints are compiled
Vals = list  # slot -> int (individual) / mask, or None while unassigned


def _slot(slots: Slots, comp: CompKey) -> int:
    return slots.setdefault(comp, len(slots))


# ---------------------------------------------------------------------------
# Usage analysis
# ---------------------------------------------------------------------------


# The component each type of atom reads; no other node reads one itself.
_ATOMS: dict[type, Callable[..., CompKey]] = {
    TopCtx: lambda e: (TOPCTX, e.ctx_id),
    ConceptAtom: lambda e: (CONC, e.term),
    RoleAtom: lambda e: (ROLE, e.term),
}


# ---------------------------------------------------------------------------
# Mask operations
# ---------------------------------------------------------------------------


class _Domain:
    """Mask constants of the domain {0..n-1}."""

    __slots__ = ("n", "full", "pairs", "rep")

    def __init__(self, n: int):
        self.n = n
        self.full = (1 << n) - 1  # every element
        self.pairs = (1 << n * n) - 1  # every pair
        self.rep = sum(1 << x * n for x in range(n))  # concept * rep = that concept in every row


def _exists(rel: int, c: int, d: _Domain) -> int:
    m = rel & c * d.rep
    n, full = d.n, d.full
    out, x = 0, 0
    while m:
        if m & full:
            out |= 1 << x
        m >>= n
        x += 1
    return out


def _forall(rel: int, c: int, d: _Domain) -> int:
    return d.full ^ _exists(rel, d.full ^ c, d)


def _at_most(rel: int, c: int, k: int, d: _Domain) -> int:
    """Elements with at most k rel-successors in c."""
    m = rel & c * d.rep
    n, full = d.n, d.full
    if not m or k >= n:
        return full if k >= 0 else 0
    out = 0
    for x in range(n):
        if (m >> x * n & full).bit_count() <= k:
            out |= 1 << x
    return out


def _inverse(rel: int, d: _Domain) -> int:
    n = d.n
    out = 0
    while rel:
        low = rel & -rel
        bit = low.bit_length() - 1
        out |= 1 << (bit % n * n + bit // n)
        rel ^= low
    return out


def _compose(left: int, right: int, d: _Domain) -> int:
    n, full, rep = d.n, d.full, d.rep
    out = 0
    for y in range(n):
        # The pairs (x, y) of left, as bits x*n, times row y of right: that
        # row in every row x.
        out |= (left >> y & rep) * (right >> y * n & full)
    return out


def _closure(rel: int, d: _Domain) -> int:
    """Reflexive-transitive closure: Warshall's, plus the diagonal."""
    n, full = d.n, d.full
    rows = [rel >> x * n & full for x in range(n)]
    for k in range(n):
        bit, row_k = 1 << k, rows[k]
        for x in range(n):
            if rows[x] & bit:
                rows[x] |= row_k
    out = 0
    for x, row in enumerate(rows):
        out |= (row | 1 << x) << x * n
    return out


def _product(left: int, right: int, d: _Domain) -> int:
    n = d.n
    out, x = 0, 0
    while left:
        if left & 1:
            out |= right << x * n
        left >>= 1
        x += 1
    return out


# Backward rules (HC4-revise, Benhamou et al. 1999). A rule takes the bounds
# `(lo, hi)` required of a node's value and the interval of each child, and
# returns per child the bounds that the child's value obeys whenever the
# node's value lies between `lo` and `hi`. A low end that leaves its high
# end is a clash: no value fits. The caller intersects each child's bounds
# with the child's interval, so a rule's high end may run past the domain.


def _back_union(lo, hi, a, b, d):
    # A member of lo that the other child cannot hold is in this one.
    return (lo & ~b[1], hi), (lo & ~a[1], hi)


def _back_intersection(lo, hi, a, b, d):
    # A sure member of the other child is in this one only where hi allows.
    return (lo, hi | ~b[0]), (lo, hi | ~a[0])


def _back_exists(lo, hi, r, c, d):
    """∃r.c: an element outside hi has no successor in c, and an element of
    lo with one possible successor in c forces that pair and that member."""
    n, full = d.n, d.full
    (rlo, rhi), (clo, chi) = r, c
    out = full ^ hi
    r_hi = d.pairs ^ _product(out, clo, d)
    # The elements that a sure pair from outside hi points to.
    c_hi = full ^ _exists(_inverse(rlo & _product(out, full, d), d), full, d)
    r_lo = c_lo = 0
    x = 0
    while lo:
        if lo & 1:
            support = rhi >> x * n & chi
            if not support:
                return (d.pairs, 0), (full, 0)
            if not support & (support - 1):
                r_lo |= support << x * n
                c_lo |= support
        lo >>= 1
        x += 1
    return (r_lo, r_hi), (c_lo, c_hi)


def _back_forall(lo, hi, r, c, d):
    # ∀r.c is ¬∃r.¬c.
    full = d.full
    rb, (nlo, nhi) = _back_exists(full ^ hi, full ^ lo, r, (full ^ c[1], full ^ c[0]), d)
    return rb, (full ^ nhi, full ^ nlo)


def _back_at_most_0(lo, hi, r, c, d):
    # ≤0 r.c is ¬∃r.c.
    return _back_exists(d.full ^ hi, d.full ^ lo, r, c, d)


def _back_compose(lo, hi, r, s, d):
    """r∘s: a pair (x, y) of r is allowed only if every sure successor of y
    in s stays inside row x of hi, and a pair (y, z) of s only if z is in
    row x of hi for every sure pair (x, y) of r; a pair (x, z) of lo with one
    possible middle y forces (x, y) into r and (y, z) into s."""
    n, full = d.n, d.full
    (rlo, rhi), (slo, shi) = r, s
    rows_hi = [hi >> x * n & full for x in range(n)]
    s_lo_rows = [slo >> y * n & full for y in range(n)]
    r_hi = 0
    s_rows = [full] * n
    for x in range(n):
        row_x, allowed = rows_hi[x], 0
        for y in range(n):
            if not s_lo_rows[y] & ~row_x:
                allowed |= 1 << y
            if rlo >> x * n + y & 1:
                s_rows[y] &= row_x
        r_hi |= allowed << x * n
    s_hi = sum(row << y * n for y, row in enumerate(s_rows))
    r_lo = s_lo = 0
    s_inverse = _inverse(shi, d) if lo else 0  # row z: the possible middles y of (y, z)
    while lo:
        low = lo & -lo
        x, z = divmod(low.bit_length() - 1, n)
        support = rhi >> x * n & s_inverse >> z * n & full
        if not support:
            return (d.pairs, 0), (d.pairs, 0)
        if not support & (support - 1):
            y = support.bit_length() - 1
            r_lo |= 1 << x * n + y
            s_lo |= 1 << y * n + z
        lo ^= low
    return (r_lo, r_hi), (s_lo, s_hi)


def _back_product(lo, hi, a, b, d):
    """a×b: x is in a only if the sure members of b lie in row x of hi, b
    lies in row x of hi for each sure member x of a, and each pair of lo
    puts its ends into a and b."""
    n, full = d.n, d.full
    (alo, _), (blo, _) = a, b
    a_lo = b_lo = a_hi = 0
    b_hi = full
    for x in range(n):
        row_hi, row_lo = hi >> x * n & full, lo >> x * n & full
        if not blo & ~row_hi:
            a_hi |= 1 << x
        if alo >> x & 1:
            b_hi &= row_hi
        if row_lo:
            a_lo |= 1 << x
            b_lo |= row_lo
    return (a_lo, a_hi), (b_lo, b_hi)


def _submasks(lower: int, free: int) -> Iterator[int]:
    """`lower | s` for every submask s of `free`, in increasing order of s."""
    sub = 0
    while True:
        yield lower | sub
        if sub == free:
            return
        sub = (sub - free) & free


def _decode_set(mask: int) -> frozenset[int]:
    return frozenset(x for x in range(mask.bit_length()) if mask >> x & 1)


@cache
def _pair_table(n: int) -> tuple[tuple[int, int], ...]:
    return tuple(divmod(b, n) for b in range(n * n))


def _decode_pairs(mask: int, n: int) -> frozenset[tuple[int, int]]:
    table = _pair_table(n)
    return frozenset(table[b] for b in range(mask.bit_length()) if mask >> b & 1)


# ---------------------------------------------------------------------------
# Expression compilation
# ---------------------------------------------------------------------------
#
# An exact closure `f(vals, dom) -> mask` reads components that are all
# assigned. An interval closure `f(vals, dom) -> (lo, hi)` works under a
# partial assignment: lo is contained in the value under every completion,
# hi contains it, and unassigned atoms contribute (empty, everything). A
# component may also hold a bracket `(lo, hi)` instead of a value: its atom
# then reads that bracket, and the result covers every completion whose
# value lies between the two. This decides many axioms long before all
# their components are assigned, which is what keeps single wide axioms
# from forcing full enumeration.

Exact = Callable[[Vals, _Domain], int]
Interval = Callable[[Vals, _Domain], tuple[int, int]]


def _fixed(op: Callable) -> Callable:
    return lambda e: op


# Per compound constructor: the maker of its mask operation, which takes the
# node and returns `op(*child values, domain)`; per child, in `children`
# order, whether `op` is monotone (True) or antitone (False) in it; and the
# maker of its backward rule, or None where the row has no useful one.
_MASK_RULES: dict[type, tuple[Callable, tuple[bool, ...], Optional[Callable]]] = {
    ConceptUnion: (_fixed(lambda a, b, d: a | b), (True, True), _fixed(_back_union)),
    ConceptIntersection: (_fixed(lambda a, b, d: a & b), (True, True), _fixed(_back_intersection)),
    ConceptNeg: (_fixed(lambda a, d: d.full ^ a), (False,),
                 _fixed(lambda lo, hi, a, d: ((d.full ^ hi, d.full ^ lo),))),
    Exists: (_fixed(_exists), (True, True), _fixed(_back_exists)),
    Forall: (_fixed(_forall), (False, True), _fixed(_back_forall)),
    AtMost: (lambda e: lambda r, c, d: _at_most(r, c, e.bound, d), (False, False),
             lambda e: _back_at_most_0 if e.bound == 0 else None),
    AtLeast: (lambda e: lambda r, c, d: d.full ^ _at_most(r, c, e.bound - 1, d), (True, True),
              lambda e: _back_exists if e.bound == 1 else None),
    RoleUnion: (_fixed(lambda a, b, d: a | b), (True, True), _fixed(_back_union)),
    RoleIntersection: (_fixed(lambda a, b, d: a & b), (True, True), _fixed(_back_intersection)),
    RoleNeg: (_fixed(lambda a, d: d.pairs ^ a), (False,),
              _fixed(lambda lo, hi, a, d: ((d.pairs ^ hi, d.pairs ^ lo),))),
    Inverse: (_fixed(_inverse), (True,), _fixed(lambda lo, hi, r, d: ((_inverse(lo, d), _inverse(hi, d)),))),
    Compose: (_fixed(_compose), (True, True), _fixed(_back_compose)),
    Closure: (_fixed(_closure), (True,), _fixed(None)),
    Product: (_fixed(_product), (True, True), _fixed(_back_product)),
}


def _mask_rule(e) -> tuple[Callable, tuple[bool, ...]]:
    try:
        make, monotone, _ = _MASK_RULES[type(e)]
    except KeyError:
        raise TypeError(f"not an expression: {e!r}") from None
    return make(e), monotone


def _back_rule(e) -> Optional[Callable]:
    """The backward rule of a compound node; None for a leaf and for a row
    without one."""
    row = _MASK_RULES.get(e.__class__)
    return None if row is None else row[2](e)


# Which ends of an atom's bracket an end of an expression's interval reads:
# bit 0 stands for the low end, bit 1 for the high end. The low end of an
# expression reads the low end of an atom it is monotone in and the high end
# of one it is antitone in; its high end reads the other two. `_FLIP` swaps
# the two bits.
_FLIP = (0, 2, 1, 3)


def _polarity(e, slots: Slots, target: int) -> int:
    """The ends of the atom at slot `target` that the low end of `e`'s
    interval reads: bit 0 where `e` is monotone in an occurrence of the
    atom, bit 1 where antitone, both where the atom occurs both ways; 0
    where it does not occur. The high end reads `_FLIP` of it."""
    read = _ATOMS.get(e.__class__)
    if read is not None:
        return 1 if slots.get(read(e)) == target else 0
    row = _MASK_RULES.get(e.__class__)
    if row is None:  # a leaf that reads no atom
        return 0
    out = 0
    for child, monotone in zip(children(e), row[1]):
        ends = _polarity(child, slots, target)
        out |= ends if monotone else _FLIP[ends]
    return out


def _exact(e, slots: Slots, reads: set[int]) -> Exact:
    """The exact closure of `e`; `reads` gains the slot of each component
    it reads."""
    read = _ATOMS.get(e.__class__)
    if read is not None:
        s = _slot(slots, read(e))
        reads.add(s)
        return lambda v, d: v[s]
    if isinstance(e, Top):
        return lambda v, d: d.full
    if isinstance(e, Bottom):
        return lambda v, d: 0
    if isinstance(e, Nominals):
        members = [_slot(slots, (IND, u)) for u in e.members]
        reads.update(members)

        def nominals(v, d):
            out = 0
            for s in members:
                out |= 1 << v[s]
            return out

        return nominals
    if e.__class__ is tuple:  # an assertion's point
        s = _slot(slots, (IND, e[0]))
        reads.add(s)
        if len(e) == 1:
            return lambda v, d: 1 << v[s]
        o = _slot(slots, (IND, e[1]))
        reads.add(o)
        return lambda v, d: 1 << v[s] * d.n + v[o]
    op, _ = _mask_rule(e)
    fs = [_exact(c, slots, reads) for c in children(e)]
    if len(fs) == 1:
        (f,) = fs
        return lambda v, d: op(f(v, d), d)
    f, g = fs
    return lambda v, d: op(f(v, d), g(v, d), d)


def _interval(e, slots: Slots) -> Interval:
    read = _ATOMS.get(e.__class__)
    if read is not None:
        s, role = _slot(slots, read(e)), e.__class__ is RoleAtom

        def atom(v, d):
            val = v[s]
            if val is None:
                return 0, d.pairs if role else d.full
            if val.__class__ is tuple:  # a bracket (lo, hi) of a pushed frame
                return val
            return val, val

        return atom
    if isinstance(e, Top):
        return lambda v, d: (d.full, d.full)
    if isinstance(e, Bottom):
        return lambda v, d: (0, 0)
    if isinstance(e, Nominals):
        members = [_slot(slots, (IND, u)) for u in e.members]

        def nominals(v, d):
            lo, complete = 0, True
            for s in members:
                x = v[s]
                if x is None:
                    complete = False
                else:
                    lo |= 1 << x
            return (lo, lo) if complete else (lo, d.full)

        return nominals
    if e.__class__ is tuple:  # an assertion's point: open while an individual is unassigned
        s = _slot(slots, (IND, e[0]))
        if len(e) == 1:

            def point(v, d):
                x = v[s]
                if x is None:
                    return 0, d.full
                return 1 << x, 1 << x

            return point
        o = _slot(slots, (IND, e[1]))

        def pair(v, d):
            x, y = v[s], v[o]
            if x is None or y is None:
                return 0, d.pairs
            bit = 1 << x * d.n + y
            return bit, bit

        return pair
    # The operation on the bounds: a child's lower bound gives the lower
    # result where the operation is monotone in it, its upper bound where
    # antitone. Where every child is exact, so is the result, and the
    # operation runs once.
    op, monotone = _mask_rule(e)
    fs = [_interval(c, slots) for c in children(e)]
    if len(fs) == 1:
        (f,) = fs
        i = 0 if monotone[0] else 1
        k = 1 - i

        def unary(v, d):
            x = f(v, d)
            lo = op(x[i], d)
            return (lo, lo) if x[0] == x[1] else (lo, op(x[k], d))

        return unary
    f, g = fs
    i, j = (0 if m else 1 for m in monotone)
    k, m = 1 - i, 1 - j

    def binary(v, d):
        x, y = f(v, d), g(v, d)
        lo = op(x[i], y[j], d)
        if x[0] == x[1] and y[0] == y[1]:
            return lo, lo
        return lo, op(x[k], y[m], d)

    return binary


# A projector `p(vals, dom, lo, hi) -> (lo, hi)` takes the bounds required of
# an expression's value and returns bounds on one atom under it, its target:
# every value of the target that lets the expression's value lie between
# `lo` and `hi`, with the other components as in `vals`, lies between the
# returned two. The bounds go down the paths from the expression to each
# occurrence of the target through the backward rules, each child's bounds
# intersected with its interval; the occurrences' results are intersected.

Projector = Callable[[Vals, _Domain, int, int], tuple[int, int]]


def _projector(e, slots: Slots, target: int) -> Optional[Projector]:
    """The projector of `e` onto the slot `target`, or None when no path of
    rows with a backward rule reaches an occurrence of it."""
    read = _ATOMS.get(e.__class__)
    if read is not None:
        return (lambda v, d, lo, hi: (lo, hi)) if slots.get(read(e)) == target else None
    back = _back_rule(e)
    if back is None:
        return None
    kids = children(e)
    ps = [_projector(c, slots, target) for c in kids]
    if not any(ps):
        return None
    fs = [_interval(c, slots) for c in kids]
    if len(fs) == 1:
        (f,), (p,) = fs, ps

        def unary(v, d, lo, hi):
            if lo & ~hi:  # a clash goes down as it is
                return lo, hi
            x = f(v, d)
            ((clo, chi),) = back(lo, hi, x, d)
            return p(v, d, clo | x[0], chi & x[1])

        return unary
    f, g = fs
    p, q = ps

    def binary(v, d, lo, hi):
        if lo & ~hi:
            return lo, hi
        x, y = f(v, d), g(v, d)
        (alo, ahi), (blo, bhi) = back(lo, hi, x, y, d)
        if q is None:
            return p(v, d, alo | x[0], ahi & x[1])
        if p is None:
            return q(v, d, blo | y[0], bhi & y[1])
        plo, phi = p(v, d, alo | x[0], ahi & x[1])
        qlo, qhi = q(v, d, blo | y[0], bhi & y[1])
        return plo | qlo, phi & qhi

    return binary


# ---------------------------------------------------------------------------
# Constraints and bound producers
# ---------------------------------------------------------------------------


def _inclusion(ax: Axiom) -> tuple:
    """The axiom read as an inclusion `(left, right)`. An assertion's left
    side is its point, the tuple of its individuals, which `_exact` and
    `_interval` compile as a leaf. The domain and range shapes `∃R.⊤ ⊑ D`
    and `⊤ ⊑ ∀R.C` of an atomic role R are read as `R ⊑ D×⊤` and
    `R ⊑ ⊤×C`, so R is bounded like an atom on the left of any inclusion."""
    if isinstance(ax, ConceptAssert):
        return (ax.individual,), ax.concept
    if isinstance(ax, RoleAssert):
        return (ax.subject, ax.object), ax.role
    if not isinstance(ax, (ConceptSub, RoleSub)):
        raise TypeError(f"not an axiom: {ax!r}")
    left, right = ax.left, ax.right
    if isinstance(left, Exists) and isinstance(left.concept, Top) and isinstance(left.role, RoleAtom):
        return left.role, Product(right, Top())
    if isinstance(left, Top) and isinstance(right, Forall) and isinstance(right.role, RoleAtom):
        return right.role, Product(Top(), right.concept)
    return left, right


def _side(e, slots: Slots, reads: set[int]) -> Optional[Exact]:
    """`_exact(e, slots, reads)`, but None for an atom: most atom sides are
    where a bound goes and are never evaluated, so `_Constraint.exact_of`
    builds theirs on use."""
    read = _ATOMS.get(e.__class__)
    if read is None:
        return _exact(e, slots, reads)
    reads.add(_slot(slots, read(e)))
    return None


class _Constraint:
    """An axiom required to hold (positive) or to fail, read as the inclusion
    `left ⊑ right`, each side compiled to `exact` in the walk that collects
    the slots it reads. `comps` holds the slots of both sides. `upper` is
    the slot of an atom on the left that the right side does not read, and
    `lower` that of an atom on the right that the left side does not read
    (for a negative constraint, only against a point), or None: the atoms
    `_producer` can bound."""

    def __init__(self, axiom: Axiom, positive: bool, slots: Slots):
        self.positive = positive
        self.left, self.right = left, right = _inclusion(axiom)
        self.slots = slots
        left_reads, right_reads = set(), set()
        self.exact = _side(left, slots, left_reads), _side(right, slots, right_reads)
        self.comps = tuple(left_reads | right_reads)
        # An atom side reads one slot, so the other side reads it only
        # where the two sides share a slot.
        apart = left_reads.isdisjoint(right_reads)
        self.upper = min(left_reads) if apart and positive and left.__class__ in _ATOMS else None
        point = left.__class__ is tuple
        self.lower = min(right_reads) if apart and (positive or point) and right.__class__ in _ATOMS else None

    def exact_of(self, side: int) -> Exact:
        """The exact closure of the left (0) or right (1) side."""
        return self.exact[side] or _exact((self.left, self.right)[side], self.slots, set())

    @cached_property
    def holds(self) -> Callable[[Vals, _Domain], bool]:
        """Whether the axiom holds under a total assignment of its components."""
        f, g = self.exact_of(0), self.exact_of(1)
        return lambda v, d: not f(v, d) & ~g(v, d)

    @cached_property
    def intervals(self) -> tuple[Interval, Interval]:
        """The interval closures of the left and right sides."""
        return _interval(self.left, self.slots), _interval(self.right, self.slots)

    @cached_property
    def decide(self) -> Callable[[Vals, _Domain], Optional[bool]]:
        """True / False when the axiom is settled under every completion of
        the partial assignment; None when still open."""
        f, g = self.intervals

        def decide(v, d):
            (llo, lhi), (rlo, rhi) = f(v, d), g(v, d)
            if not lhi & ~rlo:
                return True
            if llo & ~rhi:
                return False
            return None

        return decide

    _polarities: Optional[dict] = None  # slot -> polarity in each side, filled on use
    _projectors: Optional[dict] = None  # target slot -> projector, filled on use

    def polarity(self, slot: int) -> tuple[int, int]:
        """`_polarity` of the atom at `slot` in the left and the right side,
        computed on first use for each slot: only a failure reads it."""
        if self._polarities is None:
            self._polarities = {}
        elif slot in self._polarities:
            return self._polarities[slot]
        out = self._polarities[slot] = (_polarity(self.left, self.slots, slot),
                                        _polarity(self.right, self.slots, slot))
        return out

    def failure_ends(self, slot: int) -> int:
        """The ends of the bracket at `slot` that `decide` reads when it
        settles the axiom against its sign: a positive axiom fails on the low
        end of the left side and the high end of the right one, and a
        negative one holds on the other two ends."""
        left, right = self.polarity(slot)
        ends = left | _FLIP[right]
        return ends if self.positive else _FLIP[ends]

    def projector(self, target: int) -> Optional[Callable[[Vals, _Domain], tuple[int, int]]]:
        """`project(vals, dom) -> (lo, hi)`: bounds on the atom at slot
        `target` that every value of it satisfying the inclusion obeys. The
        left side must lie inside the high end of the right side, and the
        right side must contain the low end of the left side; each side's
        bounds go down its projector. None when neither side has a path to
        the atom. Compiled on first use for each target."""
        if self._projectors is None:
            self._projectors = {}
        elif target in self._projectors:
            return self._projectors[target]
        pl = _projector(self.left, self.slots, target)
        pr = _projector(self.right, self.slots, target)
        project = None
        if pl is not None or pr is not None:
            f, g = self.intervals

            def project(v, d):
                (llo, lhi), (rlo, rhi) = f(v, d), g(v, d)
                lo, hi = pl(v, d, llo, lhi & rhi) if pl is not None else (0, -1)
                if pr is not None:
                    blo, bhi = pr(v, d, rlo | llo, rhi)
                    lo, hi = lo | blo, hi & bhi
                return lo, hi

        self._projectors[target] = project
        return project


Bound = Callable[[Vals, _Domain], int]


class _Producer:
    """A constraint `con` consumed as a bound on one component once its
    other components are assigned: the kind, "L" (forced members), "U"
    (allowed members) or "X" (excluded members), `expr`, the side of the
    inclusion whose value is the bound's mask, and `bound`, that side's
    exact closure. `lifted` gives a bound that stays valid while a component
    holds a bracket: `expr` under interval semantics, its low end for "L"
    and "X" and its high end for "U". It is compiled on first use. A plan
    sets `reads`, the positions the bound reads."""

    reads = 0

    def __init__(self, kind: str, con: "_Constraint", side: int):
        self.kind = kind
        self.con = con
        self.expr = (con.left, con.right)[side]
        self.bound = con.exact_of(side)

    @cached_property
    def lifted(self) -> Bound:
        f, end = _interval(self.expr, self.con.slots), 1 if self.kind == "U" else 0
        return lambda v, d: f(v, d)[end]

    def ends(self, slot: int) -> int:
        """The ends of the bracket at `slot` that `lifted` reads."""
        left, right = self.con.polarity(slot)
        return _FLIP[right] if self.kind == "U" else left


def _producer(con: _Constraint, target: int) -> Optional[_Producer]:
    """`con` consumed as a bound on the slot `target`, or None when it is not
    one. Where the other side does not read it, the atom on the left of a
    positive inclusion is bounded above by the right side, and the atom on
    the right below by the left side; an assertion required to fail
    excludes its point."""
    if target == con.upper:
        return _Producer("U", con, 1)
    if target == con.lower:
        return _Producer("L" if con.positive else "X", con, 0)
    return None


# ---------------------------------------------------------------------------
# Single-group solver with conflict-directed backjumping
# ---------------------------------------------------------------------------


class _Budget:
    __slots__ = ("limit", "used")

    def __init__(self, limit: int):
        if limit < 0:
            raise ValueError(f"budget must be >= 0, got {limit}")
        self.limit = limit
        self.used = 0

    def tick(self) -> None:
        self.used += 1
        if self.used > self.limit:
            raise BoundTooLargeError(self.used, self.limit)


@dataclass
class _Plan:
    """Variable order and compiled constraints of one group. A position is
    an index into the order; conflict sets are masks of positions."""

    slots: list[int]
    aspects: list[str]
    # Per position, a list of entries, or one shared empty tuple for none:
    # a position's first entry gives it a list.
    # The producers consumed at each position, the positions they read, and
    # the positions read by those that set the low end of its bracket ("L")
    # and by those that set the high end ("U" and "X").
    producers_at: list[Sequence[_Producer]]
    producer_reads: list[int]
    end_reads: list[tuple[int, int]]
    # [holds, decide, positive, positions of the constraint's other
    # components, the constraint, the conflict set of its check-first
    # failure on an unnarrowed bracket, or None until one happens]
    checks_at: list[Sequence[list]]
    # (decide, not positive, positions of the constraint's earlier components)
    watch_at: list[Sequence[tuple[Callable, bool, int]]]


_PHASE = {IND: 0, TOPCTX: 1, CONC: 1, ROLE: 2}


def _plan_group(comps: Sequence[int], constraints: Sequence[_Constraint], keys: Sequence[tuple]) -> _Plan:
    """`comps` are slots; `keys[slot]` is the sort key of a slot's component, aspect first."""
    degree = dict.fromkeys(comps, 0)
    for con in constraints:
        for c in con.comps:
            degree[c] += 1
    order = sorted(comps, key=lambda c: (_PHASE[keys[c][0]], -degree[c], keys[c]))
    position = {c: idx for idx, c in enumerate(order)}

    producers_at: list = [()] * len(order)
    producer_reads = [0] * len(order)
    end_reads = [(0, 0)] * len(order)
    checks_at: list = [()] * len(order)
    watch_at: list = [()] * len(order)
    for con in constraints:
        positions = 0
        for c in con.comps:
            positions |= 1 << position[c]
        i = positions.bit_length() - 1
        last = order[i]
        others = positions & ~(1 << i)
        prod = _producer(con, last)
        if prod is not None:
            if not (entries := producers_at[i]):
                entries = producers_at[i] = []
            entries.append(prod)
            prod.reads = others
            producer_reads[i] |= others
            low, high = end_reads[i]
            end_reads[i] = (low | others, high) if prod.kind == "L" else (low, high | others)
        else:
            if not (entries := checks_at[i]):
                entries = checks_at[i] = []
            entries.append([con.holds, con.decide, con.positive, others, con, None])
            # Interval-check the axiom at every earlier component; many
            # axioms are settled well before their last component. Settled
            # negatively by assigned components alone, so only those can be
            # blamed.
            for comp in con.comps:
                if comp != last:
                    j = position[comp]
                    if not (entries := watch_at[j]):
                        entries = watch_at[j] = []
                    entries.append((con.decide, not con.positive, positions & ((1 << j) - 1)))

    aspects = [keys[c][0] for c in order]
    return _Plan(order, aspects, producers_at, producer_reads, end_reads, checks_at, watch_at)


def _bracket(producers: list[_Producer], vals: Vals, d: _Domain, upper: int) -> tuple[int, int]:
    """The `(lower, upper)` bounds the producers put on one component."""
    lower = 0
    for prod in producers:
        mask = prod.bound(vals, d)
        kind = prod.kind
        if kind == "L":
            lower |= mask
        elif kind == "U":
            upper &= mask
        else:
            upper &= ~mask
    return lower, upper


def _end_reads(ends: int, low: int, high: int) -> int:
    """The positions that set the ends in `ends` (bit 0 the low end, bit 1
    the high end) of a bracket whose low end the positions `low` set and
    whose high end the positions `high` set."""
    return (low if ends & 1 else 0) | (high if ends & 2 else 0)


def _check_conflict(plan: _Plan, i: int, con: _Constraint, others: int) -> int:
    """The conflict set of a check-first failure of `con` at position i on
    the bracket its producers give: the positions of `con`'s other
    components, and of the producers that set the ends of the bracket that
    the failure reads. The atom at i is monotone or antitone in each of its
    occurrences, so where they all agree the failure reads one end only,
    and it holds on the bracket widened to everything past that end."""
    return others | _end_reads(con.failure_ends(plan.slots[i]), *plan.end_reads[i])


def _clash_pairs(producers: Sequence[_Producer], masks: Sequence[int]) -> list[tuple]:
    """The pairs of `producers` whose bounds, `masks`, clash: one forces a
    member that the other excludes."""
    forced, excluded = [], []
    for prod, mask in zip(producers, masks):
        if prod.kind == "L":
            forced.append((prod, mask))
        else:
            excluded.append((prod, ~mask if prod.kind == "U" else mask))
    return [(p, q) for p, m in forced for q, x in excluded if m & x]


def _reads_of(producers: Sequence[_Producer]) -> int:
    """The positions the bounds of `producers` read."""
    out = 0
    for prod in producers:
        out |= prod.reads
    return out


def _clash_conflict(plan: _Plan, frames: list[list], j: int, vals: Vals, d: _Domain) -> int:
    """The conflict set of a clash between the bounds of position j.

    A clash is explained by one member that one producer forces and another
    excludes: of the pairs that clash, the one whose positions form the
    least mask is blamed, so that the jump goes as far back as it can. The
    clash is then re-run on the lifted bounds, with the deepest position k
    it blames reading its frame's own bracket. A pair that still clashes and
    reads k shows that no value at k can help, and frame k fails whole: in
    the pair's blame, k is replaced by k's accumulated conflict set and the
    positions that set the ends of k's bracket the two lifted bounds read.
    The least of these conflict sets is returned; without one, the search
    backjumps to k."""
    producers = plan.producers_at[j]
    if len(producers) == 2:  # the one pair that can clash
        blame = plan.producer_reads[j]
    else:
        blame = min(_reads_of(pair) for pair in _clash_pairs(producers, [p.bound(vals, d) for p in producers]))
    k = blame.bit_length() - 1
    if k < 0 or plan.aspects[k] == IND:
        return blame
    frame = frames[k]
    slot = plan.slots[k]
    # Only a bound that reads k moves when k reads its bracket.
    value, vals[slot] = vals[slot], (frame[3], frame[4])
    masks = [(p.lifted if p.reads >> k & 1 else p.bound)(vals, d) for p in producers]
    vals[slot] = value
    for pair in _clash_pairs(producers, masks):
        reads = _reads_of(pair)
        if reads >> k & 1:
            ends = 0
            for prod in pair:
                if prod.reads >> k & 1:
                    ends |= prod.ends(slot)
            blame = min(blame, reads & ~(1 << k) | frame[1] | _end_reads(ends, *frame[6]))
    return blame


def _lift_position(plan: _Plan, blame: int, reads: int) -> int:
    """The deepest position in `blame` (not empty), to be read as its
    frame's bracket in a retry; -1 where it cannot be: an individual holds
    no bracket, and where the failed position's producers read it
    (`reads`), their bounds would change with it. Only a failure that
    narrowing took part in is retried: a clash has its own lifting, and
    retrying every check-first failure cost `refute` 7% for no fewer
    candidates there."""
    k = blame.bit_length() - 1
    if plan.aspects[k] == IND or reads >> k & 1:
        return -1
    return k


def _solve_group(plan: _Plan, d: _Domain, vals: Vals, budget: _Budget) -> Optional[int]:
    """Fill `vals` with a satisfying assignment for this group, or return the
    conflict set (a mask of positions) of an exhausted search. None means
    success.

    Depth-first over the plan's order with an explicit stack: one frame per
    assigned position holds its remaining candidates, its conflict set, the
    positions its producers read, its bounds, the checks its bounds leave
    open, and the positions that set the low and the high end of its
    bounds: its `end_reads`, or all the positions its producers read where
    narrowing made each end depend on both."""
    depth = len(plan.slots)
    pslots, aspects = plan.slots, plan.aspects
    tick = budget.tick
    frames: list[list] = []
    failed_at = 0  # positions where a frame has failed
    # While a failure is retried with the deepest position k it blames
    # reading its frame's bracket: (k, k's value, the failure's conflict set).
    lifted: Optional[tuple[int, object, int]] = None
    while True:
        # Bound the component at the next position and push its frame.
        i = len(frames)
        if i == depth:
            return None
        returned: Optional[int] = None
        reads = plan.producer_reads[i]
        checks = open_checks = plan.checks_at[i]
        blame = 0
        narrowed = False
        if aspects[i] == IND:
            candidates: Iterator = iter(range(d.n))
            lower = upper = None
        else:
            full = d.pairs if aspects[i] == ROLE else d.full
            lower, upper = _bracket(plan.producers_at[i], vals, d, full)
            if lower & ~upper:
                returned = _clash_conflict(plan, frames, i, vals, d)
            elif checks:
                # Check first, over the whole bracket: a constraint settled
                # against fails every candidate, so none is tried; one
                # settled in favour holds for every candidate, so it is not
                # checked per candidate. Then, at a position where a frame
                # has failed before in this search, each positive
                # constraint left open narrows the bracket to the values its
                # projector allows, and a second round decides the open
                # constraints again on the narrowed bracket. `blame`
                # gathers the positions of the constraints that narrowed
                # it: the frame's conflict set starts there. A failure on
                # the bracket the producers give blames only those that set
                # the ends it reads; one on a narrowed bracket blames them
                # all, since narrowing reads both ends to move either.
                slot = pslots[i]
                project = failed_at >> i & 1
                while True:
                    vals[slot] = (lower, upper)
                    open_checks, projectable = [], []
                    for check in checks:
                        _, decide, positive, others, con, conflict = check
                        settled = decide(vals, d)
                        if settled is None:
                            open_checks.append(check)
                            if project and positive:
                                projectable.append(check)
                        elif settled is not positive:
                            if narrowed:
                                returned = others | blame | reads
                            elif conflict is None:
                                returned = check[5] = _check_conflict(plan, i, con, others)
                            else:
                                returned = conflict
                            break
                    if returned is not None or not projectable:
                        break
                    for check in projectable:
                        projector = check[4].projector(slot)
                        if projector is None:
                            continue
                        lo, hi = projector(vals, d)
                        lo, hi = lo | lower, hi & upper
                        if lo != lower or hi != upper:
                            lower, upper = lo, hi
                            blame |= check[3]
                            narrowed = True
                            if lower & ~upper:
                                returned = blame | reads
                                break
                            vals[slot] = (lower, upper)
                    if returned is not None or not blame:
                        break
                    checks, project = open_checks, 0
                vals[slot] = None
            if returned is None:
                candidates = _submasks(lower, upper ^ lower)
        if lifted is not None:
            # The retry of a failure with k reading its bracket. If it fails
            # too, and blames no position between k and i, no value at k
            # can help, and frame k fails whole: in the blame, k is replaced
            # by k's accumulated conflict set and the positions k's
            # producers read.
            k, value, first = lifted
            vals[pslots[k]] = value
            lifted = None
            if returned is None or returned >> k + 1:
                returned = first
            else:
                returned = returned & ~(1 << k) | frames[k][1] | frames[k][2]
        elif blame and returned is not None:
            # A failure that narrowing took part in is retried once, as a
            # clash is, with the deepest position k it blames reading its
            # frame's own bracket.
            k = _lift_position(plan, returned, reads)
            if k >= 0:
                lifted = k, vals[pslots[k]], returned
                vals[pslots[k]] = frames[k][3], frames[k][4]
                continue
        if returned is None:
            ends = (reads, reads) if narrowed else plan.end_reads[i]
            frames.append([candidates, blame, reads, lower, upper, open_checks, ends])
        else:
            failed_at |= 1 << i

        # Try candidates at the top frame; pop the frames that are exhausted
        # or that a returned conflict set jumps over.
        while frames:
            i = len(frames) - 1
            frame = frames[-1]
            slot = pslots[i]
            if returned is not None:
                if not returned >> i & 1:
                    vals[slot] = None
                    frames.pop()
                    continue
                frame[1] |= returned & ~(1 << i)
                returned = None
            conflict = frame[1]
            checks, watches = frame[5], plan.watch_at[i]
            for value in frame[0]:
                tick()
                vals[slot] = value
                failed = False
                for holds, _, positive, others, _, _ in checks:
                    if holds(vals, d) is not positive:
                        conflict |= others
                        failed = True
                        break
                if not failed:
                    for decide, negative, earlier in watches:
                        if decide(vals, d) is negative:
                            conflict |= earlier
                            failed = True
                            break
                if not failed:
                    break
            else:
                vals[slot] = None
                frames.pop()
                failed_at |= 1 << i
                returned = conflict | frame[2]
                continue
            frame[1] = conflict
            break
        else:
            return returned


# ---------------------------------------------------------------------------
# Top level: decomposition, size iteration, verdict construction
# ---------------------------------------------------------------------------


def _group_constraints(
    constraints: Sequence[_Constraint], keys: Sequence[tuple]
) -> list[tuple[list[int], list[_Constraint]]]:
    """The connected components of the constraints, each as (slots,
    constraints), in solving order; `parent[slot]` is -1 while no
    constraint reads the slot."""
    parent = [-1] * len(keys)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for con in constraints:
        for c in con.comps:
            if parent[c] < 0:
                parent[c] = c
        root = find(con.comps[0])
        for c in con.comps[1:]:
            parent[find(c)] = root

    groups: dict[int, tuple[list[int], list[_Constraint]]] = {}
    for c, p in enumerate(parent):
        if p >= 0:
            groups.setdefault(find(c), ([], []))[0].append(c)
    for con in constraints:
        groups[find(con.comps[0])][1].append(con)

    def group_key(group: tuple[list[int], list[_Constraint]]):
        comps, cons = group
        has_negative = any(not con.positive for con in cons)
        return (0 if has_negative else 1, min(keys[c] for c in comps))

    return sorted(groups.values(), key=group_key)


@dataclass
class _Problem:
    """Constraints without components, and the plans of the independent
    groups in solving order; neither depends on the domain size."""

    ground: list[_Constraint]
    plans: list[_Plan]


def _prepare(constraints: list[_Constraint], slots: Slots) -> _Problem:
    # One sort key per slot; slots are numbered in insertion order.
    keys = [(aspect, *key.sort_key()) if isinstance(key, Term) else (aspect, key) for aspect, key in slots]
    grouped = _group_constraints([c for c in constraints if c.comps], keys)
    return _Problem(
        [c for c in constraints if not c.comps],
        [_plan_group(comps, cons, keys) for comps, cons in grouped],
    )


def _solve_at_size(problem: _Problem, slots: Slots, n: int, budget: _Budget) -> Optional[Vals]:
    d = _Domain(n)
    vals: Vals = [None] * len(slots)
    for con in problem.ground:
        if con.holds(vals, d) is not con.positive:
            return None
    for plan in problem.plans:
        if _solve_group(plan, d, vals, budget) is not None:
            return None
    return vals


def _build_interpretation(vals: Vals, slots: Slots, n: int, terms: set[Term]) -> Interpretation:
    """The model of a solved assignment over `terms`, with a context top for
    each `TOPCTX` key of `slots`; an absent or unassigned slot reads as 0."""
    # `dict.fromkeys` of a set reuses its stored hashes. Terms with equal
    # denotations share one decoded frozenset.
    empty: frozenset = frozenset()
    indiv, conc, role = dict.fromkeys(terms, 0), dict.fromkeys(terms, empty), dict.fromkeys(terms, empty)
    top_ctx: dict[str, frozenset[int]] = {}
    sets: dict[int, frozenset[int]] = {0: empty}
    relations: dict[int, frozenset[tuple[int, int]]] = {0: empty}
    for (aspect, key), slot in slots.items():
        mask = vals[slot] or 0
        if aspect == IND:
            indiv[key] = mask
        elif aspect == ROLE:
            if mask not in relations:
                relations[mask] = _decode_pairs(mask, n)
            role[key] = relations[mask]
        else:
            if mask not in sets:
                sets[mask] = _decode_set(mask)
            (conc if aspect == CONC else top_ctx)[key] = sets[mask]
    return Interpretation(size=n, indiv=indiv, conc=conc, role=role, top_ctx=top_ctx)


def find_model(ontology: Ontology, max_size: int, *, budget: Optional[int] = None):
    """Smallest-domain model of the ontology within the bound, if any.

    Complete up to the bound: a NoModelUpTo(n) verdict guarantees that no
    interpretation over the ontology's signature with at most n elements is a
    model. Deterministic: equal inputs yield the identical witness. Past
    `budget` candidates the search raises `BoundTooLargeError`; a negative
    budget is a `ValueError`.
    """
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    tracker = _Budget(DEFAULT_BUDGET if budget is None else budget)
    slots: Slots = {}
    problem = _prepare([_Constraint(ax, True, slots) for ax in ontology.axioms], slots)
    for n in range(1, max_size + 1):
        vals = _solve_at_size(problem, slots, n, tracker)
        if vals is not None:
            interp = _build_interpretation(vals, slots, n, set(ontology.signature))
            return SatisfiableAt(interp, n)
    return NoModelUpTo(max_size)


def check_entailment(premise: Ontology, conclusion: Ontology, max_size: int, *, budget: Optional[int] = None):
    """Search for a model of `premise` violating some axiom of `conclusion`.

    Interpretations range over the union of both signatures. Complete up to
    the bound and deterministic; axioms of the conclusion that appear
    verbatim in the premise cannot be violated and are skipped. `budget` is
    as for `find_model`.
    """
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    tracker = _Budget(DEFAULT_BUDGET if budget is None else budget)
    premise_axioms = set(premise.axioms)
    targets = [ax for ax in conclusion.axioms if ax not in premise_axioms]
    if not targets:
        return NoCounterexampleUpTo(max_size)
    slots: Slots = {}
    base = [_Constraint(ax, True, slots) for ax in premise.axioms]
    # Built up front, so that `slots` holds every component a witness shows.
    negated = [_Constraint(ax, False, slots) for ax in targets]
    problems: list[Optional[_Problem]] = [None] * len(targets)  # planned on first use
    all_terms = set(premise.signature) | set(conclusion.signature)
    for n in range(1, max_size + 1):
        for k, target in enumerate(negated):
            if problems[k] is None:
                problems[k] = _prepare(base + [target], slots)
            vals = _solve_at_size(problems[k], slots, n, tracker)
            if vals is not None:
                interp = _build_interpretation(vals, slots, n, all_terms)
                return NotEntailed(interp)
    return NoCounterexampleUpTo(max_size)
