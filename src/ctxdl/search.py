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
compile walk per side: it builds the side's interval closure over slots and
collects the slots the side reads, which give the constraint's components
and the atoms it can bound. That one closure serves everywhere: under a
total assignment its interval is the exact value `(v, v)`, so the check of
a candidate is the same `decide` as the check of a bracket, and a bound
reads the low end of its side. A projector per axiom and atom is compiled
on its first projection. Both follow one table of mask rules, one per
compound constructor, and take the domain size at run time, so one plan
serves every size. A witness is decoded from the slots in one pass.

Pruning machinery, in order of impact:

* a told-fact closure (`_refute`) refutes before the search where forward
  chaining over facts about the named individuals, plus a fresh element for
  a conclusion inclusion assumed to fail, meets a clash: one rule row per
  constructor, keyed like the mask rules. A clash holds at every size, so
  `find_model` stops after size 1 has failed, and `check_entailment` drops a
  conclusion axiom before its first candidate; the derivation rides on the
  verdict. It only refutes: it never bounds or orders a search;
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
* check first, one rule for every axiom at every component it reads:
  before a component's candidates are tried, each axiom that reads it is
  decided with its atom reading the bracket `(lower, upper)` and its later
  components open. An axiom settled against there fails every candidate,
  so the frame fails without trying one; one settled in favour is dropped
  there; the rest are decided on each candidate, exactly at the axiom's
  last component and on intervals before it;
* backward projection (HC4-revise, Benhamou et al. 1999): each mask rule
  also has a backward rule, which turns the bounds required of a node and
  the intervals of its other children into bounds on each child. At a
  position where a frame has already failed in the group's search, each
  positive axiom that check first leaves open there pushes its required
  bounds (the left side inside the high end of the right side, the right
  side around the low end of the left side) down to the position's own
  atom and narrows the bracket; an empty bracket fails the frame, and the
  open axioms are decided again on the narrowed one. Surviving candidates
  keep their order, so the first witness does not move;
* one failure rule (conflict-directed backjumping, Prosser 1993): every
  failure returns a conflict set, the positions it read, and the jump back
  merges it into the deepest frame it names. A frame records the setters
  of its bracket: the positions its producers read and, where narrowing
  moved the bracket, those of the axioms that narrowed it. A clash between
  the bounds (an empty bracket) blames the setters; an axiom that fails
  blames its components before this one and the setters; an exhausted
  frame blames its conflict set and the setters;
* retry: a check-first failure that narrowing took part in is pushed once
  more with the deepest position it blames reading its frame's bracket. If
  it fails again, that frame fails whole instead of trying its remaining
  candidates: in the conflict set, the position is replaced by its frame's
  conflict set and setters;
* independent subproblems (connected components of the axiom/term graph) are
  solved separately and merged;
* on failure, backjumping skips re-enumeration of components that did not
  contribute to the conflict.

Verdicts are always relative to the bound; `NoModelUpTo(n)` is a complete
claim for every domain of size <= n over the ontology's signature, and one
that carries a derivation holds at every size.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Optional

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
# An interval closure `f(vals, dom) -> (lo, hi)` works under a partial
# assignment: lo is contained in the value under every completion, hi
# contains it, and unassigned atoms contribute (empty, everything). A
# component may also hold a bracket `(lo, hi)` instead of a value: its atom
# then reads that bracket, and the result covers every completion whose
# value lies between the two. This decides many axioms long before all
# their components are assigned, which is what keeps single wide axioms
# from forcing full enumeration. Where every component it reads holds a
# value, the result is exact: `lo == hi`, the value itself, and each
# operation runs once (HC4-revise's degenerate interval, Benhamou et al.
# 1999). The search has no other evaluator.

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


def _interval(e, slots: Slots, reads: set[int]) -> Interval:
    """The interval closure of `e`; `reads` gains the slot of each component
    it reads."""
    read = _ATOMS.get(e.__class__)
    if read is not None:
        s, role = _slot(slots, read(e)), e.__class__ is RoleAtom
        reads.add(s)

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
        reads.update(members)

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
        reads.add(s)
        if len(e) == 1:

            def point(v, d):
                x = v[s]
                if x is None:
                    return 0, d.full
                return 1 << x, 1 << x

            return point
        o = _slot(slots, (IND, e[1]))
        reads.add(o)

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
    fs = [_interval(c, slots, reads) for c in children(e)]
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
    fs = [_interval(c, slots, set()) for c in kids]
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
    side is its point, the tuple of its individuals, which `_interval`
    compiles as a leaf. The domain and range shapes `∃R.⊤ ⊑ D` and
    `⊤ ⊑ ∀R.C` of an atomic role R are read as `R ⊑ D×⊤` and `R ⊑ ⊤×C`,
    so R is bounded like an atom on the left of any inclusion."""
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


class _Constraint:
    """An axiom required to hold (positive) or to fail, read as the inclusion
    `left ⊑ right`, each side compiled to its interval closure in the walk
    that collects the slots it reads. `comps` holds the slots of both sides.
    `upper` is the slot of an atom on the left that the right side does not
    read, and `lower` that of an atom on the right that the left side does
    not read (for a negative constraint, only against a point), or None:
    the atoms `_producer` can bound."""

    def __init__(self, axiom: Axiom, positive: bool, slots: Slots):
        self.positive = positive
        self.left, self.right = left, right = _inclusion(axiom)
        self.slots = slots
        left_reads, right_reads = set(), set()
        self.intervals = _interval(left, slots, left_reads), _interval(right, slots, right_reads)
        self.comps = tuple(left_reads | right_reads)
        # An atom side reads one slot, so the other side reads it only
        # where the two sides share a slot.
        apart = left_reads.isdisjoint(right_reads)
        self.upper = min(left_reads) if apart and positive and left.__class__ in _ATOMS else None
        point = left.__class__ is tuple
        self.lower = min(right_reads) if apart and (positive or point) and right.__class__ in _ATOMS else None

    @cached_property
    def decide(self) -> Callable[[Vals, _Domain], Optional[bool]]:
        """True / False when the axiom is settled under every completion of
        the partial assignment; None when still open. Under a total
        assignment of its components it is never None: it says whether the
        axiom holds."""
        f, g = self.intervals

        def decide(v, d):
            (llo, lhi), (rlo, rhi) = f(v, d), g(v, d)
            if not lhi & ~rlo:
                return True
            if llo & ~rhi:
                return False
            return None

        return decide

    _projectors: Optional[dict] = None  # target slot -> projector, filled on use

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


def _producer(con: _Constraint, target: int) -> Optional[tuple[str, Interval]]:
    """`con` consumed as a bound on the slot `target`, or None when it is not
    one. A bound is `(kind, bound)`: the kind, "L" (forced members), "U"
    (allowed members) or "X" (excluded members), and the interval closure of
    the side of the inclusion whose value is the bound's mask. Where the
    other side does not read it, the atom on the left of a positive
    inclusion is bounded above by the right side, and the atom on the right
    below by the left side; an assertion required to fail excludes its
    point. The bound's side reads only earlier positions, which always hold
    values when it is read (`_lift_position` never lifts a position the
    producers read), so its interval is exact and `_bracket` takes its low
    end."""
    if target == con.upper:
        return "U", con.intervals[1]
    if target == con.lower:
        return "L" if con.positive else "X", con.intervals[0]
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
    # The bounds consumed at each position, `(kind, bound)` as `_producer`
    # gives them, and the positions they read: the setters of its bracket.
    producers_at: list[Sequence[tuple[str, Interval]]]
    setters: list[int]
    # Each constraint not consumed as a bound, at every position it reads:
    # (decide, failing, blame, the constraint). `failing` is the verdict
    # that fails it, not positive; `blame` the positions it reads before
    # this one. `decide` reads the bracket in check first and the value on
    # each candidate, and is exact at the constraint's last position.
    checks_at: list[Sequence[tuple[Callable, bool, int, _Constraint]]]


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
    setters = [0] * len(order)
    checks_at: list = [()] * len(order)
    for con in constraints:
        positions = 0
        for c in con.comps:
            positions |= 1 << position[c]
        i = positions.bit_length() - 1
        prod = _producer(con, order[i])
        if prod is not None:
            if not (entries := producers_at[i]):
                entries = producers_at[i] = []
            entries.append(prod)
            setters[i] |= positions & ~(1 << i)
            continue
        # Decide the axiom at every position it reads; many are settled
        # well before their last one. Where a later position is still
        # unassigned, only the earlier ones can have settled it.
        for c in con.comps:
            j = position[c]
            if not (entries := checks_at[j]):
                entries = checks_at[j] = []
            entries.append((con.decide, not con.positive, positions & ((1 << j) - 1), con))

    aspects = [keys[c][0] for c in order]
    return _Plan(order, aspects, producers_at, setters, checks_at)


def _bracket(producers: Sequence[tuple[str, Interval]], vals: Vals, d: _Domain, upper: int) -> tuple[int, int]:
    """The `(lower, upper)` bounds the producers put on one component."""
    lower = 0
    for kind, bound in producers:
        mask = bound(vals, d)[0]
        if kind == "L":
            lower |= mask
        elif kind == "U":
            upper &= mask
        else:
            upper &= ~mask
    return lower, upper


def _fail_whole(frame: list, k: int, blame: int) -> int:
    """The conflict set of a failure that blames `blame` and recurs with the
    deepest position it blames, k, reading `frame`'s bracket: no value at k
    can help, so frame k fails whole. In the blame, k is replaced by k's
    accumulated conflict set and the setters of its bracket."""
    return blame & ~(1 << k) | frame[1] | frame[5]


def _lift_position(plan: _Plan, blame: int, reads: int) -> int:
    """The deepest position in `blame` (not empty), to be read as its
    frame's bracket in a retry; -1 where it cannot be: an individual holds
    no bracket, and where the failed position's producers read it
    (`reads`), their bounds would change with it. Only a failure that
    narrowing took part in is retried: retrying every check-first failure
    cost `refute` 7% for no fewer candidates there."""
    k = blame.bit_length() - 1
    if plan.aspects[k] == IND or reads >> k & 1:
        return -1
    return k


def _push(plan: _Plan, i: int, vals: Vals, d: _Domain, project: int) -> list | tuple[int, int]:
    """The frame of position i, or its failure.

    A frame is [its remaining candidates, its conflict set, the low and the
    high end of its bracket, the checks the bracket leaves open, the
    setters of its bracket]. A failure is `(its conflict set, k)`, where k
    is the position to read its frame's bracket in a retry
    (`_lift_position`) for a failure that narrowing took part in, and -1
    for any other.

    Every failure blames the setters: the positions the producers read,
    and once narrowing has moved the bracket, those of the constraints
    that narrowed it (`blame`), where the frame's conflict set starts too.
    A clash between the bounds, an empty bracket, blames the setters
    alone. Then check first, over the whole bracket, of every constraint
    that reads position i: one settled against fails every candidate, so
    none is tried, and blames the positions it reads before i too; one
    settled in favour holds for every candidate and every completion, so
    it is dropped from the frame. Then, where `project` is set, each
    positive constraint left open narrows the bracket to the values its
    projector allows, and a second round decides the open constraints
    again on the narrowed bracket."""
    checks = open_checks = plan.checks_at[i]
    aspect = plan.aspects[i]
    if aspect == IND:  # no producer bounds an individual
        return [iter(range(d.n)), 0, None, None, checks, 0]
    reads = setters = plan.setters[i]
    lower, upper = _bracket(plan.producers_at[i], vals, d, d.pairs if aspect == ROLE else d.full)
    if lower & ~upper:
        return setters, -1
    slot, blame = plan.slots[i], 0
    conflict = None
    while checks:
        vals[slot] = (lower, upper)
        open_checks, projectable, narrowed = [], [], False
        for check in checks:
            decide, failing, earlier, _ = check
            settled = decide(vals, d)
            if settled is None:
                open_checks.append(check)
                if project and not failing:
                    projectable.append(check)
            elif settled is failing:
                conflict = earlier | setters
                break
        else:
            for check in projectable:
                projector = check[3].projector(slot)
                if projector is None:
                    continue
                lo, hi = projector(vals, d)
                lo, hi = lo | lower, hi & upper
                if lo != lower or hi != upper:
                    lower, upper, narrowed = lo, hi, True
                    blame |= check[2]
                    setters = reads | blame
                    if lower & ~upper:
                        conflict = setters
                        break
                    vals[slot] = (lower, upper)
        if conflict is not None or not narrowed:
            break
        checks, project = open_checks, 0
    vals[slot] = None
    if conflict is None:
        return [_submasks(lower, upper ^ lower), blame, lower, upper, open_checks, setters]
    return conflict, _lift_position(plan, conflict, reads) if blame else -1


def _solve_group(plan: _Plan, d: _Domain, vals: Vals, budget: _Budget) -> Optional[int]:
    """Fill `vals` with a satisfying assignment for this group, or return the
    conflict set (a mask of positions) of an exhausted search. None means
    success.

    Depth-first over the plan's order with an explicit stack of the frames
    `_push` makes. A candidate is decided by the checks its frame left
    open, one list over every constraint that reads the position: the
    first that fails it adds the positions it reads before this one to the
    frame's conflict set. Every failure returns a conflict set, and the
    jump back merges it into the frame of the deepest position it blames.
    A failure that narrowing took part in is pushed once more with the
    position k it names reading frame k's bracket; if that fails too and
    blames no position between k and i, frame k fails whole
    (`_fail_whole`). An exhausted frame blames its conflict set and the
    setters of its bracket."""
    depth = len(plan.slots)
    pslots = plan.slots
    tick = budget.tick
    frames: list[list] = []
    failed_at = 0  # positions where a frame has failed: projection runs there
    while True:
        # Push the frame of the next position.
        i = len(frames)
        if i == depth:
            return None
        project = failed_at >> i & 1
        pushed = _push(plan, i, vals, d, project)
        returned: Optional[int] = None
        if pushed.__class__ is list:
            frames.append(pushed)
        else:
            returned, k = pushed
            if k >= 0:
                frame, slot = frames[k], pslots[k]
                value, vals[slot] = vals[slot], (frame[2], frame[3])
                retried = _push(plan, i, vals, d, project)
                vals[slot] = value
                if retried.__class__ is tuple and not retried[0] >> k + 1:
                    returned = _fail_whole(frame, k, retried[0])
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
            conflict, checks = frame[1], frame[4]
            for value in frame[0]:
                tick()
                vals[slot] = value
                for decide, failing, earlier, _ in checks:
                    if decide(vals, d) is failing:
                        conflict |= earlier
                        break
                else:
                    break
            else:
                vals[slot] = None
                frames.pop()
                failed_at |= 1 << i
                returned = conflict | frame[5]
                continue
            frame[1] = conflict
            break
        else:
            return returned


# ---------------------------------------------------------------------------
# Told-fact closure: refutation at every size at once
# ---------------------------------------------------------------------------
#
# A told-fact pass (Baader et al. 1994; Horrocks & Patel-Schneider 1999)
# chains forward over facts: an element is in (IN) or not in (OUT) a concept
# node, or a pair is in or not in a role node. Elements are the named
# individuals and, for a conclusion axiom assumed to fail, one fresh element
# 0 for a concept inclusion or a fresh pair (0, 1) for a role inclusion. No
# unique name assumption is made: a fact about a name holds of the element
# the name denotes, so a derivation stays sound where two names share one.
# A fact derived both ways is a clash, which no interpretation of any size
# escapes. The closure only refutes: it never bounds or orders a search.

IN, OUT = 1, 2


@dataclass(frozen=True)
class Step:
    """One step of a told-fact refutation: `key`, an element or a pair of
    elements, is (`member` True) or is not (False) in `expr`. An element is
    a named individual's Term, or the fresh element 0 or 1. The step
    follows from the earlier steps `premises` by the rule row of `expr`'s
    constructor or of a parent's, or by `axiom`: an inclusion or assertion
    of the input, or where `negated`, the conclusion axiom assumed to fail.
    The last step of a refutation is its clash, with `member` None: its two
    premises state that `key` is in and is not in `expr`."""

    expr: object
    key: object
    member: Optional[bool]
    premises: tuple[int, ...] = ()
    axiom: Optional[Axiom] = None
    negated: bool = False


class _Clash(Exception):
    pass


class _Closure:
    """The facts of one refutation attempt. Expression nodes are interned to
    ids, bottom up, so that equal sub-expressions of different axioms share
    their facts, and elements to their index in `elements`. A fact is
    `(node, key, bit)`, where the key is an element's index or a pair of
    them; `why` maps each to its premises, axiom and whether that axiom is
    negated, in the order the facts were derived."""

    def __init__(self) -> None:
        self.ids: dict = {}
        self.exprs: list = []
        self.rows: list[tuple] = []
        self.kids: list[tuple[int, ...]] = []
        self.parents: list[list[tuple[int, int]]] = []
        # Per node, what its inclusions send: IN of a left side to the
        # right side, OUT of a right side to the left side.
        self.sends: list[list[tuple[int, int, Axiom]]] = []
        self.elements: dict = {}
        self.facts: dict[tuple, int] = {}
        self.why: dict[tuple, tuple] = {}
        self.queue: list[tuple] = []
        # The pairs IN each role node: successors and predecessors.
        self.out: dict[tuple, dict] = {}
        self.into: dict[tuple, dict] = {}

    def node(self, e) -> int:
        """The id of `e`. A compound node is keyed by its constructor, the
        ids of its children and a cardinality bound, so hashing it does not
        walk the tree below it."""
        kids = tuple(map(self.node, children(e)))
        key = (e.__class__, kids, e.bound if e.__class__ in (AtMost, AtLeast) else None) if kids else e
        n = self.ids.get(key)
        if n is None:
            n = self.ids[key] = len(self.exprs)
            self.exprs.append(e)
            self.rows.append(_closure_row(e))
            self.kids.append(kids)
            self.parents.append([])
            self.sends.append([])
            for i, c in enumerate(kids):
                self.parents[c].append((n, i))
            if e.__class__ is Nominals:
                for u in e.members:
                    self.element(u)
        return n

    def element(self, x) -> int:
        return self.elements.setdefault(x, len(self.elements))

    def bits(self, n: int, key) -> int:
        return self.facts.get((n, key), 0)

    def add(self, n: int, key, bit: int, premises: tuple = (), axiom: Optional[Axiom] = None,
            negated: bool = False) -> None:
        old = self.facts.get((n, key), 0)
        if old & bit:
            return
        self.facts[(n, key)] = old | bit
        self.why[(n, key, bit)] = (premises, axiom, negated)
        if old:
            raise _Clash(n, key)
        self.queue.append((n, key, bit))
        if bit == IN and key.__class__ is tuple:
            x, y = key
            self.out.setdefault((n, x), {})[y] = None
            self.into.setdefault((n, y), {})[x] = None

    def run(self) -> None:
        """Derive until nothing new follows; a clash raises `_Clash`."""
        queue, rows, parents, sends = self.queue, self.rows, self.parents, self.sends
        i = 0
        while i < len(queue):
            fact = n, key, bit = queue[i]
            i += 1
            settle = rows[n][1]
            if settle is not None:
                settle(self, n, key)
            for p, k in parents[n]:
                _, settle, lift = rows[p]
                if settle is not None:
                    for pkey in lift(self, p, k, key):
                        settle(self, p, pkey)
            for sent, target, axiom in sends[n]:
                if sent == bit:
                    self.add(target, key, bit, (fact,), axiom)

    def steps(self, n: int, key, first: int) -> tuple[Step, ...]:
        """The derivation of the clash at `(n, key)`, its steps numbered
        from `first`: the facts it needs, in the order they were derived."""
        order = {fact: i for i, fact in enumerate(self.why)}
        needed, stack = set(), [(n, key, IN), (n, key, OUT)]
        while stack:
            fact = stack.pop()
            if fact not in needed:
                needed.add(fact)
                stack.extend(self.why[fact][0])
        names = list(self.elements)

        def named(k):
            return (names[k[0]], names[k[1]]) if k.__class__ is tuple else names[k]

        number = {}
        out = []
        for fact in sorted(needed, key=order.__getitem__):
            premises, axiom, negated = self.why[fact]
            number[fact] = first + len(out)
            m, k, bit = fact
            out.append(Step(self.exprs[m], named(k), bit == IN, tuple(number[p] for p in premises), axiom, negated))
        clash = (number[(n, key, IN)], number[(n, key, OUT)])
        out.append(Step(self.exprs[n], named(key), None, clash))
        return tuple(out)


def _refute(axioms: Sequence[Axiom], negated: Optional[Axiom] = None, first: int = 0) -> tuple[Step, ...]:
    """A told-fact derivation of a clash from `axioms`, and from `negated`
    assumed to fail, with its steps numbered from `first`; () where the
    closure derives none. Nothing it builds outlives the call."""
    cl = _Closure()
    told = []
    for ax in axioms:
        if ax.__class__ is ConceptAssert:
            told.append((cl.node(ax.concept), cl.element(ax.individual), ax))
        elif ax.__class__ is RoleAssert:
            told.append((cl.node(ax.role), (cl.element(ax.subject), cl.element(ax.object)), ax))
        else:
            left, right = cl.node(ax.left), cl.node(ax.right)
            cl.sends[left].append((IN, right, ax))
            cl.sends[right].append((OUT, left, ax))
    assumed = []
    if negated.__class__ is ConceptAssert:
        assumed.append((cl.node(negated.concept), cl.element(negated.individual), OUT))
    elif negated.__class__ is RoleAssert:
        assumed.append((cl.node(negated.role), (cl.element(negated.subject), cl.element(negated.object)), OUT))
    elif negated is not None:
        # The fresh elements 0 and 1: ints, which no Term equals.
        key = cl.element(0) if negated.__class__ is ConceptSub else (cl.element(0), cl.element(1))
        assumed += [(cl.node(negated.left), key, IN), (cl.node(negated.right), key, OUT)]
    try:
        for n, row in enumerate(cl.rows):
            if row[0] is not None:
                row[0](cl, n)
        for n, key, ax in told:
            cl.add(n, key, IN, (), ax)
        for n, key, bit in assumed:
            cl.add(n, key, bit, (), negated, True)
        cl.run()
    except _Clash as clash:
        return cl.steps(*clash.args, first)
    return ()


# The rule rows. A row is `(seed, settle, lift)`, each None where the row
# has none: `seed(cl, n)` adds the facts that node n holds for every input,
# `settle(cl, n, key)` derives what the facts of n and of its children at
# `key` give, and `lift(cl, n, i, key)` names the keys of n to settle again
# when its child i gains a fact at `key`.


def _seed_every(bit: int) -> Callable:
    def seed(cl: _Closure, n: int) -> None:
        for x in range(len(cl.elements)):
            cl.add(n, x, bit)

    return seed


def _seed_members(cl: _Closure, n: int) -> None:
    for u in cl.exprs[n].members:
        cl.add(n, cl.elements[u], IN)


def _same_key(cl: _Closure, n: int, i: int, key) -> tuple:
    return (key,)


def _gate(dominant: int) -> Callable:
    """`settle` of ⊓ (`dominant` OUT) and ⊔ (`dominant` IN), on concepts
    and roles alike: one child with the dominant bit gives it to the node,
    both children with the other bit give that, the node with the other bit
    gives it to both children, and the node with the dominant bit gives it
    to a child whose sibling has the other bit. `or(X, bottom)` is thereby
    X, since no element is in ⊥."""
    other = IN + OUT - dominant

    def settle(cl: _Closure, n: int, key) -> None:
        left, right = cl.kids[n]
        node, lbits, rbits = cl.bits(n, key), cl.bits(left, key), cl.bits(right, key)
        if lbits & dominant:
            cl.add(n, key, dominant, ((left, key, dominant),))
        elif rbits & dominant:
            cl.add(n, key, dominant, ((right, key, dominant),))
        if lbits & rbits & other:
            cl.add(n, key, other, ((left, key, other), (right, key, other)))
        if node & other:
            cl.add(left, key, other, ((n, key, other),))
            cl.add(right, key, other, ((n, key, other),))
        if node & dominant:
            if lbits & other:
                cl.add(right, key, dominant, ((n, key, dominant), (left, key, other)))
            if rbits & other:
                cl.add(left, key, dominant, ((n, key, dominant), (right, key, other)))

    return settle


def _settle_neg(cl: _Closure, n: int, key) -> None:
    """¬: each bit of the node is the other bit of its child, both ways."""
    (sub,) = cl.kids[n]
    for source, target in ((n, sub), (sub, n)):
        bits = cl.bits(source, key)
        for bit in (IN, OUT):
            if bits & bit:
                cl.add(target, key, IN + OUT - bit, ((source, key, bit),))


def _settle_inverse(cl: _Closure, n: int, key) -> None:
    """inv: the node at (x, y) has the bits of its child at (y, x), both ways."""
    (sub,) = cl.kids[n]
    x, y = key
    for source, skey, target, tkey in ((n, key, sub, (y, x)), (sub, (y, x), n, key)):
        bits = cl.bits(source, skey)
        for bit in (IN, OUT):
            if bits & bit:
                cl.add(target, tkey, bit, ((source, skey, bit),))


def _restriction(universal: int, filler: int) -> tuple:
    """The row of a restriction over the told pairs of its role: a node with
    the bit `universal` at x gives `filler` to the filler at each successor
    of x, and a successor with the other filler bit gives the node the other
    bit at x. ∀R.C is (IN, IN), ≤0 R.C (IN, OUT), and ∃R.C and ≥1 R.C
    (OUT, OUT)."""
    other_universal, other_filler = IN + OUT - universal, IN + OUT - filler

    def settle(cl: _Closure, n: int, x) -> None:
        role, concept = cl.kids[n]
        node = cl.bits(n, x)
        for y in list(cl.out.get((role, x), ())):
            edge = (role, (x, y), IN)
            if node & universal:
                cl.add(concept, y, filler, ((n, x, universal), edge))
            if cl.bits(concept, y) & other_filler:
                cl.add(n, x, other_universal, (edge, (concept, y, other_filler)))

    def lift(cl: _Closure, n: int, i: int, key) -> Iterable:
        if i == 0:
            return (key[0],)
        return list(cl.into.get((cl.kids[n][0], key), ()))

    return None, settle, lift


def _settle_compose(cl: _Closure, n: int, key) -> None:
    """∘: told pairs (x, y) of the left child and (y, z) of the right one
    give the node (x, z)."""
    left, right = cl.kids[n]
    x, z = key
    for y in list(cl.out.get((left, x), ())):
        if z in cl.out.get((right, y), ()):
            cl.add(n, key, IN, ((left, (x, y), IN), (right, (y, z), IN)))
            return


def _lift_compose(cl: _Closure, n: int, i: int, key) -> list:
    left, right = cl.kids[n]
    if i == 0:
        x, y = key
        return [(x, z) for z in cl.out.get((right, y), ())]
    y, z = key
    return [(x, z) for x in cl.into.get((left, y), ())]


def _settle_product(cl: _Closure, n: int, key) -> None:
    """×: (x, y) is in the node where x is in the left child and y in the
    right one, and a pair in the node puts its ends there."""
    left, right = cl.kids[n]
    x, y = key
    if cl.bits(n, key) & IN:
        cl.add(left, x, IN, ((n, key, IN),))
        cl.add(right, y, IN, ((n, key, IN),))
    if cl.bits(left, x) & cl.bits(right, y) & IN:
        cl.add(n, key, IN, ((left, x, IN), (right, y, IN)))


def _lift_product(cl: _Closure, n: int, i: int, key) -> list:
    every = range(len(cl.elements))
    return [(key, y) for y in every] if i == 0 else [(x, key) for x in every]


_NO_RULE = (None, None, None)
_TOP, _BOTTOM = (_seed_every(IN), None, None), (_seed_every(OUT), None, None)
_OR, _AND = (None, _gate(IN), _same_key), (None, _gate(OUT), _same_key)
_NEG = (None, _settle_neg, _same_key)
_FORALL, _AT_MOST_0, _EXISTS = _restriction(IN, IN), _restriction(IN, OUT), _restriction(OUT, OUT)

# Per constructor, the maker of its row from the node, as for `_MASK_RULES`.
_CLOSURE_RULES: dict[type, Callable] = {
    Top: _fixed(_TOP),
    Bottom: _fixed(_BOTTOM),
    TopCtx: _fixed(_NO_RULE),
    ConceptAtom: _fixed(_NO_RULE),
    ConceptUnion: _fixed(_OR),
    ConceptIntersection: _fixed(_AND),
    ConceptNeg: _fixed(_NEG),
    Exists: _fixed(_EXISTS),
    Forall: _fixed(_FORALL),
    # No element has a successor in ⊥: at most k of them is ⊤, and at
    # least k ≥ 1 of them is ⊥.
    AtMost: lambda e: _TOP if e.concept.__class__ is Bottom else _AT_MOST_0 if e.bound == 0 else _NO_RULE,
    AtLeast: lambda e: (_TOP if e.bound == 0 else _BOTTOM if e.concept.__class__ is Bottom
                        else _EXISTS if e.bound == 1 else _NO_RULE),
    Nominals: _fixed((_seed_members, None, None)),
    RoleAtom: _fixed(_NO_RULE),
    RoleUnion: _fixed(_OR),
    RoleIntersection: _fixed(_AND),
    RoleNeg: _fixed(_NEG),
    Inverse: _fixed((None, _settle_inverse, lambda cl, n, i, key: (key[::-1],))),
    Compose: _fixed((None, _settle_compose, _lift_compose)),
    Closure: _fixed(_NO_RULE),
    Product: _fixed((None, _settle_product, _lift_product)),
}


def _closure_row(e) -> tuple:
    try:
        return _CLOSURE_RULES[type(e)](e)
    except KeyError:
        raise TypeError(f"not an expression: {e!r}") from None


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
        if con.decide(vals, d) is not con.positive:
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
    budget is a `ValueError`. Where size 1 has no model and the bound is
    larger, the told-fact closure runs once; its refutation is returned with
    its derivation and without a further candidate.
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
        if n == 1 < max_size and (derivation := _refute(ontology.axioms)):
            return NoModelUpTo(max_size, derivation)
    return NoModelUpTo(max_size)


def check_entailment(premise: Ontology, conclusion: Ontology, max_size: int, *, budget: Optional[int] = None):
    """Search for a model of `premise` violating some axiom of `conclusion`.

    Interpretations range over the union of both signatures. Complete up to
    the bound and deterministic; axioms of the conclusion that appear
    verbatim in the premise cannot be violated and are skipped. `budget` is
    as for `find_model`. Before a conclusion axiom's first candidate, the
    told-fact closure tries to refute the premise with that axiom assumed to
    fail; an axiom it refutes is not searched, and its derivation joins the
    verdict's. Nothing is compiled before the first axiom it leaves.
    """
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    tracker = _Budget(DEFAULT_BUDGET if budget is None else budget)
    premise_axioms = set(premise.axioms)
    targets = [ax for ax in conclusion.axioms if ax not in premise_axioms]
    if not targets:
        return NoCounterexampleUpTo(max_size)
    slots: Slots = {}
    base: list[_Constraint] = []
    negated: list[_Constraint] = []
    # Per target: None until it is first reached, then its plan, or False
    # where the closure refutes it.
    problems: list = [None] * len(targets)
    derivation: tuple[Step, ...] = ()
    all_terms = set(premise.signature) | set(conclusion.signature)
    for n in range(1, max_size + 1):
        for k, target in enumerate(targets):
            if problems[k] is None:
                refuted = _refute(premise.axioms, target, len(derivation))
                derivation += refuted
                if not refuted and not negated:
                    # Both lists at once, premise first, so that `slots`
                    # numbers every component a witness shows as it would
                    # had nothing been refuted.
                    base = [_Constraint(ax, True, slots) for ax in premise.axioms]
                    negated = [_Constraint(ax, False, slots) for ax in targets]
                problems[k] = False if refuted else _prepare(base + [negated[k]], slots)
            if problems[k] is False:
                continue
            vals = _solve_at_size(problems[k], slots, n, tracker)
            if vals is not None:
                interp = _build_interpretation(vals, slots, n, all_terms)
                return NotEntailed(interp)
    return NoCounterexampleUpTo(max_size, derivation)
