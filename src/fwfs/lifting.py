"""Lifting operations, lifting structures, and the left/right
lifting-property double categories.

A lifting operation over a pair of concrete double categories (L, R)
chooses, for every L-vertical j, R-vertical k and commuting square
(u, v): Uj -> Vk, a diagonal filler d with d∘Uj = u and Vk∘d = v.  The
checker verifies four compatibility families besides filler validity:
naturality in L-squares and in R-squares, and agreement with vertical
composition on each side (a lift against a composite equals the two-step
lift through the middle object).

Every construction is written once, for the left-hand side and for RLP.
A lifting structure (L, φ, R) on C is also the structure (R^op, φ^op,
L^op) on C^op, with the same fillers: the square (top, bottom): Uj -> Vk
of C is the square (bottom, top): Vk -> Uj of C^op.  So the right-hand
laws are the left-hand laws of the dual, LLP(R) is RLP(R^op) seen from
C, and reports are written back in C's terms (see :func:`_dual_witnesses`).

Lifting problems are walked in the one order of :func:`lifting_problems`.

LLP/RLP are never materialized globally: they are oracle-backed
:class:`~fwfs.dblcat.ConcreteDouble` realizations whose verticals are
enumerated per underlying morphism under the checker's budget.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass

from .dblcat import (ClosureError, ConcreteDouble, ConcreteDoubleMap,
                     OppositeDouble)
from .fincat import FinCategory, OppositeCategory
from .report import UNBOUNDED, Budget, Cases, Report


def enumerate_fillers(C: FinCategory, left, right, top, bottom):
    """All diagonals d with d∘left = top and right∘d = bottom, in
    lexicographic order."""
    out = []
    for d in C.hom(C.cod[left], C.dom[right]):
        if C.comp[(d, left)] == top and C.comp[(right, d)] == bottom:
            out.append(d)
    return out


# ---------------------------------------------------------------------------
# duality

# a right-hand law is checked as the left-hand law of the dual structure;
# its witnesses name the left-hand keys, renamed here to the right-hand
# law's, and each square's edges are swapped back to C's orientation
_HORIZONTAL = {"i": "k'", "j": "k", "left-square": "right-square"}
_VERTICAL = {"i": "l", "j": "k"}
_DUAL_KEYS = {
    "filler-validity": {"j": "k"},
    "horizontal-compatibility": _HORIZONTAL,
    "horizontal-right": _HORIZONTAL,
    "vertical-compatibility": _VERTICAL,
    "vertical-right": _VERTICAL,
    "universal-right": {"x": "y"},
}
_SQUARE_KEYS = ("square", "left-square")


def _dual_witnesses(name, witnesses):
    """Witnesses of a law checked on C^op, as check ``name`` writes them
    on C."""
    keys = _DUAL_KEYS.get(name, {})
    return [{keys.get(k, k): v[::-1] if k in _SQUARE_KEYS else v
             for k, v in w.items()} for w in witnesses]


# ---------------------------------------------------------------------------
# lifting operations


def lifting_problems(L: ConcreteDouble, R: ConcreteDouble):
    """Every lifting problem of L against R, as (j, k, top, bottom) with
    (top, bottom): Uj -> Vk a square of C, in the order of every table
    and report over them: j by label, then k by label, then C's squares."""
    squares = L.base.squares
    rverts = [(k, R.underlying(k)) for k in sorted(R.verticals(), key=R.label)]
    for j in sorted(L.verticals(), key=L.label):
        lj = L.underlying(j)
        for k, rk in rverts:
            for top, bottom in squares(lj, rk):
                yield j, k, top, bottom


class SideMismatch(ValueError):
    """The sides of a lifting operation or structure do not match: they
    lie over different base categories, or the operation was built for
    other double categories than the structure names."""


class NotOrthogonal(ValueError):
    """A square between the two classes has zero or several fillers."""

    def __init__(self, message, witness):
        super().__init__(f"{message}: {witness}")
        self.witness = witness


class LiftingOperation:
    """Base interface: ``fill(j, k, top, bottom)`` returns the chosen
    diagonal for the square (top, bottom): Uj -> Vk, or None if there is
    none."""

    def __init__(self, left: ConcreteDouble, right: ConcreteDouble):
        self.left = left
        self.right = right

    def fill(self, j, k, top, bottom):
        raise NotImplementedError

    def dual(self) -> LiftingOperation:
        """The same fillers as an operation over (R^op, L^op)."""
        return DualLifting(self)

    def table(self):
        """Materialize the full fill table keyed by labels; explicit
        sides only.  Used for equality comparisons in reports/tests."""
        L, R = self.left, self.right
        return {(L.label(j), R.label(k), top, bottom): self.fill(j, k, top, bottom)
                for j, k, top, bottom in lifting_problems(L, R)}


class TableLifting(LiftingOperation):
    """Finite table keyed by (label of j, label of k, top, bottom); a
    square the table lacks has no diagonal."""

    def __init__(self, left, right, entries):
        super().__init__(left, right)
        self.entries = dict(entries)

    def fill(self, j, k, top, bottom):
        return self.entries.get((self.left.label(j), self.right.label(k), top, bottom))


class DualLifting(LiftingOperation):
    """φ^op over (R^op, L^op): fill^op(k, j, bottom, top) = fill(j, k,
    top, bottom), the square of C^op being that of C transposed."""

    def __init__(self, op: LiftingOperation):
        super().__init__(op.right.op(), op.left.op())
        self.original = op

    def fill(self, k, j, bottom, top):
        return self.original.fill(j, k, top, bottom)

    def dual(self):
        return self.original


class RuleLifting(LiftingOperation):
    """Arbitrary callable rule (j, k, top, bottom) -> diagonal."""

    def __init__(self, left, right, rule, name=""):
        super().__init__(left, right)
        self.rule = rule
        self.name = name

    def fill(self, j, k, top, bottom):
        return self.rule(j, k, top, bottom)


def unique_filler_lifting(left: ConcreteDouble, right: ConcreteDouble
                          ) -> TableLifting:
    """The table of the unique fillers of the lifting problems: every
    square from a left vertical to a right vertical must have exactly
    one diagonal (the first with zero or two raises)."""
    C = left.base
    if right.base is not C and right.base.morphisms != C.morphisms:
        raise SideMismatch("left and right lie over different base categories")
    table = {}
    for j, k, top, bottom in lifting_problems(left, right):
        key = (left.underlying(j), right.underlying(k), top, bottom)
        fillers = enumerate_fillers(C, *key)
        if len(fillers) != 1:
            raise NotOrthogonal(f"{len(fillers)} fillers", key)
        table[(left.label(j), right.label(k), top, bottom)] = fillers[0]
    return TableLifting(left, right, table)


@dataclass
class LiftingStructure:
    left: ConcreteDouble
    op: LiftingOperation
    right: ConcreteDouble

    def __post_init__(self):
        if self.op.left is not self.left or self.op.right is not self.right:
            raise SideMismatch("the lifting operation was built for other "
                               "double categories")

    def dual(self) -> LiftingStructure:
        """(R^op, φ^op, L^op), the same structure on C^op."""
        return LiftingStructure(self.right.op(), self.op.dual(), self.left.op())


def _forced(C: FinCategory, valid):
    """Whether both sides of each compatibility case over squares x -> y
    agree: they are valid diagonals of one square of C, and it has at
    most one."""
    return C.unique_fillers if valid and C.is_category else lambda x, y: False


def _horizontal_left(op: LiftingOperation, valid, cases: Cases):
    """Naturality in squares of L: fill(j,k,s,t)∘r1 = fill(i,k,s∘r0,t∘r1),
    both diagonals of (s∘r0, t∘r1): Ui -> Vk.  Fills ``cases``.

    Whether the block against k is forced depends on i and k alone, so
    per pair (i, j) the forced blocks count len(L.squares(i, j)) times
    their cases at once, and only the others are walked."""
    L, R = op.left, op.right
    C = L.base
    comp = C.comp
    forced = _forced(C, valid)
    rverts = [(k, R.underlying(k)) for k in sorted(R.verticals(), key=R.label)]
    case, bad = cases.case, cases.bad
    for i, j in L.pairs(sorted(L.verticals(), key=L.label)):
        li, lj = L.underlying(i), L.underlying(j)
        blocks, forced_cases = [], 0
        for k, rk in rverts:
            squares = C.squares(lj, rk)
            if forced(li, rk):
                forced_cases += len(squares)
            else:
                blocks.append((k, squares))
        lsquares = L.squares(i, j)
        cases.count(len(lsquares) * forced_cases)
        for r0, r1 in lsquares:
            for k, squares in blocks:
                for s, t in squares:
                    case()
                    lhs = comp[(op.fill(j, k, s, t), r1)]
                    rhs = op.fill(i, k, comp[(s, r0)], comp[(t, r1)])
                    if lhs != rhs:
                        bad.append({"i": L.label(i), "j": L.label(j),
                                    "left-square": [r0, r1],
                                    "square": [s, t],
                                    "lhs": lhs, "rhs": rhs})


def _vertical_left(op: LiftingOperation, valid, cases: Cases):
    """fill(j∘i, k, s, t) = fill(j, k, fill(i, k, s, t∘Uj), t), both
    diagonals of (s, t): U(j∘i) -> Vk when U(j∘i) = Uj∘Ui; a composite
    j∘i that is no vertical, or whose U does not end where Uj does, is
    a witness too.  Fills ``cases``."""
    L, R = op.left, op.right
    C = L.base
    comp = C.comp
    forced = _forced(C, valid)
    lverts = sorted(L.verticals(), key=L.label)
    rverts = sorted(R.verticals(), key=R.label)
    lset = set(lverts)
    case, bad = cases.case, cases.bad
    for i, j in L.composable_pairs(lverts):
        pair = {"i": L.label(i), "j": L.label(j)}
        try:
            ji = L.compose(j, i)
        except ClosureError as e:  # a composite is no vertical
            cases.count(1)
            bad.append({**pair, "error": str(e)})
            continue
        uji = L.underlying(ji)
        uj = L.underlying(j)
        # the lifts against j∘i were validated, over Uj∘Ui
        validated = ji in lset and comp[(uj, L.underlying(i))] == uji
        for k in rverts:
            rk = R.underlying(k)
            squares = C.squares(uji, rk)
            if validated and forced(uji, rk):
                cases.count(len(squares))
                continue
            for s, t in squares:
                case()
                tj = comp.get((t, uj))
                if tj is None:  # U(j∘i) does not end where Uj does
                    bad.append({**pair, "square": [s, t],
                                "kind": "composite-boundary"})
                    continue
                rhs = op.fill(j, k, op.fill(i, k, s, tj), t)
                lhs = op.fill(ji, k, s, t)
                if lhs != rhs:
                    bad.append({**pair, "square": [s, t], "lhs": lhs, "rhs": rhs})


def check_lifting_operation(op: LiftingOperation,
                            budget: Budget = UNBOUNDED) -> Report:
    """Verify filler validity plus the four compatibility families.

    The right-hand families, naturality in R-squares and composition in
    R, are the left-hand ones of the dual operation on C^op.

    In every compatibility case both sides are diagonals of one
    commuting square of C, and both are valid once filler validity
    holds and C is a category.  Where that square has at most one
    diagonal (:meth:`FinCategory.unique_fillers`) the two sides are
    equal, so a block of cases over such a pair is counted in
    ``cases_examined`` without being evaluated and spends no budget.
    """
    L, R = op.left, op.right
    C = L.base
    comp = C.comp
    report = Report()
    with report.cases("filler-validity", budget) as cases:
        for j, k, top, bottom in lifting_problems(L, R):
            cases.case()
            d = op.fill(j, k, top, bottom)
            lj, rk = L.underlying(j), R.underlying(k)
            if (C.dom.get(d) != C.cod[lj] or C.cod.get(d) != C.dom[rk]
                    or comp[(d, lj)] != top or comp[(rk, d)] != bottom):
                cases.bad.append({"j": L.label(j), "k": R.label(k),
                                  "square": [top, bottom], "diagonal": d})
    valid = report.ok
    dual = op.dual()
    for name, law, on in (("horizontal-left", _horizontal_left, op),
                          ("horizontal-right", _horizontal_left, dual),
                          ("vertical-left", _vertical_left, op),
                          ("vertical-right", _vertical_left, dual)):
        if report.violations():
            break
        with report.cases(name, budget) as cases:
            law(on, valid, cases)
            if on is not op:
                cases.bad = _dual_witnesses(name, cases.bad)
    return report


# ---------------------------------------------------------------------------
# RLP / LLP verticals


def _theta_digest(f, theta):
    blob = repr((f, sorted(theta.items()))).encode()
    return hashlib.sha1(blob).hexdigest()[:10]


class RlpVertical:
    """A morphism f equipped with chosen fillers against every left
    vertical: theta[(label j, top, bottom)] fills (top, bottom): Uj -> f."""

    __slots__ = ("f", "theta", "_label")

    def __init__(self, f, theta):
        self.f = f
        self.theta = dict(theta)
        self._label = f"{f}~{_theta_digest(f, self.theta)}"

    @staticmethod
    def key(label, top, bottom):
        """The theta key of the filler of (top, bottom): Uj -> f."""
        return label, top, bottom

    def lift(self, label, top, bottom):
        """The stored filler of (top, bottom): Uj -> f."""
        return self.theta[self.key(label, top, bottom)]

    def __eq__(self, other):
        return (type(other) is type(self)
                and self.f == other.f and self.theta == other.theta)

    def __hash__(self):
        return hash(self._label)

    def __repr__(self):
        return f"<{type(self).__name__} {self._label}>"


class LlpVertical(RlpVertical):
    """Dual: theta[(label k, top, bottom)] fills (top, bottom): f -> Vk.

    It is the vertical of RLP(R^op) over f, keyed by the squares of C
    rather than of C^op, so its label, its lookups and any missing key
    read as in C."""

    __slots__ = ()

    @staticmethod
    def key(label, top, bottom):
        # (top, bottom): Vk -> f in C^op is (bottom, top): f -> Vk in C
        return label, bottom, top


def _vertical_class(C: FinCategory):
    """The verticals of RLP(L) for L over C: over C^op they are those of
    LLP(L^op) on C."""
    return LlpVertical if isinstance(C, OppositeCategory) else RlpVertical


class _OneVertical(ConcreteDouble):
    """The double category with the single vertical v of RLP(L) or
    LLP(R)."""

    def __init__(self, base, v):
        super().__init__(base)
        self.v = v

    def verticals(self):
        return [self.v]

    def underlying(self, v):
        return v.f

    def label(self, v):
        return v._label


class _StoredFillers(LiftingOperation):
    """The fillers stored in v, as an operation over (L, {v}).  A pair
    v stores no filler for, such as a translated pair that is not a
    square over a non-associative base, has none, as in
    :class:`TableLifting`."""

    def __init__(self, L: ConcreteDouble, v: RlpVertical):
        super().__init__(L, _OneVertical(L.base, v))

    def fill(self, j, k, top, bottom):
        return k.theta.get(k.key(self.left.label(j), top, bottom))


def rlp_verify(L: ConcreteDouble, v: RlpVertical,
               budget: Budget = UNBOUNDED) -> Report:
    """Objecthood in RLP(L): total valid fillers, natural in L-squares,
    compatible with vertical composition in L.

    The two compatibility laws are the left-hand families of
    :func:`check_lifting_operation` for v's stored fillers, as an
    operation with v as its only right vertical."""
    C = L.base
    comp = C.comp
    report = Report()
    f = v.f
    if f not in C.dom:
        report.add_violation("boundaries", [{"kind": "unknown-morphism", "f": f}])
        return report

    op = _StoredFillers(L, v)
    with report.cases("filler-validity", budget) as cases:
        for j, k, top, bottom in lifting_problems(L, op.right):
            cases.case()
            d = op.fill(j, k, top, bottom)
            lj = L.underlying(j)
            if d is None:
                cases.bad.append({"kind": "missing", "j": L.label(j),
                                  "square": [top, bottom]})
            elif (C.dom.get(d) != C.cod[lj] or C.cod.get(d) != C.dom[f]
                    or comp[(d, lj)] != top or comp[(f, d)] != bottom):
                cases.bad.append({"kind": "invalid", "j": L.label(j),
                                  "square": [top, bottom], "diagonal": d})
    if not report.ok:
        return report
    for name, law in (("horizontal-compatibility", _horizontal_left),
                      ("vertical-compatibility", _vertical_left)):
        with report.cases(name, budget) as cases:
            law(op, True, cases)
            cases.bad = [{k: x for k, x in w.items() if k not in ("lhs", "rhs")}
                         for w in cases.bad]
    return report


def llp_verify(R: ConcreteDouble, v: LlpVertical,
               budget: Budget = UNBOUNDED) -> Report:
    """Objecthood in LLP(R): :func:`rlp_verify` against R^op."""
    report = rlp_verify(R.op(), v, budget)
    for c in report.checks:
        c.witnesses = _dual_witnesses(c.name, c.witnesses)
    return report


def _rlp_vertical(L: ConcreteDouble, f, lift) -> RlpVertical:
    """f with the filler lift(j, top, bottom) of each square
    (top, bottom): Uj -> f."""
    C = L.base
    V = _vertical_class(C)
    return V(f, {V.key(L.label(j), top, bottom): lift(j, top, bottom)
                 for j in L.verticals()
                 for top, bottom in C.squares(L.underlying(j), f)})


def identity_rlp_vertical(L: ConcreteDouble, obj) -> RlpVertical:
    """Identity morphisms lift uniquely: the filler is forced to be the
    bottom edge of the square."""
    return _rlp_vertical(L, L.base.identities[obj],
                         lambda j, top, bottom: bottom)


def identity_llp_vertical(R: ConcreteDouble, obj) -> LlpVertical:
    return identity_rlp_vertical(R.op(), obj)


def rlp_vertical_compose(L: ConcreteDouble, w: RlpVertical,
                         v: RlpVertical) -> RlpVertical:
    """Composite w after v; the lift against j goes in two steps, first
    against the upper factor w, then against v through the middle."""
    C = L.base
    comp = C.comp
    if C.cod[v.f] != C.dom[w.f]:
        raise ValueError(f"non-composable: {w.f} after {v.f}")

    def lift(j, u, t):
        d1 = w.lift(L.label(j), comp[(v.f, u)], t)
        return v.lift(L.label(j), u, d1)

    return _rlp_vertical(L, comp[(w.f, v.f)], lift)


def llp_vertical_compose(R: ConcreteDouble, w: LlpVertical,
                         v: LlpVertical) -> LlpVertical:
    """Composite w after v, which is v after w in C^op: lift first
    against the lower factor v, then against w through the middle."""
    return rlp_vertical_compose(R.op(), v, w)


class RlpDouble(ConcreteDouble):
    """Oracle-backed RLP(L): verticals are (f, theta) pairs passing
    rlp_verify; squares commute with the stored fillers.  All global
    enumeration goes through ``verticals_over`` and is budget-bounded."""

    explicit = False

    def __init__(self, L: ConcreteDouble, name=""):
        super().__init__(L.base, name or f"RLP({L.name})")
        self.L = L
        self.vertical = _vertical_class(L.base)
        self._verified = {}
        self._undecided = {}  # f -> the j with some Uj -> f filled twice

    def verify(self, v) -> Report:
        """Objecthood of v: :func:`rlp_verify` against L."""
        return rlp_verify(self.L, v)

    def verified(self, v):
        """``verify(v).ok``, computed once per vertical."""
        ok = self._verified.get(v)
        if ok is None:
            ok = self._verified[v] = self.verify(v).ok
        return ok

    def verticals_over(self, f, budget: Budget = UNBOUNDED):
        budget = Budget() if budget is UNBOUNDED else budget
        C = self.base
        L = self.L
        keys = []
        choices = []
        for j in sorted(L.verticals(), key=L.label):
            lj = L.underlying(j)
            for top, bottom in C.squares(lj, f):
                keys.append(self.vertical.key(L.label(j), top, bottom))
                fillers = enumerate_fillers(C, lj, f, top, bottom)
                if not fillers:
                    return []
                choices.append(fillers)
        out = []
        for combo in itertools.product(*choices):
            budget.spend()
            cand = self.vertical(f, dict(zip(keys, combo)))
            # only accepted candidates are kept, so rejected ones stay garbage
            if self._verified.get(cand) or rlp_verify(L, cand).ok:
                self._verified[cand] = True
                out.append(cand)
        return out

    def verticals(self):
        return [v for f in self.base.morphisms for v in self.verticals_over(f)]

    def has_vertical(self, v):
        return type(v) is self.vertical and self.verified(v)

    def underlying(self, v):
        return v.f

    def label(self, v):
        return v._label

    def identity_vertical(self, obj):
        return identity_rlp_vertical(self.L, obj)

    def compose(self, w, v):
        return rlp_vertical_compose(self.L, w, v)

    def is_square(self, v, w, top, bottom):
        C = self.base
        comp = C.comp
        if not C.commutes(v.f, w.f, top, bottom):
            return False
        L = self.L
        # the square must commute with the fillers: top∘theta_v = theta_w
        # of the translated square; for verified v and w both sides fill
        # (top∘u, bottom∘t): Uj -> w.f, so they agree where it has one
        if C.is_category and self.verified(v) and self.verified(w):
            js = self._undecided.get(w.f)
            if js is None:
                js = self._undecided[w.f] = [
                    j for j in L.verticals()
                    if not C.unique_fillers(L.underlying(j), w.f)]
        else:
            js = L.verticals()
        for j in js:
            for u, t in C.squares(L.underlying(j), v.f):
                lhs = comp[(top, v.lift(L.label(j), u, t))]
                rhs = w.lift(L.label(j), comp[(top, u)], comp[(bottom, t)])
                if lhs != rhs:
                    return False
        return True


class LlpDouble(OppositeDouble):
    """Oracle-backed LLP(R): RLP(R^op) seen from C."""

    def __init__(self, R: ConcreteDouble, name=""):
        super().__init__(RlpDouble(R.op()), name or f"LLP({R.name})")
        self.R = R

    def verify(self, v) -> Report:
        """Objecthood of v: :func:`llp_verify` against R."""
        return llp_verify(self.R, v)


# ---------------------------------------------------------------------------
# transposes and structure morphisms


def transpose_r(S: LiftingStructure) -> ConcreteDoubleMap:
    """R -> RLP(L): each right vertical k becomes its underlying morphism
    equipped with the operation's fillers against every left vertical."""
    L, R = S.left, S.right
    vmap = {k: _rlp_vertical(L, R.underlying(k), lambda j, top, bottom, k=k:
                             S.op.fill(j, k, top, bottom))
            for k in R.verticals()}
    return ConcreteDoubleMap(R, RlpDouble(L), vmap, name="phi_r")


def transpose_l(S: LiftingStructure) -> ConcreteDoubleMap:
    """L -> LLP(R): :func:`transpose_r` of the dual structure."""
    phi = transpose_r(S.dual())
    return ConcreteDoubleMap(S.left, LlpDouble(S.right),
                             phi.vertical_map, name="phi_l")


def restrict(op: LiftingOperation, F: ConcreteDoubleMap | None,
             G: ConcreteDoubleMap | None) -> LiftingOperation:
    """Reindex along double maps into the two sides: fill'(j,k,·) =
    fill(Fj, Gk, ·).  Pass None for an identity side."""
    left = F.source if F is not None else op.left
    right = G.source if G is not None else op.right
    if F is not None and F.target is not op.left:
        raise ValueError("left map does not land in the operation's left side")
    if G is not None and G.target is not op.right:
        raise ValueError("right map does not land in the operation's right side")

    def rule(j, k, top, bottom):
        return op.fill(F(j) if F else j, G(k) if G else k, top, bottom)

    return RuleLifting(left, right, rule, name="restricted")


def check_structure_morphism(S: LiftingStructure, S2: LiftingStructure,
                             F_l: ConcreteDoubleMap, F_r: ConcreteDoubleMap,
                             budget: Budget = UNBOUNDED) -> Report:
    """(F_l: L -> L', F_r: R' -> R) is a morphism S -> S' when restricting
    S'.op along F_l on the left equals restricting S.op along F_r on the
    right, as tables over (L, R')."""
    report = Report()
    L, R2 = S.left, S2.right
    with report.cases("operation-agreement", budget) as cases:
        for j, k2, top, bottom in lifting_problems(L, R2):
            cases.case()
            lhs = S2.op.fill(F_l(j), k2, top, bottom)
            rhs = S.op.fill(j, F_r(k2), top, bottom)
            if lhs != rhs:
                cases.bad.append({"j": L.label(j), "k'": R2.label(k2),
                                  "square": [top, bottom], "lhs": lhs,
                                  "rhs": rhs})
    return report


# ---------------------------------------------------------------------------
# the two lifting-awfs axioms


def check_pre_awfs(S: LiftingStructure, budget: Budget = UNBOUNDED) -> Report:
    """Axiom of lifting: both transposes are bijective on verticals and
    on squares.  Injectivity is table comparison; surjectivity enumerates
    LLP/RLP verticals per morphism under the budget."""
    report = Report()
    if budget is UNBOUNDED:
        budget = Budget()
    C = S.left.base

    def side(name, trans):
        source, target = trans.source, trans.target
        images = {}
        bad = []
        for v in source.verticals():
            img = trans(v)
            if not target.has_vertical(img):
                first = target.verify(img).violations()[0]
                bad.append({"kind": "image-not-a-vertical",
                            "vertical": source.label(v), "check": first.name,
                            "witness": first.witnesses[0]})
                continue
            key = target.label(img)
            if key in images:
                bad.append({"kind": "not-injective",
                            "verticals": [source.label(images[key]),
                                          source.label(v)]})
            images[key] = v
        report.record(f"{name}-verticals-injective", bad, cases=len(images))
        if bad:
            return
        with report.cases(f"{name}-verticals-surjective", budget) as cases:
            for f in C.morphisms:
                for cand in target.verticals_over(f, budget):
                    cases.count(1)  # verticals_over charged it
                    if target.label(cand) not in images:
                        cases.bad.append({"kind": "unmatched-vertical", "f": f,
                                          "vertical": target.label(cand)})

        # squares: the transpose must induce a bijection on squares between
        # any two verticals; concretely the (top, bottom) sets must agree
        sqbad, n = [], 0
        verts = sorted(source.verticals(), key=source.label)
        for v in verts:
            for w in verts:
                sv = set(source.squares(v, w))
                tv = set(target.squares(trans(v), trans(w)))
                n += 1
                if sv != tv:
                    sqbad.append({"v": source.label(v), "w": source.label(w),
                                  "only-in-source": sorted(sv - tv),
                                  "only-in-target": sorted(tv - sv)})
        report.record(f"{name}-squares", sqbad, cases=n)

    side("phi_r", transpose_r(S))
    side("phi_l", transpose_l(S))
    return report


@dataclass
class FactorisationAssignment:
    """Per morphism f: a left vertical, the middle object, and a right
    vertical whose underlying composite is f."""

    assignment: dict  # f -> (left vertical of L, mid object, right vertical of R)

    def __getitem__(self, f):
        return self.assignment[f]

    def __contains__(self, f):
        return f in self.assignment

    def dual(self) -> FactorisationAssignment:
        """The assignment of the dual structure: f = h∘g in C is g∘h in
        C^op, with h on the left."""
        return FactorisationAssignment(
            {f: (h, mid, g) for f, (g, mid, h) in self.assignment.items()})


def check_factorisation_assignment(S: LiftingStructure,
                                   FA: FactorisationAssignment) -> Report:
    """Boundary sanity: every morphism is assigned and the composite of
    the two legs recovers it."""
    report = Report()
    L, R = S.left, S.right
    C = L.base
    bad = []
    for f in C.morphisms:
        if f not in FA:
            bad.append({"kind": "unassigned", "f": f})
            continue
        g, mid, h = FA[f]
        if not L.has_vertical(g):
            bad.append({"kind": "left-not-a-vertical", "f": f})
            continue
        if not R.has_vertical(h):
            bad.append({"kind": "right-not-a-vertical", "f": f})
            continue
        lg, rh = L.underlying(g), R.underlying(h)
        if C.cod[lg] != mid or C.dom[rh] != mid:
            bad.append({"kind": "middle-object", "f": f, "mid": mid})
        elif C.dom[lg] != C.dom[f] or C.cod[rh] != C.cod[f]:
            bad.append({"kind": "outer-boundary", "f": f})
        elif C.comp[(rh, lg)] != f:
            bad.append({"kind": "composite", "f": f,
                        "got": C.comp[(rh, lg)]})
    report.record("assignment", bad, cases=len(C.morphisms))
    return report


def factorisations(S: LiftingStructure, FA: FactorisationAssignment, f):
    """The factorisation axiom's search at f = ρf∘λf: a function of a left
    vertical x, Ux and a square (a, b): Ux -> f returning, in hom order,
    every b' with ρf∘b' = b, b'∘Ux = λf∘a and (a, b'): x -> g_f an
    L-square.  Reconstruction reads E, Δ and μ off it (:mod:`fwfs.awfs`).

    hom(cod Ux, mid) is indexed by (ρf∘b', b'∘Ux) on the first search
    with Ux, so each search is one lookup, then the square test on the
    candidates found, in hom order."""
    L = S.left
    C = L.base
    comp, cod, hom, is_square = C.comp, C.cod, C.hom, L.is_square
    g, mid, h = FA[f]
    lam, rho = L.underlying(g), S.right.underlying(h)
    indexes = {}

    def search(x, ux, a, b):
        index = indexes.get(ux)
        if index is None:
            index = {}
            for b2 in hom(cod[ux], mid):
                # b'∘Ux may be missing from a table that is no category
                key = (comp[(rho, b2)], comp.get((b2, ux)))
                index.setdefault(key, []).append(b2)
            indexes[ux] = index
        return [b2 for b2 in index.get((b, comp[(lam, a)]), ())
                if is_square(x, g, a, b2)]
    return search


def _couniversal_left(S: LiftingStructure, FA: FactorisationAssignment,
                      cases: Cases):
    """The left side of :func:`check_factorisation_axiom`, filling
    ``cases``."""
    L = S.left
    C = L.base
    lverts = [(x, L.underlying(x)) for x in sorted(L.verticals(), key=L.label)]
    for f in C.morphisms:
        search = factorisations(S, FA, f)
        for x, ux in lverts:
            for a, b in C.squares(ux, f):
                cases.case()
                found = search(x, ux, a, b)
                if len(found) != 1:
                    cases.bad.append({"f": f, "x": L.label(x), "square": [a, b],
                                      "factorisations": found[:2]})


def check_factorisation_axiom(S: LiftingStructure, FA: FactorisationAssignment,
                              side: str = "both",
                              budget: Budget = UNBOUNDED) -> Report:
    """Bi-universality of the factorisations.

    Left side (couniversality of (1, rho_f)): every square (a, b) from a
    left vertical x into f factors as rho_f ∘ b' through a unique
    L-square (a, b'): x -> g_f.  The right side (universality of
    (lambda_f, 1)) is the left side of the dual structure on C^op.
    ``side`` selects "both", "left-only" or "right-only"; either
    one-sided check is sufficient for a structure already known to
    satisfy the lifting axiom, and the CLI exposes all three.
    """
    if side not in ("both", "left-only", "right-only"):
        raise ValueError(f"unknown side {side!r}")
    report = check_factorisation_assignment(S, FA)
    if not report.ok:
        return report
    if side in ("both", "left-only"):
        with report.cases("couniversal-left", budget) as cases:
            _couniversal_left(S, FA, cases)
    if side in ("both", "right-only"):
        with report.cases("universal-right", budget) as cases:
            _couniversal_left(S.dual(), FA.dual(), cases)
            cases.bad = _dual_witnesses("universal-right", cases.bad)
    return report


def check_lifting_awfs(S: LiftingStructure, FA: FactorisationAssignment,
                       side: str = "both",
                       budget: Budget = UNBOUNDED) -> Report:
    """Both axioms: the operation's compatibilities, the lifting axiom,
    and the factorisation axiom."""
    report = Report()
    report.merge(check_lifting_operation(S.op, budget), prefix="op-")
    if report.violations():
        return report
    report.merge(check_pre_awfs(S, budget), prefix="lifting-")
    if report.violations():
        return report
    report.merge(check_factorisation_axiom(S, FA, side, budget),
                 prefix="factorisation-")
    return report


# ---------------------------------------------------------------------------
# canonical structures


def canonical_left(L: ConcreteDouble) -> LiftingStructure:
    """(L, can, RLP(L)): the filler is read off the stored theta of the
    RLP vertical."""
    rlp = RlpDouble(L)

    def rule(j, k, top, bottom):
        return k.lift(L.label(j), top, bottom)

    return LiftingStructure(L, RuleLifting(L, rlp, rule, name="can_l"), rlp)


def canonical_morphism_from(S: LiftingStructure, budget: Budget = UNBOUNDED):
    """The morphism (1, phi_r): canonical_left(S.left) -> S with identity
    left component, certified by check_structure_morphism."""
    from .dblcat import identity_double_map
    can = canonical_left(S.left)
    F_l = identity_double_map(S.left)
    F_r = transpose_r(S)
    # retarget phi_r onto the canonical structure's own RLP side
    F_r = ConcreteDoubleMap(S.right, can.right, F_r.vertical_map, name="phi_r")
    report = check_structure_morphism(can, S, F_l, F_r, budget)
    return F_l, F_r, report
