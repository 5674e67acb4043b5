"""Lifting operations, lifting structures, and the left/right
lifting-property double categories.

A lifting operation over a pair of concrete double categories (L, R)
chooses, for every L-vertical j, R-vertical k and commuting square
(u, v): Uj -> Vk, a diagonal filler d with d∘Uj = u and Vk∘d = v.  The
checker verifies four compatibility families besides filler validity:
naturality in L-squares and in R-squares, and agreement with vertical
composition on each side (a lift against a composite equals the two-step
lift through the middle object).

LLP/RLP are never materialized globally: they are oracle-backed
:class:`~fwfs.dblcat.ConcreteDouble` realizations whose verticals are
enumerated per underlying morphism under an explicit budget.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass

from .dblcat import ConcreteDouble, ConcreteDoubleMap
from .fincat import FinCategory
from .report import Budget, Report, run_bounded


def enumerate_fillers(C: FinCategory, left, right, top, bottom):
    """All diagonals d with d∘left = top and right∘d = bottom, in
    lexicographic order."""
    out = []
    for d in C.hom(C.cod[left], C.dom[right]):
        if C.comp[(d, left)] == top and C.comp[(right, d)] == bottom:
            out.append(d)
    return out


# ---------------------------------------------------------------------------
# lifting operations


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
    diagonal for the square (top, bottom): Uj -> Vk."""

    def __init__(self, left: ConcreteDouble, right: ConcreteDouble):
        self.left = left
        self.right = right

    def fill(self, j, k, top, bottom):
        raise NotImplementedError

    def table(self):
        """Materialize the full fill table keyed by labels; explicit
        sides only.  Used for equality comparisons in reports/tests."""
        L, R = self.left, self.right
        out = {}
        for j in L.verticals():
            for k in R.verticals():
                for top, bottom in L.base.squares(L.underlying(j), R.underlying(k)):
                    out[(L.label(j), R.label(k), top, bottom)] = \
                        self.fill(j, k, top, bottom)
        return out


class TableLifting(LiftingOperation):
    """Finite table keyed by (label of j, label of k, top, bottom)."""

    def __init__(self, left, right, entries):
        super().__init__(left, right)
        self.entries = dict(entries)

    def fill(self, j, k, top, bottom):
        return self.entries[(self.left.label(j), self.right.label(k), top, bottom)]


class UniqueFillerLifting(LiftingOperation):
    """The forced rule when every square has exactly one filler."""

    def __init__(self, left, right):
        super().__init__(left, right)
        self._cache = {}

    def fill(self, j, k, top, bottom):
        lf = self.left.underlying(j)
        rf = self.right.underlying(k)
        key = (lf, rf, top, bottom)
        d = self._cache.get(key)
        if d is None:
            fillers = enumerate_fillers(self.left.base, lf, rf, top, bottom)
            if len(fillers) != 1:
                raise NotOrthogonal(f"{len(fillers)} fillers", key)
            d = self._cache[key] = fillers[0]
        return d


class RuleLifting(LiftingOperation):
    """Arbitrary callable rule (j, k, top, bottom) -> diagonal."""

    def __init__(self, left, right, rule, name=""):
        super().__init__(left, right)
        self.rule = rule
        self.name = name

    def fill(self, j, k, top, bottom):
        return self.rule(j, k, top, bottom)


def unique_filler_lifting(left: ConcreteDouble, right: ConcreteDouble
                          ) -> UniqueFillerLifting:
    """Build the unique-filler operation, verifying orthogonality first:
    every square from a left vertical to a right vertical must have
    exactly one diagonal (zero or two witnesses raise)."""
    C = left.base
    if right.base is not C and right.base.morphisms != C.morphisms:
        raise SideMismatch("left and right lie over different base categories")
    op = UniqueFillerLifting(left, right)
    for j in left.verticals():
        for k in right.verticals():
            lf, rf = left.underlying(j), right.underlying(k)
            for top, bottom in C.squares(lf, rf):
                op.fill(j, k, top, bottom)  # raises NotOrthogonal on failure
    return op


@dataclass
class LiftingStructure:
    left: ConcreteDouble
    op: LiftingOperation
    right: ConcreteDouble

    def __post_init__(self):
        if self.op.left is not self.left or self.op.right is not self.right:
            raise SideMismatch("the lifting operation was built for other "
                               "double categories")


def check_lifting_operation(op: LiftingOperation,
                            budget: Budget | None = None) -> Report:
    """Verify filler validity plus the four compatibility families.

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
    lverts = sorted(L.verticals(), key=L.label)
    rverts = sorted(R.verticals(), key=R.label)
    lset, rset = set(lverts), set(rverts)
    valid = False  # set once filler validity has passed

    def forced(x, y):
        """Both sides of each case over squares x -> y agree."""
        return valid and C.is_category and C.unique_fillers(x, y)

    def validity():
        nonlocal valid
        bad, n = [], 0
        for j in lverts:
            lj = L.underlying(j)
            for k in rverts:
                rk = R.underlying(k)
                for top, bottom in C.squares(lj, rk):
                    n += 1
                    if budget:
                        budget.spend()
                    d = op.fill(j, k, top, bottom)
                    if (C.dom.get(d) != C.cod[lj] or C.cod.get(d) != C.dom[rk]
                            or comp[(d, lj)] != top or comp[(rk, d)] != bottom):
                        bad.append({"j": L.label(j), "k": R.label(k),
                                    "square": [top, bottom], "diagonal": d})
        if bad:
            report.add_violation("filler-validity", bad, cases=n)
        else:
            report.add_ok("filler-validity", cases=n)
            valid = True

    def horizontal_left():
        # naturality in squares of L: fill(j,k,s,t)∘r1 = fill(i,k,s∘r0,t∘r1),
        # both diagonals of (s∘r0, t∘r1): Ui -> Vk
        bad, n = [], 0
        for i in lverts:
            li = L.underlying(i)
            for j in lverts:
                for r0, r1 in L.squares(i, j):
                    lj = L.underlying(j)
                    for k in rverts:
                        rk = R.underlying(k)
                        squares = C.squares(lj, rk)
                        if forced(li, rk):
                            n += len(squares)
                            continue
                        for s, t in squares:
                            n += 1
                            if budget:
                                budget.spend()
                            lhs = comp[(op.fill(j, k, s, t), r1)]
                            rhs = op.fill(i, k, comp[(s, r0)], comp[(t, r1)])
                            if lhs != rhs:
                                bad.append({"i": L.label(i), "j": L.label(j),
                                            "left-square": [r0, r1],
                                            "square": [s, t],
                                            "lhs": lhs, "rhs": rhs})
        if bad:
            report.add_violation("horizontal-left", bad, cases=n)
        else:
            report.add_ok("horizontal-left", cases=n)

    def horizontal_right():
        # naturality in squares of R: q0∘fill(j,k,u,v) = fill(j,k',q0∘u,q1∘v),
        # both diagonals of (q0∘u, q1∘v): Uj -> Vk'
        bad, n = [], 0
        for k in rverts:
            for k2 in rverts:
                rk2 = R.underlying(k2)
                for q0, q1 in R.squares(k, k2):
                    rk = R.underlying(k)
                    for j in lverts:
                        lj = L.underlying(j)
                        squares = C.squares(lj, rk)
                        if forced(lj, rk2):
                            n += len(squares)
                            continue
                        for u, v in squares:
                            n += 1
                            if budget:
                                budget.spend()
                            lhs = comp[(q0, op.fill(j, k, u, v))]
                            rhs = op.fill(j, k2, comp[(q0, u)], comp[(q1, v)])
                            if lhs != rhs:
                                bad.append({"k": R.label(k), "k'": R.label(k2),
                                            "right-square": [q0, q1],
                                            "square": [u, v],
                                            "lhs": lhs, "rhs": rhs})
        if bad:
            report.add_violation("horizontal-right", bad, cases=n)
        else:
            report.add_ok("horizontal-right", cases=n)

    def vertical_left():
        # fill(j∘i, k, s, t) = fill(j, k, fill(i, k, s, t∘Uj), t), both
        # diagonals of (s, t): U(j∘i) -> Vk when U(j∘i) = Uj∘Ui
        bad, n = [], 0
        for i in lverts:
            for j in lverts:
                if not L.composable(j, i):
                    continue
                ji = L.compose(j, i)
                uji = L.underlying(ji)
                uj = L.underlying(j)
                # the lifts against j∘i were validated, over Uj∘Ui
                validated = ji in lset and comp[(uj, L.underlying(i))] == uji
                for k in rverts:
                    rk = R.underlying(k)
                    squares = C.squares(uji, rk)
                    if validated and forced(uji, rk):
                        n += len(squares)
                        continue
                    for s, t in squares:
                        n += 1
                        if budget:
                            budget.spend()
                        mid = op.fill(i, k, s, comp[(t, uj)])
                        rhs = op.fill(j, k, mid, t)
                        lhs = op.fill(ji, k, s, t)
                        if lhs != rhs:
                            bad.append({"i": L.label(i), "j": L.label(j),
                                        "square": [s, t], "lhs": lhs, "rhs": rhs})
        if bad:
            report.add_violation("vertical-left", bad, cases=n)
        else:
            report.add_ok("vertical-left", cases=n)

    def vertical_right():
        # fill(j, l∘k, u, v) = fill(j, k, u, fill(j, l, Vk∘u, v)), both
        # diagonals of (u, v): Uj -> V(l∘k) when V(l∘k) = Vl∘Vk
        bad, n = [], 0
        for k in rverts:
            for l in rverts:
                if not R.composable(l, k):
                    continue
                lk = R.compose(l, k)
                ulk = R.underlying(lk)
                uk = R.underlying(k)
                validated = lk in rset and comp[(R.underlying(l), uk)] == ulk
                for j in lverts:
                    lj = L.underlying(j)
                    squares = C.squares(lj, ulk)
                    if validated and forced(lj, ulk):
                        n += len(squares)
                        continue
                    for u, v in squares:
                        n += 1
                        if budget:
                            budget.spend()
                        mid = op.fill(j, l, comp[(uk, u)], v)
                        rhs = op.fill(j, k, u, mid)
                        lhs = op.fill(j, lk, u, v)
                        if lhs != rhs:
                            bad.append({"k": R.label(k), "l": R.label(l),
                                        "square": [u, v], "lhs": lhs, "rhs": rhs})
        if bad:
            report.add_violation("vertical-right", bad, cases=n)
        else:
            report.add_ok("vertical-right", cases=n)

    for name, fn in (("filler-validity", validity),
                     ("horizontal-left", horizontal_left),
                     ("horizontal-right", horizontal_right),
                     ("vertical-left", vertical_left),
                     ("vertical-right", vertical_right)):
        run_bounded(report, name, fn, budget)
        if not report.ok and report.violations():
            break
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

    def __eq__(self, other):
        return (isinstance(other, RlpVertical)
                and self.f == other.f and self.theta == other.theta)

    def __hash__(self):
        return hash(self._label)

    def __repr__(self):
        return f"<RlpVertical {self._label}>"


class LlpVertical:
    """Dual: theta[(label k, top, bottom)] fills (top, bottom): f -> Vk."""

    __slots__ = ("f", "theta", "_label")

    def __init__(self, f, theta):
        self.f = f
        self.theta = dict(theta)
        self._label = f"{f}~{_theta_digest(f, self.theta)}"

    def __eq__(self, other):
        return (isinstance(other, LlpVertical)
                and self.f == other.f and self.theta == other.theta)

    def __hash__(self):
        return hash(self._label)

    def __repr__(self):
        return f"<LlpVertical {self._label}>"


def rlp_verify(L: ConcreteDouble, v: RlpVertical,
               budget: Budget | None = None) -> Report:
    """Objecthood in RLP(L): total valid fillers, natural in L-squares,
    compatible with vertical composition in L.

    As in :func:`check_lifting_operation`, both sides of a compatibility
    case are valid diagonals of one square, so blocks over a pair with
    unique fillers are counted without being evaluated."""
    C = L.base
    comp = C.comp
    report = Report()
    f = v.f
    if f not in C.dom:
        report.add_violation("boundaries", [{"kind": "unknown-morphism", "f": f}])
        return report
    lverts = sorted(L.verticals(), key=L.label)

    bad, n = [], 0
    for j in lverts:
        lj = L.underlying(j)
        for top, bottom in C.squares(lj, f):
            n += 1
            if budget:
                budget.spend()
            d = v.theta.get((L.label(j), top, bottom))
            if d is None:
                bad.append({"kind": "missing", "j": L.label(j),
                            "square": [top, bottom]})
            elif (C.dom.get(d) != C.cod[lj] or C.cod.get(d) != C.dom[f]
                    or comp[(d, lj)] != top or comp[(f, d)] != bottom):
                bad.append({"kind": "invalid", "j": L.label(j),
                            "square": [top, bottom], "diagonal": d})
    if bad:
        report.add_violation("filler-validity", bad, cases=n)
        return report
    report.add_ok("filler-validity", cases=n)
    forced = C.unique_fillers if C.is_category else lambda x, y: False

    bad, n = [], 0
    for i in lverts:
        # both sides fill (s∘r0, t∘r1): Ui -> f
        skip = forced(L.underlying(i), f)
        for j in lverts:
            for r0, r1 in L.squares(i, j):
                lj = L.underlying(j)
                squares = C.squares(lj, f)
                if skip:
                    n += len(squares)
                    continue
                for s, t in squares:
                    n += 1
                    if budget:
                        budget.spend()
                    lhs = comp[(v.theta[(L.label(j), s, t)], r1)]
                    rhs = v.theta[(L.label(i), comp[(s, r0)], comp[(t, r1)])]
                    if lhs != rhs:
                        bad.append({"i": L.label(i), "j": L.label(j),
                                    "left-square": [r0, r1], "square": [s, t]})
    if bad:
        report.add_violation("horizontal-compatibility", bad, cases=n)
    else:
        report.add_ok("horizontal-compatibility", cases=n)

    bad, n = [], 0
    lset = set(lverts)
    for i in lverts:
        for j in lverts:
            if not L.composable(j, i):
                continue
            ji = L.compose(j, i)
            uji, uj = L.underlying(ji), L.underlying(j)
            squares = C.squares(uji, f)
            # both sides fill (s, t): U(j∘i) -> f when U(j∘i) = Uj∘Ui
            if (ji in lset and comp[(uj, L.underlying(i))] == uji
                    and forced(uji, f)):
                n += len(squares)
                continue
            for s, t in squares:
                n += 1
                if budget:
                    budget.spend()
                mid = v.theta[(L.label(i), s, comp[(t, uj)])]
                if v.theta[(L.label(ji), s, t)] != v.theta[(L.label(j), mid, t)]:
                    bad.append({"i": L.label(i), "j": L.label(j), "square": [s, t]})
    if bad:
        report.add_violation("vertical-compatibility", bad, cases=n)
    else:
        report.add_ok("vertical-compatibility", cases=n)
    if budget:
        report.budget_used = budget.used
    return report


def llp_verify(R: ConcreteDouble, v: LlpVertical,
               budget: Budget | None = None) -> Report:
    """Dual of :func:`rlp_verify`, forced blocks included."""
    C = R.base
    comp = C.comp
    report = Report()
    f = v.f
    if f not in C.dom:
        report.add_violation("boundaries", [{"kind": "unknown-morphism", "f": f}])
        return report
    rverts = sorted(R.verticals(), key=R.label)

    bad, n = [], 0
    for k in rverts:
        rk = R.underlying(k)
        for top, bottom in C.squares(f, rk):
            n += 1
            if budget:
                budget.spend()
            d = v.theta.get((R.label(k), top, bottom))
            if d is None:
                bad.append({"kind": "missing", "k": R.label(k),
                            "square": [top, bottom]})
            elif (C.dom.get(d) != C.cod[f] or C.cod.get(d) != C.dom[rk]
                    or comp[(d, f)] != top or comp[(rk, d)] != bottom):
                bad.append({"kind": "invalid", "k": R.label(k),
                            "square": [top, bottom], "diagonal": d})
    if bad:
        report.add_violation("filler-validity", bad, cases=n)
        return report
    report.add_ok("filler-validity", cases=n)
    forced = C.unique_fillers if C.is_category else lambda x, y: False

    bad, n = [], 0
    for k in rverts:
        for k2 in rverts:
            # both sides fill (q0∘u, q1∘t): f -> Vk'
            skip = forced(f, R.underlying(k2))
            for q0, q1 in R.squares(k, k2):
                rk = R.underlying(k)
                squares = C.squares(f, rk)
                if skip:
                    n += len(squares)
                    continue
                for u, t in squares:
                    n += 1
                    if budget:
                        budget.spend()
                    lhs = comp[(q0, v.theta[(R.label(k), u, t)])]
                    rhs = v.theta[(R.label(k2), comp[(q0, u)], comp[(q1, t)])]
                    if lhs != rhs:
                        bad.append({"k": R.label(k), "k'": R.label(k2),
                                    "right-square": [q0, q1], "square": [u, t]})
    if bad:
        report.add_violation("horizontal-compatibility", bad, cases=n)
    else:
        report.add_ok("horizontal-compatibility", cases=n)

    bad, n = [], 0
    rset = set(rverts)
    for k in rverts:
        for l in rverts:
            if not R.composable(l, k):
                continue
            lk = R.compose(l, k)
            ulk, uk = R.underlying(lk), R.underlying(k)
            squares = C.squares(f, ulk)
            # both sides fill (u, t): f -> V(l∘k) when V(l∘k) = Vl∘Vk
            if (lk in rset and comp[(R.underlying(l), uk)] == ulk
                    and forced(f, ulk)):
                n += len(squares)
                continue
            for u, t in squares:
                n += 1
                if budget:
                    budget.spend()
                mid = v.theta[(R.label(l), comp[(uk, u)], t)]
                if v.theta[(R.label(lk), u, t)] != v.theta[(R.label(k), u, mid)]:
                    bad.append({"k": R.label(k), "l": R.label(l), "square": [u, t]})
    if bad:
        report.add_violation("vertical-compatibility", bad, cases=n)
    else:
        report.add_ok("vertical-compatibility", cases=n)
    if budget:
        report.budget_used = budget.used
    return report


def identity_rlp_vertical(L: ConcreteDouble, obj) -> RlpVertical:
    """Identity morphisms lift uniquely: the filler is forced to be the
    bottom edge of the square."""
    C = L.base
    f = C.identities[obj]
    theta = {}
    for j in L.verticals():
        lj = L.underlying(j)
        for top, bottom in C.squares(lj, f):
            theta[(L.label(j), top, bottom)] = bottom
    return RlpVertical(f, theta)


def identity_llp_vertical(R: ConcreteDouble, obj) -> LlpVertical:
    C = R.base
    f = C.identities[obj]
    theta = {}
    for k in R.verticals():
        rk = R.underlying(k)
        for top, bottom in C.squares(f, rk):
            theta[(R.label(k), top, bottom)] = top
    return LlpVertical(f, theta)


def rlp_vertical_compose(L: ConcreteDouble, w: RlpVertical,
                         v: RlpVertical) -> RlpVertical:
    """Composite w after v; the lift against j goes in two steps, first
    against the upper factor w, then against v through the middle."""
    C = L.base
    comp = C.comp
    if C.cod[v.f] != C.dom[w.f]:
        raise ValueError(f"non-composable: {w.f} after {v.f}")
    wf = comp[(w.f, v.f)]
    theta = {}
    for j in L.verticals():
        lj = L.underlying(j)
        for u, t in C.squares(lj, wf):
            d1 = w.theta[(L.label(j), comp[(v.f, u)], t)]
            theta[(L.label(j), u, t)] = v.theta[(L.label(j), u, d1)]
    return RlpVertical(wf, theta)


def llp_vertical_compose(R: ConcreteDouble, w: LlpVertical,
                         v: LlpVertical) -> LlpVertical:
    """Composite w after v; lift first against the lower factor v, then
    against w through the middle."""
    C = R.base
    comp = C.comp
    if C.cod[v.f] != C.dom[w.f]:
        raise ValueError(f"non-composable: {w.f} after {v.f}")
    wf = comp[(w.f, v.f)]
    theta = {}
    for k in R.verticals():
        rk = R.underlying(k)
        for s, t in C.squares(wf, rk):
            d1 = v.theta[(R.label(k), s, comp[(t, w.f)])]
            theta[(R.label(k), s, t)] = w.theta[(R.label(k), d1, t)]
    return LlpVertical(wf, theta)


class RlpDouble(ConcreteDouble):
    """Oracle-backed RLP(L): verticals are (f, theta) pairs passing
    rlp_verify; squares commute with the stored fillers.  All global
    enumeration goes through ``verticals_over`` and is budget-bounded."""

    explicit = False

    def __init__(self, L: ConcreteDouble, budget: Budget | None = None, name=""):
        super().__init__(L.base, name or f"RLP({L.name})")
        self.L = L
        self.budget = budget
        self._over = {}
        self._verified = {}

    def verified(self, v):
        """``rlp_verify(L, v).ok``, computed once per vertical."""
        ok = self._verified.get(v)
        if ok is None:
            ok = self._verified[v] = rlp_verify(self.L, v).ok
        return ok

    def verticals_over(self, f, budget: Budget | None = None):
        cached = self._over.get(f)
        if cached is not None:
            return list(cached)
        budget = budget or self.budget or Budget()
        C = self.base
        L = self.L
        keys = []
        choices = []
        for j in sorted(L.verticals(), key=L.label):
            lj = L.underlying(j)
            for top, bottom in C.squares(lj, f):
                keys.append((L.label(j), top, bottom))
                fillers = enumerate_fillers(C, lj, f, top, bottom)
                if not fillers:
                    self._over[f] = ()
                    return []
                choices.append(fillers)
        out = []
        for combo in itertools.product(*choices):
            budget.spend()
            cand = RlpVertical(f, dict(zip(keys, combo)))
            # only accepted candidates are kept, so rejected ones stay garbage
            if self._verified.get(cand) or rlp_verify(L, cand).ok:
                self._verified[cand] = True
                out.append(cand)
        self._over[f] = tuple(out)
        return out

    def verticals(self):
        out = []
        for f in self.base.morphisms:
            out.extend(self.verticals_over(f))
        return out

    def has_vertical(self, v):
        return isinstance(v, RlpVertical) and self.verified(v)

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
        if (top, bottom) not in C.squares(v.f, w.f):
            return False
        L = self.L
        # the square must commute with the fillers: top∘theta_v = theta_w
        # of the translated square; for verified v and w both sides fill
        # (top∘u, bottom∘t): Uj -> w.f, so they agree where it has one
        decided = C.is_category and self.verified(v) and self.verified(w)
        for j in L.verticals():
            lj = L.underlying(j)
            if decided and C.unique_fillers(lj, w.f):
                continue
            for u, t in C.squares(lj, v.f):
                lhs = comp[(top, v.theta[(L.label(j), u, t)])]
                rhs = w.theta[(L.label(j), comp[(top, u)], comp[(bottom, t)])]
                if lhs != rhs:
                    return False
        return True


class LlpDouble(ConcreteDouble):
    """Oracle-backed LLP(R), dual to :class:`RlpDouble`."""

    explicit = False

    def __init__(self, R: ConcreteDouble, budget: Budget | None = None, name=""):
        super().__init__(R.base, name or f"LLP({R.name})")
        self.R = R
        self.budget = budget
        self._over = {}
        self._verified = {}

    def verified(self, v):
        """``llp_verify(R, v).ok``, computed once per vertical."""
        ok = self._verified.get(v)
        if ok is None:
            ok = self._verified[v] = llp_verify(self.R, v).ok
        return ok

    def verticals_over(self, f, budget: Budget | None = None):
        cached = self._over.get(f)
        if cached is not None:
            return list(cached)
        budget = budget or self.budget or Budget()
        C = self.base
        R = self.R
        keys = []
        choices = []
        for k in sorted(R.verticals(), key=R.label):
            rk = R.underlying(k)
            for top, bottom in C.squares(f, rk):
                keys.append((R.label(k), top, bottom))
                fillers = enumerate_fillers(C, f, rk, top, bottom)
                if not fillers:
                    self._over[f] = ()
                    return []
                choices.append(fillers)
        out = []
        for combo in itertools.product(*choices):
            budget.spend()
            cand = LlpVertical(f, dict(zip(keys, combo)))
            # only accepted candidates are kept, so rejected ones stay garbage
            if self._verified.get(cand) or llp_verify(R, cand).ok:
                self._verified[cand] = True
                out.append(cand)
        self._over[f] = tuple(out)
        return out

    def verticals(self):
        out = []
        for f in self.base.morphisms:
            out.extend(self.verticals_over(f))
        return out

    def has_vertical(self, v):
        return isinstance(v, LlpVertical) and self.verified(v)

    def underlying(self, v):
        return v.f

    def label(self, v):
        return v._label

    def identity_vertical(self, obj):
        return identity_llp_vertical(self.R, obj)

    def compose(self, w, v):
        return llp_vertical_compose(self.R, w, v)

    def is_square(self, v, w, top, bottom):
        C = self.base
        comp = C.comp
        if (top, bottom) not in C.squares(v.f, w.f):
            return False
        R = self.R
        # for verified v and w both sides fill (s∘top, t∘bottom): v.f -> Vk
        decided = C.is_category and self.verified(v) and self.verified(w)
        for k in R.verticals():
            rk = R.underlying(k)
            if decided and C.unique_fillers(v.f, rk):
                continue
            for s, t in C.squares(w.f, rk):
                lhs = comp[(w.theta[(R.label(k), s, t)], bottom)]
                rhs = v.theta[(R.label(k), comp[(s, top)], comp[(t, bottom)])]
                if lhs != rhs:
                    return False
        return True


def rlp_double_category(L: ConcreteDouble, budget: Budget | None = None
                        ) -> RlpDouble:
    return RlpDouble(L, budget)


def llp_double_category(R: ConcreteDouble, budget: Budget | None = None
                        ) -> LlpDouble:
    return LlpDouble(R, budget)


# ---------------------------------------------------------------------------
# transposes and structure morphisms


def transpose_r(S: LiftingStructure, budget: Budget | None = None
                ) -> ConcreteDoubleMap:
    """R -> RLP(L): each right vertical k becomes its underlying morphism
    equipped with the operation's fillers against every left vertical."""
    L, R = S.left, S.right
    C = L.base
    target = RlpDouble(L, budget)
    vmap = {}
    for k in R.verticals():
        rk = R.underlying(k)
        theta = {}
        for j in L.verticals():
            lj = L.underlying(j)
            for top, bottom in C.squares(lj, rk):
                theta[(L.label(j), top, bottom)] = S.op.fill(j, k, top, bottom)
        vmap[k] = RlpVertical(rk, theta)
    return ConcreteDoubleMap(R, target, vmap, name="phi_r")


def transpose_l(S: LiftingStructure, budget: Budget | None = None
                ) -> ConcreteDoubleMap:
    """L -> LLP(R), dual of :func:`transpose_r`."""
    L, R = S.left, S.right
    C = L.base
    target = LlpDouble(R, budget)
    vmap = {}
    for j in L.verticals():
        lj = L.underlying(j)
        theta = {}
        for k in R.verticals():
            rk = R.underlying(k)
            for top, bottom in C.squares(lj, rk):
                theta[(R.label(k), top, bottom)] = S.op.fill(j, k, top, bottom)
        vmap[j] = LlpVertical(lj, theta)
    return ConcreteDoubleMap(L, target, vmap, name="phi_l")


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
                             budget: Budget | None = None) -> Report:
    """(F_l: L -> L', F_r: R' -> R) is a morphism S -> S' when restricting
    S'.op along F_l on the left equals restricting S.op along F_r on the
    right, as tables over (L, R')."""
    report = Report()
    L, R2 = S.left, S2.right
    C = L.base
    bad, n = [], 0
    for j in sorted(L.verticals(), key=L.label):
        lj = L.underlying(j)
        for k2 in sorted(R2.verticals(), key=R2.label):
            rk = R2.underlying(k2)
            for top, bottom in C.squares(lj, rk):
                n += 1
                if budget:
                    budget.spend()
                lhs = S2.op.fill(F_l(j), k2, top, bottom)
                rhs = S.op.fill(j, F_r(k2), top, bottom)
                if lhs != rhs:
                    bad.append({"j": L.label(j), "k'": R2.label(k2),
                                "square": [top, bottom], "lhs": lhs, "rhs": rhs})
    if bad:
        report.add_violation("operation-agreement", bad, cases=n)
    else:
        report.add_ok("operation-agreement", cases=n)
    if budget:
        report.budget_used = budget.used
    return report


# ---------------------------------------------------------------------------
# the two lifting-awfs axioms


def check_pre_awfs(S: LiftingStructure, budget: Budget | None = None) -> Report:
    """Axiom of lifting: both transposes are bijective on verticals and
    on squares.  Injectivity is table comparison; surjectivity enumerates
    LLP/RLP verticals per morphism under the budget."""
    report = Report()
    if budget is None:
        budget = Budget()
    L, R = S.left, S.right
    C = L.base
    tr = transpose_r(S, budget)
    tl = transpose_l(S, budget)
    rlp: RlpDouble = tr.target
    llp: LlpDouble = tl.target

    def side(name, source, trans, target):
        images = {}
        bad = []
        for v in source.verticals():
            img = trans(v)
            if not target.has_vertical(img):
                bad.append({"kind": "image-not-a-vertical",
                            "vertical": source.label(v)})
                continue
            key = target.label(img)
            if key in images:
                bad.append({"kind": "not-injective",
                            "verticals": [source.label(images[key]),
                                          source.label(v)]})
            images[key] = v
        if bad:
            report.add_violation(f"{name}-verticals-injective", bad,
                                 cases=len(images))
            return
        report.add_ok(f"{name}-verticals-injective", cases=len(images))

        def surjective():
            missing = []
            n = 0
            for f in C.morphisms:
                for cand in target.verticals_over(f, budget):
                    n += 1
                    if target.label(cand) not in images:
                        missing.append({"kind": "unmatched-vertical", "f": f,
                                        "vertical": target.label(cand)})
            if missing:
                report.add_violation(f"{name}-verticals-surjective", missing,
                                     cases=n)
            else:
                report.add_ok(f"{name}-verticals-surjective", cases=n)
        run_bounded(report, f"{name}-verticals-surjective", surjective, budget)

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
        if sqbad:
            report.add_violation(f"{name}-squares", sqbad, cases=n)
        else:
            report.add_ok(f"{name}-squares", cases=n)

    side("phi_r", R, tr, rlp)
    side("phi_l", L, tl, llp)
    report.budget_used = budget.used
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
    if bad:
        report.add_violation("assignment", bad, cases=len(C.morphisms))
    else:
        report.add_ok("assignment", cases=len(C.morphisms))
    return report


def check_factorisation_axiom(S: LiftingStructure, FA: FactorisationAssignment,
                              side: str = "both",
                              budget: Budget | None = None) -> Report:
    """Bi-universality of the factorisations.

    Left side (couniversality of (1, rho_f)): every square (a, b) from a
    left vertical x into f factors as rho_f ∘ b' through a unique
    L-square (a, b'): x -> g_f.  Right side is dual.  ``side`` selects
    "both", "left-only" or "right-only"; either one-sided check is
    sufficient for a structure already known to satisfy the lifting
    axiom, and the CLI exposes all three.
    """
    if side not in ("both", "left-only", "right-only"):
        raise ValueError(f"unknown side {side!r}")
    report = check_factorisation_assignment(S, FA)
    if not report.ok:
        return report
    L, R = S.left, S.right
    C = L.base
    comp = C.comp

    def left_side():
        bad, n = [], 0
        lverts = sorted(L.verticals(), key=L.label)
        for f in C.morphisms:
            g, mid, h = FA[f]
            rho = R.underlying(h)
            ug = L.underlying(g)
            for x in lverts:
                ux = L.underlying(x)
                for a, b in C.squares(ux, f):
                    n += 1
                    if budget:
                        budget.spend()
                    found = []
                    for b2 in C.hom(C.cod[ux], mid):
                        if comp[(rho, b2)] != b:
                            continue
                        if comp[(b2, ux)] != comp[(ug, a)]:
                            continue
                        if L.is_square(x, g, a, b2):
                            found.append(b2)
                            if len(found) > 1:
                                break
                    if len(found) != 1:
                        bad.append({"f": f, "x": L.label(x), "square": [a, b],
                                    "factorisations": found})
        if bad:
            report.add_violation("couniversal-left", bad, cases=n)
        else:
            report.add_ok("couniversal-left", cases=n)

    def right_side():
        bad, n = [], 0
        rverts = sorted(R.verticals(), key=R.label)
        for f in C.morphisms:
            g, mid, h = FA[f]
            lam = L.underlying(g)
            vh = R.underlying(h)
            for y in rverts:
                uy = R.underlying(y)
                for a, b in C.squares(f, uy):
                    n += 1
                    if budget:
                        budget.spend()
                    found = []
                    for a2 in C.hom(mid, C.dom[uy]):
                        if comp[(a2, lam)] != a:
                            continue
                        if comp[(uy, a2)] != comp[(b, vh)]:
                            continue
                        if R.is_square(h, y, a2, b):
                            found.append(a2)
                            if len(found) > 1:
                                break
                    if len(found) != 1:
                        bad.append({"f": f, "y": R.label(y), "square": [a, b],
                                    "factorisations": found})
        if bad:
            report.add_violation("universal-right", bad, cases=n)
        else:
            report.add_ok("universal-right", cases=n)

    if side in ("both", "left-only"):
        run_bounded(report, "couniversal-left", left_side, budget)
    if side in ("both", "right-only"):
        run_bounded(report, "universal-right", right_side, budget)
    if budget:
        report.budget_used = budget.used
    return report


def check_lifting_awfs(S: LiftingStructure, FA: FactorisationAssignment,
                       side: str = "both",
                       budget: Budget | None = None) -> Report:
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


def canonical_right(R: ConcreteDouble, budget: Budget | None = None
                    ) -> LiftingStructure:
    """(LLP(R), can, R): the filler is read off the stored theta of the
    LLP vertical."""
    llp = LlpDouble(R, budget)

    def rule(j, k, top, bottom):
        return j.theta[(R.label(k), top, bottom)]

    return LiftingStructure(llp, RuleLifting(llp, R, rule, name="can_r"), R)


def canonical_left(L: ConcreteDouble, budget: Budget | None = None
                   ) -> LiftingStructure:
    """(L, can, RLP(L)): the filler is read off the stored theta of the
    RLP vertical."""
    rlp = RlpDouble(L, budget)

    def rule(j, k, top, bottom):
        return k.theta[(L.label(j), top, bottom)]

    return LiftingStructure(L, RuleLifting(L, rlp, rule, name="can_l"), rlp)


def canonical_morphism_from(S: LiftingStructure, budget: Budget | None = None):
    """The morphism (1, phi_r): canonical_left(S.left) -> S with identity
    left component, certified by check_structure_morphism."""
    from .dblcat import identity_double_map
    can = canonical_left(S.left, budget)
    F_l = identity_double_map(S.left)
    F_r = transpose_r(S, budget)
    # retarget phi_r onto the canonical structure's own RLP side
    F_r = ConcreteDoubleMap(S.right, can.right, F_r.vertical_map, name="phi_r")
    report = check_structure_morphism(can, S, F_l, F_r, budget)
    return F_l, F_r, report
