"""Lifting-law cases decided from filler validity, against the loops
that evaluate every case.

In each compatibility law of a lifting operation, of an RLP/LLP
vertical and of an RLP/LLP square, both sides are diagonals of one
commuting square of C.  Once filler validity holds and C is a category,
the two sides are therefore equal wherever that square has at most one
diagonal, and the checkers count such blocks without evaluating them.
This module keeps the evaluating loops as reference oracles and
requires the same report from both, apart from ``budget_used``, on
orthogonal and non-orthogonal pairs, on every single-entry change of an
operation to another valid filler, on every RLP/LLP candidate and
corrupted vertical, on double categories whose vertical composites are
not validated verticals, and on non-associative bases, where nothing
may be skipped.
"""

import itertools

import pytest

from fwfs import (Budget, FinCategory, RlpVertical, build_finset,
                  check_category, check_lifting_operation, dbl_from_class,
                  enumerate_fillers, llp_verify, rlp_verify, transpose_l,
                  transpose_r, unique_filler_lifting, walking_arrow)
from fwfs.dblcat import ClassDouble, check_double_category, sq
from fwfs.fincat import finset_values
from fwfs.lifting import (LiftingStructure, LlpDouble, LlpVertical,
                          NotOrthogonal, RlpDouble, RuleLifting, TableLifting)
from fwfs.report import UNBOUNDED, Report


# --- the evaluating oracles ------------------------------------------------


def oracle_lifting_operation(op, budget=None):
    """check_lifting_operation evaluating both sides of every case."""
    L, R = op.left, op.right
    C = L.base
    comp = C.comp
    report = Report()
    lverts = sorted(L.verticals(), key=L.label)
    rverts = sorted(R.verticals(), key=R.label)

    def validity():
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

    def horizontal_left():
        bad, n = [], 0
        for i in lverts:
            for j in lverts:
                for r0, r1 in L.squares(i, j):
                    lj = L.underlying(j)
                    for k in rverts:
                        rk = R.underlying(k)
                        for s, t in C.squares(lj, rk):
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
        bad, n = [], 0
        for k in rverts:
            for k2 in rverts:
                for q0, q1 in R.squares(k, k2):
                    rk = R.underlying(k)
                    for j in lverts:
                        lj = L.underlying(j)
                        for u, v in C.squares(lj, rk):
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
        bad, n = [], 0
        for i in lverts:
            for j in lverts:
                if not L.composable(j, i):
                    continue
                ji = L.compose(j, i)
                uji = L.underlying(ji)
                uj = L.underlying(j)
                for k in rverts:
                    rk = R.underlying(k)
                    for s, t in C.squares(uji, rk):
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
        bad, n = [], 0
        for k in rverts:
            for l in rverts:
                if not R.composable(l, k):
                    continue
                lk = R.compose(l, k)
                ulk = R.underlying(lk)
                uk = R.underlying(k)
                for j in lverts:
                    lj = L.underlying(j)
                    for u, v in C.squares(lj, ulk):
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
        with report.bounded(name, budget or UNBOUNDED):
            fn()
        if not report.ok and report.violations():
            break
    return report


def oracle_rlp_verify(L, v, budget=None):
    """rlp_verify evaluating both sides of every case; a translated pair
    that is not a square has no stored filler."""
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

    bad, n = [], 0
    for i in lverts:
        for j in lverts:
            for r0, r1 in L.squares(i, j):
                lj = L.underlying(j)
                for s, t in C.squares(lj, f):
                    n += 1
                    if budget:
                        budget.spend()
                    lhs = comp[(v.theta.get((L.label(j), s, t)), r1)]
                    rhs = v.theta.get((L.label(i), comp[(s, r0)], comp[(t, r1)]))
                    if lhs != rhs:
                        bad.append({"i": L.label(i), "j": L.label(j),
                                    "left-square": [r0, r1], "square": [s, t]})
    if bad:
        report.add_violation("horizontal-compatibility", bad, cases=n)
    else:
        report.add_ok("horizontal-compatibility", cases=n)

    bad, n = [], 0
    for i in lverts:
        for j in lverts:
            if not L.composable(j, i):
                continue
            ji = L.compose(j, i)
            uji, uj = L.underlying(ji), L.underlying(j)
            for s, t in C.squares(uji, f):
                n += 1
                if budget:
                    budget.spend()
                mid = v.theta.get((L.label(i), s, comp[(t, uj)]))
                if v.theta.get((L.label(ji), s, t)) != v.theta.get((L.label(j), mid, t)):
                    bad.append({"i": L.label(i), "j": L.label(j), "square": [s, t]})
    if bad:
        report.add_violation("vertical-compatibility", bad, cases=n)
    else:
        report.add_ok("vertical-compatibility", cases=n)
    if budget:
        report.budget_used = budget.used
    return report


def oracle_llp_verify(R, v, budget=None):
    """llp_verify evaluating both sides of every case; a translated pair
    that is not a square has no stored filler."""
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

    bad, n = [], 0
    for k in rverts:
        for k2 in rverts:
            for q0, q1 in R.squares(k, k2):
                rk = R.underlying(k)
                for u, t in C.squares(f, rk):
                    n += 1
                    if budget:
                        budget.spend()
                    lhs = comp[(q0, v.theta.get((R.label(k), u, t)))]
                    rhs = v.theta.get((R.label(k2), comp[(q0, u)], comp[(q1, t)]))
                    if lhs != rhs:
                        bad.append({"k": R.label(k), "k'": R.label(k2),
                                    "right-square": [q0, q1], "square": [u, t]})
    if bad:
        report.add_violation("horizontal-compatibility", bad, cases=n)
    else:
        report.add_ok("horizontal-compatibility", cases=n)

    bad, n = [], 0
    for k in rverts:
        for l in rverts:
            if not R.composable(l, k):
                continue
            lk = R.compose(l, k)
            ulk, uk = R.underlying(lk), R.underlying(k)
            for u, t in C.squares(f, ulk):
                n += 1
                if budget:
                    budget.spend()
                mid = v.theta.get((R.label(l), comp[(uk, u)], t))
                if v.theta.get((R.label(lk), u, t)) != v.theta.get((R.label(k), u, mid)):
                    bad.append({"k": R.label(k), "l": R.label(l), "square": [u, t]})
    if bad:
        report.add_violation("vertical-compatibility", bad, cases=n)
    else:
        report.add_ok("vertical-compatibility", cases=n)
    if budget:
        report.budget_used = budget.used
    return report


def oracle_rlp_is_square(D, v, w, top, bottom):
    """RlpDouble.is_square evaluating every translated square."""
    C = D.base
    comp = C.comp
    if (top, bottom) not in C.squares(v.f, w.f):
        return False
    L = D.L
    for j in L.verticals():
        lj = L.underlying(j)
        for u, t in C.squares(lj, v.f):
            lhs = comp[(top, v.theta[(L.label(j), u, t)])]
            rhs = w.theta[(L.label(j), comp[(top, u)], comp[(bottom, t)])]
            if lhs != rhs:
                return False
    return True


def oracle_llp_is_square(D, v, w, top, bottom):
    """LlpDouble.is_square evaluating every translated square."""
    C = D.base
    comp = C.comp
    if (top, bottom) not in C.squares(v.f, w.f):
        return False
    R = D.R
    for k in R.verticals():
        rk = R.underlying(k)
        for s, t in C.squares(w.f, rk):
            lhs = comp[(w.theta[(R.label(k), s, t)], bottom)]
            rhs = v.theta[(R.label(k), comp[(s, top)], comp[(t, bottom)])]
            if lhs != rhs:
                return False
    return True


# --- comparison helpers ----------------------------------------------------


def without_budget(report):
    doc = report.to_dict()
    doc.pop("budget_used")
    return doc


def same_lifting_report(op, *, skipped=None):
    """The checker's report is the oracle's apart from budget_used, which
    is never larger; ``skipped`` requires some (True) or no (False) saving."""
    got = check_lifting_operation(op, Budget())
    want = oracle_lifting_operation(op, Budget())
    assert without_budget(got) == without_budget(want)
    assert got.budget_used <= want.budget_used
    if skipped is not None:
        assert (got.budget_used < want.budget_used) == skipped
    return got


def same_vertical_reports(D, verts, verify, oracle):
    """verify and its oracle agree on each vertical; returns how many
    candidates saved budget."""
    saved = 0
    for v in verts:
        got = verify(D, v, Budget())
        want = oracle(D, v, Budget())
        assert without_budget(got) == without_budget(want), v
        assert got.budget_used <= want.budget_used
        saved += got.budget_used < want.budget_used
    return saved


def same_squares(D, verts, oracle, others=()):
    """is_square agrees with its oracle on every base square between two
    of the verticals, or between one of them and one of ``others``;
    returns how many were squares."""
    C = D.base
    n = 0
    pairs = itertools.chain(itertools.product(verts, verts),
                            itertools.product(verts, others),
                            itertools.product(others, verts))
    for v, w in pairs:
        for top, bottom in C.squares(v.f, w.f):
            got = D.is_square(v, w, top, bottom)
            assert got == oracle(D, v, w, top, bottom), (v, w, top, bottom)
            n += got
    return n


# --- instances -------------------------------------------------------------


def delta_plus(n):
    """The augmented simplex category Δ₊≤n: monotone maps of FinSet≤n,
    with its surjections and injections."""
    fs = build_finset(n)
    C = fs.category
    keep = {m for m in C.morphisms
            if list(finset_values(m)[2]) == sorted(finset_values(m)[2])}
    D = FinCategory(C.objects, [(m, C.dom[m], C.cod[m]) for m in keep],
                    C.identities,
                    {(g, f): gf for (g, f), gf in C.comp.items()
                     if g in keep and f in keep}, name=f"Δ₊≤{n}")
    return D, keep & fs.epis, keep & fs.monos


def mono_epi2():
    """Injections against surjections on FinSet≤2: every square has a
    filler, many have several."""
    fs = build_finset(2)
    C = fs.category
    return (dbl_from_class(C, fs.monos, name="D(Mono)"),
            dbl_from_class(C, fs.epis, name="D(Epi)"))


def extreme_filler(pick, name):
    """The rule choosing the least or greatest diagonal, None if none."""
    def make(left, right):
        C = left.base
        return RuleLifting(left, right, lambda j, k, t, b: pick(
            enumerate_fillers(C, j, k, t, b), default=None), name=name)
    return make


least_filler = extreme_filler(min, "least")
greatest_filler = extreme_filler(max, "greatest")


class LooseDouble(ClassDouble):
    """A class double whose vertical composite is whatever ``glue``
    returns, unchecked: its composites need not be members, nor lie
    over the composite in the base."""

    def __init__(self, base, members, glue, name=""):
        super().__init__(base, members, name)
        self.glue = glue

    def compose(self, w, v):
        return self.glue(w, v)


def nonassociative_base():
    """Z/3 with 1+1 set to 1: unital, not associative."""
    elements = ["0", "1", "2"]
    comp = {(x, y): str((int(x) + int(y)) % 3) for x in elements for y in elements}
    comp[("1", "1")] = "1"
    return FinCategory(["*"], [(m, "*", "*") for m in elements], {"*": "0"},
                       comp, name="Z/3 with 1+1 := 1")


def broken_walking_arrow():
    """The walking arrow with a∘id0 set to id1: boundaries fail."""
    W = walking_arrow()
    comp = dict(W.comp)
    comp[("a", "id0")] = "id1"
    return FinCategory(W.objects, [(m, W.dom[m], W.cod[m]) for m in W.morphisms],
                       W.identities, comp, name="2 with a∘id0 := id1")


# --- orthogonal pairs: blocks are skipped, reports unchanged ----------------


def epi_mono_sides(base):
    if base == "finset2":
        fs = build_finset(2)
        C, epis, monos = fs.category, fs.epis, fs.monos
    else:
        C, epis, monos = delta_plus(2)
    return (dbl_from_class(C, epis, name="D(Epi)"),
            dbl_from_class(C, monos, name="D(Mono)"))


@pytest.mark.parametrize("base", ["finset2", "delta2"])
def test_epi_mono_operation_matches_oracle(base):
    left, right = epi_mono_sides(base)
    report = same_lifting_report(unique_filler_lifting(left, right), skipped=True)
    assert report.ok


@pytest.mark.parametrize("base", ["finset2", "delta2"])
def test_epi_mono_transposes_match_oracle(base):
    left, right = epi_mono_sides(base)
    S = LiftingStructure(left, unique_filler_lifting(left, right), right)
    for trans, verify, oracle, is_sq in (
            (transpose_r(S), rlp_verify, oracle_rlp_verify,
             oracle_rlp_is_square),
            (transpose_l(S), llp_verify, oracle_llp_verify,
             oracle_llp_is_square)):
        D = trans.target
        side = D.L if isinstance(D, RlpDouble) else D.R
        verts = [trans(v) for v in trans.source.verticals()]
        assert same_vertical_reports(side, verts, verify, oracle) > 0
        assert same_squares(D, verts, is_sq) > 0


# --- a non-orthogonal pair --------------------------------------------------


@pytest.mark.parametrize("rule", [least_filler, greatest_filler],
                         ids=["least", "greatest"])
def test_non_orthogonal_rules_match_oracle(rule):
    left, right = mono_epi2()
    same_lifting_report(rule(left, right), skipped=True)


def points_epi2():
    """Maps out of the empty set against surjections on FinSet≤2, a
    second pair with several fillers for some squares."""
    fs = build_finset(2)
    C = fs.category
    points = [m for m in C.morphisms if C.dom[m] == "0"]
    return (dbl_from_class(C, points + list(C.identities.values()),
                           name="D(0->)"),
            dbl_from_class(C, fs.epis, name="D(Epi)"))


@pytest.mark.parametrize("sides", [mono_epi2, points_epi2])
@pytest.mark.parametrize("rule", [least_filler, greatest_filler],
                         ids=["least", "greatest"])
def test_every_single_filler_change_matches_oracle(sides, rule):
    """Each entry of the rule's table changed to another valid filler:
    the only changes that can break a law while validity holds.  (With
    all commuting squares as structure squares, no choice is lawful
    here, so every change is a violation.)"""
    left, right = sides()
    C = left.base
    table = rule(left, right).table()
    n = 0
    for key, d in sorted(table.items()):
        for other in enumerate_fillers(C, *key):
            if other != d:
                n += 1
                op = TableLifting(left, right, {**table, key: other})
                assert same_lifting_report(op, skipped=True).violations()
    assert n > 0


def test_rlp_and_llp_candidates_match_oracle():
    """Every candidate that verticals_over enumerates on the
    non-orthogonal RLP(D(Mono)) and LLP(D(Epi)) of FinSet≤2."""
    monos, epis = mono_epi2()
    C = monos.base
    for D, side, verify, oracle, make, fillers in (
            (RlpDouble(monos), monos, rlp_verify, oracle_rlp_verify,
             RlpVertical, lambda x, f, t, b: enumerate_fillers(C, x, f, t, b)),
            (LlpDouble(epis), epis, llp_verify, oracle_llp_verify,
             LlpVertical, lambda x, f, t, b: enumerate_fillers(C, f, x, t, b))):
        candidates = []
        for f in C.morphisms:
            keys, choices = [], []
            for x in sorted(side.verticals(), key=side.label):
                squares = (C.squares(x, f) if isinstance(D, RlpDouble)
                           else C.squares(f, x))
                for top, bottom in squares:
                    keys.append((side.label(x), top, bottom))
                    choices.append(fillers(x, f, top, bottom))
            for combo in itertools.product(*choices):
                candidates.append(make(f, dict(zip(keys, combo))))
        accepted = [v for v in candidates if verify(side, v).ok]
        assert 0 < len(accepted) < len(candidates)
        assert same_vertical_reports(side, candidates, verify, oracle) > 0
        assert sorted(v._label for v in accepted) == \
            sorted(v._label for v in D.verticals())


def corruptions(C, v):
    """v with one theta entry replaced by another parallel morphism."""
    for key, d in sorted(v.theta.items()):
        for x in C.hom(C.dom[d], C.cod[d]):
            if x != d:
                yield type(v)(v.f, {**v.theta, key: x})


def test_rlp_and_llp_squares_match_oracle():
    """is_square on the verticals of the non-orthogonal RLP and LLP, and
    on their single-entry corruptions, which are not verticals."""
    monos, epis = mono_epi2()
    C = monos.base
    for D, oracle in ((RlpDouble(monos), oracle_rlp_is_square),
                      (LlpDouble(epis), oracle_llp_is_square)):
        verts = D.verticals()
        bad = [c for v in verts for c in corruptions(C, v)]
        assert bad and not any(D.has_vertical(c) for c in bad)
        assert same_squares(D, verts, oracle, bad) > 0


# --- gates: where nothing may be skipped -----------------------------------


def test_nonassociative_base_skips_nothing():
    B = nonassociative_base()
    assert not check_category(B).ok
    assert B.unique_fillers("0", "1")  # squares out of the identity
    D = sq(B)
    ids = ClassDouble(B, ["0"], name="ids")
    for left, right in ((ids, D), (D, ids), (ids, ids)):
        for rule in (least_filler, greatest_filler):
            op = rule(left, right)
            got = check_lifting_operation(op, Budget())
            want = oracle_lifting_operation(op, Budget())
            assert got.to_dict() == want.to_dict()


def outcome(verify, D, v, budget=True):
    """The report, or the lookup that failed: a translated square need
    not be a square on a non-associative base, nor where a composite
    lies over the wrong morphism."""
    try:
        report = verify(D, v, Budget())
    except KeyError as exc:
        return ("KeyError", exc.args)
    return report.to_dict() if budget else without_budget(report)


def test_nonassociative_base_rlp_and_llp_match_oracle():
    B = nonassociative_base()
    ids = ClassDouble(B, ["0"], name="ids")
    reports = 0
    for f in B.morphisms:
        # against the identity the filler is the top edge, from it the bottom
        for v, verify, oracle in (
                (RlpVertical(f, {("0", t, b): t for t, b in B.squares("0", f)}),
                 rlp_verify, oracle_rlp_verify),
                (LlpVertical(f, {("0", t, b): b for t, b in B.squares(f, "0")}),
                 llp_verify, oracle_llp_verify)):
            got = outcome(verify, ids, v)
            assert got == outcome(oracle, ids, v)
            reports += isinstance(got, dict)
    assert reports > 0


def test_nonassociative_base_rlp_and_llp_verticals_get_reports():
    """Every candidate vertical of RLP and LLP over the non-associative
    base gets a report, equal to the oracle's, and enumeration raises
    nothing: a translated pair that is not a square has no stored
    filler, so the law that asks for one is violated."""
    B = nonassociative_base()
    compat = 0
    for side in (ClassDouble(B, ["0"], name="ids"), sq(B)):
        for D, verify, oracle, make, flip in (
                (RlpDouble(side), rlp_verify, oracle_rlp_verify, RlpVertical,
                 False),
                (LlpDouble(side), llp_verify, oracle_llp_verify, LlpVertical,
                 True)):
            for f in B.morphisms:
                keys, choices = [], []
                for x in sorted(side.verticals(), key=side.label):
                    a, b = (f, x) if flip else (x, f)
                    for top, bottom in B.squares(a, b):
                        keys.append((x, top, bottom))
                        choices.append(enumerate_fillers(B, a, b, top, bottom))
                for combo in itertools.product(*choices):
                    v = make(f, dict(zip(keys, combo)))
                    got = verify(side, v, Budget())
                    assert got.to_dict() == oracle(side, v, Budget()).to_dict()
                    compat += any(c.name.endswith("compatibility")
                                  for c in got.violations())
            D.verticals()
    assert compat > 0


def test_nonassociative_base_squares_consult_nothing():
    """is_square on a non-associative base never asks for unique fillers,
    even between verified verticals."""
    B = nonassociative_base()
    ids = ClassDouble(B, ["0"], name="ids")

    def refuse(f, g):
        raise AssertionError("unique fillers consulted on a non-category")

    B.unique_fillers = refuse
    for D, oracle in ((RlpDouble(ids), oracle_rlp_is_square),
                      (LlpDouble(ids), oracle_llp_is_square)):
        verts = D.verticals_over("0")
        assert verts and all(D.has_vertical(v) for v in verts)
        assert same_squares(D, verts, oracle) > 0


def test_exhausted_budget_skips_nothing():
    """Filler validity cut short by the budget establishes nothing: each
    later family is inconclusive, exactly as when every case is
    evaluated."""
    left, right = epi_mono_sides("finset2")
    op = unique_filler_lifting(left, right)
    got = check_lifting_operation(op, Budget(max_candidates=10))
    want = oracle_lifting_operation(op, Budget(max_candidates=10))
    assert got.to_dict() == want.to_dict()
    assert {c.status for c in got.checks} == {"inconclusive"}


def without_identity2(C, members, glue=None):
    """The class minus the identity of 2, composed in C: the square of
    the swap is then not a member."""
    return LooseDouble(C, [m for m in members if m != C.identities["2"]],
                       glue or (lambda w, v: C.comp[(w, v)]))


def test_composite_outside_the_class_is_evaluated():
    """Vertical composites that are not members, with lifts against
    them that are not diagonals: the vertical laws fail."""
    fs = build_finset(2)
    C = fs.category
    epis, monos = dbl_from_class(C, fs.epis), dbl_from_class(C, fs.monos)
    for left, right, family in (
            (without_identity2(C, fs.epis), monos, "vertical-left"),
            (epis, without_identity2(C, fs.monos), "vertical-right")):

        def rule(j, k, top, bottom):
            if j not in left.members:
                return bottom  # not a diagonal
            if k not in right.members:
                return top  # not a diagonal
            return enumerate_fillers(C, j, k, top, bottom)[0]

        report = same_lifting_report(RuleLifting(left, right, rule))
        assert [c.name for c in report.violations()] == [family]


def test_composite_over_the_wrong_morphism_is_evaluated():
    """A vertical composite that is a member but lies over the wrong
    morphism: lifts through the middle are taken on non-squares."""
    fs = build_finset(2)
    C = fs.category
    left = LooseDouble(C, fs.epis, lambda w, v: w)
    right = LooseDouble(C, fs.monos, lambda w, v: v)
    report = same_lifting_report(least_filler(left, right))
    assert [c.name for c in report.violations()] == ["vertical-left"]
    flipped = same_lifting_report(least_filler(
        dbl_from_class(C, fs.epis), right))
    assert [c.name for c in flipped.violations()] == ["vertical-right"]


def test_rlp_and_llp_composites_outside_the_class_are_evaluated():
    """RLP and LLP verticals over a class missing a composite, whose
    theta also answers, wrongly, for that composite."""
    fs = build_finset(2)
    C = fs.category
    id2 = C.identities["2"]
    for members, targets, verify, oracle, make, flip in (
            (fs.epis, fs.monos, rlp_verify, oracle_rlp_verify, RlpVertical,
             False),
            (fs.monos, fs.epis, llp_verify, oracle_llp_verify, LlpVertical,
             True)):
        side = without_identity2(C, members)
        violations = 0
        for f in sorted(targets):
            theta = {}
            for x in list(side.members) + [id2]:
                a, b = (f, x) if flip else (x, f)
                for top, bottom in C.squares(a, b):
                    fillers = enumerate_fillers(C, a, b, top, bottom)
                    # the lift against the missing composite: the wrong edge
                    wrong = top if flip else bottom
                    theta[(x, top, bottom)] = (fillers[0] if x != id2
                                               else wrong)
            v = make(f, theta)
            got, want = verify(side, v, Budget()), oracle(side, v, Budget())
            assert without_budget(got) == without_budget(want)
            violations += "vertical-compatibility" in {
                c.name for c in got.violations()}
        assert violations > 0
    # composites over the wrong morphism
    wrong_l = LooseDouble(C, fs.epis, lambda w, v: w)
    wrong_r = LooseDouble(C, fs.monos, lambda w, v: v)
    for f in C.morphisms:
        checks = []
        if f in fs.monos:
            checks.append((rlp_verify, oracle_rlp_verify, wrong_l, RlpVertical(
                f, {(x, top, bottom): enumerate_fillers(C, x, f, top, bottom)[0]
                    for x in fs.epis for top, bottom in C.squares(x, f)})))
        if f in fs.epis:
            checks.append((llp_verify, oracle_llp_verify, wrong_r, LlpVertical(
                f, {(x, top, bottom): enumerate_fillers(C, f, x, top, bottom)[0]
                    for x in fs.monos for top, bottom in C.squares(f, x)})))
        for verify, oracle, side, v in checks:
            assert outcome(verify, side, v, budget=False) == \
                outcome(oracle, side, v, budget=False)


# --- a base whose boundaries fail ------------------------------------------


def test_check_category_stops_at_boundaries():
    report = check_category(broken_walking_arrow())
    assert [(c.name, c.status) for c in report.checks] == [
        ("references", "ok"), ("composition-totality", "ok"),
        ("boundaries", "violation")]
    assert report.checks[-1].witnesses == [
        {"g": "a", "f": "id0", "composite": "id1"}]


def test_lifting_operation_over_broken_base():
    """Validity passes, so the category gate is consulted; it must
    report, not raise, and then nothing is skipped."""
    B = broken_walking_arrow()
    ids = dbl_from_class(B, B.identities.values(), name="ids")
    op = unique_filler_lifting(ids, ids)
    got = check_lifting_operation(op, Budget())
    assert got.ok
    assert got.to_dict() == oracle_lifting_operation(op, Budget()).to_dict()
    assert not B.is_category


def class_pairs(B):
    """Every pair of non-empty classes of morphisms of B."""
    classes = [list(c) for r in range(1, len(B.morphisms) + 1)
               for c in itertools.combinations(sorted(B.morphisms), r)]
    return itertools.product(classes, classes)


@pytest.mark.parametrize("base, built", [(broken_walking_arrow, 33),
                                         (nonassociative_base, 17)])
def test_unique_filler_operation_is_its_table(base, built):
    """Over a base that is no category, the laws ask for lifts of pairs
    that are no lifting problems.  The unique-filler operation answers
    them as its own table does, with no diagonal, so its report is the
    table's: it neither raises nor passes where the table fails."""
    B = base()
    n = 0
    for left, right in class_pairs(B):
        L, R = ClassDouble(B, left), ClassDouble(B, right)
        try:
            op = unique_filler_lifting(L, R)
        except NotOrthogonal:
            continue
        n += 1
        table = TableLifting(L, R, op.table())
        assert check_lifting_operation(op).to_dict() == \
            check_lifting_operation(table).to_dict(), (left, right)
    assert n == built


@pytest.mark.parametrize("left", [["a"], ["id1"], ["a", "id1"]])
def test_composite_off_the_boundary_is_a_witness(left):
    """With a∘id0 := id1, the composite a∘id0 of the right class lies over
    id1, which does not end where id0 does: the lift through the middle
    is no lifting problem.  vertical-right reports the case as a
    witness, in the right-hand keys, rather than raise KeyError."""
    B = broken_walking_arrow()
    op = unique_filler_lifting(ClassDouble(B, left),
                               ClassDouble(B, ["a", "id0", "id1"]))
    report = check_lifting_operation(op, Budget())
    assert [c.name for c in report.violations()] == ["vertical-right"]
    witnesses = report.violations()[0].witnesses
    assert witnesses and all(
        w.keys() == {"k", "l", "square", "kind"}
        and (w["k"], w["l"], w["kind"]) == ("id0", "a", "composite-boundary")
        for w in witnesses)
    assert report.budget_used == sum(c.cases for c in report.checks)


# --- the unique-filler gate of is_square -----------------------------------


class OnlyIdentitySquareOfJ(ClassDouble):
    """Over FinSet<=2: the identities and j = 1>2:0, with every
    commuting square between identity verticals but only the identity
    square of j."""

    J = "1>2:0"

    def __init__(self, C):
        super().__init__(C, [*C.identities.values(), self.J], name="j")

    def is_square(self, v, w, top, bottom):
        C = self.base
        if C.is_identity(v) and C.is_identity(w):
            return super().is_square(v, w, top, bottom)
        return v == w == self.J and (top, bottom) == (
            C.identities[C.dom[v]], C.identities[C.cod[v]])

    def squares(self, v, w):
        return [s for s in super().squares(v, w) if self.is_square(v, w, *s)]


def test_is_square_gate_is_the_target_vertical():
    """j has two fillers against 2>1:00 but one against an identity, so
    a square from the identity vertical on 2 into a vertical w over
    2>1:00 must be evaluated against j: the gate reads w.f, not v.f."""
    C = build_finset(2).category
    L = OnlyIdentitySquareOfJ(C)
    assert check_double_category(L).ok
    D = RlpDouble(L)
    ws = D.verticals_over("2>1:00")
    assert len(ws) == 4
    v = D.identity_vertical("2")
    for w in ws:
        assert not D.is_square(v, w, "2>2:01", "2>1:00")
    assert same_squares(D, [v, *ws], oracle_rlp_is_square) > 0
