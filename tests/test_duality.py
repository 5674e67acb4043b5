"""The right-hand and LLP constructions are derived from the left-hand
and RLP ones on the opposite category.  This module checks the opposite
views themselves, and keeps the hand-written right-hand side of the
factorisation axiom, ``transpose_l``, ``identity_llp_vertical`` and
``llp_vertical_compose`` as oracles for the derived code.  (The
compatibility families, ``llp_verify`` and the LLP square test have
their oracles in ``tests/test_unique_fillers.py``.)
"""

import pytest

from fwfs import (Budget, FactorisationAssignment, FinCategory,
                  LiftingStructure, LlpVertical, build_finset, check_category,
                  check_factorisation_axiom, dbl_from_class,
                  factorisation_assignment, llp_verify, sem, transpose_l,
                  unique_filler_lifting, walking_arrow)
from fwfs.fincat import finset_image_factorisation, finset_values
from fwfs.lifting import (LlpDouble, TableLifting, _couniversal_left,
                          _dual_witnesses, check_factorisation_assignment,
                          factorisations,
                          identity_llp_vertical, llp_vertical_compose)
from fwfs.report import UNBOUNDED, Cases, Report


# --- the hand-written oracles ----------------------------------------------


def oracle_right_side(S, FA, budget=None):
    """The universal-right law of check_factorisation_axiom, written on C:
    every square (a, b) from f into a right vertical y factors as a'∘λf
    through a unique R-square (a', b): h_f -> y.  Returns (witnesses,
    cases)."""
    L, R = S.left, S.right
    C = L.base
    comp = C.comp
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
    return bad, n


def oracle_left_side(S, FA, budget=None):
    """The couniversal-left law of check_factorisation_axiom with its own
    search, which stops at a second factorisation: every square (a, b)
    from a left vertical x into f factors as ρf∘b' through a unique
    L-square (a, b'): x -> g_f.  Returns (witnesses, cases)."""
    L, R = S.left, S.right
    C = L.base
    comp = C.comp
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
    return bad, n


def oracle_left_only(S, FA, budget=None):
    """check_factorisation_axiom(S, FA, "left-only", budget)."""
    report = check_factorisation_assignment(S, FA)
    if not report.ok:
        return report
    with report.bounded("couniversal-left", budget or UNBOUNDED):
        report.record("couniversal-left", *oracle_left_side(S, FA, budget))
    if budget:
        report.budget_used = budget.used
    return report


def oracle_right_only(S, FA, budget=None):
    """check_factorisation_axiom(S, FA, "right-only", budget) on C."""
    report = check_factorisation_assignment(S, FA)
    if not report.ok:
        return report
    with report.bounded("universal-right", budget or UNBOUNDED):
        report.record("universal-right", *oracle_right_side(S, FA, budget))
    if budget:
        report.budget_used = budget.used
    return report


def oracle_transpose_l(S):
    """L -> LLP(R), each left vertical with its fillers against R."""
    L, R = S.left, S.right
    C = L.base
    vmap = {}
    for j in L.verticals():
        lj = L.underlying(j)
        theta = {}
        for k in R.verticals():
            rk = R.underlying(k)
            for top, bottom in C.squares(lj, rk):
                theta[(R.label(k), top, bottom)] = S.op.fill(j, k, top, bottom)
        vmap[j] = LlpVertical(lj, theta)
    return vmap


def oracle_identity_llp_vertical(R, obj):
    C = R.base
    f = C.identities[obj]
    theta = {}
    for k in R.verticals():
        rk = R.underlying(k)
        for top, bottom in C.squares(f, rk):
            theta[(R.label(k), top, bottom)] = top
    return LlpVertical(f, theta)


def oracle_llp_vertical_compose(R, w, v):
    """w after v: lift first against v, then against w through the
    middle."""
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


# --- instances -------------------------------------------------------------


def delta_plus(n):
    """Δ₊≤n: the monotone maps of FinSet≤n, with surjections and
    injections."""
    fs = build_finset(n)
    C = fs.category
    keep = {m for m in C.morphisms
            if list(finset_values(m)[2]) == sorted(finset_values(m)[2])}
    D = FinCategory(C.objects, [(m, C.dom[m], C.cod[m]) for m in keep],
                    C.identities,
                    {(g, f): gf for (g, f), gf in C.comp.items()
                     if g in keep and f in keep}, name=f"Δ₊≤{n}")
    return D, keep & fs.epis, keep & fs.monos


def epi_mono(base):
    if base == "finset2":
        fs = build_finset(2)
        C, epis, monos = fs.category, fs.epis, fs.monos
    else:
        C, epis, monos = delta_plus(2)
    left = dbl_from_class(C, epis, name="D(Epi)")
    right = dbl_from_class(C, monos, name="D(Mono)")
    S = LiftingStructure(left, unique_filler_lifting(left, right), right)
    FA = FactorisationAssignment(
        {f: finset_image_factorisation(f) for f in C.morphisms})
    return S, FA


@pytest.fixture(params=["finset2", "delta2", "sem"])
def structure(request, image_awfs2):
    if request.param == "sem":
        return sem(image_awfs2), factorisation_assignment(image_awfs2)
    return epi_mono(request.param)


def broken_walking_arrow():
    W = walking_arrow()
    comp = dict(W.comp)
    comp[("a", "id0")] = "id1"
    return FinCategory(W.objects, [(m, W.dom[m], W.cod[m]) for m in W.morphisms],
                       W.identities, comp, name="2 with a∘id0 := id1")


def nonassociative_base():
    elements = ["0", "1", "2"]
    comp = {(x, y): str((int(x) + int(y)) % 3) for x in elements for y in elements}
    comp[("1", "1")] = "1"
    return FinCategory(["*"], [(m, "*", "*") for m in elements], {"*": "0"},
                       comp, name="Z/3 with 1+1 := 1")


@pytest.fixture(params=["finset2", "walking-arrow", "delta2", "comma",
                        "broken-walking-arrow", "nonassociative"])
def category(request, arrow_comma):
    return {"finset2": lambda: build_finset(2).category,
            "walking-arrow": walking_arrow,
            "delta2": lambda: delta_plus(2)[0],
            "comma": lambda: arrow_comma.comma,
            "broken-walking-arrow": broken_walking_arrow,
            "nonassociative": nonassociative_base}[request.param]()


# --- the opposite category -------------------------------------------------


def test_opposite_of_opposite_has_the_tables(category):
    C = category
    op = C.op()
    assert op is C.op()
    assert op.op() is C
    assert (op.objects, op.morphisms, op.identities) == \
        (C.objects, C.morphisms, C.identities)
    assert op.dom == C.cod and op.cod == C.dom
    assert op.comp == {(f, g): gf for (g, f), gf in C.comp.items()}
    twice = op.op()
    assert (twice.dom, twice.cod, twice.comp) == (C.dom, C.cod, C.comp)


def test_opposite_has_the_verdict(category):
    C = category
    got, want = check_category(C.op()), check_category(C)
    assert [(c.name, c.status) for c in got.checks] == \
        [(c.name, c.status) for c in want.checks]
    assert C.op().is_category == C.is_category == want.ok


def test_opposite_squares_are_transposed_in_order(category):
    C = category
    op = C.op()
    if not C.is_category:
        return  # squares are only meaningful over a total table
    for f in C.morphisms:
        for g in C.morphisms:
            assert op.squares(f, g) == tuple(
                (bottom, top) for top, bottom in C.squares(g, f))
            assert op.unique_fillers(f, g) == C.unique_fillers(g, f)
    for a in C.objects:
        for b in C.objects:
            assert op.hom(a, b) == C.hom(b, a)


def test_opposite_double_transports_order():
    S, _ = epi_mono("finset2")
    for D in (S.left, S.right):
        op = D.op()
        assert op.op() is D and op.base is D.base.op()
        verts = sorted(D.verticals(), key=D.label)
        assert list(op.pairs(verts)) == [(w, v) for v, w in D.pairs(verts)]
        assert list(op.composable_pairs(verts)) == \
            [(w, v) for v, w in D.composable_pairs(verts)]
        for v, w in D.pairs(verts):
            assert list(op.squares(w, v)) == [
                (bottom, top) for top, bottom in D.squares(v, w)]
            for top, bottom in D.base.squares(v, w):
                assert op.is_square(w, v, bottom, top) == \
                    D.is_square(v, w, top, bottom)
        for v, w in D.composable_pairs(verts):
            assert op.compose(v, w) == D.compose(w, v)


# --- derived against hand-written ------------------------------------------


def test_transpose_l_matches_oracle(structure):
    S, _ = structure
    phi = transpose_l(S)
    want = oracle_transpose_l(S)
    assert isinstance(phi.target, LlpDouble) and phi.target.R is S.right
    assert phi.source is S.left and phi.name == "phi_l"
    assert list(phi.vertical_map) == list(want)
    for j, v in want.items():
        got = phi(j)
        assert type(got) is LlpVertical and got == v and got._label == v._label


def test_identity_and_composite_llp_verticals_match_oracle(structure):
    S, _ = structure
    R = S.right
    C = R.base
    for obj in C.objects:
        got = identity_llp_vertical(R, obj)
        want = oracle_identity_llp_vertical(R, obj)
        assert got == want and got._label == want._label
        assert LlpDouble(R).identity_vertical(obj) == want
    verts = list(transpose_l(S).vertical_map.values())
    composites = 0
    for w in verts:
        for v in verts:
            if C.cod[v.f] != C.dom[w.f]:
                with pytest.raises(ValueError):
                    llp_vertical_compose(R, w, v)
                continue
            got = llp_vertical_compose(R, w, v)
            want = oracle_llp_vertical_compose(R, w, v)
            assert got == want and got._label == want._label
            composites += 1
    assert composites > 0


def test_universal_right_matches_oracle(structure):
    S, FA = structure
    got = check_factorisation_axiom(S, FA, "right-only", Budget())
    want = oracle_right_only(S, FA, Budget())
    assert got.ok and got.to_dict() == want.to_dict()
    both = check_factorisation_axiom(S, FA, "both", Budget())
    assert both.checks[-1].to_dict() == want.checks[-1].to_dict()
    # a budget cut at every tenth case stops at the same place
    n = want.checks[-1].cases
    for limit in range(1, n, max(1, n // 10)):
        got = check_factorisation_axiom(S, FA, "right-only",
                                        Budget(max_candidates=limit))
        want = oracle_right_only(S, FA, Budget(max_candidates=limit))
        assert got.to_dict() == want.to_dict(), limit


def leg_corruptions(S, FA):
    """FA with one leg replaced by another vertical of that side with the
    same boundary, so the composite may no longer be f."""
    L, R = S.left, S.right
    C = L.base
    for f in C.morphisms:
        g, mid, h = FA[f]
        for side, old in ((L, g), (R, h)):
            u = side.underlying(old)
            for new in side.verticals():
                un = side.underlying(new)
                if new != old and (C.dom[un], C.cod[un]) == (C.dom[u], C.cod[u]):
                    legs = (new, mid, h) if side is L else (g, mid, new)
                    yield FactorisationAssignment({**FA.assignment, f: legs})


def test_universal_right_matches_oracle_on_leg_corruptions(structure):
    """The assignment check rejects most of these, so the law is compared
    on its own: the left-hand law of the dual, written back on C."""
    S, FA = structure
    n = violations = 0
    for bad_fa in leg_corruptions(S, FA):
        n += 1
        found = Cases(Budget())
        _couniversal_left(S.dual(), bad_fa.dual(), found)
        bad, cases = found.bad, found.n
        want = oracle_right_side(S, bad_fa, Budget())
        assert (_dual_witnesses("universal-right", bad), cases) == want
        violations += bool(want[0])
        report = check_factorisation_axiom(S, bad_fa, "right-only")
        assert report.to_dict() == oracle_right_only(S, bad_fa).to_dict()
    assert n > 0 and violations > 0


def test_couniversal_left_matches_oracle_on_leg_corruptions(structure):
    """The left-hand law runs the search that reconstruction shares; it
    must find what a search of its own found, the first two
    factorisations included."""
    S, FA = structure
    n = violations = 0
    for bad_fa in [FA, *leg_corruptions(S, FA)]:
        n += 1
        want = oracle_left_side(S, bad_fa, Budget())
        got = Cases(Budget())
        _couniversal_left(S, bad_fa, got)
        assert (got.bad, got.n) == want
        violations += bool(want[0])
        report = check_factorisation_axiom(S, bad_fa, "left-only", Budget())
        assert report.to_dict() == \
            oracle_left_only(S, bad_fa, Budget()).to_dict()
    assert n > 1 and violations > 0


def test_couniversal_left_names_the_first_two_factorisations(finset2):
    """Every map of FinSet≤2 but the identity of 0 factored through 2,
    against all maps: the square (0>1:, 2>1:00): 0>2: -> 1>1:0 has four
    factorisations, and the witnesses name the first two."""
    C = finset2.category
    D = dbl_from_class(C, C.morphisms)
    S = LiftingStructure(D, TableLifting(D, D, {}), D)
    FA = FactorisationAssignment({f: next(
        (g, m, h) for m in ("2", C.dom[f]) for g in C.hom(C.dom[f], m)
        for h in C.hom(m, C.cod[f]) if C.comp[(h, g)] == f)
        for f in C.morphisms})
    found = factorisations(S, FA, "1>1:0")("0>2:", "0>2:", "0>1:", "2>1:00")
    assert found == ["2>2:00", "2>2:01", "2>2:10", "2>2:11"]
    report = check_factorisation_axiom(S, FA, "left-only", Budget())
    assert report.status == "violation"
    assert report.to_dict() == oracle_left_only(S, FA, Budget()).to_dict()


def test_dual_structure_is_the_same_structure(structure):
    S, FA = structure
    D = S.dual()
    assert D.left is S.right.op() and D.right is S.left.op()
    assert D.dual().op is S.op
    C = S.left.base
    for j in S.left.verticals():
        for k in S.right.verticals():
            for top, bottom in C.squares(S.left.underlying(j),
                                         S.right.underlying(k)):
                assert D.op.fill(k, j, bottom, top) == \
                    S.op.fill(j, k, top, bottom)
    assert FA.dual().dual().assignment == FA.assignment
    assert check_factorisation_assignment(D, FA.dual()).ok


def test_derived_opposite_is_the_original_opposite():
    """A subclass of the opposite view, such as LLP(R) = RLP(R^op)^op,
    is found again as the opposite of its original, so a structure with
    it on one side dualises twice to the same sides."""
    S, _ = epi_mono("finset2")
    R = S.right
    D = LlpDouble(R)
    assert D.op().op() is D and D.original.op() is D
    T = LiftingStructure(D, unique_filler_lifting(D, R), R)
    twice = T.dual().dual()
    assert twice.left is D and twice.right is R and twice.op is T.op


def test_llp_label_is_read_in_the_original_orientation():
    S, _ = epi_mono("finset2")
    for v in LlpDouble(S.right).verticals():
        assert type(v) is LlpVertical
        assert v == LlpVertical(v.f, dict(v.theta))
        for (k, top, bottom), d in v.theta.items():
            assert v.lift(k, bottom, top) == d  # lookups come from C^op
        assert llp_verify(S.right, v).ok


def test_report_record():
    r = Report()
    r.record("a", [])
    r.record("b", [{"x": 1}], cases=3)
    assert [(c.name, c.status, c.cases) for c in r.checks] == [
        ("a", "ok", 0), ("b", "violation", 3)]
