import itertools
import os

import pytest

from conftest import chain
from fwfs import catlib
from fwfs import io as fwfs_io
from fwfs import (Budget, ClosureError, build_roster, canonical_filler,
                  cat_lifting_operation, check_cat_roster, check_category,
                  check_cofree_split_reflection, check_free_split_fibration,
                  check_functor, check_split_fibration, check_split_reflection,
                  comma_category, enumerate_functors, terminal_category,
                  walking_arrow)
from fwfs.catlib import (CommaData, FillerError, SplFibDouble,
                         SplitFibration, SplitReflection, SplRefDouble,
                         cartesian_factor, identity_fibration,
                         identity_reflection)
from fwfs.fincat import (FinCategory, Functor, NatTransformation,
                         build_finset, compose_functors, functor_equal,
                         identity_functor)
from fwfs.lifting import SideMismatch
from fwfs.report import UNBOUNDED, Report

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                    "demos", "data")


@pytest.fixture(scope="module")
def comma_roster(arrow_comma):
    """Roster {W, K = W/id} with the comma structure functors."""
    cd = arrow_comma
    W = cd.f.source
    K = cd.comma
    i, c, d = cd.i_f, cd.c_f, cd.d_f.u
    functors = {"i": i, "c": c, "d": d,
                "ic": compose_functors(i, c, name="ic"),
                "idd": compose_functors(i, d, name="idd")}
    roster = build_roster({"W": W, "K": K}, functors)
    L = SplRefDouble(roster, {"i": cd.reflection})
    R = SplFibDouble(roster, {"d": cd.d_f})
    return roster, L, R, cd


# --- comma categories ---------------------------------------------------------


def test_comma_of_identity_on_walking_arrow(arrow_comma):
    cd = arrow_comma
    # objects are pairs (alpha: b -> a, a): (id0,0), (id1,1), (a,1)
    assert sorted(cd.comma.objects) == ["(a,1)", "(id0,0)", "(id1,1)"]
    assert check_category(cd.comma).ok
    for F in (cd.i_f, cd.c_f, cd.d_f.u):
        assert check_functor(F).ok


def test_comma_factorises_the_functor(arrow_comma):
    cd = arrow_comma
    assert functor_equal(compose_functors(cd.d_f.u, cd.i_f), cd.f)


def test_comma_of_point_selection():
    W = walking_arrow()
    pick0 = Functor(terminal_category(), W, {"*": "0"}, {"id": "id0"},
                    name="pick0")
    cd = comma_category(pick0)
    # the only morphism into 0 is its identity
    assert list(cd.comma.objects) == ["(id0,*)"]
    assert len(cd.comma.morphisms) == 1


def test_comma_of_identity_on_terminal():
    cd = comma_category(identity_functor(terminal_category()))
    assert len(cd.comma.objects) == 1
    assert len(cd.comma.morphisms) == 1


def test_comma_structure_is_reflection_and_fibration(arrow_comma):
    cd = arrow_comma
    assert check_split_reflection(cd.reflection).ok
    assert check_split_fibration(cd.d_f).ok


# --- split reflections and fibrations ------------------------------------------


def test_identity_reflection_ok():
    assert check_split_reflection(identity_reflection(walking_arrow())).ok


def test_identity_fibration_ok():
    assert check_split_fibration(identity_fibration(walking_arrow())).ok


def test_mutated_unit_flagged():
    W = walking_arrow()
    S = identity_reflection(W)
    S.eta.components["0"] = "a"  # no longer the identity transformation
    report = check_split_reflection(S)
    assert not report.ok


def test_mutated_cleavage_flagged():
    W = walking_arrow()
    F = identity_fibration(W)
    theta = dict(F.theta)
    theta[("1", "a")] = "id1"  # chosen lift no longer lies over a
    report = check_split_fibration(SplitFibration(F.u, theta))
    assert not report.ok


def test_spurious_lift_flagged():
    W = walking_arrow()
    F = identity_fibration(W)
    theta = dict(F.theta)
    theta[("0", "a")] = "a"  # a does not end at 0
    assert not check_split_fibration(SplitFibration(F.u, theta)).ok


def test_cartesian_factor_identity_fibration():
    W = walking_arrow()
    F = identity_fibration(W)
    # theta[("1","a")] = a; the factorisation of a through it over id0
    assert cartesian_factor(F, "1", "a", "a", "id0") == "id0"


# --- canonical fillers ----------------------------------------------------------


def test_filler_for_identity_reflection_is_the_top():
    W = walking_arrow()
    S = identity_reflection(W)
    F = identity_fibration(W)
    r = Functor(W, W, {"0": "1", "1": "1"},
                {"id0": "id1", "id1": "id1", "a": "id1"}, name="const1")
    k = canonical_filler(S, F, r, r)
    assert functor_equal(k, r)


def test_filler_for_identity_fibration_is_the_bottom(arrow_comma):
    cd = arrow_comma
    K = cd.comma
    S = cd.reflection
    F = identity_fibration(K)
    # square (i_f, 1_K): i_f -> 1_K
    k = canonical_filler(S, F, cd.i_f, identity_functor(K))
    assert functor_equal(k, identity_functor(K))


def test_canonical_filler_solves_the_comma_square(arrow_comma):
    cd = arrow_comma
    k = canonical_filler(cd.reflection, cd.d_f, cd.i_f, cd.d_f.u)
    # both triangles are asserted inside; the filler is a genuine functor
    assert check_functor(k).ok


# --- rosters --------------------------------------------------------------------


def test_roster_base_is_a_category(comma_roster):
    roster, _, _, _ = comma_roster
    assert check_category(roster.cat).ok
    # identities were auto-registered
    assert roster.cat.identities["W"] == "1_W"
    assert roster.cat.identities["K"] == "1_K"


def test_roster_missing_composite_raises(arrow_comma):
    cd = arrow_comma
    W = cd.f.source
    with pytest.raises(ClosureError) as ei:
        # i then d composes to the identity (registered), but i then c
        # needs ic, and c∘i = 1_W is fine... omit "ic" so c;i from K has
        # no composite target
        build_roster({"W": W, "K": cd.comma},
                     {"i": cd.i_f, "c": cd.c_f, "d": cd.d_f.u})
    assert ei.value.witness in {("i", "c"), ("c", "i")} or ei.value.witness


def test_roster_passes_all_axioms(comma_roster):
    _, L, R, _ = comma_roster
    assert check_cat_roster(L, R, Budget()).ok


def test_cat_operation_fill_is_registered(comma_roster):
    roster, L, R, _ = comma_roster
    op = cat_lifting_operation(L, R)
    k = op.fill("i", "d", "i", "d")
    assert k in roster.functors
    # triangles in the roster base
    assert roster.cat.comp[(k, "i")] == "i"
    assert roster.cat.comp[("d", k)] == "d"


def test_reflection_square_compatibility(comma_roster):
    _, L, _, _ = comma_roster
    # the identity square on i is a reflection square
    assert L.is_square("i", "i", "1_W", "1_K")
    # (1_W, ic) is the unit square, hence also compatible
    assert L.is_square("i", "i", "1_W", "ic")
    # (1_W, idd) commutes in the base but is not unit-compatible
    assert ("1_W", "idd") in L.base.squares("i", "i")
    assert not L.is_square("i", "i", "1_W", "idd")


def test_fibration_square_compatibility(comma_roster):
    _, _, R, _ = comma_roster
    assert R.is_square("d", "d", "1_K", "1_W")


# --- functor enumeration and universal properties --------------------------------


def test_enumerate_functors_counts():
    W = walking_arrow()
    T = terminal_category()
    assert len(enumerate_functors(T, W)) == 2   # the two point selections
    assert len(enumerate_functors(W, W)) == 3   # identity, const0, const1
    assert len(enumerate_functors(W, T)) == 1


def test_enumerate_functors_respects_fixed_parts():
    W = walking_arrow()
    out = enumerate_functors(W, W, fixed_obj={"0": "0", "1": "1"})
    assert len(out) == 1 and functor_equal(out[0], identity_functor(W))


def test_free_fibration_universal(arrow_comma):
    W = walking_arrow()
    report = check_free_split_fibration(
        arrow_comma, [identity_fibration(W, name="1"), arrow_comma.d_f],
        Budget())
    assert report.ok


def test_cofree_reflection_couniversal(arrow_comma):
    W = walking_arrow()
    report = check_cofree_split_reflection(
        arrow_comma, [identity_reflection(W, name="1"),
                      arrow_comma.reflection], Budget())
    assert report.ok


def test_universality_fails_for_wrong_fibration(arrow_comma):
    # a cleavage that chooses non-cartesian lifts breaks unique
    # factorisation through the comma construction
    W = walking_arrow()
    V = identity_fibration(W, name="bad")
    V.theta[("1", "a")] = "id1"
    report = check_free_split_fibration(arrow_comma, [V], Budget())
    assert not report.ok


# --- comma morphism ids and canonical-filler validation ---------------------


def test_comma_of_identity_on_finset2_has_distinct_ids():
    # two morphisms with the same source and components but different
    # targets need different ids
    C = build_finset(2).category
    cd = comma_category(identity_functor(C, name="id"))
    K = cd.comma
    assert len(K.morphisms) == 249
    assert check_category(K).ok
    assert check_split_reflection(cd.reflection).ok
    assert check_split_fibration(cd.d_f).ok


def test_canonical_filler_rejects_a_square_with_wrong_boundary(arrow_comma):
    cd = arrow_comma
    with pytest.raises(FillerError):
        canonical_filler(cd.reflection, cd.d_f, cd.c_f, cd.d_f.u)


def test_canonical_filler_rejects_a_square_that_does_not_commute(arrow_comma):
    cd = arrow_comma
    K, W = cd.comma, cd.f.source
    to_one = Functor(K, W, {o: "1" for o in K.objects},
                     {m: "id1" for m in K.morphisms})
    with pytest.raises(ValueError):
        canonical_filler(cd.reflection, cd.d_f, cd.i_f, to_one)


def test_rosters_of_a_lifting_operation_must_agree(comma_roster, arrow_comma):
    roster, L, _, cd = comma_roster
    other = build_roster({"W": cd.f.source, "K": cd.comma},
                         {"d": cd.d_f.u})
    with pytest.raises(SideMismatch):
        cat_lifting_operation(L, SplFibDouble(other, {"d": cd.d_f}))


# --- oracles: the comma category, the universality loops and the roster
# --- closure written out by hand, as they were before B/f came from
# --- fincat.square_category, and functor enumeration as the product of
# --- all assignments filtered by the functor laws


def oracle_enumerate_functors(S, T, fixed_obj=None, fixed_mor=None):
    fixed_obj = fixed_obj or {}
    fixed_mor = fixed_mor or {}
    out = []
    free_objs = [o for o in S.objects if o not in fixed_obj]
    for combo in itertools.product(T.objects, repeat=len(free_objs)):
        obj_map = dict(fixed_obj)
        obj_map.update(zip(free_objs, combo))
        mor_choices = []
        ok = True
        free_mors = []
        mor_map = {}
        for m in S.morphisms:
            want = (obj_map[S.dom[m]], obj_map[S.cod[m]])
            if m in fixed_mor:
                fm = fixed_mor[m]
                if (T.dom.get(fm), T.cod.get(fm)) != want:
                    ok = False
                    break
                mor_map[m] = fm
            else:
                cands = T.hom(*want)
                if not cands:
                    ok = False
                    break
                free_mors.append(m)
                mor_choices.append(cands)
        if not ok:
            continue
        for mcombo in itertools.product(*mor_choices):
            full = dict(mor_map)
            full.update(zip(free_mors, mcombo))
            F = Functor(S, T, obj_map, full)
            if any(full[S.identities[o]] != T.identities[obj_map[o]]
                   for o in S.objects):
                continue
            if any(T.comp[(full[g], full[f])] != full[gf]
                   for (g, f), gf in S.comp.items()):
                continue
            out.append(F)
    return out


def oracle_comma_category(f):
    A, B = f.source, f.target

    def obj_id(alpha, a):
        return f"({alpha},{a})"

    def mor_id(beta, m, src, dst):
        return f"({beta},{m}):{src}->{dst}"

    objects = []
    obj_data = {}
    for a in A.objects:
        fa = f.obj_map[a]
        for alpha in B.morphisms:
            if B.cod[alpha] == fa:
                oid = obj_id(alpha, a)
                objects.append(oid)
                obj_data[oid] = (alpha, a)
    morphisms = []
    mor_data = {}
    identities = {}
    for src in objects:
        alpha, a = obj_data[src]
        for dst in objects:
            alpha2, a2 = obj_data[dst]
            for m in A.hom(a, a2):
                fm_alpha = B.comp[(f.mor_map[m], alpha)]
                for beta in B.hom(B.dom[alpha], B.dom[alpha2]):
                    if B.comp[(alpha2, beta)] == fm_alpha:
                        mid = mor_id(beta, m, src, dst)
                        morphisms.append((mid, src, dst))
                        mor_data[mid] = (beta, m, src, dst)
        identities[src] = mor_id(B.identities[B.dom[alpha]],
                                 A.identities[a], src, src)
    comp = {}
    by_dom = {}
    for mid, d, _ in morphisms:
        by_dom.setdefault(d, []).append(mid)
    for mid, d, c in morphisms:
        beta1, m1, src1, _ = mor_data[mid]
        for nid in by_dom.get(c, ()):
            beta2, m2, _, dst2 = mor_data[nid]
            comp[(nid, mid)] = mor_id(B.comp[(beta2, beta1)],
                                      A.comp[(m2, m1)], src1, dst2)
    comma = FinCategory(objects, morphisms, identities, comp,
                        name=f"{B.name or 'B'}/{f.name or 'f'}")
    i_obj = {a: obj_id(B.identities[f.obj_map[a]], a) for a in A.objects}
    i_mor = {m: mor_id(f.mor_map[m], m, i_obj[A.dom[m]], i_obj[A.cod[m]])
             for m in A.morphisms}
    i_f = Functor(A, comma, i_obj, i_mor, name="i_f")
    c_f = Functor(comma, A, {o: obj_data[o][1] for o in objects},
                  {mid: mor_data[mid][1] for mid in mor_data}, name="c_f")
    d_u = Functor(comma, B, {o: B.dom[obj_data[o][0]] for o in objects},
                  {mid: mor_data[mid][0] for mid in mor_data}, name="d_f")
    theta = {}
    for o in objects:
        alpha, a = obj_data[o]
        for g in B.morphisms:
            if B.cod[g] == B.dom[alpha]:
                src = obj_id(B.comp[(alpha, g)], a)
                theta[(o, g)] = mor_id(g, A.identities[a], src, o)
    d_f = SplitFibration(d_u, theta, name="d_f")
    eta = NatTransformation(
        identity_functor(comma), compose_functors(i_f, c_f),
        {o: mor_id(obj_data[o][0], A.identities[obj_data[o][1]], o,
                   i_obj[obj_data[o][1]])
         for o in objects},
        name="eta")
    reflection = SplitReflection(i_f, c_f, eta, name="c_f -| i_f")
    return CommaData(comma, i_f, c_f, d_f, eta, reflection, f)


def oracle_free(cd, tests):
    report = Report()
    f = cd.f
    A, B = f.source, f.target

    def body():
        bad, n = [], 0
        for V in tests:
            X, Y = V.u.source, V.u.target
            for s in oracle_enumerate_functors(B, Y):
                s_f = compose_functors(s, f)
                for r in oracle_enumerate_functors(A, X):
                    if not functor_equal(compose_functors(V.u, r), s_f):
                        continue
                    n += 1
                    sd = compose_functors(s, cd.d_f.u)
                    found = []
                    fo = {cd.i_f.obj_map[a]: r.obj_map[a] for a in A.objects}
                    fm = {cd.i_f.mor_map[m]: r.mor_map[m] for m in A.morphisms}
                    for r2 in oracle_enumerate_functors(cd.comma, X, fo, fm):
                        if not functor_equal(compose_functors(V.u, r2), sd):
                            continue
                        if not all(r2.mor_map[cd.d_f.theta[(o, g)]]
                                   == V.theta[(r2.obj_map[o], sd.mor_map[
                                       cd.d_f.theta[(o, g)]])]
                                   for (o, g) in cd.d_f.theta):
                            continue
                        found.append(r2)
                    if len(found) != 1:
                        bad.append({"fibration": V.name,
                                    "square": [r.name or "r", s.name or "s"],
                                    "factorisations": len(found)})
        report.record("free-fibration-universality", bad, cases=n)

    with report.bounded("free-fibration-universality", UNBOUNDED):
        body()
    return report


def oracle_cofree(cd, tests):
    report = Report()
    f = cd.f
    A, B = f.source, f.target

    def body():
        bad, n = [], 0
        for S in tests:
            P, Q = S.u.source, S.u.target
            for a in oracle_enumerate_functors(P, A):
                fa = compose_functors(f, a)
                for b in oracle_enumerate_functors(Q, B):
                    if not functor_equal(compose_functors(b, S.u), fa):
                        continue
                    n += 1
                    ia = compose_functors(cd.i_f, a)
                    al = compose_functors(a, S.left_adjoint)
                    fo = {S.u.obj_map[p]: ia.obj_map[p] for p in P.objects}
                    fm = {S.u.mor_map[m]: ia.mor_map[m] for m in P.morphisms}
                    found = []
                    for b2 in oracle_enumerate_functors(Q, cd.comma, fo, fm):
                        if not functor_equal(
                                compose_functors(cd.d_f.u, b2), b):
                            continue
                        if not functor_equal(
                                compose_functors(cd.c_f, b2), al):
                            continue
                        if not all(b2.mor_map[S.eta.components[q]]
                                   == cd.eta.components[b2.obj_map[q]]
                                   for q in Q.objects):
                            continue
                        found.append(b2)
                    if len(found) != 1:
                        bad.append({"reflection": S.name,
                                    "square": [a.name or "a", b.name or "b"],
                                    "factorisations": len(found)})
        report.record("cofree-reflection-couniversality", bad, cases=n)

    with report.bounded("cofree-reflection-couniversality", UNBOUNDED):
        body()
    return report


def oracle_roster_composites(functors, morphisms):
    """The composition table of a roster base, each composite found by
    scanning the morphisms for an equal functor."""
    comp = {}
    doms = {m: (s, t) for m, s, t in morphisms}
    for fn, (fs, ft) in doms.items():
        for gn, (gs, gt) in doms.items():
            if ft != gs:
                continue
            gf = compose_functors(functors[gn], functors[fn])
            for hn, (hs, ht) in doms.items():
                if hs == fs and ht == gt and functor_equal(functors[hn], gf):
                    comp[(gn, fn)] = hn
                    break
    return comp


def pick0():
    return Functor(terminal_category(), walking_arrow(), {"*": "0"},
                   {"id": "id0"}, name="pick0")


COMMA_FUNCTORS = {
    "id(2)": lambda: identity_functor(walking_arrow(), name="idW"),
    "id(1)": lambda: identity_functor(terminal_category(), name="id1"),
    "pick0": pick0,
    "id(FinSet<=2)": lambda: identity_functor(build_finset(2).category,
                                              name="id"),
    "2->1": lambda: Functor(walking_arrow(), terminal_category(),
                            {"0": "*", "1": "*"},
                            {"id0": "id", "id1": "id", "a": "id"}, name="!"),
}


def same_tables(K, L):
    assert (K.name, K.objects, K.morphisms) == (L.name, L.objects,
                                                L.morphisms)
    for table in ("dom", "cod", "identities", "comp"):
        assert list(getattr(K, table).items()) == \
            list(getattr(L, table).items()), table


def same_functor(F, G):
    assert F.name == G.name
    assert list(F.obj_map.items()) == list(G.obj_map.items())
    assert list(F.mor_map.items()) == list(G.mor_map.items())


@pytest.mark.parametrize("functor", COMMA_FUNCTORS)
def test_comma_category_matches_its_oracle(functor):
    f = COMMA_FUNCTORS[functor]()
    got, want = comma_category(f), oracle_comma_category(f)
    same_tables(got.comma, want.comma)
    for F, G in ((got.i_f, want.i_f), (got.c_f, want.c_f),
                 (got.d_f.u, want.d_f.u), (got.reflection.left_adjoint,
                                           want.reflection.left_adjoint)):
        same_functor(F, G)
    assert list(got.d_f.theta.items()) == list(want.d_f.theta.items())
    assert got.eta.name == want.eta.name
    assert list(got.eta.components.items()) == \
        list(want.eta.components.items())
    assert got.reflection.name == want.reflection.name


UNIVERSALITY_INSTANCES = {
    "arrow": lambda: identity_functor(walking_arrow(), name="idW"),
    "[2]": lambda: identity_functor(chain(2), name="id2"),
    "pick0": pick0,
}


def same_report(check, oracle, *args):
    """The check's report equals its oracle's in everything but
    ``budget_used``: the oracle enumerates functors by brute force and
    spends no budget, the check reports what its own budget spent."""
    got_budget = Budget()
    got = check(*args, got_budget)
    want = oracle(*args)

    def verdict(report):
        return {k: v for k, v in report.to_dict().items()
                if k != "budget_used"}
    assert verdict(got) == verdict(want)
    assert got.budget_used == got_budget.used
    return got


@pytest.mark.parametrize("instance", UNIVERSALITY_INSTANCES)
def test_universality_checks_match_their_oracles(instance):
    f = UNIVERSALITY_INSTANCES[instance]()
    cd = comma_category(f)
    fibs = [identity_fibration(f.target, name="1"), cd.d_f]
    assert same_report(check_free_split_fibration, oracle_free, cd, fibs).ok
    refls = [identity_reflection(f.source, name="1"), cd.reflection]
    assert same_report(check_cofree_split_reflection, oracle_cofree, cd,
                       refls).ok


def test_free_check_matches_its_oracle_on_every_changed_lift(arrow_comma):
    """Each chosen lift of d_f replaced by another comma morphism into
    the same object (no two comma morphisms are parallel here), and the
    result used as the test fibration."""
    cd = arrow_comma
    K = cd.comma
    verdicts = []
    for key, lift in cd.d_f.theta.items():
        for other in K.morphisms:
            if K.cod[other] == K.cod[lift] and other != lift:
                V = SplitFibration(cd.d_f.u, {**cd.d_f.theta, key: other},
                                   name="V")
                verdicts.append(same_report(check_free_split_fibration,
                                            oracle_free, cd, [V]).status)
    assert verdicts == ["violation"] * 5


def tables(functors):
    return [(list(F.obj_map.items()), list(F.mor_map.items()))
            for F in functors]


def constants_monoid():
    """The identity and the two constant maps of a 2-set: c∘x = c, so
    g∘f = g with f no identity."""
    ms = ["1", "c0", "c1"]
    return FinCategory(["*"], [(m, "*", "*") for m in ms], {"*": "1"},
                       {(g, f): f if g == "1" else g for g in ms for f in ms},
                       name="M")


def enumeration_categories():
    comma = {"W/idW": identity_functor(walking_arrow(), name="idW"),
             "[2]/id2": identity_functor(chain(2), name="id2"),
             "W/pick0": pick0()}
    return {"1": terminal_category(), "2": walking_arrow(), "[2]": chain(2),
            **{n: comma_category(f).comma for n, f in comma.items()},
            "M": constants_monoid()}


# [2]/id2 (20 morphisms) into FinSet<=2 or M is left out: the oracle's
# product of hom-set choices there (3^20 into M) does not finish in minutes
ENUMERATION_PAIRS = [(s, t) for s in enumeration_categories()
                     for t in [*enumeration_categories(), "FinSet<=2"]
                     if (s, t) not in (("[2]/id2", "FinSet<=2"),
                                       ("[2]/id2", "M"))]


@pytest.mark.parametrize("source,target", ENUMERATION_PAIRS)
def test_enumeration_matches_its_oracle(source, target):
    cats = {**enumeration_categories(),
            "FinSet<=2": build_finset(2).category}
    S, T = cats[source], cats[target]
    assert tables(enumerate_functors(S, T)) == \
        tables(oracle_enumerate_functors(S, T))


def test_enumeration_matches_its_oracle_on_every_fixed_part_of_M():
    """Every partial assignment of M's morphisms, lawful or not: a fixed
    identity that is no identity, or fixed values that break a
    composition equation, leave no functor."""
    M = constants_monoid()
    for values in itertools.product([None, *M.morphisms],
                                    repeat=len(M.morphisms)):
        fm = {m: v for m, v in zip(M.morphisms, values) if v is not None}
        for fo in ({}, {"*": "*"}):
            assert tables(enumerate_functors(M, M, fo, fm)) == \
                tables(oracle_enumerate_functors(M, M, fo, fm))


def test_enumeration_under_constraints_matches_the_filtered_oracle():
    """Functors W → [2] with one fixed object or morphism and P∘F = G for
    P: [2] → FinSet<=2, fixed parts that contradict the constraint
    included: the oracle's list filtered by the constraint."""
    S, T = walking_arrow(), chain(2)
    functors = oracle_enumerate_functors(S, T)
    for P in oracle_enumerate_functors(T, build_finset(2).category):
        for F0 in functors:
            G = compose_functors(P, F0)
            for F1 in functors:
                for fixed in (({"0": F1.obj_map["0"]}, None),
                              (None, {"a": F1.mor_map["a"]})):
                    want = [F for F in oracle_enumerate_functors(S, T, *fixed)
                            if functor_equal(compose_functors(P, F), G)]
                    assert tables(enumerate_functors(
                        S, T, *fixed, over=[(P, G)])) == tables(want)


def test_enumeration_matches_its_oracle_on_the_universality_calls(
        monkeypatch):
    """Every partial assignment that the free and cofree checks extend,
    alone and with the constraints P∘F = G they pass as ``over``."""
    calls = []
    enumerate_ = catlib.enumerate_functors

    def spy(S, T, fixed_obj=None, fixed_mor=None, budget=UNBOUNDED,
            over=()):
        calls.append((S, T, fixed_obj, fixed_mor, over))
        return enumerate_(S, T, fixed_obj, fixed_mor, budget, over)
    monkeypatch.setattr(catlib, "enumerate_functors", spy)
    for make in UNIVERSALITY_INSTANCES.values():
        f = make()
        cd = comma_category(f)
        check_free_split_fibration(
            cd, [identity_fibration(f.target, name="1"), cd.d_f])
        check_cofree_split_reflection(
            cd, [identity_reflection(f.source, name="1"), cd.reflection])
    monkeypatch.undo()
    assert any(fo for _, _, fo, _, _ in calls)
    assert any(over for *_, over in calls)
    for S, T, fo, fm, over in calls:
        want = oracle_enumerate_functors(S, T, fo, fm)
        assert tables(enumerate_functors(S, T, fo, fm)) == tables(want)
        assert tables(enumerate_functors(S, T, fo, fm, over=over)) == \
            tables(F for F in want
                   if all(functor_equal(compose_functors(P, F), G)
                          for P, G in over))


def test_roster_base_matches_its_oracle(monkeypatch):
    built = []
    build = fwfs_io.build_roster

    def spy(categories, functors, composites):
        built.append((functors, composites))
        return build(categories, functors, composites)
    monkeypatch.setattr(fwfs_io, "build_roster", spy)
    L, _ = fwfs_io.load_roster(os.path.join(DATA, "comma_roster.json"))
    [(functors, composites)] = built
    base = L.roster.cat
    assert list(L.roster.functors)[:len(functors)] == list(functors)
    assert not composites
    morphisms = [(m, base.dom[m], base.cod[m]) for m in L.roster.functors]
    assert list(base.identities.items()) == [("K", "1_K"), ("W", "1_W")]
    assert list(base.comp.items()) == list(oracle_roster_composites(
        L.roster.functors, morphisms).items())
