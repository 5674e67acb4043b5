import pytest

from fwfs import (Budget, ClosureError, build_roster, canonical_filler,
                  cat_lifting_operation, check_cat_roster, check_category,
                  check_cofree_split_reflection, check_free_split_fibration,
                  check_functor, check_split_fibration, check_split_reflection,
                  comma_category, enumerate_functors, terminal_category,
                  walking_arrow)
from fwfs.catlib import (FillerError, SplFibDouble, SplitFibration,
                         SplRefDouble, cartesian_factor, identity_fibration,
                         identity_reflection)
from fwfs.fincat import (Functor, build_finset, compose_functors,
                         functor_equal, identity_functor)
from fwfs.lifting import SideMismatch


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
