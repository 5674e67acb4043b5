import pytest

from fwfs import (Adjunction, FinCategory, NatTransformation, arrow_category,
                  build_finset, check_adjunction, check_category,
                  check_functor, terminal_category, walking_arrow)
from fwfs.fincat import (Functor, OppositeCategory, compose_functors,
                         finset_id, finset_image_factorisation,
                         finset_values, identity_functor)
from test_duality import broken_walking_arrow, delta_plus, nonassociative_base


def three_element_monoid():
    """A commutative monoid {e, a, b} with a*a = b, a*b = b*b = e, viewed
    as a one-object category."""
    morphisms = [("e", "*", "*"), ("a", "*", "*"), ("b", "*", "*")]
    table = {("e", "e"): "e", ("e", "a"): "a", ("e", "b"): "b",
             ("a", "e"): "a", ("a", "a"): "b", ("a", "b"): "e",
             ("b", "e"): "b", ("b", "a"): "e", ("b", "b"): "a"}
    return FinCategory(["*"], morphisms, {"*": "e"}, table)


def test_terminal_category_ok():
    assert check_category(terminal_category()).ok


def test_walking_arrow_ok():
    assert check_category(walking_arrow()).ok


def test_monoid_table_ok():
    # Z/3 under addition: associative by arithmetic
    assert check_category(three_element_monoid()).ok


def test_corrupted_associativity_reported():
    C = three_element_monoid()
    bad = dict(C.comp)
    bad[("a", "a")] = "a"  # was b; breaks (a*a)*a = a*(a*a)
    broken = FinCategory(C.objects, [(m, "*", "*") for m in C.morphisms],
                         C.identities, bad)
    report = check_category(broken)
    assert not report.ok
    names = {c.name for c in report.violations()}
    assert "associativity" in names
    wit = [c for c in report.violations() if c.name == "associativity"][0]
    assert wit.witnesses  # names the offending triple


def test_missing_composite_is_distinct_violation():
    C = walking_arrow()
    comp = dict(C.comp)
    del comp[("id1", "a")]
    broken = FinCategory(C.objects, [(m, C.dom[m], C.cod[m])
                                     for m in C.morphisms],
                         C.identities, comp)
    report = check_category(broken)
    assert [c.name for c in report.violations()] == ["composition-totality"]


def test_composition_on_non_composable_pair_rejected():
    C = walking_arrow()
    comp = dict(C.comp)
    comp[("a", "a")] = "a"  # a: 0->1 does not compose with itself
    broken = FinCategory(C.objects, [(m, C.dom[m], C.cod[m])
                                     for m in C.morphisms],
                         C.identities, comp)
    report = check_category(broken)
    assert any(w["kind"] == "non-composable-pair"
               for c in report.violations() for w in c.witnesses)


def test_squares_cache_matches_definition():
    C = walking_arrow()
    assert C.squares("a", "a") == (("id0", "id1"),)
    assert C.squares("id0", "a") == (("id0", "a"),)
    assert C.squares("a", "id0") == ()


# --- finite sets ------------------------------------------------------------


def test_finset_sizes():
    fs = build_finset(2)
    # sum of k^m over 0 <= m,k <= 2, minus maps into the empty set
    assert len(fs.category.morphisms) == 11
    assert check_category(fs.category).ok
    fs3 = build_finset(3)
    assert len(fs3.category.morphisms) == 60
    assert len(fs3.epis) == 18
    assert len(fs3.monos) == 24


def test_finset_budget_guard():
    with pytest.raises(ValueError):
        build_finset(5)


def test_finset_bijections():
    fs = build_finset(2)
    bijections = fs.epis & fs.monos
    identities = set(fs.category.identities.values())
    swap = finset_id(2, 2, (1, 0))
    assert bijections == identities | {swap}


def test_finset_composition_is_function_composition():
    fs = build_finset(2)
    f = finset_id(2, 2, (1, 0))
    g = finset_id(2, 1, (0, 0))
    assert fs.category.comp[(g, f)] == g
    assert finset_values(fs.category.comp[(f, f)])[2] == (0, 1)


def test_image_factorisation():
    e, mid, m = finset_image_factorisation(finset_id(2, 2, (1, 1)))
    assert mid == "1"
    fs = build_finset(2)
    assert e in fs.epis and m in fs.monos
    assert fs.category.comp[(m, e)] == finset_id(2, 2, (1, 1))
    # bijections factor as (bijection, identity)
    swap = finset_id(2, 2, (1, 0))
    e, mid, m = finset_image_factorisation(swap)
    assert (e, mid, m) == (swap, "2", finset_id(2, 2, (0, 1)))


# --- arrow category ---------------------------------------------------------


def test_arrow_category_of_terminal_is_terminal():
    ac = arrow_category(terminal_category())
    assert len(ac.category.objects) == 1
    assert len(ac.category.morphisms) == 1
    assert check_category(ac.category).ok


def test_arrow_category_of_walking_arrow():
    C = walking_arrow()
    ac = arrow_category(C)
    assert set(ac.category.objects) == {"id0", "id1", "a"}
    # morphisms = all commuting squares, found by brute force
    expected = sum(len(C.squares(f, g))
                   for f in C.morphisms for g in C.morphisms)
    assert len(ac.category.morphisms) == expected
    assert check_category(ac.category).ok
    assert check_functor(ac.dom_proj).ok
    assert check_functor(ac.cod_proj).ok


def test_arrow_category_projections_recover_boundaries():
    C = build_finset(1).category
    ac = arrow_category(C)
    for sq_id in ac.category.morphisms:
        f = ac.category.dom[sq_id]
        assert ac.dom_proj.obj_map[f] == C.dom[f]
        assert ac.cod_proj.obj_map[f] == C.cod[f]


# --- functors, naturality, adjunctions --------------------------------------


def test_functor_checker_catches_broken_composition():
    C = three_element_monoid()
    F = Functor(C, C, {"*": "*"}, {"e": "e", "a": "a", "b": "a"})
    report = check_functor(F)  # F(a∘a) = F(b) = a but F(a)∘F(a) = b
    assert not report.ok
    assert any(c.name == "composition" for c in report.violations())


def test_identity_adjunction_ok():
    C = walking_arrow()
    one = identity_functor(C)
    eta = NatTransformation(one, one,
                            {o: C.identities[o] for o in C.objects})
    eps = NatTransformation(one, one,
                            {o: C.identities[o] for o in C.objects})
    assert check_adjunction(Adjunction(one, one, eta, eps)).ok


def test_broken_unit_naturality_reported():
    C = walking_arrow()
    one = identity_functor(C)
    eta = NatTransformation(one, one, {"0": "a", "1": "id1"})
    eps = NatTransformation(one, one,
                            {o: C.identities[o] for o in C.objects})
    report = check_adjunction(Adjunction(one, one, eta, eps))
    assert not report.ok


def test_compose_functors_tables():
    C = walking_arrow()
    const1 = Functor(C, C, {"0": "1", "1": "1"},
                     {"id0": "id1", "id1": "id1", "a": "id1"})
    assert check_functor(const1).ok
    cc = compose_functors(const1, const1)
    assert cc.obj_map == const1.obj_map and cc.mor_map == const1.mor_map


@pytest.mark.parametrize("make", [
    walking_arrow,
    lambda: build_finset(2).category,
    lambda: build_finset(2).category.op(),
    lambda: delta_plus(2)[0],
    nonassociative_base,
    broken_walking_arrow,
], ids=["walking-arrow", "finset2", "finset2-op", "delta2", "nonassociative",
        "broken-walking-arrow"])
def test_squares_and_commutes_match_the_definition(make):
    """squares(f, g) is the hom × hom filter, in its order, and
    commutes(f, g, t, b) is membership in it, for every quadruple: the
    edges' ends are part of the test, not only the two composites.  The
    opposite view keeps C's order, in which its bottoms are outer."""
    C = make()
    ms = C.morphisms
    for f in ms:
        for g in ms:
            tops = C.hom(C.dom[f], C.dom[g])
            bottoms = C.hom(C.cod[f], C.cod[g])
            pairs = ([(t, b) for b in bottoms for t in tops]
                     if isinstance(C, OppositeCategory)
                     else [(t, b) for t in tops for b in bottoms])
            want = [(t, b) for t, b in pairs
                    if C.comp[(g, t)] == C.comp[(b, f)]]
            assert list(C.squares(f, g)) == want
            for t in ms:
                for b in ms:
                    assert C.commutes(f, g, t, b) == ((t, b) in want), \
                        (f, g, t, b)
