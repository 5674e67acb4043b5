import pytest

from fwfs import (ClosureError, arrow_category, build_finset,
                  check_double_category, dbl_from_class, sq,
                  terminal_category, to_internal, walking_arrow)
from fwfs.dblcat import (ConcreteDouble, ConcreteDoubleMap,
                         check_concrete_double_map, identity_double_map)
from fwfs.fincat import FinCategory


def test_sq_of_terminal_is_trivial():
    D = to_internal(sq(terminal_category()))
    assert len(D.cat0.objects) == 1 and len(D.cat0.morphisms) == 1
    assert len(D.cat1.objects) == 1 and len(D.cat1.morphisms) == 1
    assert check_double_category(D).ok


def test_sq_of_walking_arrow():
    W = walking_arrow()
    S = sq(W)
    assert len(S.verticals()) == 3
    # squares agree with the brute-force commuting-square enumeration
    for f in W.morphisms:
        for g in W.morphisms:
            assert S.squares(f, g) == list(W.squares(f, g))
    assert check_double_category(S).ok


def test_interchange_holds_in_sq_finset1():
    assert check_double_category(sq(build_finset(1).category)).ok


def test_dbl_from_class_epis_closed(finset2):
    D = dbl_from_class(finset2.category, finset2.epis)
    assert check_double_category(D).ok


def test_dbl_from_class_monos_closed(finset2):
    D = dbl_from_class(finset2.category, finset2.monos)
    assert check_double_category(D).ok


def test_identities_only_class(finset2):
    C = finset2.category
    D = dbl_from_class(C, C.identities.values())
    assert set(D.verticals()) == set(C.identities.values())
    assert check_double_category(D).ok


def test_missing_identity_raises():
    C = walking_arrow()
    with pytest.raises(ClosureError) as ei:
        dbl_from_class(C, ["a", "id0"])
    assert "identity" in str(ei.value)


def test_unclosed_class_names_witness():
    # monoid where a∘a = b and b is excluded from the class
    morphisms = [("e", "*", "*"), ("a", "*", "*"), ("b", "*", "*")]
    table = {("e", "e"): "e", ("e", "a"): "a", ("e", "b"): "b",
             ("a", "e"): "a", ("a", "a"): "b", ("a", "b"): "e",
             ("b", "e"): "b", ("b", "a"): "e", ("b", "b"): "a"}
    C = FinCategory(["*"], morphisms, {"*": "e"}, table)
    with pytest.raises(ClosureError) as ei:
        dbl_from_class(C, ["e", "a"])
    assert ei.value.witness == ("a", "a")


def test_vertical_composition_agrees_with_base(finset2):
    C = finset2.category
    D = dbl_from_class(C, finset2.epis)
    for v in D.verticals():
        for w in D.verticals():
            if D.composable(w, v):
                assert D.compose(w, v) == C.comp[(w, v)]


def test_right_connected_squares_exist_in_sq(finset2):
    C = finset2.category
    S = sq(C)
    for f in C.morphisms:
        one = C.identities[C.cod[f]]
        assert (f, one) in C.squares(f, one)


def test_corrupted_square_composite_flagged():
    W = walking_arrow()
    D = to_internal(sq(W))
    # corrupt one vertical composite entry
    key = next(k for k in D.m_vert if not W.is_identity(k[0]))
    D.m_vert[key] = key[1]  # wrong: w∘v := v
    report = check_double_category(D)
    assert not report.ok
    names = {c.name for c in report.violations()}
    assert names & {"m-totality", "m-units", "m-associativity", "interchange"}


def test_double_functor_identity_ok(finset2):
    D = dbl_from_class(finset2.category, finset2.epis)
    assert check_concrete_double_map(identity_double_map(D)).ok


def test_inclusion_into_sq_ok(finset2):
    D = dbl_from_class(finset2.category, finset2.epis)
    F = ConcreteDoubleMap(D, sq(finset2.category), {v: v for v in D.verticals()})
    assert check_concrete_double_map(F).ok


def violated(report):
    return {c.name: c.witnesses for c in report.violations()}


def test_broken_i_preservation_flagged():
    S = sq(walking_arrow())
    F = identity_double_map(S)
    # send the identity vertical on 0 somewhere else
    F.vertical_map["id0"] = "id1"
    assert violated(check_concrete_double_map(F)) == {
        "verticals": [{"kind": "over-base", "vertical": "id0"}]}


def test_unmapped_and_foreign_verticals_flagged(finset2):
    C = finset2.category
    epis = dbl_from_class(C, finset2.epis)
    monos = dbl_from_class(C, finset2.monos)
    F = ConcreteDoubleMap(epis, monos, {v: v for v in epis.verticals()})
    dropped = epis.verticals()[0]
    [foreign] = [v for v in epis.verticals() if v not in finset2.monos]
    del F.vertical_map[dropped]
    assert violated(check_concrete_double_map(F)) == {"verticals": [
        {"kind": "unmapped", "vertical": dropped},
        {"kind": "not-a-vertical", "vertical": foreign}]}


class TwoOverOne(ConcreteDouble):
    """Z/2 over the terminal category: two verticals over its one
    morphism, composed by addition, with every square."""

    def __init__(self):
        super().__init__(terminal_category(), name="Z/2")

    def verticals(self):
        return [0, 1]

    def has_vertical(self, v):
        return v in (0, 1)

    def underlying(self, v):
        return "id"

    def label(self, v):
        return str(v)

    def identity_vertical(self, obj):
        return 0

    def compose(self, w, v):
        return (w + v) % 2

    def is_square(self, v, w, top, bottom):
        return True


def test_identity_vertical_not_preserved_flagged():
    F = ConcreteDoubleMap(sq(terminal_category()), TwoOverOne(), {"id": 1})
    assert violated(check_concrete_double_map(F)) == {
        "identity-verticals": [{"object": "*"}],
        "vertical-composition": [{"w": "id", "v": "id"}]}
    assert check_concrete_double_map(
        ConcreteDoubleMap(sq(terminal_category()), TwoOverOne(),
                          {"id": 0})).ok


@pytest.mark.parametrize("C", [terminal_category(), walking_arrow(),
                               build_finset(2).category])
def test_square_category_is_the_arrow_category(C):
    """cat1, d and c of Sq(C) are C^2 and its projections, in the same
    order."""
    A, D = arrow_category(C), to_internal(sq(C))
    assert A.category.objects == D.cat1.objects
    assert A.category.morphisms == D.cat1.morphisms
    for table in ("dom", "cod", "identities", "comp"):
        assert list(getattr(A.category, table).items()) == \
            list(getattr(D.cat1, table).items()), table
    for F, G in ((A.dom_proj, D.d), (A.cod_proj, D.c)):
        assert list(F.obj_map.items()) == list(G.obj_map.items())
        assert list(F.mor_map.items()) == list(G.mor_map.items())


def test_concrete_map_checker(finset2):
    D = dbl_from_class(finset2.category, finset2.epis)
    assert check_concrete_double_map(identity_double_map(D)).ok
    S = sq(finset2.category)
    incl = ConcreteDoubleMap(D, S, {v: v for v in D.verticals()})
    assert check_concrete_double_map(incl).ok
    # map over the wrong base morphism is flagged
    bad_map = {v: v for v in D.verticals()}
    e = next(v for v in D.verticals()
             if not finset2.category.is_identity(v))
    bad_map[e] = finset2.category.identities[finset2.category.dom[e]]
    report = check_concrete_double_map(ConcreteDoubleMap(D, S, bad_map))
    assert not report.ok
