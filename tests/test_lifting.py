import os
import subprocess
import sys

import pytest

from fwfs import (Budget, FactorisationAssignment, LiftingStructure,
                  LlpDouble, NotOrthogonal, RlpDouble, RlpVertical,
                  build_finset, canonical_left,
                  check_factorisation_axiom, check_lifting_operation,
                  check_pre_awfs, check_structure_morphism, dbl_from_class,
                  enumerate_fillers, llp_verify, restrict,
                  rlp_verify, rlp_vertical_compose,
                  terminal_category, transpose_l, transpose_r,
                  unique_filler_lifting, walking_arrow)
from fwfs.dblcat import ClassDouble, ConcreteDoubleMap, identity_double_map
from fwfs.fincat import finset_id
from fwfs.lifting import (SideMismatch, TableLifting,
                          canonical_morphism_from, identity_rlp_vertical)


def identities_double(C, name="ids"):
    return dbl_from_class(C, C.identities.values(), name=name)


# --- enumerate_fillers ------------------------------------------------------


def test_fillers_forced_by_identity_left():
    C = walking_arrow()
    # left = id0, square (top=a, bottom=a): the filler is the top composite
    assert enumerate_fillers(C, "id0", "id1", "a", "a") == ["a"]


def test_unique_filler_epi_mono(finset2):
    C = finset2.category
    e = finset_id(2, 1, (0, 0))
    m = finset_id(1, 2, (1,))
    for top, bottom in C.squares(e, m):
        assert len(enumerate_fillers(C, e, m, top, bottom)) == 1


def test_fillers_identity_square_terminal():
    C = terminal_category()
    assert enumerate_fillers(C, "id", "id", "id", "id") == ["id"]


# --- unique-filler operations ----------------------------------------------


def test_epi_mono_orthogonal_finset3():
    fs = build_finset(3)
    left = dbl_from_class(fs.category, fs.epis)
    right = dbl_from_class(fs.category, fs.monos)
    unique_filler_lifting(left, right)  # must not raise


def test_mono_epi_not_orthogonal(finset2):
    left = dbl_from_class(finset2.category, finset2.monos)
    right = dbl_from_class(finset2.category, finset2.epis)
    with pytest.raises(NotOrthogonal) as ei:
        unique_filler_lifting(left, right)
    # the first lifting problem, in label order, without a unique filler
    assert ei.value.witness == ('0>1:', '2>1:00', '0>2:', '1>1:0')


def test_identities_against_everything(finset2):
    C = finset2.category
    left = identities_double(C)
    right = dbl_from_class(C, C.morphisms)
    op = unique_filler_lifting(left, right)
    assert check_lifting_operation(op).ok


def test_epi_mono_operation_passes_all_axioms(epi_mono2):
    S, _ = epi_mono2
    assert check_lifting_operation(S.op).ok


def test_corrupted_filler_flagged(epi_mono2):
    S, _ = epi_mono2
    C = S.left.base
    entries = S.op.table()
    # replace one entry with a different parallel morphism
    for key, d in sorted(entries.items()):
        alts = [x for x in C.hom(C.dom[d], C.cod[d]) if x != d]
        if alts:
            entries[key] = alts[0]
            break
    else:
        pytest.fail("no corruptible entry found")
    bad = TableLifting(S.left, S.right, entries)
    report = check_lifting_operation(bad)
    assert not report.ok
    assert report.violations()[0].witnesses


# --- RLP / LLP verticals ----------------------------------------------------


def test_identity_rlp_vertical_ok(epi_mono2):
    S, _ = epi_mono2
    v = identity_rlp_vertical(S.left, "1")
    assert rlp_verify(S.left, v).ok


def test_monos_carry_unique_rlp_structure(epi_mono2, finset2):
    S, _ = epi_mono2
    R = RlpDouble(S.left)
    for f in finset2.category.morphisms:
        n = len(R.verticals_over(f))
        assert n == (1 if f in finset2.monos else 0), (f, n)


def test_epis_carry_unique_llp_structure(epi_mono2, finset2):
    S, _ = epi_mono2
    L = LlpDouble(S.right)
    for f in finset2.category.morphisms:
        n = len(L.verticals_over(f))
        assert n == (1 if f in finset2.epis else 0), (f, n)


def test_mutated_theta_fails_verification(epi_mono2):
    S, _ = epi_mono2
    R = RlpDouble(S.left)
    v = R.verticals_over(finset_id(2, 2, (1, 0)))[0]
    C = S.left.base
    theta = dict(v.theta)
    # replace one filler with a different parallel morphism
    for key, d in sorted(theta.items()):
        alts = [x for x in C.hom(C.dom[d], C.cod[d]) if x != d]
        if alts:
            theta[key] = alts[0]
            break
    else:
        pytest.fail("no corruptible filler found")
    assert not rlp_verify(S.left, RlpVertical(v.f, theta)).ok


def test_rlp_compose_units_and_uniqueness(epi_mono2, finset2):
    S, _ = epi_mono2
    L = S.left
    R = RlpDouble(L)
    m = R.verticals_over(finset_id(1, 2, (0,)))[0]
    # composing with identities returns the same table
    i_dom = identity_rlp_vertical(L, "1")
    i_cod = identity_rlp_vertical(L, "2")
    assert rlp_vertical_compose(L, m, i_dom) == m
    assert rlp_vertical_compose(L, i_cod, m) == m
    # composite of unique structures is the unique structure of the composite
    m2 = R.verticals_over(finset_id(2, 2, (0, 1)))[0]
    comp = rlp_vertical_compose(L, m2, m)
    assert comp == R.verticals_over(L.base.comp[(m2.f, m.f)])[0]


def test_rlp_compose_associative(epi_mono2, finset2):
    S, _ = epi_mono2
    L = S.left
    R = RlpDouble(L)
    C = L.base
    monos = sorted(finset2.monos)
    triples = [(x, y, z) for x in monos for y in monos for z in monos
               if C.cod[x] == C.dom[y] and C.cod[y] == C.dom[z]]
    assert triples
    for x, y, z in triples:
        vx = R.verticals_over(x)[0]
        vy = R.verticals_over(y)[0]
        vz = R.verticals_over(z)[0]
        a = rlp_vertical_compose(L, vz, rlp_vertical_compose(L, vy, vx))
        b = rlp_vertical_compose(L, rlp_vertical_compose(L, vz, vy), vx)
        assert a == b


def test_rlp_right_connected(epi_mono2, finset2):
    S, _ = epi_mono2
    R = RlpDouble(S.left)
    C = S.left.base
    for f in sorted(finset2.monos):
        v = R.verticals_over(f)[0]
        one = identity_rlp_vertical(S.left, C.cod[f])
        assert R.is_square(v, one, f, C.identities[C.cod[f]])


# --- transposes, morphisms, pre-awfs ----------------------------------------


def test_transposes_verify(epi_mono2):
    S, _ = epi_mono2
    tr = transpose_r(S)
    for k in S.right.verticals():
        assert rlp_verify(S.left, tr(k)).ok
    tl = transpose_l(S)
    for j in S.left.verticals():
        assert llp_verify(S.right, tl(j)).ok


def test_restrict_identity_is_noop(epi_mono2):
    S, _ = epi_mono2
    r = restrict(S.op, identity_double_map(S.left),
                 identity_double_map(S.right))
    assert r.table() == S.op.table()


def test_restrict_to_subclass_still_ok(epi_mono2, finset2):
    S, _ = epi_mono2
    C = finset2.category
    # split epis = all epis here except none are removed... restrict to
    # the epis with a chosen section: identities plus the surjections 2->1
    sub = set(C.identities.values()) | {m for m in finset2.epis
                                        if C.dom[m] == "2" and C.cod[m] == "1"}
    subdbl = dbl_from_class(C, sub)
    F = ConcreteDoubleMap(subdbl, S.left, {v: v for v in subdbl.verticals()})
    r = restrict(S.op, F, None)
    assert check_lifting_operation(r).ok


def test_structure_morphism_identity(epi_mono2):
    S, _ = epi_mono2
    report = check_structure_morphism(S, S, identity_double_map(S.left),
                                      identity_double_map(S.right))
    assert report.ok


def test_structure_morphism_mismatch_flagged(epi_mono2):
    S, _ = epi_mono2
    C = S.left.base
    # same sides but a corrupted operation: the identity map of doubles is
    # not a morphism of lifting structures between them
    entries = S.op.table()
    for key, d in sorted(entries.items()):
        alts = [x for x in C.hom(C.dom[d], C.cod[d]) if x != d]
        if alts:
            entries[key] = alts[0]
            break
    S2 = LiftingStructure(S.left, TableLifting(S.left, S.right, entries),
                          S.right)
    report = check_structure_morphism(S, S2, identity_double_map(S.left),
                                      identity_double_map(S.right))
    assert not report.ok


def test_pre_awfs_ok(epi_mono2):
    S, _ = epi_mono2
    assert check_pre_awfs(S, Budget()).ok


def test_pre_awfs_terminal_identities():
    C = terminal_category()
    ids = identities_double(C)
    op = unique_filler_lifting(ids, ids)
    assert check_pre_awfs(LiftingStructure(ids, op, ids), Budget()).ok


def test_pre_awfs_missing_vertical_flagged(epi_mono2, finset2):
    S, _ = epi_mono2
    C = finset2.category
    swap = finset_id(2, 2, (1, 0))
    right = ClassDouble(C, set(finset2.monos) - {swap}, name="missing-swap")
    # still closed (the swap is its own inverse but identities remain);
    # verify closure did not silently break
    left = S.left
    op = unique_filler_lifting(left, right)
    report = check_pre_awfs(LiftingStructure(left, op, right), Budget())
    assert not report.ok
    assert any(c.name == "phi_r-verticals-surjective"
               for c in report.violations())


# --- factorisation axiom ----------------------------------------------------


def test_factorisation_axiom_both_sides(epi_mono2):
    S, FA = epi_mono2
    assert check_factorisation_axiom(S, FA, "both").ok


def test_factorisation_axiom_one_sided_modes(epi_mono2):
    S, FA = epi_mono2
    left = check_factorisation_axiom(S, FA, "left-only")
    right = check_factorisation_axiom(S, FA, "right-only")
    assert left.ok and right.ok
    names_l = {c.name for c in left.checks}
    names_r = {c.name for c in right.checks}
    assert "universal-right" not in names_l
    assert "couniversal-left" not in names_r


def test_factorisation_of_epi_is_epi_then_identity(epi_mono2, finset2):
    _, FA = epi_mono2
    C = finset2.category
    # image of a surjection is its codomain, so the right leg is an identity
    for e in finset2.epis:
        g, mid, h = FA[e]
        assert g == e
        assert mid == C.cod[e]
        assert C.is_identity(h)


def test_non_universal_factorisation_flagged(epi_mono2, finset2):
    S, FA = epi_mono2
    C = finset2.category
    # factor the identity on 1 through 2 instead of through 1
    bad = dict(FA.assignment)
    one1 = C.identities["1"]
    bad[one1] = (finset_id(1, 2, (0,)), "2", finset_id(2, 1, (0, 0)))
    # the legs are mono-then-epi, so they are not verticals of the sides:
    # the assignment check itself must flag it
    report = check_factorisation_axiom(S, FactorisationAssignment(bad), "both")
    assert not report.ok


def test_mutated_factorisation_legs_flagged(epi_mono2, finset2):
    S, FA = epi_mono2
    C = finset2.category
    # swap the image inclusion of the constant 2->2 map with another mono
    f = finset_id(2, 2, (0, 0))
    bad = dict(FA.assignment)
    e, mid, m = bad[f]
    bad[f] = (e, mid, finset_id(1, 2, (1,)))  # wrong inclusion: composite differs
    report = check_factorisation_axiom(S, FactorisationAssignment(bad), "both")
    assert not report.ok


# --- canonical structures ---------------------------------------------------


def test_canonical_left_operation(epi_mono2, finset2):
    S, _ = epi_mono2
    can = canonical_left(S.left)
    # evaluate on the canonical verticals over each mono and compare with
    # the unique fillers
    R = can.right
    C = finset2.category
    for m in sorted(finset2.monos):
        k = R.verticals_over(m)[0]
        for j in S.left.verticals():
            for top, bottom in C.squares(j, m):
                got = can.op.fill(j, k, top, bottom)
                assert [got] == enumerate_fillers(C, j, m, top, bottom)


def test_canonical_morphism_certified(epi_mono2):
    S, _ = epi_mono2
    F_l, F_r, report = canonical_morphism_from(S, Budget())
    assert report.ok
    # identity first component
    assert all(F_l(v) == v for v in S.left.verticals())


# --- validation raises, also under python -O -----------------------------


def test_sides_over_different_bases_raise(finset2):
    left = dbl_from_class(finset2.category, finset2.epis)
    W = walking_arrow()
    with pytest.raises(SideMismatch):
        unique_filler_lifting(left, dbl_from_class(W, W.morphisms))


def test_structure_with_a_foreign_operation_raises(epi_mono2):
    S, _ = epi_mono2
    other = ClassDouble(S.right.base, S.right.members)
    with pytest.raises(ValueError):
        LiftingStructure(S.left, S.op, other)


def test_validation_survives_optimised_python():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = ("from fwfs import walking_arrow, dbl_from_class, "
            "unique_filler_lifting\n"
            "from fwfs.lifting import LiftingStructure, SideMismatch\n"
            "W = walking_arrow()\n"
            "ids = W.identities.values()\n"
            "L = dbl_from_class(W, ids)\n"
            "op = unique_filler_lifting(L, L)\n"
            "try:\n"
            "    LiftingStructure(L, op, dbl_from_class(W, ids))\n"
            "except SideMismatch:\n"
            "    print('raised')\n")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "raised", out.stderr
