import os

import pytest

from fwfs import (Awfs, FunctorialFactorisation,
                  awfs_from_lifting, check_awfs,
                  check_awfs_morphism, check_double_category,
                  check_essential_image, check_functorial_factorisation,
                  check_lifting_awfs, check_pre_awfs,
                  enumerate_algebras, enumerate_coalgebras,
                  factorisation_assignment, roundtrip_compare, sem,
                  terminal_category, walking_arrow)
from fwfs.awfs import (AlgDouble, CoalgDouble, ReconstructionError,
                       is_algebra)
from fwfs.dblcat import (ClassDouble, ClosureError, check_concrete_double_map,
                         identity_double_map)
from fwfs.fincat import finset_id
from fwfs.io import load_awfs
from fwfs.lifting import FactorisationAssignment, rlp_verify, transpose_r

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                    "demos", "data")


def trivial_ff(C):
    """Ef = dom f, λf = identity, ρf = f; E(h, k) = h."""
    mid = {f: C.dom[f] for f in C.morphisms}
    lam = {f: C.identities[C.dom[f]] for f in C.morphisms}
    rho = {f: f for f in C.morphisms}
    sq_map = {(f, g, top, bottom): top
              for f in C.morphisms for g in C.morphisms
              for top, bottom in C.squares(f, g)}
    return FunctorialFactorisation(C, mid, lam, rho, sq_map)


def trivial_awfs(C):
    ff = trivial_ff(C)
    ident = {f: C.identities[C.dom[f]] for f in C.morphisms}
    return Awfs(ff, dict(ident), dict(ident))


# --- functorial factorisation ------------------------------------------------


def test_trivial_factorisation_ok():
    assert check_functorial_factorisation(trivial_ff(walking_arrow())).ok


def test_image_factorisation_functorial(image_awfs2):
    assert check_functorial_factorisation(image_awfs2.ff).ok


def test_corrupted_square_map_flagged(finset2):
    C = finset2.category
    ff = trivial_ff(C)
    # reroute one non-identity square image through a different morphism
    for key, e in sorted(ff.sq_map.items()):
        alts = [x for x in C.hom(C.dom[e], C.cod[e]) if x != e]
        if alts:
            ff.sq_map[key] = alts[0]
            break
    report = check_functorial_factorisation(ff)
    assert not report.ok


def test_broken_section_flagged():
    C = walking_arrow()
    ff = trivial_ff(C)
    ff.rho["a"] = "id0"  # ρ∘λ no longer equals a, and boundaries break
    assert not check_functorial_factorisation(ff).ok


# --- awfs laws ----------------------------------------------------------------


def test_trivial_awfs_on_walking_arrow():
    A = trivial_awfs(walking_arrow())
    assert check_awfs(A).ok


def test_trivial_awfs_on_terminal():
    assert check_awfs(trivial_awfs(terminal_category())).ok


def test_image_awfs_satisfies_all_laws(image_awfs2):
    assert check_awfs(image_awfs2).ok


def test_corrupted_comultiplication_flagged(image_awfs2, finset2):
    C = finset2.category
    A = image_awfs2
    delta = dict(A.delta)
    for f, d in sorted(delta.items()):
        alts = [x for x in C.hom(C.dom[d], C.cod[d]) if x != d]
        if alts:
            delta[f] = alts[0]
            break
    else:
        pytest.fail("no corruptible comultiplication entry")
    report = check_awfs(Awfs(A.ff, delta, A.mu))
    assert not report.ok


def test_corrupted_multiplication_flagged(image_awfs2, finset2):
    C = finset2.category
    A = image_awfs2
    mu = dict(A.mu)
    for f, m in sorted(mu.items()):
        alts = [x for x in C.hom(C.dom[m], C.cod[m]) if x != m]
        if alts:
            mu[f] = alts[0]
            break
    else:
        pytest.fail("no corruptible multiplication entry")
    assert not check_awfs(Awfs(A.ff, A.delta, mu)).ok


# --- coalgebras and algebras --------------------------------------------------


def test_coalgebras_are_exactly_the_epis(image_awfs2, finset2):
    A = image_awfs2
    for f in finset2.category.morphisms:
        n = len(enumerate_coalgebras(A, f))
        assert n == (1 if f in finset2.epis else 0), (f, n)


def test_algebras_are_exactly_the_monos(image_awfs2, finset2):
    A = image_awfs2
    for g in finset2.category.morphisms:
        n = len(enumerate_algebras(A, g))
        assert n == (1 if g in finset2.monos else 0), (g, n)


def test_structure_map_laws_checked(image_awfs2, finset2):
    A = image_awfs2
    C = finset2.category
    g = finset_id(1, 2, (0,))
    (p,) = [a.p for a in enumerate_algebras(A, g)]
    assert is_algebra(A, g, p)
    # any other parallel candidate is rejected
    for q in C.hom(C.dom[p], C.cod[p]):
        if q != p:
            assert not is_algebra(A, g, q)


def test_algebra_double_is_lawful(image_awfs2):
    U = AlgDouble(image_awfs2)
    assert check_double_category(U).ok


def test_coalgebra_double_is_lawful(image_awfs2):
    U = CoalgDouble(image_awfs2)
    assert check_double_category(U).ok


def test_composite_algebra_is_the_unique_one(image_awfs2, finset2):
    A = image_awfs2
    U = AlgDouble(A)
    C = finset2.category
    pairs = [(v, w) for v in U.verticals() for w in U.verticals()
             if U.composable(w, v)]
    assert pairs
    for v, w in pairs:
        comp = U.compose(w, v)
        (expected,) = enumerate_algebras(A, C.comp[(w.g, v.g)])
        assert comp == expected


def test_composite_coalgebra_is_the_unique_one(image_awfs2, finset2):
    A = image_awfs2
    U = CoalgDouble(A)
    C = finset2.category
    pairs = [(v, w) for v in U.verticals() for w in U.verticals()
             if U.composable(w, v)]
    assert pairs
    for v, w in pairs:
        comp = U.compose(w, v)
        (expected,) = enumerate_coalgebras(A, C.comp[(w.f, v.f)])
        assert comp == expected


# --- semantics ----------------------------------------------------------------


def test_sem_fillers_are_the_unique_fillers(image_awfs2, epi_mono2, finset2):
    T = sem(image_awfs2)
    S, _ = epi_mono2
    C = finset2.category
    for j in T.left.verticals():
        for k in T.right.verticals():
            for top, bottom in C.squares(j.f, k.g):
                assert T.op.fill(j, k, top, bottom) == \
                    S.op.fill(j.f, k.g, top, bottom)


def test_sem_satisfies_lifting_awfs(image_awfs2):
    T = sem(image_awfs2)
    FA = factorisation_assignment(image_awfs2)
    assert check_lifting_awfs(T, FA, "both").ok


# --- reconstruction and roundtrip ---------------------------------------------


def test_reconstruction_matches_image_factorisation(image_awfs2, finset2):
    from fwfs.fincat import finset_image_factorisation
    A = image_awfs2
    C = finset2.category
    for f in C.morphisms:
        e, mid, m = finset_image_factorisation(f)
        assert (A.ff.lam[f], A.ff.mid[f], A.ff.rho[f]) == (e, mid, m)


def test_reconstruction_rejects_non_universal_assignment(epi_mono2, finset2):
    S, FA = epi_mono2
    C = finset2.category
    bad = dict(FA.assignment)
    # factor an identity through a non-identity epi-mono pair: legs are in
    # the right classes but the comparison map is not unique/existent
    f = finset_id(2, 2, (0, 1))
    bad[f] = (finset_id(2, 1, (0, 0)), "1", finset_id(1, 2, (0,)))
    with pytest.raises(ReconstructionError):
        awfs_from_lifting(S, FactorisationAssignment(bad))


def test_roundtrip_identifies_structures(epi_mono2, image_awfs2):
    S, _ = epi_mono2
    report = roundtrip_compare(S, image_awfs2)
    assert report.ok
    names = {c.name for c in report.checks}
    assert names == {"left-verticals", "left-squares", "right-verticals",
                     "right-squares", "fillers"}


def test_roundtrip_detects_wrong_awfs(epi_mono2, finset2):
    S, _ = epi_mono2
    A = trivial_awfs(finset2.category)
    assert not roundtrip_compare(S, A).ok


# --- awfs morphisms -----------------------------------------------------------


def test_identity_awfs_morphism(image_awfs2, finset2):
    C = finset2.category
    K = {f: C.identities[image_awfs2.ff.mid[f]] for f in C.morphisms}
    assert check_awfs_morphism(image_awfs2, image_awfs2, K).ok


def test_corrupted_awfs_morphism_flagged(image_awfs2, finset2):
    C = finset2.category
    A = image_awfs2
    K = {f: C.identities[A.ff.mid[f]] for f in C.morphisms}
    for f, k in sorted(K.items()):
        alts = [x for x in C.hom(C.dom[k], C.cod[k]) if x != k]
        if alts:
            K[f] = alts[0]
            break
    else:
        pytest.fail("no corruptible component")
    assert not check_awfs_morphism(A, A, K).ok


# --- essential image ----------------------------------------------------------


def test_algebra_double_in_essential_image(image_awfs2):
    report = check_essential_image(AlgDouble(image_awfs2))
    assert report.ok


def test_missing_connecting_square_flagged(image_awfs2):
    U = AlgDouble(image_awfs2)
    victim = next(v for v in U.verticals()
                  if not U.base.is_identity(v.g))

    class Pruned(type(U)):
        def is_square(self, v, w, top, bottom):
            if v == victim and self.base.is_identity(w.g) \
                    and self.base.is_identity(bottom):
                return False
            return super().is_square(v, w, top, bottom)

    report = check_essential_image(Pruned(image_awfs2))
    assert not report.ok
    assert any(c.name == "right-connectedness" for c in report.violations())


# --- vertical composition of (co)algebras ---------------------------------


def test_coalgebra_composite_that_is_not_a_coalgebra_raises(image_awfs2):
    A = image_awfs2
    f = finset_id(2, 2, (0, 1))
    B = Awfs(A.ff, A.delta, {**A.mu, f: finset_id(2, 2, (0, 0))})
    D = CoalgDouble(B)
    v = D.identity_vertical("2")
    with pytest.raises(ClosureError):
        D.compose(v, v)


@pytest.mark.parametrize("double, what", [(CoalgDouble, "a coalgebra"),
                                          (AlgDouble, "an algebra")])
def test_composite_outside_the_double_is_a_materialization_violation(
        image_awfs2, double, what):
    A = image_awfs2
    f = finset_id(2, 2, (0, 1))
    B = Awfs(A.ff, A.delta, {**A.mu, f: finset_id(2, 2, (0, 0))})
    report = check_double_category(double(B))
    assert report.status == "violation"
    [check] = report.checks
    assert check.name == "materialization"
    [witness] = check.witnesses
    assert witness["error"].startswith(f"composite is not {what}: ")


def test_algebra_composite_that_is_not_an_algebra_raises(image_awfs2):
    A = image_awfs2
    f = finset_id(2, 2, (0, 1))
    B = Awfs(A.ff, {**A.delta, f: finset_id(2, 2, (0, 0))}, A.mu)
    D = AlgDouble(B)
    v = D.identity_vertical("2")
    with pytest.raises(ValueError):
        D.compose(v, v)


def delta_mu_corruptions(A):
    """Every change of one entry of Δ or μ to another morphism with the
    same boundary."""
    C = A.C
    for which in ("delta", "mu"):
        for f, m in getattr(A, which).items():
            for m2 in C.hom(C.dom[m], C.cod[m]):
                if m2 != m:
                    tables = {"delta": dict(A.delta), "mu": dict(A.mu)}
                    tables[which][f] = m2
                    yield Awfs(A.ff, tables["delta"], tables["mu"])


@pytest.mark.parametrize("double", [CoalgDouble, AlgDouble])
def test_no_corruption_escapes_the_double_map_check(double):
    """The identity double map of Coalg and of Alg is checked to a
    report, with the verdict of check_double_category, on every
    single-entry corruption of Δ and μ of the image awfs; so is the
    essential image, which composes the verticals and checks the
    identity verticals."""
    A = load_awfs(os.path.join(DATA, "image_awfs_finset2.json"))
    statuses = []
    for B in delta_mu_corruptions(A):
        D = double(B)
        report = check_concrete_double_map(identity_double_map(D))
        assert report.status == check_double_category(D).status
        assert report.status == check_essential_image(D).status
        statuses.append(report.status)
    assert len(statuses) == 12
    assert statuses.count("violation") == 9


def test_essential_image_composes_the_verticals():
    A = load_awfs(os.path.join(DATA, "image_awfs_finset2.json"))
    f = finset_id(2, 2, (0, 1))
    B = Awfs(A.ff, A.delta, {**A.mu, f: finset_id(2, 2, (0, 0))})
    [check] = check_essential_image(CoalgDouble(B)).violations()
    assert check.name == "vertical-composition"
    label = f"{f};{f}"
    assert check.witnesses[0] == {"w": label, "v": label, "error":
                                  "composite is not a coalgebra: "
                                  f"{(label, label)}"}
    # the identity algebra on 2 is lost: its structure map is no algebra
    report = check_essential_image(AlgDouble(B))
    assert report.violations()[0].name == "identity-verticals"
    assert report.violations()[0].witnesses == [{"object": "2"}]


def test_pre_awfs_reports_every_corruption():
    """A composite of coalgebras that is no coalgebra is a witness of
    the vertical compatibility law, not an escaping ClosureError."""
    A = load_awfs(os.path.join(DATA, "image_awfs_finset2.json"))
    statuses = [check_pre_awfs(sem(B)).status
                for B in delta_mu_corruptions(A)]
    assert statuses == ["violation"] * 12

    f = finset_id(2, 2, (0, 1))
    B = Awfs(A.ff, A.delta, {**A.mu, f: finset_id(2, 2, (0, 0))})
    S = sem(B)
    phi_r = transpose_r(S)
    label = f"{f};{f}"
    witness = {"i": label, "j": label,
               "error": f"composite is not a coalgebra: {(label, label)}"}
    found = [w for v in phi_r.source.verticals()
             for c in rlp_verify(S.left, phi_r(v)).violations()
             if c.name == "vertical-compatibility" for w in c.witnesses]
    assert witness in found


def test_pre_awfs_says_why_an_image_is_no_vertical():
    """An image of a transpose that is no vertical carries the first
    violated check of its verify report and that check's first witness,
    under φ_l in the dual key names that llp_verify gives."""
    A = load_awfs(os.path.join(DATA, "image_awfs_finset2.json"))
    keys = {"phi_r": ("i", "j", "a coalgebra"),
            "phi_l": ("l", "k", "an algebra")}
    pairs = 0
    for B in delta_mu_corruptions(A):
        for check in check_pre_awfs(sem(B)).violations():
            side = check.name.split("-")[0]
            images = [w for w in check.witnesses
                      if w["kind"] == "image-not-a-vertical"]
            pairs += bool(images)
            lower, upper, what = keys[side]
            for w in images:
                assert w["check"] == "vertical-compatibility"
                assert set(w["witness"]) == {lower, upper, "error"}
                assert w["witness"]["error"].startswith(
                    f"composite is not {what}: ")
    assert pairs == 18


def test_a_missing_composite_is_a_witnessed_violation():
    A = load_awfs(os.path.join(DATA, "image_awfs_finset2.json"))
    f = finset_id(2, 2, (0, 1))
    B = Awfs(A.ff, A.delta, {**A.mu, f: finset_id(2, 2, (0, 0))})
    report = check_concrete_double_map(identity_double_map(CoalgDouble(B)))
    [check] = report.violations()
    assert check.name == "vertical-composition"
    label = f"{f};{f}"
    assert check.witnesses[0] == {"w": label, "v": label, "error":
                                  "composite is not a coalgebra: "
                                  f"{(label, label)}"}
    # the identity algebra on 2 is lost, so the map has no image for it
    report = check_concrete_double_map(identity_double_map(AlgDouble(B)))
    assert [c.name for c in report.violations()] == \
        ["identity-verticals", "vertical-composition"]
    assert report.violations()[0].witnesses == [{"object": "2"}]


def test_a_missing_identity_vertical_is_a_witnessed_violation():
    """A class without the identity on 1 is reported by both checkers of
    the vertical laws, not raised; right-connectedness then finds no
    identity vertical for a to connect to."""
    U = ClassDouble(walking_arrow(), ["a", "id0"])
    witness = {"object": "1", "error": "missing identity: 1"}
    for report in (check_concrete_double_map(identity_double_map(U)),
                   check_essential_image(U)):
        assert report.status == "violation"
        [check] = [c for c in report.violations()
                   if c.name == "identity-verticals"]
        assert check.witnesses == [witness]
    assert [c.name for c in check_essential_image(U).violations()] == \
        ["identity-verticals", "right-connectedness"]


@pytest.mark.parametrize("double", [CoalgDouble, AlgDouble])
def test_double_map_check_on_the_opposite_is_written_in_c(double):
    """On D^op the identity map's report is D's, in D's order, with w and
    v swapped: composable pairs are walked as D walks them."""
    A = load_awfs(os.path.join(DATA, "image_awfs_finset2.json"))

    def flip(witness):
        return {**witness, "w": witness["v"], "v": witness["w"]} \
            if "w" in witness else witness
    for B in delta_mu_corruptions(A):
        D = double(B)
        want = check_concrete_double_map(identity_double_map(D)).to_dict()
        for check in want["checks"]:
            check["witnesses"] = [flip(w) for w in check["witnesses"]]
        assert check_concrete_double_map(
            identity_double_map(D.op())).to_dict() == want
