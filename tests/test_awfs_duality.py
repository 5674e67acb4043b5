"""The algebra side of an awfs is derived from the coalgebra side of its
dual on C^op: ``is_algebra``, ``enumerate_algebras``, ``AlgDouble``, the
monad laws and naturality of μ in ``check_awfs``, and the search for μ
in ``awfs_from_lifting``.  This module keeps the hand-written algebra
side as oracles and requires the same results from the derived code.
"""

import os
import random

import pytest

from fwfs import (Awfs, FactorisationAssignment, LiftingStructure,
                  awfs_from_lifting, check_awfs,
                  check_functorial_factorisation, dbl_from_class,
                  enumerate_algebras, factorisation_assignment, sem,
                  unique_filler_lifting)
from fwfs import io as io_mod
from fwfs.awfs import (AlgDouble, Algebra, CoalgDouble, Coalgebra,
                       ReconstructionError, is_algebra)
from fwfs.dblcat import ClosureError, ConcreteDouble, check_double_category
from fwfs.fincat import finset_id, finset_image_factorisation
from fwfs.lifting import factorisations

from test_duality import delta_plus

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                    "demos", "data")


# --- the hand-written oracles ----------------------------------------------


def oracle_check_awfs(A):
    """check_awfs with the monad laws and μ-naturality written on C."""
    report = check_functorial_factorisation(A.ff)
    if not report.ok:
        return report
    C = A.C
    comp = C.comp
    ff = A.ff
    ident = C.identities

    class NonSquare(Exception):
        def __init__(self, key):
            super().__init__(key)
            self.key = key

    def e_of(f, g, top, bottom):
        try:
            return ff.sq_map[(f, g, top, bottom)]
        except KeyError:
            raise NonSquare((f, g, top, bottom)) from None

    bad = []
    for f in C.morphisms:
        d = A.delta.get(f)
        m = A.mu.get(f)
        lam, rho = ff.lam[f], ff.rho[f]
        if d is None or C.dom.get(d) != ff.mid[f] or C.cod.get(d) != ff.mid[lam]:
            bad.append({"kind": "delta-boundary", "f": f})
        if m is None or C.dom.get(m) != ff.mid[rho] or C.cod.get(m) != ff.mid[f]:
            bad.append({"kind": "mu-boundary", "f": f})
    report.record("boundaries", bad, cases=2 * len(C.morphisms))
    if bad:
        return report

    co, mo = [], []
    for f in C.morphisms:
        lam, rho = ff.lam[f], ff.rho[f]
        d, m = A.delta[f], A.mu[f]
        one = ident[ff.mid[f]]
        try:
            if comp[(d, lam)] != ff.lam[lam]:
                co.append({"law": "comult-square", "f": f})
            if comp[(ff.rho[lam], d)] != one:
                co.append({"law": "counit-left", "f": f})
            if comp[(e_of(lam, f, ident[C.dom[f]], rho), d)] != one:
                co.append({"law": "counit-right", "f": f})
            lhs = comp[(A.delta[lam], d)]
            rhs = comp[(e_of(lam, ff.lam[lam], ident[C.dom[f]], d), d)]
            if lhs != rhs:
                co.append({"law": "coassociativity", "f": f,
                           "lhs": lhs, "rhs": rhs})
        except NonSquare as ex:
            co.append({"law": "non-square", "f": f, "key": list(ex.key)})
        try:
            if comp[(rho, m)] != ff.rho[rho]:
                mo.append({"law": "mult-square", "f": f})
            if comp[(m, ff.lam[rho])] != one:
                mo.append({"law": "unit-left", "f": f})
            if comp[(m, e_of(f, rho, lam, ident[C.cod[f]]))] != one:
                mo.append({"law": "unit-right", "f": f})
            lhs = comp[(m, A.mu[rho])]
            rhs = comp[(m, e_of(ff.rho[rho], rho, m, ident[C.cod[f]]))]
            if lhs != rhs:
                mo.append({"law": "associativity", "f": f,
                           "lhs": lhs, "rhs": rhs})
        except NonSquare as ex:
            mo.append({"law": "non-square", "f": f, "key": list(ex.key)})
    report.record("comonad", co, cases=4 * len(C.morphisms))
    report.record("monad", mo, cases=4 * len(C.morphisms))

    nat, n = [], 0
    for f in C.morphisms:
        for g in C.morphisms:
            for top, bottom in C.squares(f, g):
                n += 2
                try:
                    e = e_of(f, g, top, bottom)
                    lhs = comp[(e_of(ff.lam[f], ff.lam[g], top, e),
                                A.delta[f])]
                    if lhs != comp[(A.delta[g], e)]:
                        nat.append({"law": "delta", "f": f, "g": g,
                                    "square": [top, bottom]})
                    lhs = comp[(e, A.mu[f])]
                    rhs = comp[(A.mu[g],
                                e_of(ff.rho[f], ff.rho[g], e, bottom))]
                    if lhs != rhs:
                        nat.append({"law": "mu", "f": f, "g": g,
                                    "square": [top, bottom]})
                except NonSquare as ex:
                    nat.append({"law": "non-square", "f": f, "g": g,
                                "key": list(ex.key)})
    report.record("naturality-delta-mu", nat, cases=n)

    dist = []
    for f in C.morphisms:
        lam, rho = ff.lam[f], ff.rho[f]
        d, m = A.delta[f], A.mu[f]
        if comp[(ff.rho[lam], d)] != comp[(m, ff.lam[rho])]:
            dist.append({"law": "middle-square", "f": f})
            continue
        try:
            lhs = comp[(d, m)]
            rhs = comp[(A.mu[lam], comp[(e_of(ff.lam[rho], ff.rho[lam], d, m),
                                         A.delta[rho])])]
            if lhs != rhs:
                dist.append({"law": "delta-mu-interchange", "f": f,
                             "lhs": lhs, "rhs": rhs})
        except NonSquare as ex:
            dist.append({"law": "non-square", "f": f, "key": list(ex.key)})
    report.record("distributive-law", dist, cases=2 * len(C.morphisms))
    return report


def oracle_is_algebra(A, g, p):
    C, ff = A.C, A.ff
    comp = C.comp
    if C.dom.get(p) != ff.mid[g] or C.cod.get(p) != C.dom[g]:
        return False
    if comp[(g, p)] != ff.rho[g]:
        return False
    if comp[(p, ff.lam[g])] != C.identities[C.dom[g]]:
        return False
    esq = ff.sq_map[(ff.rho[g], g, p, C.identities[C.cod[g]])]
    return comp[(p, esq)] == comp[(p, A.mu[g])]


def oracle_enumerate_algebras(A, g):
    C, ff = A.C, A.ff
    return [(g, p) for p in C.hom(ff.mid[g], C.dom[g])
            if oracle_is_algebra(A, g, p)]


class OracleAlgDouble(ConcreteDouble):
    """The double category of algebras written on C; its verticals are
    (g, p) pairs."""

    def __init__(self, A):
        super().__init__(A.C, "Alg")
        self.A = A

    def verticals(self):
        return [a for g in self.base.morphisms
                for a in oracle_enumerate_algebras(self.A, g)]

    def has_vertical(self, v):
        return oracle_is_algebra(self.A, *v)

    def underlying(self, v):
        return v[0]

    def label(self, v):
        return f"{v[0]};{v[1]}"

    def identity_vertical(self, obj):
        g = self.base.identities[obj]
        return (g, self.A.ff.rho[g])

    def compose(self, w, v):
        # p ∘ E(1, q∘E(g,1)) ∘ Δ_{hg}
        A, C = self.A, self.base
        comp = C.comp
        (h, q), (g, p) = w, v
        hg = comp[(h, g)]
        y = comp[(q, A.ff.sq_map[(hg, h, g, C.identities[C.cod[h]])])]
        e = A.ff.sq_map[(A.ff.lam[hg], g, C.identities[C.dom[g]], y)]
        out = (hg, comp[(p, comp[(e, A.delta[hg])])])
        if not self.has_vertical(out):
            raise ClosureError("composite is not an algebra",
                               (self.label(w), self.label(v)))
        return out

    def is_square(self, v, w, top, bottom):
        C = self.base
        if (top, bottom) not in C.squares(v[0], w[0]):
            return False
        e = self.A.ff.sq_map[(v[0], w[0], top, bottom)]
        return C.comp[(top, v[1])] == C.comp[(w[1], e)]


def oracle_mu_candidates(S, FA, mid, lam, rho, f):
    """The search for μf written on C: the a: Eρf → Ef with a∘λρf = 1,
    ρf∘a = ρρf and (a, 1) an R-square from the right leg of ρf to that
    of f."""
    C = S.left.base
    comp = C.comp
    rf = rho[f]
    one_mid = C.identities[mid[f]]
    return [a for a in C.hom(mid[rf], mid[f])
            if comp[(a, lam[rf])] == one_mid
            and comp[(rf, a)] == rho[rf]
            and S.right.is_square(FA[rf][2], FA[f][2], a,
                                  C.identities[C.cod[f]])]


def oracle_awfs_from_lifting(S, FA):
    """awfs_from_lifting with the search for μ written on C."""
    L, R = S.left, S.right
    C = L.base
    comp = C.comp
    mid, lam, rho = {}, {}, {}
    for f in C.morphisms:
        g, m, h = FA[f]
        mid[f] = m
        lam[f] = L.underlying(g)
        rho[f] = R.underlying(h)

    def unique(cands, what, key):
        if len(cands) != 1:
            raise ReconstructionError(what, key, cands)
        return cands[0]

    sq_map = {}
    for f in C.morphisms:
        hf = FA[f][2]
        for g in C.morphisms:
            hg = FA[g][2]
            for top, bottom in C.squares(f, g):
                want_top = comp[(lam[g], top)]
                want_bot = comp[(bottom, rho[f])]
                cands = [a for a in C.hom(mid[f], mid[g])
                         if comp[(a, lam[f])] == want_top
                         and comp[(rho[g], a)] == want_bot
                         and R.is_square(hf, hg, a, bottom)]
                sq_map[(f, g, top, bottom)] = unique(
                    cands, "E on squares", (f, g, top, bottom))

    delta, mu = {}, {}
    for f in C.morphisms:
        lf = lam[f]
        cands = [b for b in C.hom(mid[f], mid[lf])
                 if comp[(b, lf)] == lam[lf]
                 and comp[(rho[lf], b)] == C.identities[mid[f]]
                 and L.is_square(FA[f][0], FA[lf][0],
                                 C.identities[C.dom[f]], b)]
        delta[f] = unique(cands, "delta", f)
        mu[f] = unique(oracle_mu_candidates(S, FA, mid, lam, rho, f),
                       "mu", f)
    return (mid, lam, rho, sq_map), delta, mu


# --- instances -------------------------------------------------------------


def epi_mono(C, epis, monos):
    left = dbl_from_class(C, epis, name="D(Epi)")
    right = dbl_from_class(C, monos, name="D(Mono)")
    S = LiftingStructure(left, unique_filler_lifting(left, right), right)
    FA = FactorisationAssignment(
        {f: finset_image_factorisation(f) for f in C.morphisms})
    return S, FA


@pytest.fixture(scope="module")
def delta2_structure():
    return epi_mono(*delta_plus(2))


@pytest.fixture(scope="module")
def delta3_awfs():
    return awfs_from_lifting(*epi_mono(*delta_plus(3)))


@pytest.fixture(scope="module")
def image_awfs_file():
    return io_mod.load_awfs(os.path.join(DATA, "image_awfs_finset2.json"))


def parallel(C, m):
    """The morphisms parallel to m other than m."""
    return [x for x in C.hom(C.dom[m], C.cod[m]) if x != m]


def corruptions(A, which, boundaries=False):
    """A with one entry of Δ, μ or E replaced by a parallel morphism,
    and with ``boundaries`` one of Δ or μ also by a morphism of another
    boundary, or left out."""
    C = A.C
    if which == "E":
        for key, e in sorted(A.ff.sq_map.items()):
            for x in parallel(C, e):
                ff = type(A.ff)(C, A.ff.mid, A.ff.lam, A.ff.rho,
                                {**A.ff.sq_map, key: x})
                yield Awfs(ff, A.delta, A.mu)
        return
    table = getattr(A, which)
    for f, d in sorted(table.items()):
        news = [{**table, f: x} for x in parallel(C, d)]
        if boundaries:
            other = next(x for x in C.morphisms
                         if (C.dom[x], C.cod[x]) != (C.dom[d], C.cod[d]))
            news += [{**table, f: other},
                     {g: e for g, e in table.items() if g != f}]
        for new in news:
            yield Awfs(A.ff, **{"delta": A.delta, "mu": A.mu, which: new})


def same_reports(awfs_list):
    """check_awfs agrees byte for byte with its oracle on each awfs;
    returns how many were violations and which laws they named."""
    n, names = 0, set()
    for A in awfs_list:
        got = check_awfs(A)
        assert got.to_json() == oracle_check_awfs(A).to_json()
        if got.violations():
            n += 1
            names |= {c.name for c in got.violations()}
            names |= {w.get("law") for c in got.violations()
                      for w in c.witnesses}
    return n, names


# --- check_awfs --------------------------------------------------------------


def test_dual_of_dual_has_the_tables(image_awfs_file):
    A = image_awfs_file
    D = A.dual()
    assert A.dual() is D and D == Awfs(D.ff, D.delta, D.mu)
    assert D.C is A.C.op() and (D.delta, D.mu) == (A.mu, A.delta)
    assert (D.ff.lam, D.ff.rho, D.ff.mid) == (A.ff.rho, A.ff.lam, A.ff.mid)
    for (f, g, top, bottom), e in A.ff.sq_map.items():
        assert D.ff.sq_map[(g, f, bottom, top)] == e
    with pytest.raises(KeyError) as ei:
        D.ff.sq_map[("f", "g", "top", "bottom")]
    assert ei.value.args == (("g", "f", "bottom", "top"),)
    twice = D.dual()
    assert twice.C is A.C and (twice.delta, twice.mu) == (A.delta, A.mu)
    for key, e in A.ff.sq_map.items():
        assert twice.ff.sq_map[key] == e


@pytest.mark.parametrize("which", ["delta", "mu", "E"])
def test_check_awfs_matches_oracle_on_image_awfs_finset2(image_awfs_file,
                                                         which):
    A = image_awfs_file
    assert same_reports([A]) == (0, set())
    bad, names = same_reports(corruptions(A, which, boundaries=True))
    assert bad > 0
    if which != "E":
        assert {"non-square", "boundaries"} <= names
        assert ("monad" if which == "mu" else "comonad") in names


@pytest.mark.parametrize("which", ["delta", "mu"])
def test_check_awfs_matches_oracle_on_delta3(delta3_awfs, which):
    bad, names = same_reports(corruptions(delta3_awfs, which))
    assert bad > 0 and "naturality-delta-mu" in names


def test_check_awfs_matches_oracle_on_delta3_e_sample(delta3_awfs):
    every = list(corruptions(delta3_awfs, "E"))
    sample = random.Random(5).sample(every, 40)
    bad, _ = same_reports(sample)
    assert bad == len(sample)


# --- algebras ----------------------------------------------------------------


def broken_mu(A):
    """A with μ at some f changed so that algebras and their composites
    fail."""
    C = A.C
    for f, m in sorted(A.mu.items()):
        alts = parallel(C, m)
        if alts:
            return Awfs(A.ff, A.delta, {**A.mu, f: alts[0]})


@pytest.fixture(params=["finset2", "finset2-broken-mu", "delta3",
                        "delta3-broken-mu"])
def some_awfs(request, image_awfs2, delta3_awfs):
    A = image_awfs2 if request.param.startswith("finset2") else delta3_awfs
    return broken_mu(A) if request.param.endswith("broken-mu") else A


def test_algebras_match_oracle(some_awfs):
    A = some_awfs
    C = A.C
    for g in C.morphisms:
        for p in C.hom(A.ff.mid[g], C.dom[g]):
            assert is_algebra(A, g, p) == oracle_is_algebra(A, g, p)
        got = enumerate_algebras(A, g)
        assert all(type(a) is Algebra for a in got)
        assert [(a.g, a.p) for a in got] == oracle_enumerate_algebras(A, g)


def test_alg_double_matches_oracle(some_awfs):
    A = some_awfs
    U, O = AlgDouble(A), OracleAlgDouble(A)
    C = A.C
    assert U.base is C and U.op().op() is U
    verts = U.verticals()
    assert [(v.g, v.p) for v in verts] == O.verticals()
    assert [U.label(v) for v in verts] == [O.label(v) for v in O.verticals()]
    for o in C.objects:
        assert (lambda i: (i.g, i.p))(U.identity_vertical(o)) == \
            O.identity_vertical(o)
    composites = 0
    for v in verts:
        assert U.has_vertical(v) and U.underlying(v) == v.g
        assert not U.has_vertical(Coalgebra(v.g, v.p))
        for w in verts:
            ov, ow = (v.g, v.p), (w.g, w.p)
            assert U.squares(v, w) == O.squares(ov, ow)
            for top, bottom in C.squares(v.g, w.g):
                assert U.is_square(v, w, top, bottom) == \
                    O.is_square(ov, ow, top, bottom)
            if not U.composable(w, v):
                continue
            try:
                want = O.compose(ow, ov)
            except ClosureError:
                with pytest.raises(ClosureError, match="not an algebra"):
                    U.compose(w, v)
                continue
            got = U.compose(w, v)
            assert type(got) is Algebra and (got.g, got.p) == want
            composites += 1
    assert composites > 0


def test_alg_double_category_matches_oracle(image_awfs2, delta3_awfs):
    for A in (image_awfs2, delta3_awfs):
        got = check_double_category(AlgDouble(A))
        assert got.ok
        assert got.to_dict() == check_double_category(
            OracleAlgDouble(A)).to_dict()


def test_algebra_is_not_a_coalgebra():
    a, c = Algebra("g", "p"), Coalgebra("g", "p")
    assert a != c and (a.g, a.p) == (c.f, c.s) == ("g", "p")
    assert repr(a) == "<Algebra g; p>" and repr(c) == "<Coalgebra g; p>"
    assert a == Algebra("g", "p") and hash(a) == hash(Algebra("g", "p"))


def test_coalg_double_of_the_dual_is_alg_seen_from_c(image_awfs2):
    U = AlgDouble(image_awfs2)
    assert isinstance(U.original, CoalgDouble)
    assert U.original.A.C is image_awfs2.C.op()
    assert U.original.op() is U


# --- reconstruction ----------------------------------------------------------


def outcome(build, S, FA):
    try:
        A = build(S, FA)
    except ReconstructionError as e:
        return ("error", str(e), e.witness)
    if isinstance(A, Awfs):
        A = ((A.ff.mid, A.ff.lam, A.ff.rho, A.ff.sq_map), A.delta, A.mu)
    return ("awfs",) + A


def twisted(S, FA):
    """FA with the middle object 2 relabelled by the swap σ: f = (m∘σ)∘(σ∘e)
    is still an epi-mono factorisation, and Δ and μ are no longer both
    identities."""
    C = S.left.base
    swap = finset_id(2, 2, (1, 0))
    return FactorisationAssignment(
        {f: (C.comp[(swap, e)], mid, C.comp[(m, swap)]) if mid == "2"
         else (e, mid, m) for f, (e, mid, m) in FA.assignment.items()})


@pytest.fixture(params=["finset2", "finset2-twisted", "delta2", "sem"])
def structure(request, epi_mono2, delta2_structure, image_awfs2):
    if request.param == "sem":
        return sem(image_awfs2), factorisation_assignment(image_awfs2)
    if request.param == "finset2-twisted":
        return epi_mono2[0], twisted(*epi_mono2)
    return epi_mono2 if request.param == "finset2" else delta2_structure


def test_reconstruction_matches_oracle(structure):
    S, FA = structure
    got = outcome(awfs_from_lifting, S, FA)
    assert got[0] == "awfs"
    assert got == outcome(oracle_awfs_from_lifting, S, FA)


def test_twisted_reconstruction_has_other_delta_and_mu(epi_mono2):
    S, FA = epi_mono2[0], twisted(*epi_mono2)
    A = awfs_from_lifting(S, FA)
    assert check_awfs(A).ok
    C = S.left.base
    assert any(A.delta[f] != A.mu[f] for f in C.morphisms)


def leg_corruptions(S, FA):
    """FA with one leg replaced by another vertical over a parallel
    morphism, or, for (co)algebras, by one with another structure map."""
    L, R = S.left, S.right
    C = L.base
    for f in C.morphisms:
        g, mid, h = FA[f]
        for side, old in ((L, g), (R, h)):
            u = side.underlying(old)
            news = [v for v in side.verticals() if v != old
                    and (C.dom[side.underlying(v)], C.cod[side.underlying(v)])
                    == (C.dom[u], C.cod[u])]
            if isinstance(old, Coalgebra):
                news += [type(old)(old.f, x) for x in parallel(C, old.s)]
            for new in news:
                legs = (new, mid, h) if side is L else (g, mid, new)
                yield FactorisationAssignment({**FA.assignment, f: legs})


def test_reconstruction_errors_match_oracle(structure):
    S, FA = structure
    whats = set()
    for bad in leg_corruptions(S, FA):
        got = outcome(awfs_from_lifting, S, bad)
        assert got == outcome(oracle_awfs_from_lifting, S, bad)
        whats.add(got[2][0] if got[0] == "error" else "none")
    assert "E on squares" in whats


def test_mu_search_matches_oracle(structure):
    """The search for μ on its own, for the lawful assignment and every
    corrupted one, with mid, λ and ρ read from it as awfs_from_lifting
    reads them.  On these structures each corruption that makes it fail
    also makes the search for E fail, which comes first, so its failures
    are compared here."""
    S, FA = structure
    C = S.left.base
    counts = set()
    for bad in [FA] + list(leg_corruptions(S, FA)):
        mid = {f: bad[f][1] for f in C.morphisms}
        lam = {f: S.left.underlying(bad[f][0]) for f in C.morphisms}
        rho = {f: S.right.underlying(bad[f][2]) for f in C.morphisms}
        for f in C.morphisms:
            got = factorisations(S.dual(), bad.dual(), rho[f])(
                bad[f][2], rho[f], C.identities[C.cod[f]],
                C.identities[mid[f]])
            assert got == oracle_mu_candidates(S, bad, mid, lam, rho, f)
            counts.add(len(got))
    assert 1 in counts and counts != {1}
