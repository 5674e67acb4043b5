"""Functorial factorisations, their comonad/monad structure, the
coalgebra and algebra double categories, the semantics lifting structure,
and reconstruction of the whole package from a lifting structure that
satisfies the lifting and factorisation axioms.

Every law is a morphism equality in the base category, checked by table
lookup over all morphisms and all commuting squares.  Functoriality of
E is checked on the pairs of squares of :func:`generating_square_pairs`,
which imply all the others.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dblcat import ClosureError, ConcreteDouble
from .fincat import FinCategory
from .lifting import (FactorisationAssignment, LiftingStructure,
                      RuleLifting)
from .report import Budget, Report, run_bounded


@dataclass
class FunctorialFactorisation:
    """f ↦ (λf: dom f → Ef, ρf: Ef → cod f) with ρf∘λf = f, functorial
    on squares via ``sq_map[(f, g, top, bottom)] = E(top, bottom)``."""

    C: FinCategory
    mid: dict     # f -> middle object Ef
    lam: dict     # f -> λf
    rho: dict     # f -> ρf
    sq_map: dict  # (f, g, top, bottom) -> E(top,bottom): Ef -> Eg


@dataclass
class Awfs:
    """A functorial factorisation with comonad comultiplication Δ and
    monad multiplication μ (Δf: Ef → Eλf, μf: Eρf → Ef)."""

    ff: FunctorialFactorisation
    delta: dict  # f -> Δf
    mu: dict     # f -> μf

    @property
    def C(self):
        return self.ff.C


def check_functorial_factorisation(ff: FunctorialFactorisation) -> Report:
    report = Report()
    C = ff.C
    comp = C.comp
    bad = []
    for f in C.morphisms:
        mid = ff.mid.get(f)
        lam = ff.lam.get(f)
        rho = ff.rho.get(f)
        if mid not in C.objects or lam not in C.dom or rho not in C.dom:
            bad.append({"kind": "missing-data", "f": f})
            continue
        if (C.dom[lam] != C.dom[f] or C.cod[lam] != mid
                or C.dom[rho] != mid or C.cod[rho] != C.cod[f]):
            bad.append({"kind": "boundary", "f": f})
        elif comp[(rho, lam)] != f:
            bad.append({"kind": "section", "f": f, "got": comp[(rho, lam)]})
    report.record("section", bad, cases=len(C.morphisms))
    if bad:
        return report

    # E on squares: totality, boundaries, naturality of λ and ρ
    bad, n = [], 0
    for f in C.morphisms:
        for g in C.morphisms:
            for top, bottom in C.squares(f, g):
                n += 1
                e = ff.sq_map.get((f, g, top, bottom))
                if e is None or e not in C.dom:
                    bad.append({"kind": "missing", "f": f, "g": g,
                                "square": [top, bottom]})
                    continue
                if C.dom[e] != ff.mid[f] or C.cod[e] != ff.mid[g]:
                    bad.append({"kind": "boundary", "f": f, "g": g,
                                "square": [top, bottom]})
                    continue
                if comp[(e, ff.lam[f])] != comp[(ff.lam[g], top)]:
                    bad.append({"kind": "lambda-naturality", "f": f, "g": g,
                                "square": [top, bottom]})
                if comp[(ff.rho[g], e)] != comp[(bottom, ff.rho[f])]:
                    bad.append({"kind": "rho-naturality", "f": f, "g": g,
                                "square": [top, bottom]})
    report.record("naturality", bad, cases=n)
    if bad:
        return report

    # functoriality of E on the arrow category; the generating pairs
    # decide it only when C itself is a category
    bad, n = [], 0
    for f in C.morphisms:
        n += 1
        idsq = (f, f, C.identities[C.dom[f]], C.identities[C.cod[f]])
        if ff.sq_map[idsq] != C.identities[ff.mid[f]]:
            bad.append({"kind": "identity", "f": f})
    pairs = generating_square_pairs(C) if C.is_category else square_pairs(C)
    sq_map = ff.sq_map
    for f, g, h, (t1, b1), (t2, b2) in pairs:
        n += 1
        # every square has an E value by now, so a missing one means the
        # composite of the two squares is not a square (C not associative)
        lhs = sq_map.get((f, h, comp[(t2, t1)], comp[(b2, b1)]))
        if lhs is None:
            bad.append({"kind": "composite-not-a-square", "f": f, "g": g,
                        "h": h, "squares": [[t1, b1], [t2, b2]]})
        elif lhs != comp[(sq_map[(g, h, t2, b2)], sq_map[(f, g, t1, b1)])]:
            bad.append({"kind": "composition", "f": f, "g": g,
                        "h": h, "squares": [[t1, b1], [t2, b2]]})
    report.record("functoriality", bad, cases=n)
    return report


def square_pairs(C: FinCategory):
    """Every composable pair of squares (t1, b1): f → g, (t2, b2): g → h,
    as (f, g, h, (t1, b1), (t2, b2)), lexicographically."""
    for f in C.morphisms:
        for g in C.morphisms:
            for s1 in C.squares(f, g):
                for h in C.morphisms:
                    for s2 in C.squares(g, h):
                        yield f, g, h, s1, s2


def generating_square_pairs(C: FinCategory):
    """Composable pairs of squares whose composition equations imply all
    others, for a map on squares that preserves identities.

    Every square (t, b): f → g factors uniquely as (t, 1)∘(1, b) through
    b∘f, so C² has a strict factorisation system (Rosebrugh–Wood,
    *Distributive laws and factorization*, JPAA 2002).  A map out of C²
    that preserves identities is then a functor if and only if it
    respects that factorisation of every square, composition of two
    (1, b) squares, composition of two (t, 1) squares, and each exchange
    of a (t, 1) square followed by a (1, b) square.  The proof uses
    associativity and units of C, so C must pass :func:`check_category`.
    Pairs have the shape of those of :func:`square_pairs`.
    """
    comp, ident = C.comp, C.identities
    out_of, into = {}, {}
    for m in C.morphisms:
        out_of.setdefault(C.dom[m], []).append(m)
        into.setdefault(C.cod[m], []).append(m)
    # the squares (1, b): f → b∘f and (t, 1): f → g with g∘t = f
    lower = {f: [(comp[(b, f)], (ident[C.dom[f]], b))
                 for b in out_of[C.cod[f]]] for f in C.morphisms}
    upper = {f: [(g, (t, ident[C.cod[f]])) for g in into[C.cod[f]]
                 for t in C.hom(C.dom[f], C.dom[g]) if comp[(g, t)] == f]
             for f in C.morphisms}
    for f in C.morphisms:
        for g in C.morphisms:
            for t, b in C.squares(f, g):
                yield (f, comp[(b, f)], g, (ident[C.dom[f]], b),
                       (t, ident[C.cod[g]]))
        for g, s1 in lower[f]:
            for h, s2 in lower[g]:
                yield f, g, h, s1, s2
        for g, s1 in upper[f]:
            for h, s2 in upper[g]:
                yield f, g, h, s1, s2
            for h, s2 in lower[g]:
                yield f, g, h, s1, s2


def check_awfs(A: Awfs) -> Report:
    report = check_functorial_factorisation(A.ff)
    if not report.ok:
        return report
    C = A.C
    comp = C.comp
    ff = A.ff
    ident = C.identities

    class NonSquare(Exception):
        """A law asked for E on a boundary pair that is not a commuting
        square; this happens when Δ or μ is wrong, and is a violation."""

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
        # (1, Δf) must be a square λf → λλf; counit and coassociativity
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
        # (μf, 1) must be a square ρρf → ρf; units and associativity
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
                    # Δ natural: E(top, E(top,bottom))∘Δf = Δg∘E(top,bottom)
                    lhs = comp[(e_of(ff.lam[f], ff.lam[g], top, e),
                                A.delta[f])]
                    if lhs != comp[(A.delta[g], e)]:
                        nat.append({"law": "delta", "f": f, "g": g,
                                    "square": [top, bottom]})
                    # μ natural: E(top,bottom)∘μf = μg∘E(E(top,bottom), bottom)
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

    # distributive law: the middle square (Δf, μf): λρf → ρλf commutes,
    # and the one compatibility not already implied by the (co)monad laws
    dist = []
    for f in C.morphisms:
        lam, rho = ff.lam[f], ff.rho[f]
        d, m = A.delta[f], A.mu[f]
        if comp[(ff.rho[lam], d)] != comp[(m, ff.lam[rho])]:
            dist.append({"law": "middle-square", "f": f})
            continue
        # Δf∘μf = μ_{λf} ∘ E(Δf, μf) ∘ Δ_{ρf}
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


# ---------------------------------------------------------------------------
# coalgebras and algebras


class Coalgebra:
    """(f, s): s: cod f → Ef with s∘f = λf, ρf∘s = 1 and the
    coassociativity equation."""

    __slots__ = ("f", "s")

    def __init__(self, f, s):
        self.f = f
        self.s = s

    def __eq__(self, other):
        return isinstance(other, Coalgebra) and (self.f, self.s) == (other.f, other.s)

    def __hash__(self):
        return hash(("coalg", self.f, self.s))

    def __repr__(self):
        return f"<Coalgebra {self.f}; {self.s}>"


class Algebra:
    """(g, p): p: Eg → dom g with g∘p = ρg, p∘λg = 1 and the
    associativity equation."""

    __slots__ = ("g", "p")

    def __init__(self, g, p):
        self.g = g
        self.p = p

    def __eq__(self, other):
        return isinstance(other, Algebra) and (self.g, self.p) == (other.g, other.p)

    def __hash__(self):
        return hash(("alg", self.g, self.p))

    def __repr__(self):
        return f"<Algebra {self.g}; {self.p}>"


def is_coalgebra(A: Awfs, f, s) -> bool:
    C, ff = A.C, A.ff
    comp = C.comp
    if C.dom.get(s) != C.cod[f] or C.cod.get(s) != ff.mid[f]:
        return False
    if comp[(s, f)] != ff.lam[f]:
        return False
    if comp[(ff.rho[f], s)] != C.identities[C.cod[f]]:
        return False
    esq = ff.sq_map[(f, ff.lam[f], C.identities[C.dom[f]], s)]
    return comp[(esq, s)] == comp[(A.delta[f], s)]


def is_algebra(A: Awfs, g, p) -> bool:
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


def enumerate_coalgebras(A: Awfs, f):
    C, ff = A.C, A.ff
    return [Coalgebra(f, s) for s in C.hom(C.cod[f], ff.mid[f])
            if is_coalgebra(A, f, s)]


def enumerate_algebras(A: Awfs, g):
    C, ff = A.C, A.ff
    return [Algebra(g, p) for p in C.hom(ff.mid[g], C.dom[g])
            if is_algebra(A, g, p)]


class CoalgDouble(ConcreteDouble):
    """Concrete double category of coalgebras; squares are the commuting
    squares along which the structure maps are compatible."""

    def __init__(self, A: Awfs, name=""):
        super().__init__(A.C, name or "Coalg")
        self.A = A
        self._verts = None

    def verticals(self):
        if self._verts is None:
            out = []
            for f in self.base.morphisms:
                out.extend(enumerate_coalgebras(self.A, f))
            self._verts = tuple(out)
        return list(self._verts)

    def has_vertical(self, v):
        return isinstance(v, Coalgebra) and is_coalgebra(self.A, v.f, v.s)

    def underlying(self, v):
        return v.f

    def label(self, v):
        return f"{v.f};{v.s}"

    def identity_vertical(self, obj):
        f = self.base.identities[obj]
        return Coalgebra(f, self.A.ff.lam[f])

    def compose(self, w, v):
        # w = (g, t) after v = (f, s): structure map
        # μ_{gf} ∘ E(E(1,g)∘s, 1) ∘ t
        A, C = self.A, self.base
        comp = C.comp
        gf = comp[(w.f, v.f)]
        x = comp[(A.ff.sq_map[(v.f, gf, C.identities[C.dom[v.f]], w.f)], v.s)]
        e = A.ff.sq_map[(w.f, A.ff.rho[gf], x, C.identities[C.cod[w.f]])]
        s = comp[(A.mu[gf], comp[(e, w.s)])]
        out = Coalgebra(gf, s)
        if not self.has_vertical(out):
            raise ClosureError("composite is not a coalgebra",
                               (self.label(w), self.label(v)))
        return out

    def is_square(self, v, w, top, bottom):
        C = self.base
        if (top, bottom) not in C.squares(v.f, w.f):
            return False
        e = self.A.ff.sq_map[(v.f, w.f, top, bottom)]
        return C.comp[(e, v.s)] == C.comp[(w.s, bottom)]


class AlgDouble(ConcreteDouble):
    """Concrete double category of algebras."""

    def __init__(self, A: Awfs, name=""):
        super().__init__(A.C, name or "Alg")
        self.A = A
        self._verts = None

    def verticals(self):
        if self._verts is None:
            out = []
            for g in self.base.morphisms:
                out.extend(enumerate_algebras(self.A, g))
            self._verts = tuple(out)
        return list(self._verts)

    def has_vertical(self, v):
        return isinstance(v, Algebra) and is_algebra(self.A, v.g, v.p)

    def underlying(self, v):
        return v.g

    def label(self, v):
        return f"{v.g};{v.p}"

    def identity_vertical(self, obj):
        g = self.base.identities[obj]
        return Algebra(g, self.A.ff.rho[g])

    def compose(self, w, v):
        # w = (h, q) after v = (g, p): structure map
        # p ∘ E(1, q∘E(g,1)) ∘ Δ_{hg}
        A, C = self.A, self.base
        comp = C.comp
        hg = comp[(w.g, v.g)]
        y = comp[(w.p, A.ff.sq_map[(hg, w.g, v.g, C.identities[C.cod[w.g]])])]
        e = A.ff.sq_map[(A.ff.lam[hg], v.g, C.identities[C.dom[v.g]], y)]
        p = comp[(v.p, comp[(e, A.delta[hg])])]
        out = Algebra(hg, p)
        if not self.has_vertical(out):
            raise ClosureError("composite is not an algebra",
                               (self.label(w), self.label(v)))
        return out

    def is_square(self, v, w, top, bottom):
        C = self.base
        if (top, bottom) not in C.squares(v.g, w.g):
            return False
        e = self.A.ff.sq_map[(v.g, w.g, top, bottom)]
        return C.comp[(top, v.p)] == C.comp[(w.p, e)]


def coalg_double_category(A: Awfs) -> CoalgDouble:
    return CoalgDouble(A)


def alg_double_category(A: Awfs) -> AlgDouble:
    return AlgDouble(A)


def sem(A: Awfs) -> LiftingStructure:
    """The semantics lifting structure (Coalg, Φ, Alg) with
    Φ((f,s),(g,p),(u,v)) = p ∘ E(u,v) ∘ s."""
    L = CoalgDouble(A)
    R = AlgDouble(A)
    C = A.C

    def rule(j, k, top, bottom):
        e = A.ff.sq_map[(j.f, k.g, top, bottom)]
        return C.comp[(k.p, C.comp[(e, j.s)])]

    return LiftingStructure(L, RuleLifting(L, R, rule, name="sem"), R)


def factorisation_assignment(A: Awfs, S: LiftingStructure | None = None
                             ) -> FactorisationAssignment:
    """f ↦ ((λf, Δf) as coalgebra, Ef, (ρf, μf) as algebra)."""
    out = {}
    for f in A.C.morphisms:
        out[f] = (Coalgebra(A.ff.lam[f], A.delta[f]), A.ff.mid[f],
                  Algebra(A.ff.rho[f], A.mu[f]))
    return FactorisationAssignment(out)


# ---------------------------------------------------------------------------
# reconstruction


class ReconstructionError(ValueError):
    """A component of the awfs has zero or several candidates, so the
    structure fails the factorisation axiom; ``witness`` names the
    component and where."""

    def __init__(self, what, key, cands):
        super().__init__(f"{what} at {key}: {len(cands)} candidates {cands[:2]}")
        self.witness = (what, key)


def awfs_from_lifting(S: LiftingStructure, FA: FactorisationAssignment) -> Awfs:
    """Rebuild (E, λ, ρ, Δ, μ) from the universal properties of the
    factorisations.  Each component is found by exhaustive search and
    must be unique; a zero/multiple-witness search raises, which cannot
    happen if the factorisation axiom holds."""
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
        gf, _, hf = FA[f]
        for g in C.morphisms:
            gg, _, hg = FA[g]
            for top, bottom in C.squares(f, g):
                want_top = comp[(lam[g], top)]
                want_bot = comp[(bottom, rho[f])]
                cands = [a for a in C.hom(mid[f], mid[g])
                         if comp[(a, lam[f])] == want_top
                         and comp[(rho[g], a)] == want_bot
                         and R.is_square(hf, hg, a, bottom)]
                sq_map[(f, g, top, bottom)] = unique(
                    cands, "E on squares", (f, g, top, bottom))
    ff = FunctorialFactorisation(C, mid, lam, rho, sq_map)

    delta, mu = {}, {}
    for f in C.morphisms:
        gf, m, hf = FA[f]
        lf, rf = lam[f], rho[f]
        glf, _, _ = FA[lf]
        _, _, hrf = FA[rf]
        one_mid = C.identities[m]
        cands = [b for b in C.hom(m, mid[lf])
                 if comp[(b, lf)] == lam[lf]
                 and comp[(rho[lf], b)] == one_mid
                 and L.is_square(gf, glf, C.identities[C.dom[f]], b)]
        delta[f] = unique(cands, "delta", f)
        cands = [a for a in C.hom(mid[rf], m)
                 if comp[(a, lam[rf])] == one_mid
                 and comp[(rf, a)] == rho[rf]
                 and R.is_square(hrf, hf, a, C.identities[C.cod[f]])]
        mu[f] = unique(cands, "mu", f)
    return Awfs(ff, delta, mu)


def roundtrip_compare(S: LiftingStructure, A: Awfs) -> Report:
    """Compare S with sem(A) under the canonical identification: each
    left vertical must correspond to exactly one coalgebra over its
    underlying morphism (dually algebras), with equal square sets and an
    equal filler table."""
    report = Report()
    T = sem(A)
    L, R = S.left, S.right
    C = L.base

    def match(name, src, dst):
        table = {}
        by_f = {}
        for v in dst.verticals():
            by_f.setdefault(dst.underlying(v), []).append(v)
        bad = []
        for v in src.verticals():
            cands = by_f.get(src.underlying(v), [])
            if len(cands) != 1:
                bad.append({"vertical": src.label(v),
                            "candidates": [dst.label(c) for c in cands]})
            else:
                table[v] = cands[0]
        extra = [f for f, vs in by_f.items() if len(vs) > 1]
        n_src = len(list(src.verticals()))
        n_dst = sum(len(v) for v in by_f.values())
        if bad or extra or n_src != n_dst:
            bad = bad or [{"kind": "count", "source": n_src, "target": n_dst,
                           "ambiguous": extra}]
            report.add_violation(f"{name}-verticals", bad, cases=n_src)
            return None
        report.add_ok(f"{name}-verticals", cases=n_src)
        sqbad, n = [], 0
        verts = sorted(table, key=src.label)
        for v in verts:
            for w in verts:
                n += 1
                if set(src.squares(v, w)) != set(dst.squares(table[v], table[w])):
                    sqbad.append({"v": src.label(v), "w": src.label(w)})
        report.record(f"{name}-squares", sqbad, cases=n)
        if sqbad:
            return None
        return table

    lmap = match("left", L, T.left)
    rmap = match("right", R, T.right)
    if lmap is None or rmap is None:
        return report
    bad, n = [], 0
    for j in sorted(lmap, key=L.label):
        for k in sorted(rmap, key=R.label):
            for top, bottom in C.squares(L.underlying(j), R.underlying(k)):
                n += 1
                a = S.op.fill(j, k, top, bottom)
                b = T.op.fill(lmap[j], rmap[k], top, bottom)
                if a != b:
                    bad.append({"j": L.label(j), "k": R.label(k),
                                "square": [top, bottom], "original": a,
                                "reconstructed": b})
    report.record("fillers", bad, cases=n)
    return report


# ---------------------------------------------------------------------------
# morphisms of awfs and essential-image conditions


def check_awfs_morphism(A: Awfs, A2: Awfs, K: dict) -> Report:
    """K[f]: Ef → E'f must commute with both factorisations, be natural,
    and satisfy the monad- and comonad-morphism equations.  Both
    composition conventions reduce to the same two equations checked
    here, named by the structure they constrain."""
    report = Report()
    C = A.C
    comp = C.comp
    ff, ff2 = A.ff, A2.ff
    bad = []
    for f in C.morphisms:
        k = K.get(f)
        if k is None or C.dom.get(k) != ff.mid[f] or C.cod.get(k) != ff2.mid[f]:
            bad.append({"kind": "boundary", "f": f})
            continue
        if comp[(k, ff.lam[f])] != ff2.lam[f]:
            bad.append({"kind": "lambda-triangle", "f": f})
        if comp[(ff2.rho[f], k)] != ff.rho[f]:
            bad.append({"kind": "rho-triangle", "f": f})
    report.record("triangles", bad, cases=2 * len(C.morphisms))
    if bad:
        return report

    nat, n = [], 0
    for f in C.morphisms:
        for g in C.morphisms:
            for top, bottom in C.squares(f, g):
                n += 1
                lhs = comp[(ff2.sq_map[(f, g, top, bottom)], K[f])]
                rhs = comp[(K[g], ff.sq_map[(f, g, top, bottom)])]
                if lhs != rhs:
                    nat.append({"f": f, "g": g, "square": [top, bottom]})
    report.record("naturality", nat, cases=n)

    mon, com = [], []
    for f in C.morphisms:
        lf, rf = ff.lam[f], ff.rho[f]
        lf2, rf2 = ff2.lam[f], ff2.rho[f]
        # monad morphism: K_f∘μf = μ'f ∘ K_{ρ'f} ∘ E(K_f, 1)
        lhs = comp[(K[f], A.mu[f])]
        e = ff.sq_map[(rf, rf2, K[f], C.identities[C.cod[f]])]
        rhs = comp[(A2.mu[f], comp[(K[rf2], e)])]
        if lhs != rhs:
            mon.append({"f": f, "lhs": lhs, "rhs": rhs})
        # comonad morphism: K_{λ'f} ∘ E(1, K_f) ∘ Δf = Δ'f ∘ K_f
        e = ff.sq_map[(lf, lf2, C.identities[C.dom[f]], K[f])]
        lhs = comp[(K[lf2], comp[(e, A.delta[f])])]
        rhs = comp[(A2.delta[f], K[f])]
        if lhs != rhs:
            com.append({"f": f, "lhs": lhs, "rhs": rhs})
    report.record("monad-morphism", mon, cases=len(C.morphisms))
    report.record("comonad-morphism", com, cases=len(C.morphisms))
    return report


def check_essential_image(U: ConcreteDouble,
                          budget: Budget | None = None) -> Report:
    """Necessary conditions for a concrete double category to arise from
    an awfs: faithful labelling, lawful identities/composition over the
    base, and right-connectedness (every vertical v over f admits the
    square (f, 1) into the identity vertical on cod f)."""
    report = Report()
    represented = not U.explicit
    if represented and budget is None:
        budget = Budget()
    C = U.base

    def body():
        verts = U.verticals()
        seen = {}
        bad = []
        for v in verts:
            if budget:
                budget.spend()
            lbl = U.label(v)
            if lbl in seen and seen[lbl] != v:
                bad.append({"kind": "label-collision", "label": lbl})
            seen[lbl] = v
            if U.underlying(v) not in C.dom:
                bad.append({"kind": "unknown-underlying", "vertical": lbl})
        report.record("concreteness", bad, cases=len(verts))
        if bad:
            return

        idbad = []
        for o in C.objects:
            i = U.identity_vertical(o)
            if U.underlying(i) != C.identities[o]:
                idbad.append({"object": o})
        report.record("identity-verticals", idbad, cases=len(C.objects))

        rc = []
        for v in verts:
            if budget:
                budget.spend()
            f = U.underlying(v)
            cod = C.cod[f]
            ivert = U.identity_vertical(cod)
            if not U.is_square(v, ivert, f, C.identities[cod]):
                rc.append({"vertical": U.label(v), "f": f})
        report.record("right-connectedness", rc, cases=len(verts))

    run_bounded(report, "essential-image", body, budget)
    if represented and not report.violations():
        report.add_inconclusive(
            "represented", cases=budget.used if budget else 0,
            note="represented realization: spot-checked under budget")
    if budget:
        report.budget_used = budget.used
    return report
