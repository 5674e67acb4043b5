"""Functorial factorisations, their comonad/monad structure, the
coalgebra and algebra double categories, the semantics lifting structure,
and reconstruction of the whole package from a lifting structure that
satisfies the lifting and factorisation axioms.

Every law is a morphism equality in the base category, checked by table
lookup over all morphisms and all commuting squares.  Reconstruction
finds E, Δ and μ with the factorisation axiom's own search
(:func:`fwfs.lifting.factorisations`).  Functoriality of
E is checked on the pairs of squares of :func:`generating_square_pairs`,
which imply all the others.

An awfs (E, λ, ρ, Δ, μ) on C is the awfs (E^op, ρ, λ, μ, Δ) on C^op
(:meth:`Awfs.dual`), whose coalgebras are the algebras of the original
and whose comonad laws are its monad laws (Grandis–Tholen 2006,
Bourke–Garner 2016).  So the algebra side, the monad laws and
naturality of μ are the coalgebra and comonad code run on the dual.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .dblcat import (ClosureError, ConcreteDouble, ConcreteDoubleMap,
                     OppositeDouble, record_vertical_laws)
from .fincat import FinCategory, OppositeCategory
from .lifting import (FactorisationAssignment, LiftingStructure,
                      RuleLifting, factorisations, lifting_problems)
from .report import UNBOUNDED, Budget, Cases, Report


@dataclass
class FunctorialFactorisation:
    """f ↦ (λf: dom f → Ef, ρf: Ef → cod f) with ρf∘λf = f, functorial
    on squares via ``sq_map[(f, g, top, bottom)] = E(top, bottom)``."""

    C: FinCategory
    mid: dict     # f -> middle object Ef
    lam: dict     # f -> λf
    rho: dict     # f -> ρf
    sq_map: dict  # (f, g, top, bottom) -> E(top,bottom): Ef -> Eg

    def dual(self) -> FunctorialFactorisation:
        """The same factorisation on C^op, where f = λf∘ρf: λ and ρ swap,
        and E is read through a transposing view, never copied."""
        return FunctorialFactorisation(self.C.op(), self.mid, self.rho,
                                       self.lam, TransposedSquares(self.sq_map))


class TransposedSquares:
    """E on the squares of C^op as a view of E on those of C: the entry
    for (f, g, top, bottom) is E's for (g, f, bottom, top).  A missing
    entry raises the KeyError of C's key."""

    __slots__ = ("original",)

    def __init__(self, E):
        self.original = E

    def __getitem__(self, key):
        f, g, top, bottom = key
        return self.original[(g, f, bottom, top)]


@dataclass
class Awfs:
    """A functorial factorisation with comonad comultiplication Δ and
    monad multiplication μ (Δf: Ef → Eλf, μf: Eρf → Ef)."""

    ff: FunctorialFactorisation
    delta: dict  # f -> Δf
    mu: dict     # f -> μf
    _dual: Awfs | None = field(default=None, init=False, repr=False,
                               compare=False)

    @property
    def C(self):
        return self.ff.C

    def dual(self) -> Awfs:
        """(E^op, ρ, λ, μ, Δ) on C^op, whose coalgebras are the algebras
        of this awfs.  It reads this awfs's tables and is built once, so
        C^op lives as long as the awfs once it is asked for."""
        if self._dual is None:
            self._dual = Awfs(self.ff.dual(), self.mu, self.delta)
        return self._dual


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


class _NonSquare(Exception):
    """A law asked for E on a boundary pair that is not a commuting
    square; this happens when Δ or μ is wrong, and is a violation."""


def _e(ff: FunctorialFactorisation, *key):
    """E of a square, or :class:`_NonSquare` with the pair as C writes
    it (a dual's view raises the KeyError of C's key)."""
    try:
        return ff.sq_map[key]
    except KeyError as ex:
        raise _NonSquare(ex.args[0]) from None


def _comonad_laws(A: Awfs, f):
    """Witnesses against the comonad laws at f: (1, Δf) is a square
    λf → λλf, the two counit laws and coassociativity."""
    C, ff = A.C, A.ff
    comp = C.comp
    lam, d = ff.lam[f], A.delta[f]
    one, one_dom = C.identities[ff.mid[f]], C.identities[C.dom[f]]
    bad = []
    try:
        if comp[(d, lam)] != ff.lam[lam]:
            bad.append({"law": "comult-square", "f": f})
        if comp[(ff.rho[lam], d)] != one:
            bad.append({"law": "counit-left", "f": f})
        if comp[(_e(ff, lam, f, one_dom, ff.rho[f]), d)] != one:
            bad.append({"law": "counit-right", "f": f})
        lhs = comp[(A.delta[lam], d)]
        rhs = comp[(_e(ff, lam, ff.lam[lam], one_dom, d), d)]
        if lhs != rhs:
            bad.append({"law": "coassociativity", "f": f,
                        "lhs": lhs, "rhs": rhs})
    except _NonSquare as ex:
        bad.append({"law": "non-square", "f": f, "key": list(ex.args[0])})
    return bad


# the comonad laws of the dual awfs are the monad laws, under these names
_MONAD_LAWS = {"comult-square": "mult-square", "counit-left": "unit-left",
               "counit-right": "unit-right",
               "coassociativity": "associativity", "non-square": "non-square"}


def _delta_natural(A: Awfs, f, g, top, bottom) -> bool:
    """Δ natural at the square (top, bottom): f → g:
    E(top, E(top,bottom))∘Δf = Δg∘E(top,bottom)."""
    ff = A.ff
    E, lam, comp = ff.sq_map, ff.lam, ff.C.comp
    try:  # :func:`_e` inlined, as this runs twice per square
        e = E[(f, g, top, bottom)]
        x = E[(lam[f], lam[g], top, e)]
    except KeyError as ex:
        raise _NonSquare(ex.args[0]) from None
    return comp[(x, A.delta[f])] == comp[(A.delta[g], e)]


def check_awfs(A: Awfs) -> Report:
    """The awfs laws.  The monad laws and naturality of μ are checked as
    the comonad laws and naturality of Δ of :meth:`Awfs.dual`."""
    report = check_functorial_factorisation(A.ff)
    if not report.ok:
        return report
    C = A.C
    comp = C.comp
    ff = A.ff
    dual = A.dual()

    bad = []
    for f in C.morphisms:
        # Δf: Ef → Eλf, and μf: Eρf → Ef is that map of the dual
        for kind, B in (("delta-boundary", A), ("mu-boundary", dual)):
            d, Bc = B.delta.get(f), B.C
            if (d is None or Bc.dom.get(d) != ff.mid[f]
                    or Bc.cod.get(d) != ff.mid[B.ff.lam[f]]):
                bad.append({"kind": kind, "f": f})
    report.record("boundaries", bad, cases=2 * len(C.morphisms))
    if bad:
        return report

    co, mo = [], []
    for f in C.morphisms:
        co += _comonad_laws(A, f)
        mo += [{**w, "law": _MONAD_LAWS[w["law"]]}
               for w in _comonad_laws(dual, f)]
    report.record("comonad", co, cases=4 * len(C.morphisms))
    report.record("monad", mo, cases=4 * len(C.morphisms))

    nat, n = [], 0
    for f in C.morphisms:
        for g in C.morphisms:
            for top, bottom in C.squares(f, g):
                n += 2
                try:
                    if not _delta_natural(A, f, g, top, bottom):
                        nat.append({"law": "delta", "f": f, "g": g,
                                    "square": [top, bottom]})
                    # μ natural: Δ of the dual natural at the same square,
                    # which is (bottom, top): g → f in C^op
                    if not _delta_natural(dual, g, f, bottom, top):
                        nat.append({"law": "mu", "f": f, "g": g,
                                    "square": [top, bottom]})
                except _NonSquare as ex:
                    nat.append({"law": "non-square", "f": f, "g": g,
                                "key": list(ex.args[0])})
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
            e = _e(ff, ff.lam[rho], ff.rho[lam], d, m)
            rhs = comp[(A.mu[lam], comp[(e, A.delta[rho])])]
            if lhs != rhs:
                dist.append({"law": "delta-mu-interchange", "f": f,
                             "lhs": lhs, "rhs": rhs})
        except _NonSquare as ex:
            dist.append({"law": "non-square", "f": f, "key": list(ex.args[0])})
    report.record("distributive-law", dist, cases=2 * len(C.morphisms))
    return report


# ---------------------------------------------------------------------------
# coalgebras and algebras


class Coalgebra:
    """(f, s): s: cod f → Ef with s∘f = λf, ρf∘s = 1 and the
    coassociativity equation."""

    __slots__ = ("f", "s")
    what = "a coalgebra"

    def __init__(self, f, s):
        self.f = f
        self.s = s

    def __eq__(self, other):
        return type(other) is type(self) and (self.f, self.s) == (other.f, other.s)

    def __hash__(self):
        return hash((self.f, self.s))

    def __repr__(self):
        return f"<{type(self).__name__} {self.f}; {self.s}>"


class Algebra(Coalgebra):
    """(g, p): p: Eg → dom g with g∘p = ρg, p∘λg = 1 and the
    associativity equation.

    It is the coalgebra of the dual awfs over g, whose structure map
    cod g → Eg in C^op is p, read under the names g and p."""

    __slots__ = ()
    what = "an algebra"
    g, p = Coalgebra.f, Coalgebra.s


def _coalgebra_class(C: FinCategory):
    """The coalgebras of an awfs on C^op are the algebras of its dual."""
    return Algebra if isinstance(C, OppositeCategory) else Coalgebra


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
    return is_coalgebra(A.dual(), g, p)


def enumerate_coalgebras(A: Awfs, f):
    C, ff = A.C, A.ff
    V = _coalgebra_class(C)
    return [V(f, s) for s in C.hom(C.cod[f], ff.mid[f])
            if is_coalgebra(A, f, s)]


def enumerate_algebras(A: Awfs, g):
    return enumerate_coalgebras(A.dual(), g)


class CoalgDouble(ConcreteDouble):
    """Concrete double category of coalgebras; squares are the commuting
    squares along which the structure maps are compatible."""

    def __init__(self, A: Awfs, name=""):
        super().__init__(A.C, name or "Coalg")
        self.A = A
        self.vertical = _coalgebra_class(A.C)
        self._verts = None

    def verticals(self):
        if self._verts is None:
            self._verts = tuple(v for f in self.base.morphisms
                                for v in enumerate_coalgebras(self.A, f))
        return list(self._verts)

    def has_vertical(self, v):
        return type(v) is self.vertical and is_coalgebra(self.A, v.f, v.s)

    def underlying(self, v):
        return v.f

    def label(self, v):
        return f"{v.f};{v.s}"

    def identity_vertical(self, obj):
        f = self.base.identities[obj]
        return self.vertical(f, self.A.ff.lam[f])

    def compose(self, w, v):
        # w = (g, t) after v = (f, s): structure map
        # μ_{gf} ∘ E(E(1,g)∘s, 1) ∘ t
        A, C = self.A, self.base
        comp = C.comp
        gf = comp[(w.f, v.f)]
        x = comp[(A.ff.sq_map[(v.f, gf, C.identities[C.dom[v.f]], w.f)], v.s)]
        e = A.ff.sq_map[(w.f, A.ff.rho[gf], x, C.identities[C.cod[w.f]])]
        s = comp[(A.mu[gf], comp[(e, w.s)])]
        out = self.vertical(gf, s)
        if not self.has_vertical(out):
            raise ClosureError(f"composite is not {out.what}",
                               (self.label(w), self.label(v)))
        return out

    def is_square(self, v, w, top, bottom):
        C = self.base
        if not C.commutes(v.f, w.f, top, bottom):
            return False
        e = self.A.ff.sq_map[(v.f, w.f, top, bottom)]
        return C.comp[(e, v.s)] == C.comp[(w.s, bottom)]


class AlgDouble(OppositeDouble):
    """Concrete double category of algebras: the coalgebras of the dual
    awfs, seen from C."""

    def __init__(self, A: Awfs, name=""):
        super().__init__(CoalgDouble(A.dual()), name or "Alg")
        self.A = A


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
    """Rebuild (E, λ, ρ, Δ, μ) by the factorisation axiom's search
    (:func:`factorisations`): Δf factors (1, 1): λf → λf with x = g_f;
    on the dual, E(t, b) factors (λg∘t, b): f → ρg with x = h_g, and μf
    factors (1, 1): ρf → ρf with x = h_f.  A search without exactly one
    result raises, which cannot happen if the axiom holds."""
    L, R = S.left, S.right
    C = L.base
    comp, ident = C.comp, C.identities
    mid, lam, rho = {}, {}, {}
    for f in C.morphisms:
        g, mid[f], h = FA[f]
        lam[f] = L.underlying(g)
        rho[f] = R.underlying(h)

    def unique(cands, what, key):
        if len(cands) != 1:
            raise ReconstructionError(what, key, cands)
        return cands[0]

    dual = (S.dual(), FA.dual())
    sq_map = {}
    for f in C.morphisms:
        search = factorisations(*dual, f)
        for g in C.morphisms:
            hg = FA[g][2]
            for top, bottom in C.squares(f, g):
                sq_map[(f, g, top, bottom)] = unique(
                    search(hg, rho[g], bottom, comp[(lam[g], top)]),
                    "E on squares", (f, g, top, bottom))

    delta, mu = {}, {}
    for f in C.morphisms:
        g, _, h = FA[f]
        delta[f] = unique(factorisations(S, FA, lam[f])(
            g, lam[f], ident[C.dom[f]], ident[mid[f]]), "delta", f)
        mu[f] = unique(factorisations(*dual, rho[f])(
            h, rho[f], ident[C.cod[f]], ident[mid[f]]), "mu", f)
    return Awfs(FunctorialFactorisation(C, mid, lam, rho, sq_map), delta, mu)


def roundtrip_compare(S: LiftingStructure, A: Awfs) -> Report:
    """Compare S with sem(A) under the canonical identification: each
    left vertical must correspond to exactly one coalgebra over its
    underlying morphism (dually algebras), with equal square sets and an
    equal filler table."""
    report = Report()
    T = sem(A)
    L, R = S.left, S.right

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
        if not bad and (extra or n_src != n_dst):
            bad = [{"kind": "count", "source": n_src, "target": n_dst,
                    "ambiguous": extra}]
        report.record(f"{name}-verticals", bad, cases=n_src)
        if bad:
            return None
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
    for j, k, top, bottom in lifting_problems(L, R):
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
                          budget: Budget = UNBOUNDED) -> Report:
    """Necessary conditions for a concrete double category to arise from
    an awfs: faithful labelling, the vertical laws of U's identity map
    (:func:`~fwfs.dblcat.record_vertical_laws`), and right-connectedness
    (every vertical v over f admits the square (f, 1) into the identity
    vertical on cod f, which must exist).  The verticals over every
    morphism are enumerated, under a private default ``Budget()`` for an
    oracle-backed U given none."""
    report = Report()
    if not U.explicit and budget is UNBOUNDED:
        budget = Budget()
    C = U.base
    with report.bounded("essential-image", budget):
        verts = [v for f in C.morphisms for v in U.verticals_over(f, budget)]
        seen, labels = {}, Cases(budget)
        for v in verts:
            labels.case()
            lbl = U.label(v)
            if lbl in seen and seen[lbl] != v:
                labels.bad.append({"kind": "label-collision", "label": lbl})
            seen[lbl] = v
        report.record("concreteness", labels.bad, cases=labels.n)
        if labels.bad:
            return report

        ids = record_vertical_laws(
            report, ConcreteDoubleMap(U, U, {v: v for v in verts}), verts, budget)
        rc = Cases(budget)
        for v in verts:
            rc.case()
            f = U.underlying(v)
            cod = C.cod[f]
            if cod not in ids or not U.is_square(v, ids[cod], f, C.identities[cod]):
                rc.bad.append({"vertical": U.label(v), "f": f})
        report.record("right-connectedness", rc.bad, cases=rc.n)
    return report
