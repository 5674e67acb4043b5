"""Double categories of maps over a fixed base category.

Two realizations live behind one interface: explicit tables for finite
data (:class:`ClassDouble`, and anything convertible via
:meth:`ConcreteDouble.to_internal`), and oracle-backed ones for the
left/right lifting-property double categories, whose verticals are only
ever enumerated under an explicit budget (see :mod:`fwfs.lifting`).

A concrete double category over C is the identity on objects and
horizontal arrows, faithful on verticals and squares; squares are always
stored with their (top, bottom) boundary pair.  Each one has an opposite
view over C^op (:class:`OppositeDouble`), which is how :mod:`fwfs.lifting`
derives every left-lifting construction from its right-lifting dual.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from .fincat import (FinCategory, Functor, check_category, check_functor,
                     identity_functor)
from .report import UNBOUNDED, Budget, Report, run_bounded


class ClosureError(ValueError):
    """A morphism class is not closed under composition / lacks identities."""

    def __init__(self, message, witness):
        super().__init__(f"{message}: {witness}")
        self.witness = witness


class ConcreteDouble:
    """Base interface for concrete double categories over ``base``.

    Verticals are hashable values; ``label`` gives the deterministic
    string used for sorting and reports, ``underlying`` the morphism of
    the base category beneath a vertical.
    """

    explicit = True

    def __init__(self, base: FinCategory, name=""):
        self.base = base
        self.name = name
        self._op = None  # weak reference to the opposite view

    # --- vertical interface -------------------------------------------------
    def verticals(self):
        raise NotImplementedError

    def has_vertical(self, v) -> bool:
        raise NotImplementedError

    def underlying(self, v) -> str:
        raise NotImplementedError

    def label(self, v) -> str:
        raise NotImplementedError

    def identity_vertical(self, obj):
        raise NotImplementedError

    def compose(self, w, v):
        """Vertical composite, w after v."""
        raise NotImplementedError

    def composable(self, w, v) -> bool:
        return self.base.cod[self.underlying(v)] == self.base.dom[self.underlying(w)]

    # --- squares ------------------------------------------------------------
    def is_square(self, v, w, top, bottom) -> bool:
        raise NotImplementedError

    def squares(self, v, w):
        """Structure squares v -> w, as (top, bottom) pairs."""
        uv, uw = self.underlying(v), self.underlying(w)
        return [s for s in self.base.squares(uv, uw) if self.is_square(v, w, *s)]

    def verticals_over(self, f, budget: Budget = UNBOUNDED):
        return [v for v in self.verticals() if self.underlying(v) == f]

    # --- enumeration order ----------------------------------------------------
    def pairs(self, verts):
        """The pairs (v, w) of ``verts``, v outer: the order in which the
        checkers walk the squares v -> w."""
        return ((v, w) for v in verts for w in verts)

    def composable_pairs(self, verts):
        """The pairs (v, w) of ``verts`` with w∘v defined, v outer."""
        return ((v, w) for v, w in self.pairs(verts) if self.composable(w, v))

    def op(self):
        """The opposite view over C^op, built once for as long as
        anything holds it."""
        op = self._op() if self._op else None
        return op if op is not None else OppositeDouble(self)

    def __repr__(self):
        return f"<{type(self).__name__} {self.name or ''} over {self.base!r}>"


class OppositeDouble(ConcreteDouble):
    """D^op over C^op as a view of D: the same verticals, labels and
    underlying morphisms, vertical composition reversed, and the square
    (top, bottom): v -> w of D^op is the square (bottom, top): w -> v of
    D.  Squares and vertical pairs come in D's order.  The opposite of
    the view is D, and the view is D's opposite for as long as it lives,
    so that a view built by a subclass is found again from D."""

    def __init__(self, D: ConcreteDouble, name=""):
        super().__init__(D.base.op(), name or f"{D.name}^op")
        self.explicit = D.explicit
        self.original = D
        D._op = weakref.ref(self)
        # the verticals are D's: read them from D itself
        self.verticals = D.verticals
        self.verticals_over = D.verticals_over
        self.has_vertical = D.has_vertical
        self.underlying = D.underlying
        self.label = D.label
        self.identity_vertical = D.identity_vertical

    def op(self):
        return self.original

    def compose(self, w, v):
        return self.original.compose(v, w)

    def is_square(self, v, w, top, bottom):
        return self.original.is_square(w, v, bottom, top)

    def squares(self, v, w):
        return [(bottom, top) for top, bottom in self.original.squares(w, v)]

    def pairs(self, verts):
        return ((w, v) for v, w in self.original.pairs(verts))


class ClassDouble(ConcreteDouble):
    """The double category induced by a class of morphisms: verticals are
    the members and every commuting square between members is a square."""

    def __init__(self, base, members, name=""):
        super().__init__(base, name)
        self.members = tuple(sorted(set(members)))
        self._members = frozenset(self.members)

    def verticals(self):
        return list(self.members)

    def has_vertical(self, v):
        return v in self._members

    def underlying(self, v):
        return v

    def label(self, v):
        return v

    def identity_vertical(self, obj):
        i = self.base.identities[obj]
        if i not in self._members:
            raise ClosureError("missing identity", obj)
        return i

    def compose(self, w, v):
        c = self.base.comp[(w, v)]
        if c not in self._members:
            raise ClosureError("class not closed", (w, v))
        return c

    def is_square(self, v, w, top, bottom):
        return (top, bottom) in self.base.squares(v, w)

    def squares(self, v, w):
        return list(self.base.squares(v, w))


def sq(C: FinCategory) -> ClassDouble:
    """The double category of all commuting squares of C."""
    return ClassDouble(C, C.morphisms, name=f"Sq({C.name or 'C'})")


def dbl_from_class(C: FinCategory, members, name="") -> ClassDouble:
    """Build D(E) for a class E; E must contain the identities and be
    closed under composition, otherwise a :class:`ClosureError` names a
    witness (never silently repaired)."""
    members = sorted(set(members))
    mset = frozenset(members)
    for m in members:
        if m not in C.dom:
            raise ClosureError("unknown morphism", m)
    for obj in C.objects:
        if C.identities[obj] not in mset:
            raise ClosureError("missing identity", obj)
    for f in members:
        for g in members:
            if C.cod[f] == C.dom[g] and C.comp[(g, f)] not in mset:
                raise ClosureError("class not closed", (g, f))
    return ClassDouble(C, members, name=name)


# ---------------------------------------------------------------------------
# internal-category presentation


def square_id(v, w, top, bottom) -> str:
    return f"[{top}|{bottom}]:{v}=>{w}"


@dataclass
class DoubleCategory:
    """Internal-category presentation: cat0 holds objects and horizontal
    arrows, cat1 verticals and squares; d, c, i are the vertical
    domain/codomain/identity functors and m the vertical composition on
    verticals (m_vert) and squares (m_sq)."""

    cat0: FinCategory
    cat1: FinCategory
    d: Functor
    c: Functor
    i: Functor
    m_vert: dict  # (w, v) -> w∘v, for verticals with d(w) = c(v)
    m_sq: dict    # (beta, alpha) -> vertical pasting, for squares with d(beta) = c(alpha)
    name: str = ""


def to_internal(D: ConcreteDouble, budget: Budget = UNBOUNDED) -> DoubleCategory:
    """Materialize the internal-category tables of a concrete double
    category.  For oracle-backed realizations this enumerates verticals
    under the given budget."""
    base = D.base
    verts = sorted(D.verticals(), key=D.label)
    label = {D.label(v): v for v in verts}
    vids = [D.label(v) for v in verts]
    morphs = []
    sqdata = {}
    identities = {}
    for vi in vids:
        v = label[vi]
        for wi in vids:
            w = label[wi]
            for top, bottom in D.squares(v, w):
                budget.spend()
                mid = square_id(vi, wi, top, bottom)
                morphs.append((mid, vi, wi))
                sqdata[mid] = (vi, wi, top, bottom)
        uv = D.underlying(v)
        identities[vi] = square_id(vi, vi, base.identities[base.dom[uv]],
                                   base.identities[base.cod[uv]])
    comp = {}
    by_dom = {}
    for mid, dm, _ in morphs:
        by_dom.setdefault(dm, []).append(mid)
    for mid, dm, cm in morphs:
        v, w, t1, b1 = sqdata[mid]
        for nid in by_dom.get(cm, ()):
            _, x, t2, b2 = sqdata[nid]
            comp[(nid, mid)] = square_id(v, x, base.comp[(t2, t1)],
                                         base.comp[(b2, b1)])
    cat1 = FinCategory(vids, morphs, identities, comp, name="verticals")
    d = Functor(cat1, base, {vi: base.dom[D.underlying(label[vi])] for vi in vids},
                {mid: sqdata[mid][2] for mid in sqdata}, name="d")
    c = Functor(cat1, base, {vi: base.cod[D.underlying(label[vi])] for vi in vids},
                {mid: sqdata[mid][3] for mid in sqdata}, name="c")
    i = Functor(base, cat1,
                {o: D.label(D.identity_vertical(o)) for o in base.objects},
                {h: square_id(D.label(D.identity_vertical(base.dom[h])),
                              D.label(D.identity_vertical(base.cod[h])), h, h)
                 for h in base.morphisms},
                name="i")
    m_vert = {}
    for vi in vids:
        for wi in vids:
            if D.composable(label[wi], label[vi]):
                m_vert[(wi, vi)] = D.label(D.compose(label[wi], label[vi]))
    m_sq = {}
    for aid, (v1, v2, t, b) in sqdata.items():
        for bid, (w1, w2, t2, b2) in sqdata.items():
            if t2 == b:  # d(beta) = c(alpha): vertically stackable
                m_sq[(bid, aid)] = square_id(m_vert[(w1, v1)], m_vert[(w2, v2)],
                                             t, b2)
    return DoubleCategory(base, cat1, d, c, i, m_vert, m_sq, name=D.name)


def check_double_category(D, budget: Budget = UNBOUNDED) -> Report:
    """Verify the internal-category axioms and the interchange law.

    Accepts either a :class:`DoubleCategory` or a :class:`ConcreteDouble`.
    Oracle-backed realizations are spot-checked under budget and reported
    inconclusive rather than ok.
    """
    represented = isinstance(D, ConcreteDouble) and not D.explicit
    report = Report()
    if isinstance(D, ConcreteDouble):
        if represented and budget is UNBOUNDED:
            budget = Budget()

        def materialize():
            nonlocal D
            D = to_internal(D, budget)
        run_bounded(report, "materialization", materialize, budget)
        if not report.ok:
            return report
    report.merge(check_category(D.cat0), prefix="cat0-")
    report.merge(check_category(D.cat1), prefix="cat1-")
    if not report.ok:
        return report
    for F, nm in ((D.d, "d"), (D.c, "c"), (D.i, "i")):
        sub = check_functor(F)
        if not sub.ok:
            report.merge(sub, prefix=f"{nm}-")
    bad = []
    for o in D.cat0.objects:
        if D.d.obj_map[D.i.obj_map[o]] != o or D.c.obj_map[D.i.obj_map[o]] != o:
            bad.append({"kind": "section-object", "object": o})
    for h in D.cat0.morphisms:
        if D.d.mor_map[D.i.mor_map[h]] != h or D.c.mor_map[D.i.mor_map[h]] != h:
            bad.append({"kind": "section-morphism", "morphism": h})
    report.record("identity-section", bad,
                  cases=len(D.cat0.objects) + len(D.cat0.morphisms))

    # m total exactly on composable pairs, with correct boundaries
    tot = []
    n = 0
    for v in D.cat1.objects:
        for w in D.cat1.objects:
            if D.d.obj_map[w] == D.c.obj_map[v]:
                n += 1
                wv = D.m_vert.get((w, v))
                if wv is None:
                    tot.append({"kind": "undefined-vertical-composite", "w": w, "v": v})
                elif (D.d.obj_map[wv] != D.d.obj_map[v]
                      or D.c.obj_map[wv] != D.c.obj_map[w]):
                    tot.append({"kind": "vertical-boundary", "w": w, "v": v})
    for (w, v) in D.m_vert:
        if D.d.obj_map.get(w) != D.c.obj_map.get(v):
            tot.append({"kind": "non-composable-verticals", "w": w, "v": v})
    for a in D.cat1.morphisms:
        for b in D.cat1.morphisms:
            if D.d.mor_map[b] == D.c.mor_map[a]:
                n += 1
                if (b, a) not in D.m_sq:
                    tot.append({"kind": "undefined-square-composite", "beta": b, "alpha": a})
    for (b, a) in D.m_sq:
        if D.d.mor_map.get(b) != D.c.mor_map.get(a):
            tot.append({"kind": "non-stackable-squares", "beta": b, "alpha": a})
    report.record("m-totality", tot, cases=n)
    if tot:
        return report

    # m unital and associative on verticals
    unital = []
    for v in D.cat1.objects:
        top = D.i.obj_map[D.c.obj_map[v]]
        bot = D.i.obj_map[D.d.obj_map[v]]
        if D.m_vert[(top, v)] != v or D.m_vert[(v, bot)] != v:
            unital.append({"kind": "vertical-unit", "vertical": v})
    for a in D.cat1.morphisms:
        top = D.i.mor_map[D.c.mor_map[a]]
        bot = D.i.mor_map[D.d.mor_map[a]]
        if D.m_sq[(top, a)] != a or D.m_sq[(a, bot)] != a:
            unital.append({"kind": "square-unit", "square": a})
    report.record("m-units", unital,
                  cases=len(D.cat1.objects) + len(D.cat1.morphisms))

    def associativity():
        assoc = []
        n = 0
        for (w, v), wv in D.m_vert.items():
            for x in D.cat1.objects:
                if D.d.obj_map[x] == D.c.obj_map[w]:
                    n += 1
                    budget.spend()
                    if D.m_vert[(x, wv)] != D.m_vert[(D.m_vert[(x, w)], v)]:
                        assoc.append({"kind": "vertical", "x": x, "w": w, "v": v})
        for (b, a), ba in D.m_sq.items():
            for g in D.cat1.morphisms:
                if D.d.mor_map[g] == D.c.mor_map[b]:
                    n += 1
                    budget.spend()
                    if D.m_sq[(g, ba)] != D.m_sq[(D.m_sq[(g, b)], a)]:
                        assoc.append({"kind": "square", "gamma": g, "beta": b,
                                      "alpha": a})
        report.record("m-associativity", assoc, cases=n)
    run_bounded(report, "m-associativity", associativity, budget)

    def interchange():
        # m is functorial on 2x2 grids of squares
        inter = []
        n = 0
        comp1 = D.cat1.comp
        horiz = {}
        for (g, f) in comp1:
            horiz.setdefault(f, []).append(g)
        for (b, a), ba in D.m_sq.items():
            # horizontal successors of the stacked pair (b', a') with a' after a, b' after b
            for a2 in horiz.get(a, ()):
                for b2 in horiz.get(b, ()):
                    if D.d.mor_map[b2] == D.c.mor_map[a2]:
                        n += 1
                        budget.spend()
                        lhs = D.m_sq[(comp1[(b2, b)], comp1[(a2, a)])]
                        rhs = comp1[(D.m_sq[(b2, a2)], ba)]
                        if lhs != rhs:
                            inter.append({"alpha": a, "beta": b,
                                          "alpha2": a2, "beta2": b2})
        # m preserves identity squares of cat1
        for (w, v), wv in D.m_vert.items():
            if D.m_sq[(D.cat1.identities[w], D.cat1.identities[v])] != D.cat1.identities[wv]:
                inter.append({"kind": "identity-square", "w": w, "v": v})
        report.record("interchange", inter, cases=n)
    run_bounded(report, "interchange", interchange, budget)

    if represented and report.ok:
        note = "represented realization: spot-checked under budget"
        report.add_inconclusive("represented", cases=budget.used, note=note)
    return report


# ---------------------------------------------------------------------------
# double functors


@dataclass
class DoubleFunctor:
    """Internal functor between internal-category presentations."""

    source: DoubleCategory
    target: DoubleCategory
    f0: Functor
    f1: Functor
    name: str = ""


def check_double_functor(F: DoubleFunctor) -> Report:
    report = Report()
    report.merge(check_functor(F.f0), prefix="f0-")
    report.merge(check_functor(F.f1), prefix="f1-")
    if not report.ok:
        return report
    S, T = F.source, F.target
    bad = []
    for v in S.cat1.objects:
        if T.d.obj_map[F.f1.obj_map[v]] != F.f0.obj_map[S.d.obj_map[v]]:
            bad.append({"kind": "d", "vertical": v})
        if T.c.obj_map[F.f1.obj_map[v]] != F.f0.obj_map[S.c.obj_map[v]]:
            bad.append({"kind": "c", "vertical": v})
    for a in S.cat1.morphisms:
        if T.d.mor_map[F.f1.mor_map[a]] != F.f0.mor_map[S.d.mor_map[a]]:
            bad.append({"kind": "d", "square": a})
        if T.c.mor_map[F.f1.mor_map[a]] != F.f0.mor_map[S.c.mor_map[a]]:
            bad.append({"kind": "c", "square": a})
    report.record("boundary-functors", bad,
                  cases=2 * (len(S.cat1.objects) + len(S.cat1.morphisms)))

    ibad = []
    for o in S.cat0.objects:
        if F.f1.obj_map[S.i.obj_map[o]] != T.i.obj_map[F.f0.obj_map[o]]:
            ibad.append({"object": o})
    for h in S.cat0.morphisms:
        if F.f1.mor_map[S.i.mor_map[h]] != T.i.mor_map[F.f0.mor_map[h]]:
            ibad.append({"morphism": h})
    report.record("i-preservation", ibad,
                  cases=len(S.cat0.objects) + len(S.cat0.morphisms))

    mbad = []
    for (w, v), wv in S.m_vert.items():
        if T.m_vert[(F.f1.obj_map[w], F.f1.obj_map[v])] != F.f1.obj_map[wv]:
            mbad.append({"kind": "vertical", "w": w, "v": v})
    for (b, a), ba in S.m_sq.items():
        if T.m_sq[(F.f1.mor_map[b], F.f1.mor_map[a])] != F.f1.mor_map[ba]:
            mbad.append({"kind": "square", "beta": b, "alpha": a})
    report.record("m-preservation", mbad, cases=len(S.m_vert) + len(S.m_sq))
    return report


def inclusion_double_functor(sub: ConcreteDouble, sup: ConcreteDouble,
                             vertical_map=None) -> DoubleFunctor:
    """Inclusion (or any vertical-wise map over the identity of the base)
    as an internal double functor, for checking with check_double_functor."""
    S = to_internal(sub)
    T = to_internal(sup)
    base = sub.base
    if vertical_map is None:
        vertical_map = {v: v for v in S.cat1.objects}
    f0 = identity_functor(base)
    obj_map = dict(vertical_map)
    mor_map = {}
    for mid in S.cat1.morphisms:
        v, w = S.cat1.dom[mid], S.cat1.cod[mid]
        mor_map[mid] = square_id(vertical_map[v], vertical_map[w],
                                 S.d.mor_map[mid], S.c.mor_map[mid])
    f1 = Functor(S.cat1, T.cat1, obj_map, mor_map, name="incl1")
    return DoubleFunctor(S, T, f0, f1, name=f"{sub.name}->{sup.name}")


# ---------------------------------------------------------------------------
# light-weight maps between concrete double categories


@dataclass
class ConcreteDoubleMap:
    """A double functor between concrete double categories over the same
    base, necessarily the identity on objects/horizontals and boundary-
    preserving on squares, so determined by its action on verticals."""

    source: ConcreteDouble
    target: ConcreteDouble
    vertical_map: dict  # source vertical -> target vertical
    name: str = ""

    def __call__(self, v):
        return self.vertical_map[v]


def identity_double_map(D: ConcreteDouble, name="1") -> ConcreteDoubleMap:
    return ConcreteDoubleMap(D, D, {v: v for v in D.verticals()}, name=name)


def check_concrete_double_map(F: ConcreteDoubleMap,
                              budget: Budget = UNBOUNDED) -> Report:
    """Pointwise double-functor axioms for a concrete-over-C map."""
    report = Report()
    S, T = F.source, F.target
    bad = []
    n = 0
    for v in S.verticals():
        n += 1
        img = F.vertical_map.get(v)
        if img is None:
            bad.append({"kind": "unmapped", "vertical": S.label(v)})
            continue
        if not T.has_vertical(img):
            bad.append({"kind": "not-a-vertical", "vertical": S.label(v)})
        elif T.underlying(img) != S.underlying(v):
            bad.append({"kind": "over-base", "vertical": S.label(v)})
    report.record("verticals", bad, cases=n)
    if bad:
        return report

    idbad = [{"object": o} for o in S.base.objects
             if F.vertical_map[S.identity_vertical(o)] != T.identity_vertical(o)]
    report.record("identity-verticals", idbad, cases=len(S.base.objects))

    verts = S.verticals()

    def composition():
        cbad = []
        n = 0
        for v in verts:
            for w in verts:
                if S.composable(w, v):
                    n += 1
                    budget.spend()
                    if F.vertical_map[S.compose(w, v)] != \
                            T.compose(F.vertical_map[w], F.vertical_map[v]):
                        cbad.append({"w": S.label(w), "v": S.label(v)})
        report.record("vertical-composition", cbad, cases=n)
    run_bounded(report, "vertical-composition", composition, budget)

    def squares():
        sbad = []
        n = 0
        for v in verts:
            for w in verts:
                for top, bottom in S.squares(v, w):
                    n += 1
                    budget.spend()
                    if not T.is_square(F.vertical_map[v], F.vertical_map[w],
                                       top, bottom):
                        sbad.append({"v": S.label(v), "w": S.label(w),
                                     "square": [top, bottom]})
        report.record("square-preservation", sbad, cases=n)
    return run_bounded(report, "square-preservation", squares, budget)
