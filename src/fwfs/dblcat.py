"""Double categories of maps over a fixed base category.

Two realizations live behind one interface: explicit tables for finite
data (:class:`ClassDouble`, and anything convertible via
:func:`to_internal`), and oracle-backed ones for the
left/right lifting-property double categories, whose verticals are only
ever enumerated under an explicit budget (see :mod:`fwfs.lifting`).

A concrete double category over C is the identity on objects and
horizontal arrows, faithful on verticals and squares; squares are always
stored with their (top, bottom) boundary pair.  Each one has an opposite
view over C^op (:class:`OppositeDouble`), which is how :mod:`fwfs.lifting`
derives every left-lifting construction from its right-lifting dual.
The vertical identity and composition laws are written once, in
:func:`record_vertical_laws`, for double maps and the essential image.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from .fincat import (FinCategory, Functor, arrow_mor_id, check_category,
                     check_functor, square_category)
from .report import UNBOUNDED, Budget, Cases, Report


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
        return self.base.commutes(v, w, top, bottom)

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
    category; cat1 is built as C^2 is, from D's squares.  Verticals are
    enumerated over each morphism of the base, under the given budget."""
    base = D.base
    verts = sorted((v for f in base.morphisms for v in D.verticals_over(f, budget)),
                   key=D.label)
    label = {D.label(v): v for v in verts}
    vids = [D.label(v) for v in verts]
    under = {x: D.underlying(v) for x, v in label.items()}
    sqc = square_category(base, base, vids,
                          {x: (base.dom[f], base.cod[f])
                           for x, f in under.items()},
                          lambda x, y: D.squares(label[x], label[y]),
                          arrow_mor_id, budget, "verticals")
    cat1, d, c = sqc.category, sqc.dom_proj, sqc.cod_proj
    ivert = {o: D.label(D.identity_vertical(o)) for o in base.objects}
    i = Functor(base, cat1, ivert,
                {h: arrow_mor_id(ivert[base.dom[h]], ivert[base.cod[h]], h, h)
                 for h in base.morphisms},
                name="i")
    m_vert = {}
    for vi in vids:
        for wi in vids:
            if D.composable(label[wi], label[vi]):
                m_vert[(wi, vi)] = D.label(D.compose(label[wi], label[vi]))
    # squares in the order they were enumerated, by their top edge: beta
    # stacks on alpha when its top is alpha's bottom
    by_top = {}
    for b, top in d.mor_map.items():
        by_top.setdefault(top, []).append(b)
    m_sq = {}
    for a, bottom in c.mor_map.items():
        for b in by_top.get(bottom, ()):
            m_sq[(b, a)] = arrow_mor_id(m_vert[(cat1.dom[b], cat1.dom[a])],
                                        m_vert[(cat1.cod[b], cat1.cod[a])],
                                        d.mor_map[a], c.mor_map[b])
    return DoubleCategory(base, cat1, d, c, i, m_vert, m_sq, name=D.name)


@dataclass
class _Level:
    """One dimension of a :class:`DoubleCategory`: the objects of cat0
    and the verticals, or the morphisms of cat0 and the squares.  d, c,
    i and m act on both, and each of their laws is checked on both."""

    noun: str          # "vertical" or "square", as witnesses name them
    keys: tuple        # witness keys of a stackable triple, outermost first
    unstackable: str   # witness kind of a key of m that is no stackable pair
    base_noun: str     # "object" or "morphism"
    base: tuple        # the objects or the morphisms of cat0
    elements: tuple    # the objects or the morphisms of cat1
    d: dict
    c: dict
    i: dict
    m: dict
    frame: tuple       # cat1's dom and cod on squares: their vertical sides

    def __post_init__(self):
        self.above = {}  # y -> the elements x with d(x) = y, in order
        for x in self.elements:
            self.above.setdefault(self.d[x], []).append(x)


def check_double_category(D, budget: Budget = UNBOUNDED) -> Report:
    """Verify the internal-category axioms and the interchange law.

    Accepts either a :class:`DoubleCategory` or a :class:`ConcreteDouble`,
    materialized by :func:`to_internal` with every vertical (an oracle-
    backed one under a private ``Budget()`` if given none).  As in
    :func:`check_category`, a failed check that later lookups rely on
    ends the report.
    """
    report = Report()
    if isinstance(D, ConcreteDouble):
        if not D.explicit and budget is UNBOUNDED:
            budget = Budget()
        with report.bounded("materialization", budget):
            try:
                D = to_internal(D, budget)
            except ClosureError as e:  # a composite or identity is missing
                report.add_violation("materialization", [{"error": str(e)}])
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
    if not report.ok:
        return report
    levels = (_Level("vertical", ("x", "w", "v"), "non-composable-verticals",
                     "object", D.cat0.objects, D.cat1.objects, D.d.obj_map,
                     D.c.obj_map, D.i.obj_map, D.m_vert, ()),
              _Level("square", ("gamma", "beta", "alpha"), "non-stackable-squares",
                     "morphism", D.cat0.morphisms, D.cat1.morphisms, D.d.mor_map,
                     D.c.mor_map, D.i.mor_map, D.m_sq, (D.cat1.dom, D.cat1.cod)))
    bad = [{"kind": f"section-{L.base_noun}", L.base_noun: y} for L in levels
           for y in L.base if L.d[L.i[y]] != y or L.c[L.i[y]] != y]
    report.record("identity-section", bad,
                  cases=len(D.cat0.objects) + len(D.cat0.morphisms))
    if bad:
        return report

    # m defined exactly on the stackable pairs of each level, and a
    # functor: w∘v lies over d(v), c(w) and, for squares, over the
    # composites of the verticals w and v lie over
    tot = []
    n = 0
    for L in levels:
        _, later, first = L.keys
        elements = set(L.elements)
        for v in L.elements:
            for w in L.above.get(L.c[v], ()):
                n += 1
                wv = L.m.get((w, v))
                if wv is None:
                    tot.append({"kind": f"undefined-{L.noun}-composite",
                                later: w, first: v})
                elif wv not in elements or \
                        (L.d[wv], L.c[wv], *(f[wv] for f in L.frame)) != \
                        (L.d[v], L.c[w], *(D.m_vert.get((f[w], f[v]))
                                           for f in L.frame)):
                    tot.append({"kind": f"{L.noun}-boundary", later: w, first: v})
        for (w, v) in L.m:
            if w not in elements or v not in elements or L.d[w] != L.c[v]:
                tot.append({"kind": L.unstackable, later: w, first: v})
    report.record("m-totality", tot, cases=n)
    if tot:
        return report

    unital = [{"kind": f"{L.noun}-unit", L.noun: x} for L in levels
              for x in L.elements
              if L.m[(L.i[L.c[x]], x)] != x or L.m[(x, L.i[L.d[x]])] != x]
    report.record("m-units", unital,
                  cases=len(D.cat1.objects) + len(D.cat1.morphisms))

    with report.cases("m-associativity", budget) as cases:
        case = cases.case
        for L in levels:
            outer, later, first = L.keys
            for (w, v), wv in L.m.items():
                for x in L.above.get(L.c[w], ()):
                    case()
                    if L.m[(x, wv)] != L.m[(L.m[(x, w)], v)]:
                        cases.bad.append({"kind": L.noun, outer: x, later: w,
                                          first: v})

    # m is functorial on 2x2 grids of squares
    with report.cases("interchange", budget) as cases:
        case, inter = cases.case, cases.bad
        comp1, cod1 = D.cat1.comp, D.cat1.cod
        # the squares out of each vertical, and out of it with each top
        out, out_top = {}, {}
        for g, v in D.cat1.dom.items():
            out.setdefault(v, []).append(g)
            out_top.setdefault((v, D.d.mor_map[g]), []).append(g)
        for (b, a), ba in D.m_sq.items():
            # horizontal successors of the stacked pair (b', a') with a' after a, b' after b
            for a2 in out[cod1[a]]:
                for b2 in out_top.get((cod1[b], D.c.mor_map[a2]), ()):
                    case()
                    lhs = D.m_sq[(comp1[(b2, b)], comp1[(a2, a)])]
                    rhs = comp1[(D.m_sq[(b2, a2)], ba)]
                    if lhs != rhs:
                        inter.append({"alpha": a, "beta": b,
                                      "alpha2": a2, "beta2": b2})
        # m preserves identity squares of cat1
        for (w, v), wv in D.m_vert.items():
            if D.m_sq[(D.cat1.identities[w], D.cat1.identities[v])] != D.cat1.identities[wv]:
                inter.append({"kind": "identity-square", "w": w, "v": v})
    return report


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


def record_vertical_laws(report: Report, F: ConcreteDoubleMap, verts,
                         budget: Budget) -> dict:
    """Record ``identity-verticals`` and ``vertical-composition`` of
    F: S → T on the source verticals ``verts``: T's identity vertical on
    each object, and T's composite of the images of each pair of
    ``S.composable_pairs(verts)``, must be verticals of T over C's
    identity and composite, and F's images of S's.  A ``ClosureError``
    is a witness with its ``error``; one budget unit per pair, so the
    caller runs it in :meth:`~fwfs.report.Report.bounded`, which names
    an exhausted budget.  Returns T's identity verticals by object,
    where there are any."""
    S, T, C = F.source, F.target, F.source.base
    ids, idbad = {}, []
    for o in C.objects:
        try:
            i = ids[o] = T.identity_vertical(o)
            if not T.has_vertical(i) or T.underlying(i) != C.identities[o] \
                    or F.vertical_map.get(S.identity_vertical(o)) != i:
                idbad.append({"object": o})
        except ClosureError as e:
            idbad.append({"object": o, "error": str(e)})
    report.record("identity-verticals", idbad, cases=len(C.objects))
    cases = Cases(budget)
    for v, w in S.composable_pairs(verts):
        cases.case()
        witness = {"w": S.label(w), "v": S.label(v)}
        try:
            wv = T.compose(F(w), F(v))
            if not T.has_vertical(wv):
                cases.bad.append({**witness, "kind": "not-a-vertical"})
            elif T.underlying(wv) != C.comp[(S.underlying(w), S.underlying(v))]:
                cases.bad.append({**witness, "kind": "over-base"})
            elif F.vertical_map.get(S.compose(w, v)) != wv:
                cases.bad.append(witness)
        except ClosureError as e:  # a composite is no vertical
            cases.bad.append({**witness, "error": str(e)})
    report.record("vertical-composition", cases.bad, cases=cases.n)
    return ids


def check_concrete_double_map(F: ConcreteDoubleMap,
                              budget: Budget = UNBOUNDED) -> Report:
    """Pointwise double-functor axioms for a concrete-over-C map."""
    report = Report()
    S, T = F.source, F.target
    verts = S.verticals()
    bad = []
    for v in verts:
        img = F.vertical_map.get(v)
        if img is None:
            bad.append({"kind": "unmapped", "vertical": S.label(v)})
            continue
        if not T.has_vertical(img):
            bad.append({"kind": "not-a-vertical", "vertical": S.label(v)})
        elif T.underlying(img) != S.underlying(v):
            bad.append({"kind": "over-base", "vertical": S.label(v)})
    report.record("verticals", bad, cases=len(verts))
    if bad:
        return report

    with report.bounded("vertical-composition", budget):
        record_vertical_laws(report, F, verts, budget)
    with report.cases("square-preservation", budget) as cases:
        for v, w in S.pairs(verts):
            for top, bottom in S.squares(v, w):
                cases.case()
                if not T.is_square(F(v), F(w), top, bottom):
                    cases.bad.append({"v": S.label(v), "w": S.label(w),
                                      "square": [top, bottom]})
    return report
