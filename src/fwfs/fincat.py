"""Finite categories with explicit composition tables.

Everything here is extensional: a category is its object list, morphism
list and a total composition table, so every equation is decided by a
dictionary lookup.  Identifiers are opaque strings; equality is
identifier equality and all enumeration is lexicographic, which makes
reports reproducible byte for byte.

Instances are immutable after construction (the square, filler,
category-verdict and opposite-view caches are memoization), so
everything in this module is safe to use concurrently.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass

from .report import UNBOUNDED, Budget, Report


class FinCategory:
    """A finite category given by explicit tables.

    ``comp[(g, f)]`` is the composite ``g after f`` and must be defined
    exactly on the composable pairs.  Identities are listed explicitly
    and verified by :func:`check_category`, never synthesized.
    """

    def __init__(self, objects, morphisms, identities, composition, name=""):
        self.name = name
        self.objects = tuple(sorted(objects))
        self.dom = {}
        self.cod = {}
        for mid, d, c in morphisms:
            if mid in self.dom:
                raise ValueError(f"duplicate morphism id {mid!r}")
            self.dom[mid] = d
            self.cod[mid] = c
        self.morphisms = tuple(sorted(self.dom))
        self.identities = dict(identities)
        self.comp = dict(composition)
        self._hom = {}
        for mid in self.morphisms:
            self._hom.setdefault((self.dom[mid], self.cod[mid]), []).append(mid)
        self._squares = {}
        self._unique = {}
        self._is_category = None
        self._op = None  # weak reference to the opposite view

    def hom(self, a, b):
        """Morphisms a -> b in lexicographic order."""
        return self._hom.get((a, b), [])

    def is_identity(self, m):
        return self.identities.get(self.dom[m]) == m

    def squares(self, f, g):
        """All commuting squares (top, bottom): f -> g, lexicographically.

        A pair (top, bottom) commutes when g∘top = bottom∘f.
        """
        key = (f, g)
        cached = self._squares.get(key)
        if cached is None:
            cached = self._squares[key] = tuple(self._commuting(f, g))
        return cached

    def _commuting(self, f, g):
        """The squares f -> g, tops in hom order, then bottoms: the
        bottoms are indexed once by bottom∘f, and each top reads those
        equal to g∘top."""
        comp = self.comp
        tops = self.hom(self.dom[f], self.dom[g])
        if not tops:
            return []
        by_composite = {}
        for bottom in self.hom(self.cod[f], self.cod[g]):
            by_composite.setdefault(comp[(bottom, f)], []).append(bottom)
        return [(top, bottom) for top in tops
                for bottom in by_composite.get(comp[(g, top)], ())]

    def commutes(self, f, g, top, bottom):
        """Whether (top, bottom) is in :meth:`squares` (f, g), without
        building the squares: both edges have the right ends and
        g∘top = bottom∘f."""
        dom, cod, comp = self.dom, self.cod, self.comp
        return (dom.get(top) == dom[f] and cod.get(top) == dom[g]
                and dom.get(bottom) == cod[f] and cod.get(bottom) == cod[g]
                and comp[(g, top)] == comp[(bottom, f)])

    def unique_fillers(self, f, g):
        """Whether every commuting square f -> g has at most one diagonal.

        A diagonal d fills exactly the square (d∘f, g∘d), so fillers are
        unique iff d ↦ (d∘f, g∘d) is injective on hom(cod f, dom g).
        Meaningful only when the table is total, which
        :attr:`is_category` ensures.
        """
        key = (f, g)
        cached = self._unique.get(key)
        if cached is None:
            comp = self.comp
            hom = self.hom(self.cod[f], self.dom[g])
            cached = self._unique[key] = len(hom) == len(
                {(comp[(d, f)], comp[(g, d)]) for d in hom})
        return cached

    @property
    def is_category(self):
        """``check_category(self).ok``, computed once."""
        if self._is_category is None:
            self._is_category = check_category(self).ok
        return self._is_category

    def op(self):
        """The opposite category C^op, built once for as long as anything
        holds it, so that its caches go when it does."""
        op = self._op() if self._op else None
        if op is None:
            op = OppositeCategory(self)
            self._op = weakref.ref(op)
        return op

    def __repr__(self):
        label = self.name or "FinCategory"
        return f"<{label}: {len(self.objects)} objects, {len(self.morphisms)} morphisms>"


class OppositeCategory(FinCategory):
    """C^op as a view of C: the same objects, morphisms and identities,
    dom and cod swapped, and g∘f in C^op is f∘g in C.

    Only the reversed composition table is built; hom-sets, squares,
    the filler test and the category verdict are read from C.  A square
    (top, bottom): f -> g of C^op is the square (bottom, top): g -> f of
    C, with the same diagonals, and squares come in C's order; the
    transposed squares are kept while the view lives.  The opposite of
    the view is C itself.
    """

    def __init__(self, C: FinCategory):
        self.name = f"{C.name or 'C'}^op"
        self.objects = C.objects
        self.dom, self.cod = C.cod, C.dom
        self.morphisms = C.morphisms
        self.identities = C.identities
        self.comp = {(f, g): gf for (g, f), gf in C.comp.items()}
        self.original = C
        self._squares = {}

    def op(self):
        return self.original

    def hom(self, a, b):
        return self.original.hom(b, a)

    def _commuting(self, f, g):
        return [(bottom, top) for top, bottom in self.original.squares(g, f)]

    def unique_fillers(self, f, g):
        return self.original.unique_fillers(g, f)

    @property
    def is_category(self):
        # every category axiom is self-dual
        return self.original.is_category


# ---------------------------------------------------------------------------
# validation


def generators(C: FinCategory) -> list:
    """Non-identity morphisms that generate C under left composition.

    Greedy closure: start from the morphisms that are not a composite of
    two non-identities, close under left composition with the set, and
    add the first morphism still unreached until none is left.  Every
    non-identity m is then a generator or a∘m' with a a generator and m'
    reached before m.  That order carries Light's associativity test
    (Clifford–Preston, *The Algebraic Theory of Semigroups* I) over to
    partial composition: (h∘(a∘m'))∘f = h∘((a∘m')∘f) follows
    from the triples with middle a and, by induction, middle m'.  The
    result means something only when boundaries and units hold.
    """
    comp = C.comp
    ident = set(C.identities.values())
    non_id = [m for m in C.morphisms if m not in ident]
    composites = {gf for (g, f), gf in comp.items()
                  if g not in ident and f not in ident}
    gens = [m for m in non_id if m not in composites]
    gens_by_dom = {}
    for a in gens:
        gens_by_dom.setdefault(C.dom[a], []).append(a)
    reached = set(gens)
    order = list(gens)  # reached morphisms in the order they were reached
    closed_by_cod = {}  # those already composed with every generator

    def reach(m):
        if m not in reached and m not in ident:
            reached.add(m)
            order.append(m)

    unreached = iter(non_id)
    i = 0
    while True:
        while i < len(order):
            m = order[i]
            i += 1
            closed_by_cod.setdefault(C.cod[m], []).append(m)
            for a in gens_by_dom.get(C.cod[m], ()):
                reach(comp[(a, m)])
        a = next((m for m in unreached if m not in reached), None)
        if a is None:
            return gens
        gens.append(a)
        gens_by_dom.setdefault(C.dom[a], []).append(a)
        reach(a)
        for m in closed_by_cod.get(C.dom[a], ()):
            reach(comp[(a, m)])


def check_category(C: FinCategory) -> Report:
    """Verify all category axioms of C by exhaustive table lookup."""
    report = Report()
    refs = []
    for m in C.morphisms:
        if C.dom[m] not in C.objects:
            refs.append({"kind": "unknown-object", "morphism": m, "object": C.dom[m]})
        if C.cod[m] not in C.objects:
            refs.append({"kind": "unknown-object", "morphism": m, "object": C.cod[m]})
    for obj in C.objects:
        i = C.identities.get(obj)
        if i is None:
            refs.append({"kind": "missing-identity", "object": obj})
        elif i not in C.dom:
            refs.append({"kind": "unknown-morphism", "object": obj, "identity": i})
        elif C.dom[i] != obj or C.cod[i] != obj:
            refs.append({"kind": "identity-boundary", "object": obj, "identity": i})
    for obj in C.identities:
        if obj not in C.objects:
            refs.append({"kind": "unknown-object", "identity_of": obj})
    for (g, f), gf in C.comp.items():
        for m in (g, f, gf):
            if m not in C.dom:
                refs.append({"kind": "unknown-morphism", "entry": [g, f, gf], "morphism": m})
    report.record("references", refs, cases=len(C.morphisms))
    if refs:
        return report

    # the composition table must be defined exactly on composable pairs
    malformed = []
    for (g, f) in C.comp:
        if C.cod[f] != C.dom[g]:
            malformed.append({"kind": "non-composable-pair", "g": g, "f": f})
    n_pairs = 0
    for f in C.morphisms:
        for g in C.morphisms:
            if C.cod[f] == C.dom[g]:
                n_pairs += 1
                if (g, f) not in C.comp:
                    malformed.append({"kind": "undefined-composite", "g": g, "f": f})
    report.record("composition-totality", malformed, cases=n_pairs)
    if malformed:
        return report

    bounds = []
    for (g, f), gf in C.comp.items():
        if C.dom[gf] != C.dom[f] or C.cod[gf] != C.cod[g]:
            bounds.append({"g": g, "f": f, "composite": gf})
    report.record("boundaries", bounds, cases=n_pairs)
    if bounds:
        # a composite with the wrong boundary makes later lookups
        # ill-typed, so nothing after this is decidable
        return report

    units = []
    for f in C.morphisms:
        if C.comp[(f, C.identities[C.dom[f]])] != f:
            units.append({"side": "right", "f": f})
        if C.comp[(C.identities[C.cod[f]], f)] != f:
            units.append({"side": "left", "f": f})
    report.record("units", units, cases=2 * len(C.morphisms))

    # Light's test: with lawful boundaries and units, associativity of
    # the triples whose middle is a generator implies all of it
    middles = C.morphisms if units else generators(C)
    assoc = []
    n_triples = 0
    comp = C.comp
    by_dom = {}
    for m in C.morphisms:
        by_dom.setdefault(C.dom[m], []).append(m)
    middle_by_dom = {}
    for m in sorted(middles):
        middle_by_dom.setdefault(C.dom[m], []).append(m)
    for f in C.morphisms:
        for g in middle_by_dom.get(C.cod[f], ()):
            gf = comp[(g, f)]
            for h in by_dom.get(C.cod[g], ()):
                n_triples += 1
                if comp[(h, gf)] != comp[(comp[(h, g)], f)]:
                    assoc.append({"h": h, "g": g, "f": f})
    report.record("associativity", assoc, cases=n_triples)
    return report


# ---------------------------------------------------------------------------
# functors, natural transformations, adjunctions


@dataclass
class Functor:
    source: FinCategory
    target: FinCategory
    obj_map: dict
    mor_map: dict
    name: str = ""

    def __repr__(self):
        return f"<Functor {self.name or '?'}>"


def functor_equal(F: Functor, G: Functor) -> bool:
    return (F.source is G.source or F.source.morphisms == G.source.morphisms) \
        and F.obj_map == G.obj_map and F.mor_map == G.mor_map


def identity_functor(C: FinCategory, name="1") -> Functor:
    return Functor(C, C, {o: o for o in C.objects},
                   {m: m for m in C.morphisms}, name=name)


def compose_functors(G: Functor, F: Functor, name="") -> Functor:
    """G after F."""
    return Functor(F.source, G.target,
                   {o: G.obj_map[v] for o, v in F.obj_map.items()},
                   {m: G.mor_map[v] for m, v in F.mor_map.items()},
                   name=name or f"{G.name}∘{F.name}")


def check_functor(F: Functor) -> Report:
    report = Report()
    S, T = F.source, F.target
    missing = [{"kind": "object-unmapped", "object": o} for o in S.objects
               if o not in F.obj_map]
    missing += [{"kind": "morphism-unmapped", "morphism": m} for m in S.morphisms
                if m not in F.mor_map]
    report.record("totality", missing, cases=len(S.objects) + len(S.morphisms))
    if missing:
        return report

    bad = []
    for m in S.morphisms:
        fm = F.mor_map[m]
        if fm not in T.dom:
            bad.append({"kind": "unknown-image", "morphism": m, "image": fm})
        elif T.dom[fm] != F.obj_map[S.dom[m]] or T.cod[fm] != F.obj_map[S.cod[m]]:
            bad.append({"kind": "boundary", "morphism": m, "image": fm})
    report.record("boundaries", bad, cases=len(S.morphisms))
    if bad:
        return report

    idbad = [{"object": o} for o in S.objects
             if F.mor_map[S.identities[o]] != T.identities[F.obj_map[o]]]
    report.record("identities", idbad, cases=len(S.objects))

    compbad = []
    n = 0
    for (g, f), gf in S.comp.items():
        n += 1
        if T.comp[(F.mor_map[g], F.mor_map[f])] != F.mor_map[gf]:
            compbad.append({"g": g, "f": f})
    report.record("composition", compbad, cases=n)
    return report


@dataclass
class NatTransformation:
    source: Functor
    target: Functor
    components: dict  # object of the source category -> morphism of the target category
    name: str = ""


def check_nat_transformation(N: NatTransformation) -> Report:
    report = Report()
    F, G = N.source, N.target
    S, T = F.source, F.target
    bad = []
    for o in S.objects:
        c = N.components.get(o)
        if c is None or c not in T.dom:
            bad.append({"kind": "missing-component", "object": o})
        elif T.dom[c] != F.obj_map[o] or T.cod[c] != G.obj_map[o]:
            bad.append({"kind": "component-boundary", "object": o, "component": c})
    report.record("components", bad, cases=len(S.objects))
    if bad:
        return report

    nat = []
    for m in S.morphisms:
        x, y = S.dom[m], S.cod[m]
        lhs = T.comp[(G.mor_map[m], N.components[x])]
        rhs = T.comp[(N.components[y], F.mor_map[m])]
        if lhs != rhs:
            nat.append({"morphism": m, "lhs": lhs, "rhs": rhs})
    report.record("naturality", nat, cases=len(S.morphisms))
    return report


@dataclass
class Adjunction:
    """left ⊣ right, with unit 1 → right∘left and counit left∘right → 1."""

    left: Functor
    right: Functor
    unit: NatTransformation
    counit: NatTransformation


def check_adjunction(A: Adjunction) -> Report:
    report = Report()
    F, U = A.left, A.right
    C, D = F.source, F.target
    report.merge(check_nat_transformation(A.unit), prefix="unit-")
    report.merge(check_nat_transformation(A.counit), prefix="counit-")
    if not report.ok:
        return report

    tri = []
    for c in C.objects:
        # ε_{Fc} ∘ F(η_c) = 1_{Fc}
        lhs = D.comp[(A.counit.components[F.obj_map[c]],
                      F.mor_map[A.unit.components[c]])]
        if lhs != D.identities[F.obj_map[c]]:
            tri.append({"triangle": "left", "object": c, "got": lhs})
    for d in D.objects:
        # U(ε_d) ∘ η_{Ud} = 1_{Ud}
        lhs = C.comp[(U.mor_map[A.counit.components[d]],
                      A.unit.components[U.obj_map[d]])]
        if lhs != C.identities[U.obj_map[d]]:
            tri.append({"triangle": "right", "object": d, "got": lhs})
    report.record("triangle-identities", tri, cases=len(C.objects) + len(D.objects))
    return report


# ---------------------------------------------------------------------------
# stock categories


def terminal_category() -> FinCategory:
    return FinCategory(["*"], [("id", "*", "*")], {"*": "id"},
                       {("id", "id"): "id"}, name="1")


def walking_arrow() -> FinCategory:
    """The category 0 --a--> 1."""
    morphisms = [("id0", "0", "0"), ("id1", "1", "1"), ("a", "0", "1")]
    comp = {
        ("id0", "id0"): "id0",
        ("id1", "id1"): "id1",
        ("a", "id0"): "a",
        ("id1", "a"): "a",
    }
    return FinCategory(["0", "1"], morphisms, {"0": "id0", "1": "id1"}, comp,
                       name="2")


FINSET_BUDGET = 4


def finset_id(m: int, k: int, values) -> str:
    return f"{m}>{k}:" + "".join(str(v) for v in values)


def finset_values(mid: str):
    """Parse a finite-set morphism id back into (dom, cod, value tuple)."""
    head, _, vals = mid.partition(":")
    m, _, k = head.partition(">")
    return int(m), int(k), tuple(int(ch) for ch in vals)


@dataclass
class FinSet:
    """The full subcategory of finite sets on 0..n together with its
    surjections and injections."""

    category: FinCategory
    epis: frozenset
    monos: frozenset


def build_finset(n: int) -> FinSet:
    """Sets {0,..,k-1} for k ≤ n, with all functions between them."""
    if not 0 <= n <= FINSET_BUDGET:
        raise ValueError(f"budget exceeded: n must be between 0 and {FINSET_BUDGET}")
    objects = [str(k) for k in range(n + 1)]
    morphisms = []
    funcs = {}
    identities = {}
    epis, monos = set(), set()
    for m in range(n + 1):
        for k in range(n + 1):
            if m > 0 and k == 0:
                continue  # no maps out of a nonempty set into the empty set
            for values in itertools.product(range(k), repeat=m):
                mid = finset_id(m, k, values)
                morphisms.append((mid, str(m), str(k)))
                funcs[mid] = values
                if set(values) == set(range(k)):
                    epis.add(mid)
                if len(set(values)) == m:
                    monos.add(mid)
        identities[str(m)] = finset_id(m, m, range(m))
    comp = {}
    by_dom = {}
    for mid, d, c in morphisms:
        by_dom.setdefault(d, []).append(mid)
    for f, fd, fc in morphisms:
        fv = funcs[f]
        for g in by_dom.get(fc, ()):
            gv = funcs[g]
            _, gk, _ = finset_values(g)
            comp[(g, f)] = finset_id(int(fd), gk, tuple(gv[v] for v in fv))
    cat = FinCategory(objects, morphisms, identities, comp, name=f"FinSet≤{n}")
    return FinSet(cat, frozenset(epis), frozenset(monos))


def finset_image_factorisation(mid: str):
    """Factor a finite-set map as surjection ∘ injection⁻¹... i.e. as
    (surjection onto the image, image inclusion); returns (e, mid_object, m)."""
    m, k, values = finset_values(mid)
    image = sorted(set(values))
    r = len(image)
    index = {v: i for i, v in enumerate(image)}
    e = finset_id(m, r, tuple(index[v] for v in values))
    incl = finset_id(r, k, tuple(image))
    return e, str(r), incl


# ---------------------------------------------------------------------------
# the arrow category


def arrow_mor_id(f, g, top, bottom) -> str:
    return f"[{top}|{bottom}]:{f}=>{g}"


@dataclass
class ArrowCategory:
    """A category of squares together with its projections onto the
    categories of its top and bottom edges: C^2 with its domain and
    codomain projections onto C."""

    category: FinCategory
    dom_proj: Functor
    cod_proj: Functor


def square_category(top: FinCategory, bottom: FinCategory, objects, ends,
                    squares, mor_id, budget: Budget, name) -> ArrowCategory:
    """The category of squares between ``objects``, x with ends
    ``ends[x]`` in ``top`` and ``bottom``: C^2, cat1 of a double category
    and the comma category B/f.  Its morphisms x -> y are the pairs
    (t, b) of ``squares(x, y)``, named ``mor_id(x, y, t, b)``, composed
    componentwise, with the identities at x's ends as x's identity;
    ``dom_proj`` and ``cod_proj`` send them to t and b.  Each square
    costs one unit of ``budget``; the projections list the squares in
    the order they were enumerated, x outer."""
    morphisms = []
    identities = {}
    sq_data = {}
    for x in objects:
        for y in objects:
            for t, b in squares(x, y):
                budget.spend()
                mid = mor_id(x, y, t, b)
                morphisms.append((mid, x, y))
                sq_data[mid] = (x, y, t, b)
        s, e = ends[x]
        identities[x] = mor_id(x, x, top.identities[s], bottom.identities[e])
    comp = {}
    by_dom = {}
    for mid, d, _ in morphisms:
        by_dom.setdefault(d, []).append(mid)
    for mid, d, c in morphisms:
        x, _, t1, b1 = sq_data[mid]
        for nid in by_dom.get(c, ()):
            _, z, t2, b2 = sq_data[nid]
            comp[(nid, mid)] = mor_id(x, z, top.comp[(t2, t1)],
                                      bottom.comp[(b2, b1)])
    cat = FinCategory(objects, morphisms, identities, comp, name=name)
    dom_proj = Functor(cat, top, {x: ends[x][0] for x in objects},
                       {m: sq_data[m][2] for m, _, _ in morphisms}, name="dom")
    cod_proj = Functor(cat, bottom, {x: ends[x][1] for x in objects},
                       {m: sq_data[m][3] for m, _, _ in morphisms}, name="cod")
    return ArrowCategory(cat, dom_proj, cod_proj)


def arrow_category(C: FinCategory) -> ArrowCategory:
    """Objects are the morphisms of C; morphisms are commuting squares,
    composed by pasting."""
    return square_category(C, C, C.morphisms,
                           {f: (C.dom[f], C.cod[f]) for f in C.morphisms},
                           C.squares, arrow_mor_id, UNBOUNDED,
                           f"{C.name or 'C'}^2")
