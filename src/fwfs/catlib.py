"""Split reflections, split fibrations, the factorisation of a functor
f through its comma category B/f (a category of squares, built as C^2
is), and the canonical filler algorithm, all at the scale of a finite
roster of finite categories and functors.

The ambient category of categories is never constructed: a
:class:`CatRoster` is a finite base category whose objects name finite
categories and whose morphisms name functors, closed under the
composites the checks actually use (closure failures raise with a
witness rather than being repaired).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .dblcat import ClosureError, ConcreteDouble
from .fincat import (FinCategory, Functor, NatTransformation,
                     check_category, check_functor, check_nat_transformation,
                     compose_functors, functor_equal, identity_functor,
                     square_category)
from .lifting import LiftingOperation, RuleLifting, SideMismatch
from .report import UNBOUNDED, Budget, Report


@dataclass
class SplitReflection:
    """u: A → B with left adjoint f: B → A, identity counit (f∘u = 1_A)
    and unit eta: 1_B → u∘f."""

    u: Functor
    left_adjoint: Functor
    eta: NatTransformation
    name: str = ""


@dataclass
class SplitFibration:
    """u: A → B with a split cleavage: theta[(a, h)] is the chosen
    cartesian lift of h: b → u(a) ending at a."""

    u: Functor
    theta: dict  # (object a of A, morphism h of B with cod h = u(a)) -> morphism of A
    name: str = ""
    _cart: dict = field(default_factory=dict, repr=False, compare=False)


def identity_reflection(X: FinCategory, name="") -> SplitReflection:
    one = identity_functor(X)
    eta = NatTransformation(one, one, {o: X.identities[o] for o in X.objects},
                            name="eta")
    return SplitReflection(one, one, eta, name=name)


def identity_fibration(X: FinCategory, name="") -> SplitFibration:
    theta = {(X.cod[h], h): h for h in X.morphisms}
    return SplitFibration(identity_functor(X), theta, name=name)


def check_split_reflection(S: SplitReflection) -> Report:
    report = Report()
    u, f = S.u, S.left_adjoint
    A, B = u.source, u.target
    report.merge(check_functor(u), prefix="u-")
    report.merge(check_functor(f), prefix="left-adjoint-")
    if not report.ok:
        return report
    if f.source is not B or f.target is not A:
        report.add_violation("boundaries",
                             [{"kind": "left-adjoint-boundary"}])
        return report

    fu = compose_functors(f, u)
    bad = [{"kind": "object", "object": a} for a in A.objects
           if fu.obj_map[a] != a]
    bad += [{"kind": "morphism", "morphism": m} for m in A.morphisms
            if fu.mor_map[m] != m]
    report.record("identity-counit", bad, cases=len(A.objects) + len(A.morphisms))
    if bad:
        return report

    eta = S.eta
    report.merge(check_nat_transformation(
        NatTransformation(identity_functor(B), compose_functors(u, f),
                          eta.components)), prefix="unit-")
    if not report.ok:
        return report

    tri = []
    for a in A.objects:
        # split triangle: the unit is the identity on the image of u
        if eta.components[u.obj_map[a]] != B.identities[u.obj_map[a]]:
            tri.append({"kind": "unit-on-image", "object": a})
    for b in B.objects:
        # and f collapses the unit (triangle with identity counit)
        if f.mor_map[eta.components[b]] != A.identities[f.obj_map[b]]:
            tri.append({"kind": "adjoint-triangle", "object": b})
    report.record("triangle-identities", tri, cases=len(A.objects) + len(B.objects))
    return report


def _cartesian_factors(F: SplitFibration, th, m, g) -> list:
    """Every psi with th∘psi = m and u(psi) = g, in hom order."""
    A = F.u.source
    return [psi for psi in A.hom(A.dom[m], A.dom[th])
            if A.comp[(th, psi)] == m and F.u.mor_map[psi] == g]


def cartesian_factor(F: SplitFibration, a, h, m, g):
    """The unique psi with theta[(a,h)]∘psi = m and u(psi) = g; cached
    write-once.  Raises if zero or several candidates exist (signals an
    invalid fibration)."""
    key = (a, h, m, g)
    cached = F._cart.get(key)
    if cached is not None:
        return cached
    found = _cartesian_factors(F, F.theta[(a, h)], m, g)
    if len(found) != 1:
        raise ValueError(f"not a split fibration: {len(found)} factorisations "
                         f"at {key}")
    F._cart[key] = found[0]
    return found[0]


def check_split_fibration(F: SplitFibration,
                          budget: Budget = UNBOUNDED) -> Report:
    report = Report()
    u = F.u
    A, B = u.source, u.target
    report.merge(check_functor(u), prefix="u-")
    if not report.ok:
        return report

    # totality + lift property: theta defined exactly on (a, h: b -> u a)
    bad, n = [], 0
    expected = set()
    for a in A.objects:
        ua = u.obj_map[a]
        for h in B.morphisms:
            if B.cod[h] != ua:
                continue
            n += 1
            expected.add((a, h))
            th = F.theta.get((a, h))
            if th is None or th not in A.dom:
                bad.append({"kind": "missing-lift", "a": a, "h": h})
            elif A.cod[th] != a:
                bad.append({"kind": "lift-target", "a": a, "h": h})
            elif u.mor_map[th] != h:
                bad.append({"kind": "over", "a": a, "h": h,
                            "got": u.mor_map[th]})
    for key in F.theta:
        if key not in expected:
            bad.append({"kind": "spurious-lift", "key": list(key)})
    report.record("cleavage", bad, cases=n)
    if bad:
        return report

    with report.cases("cartesianness", budget) as cases:
        for (a, h), th in F.theta.items():
            b = B.dom[h]
            for m in A.morphisms:
                if A.cod[m] != a:
                    continue
                for g in B.hom(u.obj_map[A.dom[m]], b):
                    if B.comp[(h, g)] != u.mor_map[m]:
                        continue
                    cases.case()
                    found = _cartesian_factors(F, th, m, g)
                    if len(found) != 1:
                        cases.bad.append({"a": a, "h": h, "m": m, "g": g,
                                          "factorisations": found[:2]})

    sbad, n = [], 0
    for a in A.objects:
        n += 1
        if F.theta[(a, B.identities[u.obj_map[a]])] != A.identities[a]:
            sbad.append({"kind": "identity-lift", "a": a})
    for (a, h), th in F.theta.items():
        x = A.dom[th]
        for g in B.morphisms:
            if B.cod[g] != B.dom[h]:
                continue
            n += 1
            lhs = F.theta[(a, B.comp[(h, g)])]
            rhs = A.comp[(th, F.theta[(x, g)])]
            if lhs != rhs:
                sbad.append({"kind": "composite-lift", "a": a, "h": h, "g": g,
                             "lhs": lhs, "rhs": rhs})
    report.record("splitness", sbad, cases=n)
    return report


# ---------------------------------------------------------------------------
# comma category


def comma_obj_id(alpha, a) -> str:
    return f"({alpha},{a})"


def comma_mor_id(src, dst, beta, m) -> str:
    return f"({beta},{m}):{src}->{dst}"


@dataclass
class CommaData:
    """The factorisation of f: A → B through B/f: a cofree split
    reflection i_f followed by a free split fibration d_f."""

    comma: FinCategory
    i_f: Functor
    c_f: Functor
    d_f: SplitFibration
    eta: NatTransformation
    reflection: SplitReflection
    f: Functor


def comma_category(f: Functor) -> CommaData:
    """Objects are pairs (alpha: b → f a, a); morphisms are the squares
    (beta, m) with f(m)∘alpha = alpha'∘beta, so B/f is a category of
    squares and d_f and c_f are its projections onto B and A."""
    A, B = f.source, f.target
    obj_data = {comma_obj_id(alpha, a): (alpha, a) for a in A.objects
                for alpha in B.morphisms if B.cod[alpha] == f.obj_map[a]}

    def squares(x, y):
        (alpha, a), (alpha2, a2) = obj_data[x], obj_data[y]
        return [(beta, m) for m in A.hom(a, a2)
                for beta in B.hom(B.dom[alpha], B.dom[alpha2])
                if B.comp[(alpha2, beta)] == B.comp[(f.mor_map[m], alpha)]]

    sqc = square_category(B, A, list(obj_data),
                          {o: (B.dom[alpha], a)
                           for o, (alpha, a) in obj_data.items()},
                          squares, comma_mor_id, UNBOUNDED,
                          f"{B.name or 'B'}/{f.name or 'f'}")
    comma, d_u, c_f = sqc.category, sqc.dom_proj, sqc.cod_proj
    d_u.name, c_f.name = "d_f", "c_f"
    i_obj = {a: comma_obj_id(B.identities[f.obj_map[a]], a) for a in A.objects}
    i_mor = {m: comma_mor_id(i_obj[A.dom[m]], i_obj[A.cod[m]], f.mor_map[m], m)
             for m in A.morphisms}
    i_f = Functor(A, comma, i_obj, i_mor, name="i_f")
    theta = {(o, g): comma_mor_id(comma_obj_id(B.comp[(alpha, g)], a), o, g,
                                  A.identities[a])
             for o, (alpha, a) in obj_data.items()
             for g in B.morphisms if B.cod[g] == B.dom[alpha]}
    d_f = SplitFibration(d_u, theta, name="d_f")
    eta = NatTransformation(
        identity_functor(comma), compose_functors(i_f, c_f),
        {o: comma_mor_id(o, i_obj[a], alpha, A.identities[a])
         for o, (alpha, a) in obj_data.items()},
        name="eta")
    reflection = SplitReflection(i_f, c_f, eta, name="c_f -| i_f")
    return CommaData(comma, i_f, c_f, d_f, eta, reflection, f)


# ---------------------------------------------------------------------------
# canonical fillers


class FillerError(ValueError):
    """:func:`canonical_filler` was not given a commuting square from a
    split reflection to a split fibration, so it built no filler;
    ``witness`` names what failed and the square's functors (r, s)."""

    def __init__(self, what, square):
        super().__init__(f"{what}: {square}")
        self.witness = (what, square)


def canonical_filler(S: SplitReflection, F: SplitFibration,
                     r: Functor, s: Functor) -> Functor:
    """The canonical diagonal in a square (r, s): u → g of a split
    reflection u and split fibration g.

    On objects, k b is the domain of the chosen cartesian lift of
    s(eta_b) ending at r(l b) (l the left adjoint); on morphisms, k α is
    the unique cartesian factorisation lying over s(α).  The boundary
    of the square is checked before construction, and that k is a
    functor with k∘u = r and g∘k = s after; a failure raises
    :class:`FillerError`.
    """
    u, l, eta = S.u, S.left_adjoint, S.eta
    g = F.u
    B = u.target
    Cc = g.source
    square = (r.name, s.name)
    if r.source is not u.source or r.target is not Cc:
        raise FillerError("top functor r must go from the source of u to "
                          "the source of g", square)
    if s.source is not B or s.target is not g.target:
        raise FillerError("bottom functor s must go from the target of u "
                          "to the target of g", square)
    if not functor_equal(compose_functors(g, r), compose_functors(s, u)):
        raise FillerError("square does not commute", square)

    kobj, lift_at = {}, {}
    for b in B.objects:
        a = r.obj_map[l.obj_map[b]]
        h = s.mor_map[eta.components[b]]
        th = F.theta[(a, h)]
        kobj[b] = Cc.dom[th]
        lift_at[b] = th
    kmor = {}
    for al in B.morphisms:
        b2 = B.cod[al]
        m = Cc.comp[(r.mor_map[l.mor_map[al]], lift_at[B.dom[al]])]
        kmor[al] = cartesian_factor(
            F, r.obj_map[l.obj_map[b2]], s.mor_map[eta.components[b2]],
            m, s.mor_map[al])
    k = Functor(B, Cc, kobj, kmor, name="k")
    if not check_functor(k).ok:
        raise FillerError("the canonical diagonal is not a functor", square)
    if not functor_equal(compose_functors(k, u), r):
        raise FillerError("upper triangle k∘u = r fails", square)
    if not functor_equal(compose_functors(g, k), s):
        raise FillerError("lower triangle g∘k = s fails", square)
    return k


# ---------------------------------------------------------------------------
# rosters


@dataclass
class CatRoster:
    """A finite base category whose objects name finite categories and
    whose morphisms name functors; identities are auto-registered and
    the composition table is resolved by functor-table equality."""

    categories: dict  # name -> FinCategory
    functors: dict    # name -> Functor
    cat: FinCategory


def _registered(functors: dict, F: Functor):
    """The first name in ``functors`` of a functor with F's source,
    target and tables, or None."""
    return next((name for name, G in functors.items()
                 if G.source is F.source and G.target is F.target
                 and functor_equal(G, F)), None)


def build_roster(categories: dict, functors: dict,
                 composites: dict | None = None) -> CatRoster:
    cat_name = {id(c): n for n, c in categories.items()}
    functors = dict(functors)
    morphisms = []
    for fname, F in functors.items():
        src = cat_name.get(id(F.source))
        dst = cat_name.get(id(F.target))
        if src is None or dst is None:
            raise ClosureError("functor over unregistered category", fname)
        morphisms.append((fname, src, dst))
    identities = {}
    for cname, C in categories.items():
        ident = identity_functor(C)
        iname = _registered(functors, ident)
        if iname is None:
            iname = f"1_{cname}"
            if iname in functors:
                raise ClosureError("identity name collision", iname)
            functors[iname] = ident
            morphisms.append((iname, cname, cname))
        identities[cname] = iname
    comp = dict(composites or {})
    for fn, _, ft in morphisms:
        for gn, gs, _ in morphisms:
            if ft != gs or (gn, fn) in comp:
                continue
            match = _registered(functors, compose_functors(functors[gn],
                                                           functors[fn]))
            if match is None:
                raise ClosureError("roster not closed under composition",
                                   (gn, fn))
            comp[(gn, fn)] = match
    base = FinCategory(list(categories), morphisms, identities, comp,
                       name="roster")
    return CatRoster(categories, functors, base)


class _RosterDouble(ConcreteDouble):
    """Verticals are the functor names of registered members, each over
    itself; an identity left unregistered gets the member that
    ``identity`` builds on its category."""

    def __init__(self, roster: CatRoster, members: dict, identity, name):
        super().__init__(roster.cat, name)
        self.roster = roster
        self.members = dict(members)
        for cname in roster.cat.objects:
            iname = roster.cat.identities[cname]
            if iname not in self.members:
                self.members[iname] = identity(roster.categories[cname],
                                               name=iname)

    def verticals(self):
        return sorted(self.members)

    def has_vertical(self, v):
        return v in self.members

    def underlying(self, v):
        return v

    def label(self, v):
        return v

    def identity_vertical(self, obj):
        return self.base.identities[obj]


class SplRefDouble(_RosterDouble):
    """Verticals are registered split reflections (by functor name);
    squares are commuting functor squares compatible with the left
    adjoints and units."""

    def __init__(self, roster: CatRoster, reflections: dict, name="SplRef"):
        super().__init__(roster, reflections, identity_reflection, name)

    def compose(self, w, v):
        name = self.base.comp[(w, v)]
        if name not in self.members:
            raise ClosureError("reflection composite not registered", (w, v))
        Sv, Sw = self.members[v], self.members[w]
        l = compose_functors(Sv.left_adjoint, Sw.left_adjoint)
        got = self.members[name]
        # composed unit: u2(eta1 at l2 c) ∘ eta2_c
        B2 = Sw.u.target
        for c in B2.objects:
            comp_eta = B2.comp[(Sw.u.mor_map[
                Sv.eta.components[Sw.left_adjoint.obj_map[c]]],
                Sw.eta.components[c])]
            if got.eta.components[c] != comp_eta:
                raise ClosureError("registered composite reflection disagrees",
                                   (w, v, c))
        if not functor_equal(got.left_adjoint, l):
            raise ClosureError("registered composite reflection disagrees",
                               (w, v))
        return name

    def is_square(self, v, w, top, bottom):
        if not self.base.commutes(v, w, top, bottom):
            return False
        Sv, Sw = self.members[v], self.members[w]
        r = self.roster.functors[top]
        s = self.roster.functors[bottom]
        if not functor_equal(compose_functors(Sw.left_adjoint, s),
                             compose_functors(r, Sv.left_adjoint)):
            return False
        for b in Sv.u.target.objects:
            if s.mor_map[Sv.eta.components[b]] != \
                    Sw.eta.components[s.obj_map[b]]:
                return False
        return True


class SplFibDouble(_RosterDouble):
    """Verticals are registered split fibrations; squares are commuting
    functor squares preserving the cleavages."""

    def __init__(self, roster: CatRoster, fibrations: dict, name="SplFib"):
        super().__init__(roster, fibrations, identity_fibration, name)

    def compose(self, w, v):
        name = self.base.comp[(w, v)]
        if name not in self.members:
            raise ClosureError("fibration composite not registered", (w, v))
        Fv, Fw = self.members[v], self.members[w]
        got = self.members[name]
        # composed cleavage: lift through w first, then v
        for (a, h), th in got.theta.items():
            mid = Fw.theta[(Fv.u.obj_map[a], h)]
            if th != Fv.theta[(a, mid)]:
                raise ClosureError("registered composite fibration disagrees",
                                   (w, v, a, h))
        return name

    def is_square(self, v, w, top, bottom):
        if not self.base.commutes(v, w, top, bottom):
            return False
        Fv, Fw = self.members[v], self.members[w]
        r = self.roster.functors[top]
        s = self.roster.functors[bottom]
        for (a, h), th in Fv.theta.items():
            if r.mor_map[th] != Fw.theta[(r.obj_map[a], s.mor_map[h])]:
                return False
        return True


def cat_lifting_operation(L: SplRefDouble, R: SplFibDouble) -> LiftingOperation:
    """Fillers via :func:`canonical_filler`; the resulting functor must
    itself be registered in the roster (closure error otherwise)."""
    roster = L.roster
    if R.roster is not roster:
        raise SideMismatch("left and right come from different rosters")

    def rule(j, k, top, bottom):
        S = L.members[j]
        F = R.members[k]
        name = _registered(roster.functors, canonical_filler(
            S, F, roster.functors[top], roster.functors[bottom]))
        if name is not None:
            return name
        raise ClosureError("canonical filler not registered",
                           (j, k, top, bottom))

    return RuleLifting(L, R, rule, name="can")


def check_cat_roster(L: SplRefDouble, R: SplFibDouble,
                     budget: Budget = UNBOUNDED) -> Report:
    """Validate the roster base, every registered reflection and
    fibration, and the canonical lifting operation's axioms."""
    from .lifting import check_lifting_operation
    report = Report()
    report.merge(check_category(L.base), prefix="base-")
    for name in L.verticals():
        sub = check_split_reflection(L.members[name])
        if not sub.ok:
            report.merge(sub, prefix=f"reflection-{name}-")
    for name in R.verticals():
        sub = check_split_fibration(R.members[name], budget)
        if not sub.ok:
            report.merge(sub, prefix=f"fibration-{name}-")
    if report.violations():
        return report
    report.add_ok("members", cases=len(L.members) + len(R.members))
    report.merge(check_lifting_operation(cat_lifting_operation(L, R), budget),
                 prefix="operation-")
    return report


# ---------------------------------------------------------------------------
# functor enumeration and the universal-property checks


def enumerate_functors(S: FinCategory, T: FinCategory, fixed_obj=None,
                       fixed_mor=None, budget: Budget = UNBOUNDED, over=()):
    """All functors F: S → T extending the given partial assignments with
    P∘F = G for each pair (P, G) in ``over``, in lexicographic order.

    A backtracking search assigns S's free objects in ``S.objects``
    order, then its free morphisms in ``S.morphisms`` order, trying T's
    objects and hom-sets in order.  An object is pruned as soon as a
    morphism with both ends assigned has an empty hom-set, or a fixed
    image with the wrong ends (or, for an identity, not T's identity); a
    morphism at an identity, or at the first composition equation it
    completes.  Each value tried for one object or morphism of S costs
    one budget unit."""
    fixed_obj = fixed_obj or {}
    fixed_mor = fixed_mor or {}
    obj = dict(fixed_obj)
    mor = {m: fixed_mor[m] for m in S.morphisms if m in fixed_mor}
    # a fixed object meets ``over`` if its identity does
    if any(P.mor_map.get(mor[m]) != G.mor_map[m] for P, G in over
           for m in mor):
        return []
    free_objs = [o for o in S.objects if o not in fixed_obj]
    free_mors = [m for m in S.morphisms if m not in fixed_mor]
    obj_cands = {x: [t for t in T.objects
                     if all(P.obj_map[t] == G.obj_map[x] for P, G in over)]
                 for x in free_objs}
    want = {m: tuple(G.mor_map[m] for _, G in over) for m in free_mors}
    identity_of = {S.identities[o]: o for o in S.objects}
    hom = {}  # (a, b, want) -> the values of T.hom(a, b) that ``over`` allows

    def candidates(m):
        key = (obj[S.dom[m]], obj[S.cod[m]], want[m])
        if key not in hom:
            hom[key] = [t for t in T.hom(*key[:2])
                        if key[2] == tuple(P.mor_map[t] for P, _ in over)]
        return hom[key]

    def fits(m):
        """m's ends are assigned: is some value of m still possible?"""
        if m not in fixed_mor:
            return bool(candidates(m))
        t, a = fixed_mor[m], obj[S.dom[m]]
        return T.dom.get(t) == a and T.cod.get(t) == obj[S.cod[m]] and \
            (m not in identity_of or t == T.identities[a])

    # each check sits at the last free assignment it reads, or at -1
    # (the extra last slot, checked once up front) if it reads none
    obj_pos = {x: i for i, x in enumerate(free_objs)}
    mor_pos = {m: j for j, m in enumerate(free_mors)}
    ends_at = [[] for _ in range(len(free_objs) + 1)]
    for m in S.morphisms:
        ends_at[max(obj_pos.get(S.dom[m], -1),
                    obj_pos.get(S.cod[m], -1))].append(m)
    eqs_at = [[] for _ in range(len(free_mors) + 1)]
    for (g, f), gf in S.comp.items():
        eqs_at[max(mor_pos.get(g, -1), mor_pos.get(f, -1),
                   mor_pos.get(gf, -1))].append((g, f, gf))
    comp = T.comp
    slots = free_objs + free_mors
    n = len(free_objs)

    def holds(k):
        """The checks that the value of slot k completes."""
        if k < n:
            return all(map(fits, ends_at[k]))
        m = slots[k]
        if m in identity_of and mor[m] != T.identities[obj[identity_of[m]]]:
            return False
        return all(comp[(mor[g], mor[f])] == mor[gf]
                   for g, f, gf in eqs_at[k - n])

    if not (all(map(fits, ends_at[-1])) and
            all(comp[(mor[g], mor[f])] == mor[gf] for g, f, gf in eqs_at[-1])):
        return []
    if not slots:
        return [Functor(S, T, obj, mor)]

    def values(k):
        return obj_cands[slots[k]] if k < n else candidates(slots[k])

    # depth first, with one iterator of values per assigned slot: a loop
    # rather than recursion, so that no closure refers to itself and the
    # search's tables are freed on return, not by the cycle collector
    out = []
    stack = [iter(values(0))]
    while stack:
        k = len(stack) - 1
        for t in stack[k]:
            budget.spend()
            (obj if k < n else mor)[slots[k]] = t
            if holds(k):
                if k + 1 == len(slots):
                    out.append(Functor(S, T, dict(obj), dict(mor)))
                else:
                    stack.append(iter(values(k + 1)))
                    break
        else:
            stack.pop()
    return out


def _along(F: Functor, G: Functor):
    """The assignments G∘F⁻¹ on the image of F, on objects and on
    morphisms: what a functor k with k∘F = G is fixed to there."""
    return ({F.obj_map[x]: G.obj_map[x] for x in F.source.objects},
            {F.mor_map[m]: G.mor_map[m] for m in F.source.morphisms})


def _unique_factorisations(name, squares, budget: Budget) -> Report:
    """Record ``name`` over the ``(witness, factorisations)`` pairs that
    ``squares()`` yields: a square is a violation unless it has exactly
    one factorisation.  Enumerating the factorisations charges the
    budget, so the squares are counted without charging."""
    report = Report()
    with report.cases(name, budget) as cases:
        for witness, found in squares():
            cases.count(1)
            if len(found) != 1:
                cases.bad.append({**witness, "factorisations": len(found)})
    return report


def check_free_split_fibration(cd: CommaData, tests,
                               budget: Budget = UNBOUNDED) -> Report:
    """Universality of (i_f, 1): every square (r, s): f → v into a test
    split fibration v factors as (r', s∘·) through d_f via exactly one
    cleavage-preserving functor r': B/f → dom v with r'∘i_f = r and
    v∘r' = s∘d_f."""
    f = cd.f
    theta = cd.d_f.theta

    def squares():
        for V in tests:
            X, Y = V.u.source, V.u.target
            for s in enumerate_functors(f.target, Y, budget=budget):
                s_f = compose_functors(s, f)
                for r in enumerate_functors(f.source, X, budget=budget,
                                            over=[(V.u, s_f)]):
                    # r' is forced on the image of i_f; s∘d_f pins the rest
                    sd = compose_functors(s, cd.d_f.u)
                    found = [r2 for r2 in enumerate_functors(
                                 cd.comma, X, *_along(cd.i_f, r), budget=budget,
                                 over=[(V.u, sd)])
                             if all(r2.mor_map[th] == V.theta[
                                 (r2.obj_map[o], sd.mor_map[th])]
                                 for (o, _), th in theta.items())]
                    yield ({"fibration": V.name,
                            "square": [r.name or "r", s.name or "s"]}, found)

    return _unique_factorisations("free-fibration-universality", squares,
                                  budget)


def check_cofree_split_reflection(cd: CommaData, tests,
                                  budget: Budget = UNBOUNDED) -> Report:
    """Couniversality of (1, d_f): every square (a, b) from a test split
    reflection x into f factors through i_f via exactly one
    unit-preserving functor b': cod x → B/f with d_f∘b' = b, b'∘u_x =
    i_f∘a and c_f∘b' = a∘l_x."""
    f = cd.f

    def squares():
        for S in tests:
            P, Q = S.u.source, S.u.target
            for a in enumerate_functors(P, f.source, budget=budget):
                fa = compose_functors(f, a)
                # _along keeps the last value where u_x is not injective,
                # so b∘u_x = f∘a is still checked
                for b in enumerate_functors(Q, f.target, *_along(S.u, fa),
                                            budget=budget):
                    if not functor_equal(compose_functors(b, S.u), fa):
                        continue
                    ia = compose_functors(cd.i_f, a)
                    al = compose_functors(a, S.left_adjoint)
                    found = [b2 for b2 in enumerate_functors(
                                 Q, cd.comma, *_along(S.u, ia), budget=budget,
                                 over=[(cd.d_f.u, b), (cd.c_f, al)])
                             if all(b2.mor_map[S.eta.components[q]]
                                    == cd.eta.components[b2.obj_map[q]]
                                    for q in Q.objects)]
                    yield ({"reflection": S.name,
                            "square": [a.name or "a", b.name or "b"]}, found)

    return _unique_factorisations("cofree-reflection-couniversality",
                                  squares, budget)
