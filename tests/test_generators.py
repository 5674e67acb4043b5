"""The generator-based checks against the brute-force loops they replace.

``check_category`` decides associativity only for the triples whose
middle morphism is a generator (Light's test), and
``check_functorial_factorisation`` decides functoriality of E only on
the generating pairs of squares of the strict factorisation system on
C².  Both are proven equivalent to the full enumeration.  This module
keeps the full enumerations as reference oracles and requires the same
verdict from both on every instance small enough to brute-force: stock
and comma categories, the acceptance-7 mutations that reach either
check, every single-entry corruption of FinSet≤2 and of its image awfs,
and multi-entry families in which both verdicts occur.
"""

import itertools
import os
import random

from fwfs import (Awfs, FinCategory, FunctorialFactorisation, build_finset,
                  check_awfs, check_category, check_double_category,
                  check_functorial_factorisation, comma_category,
                  terminal_category, walking_arrow)
from fwfs.awfs import generating_square_pairs
from fwfs.dblcat import sq, to_internal
from fwfs.fincat import Functor, finset_id, generators, identity_functor
from fwfs.io import load_awfs

DATA = os.path.join(os.path.dirname(__file__), os.pardir, "demos", "data")


# --- the brute-force oracles -----------------------------------------------


def brute_associative(C):
    """(h∘g)∘f = h∘(g∘f) for every composable triple."""
    comp = C.comp
    by_dom = {}
    for m in C.morphisms:
        by_dom.setdefault(C.dom[m], []).append(m)
    for f in C.morphisms:
        for g in by_dom.get(C.cod[f], ()):
            gf = comp[(g, f)]
            for h in by_dom.get(C.cod[g], ()):
                if comp[(h, gf)] != comp[(comp[(h, g)], f)]:
                    return False
    return True


def brute_functorial(ff):
    """E preserves identities and every composite of two squares."""
    C, sq_map, comp = ff.C, ff.sq_map, ff.C.comp
    for f in C.morphisms:
        idsq = (f, f, C.identities[C.dom[f]], C.identities[C.cod[f]])
        if sq_map[idsq] != C.identities[ff.mid[f]]:
            return False
    for f in C.morphisms:
        for g in C.morphisms:
            for t1, b1 in C.squares(f, g):
                e1 = sq_map[(f, g, t1, b1)]
                for h in C.morphisms:
                    for t2, b2 in C.squares(g, h):
                        lhs = sq_map[(f, h, comp[(t2, t1)], comp[(b2, b1)])]
                        if lhs != comp[(sq_map[(g, h, t2, b2)], e1)]:
                            return False
    return True


def statuses(report):
    return {c.name: c.status for c in report.checks}


def category_verdict(C):
    """check_category's associativity verdict, which must be the oracle's."""
    status = statuses(check_category(C))["associativity"]
    assert (status == "ok") == brute_associative(C), C.name
    return status


def functoriality_verdict(ff, report=None):
    """The verdict on E, which must be the oracle's: functoriality is
    decided when the earlier checks pass, and otherwise the report is
    a violation either way."""
    report = report or check_functorial_factorisation(ff)
    got = statuses(report)
    if "functoriality" not in got:
        assert not report.ok
        return "not-reached"
    assert (got["functoriality"] == "ok") == brute_functorial(ff)
    return got["functoriality"]


def with_composition(C, comp, name=""):
    return FinCategory(C.objects, [(m, C.dom[m], C.cod[m]) for m in C.morphisms],
                       C.identities, comp, name=name)


def monoid(elements, op, name):
    """The one-object category of a monoid whose identity is elements[0]."""
    comp = {(x, y): op(x, y) for x in elements for y in elements}
    return FinCategory(["*"], [(m, "*", "*") for m in elements],
                       {"*": elements[0]}, comp, name=name)


def z3():
    return monoid(["0", "1", "2"], lambda x, y: str((int(x) + int(y)) % 3),
                  "Z/3")


def constants_monoid():
    """{1, c0, c1}: the identity and the two constant maps of a 2-set."""
    return monoid(["1", "c0", "c1"], lambda x, y: y if x == "1" else x, "T")


def chain2():
    objects = ["0", "1", "2"]
    morphisms = [(f"{i}<{j}", str(i), str(j))
                 for i in range(3) for j in range(i, 3)]
    comp = {(f"{j}<{k}", f"{i}<{j}"): f"{i}<{k}"
            for i in range(3) for j in range(i, 3) for k in range(j, 3)}
    return FinCategory(objects, morphisms, {o: f"{o}<{o}" for o in objects},
                       comp, name="[2]")


def codomain_ff(C):
    """Ef = cod f, λf = f, ρf = 1; E(t, b) = b."""
    mid = {f: C.cod[f] for f in C.morphisms}
    lam = {f: f for f in C.morphisms}
    rho = {f: C.identities[C.cod[f]] for f in C.morphisms}
    sq_map = {(f, g, t, b): b for f in C.morphisms for g in C.morphisms
              for t, b in C.squares(f, g)}
    return FunctorialFactorisation(C, mid, lam, rho, sq_map)


def domain_ff(C):
    """Ef = dom f, λf = 1, ρf = f; E(t, b) = t."""
    mid = {f: C.dom[f] for f in C.morphisms}
    lam = {f: C.identities[C.dom[f]] for f in C.morphisms}
    rho = {f: f for f in C.morphisms}
    sq_map = {(f, g, t, b): t for f in C.morphisms for g in C.morphisms
              for t, b in C.squares(f, g)}
    return FunctorialFactorisation(C, mid, lam, rho, sq_map)


def stock_categories():
    W = walking_arrow()
    pick0 = Functor(terminal_category(), W, {"*": "0"}, {"id": "id0"},
                    name="pick0")
    finset2 = build_finset(2).category
    out = [terminal_category(), W, z3(), constants_monoid(), chain2(),
           finset2]
    for f in (identity_functor(W, name="idW"),
              identity_functor(chain2(), name="id2"), pick0,
              identity_functor(finset2, name="id")):
        out.append(comma_category(f).comma)
    return out


# --- the generating set -------------------------------------------------------


def test_generators_reach_every_non_identity():
    for C in stock_categories():
        gens = generators(C)
        assert len(gens) == len(set(gens))
        assert not any(C.is_identity(g) for g in gens)
        reached = set(gens)
        changed = True
        while changed:
            changed = False
            for (g, f), gf in C.comp.items():
                if g in gens and f in reached and gf not in reached \
                        and not C.is_identity(gf):
                    reached.add(gf)
                    changed = True
        assert reached == {m for m in C.morphisms if not C.is_identity(m)}


def test_generators_fall_back_when_nothing_is_irreducible():
    # in Z/3 both non-identities are composites (1 = 2+2, 2 = 1+1), so
    # the closure starts from the first unreached morphism
    assert generators(z3()) == ["1"]


def test_generators_of_a_poset_are_the_covers():
    assert sorted(generators(chain2())) == ["0<1", "1<2"]


# --- associativity ------------------------------------------------------------


def test_stock_and_comma_categories_agree():
    for C in stock_categories():
        assert category_verdict(C) == "ok"


def test_double_category_square_categories_agree():
    D = to_internal(sq(walking_arrow()))
    report = statuses(check_double_category(D))
    for part, C in (("cat0", D.cat0), ("cat1", D.cat1)):
        assert report[f"{part}-associativity"] == "ok"
        assert brute_associative(C)


def test_every_single_composite_corruption_of_finset2_agrees(finset2):
    C = finset2.category
    verdicts = []
    for (g, f), gf in sorted(C.comp.items()):
        if C.is_identity(g) or C.is_identity(f):
            continue  # keep the units
        for x in C.hom(C.dom[f], C.cod[g]):
            if x != gf:
                verdicts.append(category_verdict(
                    with_composition(C, {**C.comp, (g, f): x})))
    assert len(verdicts) == 39
    assert set(verdicts) == {"violation"}


def test_every_unital_table_on_three_elements_agrees():
    # all 3^4 one-object composition tables with a fixed identity: the
    # Z/3 table with any of its four non-unit entries changed
    Z = z3()
    free = [(x, y) for x in ("1", "2") for y in ("1", "2")]
    verdicts = []
    for values in itertools.product(Z.morphisms, repeat=len(free)):
        verdicts.append(category_verdict(
            with_composition(Z, {**Z.comp, **dict(zip(free, values))})))
    assert len(verdicts) == 81
    assert {"ok", "violation"} <= set(verdicts)


def test_seeded_multi_entry_corruptions_agree(finset2):
    rng = random.Random(20220419)
    verdicts = []
    for C in (finset2.category, z3(), constants_monoid(), chain2()):
        entries = sorted(k for k in C.comp
                         if not (C.is_identity(k[0]) or C.is_identity(k[1])))
        for _ in range(30):
            comp = dict(C.comp)
            for g, f in rng.sample(entries, rng.randint(1, min(4, len(entries)))):
                comp[(g, f)] = rng.choice(C.hom(C.dom[f], C.cod[g]))
            verdicts.append(category_verdict(with_composition(C, comp)))
    assert {"ok", "violation"} <= set(verdicts)


# --- functoriality ------------------------------------------------------------


def test_stock_factorisations_agree():
    for C in (walking_arrow(), z3(), constants_monoid(), chain2(),
              build_finset(2).category):
        for ff in (codomain_ff(C), domain_ff(C)):
            assert functoriality_verdict(ff) == "ok"


def test_image_awfs_and_its_single_entry_corruptions_agree():
    A = load_awfs(os.path.join(DATA, "image_awfs_finset2.json"))
    ff, C = A.ff, A.C
    assert functoriality_verdict(ff) == "ok"
    n = 0
    for key, e in sorted(ff.sq_map.items()):
        f, g, _, _ = key
        for x in C.hom(ff.mid[f], ff.mid[g]):
            if x != e:
                n += 1
                functoriality_verdict(FunctorialFactorisation(
                    C, ff.mid, ff.lam, ff.rho, {**ff.sq_map, key: x}))
    assert n == 88


def test_every_natural_e_table_on_the_constants_monoid_agrees():
    # λc0 = c1, ρc0 = c0 (and dually for c1) leave two natural choices of
    # E on twelve squares; all 2^12 tables reach the functoriality check
    T = constants_monoid()
    comp = T.comp
    mid = {m: "*" for m in T.morphisms}
    lam = {"1": "1", "c0": "c1", "c1": "c0"}
    rho = {"1": "1", "c0": "c0", "c1": "c1"}
    choices = {}
    for f in T.morphisms:
        for g in T.morphisms:
            for t, b in T.squares(f, g):
                choices[(f, g, t, b)] = [
                    x for x in T.morphisms
                    if comp[(x, lam[f])] == comp[(lam[g], t)]
                    and comp[(rho[g], x)] == comp[(b, rho[f])]]
    keys = sorted(choices)
    verdicts = []
    for values in itertools.product(*(choices[k] for k in keys)):
        ff = FunctorialFactorisation(T, mid, lam, rho, dict(zip(keys, values)))
        verdicts.append(functoriality_verdict(ff))
    assert len(verdicts) == 4096
    assert verdicts.count("ok") == 4
    assert set(verdicts) == {"ok", "violation"}


def test_functoriality_on_a_non_category_uses_every_pair():
    # a stray composition entry naming an unknown morphism makes Z/3 fail
    # check_category; the generating pairs then prove nothing, and the
    # check falls back to every composable pair of squares
    Z = z3()
    broken = with_composition(Z, {**Z.comp, ("x", "y"): "z"})
    assert not check_category(broken).ok
    ff = codomain_ff(broken)
    report = check_functorial_factorisation(ff)
    n_pairs = sum(len(broken.squares(f, g)) * len(broken.squares(g, h))
                  for f in broken.morphisms for g in broken.morphisms
                  for h in broken.morphisms)
    functoriality = next(c for c in report.checks if c.name == "functoriality")
    assert functoriality.cases == len(broken.morphisms) + n_pairs
    assert functoriality_verdict(ff, report) == "ok"


# --- the generating pairs on maps that need not be natural ------------------
#
# The equivalence needs only that C is a category, not naturality, so the
# generating pairs are compared with every pair on all boundary-correct
# maps from squares to morphisms.  Single-entry changes of a functor
# need the factorisation and the (t, 1)∘(t, 1) families; the (1, b)∘(1, b)
# and exchange families each get an instance that only they catch.


def equations_hold(C, mid, sq_map, pairs):
    comp = C.comp
    for f in C.morphisms:
        idsq = (f, f, C.identities[C.dom[f]], C.identities[C.cod[f]])
        if sq_map[idsq] != C.identities[mid[f]]:
            return False
    for f, g, h, (t1, b1), (t2, b2) in pairs:
        lhs = sq_map[(f, h, comp[(t2, t1)], comp[(b2, b1)])]
        if lhs != comp[(sq_map[(g, h, t2, b2)], sq_map[(f, g, t1, b1)])]:
            return False
    return True


def pairs_verdict(C, mid, sq_map):
    """The verdict of the generating pairs, which must be the oracle's."""
    got = equations_hold(C, mid, sq_map, generating_square_pairs(C))
    assert got == brute_functorial(
        FunctorialFactorisation(C, mid, {}, {}, sq_map))
    return got


def test_generating_pairs_decide_every_single_entry_change():
    for C in (walking_arrow(), z3(), constants_monoid(), chain2(),
              build_finset(2).category):
        for ff in (codomain_ff(C), domain_ff(C)):
            assert pairs_verdict(C, ff.mid, ff.sq_map)
            for key, e in sorted(ff.sq_map.items()):
                for x in C.hom(ff.mid[key[0]], ff.mid[key[1]]):
                    if x != e:
                        pairs_verdict(C, ff.mid, {**ff.sq_map, key: x})


def test_lower_squares_that_do_not_compose_are_found(finset2):
    # E(t, b) = phi(b) respects identities, each factorisation and every
    # exchange, so only composition of two (1, b) squares can fail
    C = finset2.category
    mid = {f: C.cod[f] for f in C.morphisms}
    swap, const = finset_id(2, 2, (1, 0)), finset_id(2, 2, (0, 0))
    phi = {m: m for m in C.morphisms}
    phi[swap] = const  # swap∘swap = 1, but const∘const ≠ 1
    sq_map = {(f, g, t, b): phi[b] for f in C.morphisms
              for g in C.morphisms for t, b in C.squares(f, g)}
    assert not pairs_verdict(C, mid, sq_map)


def test_an_exchange_that_fails_is_found():
    # on {1, c0, c1}: E(t, b) = c1∘b for t ≠ 1 and b for t = 1 is a
    # functor on (t, 1) squares and on (1, b) squares and factors every
    # square, but E(1, c0)∘E(c0, 1) = c0 differs from E(c0, c0) = c1
    T = constants_monoid()
    mid = {m: "*" for m in T.morphisms}
    sq_map = {(f, g, t, b): b if t == "1" else T.comp[("c1", b)]
              for f in T.morphisms for g in T.morphisms
              for t, b in T.squares(f, g)}
    assert not pairs_verdict(T, mid, sq_map)


# --- acceptance-7 mutations -----------------------------------------------


def test_acceptance_mutations_agree(finset2, image_awfs2):
    """The acceptance-7 mutations that reach either check: a corrupted
    composite, a corrupted vertical composite (whose cat0 and cat1 the
    double-category check decides) and a corrupted Δ component (whose
    E the awfs check decides).  The lifting, pre-awfs, fibration and
    factorisation mutations reach neither."""
    C = finset2.category
    assert category_verdict(with_composition(
        C, {**C.comp, ("2>2:10", "2>2:10"): "2>2:10"})) == "violation"

    D = to_internal(sq(walking_arrow()))
    key = next(k for k in D.m_vert if k[0] == "a")
    D.m_vert[key] = key[1]
    report = check_double_category(D)
    assert report.status == "violation"
    for part, cat in (("cat0", D.cat0), ("cat1", D.cat1)):
        assert statuses(report)[f"{part}-associativity"] == "ok"
        assert brute_associative(cat)

    A = image_awfs2
    delta = dict(A.delta)
    for f, d in sorted(delta.items()):
        alts = [x for x in C.hom(C.dom[d], C.cod[d]) if x != d]
        if alts:
            delta[f] = alts[0]
            break
    report = check_awfs(Awfs(A.ff, delta, A.mu))
    assert report.status == "violation"
    assert functoriality_verdict(A.ff, report) == "ok"


# --- non-associative bases ------------------------------------------------


def test_composite_that_is_not_a_square_is_a_violation():
    """On Z/3 with 1+1 set to 1, pasting two squares need not give a
    square, so E has no value on the composite: a witnessed violation."""
    B = z3()
    B = with_composition(B, {**B.comp, ("1", "1"): "1"}, name="Z/3 with 1+1 := 1")
    assert not brute_associative(B)
    report = check_functorial_factorisation(codomain_ff(B))
    assert statuses(report)["functoriality"] == "violation"
    kinds = {w["kind"] for w in report.violations()[0].witnesses}
    assert "composite-not-a-square" in kinds


def test_category_verdict_is_computed_once(monkeypatch):
    """check_functorial_factorisation reads the category's memoised
    verdict instead of checking the category again on every call."""
    import fwfs.fincat
    calls = []
    original = fwfs.fincat.check_category

    def counting(C):
        calls.append(C.name)
        return original(C)

    monkeypatch.setattr(fwfs.fincat, "check_category", counting)
    C = chain2()
    ff = codomain_ff(C)
    for _ in range(3):
        assert check_functorial_factorisation(ff).ok
    assert calls == ["[2]"]
