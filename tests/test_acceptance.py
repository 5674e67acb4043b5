"""End-to-end acceptance suite.

Each test covers one acceptance criterion and emits a single PASS/FAIL
line (echoed after the run via the shared conftest hook) in addition to
its assertions.  Criteria 1-3 also enforce wall-clock targets.
"""

import json
import time
from contextlib import contextmanager

import conftest
import pytest

from fwfs import (AlgDouble, Budget, FactorisationAssignment, FinCategory,
                  LiftingStructure, RlpDouble, awfs_from_lifting,
                  build_finset, check_awfs, check_category,
                  check_double_category, check_factorisation_axiom,
                  check_lifting_awfs, check_lifting_operation,
                  check_cofree_split_reflection, check_free_split_fibration,
                  check_pre_awfs, check_split_fibration,
                  check_split_reflection, comma_category, dbl_from_class,
                  enumerate_algebras, enumerate_fillers, enumerate_functors,
                  roundtrip_compare, sem, terminal_category,
                  unique_filler_lifting, walking_arrow)
from fwfs.awfs import Awfs
from fwfs.catlib import (SplitFibration, canonical_filler, identity_fibration,
                         identity_reflection)
from fwfs.dblcat import sq, to_internal
from fwfs.fincat import (Functor, compose_functors, finset_image_factorisation,
                         functor_equal, identity_functor)
from fwfs.lifting import TableLifting


@contextmanager
def criterion(n, description, limit=None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        conftest.acceptance_lines.append(
            f"acceptance {n} ({description}): FAIL")
        raise
    elapsed = time.monotonic() - start
    if limit is not None and elapsed >= limit:
        conftest.acceptance_lines.append(
            f"acceptance {n} ({description}): FAIL "
            f"[{elapsed:.1f}s >= {limit}s]")
        pytest.fail(f"runtime {elapsed:.1f}s exceeded the {limit}s target")
    timing = f" [{elapsed:.1f}s]" if limit is not None else ""
    conftest.acceptance_lines.append(
        f"acceptance {n} ({description}): PASS{timing}")


def test_1_orthogonal_instance_finset3():
    with criterion(1, "surjections are orthogonal to injections on "
                      "FinSet<=3, with all lifting axioms", limit=30):
        fs = build_finset(3)
        C = fs.category
        left = dbl_from_class(C, fs.epis, name="D(Epi)")
        right = dbl_from_class(C, fs.monos, name="D(Mono)")
        # every square from a surjection to an injection has a unique filler
        n_squares = 0
        for e in sorted(fs.epis):
            for m in sorted(fs.monos):
                for top, bottom in C.squares(e, m):
                    n_squares += 1
                    assert len(enumerate_fillers(C, e, m, top, bottom)) == 1
        assert 0 < n_squares < 10**5
        op = unique_filler_lifting(left, right)
        S = LiftingStructure(left, op, right)
        assert check_lifting_operation(op, Budget(max_candidates=10**7)).ok
        assert check_pre_awfs(S, Budget(max_candidates=10**7)).ok
        FA = FactorisationAssignment(
            {f: finset_image_factorisation(f) for f in C.morphisms})
        assert check_factorisation_axiom(S, FA, "both").ok


def test_2_comma_instances():
    with criterion(2, "comma construction factorises a functor into a "
                      "split reflection then a split fibration", limit=10):
        W = walking_arrow()
        pick0 = Functor(terminal_category(), W, {"*": "0"}, {"id": "id0"},
                        name="pick0")
        for f in (identity_functor(W, name="idW"), pick0):
            cd = comma_category(f)
            assert check_category(cd.comma).ok
            assert functor_equal(compose_functors(cd.d_f.u, cd.i_f), f)
            assert functor_equal(compose_functors(cd.c_f, cd.i_f),
                                 identity_functor(f.source))
            assert check_split_reflection(cd.reflection).ok
            assert check_split_fibration(cd.d_f).ok

        # self-test square (i_f, d_f): i_f -> d_f for the identity functor
        cd = comma_category(identity_functor(W, name="idW"))
        k = canonical_filler(cd.reflection, cd.d_f, cd.i_f, cd.d_f.u)
        # brute force: all endofunctors of the comma category filling both
        # triangles of that square
        fillers = [g for g in enumerate_functors(cd.comma, cd.comma)
                   if functor_equal(compose_functors(g, cd.i_f), cd.i_f)
                   and functor_equal(compose_functors(cd.d_f.u, g),
                                     cd.d_f.u)]
        assert any(functor_equal(k, g) for g in fillers)
        assert functor_equal(compose_functors(k, cd.i_f), cd.i_f)
        assert functor_equal(compose_functors(cd.d_f.u, k), cd.d_f.u)


def test_3_awfs_axioms(epi_mono2):
    with criterion(3, "the reconstructed image awfs on FinSet<=2 satisfies "
                      "every comonad/monad/naturality/distributivity law",
                   limit=10):
        S, FA = epi_mono2
        A = awfs_from_lifting(S, FA)
        report = check_awfs(A)
        assert report.ok, [c.name for c in report.violations()]


def test_4_roundtrip(epi_mono2, image_awfs2):
    with criterion(4, "semantics of the reconstructed awfs reproduces the "
                      "original lifting structure table-for-table"):
        S, _ = epi_mono2
        A = image_awfs2
        assert roundtrip_compare(S, A).ok
        # byte-equality of the canonically ordered filler tables
        T = sem(A)
        C = S.left.base

        def canonical_table(struct):
            L, R = struct.left, struct.right
            out = {}
            for j in L.verticals():
                for k in R.verticals():
                    fj, gk = L.underlying(j), R.underlying(k)
                    for top, bottom in C.squares(fj, gk):
                        out[f"{fj}|{gk}|{top}|{bottom}"] = \
                            struct.op.fill(j, k, top, bottom)
            return json.dumps(out, sort_keys=True).encode()

        assert canonical_table(S) == canonical_table(T)


def test_5_algebras_are_the_injections(image_awfs2, finset2):
    with criterion(5, "algebra enumeration over the image awfs yields "
                      "exactly the injections, one structure each"):
        A = image_awfs2
        C = finset2.category
        structured = {}
        for g in C.morphisms:
            algebras = enumerate_algebras(A, g)
            if algebras:
                structured[g] = algebras
        assert set(structured) == finset2.monos
        assert all(len(v) == 1 for v in structured.values())
        # and the algebra double category has the same verticals as D(Mono)
        U = AlgDouble(A)
        assert {U.underlying(v) for v in U.verticals()} == finset2.monos


def test_6_right_connectedness(image_awfs2, epi_mono2):
    with criterion(6, "every vertical admits the connecting square onto "
                      "the identity vertical at its codomain"):
        S, _ = epi_mono2
        C = S.left.base
        for U in (AlgDouble(image_awfs2),
                  RlpDouble(S.left)):
            for v in U.verticals():
                f = U.underlying(v)
                cod = C.cod[f]
                assert U.is_square(v, U.identity_vertical(cod), f,
                                   C.identities[cod]), (U.name, U.label(v))


def test_7_mutation_sensitivity(epi_mono2, image_awfs2, finset2):
    with criterion(7, "single-entry corruptions flip each checker family "
                      "to violation with a witness"):
        C = finset2.category
        S, FA = epi_mono2
        A = image_awfs2
        flipped = []

        def expect_violation(family, report):
            bad = report.violations()
            assert bad and all(c.witnesses for c in bad), family
            flipped.append(family)

        # category: corrupt one composite (swap∘swap is the identity)
        comp = dict(C.comp)
        comp[("2>2:10", "2>2:10")] = "2>2:10"
        broken = FinCategory(C.objects, [(m, C.dom[m], C.cod[m])
                                         for m in C.morphisms],
                             C.identities, comp)
        expect_violation("category", check_category(broken))

        # double category: corrupt one vertical composite
        D = to_internal(sq(walking_arrow()))
        key = next(k for k in D.m_vert if k[0] == "a")
        D.m_vert[key] = key[1]
        expect_violation("double-category", check_double_category(D))

        # lifting operation: corrupt one filler
        entries = S.op.table()
        for key, d in sorted(entries.items()):
            alts = [x for x in C.hom(C.dom[d], C.cod[d]) if x != d]
            if alts:
                entries[key] = alts[0]
                break
        bad_op = TableLifting(S.left, S.right, entries)
        expect_violation("lifting-operation", check_lifting_operation(bad_op))

        # lifting axiom: drop one vertical from the right class
        from fwfs.fincat import finset_id
        from fwfs.dblcat import ClassDouble
        swap = finset_id(2, 2, (1, 0))
        right = ClassDouble(C, set(finset2.monos) - {swap})
        S2 = LiftingStructure(S.left, unique_filler_lifting(S.left, right),
                              right)
        expect_violation("pre-awfs", check_pre_awfs(S2, Budget()))

        # awfs laws: corrupt one comultiplication component
        delta = dict(A.delta)
        for f, d in sorted(delta.items()):
            alts = [x for x in C.hom(C.dom[d], C.cod[d]) if x != d]
            if alts:
                delta[f] = alts[0]
                break
        expect_violation("awfs", check_awfs(Awfs(A.ff, delta, A.mu)))

        # split fibration: corrupt one cleavage entry
        W = walking_arrow()
        from fwfs.catlib import identity_fibration
        F = identity_fibration(W)
        theta = dict(F.theta)
        theta[("1", "a")] = "id1"
        expect_violation("split-fibration",
                         check_split_fibration(SplitFibration(F.u, theta)))

        # factorisation axiom: factor one morphism non-universally
        bad_fa = dict(FA.assignment)
        bad_fa[finset_id(2, 2, (0, 1))] = (finset_id(2, 1, (0, 0)), "1",
                                           finset_id(1, 2, (0,)))
        expect_violation(
            "factorisation-axiom",
            check_factorisation_axiom(S, FactorisationAssignment(bad_fa),
                                      "both"))

        assert len(flipped) >= 6


def test_8_one_sided_redundancy(epi_mono2):
    with criterion(8, "the factorisation axiom verified on one side only "
                      "leaves the overall verdict unchanged"):
        S, FA = epi_mono2
        verdicts = {}
        for side in ("both", "left-only", "right-only"):
            assert check_factorisation_axiom(S, FA, side).ok
            verdicts[side] = check_lifting_awfs(S, FA, side, Budget()).status
        assert verdicts["left-only"] == verdicts["both"] == "ok"
        assert verdicts["right-only"] == "ok"


def test_9_awfs_laws_finset3():
    with criterion(9, "the reconstructed image awfs on FinSet<=3 satisfies "
                      "every law, functoriality decided from generators",
                   limit=20):
        fs = build_finset(3)
        C = fs.category
        left = dbl_from_class(C, fs.epis, name="D(Epi)")
        right = dbl_from_class(C, fs.monos, name="D(Mono)")
        S = LiftingStructure(left, unique_filler_lifting(left, right), right)
        FA = FactorisationAssignment(
            {f: finset_image_factorisation(f) for f in C.morphisms})
        report = check_awfs(awfs_from_lifting(S, FA))
        assert report.ok, [c.name for c in report.violations()]
        cases = {c.name: c.cases for c in report.checks}
        # every composable pair of squares would be 121,082,716 cases
        assert cases["functoriality"] <= 10**6


def test_10_category_finset4():
    with criterion(10, "FinSet<=4 is a category, associativity decided "
                       "from generators", limit=20):
        report = check_category(build_finset(4).category)
        assert report.ok
        cases = {c.name: c.cases for c in report.checks}
        # every composable triple would be 37,147,243 cases
        assert cases["associativity"] <= 2 * 10**6


def test_11_lifting_finset3_default_budget():
    with criterion(11, "the FinSet<=3 lifting operation and lifting axiom "
                       "are decided within the default budget, uniquely "
                       "filled squares decided from filler validity",
                   limit=10):
        fs = build_finset(3)
        C = fs.category
        left = dbl_from_class(C, fs.epis, name="D(Epi)")
        right = dbl_from_class(C, fs.monos, name="D(Mono)")
        S = LiftingStructure(left, unique_filler_lifting(left, right), right)
        for report in (check_lifting_operation(S.op, Budget()),
                       check_pre_awfs(S, Budget())):
            assert report.ok, [c.name for c in report.checks if c.status != "ok"]
            # evaluating every case would spend 1,081,908 on the operation
            assert report.budget_used <= 10**5


def test_12_comma_universality_chain3_default_budget():
    with criterion(12, "the free split fibration and the cofree split "
                       "reflection on the identity of [3] are decided "
                       "within the default budget", limit=20):
        X = conftest.chain(3)
        cd = comma_category(identity_functor(X, name="id3"))
        for report in (
                check_free_split_fibration(
                    cd, [identity_fibration(X, name="1"), cd.d_f], Budget()),
                check_cofree_split_reflection(
                    cd, [identity_reflection(X, name="1"), cd.reflection],
                    Budget())):
            assert report.ok, [c.name for c in report.checks if c.status != "ok"]
            assert report.budget_used <= 10**6
