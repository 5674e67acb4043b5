"""The four benchmark workloads: set-up from the seed, and one pass.

A pass builds its inputs afresh (new ``FinCategory`` objects, or files
re-read), so every memo cache starts cold, as in one CLI invocation.
Each checker call is a task: it is timed together with
``Report.to_json()`` and its verdict is compared with the known answer.
Every ``Budget`` is constructed inside the task, immediately before its
call, because its deadline starts at construction.

Why each workload and instance was chosen is recorded in NOTES.md.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import random
import time

from inputs import (awfs_doc, build_category, category_doc, chain,
                    comma_roster_doc, compose_maps, delta3, draw_mutants, fid,
                    is_injective, is_surjective, shuffled, wrong_cleavage,
                    write_json)

DECIDING = 10**7     # candidates; enough for every budgeted task to decide
CLI_DEFAULT = 10**6  # the CLI's default; FinSet≤3 lifting needs 1,081,908
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ---------------------------------------------------------------------------
# tasks and known answers


class Tasks:
    """Times the tasks of a run and checks their answers.

    A wrong verdict, a wrong structure, ``to_json()`` bytes that differ
    from the task's first pass, or an exception all count as a failed
    task; none of them stops the run.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self._digests = {}
        self.current = None
        self.start_pass(None)

    def start_pass(self, pass_no):
        self.pass_no = pass_no
        self.times = {}
        self.budget_used = 0
        self.inconclusive = 0

    def run(self, name, call, expect):
        self.attempted += 1
        self.current = name
        start = time.perf_counter()
        try:
            result = call()
            # a checker returns a Report; other tasks return plain data
            blob = result.to_json() if hasattr(result, "to_json") else None
        except Exception as exc:  # a raising checker is a failed task
            self.fail(name, f"raised {type(exc).__name__}: {exc}")
            return None
        finally:
            self.times[name] = (start, time.perf_counter())
            self.current = None
        try:
            problem = expect(result)
        except Exception as exc:  # an answer of the wrong shape
            problem = f"answer not comparable: {type(exc).__name__}: {exc}"
        if blob is not None:
            self.budget_used += result.budget_used
            self.inconclusive += sum(c.status == "inconclusive"
                                     for c in result.checks)
            digest = hashlib.sha256(blob.encode()).hexdigest()
            if self._digests.setdefault(name, digest) != digest:
                problem = problem or "to_json() bytes differ between passes"
        if problem:
            self.fail(name, problem)
        return result

    def fail(self, name, problem):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{name}: {problem}")


def ok(report):
    if report.status != "ok":
        bad = [c.name for c in report.checks if c.status != "ok"]
        return f"expected ok, got {report.status} {bad[:3]}"
    return None


def violation(report):
    if report.status != "violation":
        return f"expected violation, got {report.status}"
    if not all(c.witnesses for c in report.violations()):
        return "violation without a witness"
    return None


def not_violation(report):
    if report.status not in ("ok", "inconclusive"):
        return f"expected ok or inconclusive, got {report.status}"
    return None


def equals(expected):
    def expect(got):
        if got != expected:
            diff = sorted(k for k in expected if got.get(k) != expected[k])
            return f"differs from the known answer at {diff[:3]}"
        return None
    return expect


def finset3_classes(seed):
    """Surjections and injections of FinSet≤3 by value, in seeded order
    (``dbl_from_class`` sorts them, so the order must not matter)."""
    epis, monos = [], []
    for m in range(4):
        for k in range(4):
            if m > 0 and k == 0:
                continue
            for v in itertools.product(range(k), repeat=m):
                if is_surjective(k, v):
                    epis.append(fid(m, k, v))
                if is_injective(v):
                    monos.append(fid(m, k, v))
    rng = random.Random(seed)
    return shuffled(rng, epis), shuffled(rng, monos)


# ---------------------------------------------------------------------------
# lifting-finset3: the lifting presentation on FinSet≤3


def prepare_lifting(lib, seed, workdir):
    epis, monos = finset3_classes(seed)
    return {"epis": epis, "monos": monos}


def pass_lifting(lib, prep, tasks):
    fincat, lifting, awfs = lib.fincat, lib.lifting, lib.awfs
    Budget = lib.report.Budget
    C = fincat.build_finset(3).category
    tasks.run("check_category", lambda: fincat.check_category(C), ok)
    L = lib.dblcat.dbl_from_class(C, prep["epis"], name="D(Epi)")
    R = lib.dblcat.dbl_from_class(C, prep["monos"], name="D(Mono)")
    op = lifting.unique_filler_lifting(L, R)
    S = lifting.LiftingStructure(L, op, R)
    tasks.run("check_lifting_operation", lambda: lifting.check_lifting_operation(
        op, Budget(max_candidates=DECIDING)), ok)
    tasks.run("check_pre_awfs", lambda: lifting.check_pre_awfs(
        S, Budget(max_candidates=DECIDING)), ok)
    FA = lifting.FactorisationAssignment(
        {f: fincat.finset_image_factorisation(f) for f in C.morphisms})
    tasks.run("check_factorisation_axiom", lambda: lifting.check_factorisation_axiom(
        S, FA, "both", Budget(max_candidates=DECIDING)), ok)
    A = awfs.awfs_from_lifting(S, FA)
    tasks.run("roundtrip_compare", lambda: awfs.roundtrip_compare(S, A), ok)


# ---------------------------------------------------------------------------
# laws-delta3: the algebraic presentation on Δ₊≤3, loaded from files


def prepare_laws(lib, seed, workdir):
    d = delta3(lib)
    rng = random.Random(seed)
    cat_path = os.path.join(workdir, "delta3.json")
    awfs_path = os.path.join(workdir, "delta3_awfs.json")
    write_json(cat_path, category_doc(d["category"], rng))
    write_json(awfs_path, awfs_doc(d, "delta3.json", rng))
    return {"category": cat_path, "awfs": awfs_path,
            "epis": shuffled(rng, d["epis"]), "monos": shuffled(rng, d["monos"]),
            "algebras": d["algebras"], "coalgebras": d["coalgebras"]}


def pass_laws(lib, prep, tasks):
    io, dblcat, lifting, awfs = lib.io, lib.dblcat, lib.lifting, lib.awfs
    Budget = lib.report.Budget
    C = io.load_category(prep["category"])
    A = io.load_awfs(prep["awfs"])
    L = dblcat.dbl_from_class(C, prep["epis"], name="D(Epi)")
    R = dblcat.dbl_from_class(C, prep["monos"], name="D(Mono)")
    tasks.run("check_double_category[epi]",
              lambda: dblcat.check_double_category(L), ok)
    tasks.run("check_double_category[mono]",
              lambda: dblcat.check_double_category(R), ok)
    tasks.run("check_awfs", lambda: awfs.check_awfs(A), ok)
    T = awfs.sem(A)
    FA = awfs.factorisation_assignment(A)
    tasks.run("check_lifting_awfs[sem]", lambda: lifting.check_lifting_awfs(
        T, FA, "both", Budget(max_candidates=DECIDING)), ok)
    tasks.run("enumerate_algebras", lambda: {
        g: [(a.g, a.p) for a in awfs.enumerate_algebras(A, g)]
        for g in A.C.morphisms}, equals(prep["algebras"]))
    tasks.run("enumerate_coalgebras", lambda: {
        f: [(c.f, c.s) for c in awfs.enumerate_coalgebras(A, f)]
        for f in A.C.morphisms}, equals(prep["coalgebras"]))
    S = lifting.LiftingStructure(L, lifting.unique_filler_lifting(L, R), R)
    tasks.run("roundtrip_compare", lambda: awfs.roundtrip_compare(S, A), ok)


# ---------------------------------------------------------------------------
# mutants: single-entry corruptions, and one budget-bound task


def prepare_mutants(lib, seed, workdir):
    mutants, d = draw_mutants(lib, seed)
    epis, monos = finset3_classes(seed)
    return {"mutants": mutants, "delta": d, "epis": epis, "monos": monos}


def pass_mutants(lib, prep, tasks):
    fincat, dblcat, lifting, awfs = lib.fincat, lib.dblcat, lib.lifting, lib.awfs
    Budget = lib.report.Budget
    C = fincat.build_finset(3).category
    L = dblcat.dbl_from_class(C, prep["epis"], name="D(Epi)")
    R = dblcat.dbl_from_class(C, prep["monos"], name="D(Mono)")
    op = lifting.unique_filler_lifting(L, R)
    S = lifting.LiftingStructure(L, op, R)
    table = op.table()
    FA = {f: fincat.finset_image_factorisation(f) for f in C.morphisms}
    d = prep["delta"]
    D = build_category(lib, d["category"], name="Δ₊≤3")
    LD = dblcat.dbl_from_class(D, d["epis"], name="D(Epi)")

    for i, m in enumerate(prep["mutants"]):
        family = m["family"]
        name = f"{i:02d}-{family}"
        if family == "category":
            comp = dict(C.comp)
            comp[(m["g"], m["f"])] = m["x"]
            broken = fincat.FinCategory(
                C.objects, [(x, C.dom[x], C.cod[x]) for x in C.morphisms],
                C.identities, comp)
            tasks.run(name, lambda: fincat.check_category(broken), violation)
        elif family == "filler":
            entries = dict(table)
            entries[m["key"]] = m["x"]
            bad = lifting.TableLifting(L, R, entries)
            tasks.run(name, lambda: lifting.check_lifting_operation(
                bad, Budget(max_candidates=DECIDING)), violation)
        elif family == "factorisation":
            bad = lifting.FactorisationAssignment({**FA, m["f"]: m["legs"]})
            tasks.run(name, lambda: lifting.check_factorisation_axiom(
                S, bad, "both", Budget(max_candidates=DECIDING)), violation)
        elif family == "pre-awfs":
            right = dblcat.dbl_from_class(
                D, [x for x in d["monos"] if x != m["drop"]], name="D(Mono)-1")
            S2 = lifting.LiftingStructure(
                LD, lifting.unique_filler_lifting(LD, right), right)
            tasks.run(name, lambda: lifting.check_pre_awfs(
                S2, Budget(max_candidates=DECIDING)), violation)
        elif family in ("e-square", "delta", "mu"):
            sq_map, delta, mu = dict(d["sq_map"]), dict(d["delta"]), dict(d["mu"])
            if family == "e-square":
                sq_map[m["key"]] = m["x"]
            elif family == "delta":
                delta[m["f"]] = m["x"]
            else:
                mu[m["f"]] = m["x"]
            ff = awfs.FunctorialFactorisation(D, dict(d["mid"]), dict(d["lam"]),
                                              dict(d["rho"]), sq_map)
            A = awfs.Awfs(ff, delta, mu)
            tasks.run(name, lambda: awfs.check_awfs(A), violation)
        elif family == "budget":
            fresh = lifting.unique_filler_lifting(L, R)
            tasks.run(name, lambda: lifting.check_lifting_operation(
                fresh, Budget(max_candidates=CLI_DEFAULT)), not_violation)
        else:
            raise ValueError(f"unknown mutant family {family!r}")


# ---------------------------------------------------------------------------
# comma-chain2: the catlib pipeline on the walking arrow, [2] and pick0


def prepare_comma(lib, seed, workdir):
    rng = random.Random(seed)
    data = chain(2)
    X = build_category(lib, data, name="[2]")
    path = os.path.join(workdir, "chain2_roster.json")
    write_json(path, comma_roster_doc(lib, X))
    return {"chain2": data, "wrong": wrong_cleavage(lib, X, rng),
            "rosters": [("arrow", os.path.join(ROOT, "demos", "data",
                                               "comma_roster.json")),
                        ("chain2", path)]}


def triangles(cd):
    """k∘i_f = i_f and d_f∘k = d_f, compared table by table."""
    def expect(k):
        i, d = cd.i_f, cd.d_f.u
        if compose_maps(k, i) != (i.obj_map, i.mor_map):
            return "upper triangle k∘i_f = i_f fails"
        if compose_maps(d, k) != (d.obj_map, d.mor_map):
            return "lower triangle d_f∘k = d_f fails"
        return None
    return expect


def pass_comma(lib, prep, tasks):
    fincat, catlib = lib.fincat, lib.catlib
    Budget = lib.report.Budget
    W = fincat.walking_arrow()
    X = build_category(lib, prep["chain2"], name="[2]")
    pick0 = fincat.Functor(fincat.terminal_category(), W, {"*": "0"},
                           {"id": "id0"}, name="pick0")
    functors = [("arrow", fincat.identity_functor(W, name="idW")),
                ("chain2", fincat.identity_functor(X, name="id2")),
                ("pick0", pick0)]
    for label, f in functors:
        cd = catlib.comma_category(f)
        tasks.run(f"check_category[{label}]",
                  lambda: fincat.check_category(cd.comma), ok)
        tasks.run(f"check_split_reflection[{label}]",
                  lambda: catlib.check_split_reflection(cd.reflection), ok)
        tasks.run(f"check_split_fibration[{label}]",
                  lambda: catlib.check_split_fibration(
                      cd.d_f, Budget(max_candidates=DECIDING)), ok)
        fibs = [catlib.identity_fibration(f.target, name="1"), cd.d_f]
        tasks.run(f"check_free_split_fibration[{label}]",
                  lambda: catlib.check_free_split_fibration(
                      cd, fibs, Budget(max_candidates=DECIDING)), ok)
        refls = [catlib.identity_reflection(f.source, name="1"), cd.reflection]
        tasks.run(f"check_cofree_split_reflection[{label}]",
                  lambda: catlib.check_cofree_split_reflection(
                      cd, refls, Budget(max_candidates=DECIDING)), ok)
        tasks.run(f"canonical_filler[{label}]",
                  lambda: catlib.canonical_filler(cd.reflection, cd.d_f,
                                                  cd.i_f, cd.d_f.u),
                  triangles(cd))
        if label == "chain2":
            key, lift = prep["wrong"]
            wrong = catlib.SplitFibration(cd.d_f.u, {**cd.d_f.theta, key: lift},
                                          name="wrong")
            tasks.run("check_free_split_fibration[wrong-cleavage]",
                      lambda: catlib.check_free_split_fibration(
                          cd, [wrong], Budget(max_candidates=DECIDING)),
                      violation)
    for label, path in prep["rosters"]:
        L, R = lib.io.load_roster(path)
        tasks.run(f"check_cat_roster[{label}]", lambda: catlib.check_cat_roster(
            L, R, Budget(max_candidates=DECIDING)), ok)


WORKLOADS = {
    "lifting-finset3": (prepare_lifting, pass_lifting),
    "laws-delta3": (prepare_laws, pass_laws),
    "mutants": (prepare_mutants, pass_mutants),
    "comma-chain2": (prepare_comma, pass_comma),
}
