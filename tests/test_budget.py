"""One budget model: ``UNBOUNDED`` stands for no budget, every bounded
block runs in ``Report.bounded`` or ``Report.cases``, an exhausted budget
is an inconclusive check rather than an exception, and ``budget_used`` is
what the budget spent."""

import ast
import json
import os
import subprocess
import sys
import time

import pytest

from conftest import chain
from fwfs import (UNBOUNDED, Budget, BudgetExceeded, FactorisationAssignment,
                  LiftingStructure, Report, RlpDouble, build_finset,
                  canonical_left, check_cat_roster, check_double_category,
                  check_essential_image, check_factorisation_axiom,
                  check_free_split_fibration, check_lifting_awfs,
                  check_pre_awfs, check_structure_morphism, cli,
                  comma_category, dbl_from_class, llp_verify, rlp_verify, sq,
                  to_internal, transpose_l, transpose_r,
                  unique_filler_lifting, walking_arrow)
from fwfs.catlib import identity_fibration
from fwfs.dblcat import (ConcreteDoubleMap, check_concrete_double_map,
                         identity_double_map)
from fwfs.fincat import finset_image_factorisation, identity_functor
from fwfs.io import load_bundle, load_roster
from fwfs.lifting import LlpDouble
from fwfs.report import Cases

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "..", "demos", "data")
SRC = os.path.join(HERE, "..", "src")


def data(name):
    return os.path.join(DATA, name)


@pytest.fixture(scope="module")
def bundle():
    _, S, FA = load_bundle(data("epi_mono_finset2.json"))
    return S, FA


def inconclusive_notes(report):
    return [w["note"] for c in report.checks if c.status == "inconclusive"
            for w in c.witnesses]


def test_unbounded_spends_nothing():
    for _ in range(10):
        UNBOUNDED.spend(10**9)
    assert UNBOUNDED.used == 0
    assert repr(UNBOUNDED) == "UNBOUNDED"


def test_spend_raises_before_charging():
    b = Budget(max_candidates=5)
    b.spend(5)
    with pytest.raises(BudgetExceeded, match="candidate budget exhausted"):
        b.spend()
    assert b.used == 5
    with pytest.raises(BudgetExceeded):
        b.spend()
    assert b.used == 5


def test_merge_keeps_the_larger_total():
    a, b = Report(), Report()
    a.budget_used, b.budget_used = 7, 3
    assert a.merge(b).budget_used == 7
    assert b.merge(Report()).budget_used == 3
    b.budget_used = 9
    assert a.merge(b).budget_used == 9


def test_cases_records_what_it_counted():
    b = Budget(max_candidates=10)
    report = Report()
    with report.cases("clean", b) as cases:
        for _ in range(3):
            cases.case()
    with report.cases("dirty", b) as cases:
        cases.case()
        cases.bad.append({"x": 1})
        cases.count(4)
    assert [c.to_dict() for c in report.checks] == [
        {"name": "clean", "status": "ok", "witnesses": [],
         "cases_examined": 3},
        {"name": "dirty", "status": "violation", "witnesses": [{"x": 1}],
         "cases_examined": 5}]
    assert report.budget_used == b.used == 4


def test_count_charges_nothing():
    b = Budget(max_candidates=1)
    cases = Cases(b)
    cases.count(10)
    assert (cases.n, b.used) == (10, 0)
    cases.case()
    assert (cases.n, b.used) == (11, 1)


def test_exhausted_cases_are_inconclusive():
    """The cases of an inconclusive check are the units charged in its
    block, not those counted or charged before it."""
    b = Budget(max_candidates=5)
    b.spend(2)
    report = Report()
    with report.cases("law", b) as cases:
        cases.count(7)
        while True:
            cases.case()
    [check] = report.checks
    assert check.to_dict() == {
        "name": "law", "status": "inconclusive", "cases_examined": 3,
        "witnesses": [{"note": "candidate budget exhausted, 3 cases checked"}]}
    assert report.budget_used == b.used == 5


def test_other_exceptions_record_nothing():
    b = Budget(max_candidates=5)
    report = Report()
    with pytest.raises(KeyError):
        with report.cases("law", b) as cases:
            cases.case()
            raise KeyError("x")
    assert report.checks == [] and report.budget_used == 0


def test_bounded_names_its_exhaustion():
    """A bounded block that records several checks reports exhaustion
    under its own name, after the checks it completed."""
    b = Budget(max_candidates=2)
    report = Report()
    with report.bounded("block", b):
        report.add_ok("first", cases=1)
        b.spend(2)
        b.spend()
    assert [(c.name, c.status, c.cases) for c in report.checks] == [
        ("first", "ok", 1), ("block", "inconclusive", 2)]
    assert report.budget_used == 2


def handlers_and_writers(tree):
    """The names of the exceptions tree catches, and the attributes it
    assigns."""
    caught, assigned = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = (node.type.elts if isinstance(node.type, ast.Tuple)
                     else [node.type])
            caught.update(ast.unparse(t).split(".")[-1] for t in types)
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, (ast.AugAssign,
                                                           ast.AnnAssign))
                   else [])
        for t in targets:
            for x in ast.walk(t):
                if isinstance(x, ast.Attribute):
                    assigned.add(x.attr)
    return caught, assigned


def test_one_place_catches_exhaustion():
    """Only ``report.py`` catches ``BudgetExceeded`` and writes
    ``budget_used``, and ``run_bounded`` is gone."""
    package = os.path.join(SRC, "fwfs")
    modules = sorted(m for m in os.listdir(package) if m.endswith(".py"))
    assert "report.py" in modules and "lifting.py" in modules
    for module in modules:
        with open(os.path.join(package, module), encoding="utf-8") as fh:
            source = fh.read()
        tree = ast.parse(source)
        caught, assigned = handlers_and_writers(tree)
        home = module == "report.py"
        assert ("BudgetExceeded" in caught) == home, module
        assert ("budget_used" in assigned) == home, module
        names = {n.name for n in ast.walk(tree)
                 if isinstance(n, (ast.FunctionDef, ast.alias))}
        assert "run_bounded" not in names, module


def laws_on_one_unit(S):
    """The checkers whose law blocks spend budget, each run on a
    budget of one candidate."""
    phi_r, phi_l = transpose_r(S), transpose_l(S)
    v = max(phi_r.vertical_map.values(), key=lambda v: len(v.theta))
    w = max(phi_l.vertical_map.values(), key=lambda w: len(w.theta))
    can = canonical_left(S.left)
    F_r = ConcreteDoubleMap(S.right, can.right, phi_r.vertical_map)
    D = to_internal(sq(walking_arrow()))

    def one():
        return Budget(max_candidates=1)
    return {
        "check_double_category": check_double_category(D, one()),
        "rlp_verify": rlp_verify(S.left, v, one()),
        "llp_verify": llp_verify(S.right, w, one()),
        "check_structure_morphism": check_structure_morphism(
            can, S, identity_double_map(S.left), F_r, one()),
        "check_concrete_double_map": check_concrete_double_map(phi_r, one()),
    }


def test_exhaustion_is_an_inconclusive_report(bundle):
    S, _ = bundle
    for name, report in laws_on_one_unit(S).items():
        assert isinstance(report, Report), name
        assert report.status == "inconclusive", name
        assert report.budget_used == 1, name
        notes = inconclusive_notes(report)
        assert notes[0] == "candidate budget exhausted, 1 cases checked", name


def test_represented_materialization_note(bundle):
    S, _ = bundle
    report = check_double_category(transpose_r(S).target,
                                   Budget(max_candidates=1))
    [check] = report.checks
    assert check.name == "materialization" and check.cases == 1
    assert check.witnesses == [
        {"note": "candidate budget exhausted, 1 cases checked"}]


@pytest.mark.parametrize("check", [check_double_category,
                                   check_essential_image])
def test_only_the_given_budget_is_charged(bundle, check, monkeypatch):
    """Enumerating the verticals of a represented double category
    charges the checker's budget, not private ones."""
    S, _ = bundle
    charged = []
    spend = Budget.spend

    def spy(budget, n=1):
        charged.append(budget)
        return spend(budget, n)
    monkeypatch.setattr(Budget, "spend", spy)
    b = Budget(max_candidates=3)
    report = check(RlpDouble(S.left), b)
    assert report.status == "inconclusive"
    assert report.budget_used == b.used == 3
    assert charged and all(x is b for x in charged)


@pytest.mark.parametrize("check", [check_double_category,
                                   check_essential_image])
@pytest.mark.parametrize("double", ["RLP(L)", "LLP(R)"])
def test_a_lawful_represented_double_is_ok(bundle, check, double):
    """The verticals over every morphism are enumerated in full, so a
    represented double category that passes every check is ok, with or
    without a budget of its own."""
    S, _ = bundle
    D = RlpDouble(S.left) if double == "RLP(L)" else LlpDouble(S.right)
    b = Budget()
    for budget, spent in ((UNBOUNDED, None), (b, b)):
        report = check(D, budget)
        assert report.status == "ok"
        assert report.budget_used > 0
        assert spent is None or report.budget_used == spent.used


@pytest.mark.parametrize("side", ["both", "left-only", "right-only"])
def test_lifting_awfs_reports_what_it_spent(bundle, side):
    S, FA = bundle
    b = Budget()
    report = check_lifting_awfs(S, FA, side, b)
    assert report.ok
    assert report.budget_used == b.used > 0


def test_cat_roster_reports_what_it_spent():
    L, R = load_roster(data("comma_roster.json"))
    b = Budget()
    report = check_cat_roster(L, R, b)
    assert report.ok
    assert report.budget_used == b.used > 0


def test_sem_reports_what_it_spent(capsys, monkeypatch):
    made = []

    def budget(args):
        made.append(Budget(max_candidates=10**6))
        return made[-1]
    monkeypatch.setattr(cli, "_budget", budget)
    assert cli.main(["sem", data("image_awfs_finset2.json")]) == 0
    doc = json.loads(capsys.readouterr().out)
    [b] = made
    assert doc["budget_used"] == b.used > 0


def test_no_budget_reports_none_spent(bundle):
    S, FA = bundle
    assert check_factorisation_axiom(S, FA).budget_used == 0
    D = to_internal(sq(walking_arrow()))
    assert check_double_category(D).budget_used == 0
    # the represented fallbacks spend a private budget of their own
    assert check_pre_awfs(S).budget_used > 0


def test_time_limit_names_the_limit():
    """The clock is polled every 4,096 spends, so the instance must
    spend more: FinSet<=3 factorisation has 25,128 cases."""
    fs = build_finset(3)
    C = fs.category
    left = dbl_from_class(C, fs.epis)
    right = dbl_from_class(C, fs.monos)
    S = LiftingStructure(left, unique_filler_lifting(left, right), right)
    FA = FactorisationAssignment(
        {f: finset_image_factorisation(f) for f in C.morphisms})
    b = Budget(max_seconds=1e-9)
    report = check_factorisation_axiom(S, FA, "left-only", b)
    [check] = [c for c in report.checks if c.status == "inconclusive"]
    assert check.cases == b.used == 4095
    assert check.witnesses == [
        {"note": "time budget exhausted, 4095 cases checked"}]
    assert report.budget_used == b.used


def free_check_on_chain3(budget, copies=1):
    """The free check on the identity of [3] (B/f has 10 objects and 50
    morphisms) against ``copies`` copies of its two test fibrations, and
    the seconds it took."""
    X = chain(3)
    cd = comma_category(identity_functor(X, name="id3"))
    assert (len(cd.comma.objects), len(cd.comma.morphisms)) == (10, 50)
    start = time.monotonic()
    report = check_free_split_fibration(
        cd, [identity_fibration(X, name="1"), cd.d_f] * copies, budget)
    return report, time.monotonic() - start


def test_functor_enumeration_honours_the_time_limit():
    # one copy takes under 2 s on a 2-core VM; five outlast the limit on
    # a machine several times faster
    report, seconds = free_check_on_chain3(Budget(max_seconds=1), copies=5)
    assert report.status == "inconclusive"
    [note] = inconclusive_notes(report)
    assert note.startswith("time budget exhausted")
    assert seconds < 5


def test_functor_enumeration_honours_the_candidate_limit():
    report, seconds = free_check_on_chain3(Budget(max_candidates=1000))
    assert report.status == "inconclusive"
    assert report.budget_used == 1000
    assert seconds < 5


def test_python_m_fwfs_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    out = subprocess.run([sys.executable, "-m", "fwfs", "--help"], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert "usage: fwfs" in out.stdout
