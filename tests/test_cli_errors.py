"""Inputs that used to escape the CLI as a traceback with exit 1 are
reported as witnessed violations (JSON on stdout, exit 1) or, when the
input itself is malformed, as usage errors (exit 64)."""

import json
import os

import pytest

from fwfs.cli import main
from fwfs.io import load_bundle

DATA = os.path.abspath(os.path.join(os.path.dirname(__file__), "..",
                                    "demos", "data"))


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, json.loads(capsys.readouterr().out)


def epi_mono_bundle(tmp_path, **changes):
    """epi_mono_finset2.json with absolute paths and ``changes`` applied."""
    with open(os.path.join(DATA, "epi_mono_finset2.json")) as fh:
        doc = json.load(fh)
    doc["category"] = os.path.join(DATA, doc["category"])
    doc.update(changes)
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_missing_table_entry_is_a_violation(capsys, tmp_path):
    _, S, _ = load_bundle(os.path.join(DATA, "epi_mono_finset2.json"))
    rows = [[*key, d] for key, d in sorted(S.op.table().items())]
    assert len(rows) == 44
    missing = rows.pop(7)
    path = epi_mono_bundle(tmp_path, operation={"kind": "table",
                                                "entries": rows})
    j, k, top, bottom, _ = missing
    code, doc = run_cli(capsys, "check", "lifting-op", path)
    assert code == 1 and doc["status"] == "violation"
    [check] = doc["checks"]
    assert check["name"] == "filler-validity"
    assert check["witnesses"] == [{"j": j, "k": k, "square": [top, bottom],
                                   "diagonal": None}]
    code, doc = run_cli(capsys, "roundtrip", path)
    assert code == 1 and doc["status"] == "violation"
    fillers = [c for c in doc["checks"] if c["name"] == "fillers"]
    assert [c["status"] for c in doc["checks"]] == \
        ["ok"] * 4 + ["violation"]
    assert [(w["j"], w["k"], w["square"], w["original"])
            for w in fillers[0]["witnesses"]] == [(j, k, [top, bottom], None)]


def test_factorisation_not_composing_to_f_is_a_violation(capsys, tmp_path):
    with open(os.path.join(DATA, "epi_mono_finset2.json")) as fh:
        rows = json.load(fh)["factorisation"]
    for row in rows:
        if row["f"] == "2>2:01":
            row.update(left="2>1:00", mid="1", right="1>2:0")
    path = epi_mono_bundle(tmp_path, factorisation=rows)
    for command in ("reconstruct", "roundtrip"):
        code, doc = run_cli(capsys, command, path)
        assert code == 1 and doc["status"] == "violation", command
        [check] = doc["checks"]
        assert check["name"] == "ReconstructionError"
        assert check["witnesses"] == [{"witness": repr(
            ("E on squares", ("1>1:0", "2>2:01", "1>2:1", "1>2:1")))}]
    # the lifting-awfs check names the broken leg
    code, doc = run_cli(capsys, "check", "lifting-awfs", path)
    assert code == 1
    assert doc["checks"][-1]["witnesses"] == [
        {"kind": "composite", "f": "2>2:01", "got": "2>2:00"}]


def functor_dict(F):
    return {"object_map": F.obj_map, "morphism_map": F.mor_map}


def test_exhausted_budget_on_a_double_category_is_inconclusive(capsys,
                                                              tmp_path):
    """Running out of budget in the law blocks of check_double_category
    is an inconclusive verdict, exit 2, not a traceback."""
    from fwfs import sq, to_internal, walking_arrow
    from fwfs.io import category_to_dict
    D = to_internal(sq(walking_arrow()))
    m = [[w, v, wv] for (w, v), wv in {**D.m_vert, **D.m_sq}.items()]
    path = tmp_path / "sq_arrow.json"
    path.write_text(json.dumps({
        "cat0": category_to_dict(D.cat0), "cat1": category_to_dict(D.cat1),
        "d": functor_dict(D.d), "c": functor_dict(D.c),
        "i": functor_dict(D.i), "m": m}))
    code, doc = run_cli(capsys, "check", "double", str(path))
    assert code == 0 and doc["status"] == "ok"
    code, doc = run_cli(capsys, "--max-candidates", "2",
                        "check", "double", str(path))
    assert code == 2 and doc["status"] == "inconclusive"
    status = {c["name"]: c["status"] for c in doc["checks"]}
    assert status["m-associativity"] == "inconclusive"
    assert doc["budget_used"] == 2


def double_corruptions(doc):
    """Every single-entry corruption of a double-category file: each m
    row's composite replaced by every other id of cat1, each m row
    dropped, and each entry of the d, c and i maps deleted or replaced
    by every other element of its target."""
    cat0, cat1 = doc["cat0"], doc["cat1"]
    cells = {"objects": (cat0["objects"], cat1["objects"]),
             "morphisms": ([m["id"] for m in cat0["morphisms"]],
                           [m["id"] for m in cat1["morphisms"]])}
    ids1 = cells["objects"][1] + cells["morphisms"][1]
    for idx, (w, v, wv) in enumerate(doc["m"]):
        for x in ids1:
            if x != wv:
                yield f"m[{idx}] := {x}", {**doc, "m": [
                    *doc["m"][:idx], [w, v, x], *doc["m"][idx + 1:]]}
        yield f"m[{idx}] dropped", {**doc,
                                    "m": doc["m"][:idx] + doc["m"][idx + 1:]}
    for name, to_cat1 in (("d", False), ("c", False), ("i", True)):
        for kind, targets in cells.items():
            key = f"{kind[:-1]}_map" if kind == "objects" else "morphism_map"
            table = doc[name][key]
            for entry, image in table.items():
                rest = {k: x for k, x in table.items() if k != entry}
                yield f"{name}.{key}[{entry}] deleted", {
                    **doc, name: {**doc[name], key: rest}}
                for x in targets[to_cat1]:
                    if x != image:
                        yield f"{name}.{key}[{entry}] := {x}", {
                            **doc, name: {**doc[name],
                                          key: {**table, entry: x}}}


def test_no_corruption_of_a_double_category_is_a_traceback(capsys, tmp_path):
    """A corrupted double-category file ends as a report: JSON on stdout
    and a violation, never a traceback."""
    with open(os.path.join(DATA, "sq_walking_arrow_double.json")) as fh:
        doc = json.load(fh)
    path = tmp_path / "double.json"
    seen = 0
    for what, bad in double_corruptions(doc):
        seen += 1
        path.write_text(json.dumps(bad))
        code, report = run_cli(capsys, "check", "double", str(path))
        assert (code, report["status"]) == (1, "violation"), what
    assert seen == 198


def set_m(doc, w, v, wv):
    return {**doc, "m": [[w, v, wv] if row[:2] == [w, v] else row
                         for row in doc["m"]]}


A, A0, A1 = "[a|a]:id0=>id1", "[id0|id1]:a=>a", "[id1|id1]:id1=>id1"
CONSTANT_I = {"object_map": {"0": "id1", "1": "id1"},
              "morphism_map": {"id0": A1, "id1": A1, "a": A1}}


@pytest.mark.parametrize("corrupt, check, witness", [
    (lambda doc: {**doc, "i": {**doc["i"], "object_map": {"1": "id1"}}},
     "i-totality", {"kind": "object-unmapped", "object": "0"}),
    (lambda doc: {**doc, "i": CONSTANT_I},
     "identity-section", {"kind": "section-object", "object": "0"}),
    (lambda doc: set_m(doc, A1, A0, A),
     "m-totality", {"kind": "square-boundary", "beta": A1, "alpha": A0}),
    (lambda doc: set_m(doc, "a", "id0", "id0"),
     "m-totality", {"kind": "vertical-boundary", "w": "a", "v": "id0"}),
    (lambda doc: {**doc, "m": doc["m"] + [["p", "q", "r"]]},
     "m-totality", {"kind": "non-stackable-squares", "beta": "p",
                    "alpha": "q"}),
])
def test_double_category_names_the_first_broken_law(capsys, tmp_path,
                                                     corrupt, check, witness):
    """The report ends at the first violated check that later checks
    look tables up through, and names the entry."""
    with open(os.path.join(DATA, "sq_walking_arrow_double.json")) as fh:
        doc = json.load(fh)
    path = tmp_path / "double.json"
    path.write_text(json.dumps(corrupt(doc)))
    code, report = run_cli(capsys, "check", "double", str(path))
    assert code == 1
    last = report["checks"][-1]
    assert (last["name"], last["status"]) == (check, "violation")
    assert last["witnesses"][0] == witness
    assert [c["name"] for c in report["checks"]
            if c["status"] != "ok"] == [check]


def data_doc(name, **changes):
    """A demo data file with absolute paths and ``changes`` applied."""
    with open(os.path.join(DATA, name)) as fh:
        doc = json.load(fh)
    for key in ("category", "source", "target", "roster"):
        if isinstance(doc.get(key), str):
            doc[key] = os.path.join(DATA, doc[key])
    return {**doc, **changes}


@pytest.mark.parametrize("argv, doc, path", [
    (["check", "lifting-op"],
     data_doc("epi_mono_finset2.json", category=["x"]), "category"),
    (["check", "awfs"],
     data_doc("image_awfs_finset2.json", category=["x"]), "category"),
    (["check", "lifting-op"],
     {"category": "finset2.json", "operation": {"kind": "awfs",
                                                "awfs": ["x"]}},
     "operation.awfs"),
    (["check", "lifting-op"],
     {"category": "finset2.json", "operation": {"kind": "cat",
                                                "roster": 1}},
     "operation.roster"),
    (["cat-fill", "--square"], data_doc("cat_square.json", roster=None),
     "roster"),
    (["comma", "--functor"], data_doc("id_walking_arrow.json", source=["x"]),
     "source"),
    (["comma", "--functor"], data_doc("id_walking_arrow.json", target={}),
     "target"),
], ids=["bundle-category", "awfs-category", "bundle-awfs", "bundle-roster",
        "square-roster", "functor-source", "functor-target"])
def test_a_file_path_that_is_no_string_is_a_usage_error(capsys, tmp_path,
                                                        argv, doc, path):
    file = tmp_path / "input.json"
    file.write_text(json.dumps(doc))
    assert main(argv + [str(file)]) == 64
    out, err = capsys.readouterr()
    assert out == ""
    assert f"at {path}: expected a file path string" in err


@pytest.mark.parametrize("option, value", [
    ("--max-candidates", "0"), ("--max-candidates", "-3"),
    ("--max-candidates", "many"), ("--max-seconds", "0"),
    ("--max-seconds", "-1"), ("--max-seconds", "nan")])
def test_a_budget_that_is_not_positive_is_a_usage_error(capsys, option,
                                                       value):
    roster = os.path.join(DATA, "comma_roster.json")
    assert main([option, value, "check", "cat-roster", roster]) == 64
    out, err = capsys.readouterr()
    assert out == ""
    assert f"fwfs: error: argument {option}: " in err


@pytest.mark.parametrize("env", ["abc", "0", "-5", "1.5"])
def test_a_bad_budget_variable_is_a_usage_error(capsys, monkeypatch, env):
    monkeypatch.setenv("FWFS_BUDGET", env)
    roster = os.path.join(DATA, "comma_roster.json")
    assert main(["check", "cat-roster", roster]) == 64
    assert capsys.readouterr().out == ""



FUNCTORS = ["c", "d", "i", "ic", "idd"]


@pytest.mark.parametrize("bottom", FUNCTORS)
@pytest.mark.parametrize("top", FUNCTORS)
def test_a_square_without_a_filler_is_a_violation(capsys, tmp_path, top,
                                                  bottom):
    """Every choice of the square's functors from the roster gets a
    filler (exit 0) or a witnessed FillerError (exit 1), never a
    traceback."""
    file = tmp_path / "square.json"
    file.write_text(json.dumps(data_doc("cat_square.json", top=top,
                                        bottom=bottom)))
    code, doc = run_cli(capsys, "cat-fill", "--square", str(file))
    if (top, bottom) in (("i", "c"), ("i", "d")):
        assert code == 0 and set(doc) == {"filler"}
        return
    assert code == 1 and doc["status"] == "violation"
    [check] = doc["checks"]
    assert check["name"] == "FillerError"
    [witness] = check["witnesses"]
    assert witness["witness"].endswith(f"{(top, bottom)!r})")


@pytest.mark.parametrize("change, check, witness", [
    ({"object_map": {}}, "totality",
     {"kind": "object-unmapped", "object": "*"}),
    ({"object_map": {"*": "9"}}, "boundaries",
     {"kind": "boundary", "morphism": "id", "image": "id0"}),
    ({"morphism_map": {}}, "totality",
     {"kind": "morphism-unmapped", "morphism": "id"}),
    ({"morphism_map": {"id": "zz"}}, "boundaries",
     {"kind": "unknown-image", "morphism": "id", "image": "zz"}),
    ({"morphism_map": {"id": "a"}}, "boundaries",
     {"kind": "boundary", "morphism": "id", "image": "a"}),
], ids=["no-objects", "unknown-object", "no-morphisms", "unknown-morphism",
        "wrong-boundary"])
def test_comma_of_a_non_functor_is_a_violation(capsys, tmp_path, change,
                                               check, witness):
    file = tmp_path / "functor.json"
    file.write_text(json.dumps(data_doc("pick0.json", **change)))
    code, doc = run_cli(capsys, "comma", "--functor", str(file))
    assert code == 1 and doc["status"] == "violation"
    assert [(c["name"], c["witnesses"]) for c in doc["checks"]
            if c["status"] != "ok"] == [(check, [witness])]
