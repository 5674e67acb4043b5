import json
import os

import pytest

from fwfs import build_finset, check_cat_roster, check_category
from fwfs.cli import main
from fwfs.io import (ParseError, awfs_to_dict, category_from_dict,
                     category_to_dict, load_awfs, load_bundle, load_category,
                     load_functor, load_roster)

DATA = os.path.abspath(os.path.join(os.path.dirname(__file__), "..",
                                    "demos", "data"))


def data(name):
    return os.path.join(DATA, name)


# --- loaders ------------------------------------------------------------------


def test_category_roundtrip(finset2):
    C = finset2.category
    doc = category_to_dict(C)
    C2 = category_from_dict(doc, "<mem>")
    assert list(C2.morphisms) == list(C.morphisms)
    assert C2.comp == C.comp
    assert check_category(C2).ok


def test_unknown_key_names_file_and_path(tmp_path):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({"objects": [], "morphisms": [],
                             "identities": {}, "composition": [],
                             "colour": "blue"}))
    with pytest.raises(ParseError) as ei:
        load_category(str(f))
    assert "colour" in str(ei.value) and "bad.json" in str(ei.value)


def test_nested_unknown_key_reports_json_path(tmp_path):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({
        "objects": ["x"], "identities": {"x": "i"}, "composition": [],
        "morphisms": [{"id": "i", "dom": "x", "cod": "x", "extra": 1}]}))
    with pytest.raises(ParseError) as ei:
        load_category(str(f))
    assert "morphisms[0]" in str(ei.value) and "extra" in str(ei.value)


def test_invalid_json_reported(tmp_path):
    f = tmp_path / "bad.json"
    f.write_text("{not json")
    with pytest.raises(ParseError):
        load_category(str(f))


def test_load_functor_resolves_relative_paths():
    F = load_functor(data("pick0.json"))
    assert F.obj_map == {"*": "0"}
    assert F.name == "pick0"


def test_load_bundle_unique_kind():
    C, S, FA = load_bundle(data("epi_mono_finset2.json"))
    assert len(C.morphisms) == 11
    assert FA is not None and all(f in FA for f in C.morphisms)


def test_awfs_bundle_rejects_explicit_sides(tmp_path):
    f = tmp_path / "bundle.json"
    f.write_text(json.dumps({
        "category": data("finset2.json"),
        "left": {"class": []},
        "operation": {"kind": "awfs",
                      "awfs": data("image_awfs_finset2.json")}}))
    with pytest.raises(ParseError) as ei:
        load_bundle(str(f))
    assert "left" in str(ei.value)


def test_unknown_operation_kind_rejected(tmp_path):
    f = tmp_path / "bundle.json"
    f.write_text(json.dumps({
        "category": data("finset2.json"),
        "left": {"class": []}, "right": {"class": []},
        "operation": {"kind": "telepathy"}}))
    with pytest.raises(ParseError) as ei:
        load_bundle(str(f))
    assert "telepathy" in str(ei.value)


def test_awfs_file_roundtrip(image_awfs2, tmp_path):
    doc = awfs_to_dict(image_awfs2, data("finset2.json"))
    f = tmp_path / "awfs.json"
    f.write_text(json.dumps(doc))
    A = load_awfs(str(f))
    assert A.ff.mid == image_awfs2.ff.mid
    assert A.ff.sq_map == image_awfs2.ff.sq_map
    assert A.delta == image_awfs2.delta and A.mu == image_awfs2.mu


def test_load_roster_is_checkable():
    L, R = load_roster(data("comma_roster.json"))
    assert "i" in L.members and "d" in R.members
    assert check_cat_roster(L, R).ok


# --- CLI ----------------------------------------------------------------------


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_check_category_ok(capsys):
    code, out, err = run_cli(capsys, "check", "category", data("finset2.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "ok"
    assert "overall: ok" in err


def test_cli_check_lifting_op(capsys):
    code, out, _ = run_cli(capsys, "check", "lifting-op",
                           data("epi_mono_finset2.json"))
    assert code == 0 and json.loads(out)["status"] == "ok"


def test_cli_check_lifting_awfs_sides(capsys):
    for side in ("both", "left-only", "right-only"):
        code, out, _ = run_cli(capsys, "check", "lifting-awfs",
                               data("epi_mono_finset2.json"), "--side", side)
        assert code == 0, side
        assert json.loads(out)["status"] == "ok"


def test_cli_check_awfs_and_double(capsys):
    code, out, _ = run_cli(capsys, "check", "awfs",
                           data("image_awfs_finset2.json"))
    assert code == 0 and json.loads(out)["status"] == "ok"


def test_cli_check_cat_roster(capsys):
    code, out, _ = run_cli(capsys, "check", "cat-roster",
                           data("comma_roster.json"))
    assert code == 0 and json.loads(out)["status"] == "ok"


def test_cli_factorise_bundle(capsys):
    code, out, _ = run_cli(capsys, "factorise", "2>2:11",
                           "--bundle", data("epi_mono_finset2.json"))
    assert code == 0
    rec = json.loads(out)
    assert rec == {"f": "2>2:11", "left": "2>1:00", "mid": "1",
                   "right": "1>2:1"}


def test_cli_factorise_category_system(capsys):
    code, out, _ = run_cli(capsys, "factorise", "2>1:00",
                           "--category", data("finset2.json"))
    assert code == 0
    rec = json.loads(out)
    assert rec["left"] == "2>1:00" and rec["right"] == "1>1:0"


def test_cli_fillers(capsys):
    code, out, _ = run_cli(capsys, "fillers",
                           "--category", data("finset2.json"),
                           "--left", "2>1:00", "--right", "1>2:0",
                           "--top", "2>1:00", "--bottom", "1>2:0")
    assert code == 0
    assert json.loads(out)["fillers"] == ["1>1:0"]


def test_cli_comma_json_and_dot(capsys):
    code, out, _ = run_cli(capsys, "comma", "--functor", data("pick0.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["comma"]["objects"] == ["(id0,*)"]
    code, out, _ = run_cli(capsys, "comma", "--functor", data("pick0.json"),
                           "--dot")
    assert code == 0 and out.startswith("digraph")


def test_cli_sem_reconstruct_roundtrip(capsys):
    for cmd in ("sem",):
        code, out, _ = run_cli(capsys, cmd, data("image_awfs_finset2.json"))
        assert code == 0 and json.loads(out)["status"] == "ok"
    code, out, _ = run_cli(capsys, "reconstruct",
                           data("epi_mono_finset2.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["status"] == "ok"
    assert doc["awfs"]["E"]["2>2:11"]["mid"] == "1"
    code, out, _ = run_cli(capsys, "roundtrip", data("epi_mono_finset2.json"))
    assert code == 0 and json.loads(out)["status"] == "ok"


def test_cli_cat_fill(capsys):
    code, out, _ = run_cli(capsys, "cat-fill",
                           "--square", data("cat_square.json"))
    assert code == 0
    assert "object_map" in json.loads(out)["filler"]


def test_cli_output_is_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "check", "lifting-awfs",
                         data("epi_mono_finset2.json"))
    _, out2, _ = run_cli(capsys, "check", "lifting-awfs",
                         data("epi_mono_finset2.json"))
    assert out1 == out2


def test_cli_non_orthogonal_input_is_violation(capsys, tmp_path, finset2):
    bundle = tmp_path / "swapped.json"
    bundle.write_text(json.dumps({
        "category": data("finset2.json"),
        "left": {"class": sorted(finset2.monos)},
        "right": {"class": sorted(finset2.epis)},
        "operation": {"kind": "unique"}}))
    code, out, _ = run_cli(capsys, "check", "lifting-op", str(bundle))
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "violation"
    assert doc["checks"][0]["name"] == "NotOrthogonal"


def test_cli_budget_flag_gives_inconclusive(capsys):
    code, out, _ = run_cli(capsys, "--max-candidates", "5",
                           "check", "pre-awfs", data("epi_mono_finset2.json"))
    assert code == 2
    assert json.loads(out)["status"] == "inconclusive"


def test_cli_budget_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("FWFS_BUDGET", "5")
    code, out, _ = run_cli(capsys, "check", "pre-awfs",
                           data("epi_mono_finset2.json"))
    assert code == 2
    # the option wins over the variable
    code, _, _ = run_cli(capsys, "--max-candidates", "1000000",
                         "check", "pre-awfs", data("epi_mono_finset2.json"))
    assert code == 0
    monkeypatch.setenv("FWFS_BUDGET", "1000000")
    code, _, _ = run_cli(capsys, "check", "pre-awfs",
                         data("epi_mono_finset2.json"))
    assert code == 0


def test_cli_parse_error_exit_64(capsys, tmp_path):
    code, out, err = run_cli(capsys, "check", "category",
                             str(tmp_path / "missing.json"))
    assert code == 64 and out == "" and "error:" in err


def string_positions(doc, at=()):
    """The path of every string value in a JSON document."""
    if isinstance(doc, str):
        yield at
    elif isinstance(doc, (dict, list)):
        for key, x in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from string_positions(x, at + (key,))


def replaced(doc, at, x):
    """A copy of ``doc`` with the value at path ``at`` set to ``x``."""
    doc = json.loads(json.dumps(doc))
    *outer, last = at
    inner = doc
    for key in outer:
        inner = inner[key]
    inner[last] = x
    return doc


@pytest.mark.parametrize("name, kind, n", [
    ("walking_arrow.json", "category", 25),
    ("sq_walking_arrow_double.json", "double", 144),
])
def test_an_id_that_is_not_a_string_is_a_parse_error(capsys, tmp_path,
                                                      name, kind, n):
    """Every string of these files but a name is an id; a list in its
    place exits 64 with the JSON path on stderr, never with a
    traceback."""
    with open(data(name)) as fh:
        doc = json.load(fh)
    path = tmp_path / name
    positions = [at for at in string_positions(doc) if at[-1] != "name"]
    assert len(positions) == n
    for at in positions:
        path.write_text(json.dumps(replaced(doc, at, ["x"])))
        code, out, err = run_cli(capsys, "check", kind, str(path))
        assert (code, out) == (64, ""), at
        assert "id strings" in err, at


def test_an_int_in_an_awfs_row_is_a_parse_error(capsys, tmp_path):
    with open(data("image_awfs_finset2.json")) as fh:
        doc = json.load(fh)
    doc["category"] = data(doc["category"])
    path = tmp_path / "awfs.json"
    path.write_text(json.dumps(replaced(doc, ("E_mor", 0, 4), 0)))
    code, out, err = run_cli(capsys, "check", "awfs", str(path))
    assert (code, out) == (64, "") and "E_mor[0]" in err


def test_cli_usage_error_exit_64(capsys):
    assert run_cli(capsys, "check", "nonsense", "x.json")[0] == 64
    assert run_cli(capsys, "frobnicate")[0] == 64


def test_cli_factorise_requires_finset_ids(capsys):
    code, _, err = run_cli(capsys, "factorise", "a",
                           "--category", data("walking_arrow.json"))
    assert code == 64 and "finite-set" in err


def test_cli_lifting_op_finset3_default_budget(capsys, monkeypatch, tmp_path):
    """FinSet≤3 epi/mono decides within the default budget of 10^6:
    every case is counted, only filler validity is spent."""
    monkeypatch.delenv("FWFS_BUDGET", raising=False)
    fs = build_finset(3)
    (tmp_path / "finset3.json").write_text(
        json.dumps(category_to_dict(fs.category)))
    bundle = tmp_path / "epi_mono_finset3.json"
    bundle.write_text(json.dumps({
        "category": "finset3.json",
        "left": {"class": sorted(fs.epis)},
        "right": {"class": sorted(fs.monos)},
        "operation": {"kind": "unique"}}))
    code, out, _ = run_cli(capsys, "check", "lifting-op", str(bundle))
    doc = json.loads(out)
    assert code == 0 and doc["status"] == "ok"
    assert sum(c["cases_examined"] for c in doc["checks"]) == 1_081_908
    assert doc["budget_used"] == doc["checks"][0]["cases_examined"]
