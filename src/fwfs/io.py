"""Strict JSON loaders and dumpers for the on-disk formats.

Every loader rejects unknown keys and reports the file, the JSON path
and the offending key, so malformed inputs fail loudly instead of being
silently ignored.  Paths inside files are resolved relative to the file
that mentions them.
"""

from __future__ import annotations

import json
import os

from .awfs import Awfs, FunctorialFactorisation, factorisation_assignment, sem
from .catlib import (SplFibDouble, SplitFibration, SplitReflection,
                     SplRefDouble, build_roster, cat_lifting_operation)
from .dblcat import DoubleCategory, dbl_from_class
from .fincat import FinCategory, Functor, NatTransformation
from .lifting import (FactorisationAssignment, LiftingStructure, TableLifting,
                      unique_filler_lifting)


class ParseError(ValueError):
    def __init__(self, file, path, message):
        super().__init__(f"{file}: at {path or '$'}: {message}")
        self.file = file
        self.path = path


def _load_json(file):
    try:
        with open(file, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise ParseError(file, "", str(e))
    except json.JSONDecodeError as e:
        raise ParseError(file, "", f"invalid JSON: {e}")


def _require(data, file, path, required, optional=()):
    if not isinstance(data, dict):
        raise ParseError(file, path, f"expected an object, got {type(data).__name__}")
    allowed = set(required) | set(optional)
    for key in data:
        if key not in allowed:
            raise ParseError(file, path, f"unknown key {key!r}")
    for key in required:
        if key not in data:
            raise ParseError(file, path, f"missing key {key!r}")


def _row(row, file, path, shape=None):
    """``row`` if it is a JSON list of id strings, one per name in
    ``shape`` (any number if None); a :class:`ParseError` otherwise."""
    if not (isinstance(row, list) and (shape is None or len(row) == len(shape))
            and all(isinstance(x, str) for x in row)):
        expected = f"[{', '.join(shape)}]" if shape else "a list"
        raise ParseError(file, path, f"expected {expected} of id strings")
    return row


def _fields(data, file, path, keys):
    """The values under ``keys`` of an object, read as a row of ids."""
    return _row([data[k] for k in keys], file, path, keys)


def _id_map(data, file, path):
    """A JSON object whose values are id strings, as a dict."""
    if not isinstance(data, dict):
        raise ParseError(file, path, f"expected an object, got {type(data).__name__}")
    _row(list(data.values()), file, path)
    return dict(data)


def _resolve(file, path, rel):
    """The file named by the string ``rel`` at ``path`` of ``file``."""
    if not isinstance(rel, str):
        raise ParseError(file, path, "expected a file path string")
    return os.path.normpath(os.path.join(os.path.dirname(file), rel))


# ---------------------------------------------------------------------------
# categories and functors


def category_from_dict(data, file, path=""):
    _require(data, file, path, ("objects", "morphisms", "identities",
                                "composition"), optional=("name",))
    morphisms = []
    for idx, m in enumerate(data["morphisms"]):
        keys = ("id", "dom", "cod")
        _require(m, file, f"{path}.morphisms[{idx}]", keys)
        morphisms.append(_fields(m, file, f"{path}.morphisms[{idx}]", keys))
    comp = {}
    for idx, row in enumerate(data["composition"]):
        g, f, gf = _row(row, file, f"{path}.composition[{idx}]", ("g", "f", "gf"))
        comp[(g, f)] = gf
    return FinCategory(_row(data["objects"], file, f"{path}.objects"), morphisms,
                       _id_map(data["identities"], file, f"{path}.identities"),
                       comp, name=data.get("name", ""))


def load_category(file) -> FinCategory:
    return category_from_dict(_load_json(file), file)


def category_to_dict(C: FinCategory) -> dict:
    return {
        "objects": list(C.objects),
        "morphisms": [{"id": m, "dom": C.dom[m], "cod": C.cod[m]}
                      for m in C.morphisms],
        "identities": dict(C.identities),
        "composition": [[g, f, gf] for (g, f), gf in sorted(C.comp.items())],
    }


def functor_from_dict(data, file, path, source, target, name=""):
    _require(data, file, path, ("object_map", "morphism_map"),
             optional=("source", "target", "name"))
    return Functor(source, target,
                   _id_map(data["object_map"], file, f"{path}.object_map"),
                   _id_map(data["morphism_map"], file, f"{path}.morphism_map"),
                   name=data.get("name", name))


def load_functor(file) -> Functor:
    data = _load_json(file)
    _require(data, file, "", ("source", "target", "object_map",
                              "morphism_map"), optional=("name",))
    source = load_category(_resolve(file, "source", data["source"]))
    target = load_category(_resolve(file, "target", data["target"]))
    return functor_from_dict(data, file, "", source, target)


# ---------------------------------------------------------------------------
# double categories


def load_double_category(file) -> DoubleCategory:
    data = _load_json(file)
    _require(data, file, "", ("cat0", "cat1", "d", "c", "i", "m"),
             optional=("name",))
    cat0 = category_from_dict(data["cat0"], file, "cat0")
    cat1 = category_from_dict(data["cat1"], file, "cat1")
    d = functor_from_dict(data["d"], file, "d", cat1, cat0, name="d")
    c = functor_from_dict(data["c"], file, "c", cat1, cat0, name="c")
    i = functor_from_dict(data["i"], file, "i", cat0, cat1, name="i")
    m_vert, m_sq = {}, {}
    verts = set(cat1.objects)
    for idx, row in enumerate(data["m"]):
        w, v, wv = _row(row, file, f"m[{idx}]", ("w", "v", "wv"))
        # entries compose either two verticals or two squares
        if w in verts or v in verts:
            m_vert[(w, v)] = wv
        else:
            m_sq[(w, v)] = wv
    return DoubleCategory(cat0, cat1, d, c, i, m_vert, m_sq,
                          name=data.get("name", ""))


# ---------------------------------------------------------------------------
# lifting bundles


def _class_double(spec, C, file, path, name):
    _require(spec, file, path, ("class",))
    return dbl_from_class(C, _row(spec["class"], file, f"{path}.class"), name=name)


def load_bundle(file):
    """Returns (category, LiftingStructure, FactorisationAssignment or
    None)."""
    data = _load_json(file)
    _require(data, file, "", ("category", "operation"),
             optional=("left", "right", "factorisation"))
    op_spec = data["operation"]
    if not isinstance(op_spec, dict) or "kind" not in op_spec:
        raise ParseError(file, "operation", "missing key 'kind'")
    kind = op_spec["kind"]

    if kind == "awfs":
        _require(op_spec, file, "operation", ("kind", "awfs"))
        for key in ("left", "right", "factorisation"):
            if key in data:
                raise ParseError(file, key,
                                 "not allowed with an awfs-backed operation")
        A = load_awfs(_resolve(file, "operation.awfs", op_spec["awfs"]))
        S = sem(A)
        return A.C, S, factorisation_assignment(A)

    if kind == "cat":
        _require(op_spec, file, "operation", ("kind", "roster"))
        for key in ("left", "right", "factorisation"):
            if key in data:
                raise ParseError(file, key,
                                 "not allowed with a roster-backed operation")
        L, R = load_roster(_resolve(file, "operation.roster",
                                    op_spec["roster"]))
        op = cat_lifting_operation(L, R)
        return L.base, LiftingStructure(L, op, R), None

    if kind not in ("unique", "table"):
        raise ParseError(file, "operation.kind", f"unknown kind {kind!r}")
    C = load_category(_resolve(file, "category", data["category"]))
    for key in ("left", "right"):
        if key not in data:
            raise ParseError(file, "", f"missing key {key!r}")
    left = _class_double(data["left"], C, file, "left", "L")
    right = _class_double(data["right"], C, file, "right", "R")
    if kind == "unique":
        _require(op_spec, file, "operation", ("kind",))
        op = unique_filler_lifting(left, right)
    elif kind == "table":
        _require(op_spec, file, "operation", ("kind", "entries"))
        entries = {}
        for idx, row in enumerate(op_spec["entries"]):
            *key, d = _row(row, file, f"operation.entries[{idx}]",
                           ("j", "k", "top", "bottom", "diagonal"))
            entries[tuple(key)] = d
        op = TableLifting(left, right, entries)
    S = LiftingStructure(left, op, right)

    FA = None
    if "factorisation" in data:
        assignment = {}
        for idx, row in enumerate(data["factorisation"]):
            keys = ("f", "left", "mid", "right")
            _require(row, file, f"factorisation[{idx}]", keys)
            f, *legs = _fields(row, file, f"factorisation[{idx}]", keys)
            assignment[f] = tuple(legs)
        FA = FactorisationAssignment(assignment)
    return C, S, FA


# ---------------------------------------------------------------------------
# awfs files


def load_awfs(file) -> Awfs:
    data = _load_json(file)
    _require(data, file, "", ("category", "E", "E_mor", "delta", "mu"))
    C = load_category(_resolve(file, "category", data["category"]))
    mid, lam, rho = {}, {}, {}
    for f, rec in data["E"].items():
        keys = ("mid", "lambda", "rho")
        _require(rec, file, f"E.{f}", keys)
        mid[f], lam[f], rho[f] = _fields(rec, file, f"E.{f}", keys)
    sq_map = {}
    for idx, row in enumerate(data["E_mor"]):
        top, bottom, f, g, e = _row(row, file, f"E_mor[{idx}]",
                                    ("top", "bottom", "f", "g", "Ehk"))
        sq_map[(f, g, top, bottom)] = e
    ff = FunctorialFactorisation(C, mid, lam, rho, sq_map)
    return Awfs(ff, _id_map(data["delta"], file, "delta"),
                _id_map(data["mu"], file, "mu"))


def awfs_to_dict(A: Awfs, category_path) -> dict:
    ff = A.ff
    return {
        "category": category_path,
        "E": {f: {"mid": ff.mid[f], "lambda": ff.lam[f], "rho": ff.rho[f]}
              for f in ff.C.morphisms},
        "E_mor": [[top, bottom, f, g, e]
                  for (f, g, top, bottom), e in sorted(ff.sq_map.items())],
        "delta": dict(sorted(A.delta.items())),
        "mu": dict(sorted(A.mu.items())),
    }


# ---------------------------------------------------------------------------
# rosters


def load_roster(file):
    """Returns (SplRefDouble, SplFibDouble) over one shared roster."""
    data = _load_json(file)
    _require(data, file, "", ("categories", "functors"),
             optional=("reflections", "fibrations", "composites"))
    categories = {}
    for name, spec in data["categories"].items():
        if isinstance(spec, str):
            categories[name] = load_category(
                _resolve(file, f"categories.{name}", spec))
        else:
            categories[name] = category_from_dict(spec, file,
                                                  f"categories.{name}")
    functors = {}
    for name, spec in data["functors"].items():
        path = f"functors.{name}"
        _require(spec, file, path,
                 ("source", "target", "object_map", "morphism_map"))
        _fields(spec, file, path, ("source", "target"))
        for side in ("source", "target"):
            if spec[side] not in categories:
                raise ParseError(file, f"{path}.{side}",
                                 f"unknown category {spec[side]!r}")
        functors[name] = functor_from_dict(spec, file, path,
                                           categories[spec["source"]],
                                           categories[spec["target"]], name=name)
    composites = {}
    for idx, row in enumerate(data.get("composites", [])):
        g, f, gf = _row(row, file, f"composites[{idx}]", ("g", "f", "gf"))
        composites[(g, f)] = gf
    roster = build_roster(categories, functors, composites)

    reflections = {}
    for idx, spec in enumerate(data.get("reflections", [])):
        path = f"reflections[{idx}]"
        _require(spec, file, path, ("u", "left_adjoint", "eta"))
        u, l = (roster.functors.get(x) for x in
                _fields(spec, file, path, ("u", "left_adjoint")))
        if u is None or l is None:
            raise ParseError(file, path, "unknown functor")
        eta = NatTransformation(None, None, _id_map(spec["eta"], file,
                                                    f"{path}.eta"), name="eta")
        reflections[spec["u"]] = SplitReflection(u, l, eta, name=spec["u"])
    fibrations = {}
    for idx, spec in enumerate(data.get("fibrations", [])):
        _require(spec, file, f"fibrations[{idx}]", ("u", "theta"))
        u = roster.functors.get(_fields(spec, file, f"fibrations[{idx}]",
                                        ("u",))[0])
        if u is None:
            raise ParseError(file, f"fibrations[{idx}].u", "unknown functor")
        theta = {}
        for jdx, row in enumerate(spec["theta"]):
            a, h, lift = _row(row, file, f"fibrations[{idx}].theta[{jdx}]",
                              ("a", "h", "lift"))
            theta[(a, h)] = lift
        fibrations[spec["u"]] = SplitFibration(u, theta, name=spec["u"])
    return (SplRefDouble(roster, reflections),
            SplFibDouble(roster, fibrations))


# ---------------------------------------------------------------------------
# comma squares


def load_cat_square(file):
    """A square for cat-fill: a registered reflection, fibration, and
    the two functor names forming a commuting square between them."""
    data = _load_json(file)
    _require(data, file, "", ("roster", "reflection", "fibration",
                              "top", "bottom"))
    _fields(data, file, "", ("reflection", "fibration", "top", "bottom"))
    L, R = load_roster(_resolve(file, "roster", data["roster"]))
    for key, side in (("reflection", L), ("fibration", R)):
        if data[key] not in side.members:
            raise ParseError(file, key, f"not registered: {data[key]!r}")
    for key in ("top", "bottom"):
        if data[key] not in L.roster.functors:
            raise ParseError(file, key, f"unknown functor {data[key]!r}")
    return L, R, data["reflection"], data["fibration"], data["top"], data["bottom"]
