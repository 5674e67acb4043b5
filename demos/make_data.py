#!/usr/bin/env python3
"""Regenerate the JSON data files used by the demo scripts and the CLI
examples in the README.  Run from anywhere; files land in demos/data/."""

import json
import os

from fwfs import (FactorisationAssignment, LiftingStructure, awfs_from_lifting,
                  build_finset, comma_category, dbl_from_class, sq,
                  terminal_category, to_internal, unique_filler_lifting,
                  walking_arrow)
from fwfs.fincat import (compose_functors, finset_image_factorisation,
                         identity_functor)
from fwfs.io import awfs_to_dict, category_to_dict

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def dump(name, doc):
    path = os.path.join(DATA, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print("wrote", path)


def functor_doc(F):
    return {"object_map": F.obj_map, "morphism_map": F.mor_map}


def double_doc(D):
    """The internal presentation of a concrete double category, in the
    format that ``fwfs check double`` reads."""
    T = to_internal(D)
    return {
        "name": T.name,
        "cat0": category_to_dict(T.cat0), "cat1": category_to_dict(T.cat1),
        "d": functor_doc(T.d), "c": functor_doc(T.c), "i": functor_doc(T.i),
        "m": [[w, v, wv] for (w, v), wv
              in sorted({**T.m_vert, **T.m_sq}.items())],
    }


def main():
    os.makedirs(DATA, exist_ok=True)
    dump("terminal.json", category_to_dict(terminal_category()))
    W = walking_arrow()
    dump("walking_arrow.json", category_to_dict(W))
    dump("sq_walking_arrow_double.json", double_doc(sq(W)))

    fs = build_finset(2)
    C = fs.category
    dump("finset2.json", category_to_dict(C))
    dump("epi_mono_finset2.json", {
        "category": "finset2.json",
        "left": {"class": sorted(fs.epis)},
        "right": {"class": sorted(fs.monos)},
        "operation": {"kind": "unique"},
        "factorisation": [
            {"f": f, "left": e, "mid": mid, "right": m}
            for f in C.morphisms
            for (e, mid, m) in [finset_image_factorisation(f)]
        ],
    })

    D = dbl_from_class(C, fs.epis)
    M = dbl_from_class(C, fs.monos)
    S = LiftingStructure(D, unique_filler_lifting(D, M), M)
    FA = FactorisationAssignment(
        {f: finset_image_factorisation(f) for f in C.morphisms})
    A = awfs_from_lifting(S, FA)
    dump("image_awfs_finset2.json", awfs_to_dict(A, "finset2.json"))
    dump("epi_finset2_double.json",
         double_doc(dbl_from_class(C, fs.epis, name="D(Epi)")))

    # functor 1 -> walking arrow selecting the object 0
    dump("pick0.json", {
        "source": "terminal.json",
        "target": "walking_arrow.json",
        "object_map": {"*": "0"},
        "morphism_map": {"id": "id0"},
        "name": "pick0",
    })
    dump("id_walking_arrow.json", {
        "source": "walking_arrow.json",
        "target": "walking_arrow.json",
        "object_map": {"0": "0", "1": "1"},
        "morphism_map": {"id0": "id0", "id1": "id1", "a": "a"},
        "name": "idW",
    })

    # roster holding the comma factorisation of the identity on the
    # walking arrow: categories W and K = W/id, the structure functors,
    # and enough composites for closure
    f = identity_functor(W, name="idW")
    cd = comma_category(f)
    K = cd.comma
    i, c, d = cd.i_f, cd.c_f, cd.d_f.u
    ic = compose_functors(i, c, name="ic")
    idd = compose_functors(i, d, name="idd")

    def fdoc(F, src, dst):
        return {"source": src, "target": dst, **functor_doc(F)}

    dump("comma_roster.json", {
        "categories": {"W": category_to_dict(W), "K": category_to_dict(K)},
        "functors": {
            "i": fdoc(i, "W", "K"), "c": fdoc(c, "K", "W"),
            "d": fdoc(d, "K", "W"), "ic": fdoc(ic, "K", "K"),
            "idd": fdoc(idd, "K", "K"),
        },
        "reflections": [{"u": "i", "left_adjoint": "c",
                         "eta": cd.eta.components}],
        "fibrations": [{"u": "d",
                        "theta": [[a, h, lift] for (a, h), lift
                                  in sorted(cd.d_f.theta.items())]}],
    })
    dump("cat_square.json", {
        "roster": "comma_roster.json",
        "reflection": "i", "fibration": "d",
        "top": "i", "bottom": "d",
    })


if __name__ == "__main__":
    main()
