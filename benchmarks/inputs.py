"""Seeded input generation for the benchmark workloads.

Everything the library is asked to check is generated here, from the
workload seed, as plain data (id lists, dicts, JSON files).  The
expected verdicts and structures are derived from the maps' values, not
from the library's checkers, so a wrong checker cannot vouch for itself.

Finite-set morphism ids follow ``build_finset``: ``"m>k:v0v1..."`` is
the map {0..m-1} -> {0..k-1} sending i to vi.
"""

from __future__ import annotations

import itertools
import json
import random

# ---------------------------------------------------------------------------
# finite-set maps by value


def fid(m, k, values) -> str:
    return f"{m}>{k}:" + "".join(str(v) for v in values)


def parse(mid):
    """(dom size, cod size, value tuple) of a finite-set morphism id."""
    head, _, vals = mid.partition(":")
    m, _, k = head.partition(">")
    return int(m), int(k), tuple(int(ch) for ch in vals)


def after(g, f):
    """Values of g∘f, from the value tuples of g and f."""
    return tuple(g[v] for v in f)


def is_monotone(values) -> bool:
    return all(a <= b for a, b in zip(values, values[1:]))


def is_surjective(k, values) -> bool:
    return set(values) == set(range(k))


def is_injective(values) -> bool:
    return len(set(values)) == len(values)


def monotone_maps(m, k):
    return [v for v in itertools.product(range(k), repeat=m) if is_monotone(v)]


def image_index(values):
    """The sorted image of a map, and the index of each image point."""
    image = sorted(set(values))
    return image, {v: i for i, v in enumerate(image)}


def require(condition, message, witness):
    """Reject generated data that breaks an assumption of the workload."""
    if not condition:
        raise RuntimeError(f"benchmark input: {message}: {witness!r}")


def shuffled(rng, items):
    out = list(items)
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# Δ₊≤3: the augmented simplex category truncated at [3]


def delta3(lib):
    """Δ₊≤3 as the monotone maps inside ``build_finset(3)``, with its
    surjection/injection classes and the image awfs.

    The awfs is computed from values: Ef is the image of f, λf the
    corestriction onto it and ρf the inclusion (``finset_image_
    factorisation``); E(top, bottom) restricts ``bottom`` to the images;
    Δ and μ are identities because λf is onto Ef and ρf is the inclusion
    of its own image.  Every commuting square is enumerated by value.
    """
    fs = lib.fincat.build_finset(3)
    C = fs.category
    keep = [m for m in C.morphisms if is_monotone(parse(m)[2])]
    kept = set(keep)
    vals = {m: parse(m)[2] for m in keep}
    hom = {}
    for m in keep:
        hom.setdefault((C.dom[m], C.cod[m]), []).append(m)
    cat = {
        "objects": list(C.objects),
        "morphisms": [(m, C.dom[m], C.cod[m]) for m in keep],
        "identities": dict(C.identities),
        "composition": {gf: h for gf, h in C.comp.items()
                        if gf[0] in kept and gf[1] in kept},
    }
    epis, monos = [], []
    for m in keep:
        _, k, v = parse(m)
        if is_surjective(k, v):
            epis.append(m)
        if is_injective(v):
            monos.append(m)

    mid, lam, rho = {}, {}, {}
    for f in keep:
        lam[f], mid[f], rho[f] = lib.fincat.finset_image_factorisation(f)
    sq_map = {}
    for f in keep:
        image_f, _ = image_index(vals[f])
        for g in keep:
            image_g, index_g = image_index(vals[g])
            tops = hom.get((C.dom[f], C.dom[g]), ())
            bottoms = hom.get((C.cod[f], C.cod[g]), ())
            for top in tops:
                gt = after(vals[g], vals[top])
                for bottom in bottoms:
                    if after(vals[bottom], vals[f]) != gt:
                        continue
                    e = tuple(index_g[vals[bottom][v]] for v in image_f)
                    sq_map[(f, g, top, bottom)] = fid(len(image_f),
                                                      len(image_g), e)
    ident = {f: fid(int(mid[f]), int(mid[f]), range(int(mid[f])))
             for f in keep}
    epi_set, mono_set = set(epis), set(monos)
    return {
        "category": cat, "values": vals,
        "epis": epis, "monos": monos,
        "mid": mid, "lam": lam, "rho": rho, "sq_map": sq_map,
        "delta": dict(ident), "mu": dict(ident),
        # algebras are exactly the injections with p = 1_{dom g}, and
        # coalgebras exactly the surjections with s = 1_{cod f}
        "algebras": {g: ([(g, cat["identities"][C.dom[g]])]
                         if g in mono_set else []) for g in keep},
        "coalgebras": {f: ([(f, cat["identities"][C.cod[f]])]
                           if f in epi_set else []) for f in keep},
    }


def category_doc(cat, rng):
    """The category file format, with rows in seeded order."""
    return {
        "objects": list(cat["objects"]),
        "morphisms": [{"id": m, "dom": d, "cod": c}
                      for m, d, c in shuffled(rng, cat["morphisms"])],
        "identities": dict(cat["identities"]),
        "composition": [[g, f, gf] for (g, f), gf
                        in shuffled(rng, cat["composition"].items())],
    }


def awfs_doc(d, category_file, rng):
    return {
        "category": category_file,
        "E": {f: {"mid": d["mid"][f], "lambda": d["lam"][f],
                  "rho": d["rho"][f]} for f in shuffled(rng, d["mid"])},
        "E_mor": [[top, bottom, f, g, e] for (f, g, top, bottom), e
                  in shuffled(rng, d["sq_map"].items())],
        "delta": dict(d["delta"]),
        "mu": dict(d["mu"]),
    }


def write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


# ---------------------------------------------------------------------------
# the chain poset [n]


def chain(n):
    """[n] = 0 < 1 < ... < n as plain category data; ``i<j`` is the
    unique morphism i -> j."""
    objects = [str(i) for i in range(n + 1)]
    return {
        "objects": objects,
        "morphisms": [(f"{i}<{j}", str(i), str(j))
                      for i in range(n + 1) for j in range(i, n + 1)],
        "identities": {str(i): f"{i}<{i}" for i in range(n + 1)},
        "composition": {(f"{j}<{k}", f"{i}<{j}"): f"{i}<{k}"
                        for i in range(n + 1) for j in range(i, n + 1)
                        for k in range(j, n + 1)},
    }


def build_category(lib, cat, name=""):
    return lib.fincat.FinCategory(cat["objects"], cat["morphisms"],
                                  cat["identities"], cat["composition"],
                                  name=name)


def compose_maps(g, f):
    """Object and morphism tables of the functor g∘f."""
    return ({o: g.obj_map[v] for o, v in f.obj_map.items()},
            {m: g.mor_map[v] for m, v in f.mor_map.items()})


def comma_roster_doc(lib, X):
    """The roster of the comma factorisation of the identity on X, laid
    out as ``demos/data/comma_roster.json`` is for the walking arrow."""
    cd = lib.catlib.comma_category(lib.fincat.identity_functor(X, name="id"))
    i, c, d = cd.i_f, cd.c_f, cd.d_f.u
    to_dict = lib.io.category_to_dict

    def fdoc(maps, src, dst):
        return {"source": src, "target": dst,
                "object_map": maps[0], "morphism_map": maps[1]}

    return {
        "categories": {"W": to_dict(X), "K": to_dict(cd.comma)},
        "functors": {
            "i": fdoc((i.obj_map, i.mor_map), "W", "K"),
            "c": fdoc((c.obj_map, c.mor_map), "K", "W"),
            "d": fdoc((d.obj_map, d.mor_map), "K", "W"),
            "ic": fdoc(compose_maps(i, c), "K", "K"),
            "idd": fdoc(compose_maps(i, d), "K", "K"),
        },
        "reflections": [{"u": "i", "left_adjoint": "c",
                         "eta": dict(cd.eta.components)}],
        "fibrations": [{"u": "d",
                        "theta": [[a, h, lift] for (a, h), lift
                                  in sorted(cd.d_f.theta.items())]}],
    }


def wrong_cleavage(lib, X, rng):
    """A cleavage for d_f (f the identity on X) whose lift of an identity
    at an object i_f(a) is not the identity.  A cleavage-preserving r'
    with r'∘i_f = i_f must send that identity lift, an identity, to the
    corrupted entry, so the square (i_f, 1) has no factorisation and the
    free check must report a violation."""
    cd = lib.catlib.comma_category(lib.fincat.identity_functor(X, name="id"))
    K = cd.comma
    candidates = []
    for a in X.objects:
        o = cd.i_f.obj_map[a]
        key = (o, X.identities[a])
        for m in K.morphisms:
            if K.cod[m] == o and m != cd.d_f.theta[key]:
                candidates.append((key, m))
    return rng.choice(sorted(candidates))


# ---------------------------------------------------------------------------
# mutants

# tasks per pass of each family; the mix fixes where the task-time
# quantiles fall: p50 inside the cheap families (E-square), p90 on the
# cheapest of the full-functoriality tasks (Δ, μ, budget)
MUTANT_MIX = {"category": 6, "filler": 6, "factorisation": 4, "pre-awfs": 4,
              "e-square": 6, "delta": 1, "mu": 1, "budget": 1}


def draw_mutants(lib, seed):
    """Draw the single-entry corruptions of one ``mutants`` run.

    Each entry is chosen so that its violation follows from values:
    see the family comments.  The returned list is the fixed task order
    of every pass.
    """
    rng = random.Random(seed)
    fs = lib.fincat.build_finset(3)
    C = fs.category
    hom = {}
    for m in C.morphisms:
        hom.setdefault((C.dom[m], C.cod[m]), []).append(m)
    val = {m: parse(m)[2] for m in C.morphisms}
    out = []

    # category: g∘f := x with x ≠ g∘f and |dom f| ≥ 2.  For a point p of
    # dom f where x and g∘f differ, the triple (g, f, p) breaks
    # associativity: (g, f∘p) and (x, p) are uncorrupted pairs.
    pairs = sorted((g, f) for (g, f) in C.comp
                   if int(C.dom[f]) >= 2 and int(C.cod[g]) >= 2)
    for g, f in rng.sample(pairs, MUTANT_MIX["category"]):
        true = after(val[g], val[f])
        x = rng.choice([m for m in hom[(C.dom[f], C.cod[g])]
                        if val[m] != true])
        out.append({"family": "category", "g": g, "f": f, "x": x})

    # filler: a square from a surjection j to an injection k has exactly
    # one diagonal; the entry is replaced by a map that is not a
    # diagonal by value
    squares = []
    for j in sorted(fs.epis):
        for k in sorted(fs.monos):
            if len(hom.get((C.cod[j], C.dom[k]), ())) >= 2:
                squares.extend((j, k, t, b) for t, b in C.squares(j, k))
    for j, k, t, b in rng.sample(squares, MUTANT_MIX["filler"]):
        require(after(val[k], val[t]) == after(val[b], val[j]),
                "not a commuting square", (j, k, t, b))
        x = rng.choice([m for m in hom[(C.cod[j], C.dom[k])]
                        if after(val[m], val[j]) != val[t]
                        or after(val[k], val[m]) != val[b]])
        out.append({"family": "filler", "key": (j, k, t, b), "x": x})

    # factorisation: f gets the image factorisation of another map f'
    # with the same boundary, so the legs compose to f' ≠ f
    maps = sorted(m for m in C.morphisms
                  if len(hom[(C.dom[m], C.cod[m])]) >= 2)
    for f in rng.sample(maps, MUTANT_MIX["factorisation"]):
        f2 = rng.choice([m for m in hom[(C.dom[f], C.cod[f])] if m != f])
        legs = lib.fincat.finset_image_factorisation(f2)
        require(after(parse(legs[2])[2], parse(legs[0])[2]) == val[f2],
                "legs do not compose to the map", f2)
        out.append({"family": "factorisation", "f": f, "legs": legs})

    d = delta3(lib)
    dv = d["values"]
    monos = set(d["monos"])
    ids = set(d["category"]["identities"].values())

    # pre-awfs: drop from the injections one member m that is not a
    # composite of two other members.  The class stays closed, but m
    # still lifts uniquely against every surjection, so the RLP vertical
    # over m has no preimage: phi_r is not surjective.
    def composite_of_others(m):
        return any(a != m and b != m and (a, b) in d["category"]["composition"]
                   and d["category"]["composition"][(a, b)] == m
                   for a in monos for b in monos)
    prime = sorted(m for m in monos if m not in ids
                   and not composite_of_others(m))
    for m in rng.sample(prime, MUTANT_MIX["pre-awfs"]):
        out.append({"family": "pre-awfs", "drop": m})

    # E-square: E(top, bottom) := x ≠ E(top, bottom) in hom(Ef, Eg).
    # λf is onto Ef, so x∘λf ≠ λg∘top: λ-naturality fails.
    rows = sorted(key for key in d["sq_map"]
                  if len(monotone_maps(int(d["mid"][key[0]]),
                                       int(d["mid"][key[1]]))) >= 2)
    for key in rng.sample(rows, MUTANT_MIX["e-square"]):
        f, g, top, _ = key
        r, s = int(d["mid"][f]), int(d["mid"][g])
        want = after(dv[d["lam"][g]], dv[top])
        x = rng.choice([fid(r, s, v) for v in monotone_maps(r, s)
                        if after(v, dv[d["lam"][f]]) != want])
        out.append({"family": "e-square", "key": key, "x": x})

    # Δ / μ: replace the identity Δf (μf) on Ef by another monotone
    # endomap; ρλf (λρf) is the identity of Ef, so the counit (unit) law
    # ρλf∘Δf = 1 (μf∘λρf = 1) fails
    wide = sorted(f for f in d["mid"] if int(d["mid"][f]) >= 2)
    for family in ("delta", "mu"):
        for f in rng.sample(wide, MUTANT_MIX[family]):
            r = int(d["mid"][f])
            x = rng.choice([fid(r, r, v) for v in monotone_maps(r, r)
                            if v != tuple(range(r))])
            out.append({"family": family, "f": f, "x": x})

    # budget: FinSet≤3 lifting operation at the CLI's default 10^6
    # candidates; it needs 1,081,908, so today's answer is inconclusive
    out.extend({"family": "budget"} for _ in range(MUTANT_MIX["budget"]))
    rng.shuffle(out)
    return out, d
