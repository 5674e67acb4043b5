#!/usr/bin/env python3
"""Factoring a functor through its comma category.

Any functor f: A -> B factors as a split reflection i_f: A -> B/f
followed by a split fibration d_f: B/f -> B.  The script builds the
comma category for the identity on the walking arrow, checks both
halves, verifies their universal properties by enumerating functors,
and computes the canonical diagonal filler of the square
(i_f, d_f).
"""

from fwfs import (Budget, check_cofree_split_reflection,
                  check_free_split_fibration, check_split_fibration,
                  check_split_reflection, comma_category, walking_arrow)
from fwfs.catlib import (canonical_filler, identity_fibration,
                         identity_reflection)
from fwfs.fincat import identity_functor


def main():
    W = walking_arrow()
    cd = comma_category(identity_functor(W, name="idW"))
    K = cd.comma
    print(f"comma category of the identity on the walking arrow:")
    print(f"  objects: {', '.join(K.objects)}")
    print(f"  morphisms: {len(K.morphisms)}")

    print(f"split reflection c_f -| i_f: "
          f"{check_split_reflection(cd.reflection).status}")
    print(f"split fibration d_f: {check_split_fibration(cd.d_f).status}")

    budget = Budget()
    free = check_free_split_fibration(
        cd, [identity_fibration(W, name='1'), cd.d_f], budget)
    print(f"d_f is the free split fibration on f: {free.status}")
    cofree = check_cofree_split_reflection(
        cd, [identity_reflection(W, name='1'), cd.reflection], budget)
    print(f"i_f is the cofree split reflection on f: {cofree.status}")
    assert free.ok and cofree.ok

    k = canonical_filler(cd.reflection, cd.d_f, cd.i_f, cd.d_f.u)
    print("canonical filler of the square (i_f, d_f): i_f -> d_f,"
          " on objects:")
    for o, img in k.obj_map.items():
        print(f"  {o} |-> {img}")


if __name__ == "__main__":
    main()
