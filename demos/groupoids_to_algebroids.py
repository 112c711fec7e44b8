#!/usr/bin/env python3
# From a groupoid patch to its algebroid, and the tangent construction in between.

from diracgeom.groupoid import (
    check_groupoid_axioms,
    heisenberg3,
    lie_algebroid_of,
    pair_groupoid,
    tangent_groupoid,
)
from diracgeom.algebroid import tangent_bundle_algebroid
from diracgeom.symalg import Patch

G = heisenberg3()
print("heisenberg axioms:", check_groupoid_axioms(G).passed)

A = lie_algebroid_of(G)
print("heisenberg algebroid brackets:")
for a in range(A.rank):
    for b in range(a + 1, A.rank):
        terms = A.bracket(a, b)
        print(f"  [e{a + 1}, e{b + 1}] = (", ", ".join(str(terms.get(k, 0)) for k in range(A.rank)), ")")

# the pair groupoid differentiates to the tangent bundle with identity anchor
R2 = Patch("R2", ("x", "y"))
P = pair_groupoid(R2)
print("pair algebroid equals TM:", lie_algebroid_of(P) == tangent_bundle_algebroid(R2))

# applying the tangent functor to a groupoid gives a groupoid again
TG = tangent_groupoid(G)
rep = check_groupoid_axioms(TG)
print("tangent groupoid axioms:", rep.passed)
for item in rep.items:
    print("  ", item)
