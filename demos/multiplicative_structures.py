#!/usr/bin/env python3
"""Multiplicativity on a groupoid, decided three ways, then differentiated.

A two-form on the arrows is multiplicative when the graph of the multiplication
is isotropic for the alternating sum of pullbacks; the frame route decides the
same property through the tangent and cotangent groupoids and must agree.
"""

from diracgeom.algebroid import check_im_two_form, check_lie_bialgebroid
from diracgeom.cartan import Bivector, KForm, pullback_form, wedge
from diracgeom.courant import graph_two_form
from diracgeom.groupoid import (
    abelian_group,
    check_multiplicative_bivector,
    check_multiplicative_frame,
    check_multiplicative_two_form,
    induced_dual_bracket,
    induced_im_two_form,
    lie_algebroid_of,
    pair_groupoid,
)
from diracgeom.symalg import Expr, Patch

R2 = Patch("R2", ("x", "y"))
G = pair_groupoid(R2)

# pr1* minus pr2* of any base form is multiplicative on the pair groupoid
beta = wedge(KForm.d_coord(R2, "x"), KForm.d_coord(R2, "y")).scale(Expr.coord(R2, "x"))
omega = pullback_form(G.tgt, beta) - pullback_form(G.src, beta)
print("difference form, two-form route:", check_multiplicative_two_form(G, omega))
print("difference form, frame route:   ", check_multiplicative_frame(G, graph_two_form(omega)).passed)

# a single pullback is not: the witness names the offending chart coefficient
single = pullback_form(G.tgt, beta)
print("single pullback, two-form route:", check_multiplicative_two_form(G, single))
print("single pullback, frame route:   ", check_multiplicative_frame(G, graph_two_form(single)).passed)
print()

# a multiplicative two-form induces bundle morphisms over the algebroid
sigma = induced_im_two_form(G, omega)
print("induced morphism data:", check_im_two_form(lie_algebroid_of(G), sigma))
print()

# linear bivectors on a vector group dualise to a bracket on the fibre functionals
H = abelian_group(2)
z1 = Expr.coord(H.total, "x_1")
pi = Bivector(H.total, {(0, 1): z1})
print("linear bivector:", check_multiplicative_bivector(H, pi))
dual = induced_dual_bracket(H, pi)
print(
    "dual structure constants [f1, f2] = (",
    ", ".join(str(dual.bracket(0, 1).get(k, 0)) for k in range(dual.rank)),
    ")",
)
print("bialgebroid pairing:", check_lie_bialgebroid(lie_algebroid_of(H), dual))
