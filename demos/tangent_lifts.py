#!/usr/bin/env python3
"""Lifting data to the tangent bundle and checking the identities that pin it down."""

from diracgeom.cartan import KForm, VField, lie_bracket, wedge
from diracgeom.courant import check_dirac, graph_two_form
from diracgeom.symalg import Expr, Patch
from diracgeom.tanlift import (
    canonical_involution,
    check_tangent_mu_identity,
    lift_function,
    lift_one_form,
    lift_vector_field,
    tangent_lift_dirac,
)

R2 = Patch("R2", ("x", "y"))
x = Expr.coord(R2, "x")
y = Expr.coord(R2, "y")

f = x * x + y
X = VField.coordinate(R2, "x").scale(y) + VField.coordinate(R2, "y")

print("f       =", f)
print("f^v     =", lift_function(f, "vertical"))
print("f^T     =", lift_function(f, "tangent"))
print()

# the tangent lift of X applied to f^T equals (Xf)^T, coordinate free
xt = lift_vector_field(X, "tangent")
lhs = xt.apply(lift_function(f, "tangent"))
rhs = lift_function(X.apply(f), "tangent")
print("X^T(f^T) == (Xf)^T:", lhs == rhs)

# vertical lifts kill vertical lifts
xv = lift_vector_field(X, "vertical")
print("X^v(f^v) == 0:     ", xv.apply(lift_function(f, "vertical")).is_zero())

# the bracket of tangent lifts is the tangent lift of the bracket
Y = VField.coordinate(R2, "y").scale(x)
print(
    "[X^T, Y^T] == [X,Y]^T:",
    lie_bracket(xt, lift_vector_field(Y, "tangent"))
    == lift_vector_field(lie_bracket(X, Y), "tangent"),
)

a = KForm.d_coord(R2, "x").scale(y)
print("a^T     =", lift_one_form(a, "tangent"))
print()

# the canonical involution swaps the two fibre directions and squares to one
J = canonical_involution(R2)
print("J o J is the identity:", J.compose(J).is_identity())
print()

# lifting an integrable graph keeps it integrable, with the obstruction identity intact
omega = wedge(KForm.d_coord(R2, "x"), KForm.d_coord(R2, "y")).scale(x)
L = graph_two_form(omega)
TL = tangent_lift_dirac(L)
print("L  =", check_dirac(L))
print("TL =", check_dirac(TL))
print("mu identity on TL:", check_tangent_mu_identity(L))
