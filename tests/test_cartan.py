"""Cartan calculus: brackets, d, contractions, bivectors, maps."""

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from diracgeom.cartan import (
    Bivector,
    KForm,
    PolyMap,
    VField,
    _pushed_entries,
    exterior_derivative,
    interior_product,
    lie_bracket,
    lie_derivative,
    pullback_form,
    schouten_jacobiator,
    sharp_bivector,
    wedge,
    wedge_fields,
)
from diracgeom.cli import _type_name, parse_expr
from diracgeom.courant import foliation_frame, graph_bivector, graph_two_form
from diracgeom.errors import EngineError, PatchMismatch, WrongShape
from diracgeom.groupoid import pair_groupoid
from diracgeom.symalg import Expr, Patch, dot
from diracgeom.tanlift import lift_function, lift_one_form, tangent_patch

from test_symalg import rand_expr

M2 = Patch("M2", ("x", "y"))
M3 = Patch("M3", ("x", "y", "z"))


def vf(patch, *comps):
    return VField(patch, tuple(parse_expr(c, patch) for c in comps))


def one_form(patch, *comps):
    return KForm.one_form(patch, [parse_expr(c, patch) for c in comps])


def rand_vf(rng, patch, max_deg=2):
    return VField(patch, tuple(rand_expr(rng, patch, max_deg=max_deg) for _ in patch.coords))


def rand_form(rng, patch, degree, max_deg=2):
    return KForm(
        patch,
        degree,
        {idx: rand_expr(rng, patch, max_deg=max_deg) for idx in combinations(range(patch.dim), degree)},
    )


# -- shape checks of cartan and tanlift ------------------------------------------


@pytest.mark.parametrize(
    "build",
    [
        lambda: VField(M2, (Expr.zero(M2),)),
        lambda: PolyMap(M2, M3, (Expr.zero(M2),) * 2),
        lambda: PolyMap.identity(M2).apply([Expr.zero(M2)]),
        lambda: KForm(M2, 2, {(1, 0): Expr.one(M2)}),
        lambda: KForm(M2, 1, {(2,): Expr.one(M2)}),
        lambda: wedge(one_form(M2, "1", "0"), one_form(M2, "0", "1")).components(),
        lambda: one_form(M2, "1", "0").evaluate(),
        lambda: sharp_bivector(wedge_fields(vf(M2, "1", "0"), vf(M2, "0", "1")), KForm.function(Expr.one(M2))),
        lambda: lift_one_form(wedge(one_form(M2, "1", "0"), one_form(M2, "0", "1")), "tangent"),
    ],
    ids=[
        "vfield-count",
        "polymap-count",
        "polymap-point",
        "kform-index-order",
        "kform-index-range",
        "components-of-a-two-form",
        "evaluate-count",
        "sharp-of-a-function",
        "lift-of-a-two-form",
    ],
)
def test_shape_checks_raise_wrong_shape(build):
    # caught as EngineError, the base of every error the package raises
    with pytest.raises(EngineError) as caught:
        build()
    assert type(caught.value) is WrongShape


# -- Lie bracket ---------------------------------------------------------------


def test_lie_bracket_example():
    assert lie_bracket(vf(M2, "1", "0"), vf(M2, "0", "x")) == vf(M2, "0", "1")


def test_lie_bracket_acts_as_commutator_on_functions():
    rng = random.Random(41)
    for _ in range(15):
        x = rand_vf(rng, M3)
        y = rand_vf(rng, M3)
        f = rand_expr(rng, M3)
        assert lie_bracket(x, y).apply(f) == x.apply(y.apply(f)) - y.apply(x.apply(f))


def test_lie_bracket_jacobi_identity():
    rng = random.Random(43)
    for _ in range(8):
        x = rand_vf(rng, M2, max_deg=1)
        y = rand_vf(rng, M2, max_deg=1)
        z = rand_vf(rng, M2, max_deg=1)
        acc = (
            lie_bracket(x, lie_bracket(y, z))
            + lie_bracket(y, lie_bracket(z, x))
            + lie_bracket(z, lie_bracket(x, y))
        )
        assert acc.is_zero()


# -- exterior derivative ----------------------------------------------------------


def test_d_of_product_two_form():
    w = KForm(M3, 2, {(0, 1): parse_expr("z", M3)})
    dw = exterior_derivative(w)
    assert dw == KForm(M3, 3, {(0, 1, 2): Expr.one(M3)})


def test_d_squared_is_zero():
    rng = random.Random(47)
    for deg in (0, 1):
        for _ in range(10):
            w = rand_form(rng, M3, deg)
            assert exterior_derivative(exterior_derivative(w)).is_zero()


def test_d_on_one_form_matches_global_formula():
    rng = random.Random(53)
    for _ in range(10):
        a = rand_form(rng, M3, 1)
        x = rand_vf(rng, M3)
        y = rand_vf(rng, M3)
        lhs = exterior_derivative(a).evaluate(x, y)
        rhs = x.apply(a.evaluate(y)) - y.apply(a.evaluate(x)) - a.evaluate(lie_bracket(x, y))
        assert lhs == rhs


def test_d_degree_cap():
    w = KForm(M3, 3, {(0, 1, 2): Expr.one(M3)})
    with pytest.raises(WrongShape, match="^exterior derivative supported for degree <= 2$"):
        exterior_derivative(w)


# -- interior product and Lie derivative --------------------------------------------


def test_interior_product_example():
    w = wedge(KForm.d_coord(M2, "x"), KForm.d_coord(M2, "y"))
    assert interior_product(vf(M2, "1", "0"), w) == KForm.d_coord(M2, "y")


def test_interior_product_is_evaluation_in_first_slot():
    rng = random.Random(59)
    for deg in (1, 2, 3):
        for _ in range(6):
            w = rand_form(rng, M3, deg)
            x = rand_vf(rng, M3)
            others = [rand_vf(rng, M3) for _ in range(deg - 1)]
            assert interior_product(x, w).evaluate(*others) == w.evaluate(x, *others)


def test_interior_product_squares_to_zero():
    rng = random.Random(61)
    for _ in range(6):
        w = rand_form(rng, M3, 2)
        x = rand_vf(rng, M3)
        assert interior_product(x, interior_product(x, w)).is_zero()


def test_interior_product_rejects_functions():
    with pytest.raises(WrongShape, match="^cannot contract a function$"):
        interior_product(vf(M2, "1", "0"), KForm.function(Expr.one(M2)))


def lie_derivative_coordinate_formula(x, w):
    """Oracle: L_X in coordinates, (L_X w)_I = X(w_I) + sum_m w_(I,m->j) d_I X."""
    patch = w.patch
    if w.degree == 0:
        return KForm.function(x.apply(w.coeff(())))
    out = {}
    from itertools import combinations

    for idx in combinations(range(patch.dim), w.degree):
        acc = x.apply(w.coeff(idx))
        for slot in range(w.degree):
            for j in range(patch.dim):
                repl = list(idx)
                repl[slot] = j
                c = w.signed_coeff(tuple(repl))
                if not c.is_zero():
                    acc = acc + c * x.components()[j].differentiate(patch.coords[idx[slot]])
        if not acc.is_zero():
            out[idx] = acc
    return KForm(patch, w.degree, out)


def test_lie_derivative_matches_coordinate_formula():
    rng = random.Random(67)
    for deg in (0, 1, 2):
        for _ in range(8):
            w = rand_form(rng, M3, deg)
            x = rand_vf(rng, M3)
            assert lie_derivative(x, w) == lie_derivative_coordinate_formula(x, w)


def test_lie_derivative_on_functions_is_directional_derivative():
    f = KForm.function(parse_expr("x*y", M2))
    x = vf(M2, "y", "0")
    assert lie_derivative(x, f) == KForm.function(parse_expr("y^2", M2))


def test_lie_derivative_commutator_with_contraction():
    # [L_X, i_Y] w = i_[X,Y] w
    rng = random.Random(71)
    for _ in range(6):
        w = rand_form(rng, M3, 2, max_deg=1)
        x = rand_vf(rng, M3, max_deg=1)
        y = rand_vf(rng, M3, max_deg=1)
        lhs = lie_derivative(x, interior_product(y, w)) - interior_product(
            y, lie_derivative(x, w)
        )
        assert lhs == interior_product(lie_bracket(x, y), w)


# -- bivectors --------------------------------------------------------------------


def test_sharp_sign_convention():
    p = Bivector(M2, {(0, 1): Expr.one(M2)})  # d_x ^ d_y
    assert sharp_bivector(p, KForm.d_coord(M2, "x")) == vf(M2, "0", "1")
    assert sharp_bivector(p, KForm.d_coord(M2, "y")) == vf(M2, "-1", "0")


def poisson_bracket(p: Bivector, f: Expr, g: Expr) -> Expr:
    """{f, g} = p(df, dg), the reference the Jacobiator is held against."""
    df = [f.differentiate(x) for x in p.patch.coords]
    dg = [g.differentiate(x) for x in p.patch.coords]
    return dot(p.patch, ((c, df[i] * dg[j] - df[j] * dg[i]) for (i, j), c in p.coeffs.items()))


def test_poisson_bracket_definition():
    p = Bivector(M2, {(0, 1): Expr.one(M2)})
    f = parse_expr("x^2", M2)
    g = parse_expr("y", M2)
    assert poisson_bracket(p, f, g) == parse_expr("2*x", M2)


def so3_poisson(patch=M3):
    # x d_y^d_z + y d_z^d_x + z d_x^d_y
    return Bivector(
        patch,
        {
            (1, 2): parse_expr("x", patch),
            (0, 2): parse_expr("-y", patch),
            (0, 1): parse_expr("z", patch),
        },
    )


def test_jacobiator_so3_vanishes():
    jac = schouten_jacobiator(so3_poisson())
    assert all(v.is_zero() for v in jac.values())


def test_jacobiator_nonzero_example():
    p = Bivector(
        M3,
        {
            (0, 1): parse_expr("x", M3),
            (1, 2): parse_expr("y", M3),
            (0, 2): parse_expr("-z", M3),
        },
    )
    jac = schouten_jacobiator(p)
    assert not all(v.is_zero() for v in jac.values())


def test_jacobiator_is_cyclic_poisson_sum():
    rng = random.Random(73)
    for _ in range(6):
        p = Bivector(
            M3,
            {
                (0, 1): rand_expr(rng, M3, max_deg=1),
                (0, 2): rand_expr(rng, M3, max_deg=1),
                (1, 2): rand_expr(rng, M3, max_deg=1),
            },
        )
        jac = schouten_jacobiator(p)
        for (i, j, k), v in jac.items():
            xi = Expr.coord(M3, M3.coords[i])
            xj = Expr.coord(M3, M3.coords[j])
            xk = Expr.coord(M3, M3.coords[k])
            direct = (
                poisson_bracket(p, xi, poisson_bracket(p, xj, xk))
                + poisson_bracket(p, xj, poisson_bracket(p, xk, xi))
                + poisson_bracket(p, xk, poisson_bracket(p, xi, xj))
            )
            assert v == direct


def test_wedge_fields_convention():
    # (X ^ Y)(a, b) = a(X) b(Y) - a(Y) b(X), read through p(a, b) = b(p^#(a))
    rng = random.Random(79)
    for _ in range(6):
        x, y = rand_vf(rng, M3, max_deg=1), rand_vf(rng, M3, max_deg=1)
        a, b = rand_form(rng, M3, 1, max_deg=1), rand_form(rng, M3, 1, max_deg=1)
        p = wedge_fields(x, y)
        assert b.evaluate(sharp_bivector(p, a)) == a.evaluate(x) * b.evaluate(y) - a.evaluate(y) * b.evaluate(x)
    assert str(wedge_fields(vf(M2, "1", "0"), vf(M2, "0", "x"))) == "x*d_x^d_y"
    with pytest.raises(PatchMismatch, match="wedge of vector fields on different patches"):
        wedge_fields(vf(M2, "1", "0"), vf(M3, "1", "0", "0"))


# -- polynomial maps ---------------------------------------------------------------


def test_pullback_commutes_with_d():
    rng = random.Random(79)
    f = PolyMap(M2, M3, (parse_expr("x*y", M2), parse_expr("x + y", M2), parse_expr("y^2", M2)))
    for _ in range(8):
        w = rand_form(rng, M3, 1)
        assert pullback_form(f, exterior_derivative(w)) == exterior_derivative(
            pullback_form(f, w)
        )
    g = rand_expr(rng, M3)
    assert pullback_form(f, exterior_derivative(KForm.function(g))) == exterior_derivative(
        KForm.function(f.pullback_scalar(g))
    )


def test_pullback_respects_composition():
    f = PolyMap(M2, M2, (parse_expr("x + y", M2), parse_expr("y", M2)))
    g = PolyMap(M2, M2, (parse_expr("x^2", M2), parse_expr("x*y", M2)))
    rng = random.Random(83)
    w = rand_form(rng, M2, 2)
    assert pullback_form(f, pullback_form(g, w)) == pullback_form(g.compose(f), w)


def test_pullback_evaluation_oracle():
    # (f^* w)(v) = w(Tf v) for one-forms
    f = PolyMap(M2, M3, (parse_expr("x^2", M2), parse_expr("y", M2), parse_expr("x*y", M2)))
    rng = random.Random(89)
    w = rand_form(rng, M3, 1)
    v = rand_vf(rng, M2)
    jac = f.jacobian()
    pushed_comps = []
    for r in range(3):
        acc = Expr.zero(M2)
        for s in range(2):
            acc = acc + jac.entries[r][s] * v.components()[s]
        pushed_comps.append(acc)
    lhs = pullback_form(f, w).evaluate(v)
    rhs = Expr.zero(M2)
    for r in range(3):
        rhs = rhs + f.pullback_scalar(w.coeff((r,))) * pushed_comps[r]
    assert lhs == rhs


def pushforward_bivector(f: PolyMap, f_inv: PolyMap, p: Bivector) -> Bivector:
    """f_* p expressed on the target, using the supplied two-sided inverse."""
    if p.patch != f.source:
        raise PatchMismatch("bivector not on the source patch")
    tgt = f.target
    point = list(f_inv.components)
    rows = [[e.substitute(point, tgt) for e in row] for row in f.jacobian().entries]
    return Bivector(tgt, _pushed_entries(p, rows, point, tgt))


def test_pushforward_bivector_example():
    f = PolyMap(M2, M2, (parse_expr("2*x", M2), parse_expr("y", M2)))
    f_inv = PolyMap(M2, M2, (parse_expr("1/2*x", M2), parse_expr("y", M2)))
    p = Bivector(M2, {(0, 1): Expr.one(M2)})
    assert pushforward_bivector(f, f_inv, p) == Bivector(M2, {(0, 1): Expr.const(M2, 2)})


@st.composite
def triangular_automorphisms(draw):
    """(c1 x, c2 y + q(x), c3 z + r(x, y)) on M3 with its inverse, solved one coordinate at a time."""
    x, y, z = (Expr.coord(M3, c) for c in M3.coords)

    def poly(variables):
        powers = st.lists(st.integers(0, 2), min_size=len(variables), max_size=len(variables))
        acc = Expr.zero(M3)
        for c, exps in draw(st.lists(st.tuples(st.integers(-2, 2), powers), max_size=2)):
            term = Expr.const(M3, c)
            for v, k in zip(variables, exps):
                term = term * v**k
            acc = acc + term
        return acc

    scale = [Fraction(draw(st.sampled_from([1, -1, 2, 3]))) for _ in range(3)]
    q, r = poly([x]), poly([x, y])
    f = PolyMap(M3, M3, (x * scale[0], y * scale[1] + q, z * scale[2] + r))
    x_inv = x * (1 / scale[0])
    y_inv = (y - q.substitute([x_inv, y, z], M3)) * (1 / scale[1])
    z_inv = (z - r.substitute([x_inv, y_inv, z], M3)) * (1 / scale[2])
    return f, PolyMap(M3, M3, (x_inv, y_inv, z_inv))


@settings(max_examples=60, deadline=None)
@given(triangular_automorphisms(), st.integers(0, 2**32 - 1))
@example(
    (
        PolyMap(M2, M2, (parse_expr("x", M2), parse_expr("y + x^2", M2))),
        PolyMap(M2, M2, (parse_expr("x", M2), parse_expr("y - x^2", M2))),
    ),
    7,
)
def test_pushforward_bivector_round_trip(maps, seed):
    f, f_inv = maps
    rng = random.Random(seed)
    patch = f.source
    p = Bivector(patch, {idx: rand_expr(rng, patch, max_deg=2) for idx in combinations(range(patch.dim), 2)})
    assert pushforward_bivector(f_inv, f, pushforward_bivector(f, f_inv, p)) == p


def test_polymap_compose_and_jacobian():
    f = PolyMap(M2, M2, (parse_expr("x + y", M2), parse_expr("x*y", M2)))
    ident = PolyMap.identity(M2)
    assert f.compose(ident).components == f.components
    assert ident.compose(f).components == f.components
    jac = f.jacobian()
    assert jac.entries[1][0] == parse_expr("y", M2)


def test_wedge_evaluation_convention():
    dx = KForm.d_coord(M2, "x")
    dy = KForm.d_coord(M2, "y")
    w = wedge(dx, dy)
    assert w.evaluate(vf(M2, "1", "0"), vf(M2, "0", "1")) == Expr.one(M2)
    assert wedge(dy, dx) == -w
    assert wedge(dx, dx).is_zero()


# -- sparse walks against the dense loops -----------------------------------------------
#
# The engine's operators visit only stored components.  These are the dense
# loops they replaced, kept as references: the sparse walks must give the same
# coefficients and the same terms in the same insertion order.


def _apply_dense(x, f):
    acc = Expr.zero(x.patch)
    for comp, coord in zip(x.components(), x.patch.coords):
        acc = acc + comp * f.differentiate(coord)
    return acc


def _evaluate_dense(w, *fields):
    from diracgeom.cartan import _det

    acc = Expr.zero(w.patch)
    for idx, c in w.coeffs.items():
        acc = acc + c * _det([[fields[col].components()[row] for col in range(w.degree)] for row in idx])
    return acc


def _d_dense(w):
    patch = w.patch
    out = {}
    for idx in combinations(range(patch.dim), w.degree + 1):
        acc = Expr.zero(patch)
        for m, i in enumerate(idx):
            c = w.coeff(idx[:m] + idx[m + 1:])
            if not c.is_zero():
                term = c.differentiate(patch.coords[i])
                acc = acc + (term if m % 2 == 0 else -term)
        if not acc.is_zero():
            out[idx] = acc
    return KForm(patch, w.degree + 1, out)


def _interior_dense(x, w):
    patch = w.patch
    out = {}
    for idx in combinations(range(patch.dim), w.degree - 1):
        acc = Expr.zero(patch)
        for i in range(patch.dim):
            if x.components()[i].is_zero():
                continue
            c = w.signed_coeff((i,) + idx)
            if not c.is_zero():
                acc = acc + x.components()[i] * c
        if not acc.is_zero():
            out[idx] = acc
    return KForm(patch, w.degree - 1, out)


def _lie_dense(x, w):
    if w.degree == 0:
        return KForm.function(_apply_dense(x, w.coeff(())))
    return _interior_dense(x, _d_dense(w)) + _d_dense(_interior_dense(x, w))


def _sharp_dense(p, a):
    comps = []
    for i in range(p.patch.dim):
        acc = Expr.zero(p.patch)
        for j in range(p.patch.dim):
            aj = a.coeff((j,))
            if not aj.is_zero():
                acc = acc + p.entry(j, i) * aj
        comps.append(acc)
    return VField(p.patch, tuple(comps))


def _jacobiator_dense(p):
    patch = p.patch
    out = {}
    for (i, j, k) in combinations(range(patch.dim), 3):
        acc = Expr.zero(patch)
        for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
            pbc = p.entry(b, c)
            for m in range(patch.dim):
                pam = p.entry(a, m)
                if not pam.is_zero():
                    acc = acc + pam * pbc.differentiate(patch.coords[m])
        out[(i, j, k)] = acc
    return out


def _add_dense(a, b):
    """Sum over the union of stored keys, each side read with zeros filled in."""
    if isinstance(a, KForm):
        return KForm(a.patch, a.degree, {k: a.coeff(k) + b.coeff(k) for k in set(a.coeffs) | set(b.coeffs)})
    return Bivector(a.patch, {k: a.entry(*k) + b.entry(*k) for k in set(a.coeffs) | set(b.coeffs)})


def _lift_function_dense(f):
    tp = tangent_patch(f.patch)
    acc = Expr.zero(tp.total)
    for c, v in zip(f.patch.coords, tp.fibre_names):
        acc = acc + Expr.coord(tp.total, v) * f.differentiate(c).inject(tp.total)
    return acc


def layout(obj):
    """Coefficients and terms of a result, in insertion order."""
    if isinstance(obj, Expr):
        return list(obj.terms.items())
    if isinstance(obj, VField):
        return [layout(c) for c in obj.components()]
    if isinstance(obj, dict):
        return [(k, layout(v)) for k, v in obj.items()]
    return [(k, layout(v)) for k, v in obj.coeffs.items()]


@st.composite
def polys(draw, patch):
    # small integer coefficients, so that sums cancel now and then
    terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 2)] * patch.dim), st.integers(-2, 2), max_size=3))
    return Expr(patch, terms)


@st.composite
def sparse(draw, patch, keys):
    """At most half of ``keys`` get a (possibly zero) polynomial; often exactly half,
    so that the walks also meet larger supports."""
    keys = list(keys)
    half = len(keys) // 2
    chosen = draw(st.lists(st.sampled_from(keys), min_size=draw(st.sampled_from([0, half])), max_size=half, unique=True)) if keys else []
    return {k: draw(polys(patch)) for k in chosen}


@st.composite
def cartan_cases(draw):
    dim = draw(st.integers(1, 6))
    patch = Patch(f"P{dim}", tuple(f"x{i}" for i in range(dim)))
    degree = draw(st.integers(0, min(2, dim)))

    def field():
        comps = draw(sparse(patch, range(dim)))
        return VField(patch, tuple(comps.get(i, Expr.zero(patch)) for i in range(dim)))

    w = KForm(patch, degree, draw(sparse(patch, combinations(range(dim), degree))))
    v = KForm(patch, degree, draw(sparse(patch, combinations(range(dim), degree))))
    p = Bivector(patch, draw(sparse(patch, combinations(range(dim), 2))))
    q = Bivector(patch, draw(sparse(patch, combinations(range(dim), 2))))
    return w, v, field(), field(), p, q, draw(polys(patch))


P6 = Patch("P6", tuple(f"x{i}" for i in range(6)))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cartan_cases())
# i_X reaches five index tuples, which a set does not hold in sorted order
@example((KForm(P6, 2, {(0, j): Expr.one(P6) for j in range(1, 6)}), KForm.zero(P6, 2), VField.coordinate(P6, "x0"), VField.zero(P6), Bivector(P6, {}), Bivector(P6, {}), Expr.zero(P6)))
def test_sparse_walks_match_dense_loops(case):
    w, v, x, y, p, q, f = case
    assert layout(x.apply(f)) == layout(_apply_dense(x, f))
    assert layout(lift_function(f, "tangent")) == layout(_lift_function_dense(f))
    assert layout(exterior_derivative(w)) == layout(_d_dense(w))
    assert layout(lie_derivative(x, w)) == layout(_lie_dense(x, w))
    if w.degree >= 1:
        assert layout(interior_product(x, w)) == layout(_interior_dense(x, w))
        fields = (x, y)[: w.degree]
        assert layout(w.evaluate(*fields)) == layout(_evaluate_dense(w, *fields))
    if w.degree == 1:
        assert layout(sharp_bivector(p, w)) == layout(_sharp_dense(p, w))
    assert layout(schouten_jacobiator(p)) == layout(_jacobiator_dense(p))
    # a sum keeps every coefficient's terms; only the order of the keys may differ
    assert sorted(layout(w + v)) == sorted(layout(_add_dense(w, v)))
    assert sorted(layout(p + q)) == sorted(layout(_add_dense(p, q)))


# -- memoised d ---------------------------------------------------------------------


def test_exterior_derivative_is_memoised_outside_equality():
    w = KForm(M3, 1, {(0,): parse_expr("y*z", M3), (2,): parse_expr("x", M3)})
    twin = KForm(M3, 1, dict(w.coeffs))
    before = hash(w)
    dw = exterior_derivative(w)
    assert exterior_derivative(w) is dw
    assert w == twin and twin == w
    assert hash(w) == before == hash(twin)
    for attr in ("_d", "coeffs"):
        with pytest.raises(AttributeError):
            setattr(w, attr, None)
    assert exterior_derivative(w) is dw


def test_apply_differentiates_only_along_stored_components(monkeypatch):
    seen = []
    original = Expr.differentiate

    def spy(self, coord):
        seen.append(coord)
        return original(self, coord)

    f = parse_expr("x*y*z + y^2", M3)
    monkeypatch.setattr(Expr, "differentiate", spy)
    assert VField.coordinate(M3, "x").apply(f) == parse_expr("y*z", M3)
    assert seen == ["x"]


# -- brackets read off the kept Jacobians ----------------------------------------------


def _bracket_by_apply(x, y):
    """The bracket before fields kept their Jacobians: each component by ``apply``, minus as plus the negation."""
    return VField(x.patch, tuple(x.apply(yc) + (-y.apply(xc)) for xc, yc in zip(x.components(), y.components())))


@st.composite
def bracket_fields(draw):
    """Fields on one patch: two with zero components, a coordinate field, and the vector
    parts of a graph, a bivector or a foliation frame (whose annihilator sections have none)."""
    dim = draw(st.integers(1, 4))
    patch = Patch(f"P{dim}", tuple(f"x{i}" for i in range(dim)))

    def field():
        comps = draw(sparse(patch, range(dim)))
        return VField(patch, tuple(comps.get(i, Expr.zero(patch)) for i in range(dim)))

    fields = [field(), field(), VField.coordinate(patch, draw(st.sampled_from(patch.coords)))]
    kind = draw(st.sampled_from(["graph", "bivector", "foliation"]))
    if kind == "graph":
        frame = graph_two_form(KForm(patch, 2, draw(sparse(patch, combinations(range(dim), 2)))))
    elif kind == "bivector":
        frame = graph_bivector(Bivector(patch, draw(sparse(patch, combinations(range(dim), 2)))))
    else:
        # d_k plus a multiple of d_last for k < r: triangular, so independent
        r, last = draw(st.integers(1, dim)), dim - 1
        leaves = []
        for k in range(r):
            comps = [Expr.zero(patch)] * dim
            comps[k] = Expr.one(patch)
            if k != last:
                comps[last] = draw(polys(patch))
            leaves.append(VField(patch, tuple(comps)))
        frame = foliation_frame(leaves)
    return fields + [s.vf for s in frame.secs]


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(bracket_fields())
def test_lie_bracket_matches_the_apply_reference(fields):
    # every ordered pair, a field with itself too: the same terms in the same insertion order
    for x, y in product(fields, repeat=2):
        assert layout(lie_bracket(x, y)) == layout(_bracket_by_apply(x, y))


def test_a_bracket_table_differentiates_each_component_once(monkeypatch):
    foliation = foliation_frame([vf(M3, "1", "0", "y*z"), vf(M3, "0", "1", "x^2 - z")])
    fields = [s.vf for frame in (graph_bivector(so3_poisson()), foliation) for s in frame.secs]
    want = [_bracket_by_apply(x, y) for x in fields for y in fields]
    calls = Counter()
    original = Expr.differentiate

    def spy(self, coord):
        calls[id(self), coord] += 1
        return original(self, coord)

    monkeypatch.setattr(Expr, "differentiate", spy)
    table = [lie_bracket(x, y) for x in fields for y in fields]
    monkeypatch.undo()
    assert table == want
    # a component object is differentiated along a coordinate at most once per field it is a component of
    occurs = Counter(id(c) for f in fields for c in f.coeffs.values())
    assert calls and all(n <= occurs[key] for (key, _), n in calls.items())


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_one_form_evaluation_is_the_determinant_path(data):
    from diracgeom.cartan import _det

    dim = data.draw(st.integers(1, 5))
    patch = Patch(f"P{dim}", tuple(f"x{i}" for i in range(dim)))
    w = KForm(patch, 1, data.draw(sparse(patch, [(i,) for i in range(dim)])))
    x = VField(patch, tuple(data.draw(polys(patch)) for _ in patch.coords))
    want = dot(patch, ((c, _det([[x.components()[r] for r in idx]])) for idx, c in w.coeffs.items()))
    assert layout(w.evaluate(x)) == layout(want)


# -- the shared tensor core against the two classes it replaced ------------------------


class _RefKForm:
    """KForm's storage, arithmetic and printing before forms and bivectors shared a core."""

    def __init__(self, patch, degree, coeffs):
        self.patch, self.degree = patch, degree
        self.coeffs = {tuple(idx): e for idx, e in coeffs.items() if not e.is_zero()}

    def coeff(self, idx):
        return self.coeffs.get(tuple(idx), Expr.zero(self.patch))

    def __add__(self, other):
        if other.patch != self.patch or other.degree != self.degree:
            raise PatchMismatch("can only add forms of one degree on one patch")
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out[k] + v if k in out else v
        return _RefKForm(self.patch, self.degree, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return _RefKForm(self.patch, self.degree, {k: -v for k, v in self.coeffs.items()})

    def scale(self, f):
        return _RefKForm(self.patch, self.degree, {k: f * v for k, v in self.coeffs.items()})

    def __eq__(self, other):
        if not isinstance(other, _RefKForm):
            return NotImplemented
        return self.patch == other.patch and self.degree == other.degree and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.patch, self.degree, frozenset(self.coeffs.items())))

    def __str__(self):
        if self.degree == 0:
            return str(self.coeff(()))
        if not self.coeffs:
            return "0"
        parts = []
        for idx in sorted(self.coeffs):
            c = self.coeffs[idx]
            mono = "^".join(f"d{self.patch.coords[i]}" for i in idx)
            cs = str(c)
            if cs == "1":
                parts.append(mono)
            elif cs == "-1":
                parts.append(f"-{mono}")
            elif " " in cs:
                parts.append(f"({cs})*{mono}")
            else:
                parts.append(f"{cs}*{mono}")
        return " + ".join(parts)

    def __repr__(self):
        return f"KForm({self})"


class _RefBivector:
    """Bivector's storage, arithmetic and printing before forms and bivectors shared a core."""

    def __init__(self, patch, entries):
        self.patch = patch
        self.entries = {k: e for k, e in entries.items() if not e.is_zero()}

    def __add__(self, other):
        if other.patch != self.patch:
            raise PatchMismatch("bivectors on different patches")
        out = dict(self.entries)
        for k, v in other.entries.items():
            out[k] = out[k] + v if k in out else v
        return _RefBivector(self.patch, out)

    def __neg__(self):
        return _RefBivector(self.patch, {k: -v for k, v in self.entries.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, f):
        return _RefBivector(self.patch, {k: f * v for k, v in self.entries.items()})

    def __eq__(self, other):
        if not isinstance(other, _RefBivector):
            return NotImplemented
        return self.patch == other.patch and self.entries == other.entries

    def __hash__(self):
        return hash((self.patch, frozenset(self.entries.items())))

    def __str__(self):
        if not self.entries:
            return "0"
        parts = []
        for (i, j) in sorted(self.entries):
            c = self.entries[(i, j)]
            mono = f"d_{self.patch.coords[i]}^d_{self.patch.coords[j]}"
            cs = str(c)
            if cs == "1":
                parts.append(mono)
            elif cs == "-1":
                parts.append(f"-{mono}")
            elif " " in cs:
                parts.append(f"({cs})*{mono}")
            else:
                parts.append(f"{cs}*{mono}")
        return " + ".join(parts)

    def __repr__(self):
        return f"Bivector({self})"


@dataclass(frozen=True)
class _RefVField:
    """VField before it joined the shared core: a dense dataclass, one component per coordinate."""

    patch: Patch
    components: tuple

    def __add__(self, other):
        if other.patch != self.patch:
            raise PatchMismatch("vector fields on different patches")
        return _RefVField(self.patch, tuple(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return _RefVField(self.patch, tuple(-c for c in self.components))

    def scale(self, f):
        return _RefVField(self.patch, tuple(f * c for c in self.components))

    def __str__(self):
        parts = []
        for comp, coord in zip(self.components, self.patch.coords):
            if comp.is_zero():
                continue
            cs = str(comp)
            if cs == "1":
                parts.append(f"d_{coord}")
            elif "+" in cs or (cs.count("-") and not cs.startswith("-")) or " " in cs:
                parts.append(f"({cs})*d_{coord}")
            else:
                parts.append(f"{cs}*d_{coord}")
        return " + ".join(parts) if parts else "0"


def _both(patch, degree, coeffs):
    """A tensor of the shared core and its reference twin; degree None means a bivector, "field" a vector field."""
    if degree is None:
        return Bivector(patch, coeffs), _RefBivector(patch, coeffs)
    if degree == "field":
        dense = tuple(coeffs.get((i,), Expr.zero(patch)) for i in range(patch.dim))
        return VField(patch, dense), _RefVField(patch, dense)
    return KForm(patch, degree, coeffs), _RefKForm(patch, degree, coeffs)


def _ref_coeffs(ref):
    if isinstance(ref, _RefVField):
        return {(i,): c for i, c in enumerate(ref.components) if not c.is_zero()}
    return ref.entries if isinstance(ref, _RefBivector) else ref.coeffs


def _printed(ref):
    """How the shared core prints the twin of ``ref``.

    The one intended difference: a field's component of -1 printed ``-1*d_x``
    and now prints ``-d_x``, as a bivector's entry of -1 does.  (The
    dataclass repr of a field is replaced by the printed form, as for the others.)
    """
    if not isinstance(ref, _RefVField):
        return str(ref), repr(ref)
    text = " + ".join("-" + part[3:] if part.startswith("-1*d_") else part for part in str(ref).split(" + "))
    return text, f"VField({text})"


@st.composite
def tensor_cases(draw):
    dim = draw(st.integers(1, 4))
    patch = Patch(f"P{dim}", tuple(f"x{i}" for i in range(dim)))
    degree = draw(st.sampled_from([None, "field"] + list(range(min(3, dim) + 1))))
    keys = list(combinations(range(dim), {None: 2, "field": 1}.get(degree, degree)))
    return patch, degree, draw(sparse(patch, keys)), draw(sparse(patch, keys)), draw(polys(patch))


@settings(max_examples=200, deadline=None)
@given(tensor_cases())
def test_shared_core_matches_the_classes_it_replaced(case):
    patch, degree, ca, cb, f = case
    (a, ra), (b, rb) = _both(patch, degree, ca), _both(patch, degree, cb)
    for got, want in [(a, ra), (a + b, ra + rb), (a - b, ra - rb), (-a, -ra), (a.scale(f), ra.scale(f))]:
        # a dense field has no key order of its own to keep
        assert got.coeffs == _ref_coeffs(want) and (degree == "field" or list(got.coeffs) == list(_ref_coeffs(want)))
        assert (str(got), repr(got)) == _printed(want)
        assert got.is_zero() == (not _ref_coeffs(want))
    twin, rtwin = _both(patch, degree, dict(ca))
    assert (a == b) == (ra == rb) and a == twin and twin == a
    # hashing groups exactly the values the reference groups
    assert len({a, b, twin}) == len({ra, rb, rtwin}) and hash(a) == hash(twin)
    for t in (a, b):
        assert not hasattr(t, "__dict__")
        with pytest.raises(AttributeError):
            t.coeffs = {}


def test_a_field_prints_a_component_of_minus_one_as_a_bivector_does():
    minus = (-Expr.one(M2), parse_expr("x - 1", M2))
    assert str(_RefVField(M2, minus)) == "-1*d_x + (x - 1)*d_y"
    assert str(VField(M2, minus)) == "-d_x + (x - 1)*d_y" == _printed(_RefVField(M2, minus))[0]
    assert str(Bivector(M3, {(0, 1): -Expr.one(M3)})) == "-d_x^d_y"


def _signed_reference(t, idx):
    """The antisymmetric extension, apart from ``_perm_sign``: zero on a repeated index, else the
    stored coefficient signed by the parity of the sorting permutation."""
    if len(set(idx)) != len(idx):
        return Expr.zero(t.patch)
    swaps = sum(1 for a, b in combinations(idx, 2) if a > b)
    value = t.coeffs.get(tuple(sorted(idx)), Expr.zero(t.patch))
    return -value if swaps % 2 else value


@settings(max_examples=100, deadline=None)
@given(tensor_cases())
def test_signed_lookup_agrees_with_signed_coeff(case):
    patch, degree, coeffs, _, _ = case
    t, _ = _both(patch, degree, coeffs)
    for idx in product(range(patch.dim), repeat=t.degree):
        want = _signed_reference(t, idx)
        assert t.signed_coeff(idx) == want
        # a miss is None, never a stored zero
        assert t._signed(idx) == (None if want.is_zero() else want)


def test_two_forms_and_bivectors_stay_apart():
    coeffs = {(0, 1): parse_expr("x", M3), (1, 2): Expr.one(M3)}
    w, p = KForm(M3, 2, coeffs), Bivector(M3, coeffs)
    assert w != p and p != w and w.coeffs == p.coeffs
    assert not isinstance(w, Bivector) and not isinstance(p, KForm)
    assert KForm.zero(M3, 2) != Bivector(M3, {})
    with pytest.raises(TypeError):
        w + p
    assert (str(w), str(p)) == ("x*dx^dy + dy^dz", "x*d_x^d_y + d_y^d_z")
    assert [_type_name(v) for v in (w, p, KForm.zero(M3, 0), Bivector(M3, {}))] == ["form", "bivector", "form", "bivector"]
    assert p.entry(2, 1) == -Expr.one(M3) and p.entry(1, 1) == Expr.zero(M3) == w.signed_coeff((2, 2))


# -- pullbacks against evaluation on pushed fields -----------------------------------------
#
# (f^* w)(v_1, ..., v_k) = w(Tf v_1, ..., Tf v_k), with (Tf v)^r = sum_s J[r][s] v^s and the
# right side expanded by permutations, shares nothing with the pullback's column picks.


def _pair_maps(n):
    g = pair_groupoid(Patch(f"R{n}", tuple(f"x{i}" for i in range(n))))
    return [g.src, g.tgt, g.mul, g.g_of, g.h_of]


# affine maps whose Jacobians have zero columns and 0/1 entries, as the multiplicativity checks meet them
PAIR_MAPS = [f for n in (1, 2, 3) for f in _pair_maps(n)]


def quadratics(patch, size):
    """Polynomials of total degree at most 2 with at most ``size`` terms, zero among them."""
    exps = [e for e in product(range(3), repeat=patch.dim) if sum(e) <= 2]
    return st.dictionaries(st.sampled_from(exps), st.integers(-2, 2), min_size=1, max_size=size).map(lambda t: Expr(patch, t))


@st.composite
def quadratic_maps(draw):
    """Maps R^2 -> R^3 and R^3 -> R^3 with components of total degree at most 2."""
    src = draw(st.sampled_from([M2, M3]))
    return PolyMap(src, M3, tuple(draw(quadratics(src, 4)) for _ in M3.coords))


@st.composite
def pullback_cases(draw):
    """A map, and for each degree k = 1, 2, 3 the target allows, a k-form and k fields on the source."""
    f = draw(st.one_of(st.sampled_from(PAIR_MAPS), quadratic_maps()))
    src, tgt = f.source, f.target
    cases = []
    for degree in range(1, min(3, tgt.dim) + 1):
        # a form with no coefficient drawn is the zero form
        keys = list(combinations(range(tgt.dim), degree))
        size = min(draw(st.integers(0, 3)), len(keys))
        w = KForm(tgt, degree, draw(st.dictionaries(st.sampled_from(keys), quadratics(tgt, 2), min_size=size, max_size=size)))
        cases.append((w, [VField(src, tuple(draw(quadratics(src, 2)) for _ in src.coords)) for _ in range(degree)]))
    return f, cases


def _leibniz_det(rows, patch):
    acc = Expr.zero(patch)
    for perm in permutations(range(len(rows))):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(len(perm)), 2))
        term = Expr.const(patch, (-1) ** inversions)
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        acc = acc + term
    return acc


def _pullback_by_minors(f, w):
    """The minor expansion the pullback replaced: every index tuple of the source, every minor of J."""
    from diracgeom.cartan import _det

    jac = f.jacobian().entries
    out = {}
    for idx_src in combinations(range(f.source.dim), w.degree):
        acc = Expr.zero(f.source)
        for idx_tgt, c in w.coeffs.items():
            acc = acc + f.pullback_scalar(c) * _det([[jac[r][s] for s in idx_src] for r in idx_tgt])
        out[idx_src] = acc
    return KForm(f.source, w.degree, out)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(pullback_cases())
def test_pullback_is_evaluation_on_pushed_fields(case):
    f, cases = case
    src = f.source
    jac = f.jacobian().entries
    for w, fields in cases:
        pushed = [
            [sum((jac[r][s] * v.components()[s] for s in range(src.dim)), Expr.zero(src)) for r in range(f.target.dim)]
            for v in fields
        ]
        rhs = Expr.zero(src)
        for idx, c in w.coeffs.items():
            rhs = rhs + f.pullback_scalar(c) * _leibniz_det([[pushed[j][r] for j in range(w.degree)] for r in idx], src)
        got = pullback_form(f, w)
        assert got.evaluate(*fields) == rhs
        assert got == _pullback_by_minors(f, w)
        assert list(got.coeffs) == sorted(got.coeffs)


# -- kernel results are built trusted: each must equal its validated rebuild ------------------


def _rebuilt(t):
    """``t`` sent through its class's public, validating constructor."""
    if isinstance(t, VField):
        return VField(t.patch, t.components())
    if isinstance(t, Bivector):
        return Bivector(t.patch, t.coeffs)
    return KForm(t.patch, t.degree, t.coeffs)


def _assert_trusted(t):
    assert t == _rebuilt(t) and _rebuilt(t) == t
    for idx, c in t.coeffs.items():
        # no zero, and no unsorted, repeated, out-of-range or foreign key
        assert type(idx) is tuple and len(idx) == t.degree and list(idx) == sorted(set(idx))
        assert all(0 <= i < t.patch.dim for i in idx)
        assert c.terms and c.patch == t.patch


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cartan_cases(), pullback_cases(), st.data())
def test_trusted_results_equal_their_validated_rebuild(case, pulled, data):
    from diracgeom.algebroid import AlgebroidPatch
    from diracgeom.tanlift import lift_vector_field

    w, v, x, y, p, q, f = case
    patch = w.patch
    a = KForm(patch, 1, data.draw(sparse(patch, [(i,) for i in range(patch.dim)])))
    g = data.draw(polys(patch))
    results = [
        lie_bracket(x, y),
        lie_bracket(y, x),
        lie_bracket(x, x),
        sharp_bivector(p, a),
        interior_product(x, a),
        exterior_derivative(w),
        exterior_derivative(a),
        lie_derivative(x, w),
        wedge(w, a),
        wedge(a, a),
        wedge_fields(x, y),
        wedge_fields(x, x),
        AlgebroidPatch(patch, (x, y), {}).rho({0: f, 1: g}),
        AlgebroidPatch(patch, (x, y), {}).rho({}),
        lift_vector_field(x, "tangent"),
        lift_vector_field(y, "vertical"),
        lift_one_form(a, "tangent"),
        lift_one_form(a, "vertical"),
    ]
    if w.degree >= 1:
        results.append(interior_product(y, w))
    for s, t in ((w, v), (x, y), (p, q), (a, a)):
        results += [s + t, s - t, -s, s.scale(f), s.scale(Expr.zero(patch))]
    fmap, cases = pulled
    results += [pullback_form(fmap, form) for form, _ in cases]
    results.append(pullback_form(fmap, KForm.function(data.draw(polys(fmap.target)))))
    for r in results:
        _assert_trusted(r)
