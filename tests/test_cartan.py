"""Cartan calculus: brackets, d, contractions, bivectors, maps."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from diracgeom.cartan import (
    Bivector,
    KForm,
    PolyMap,
    VField,
    exterior_derivative,
    interior_product,
    lie_bracket,
    lie_derivative,
    poisson_bracket,
    pullback_form,
    pushforward_bivector,
    schouten_jacobiator,
    sharp_bivector,
    wedge,
)
from diracgeom.errors import DegreeTooHigh, DegreeZero, NotInverse
from diracgeom.symalg import Expr, Patch, parse_expr
from diracgeom.tanlift import lift_function, tangent_patch

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
    with pytest.raises(DegreeTooHigh):
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
    with pytest.raises(DegreeZero):
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
                    acc = acc + c * x.components[j].differentiate(patch.coords[idx[slot]])
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
            acc = acc + jac.entries[r][s] * v.components[s]
        pushed_comps.append(acc)
    lhs = pullback_form(f, w).evaluate(v)
    rhs = Expr.zero(M2)
    for r in range(3):
        rhs = rhs + f.pullback_scalar(w.coeff((r,))) * pushed_comps[r]
    assert lhs == rhs


def test_pushforward_bivector_example():
    f = PolyMap(M2, M2, (parse_expr("2*x", M2), parse_expr("y", M2)))
    f_inv = PolyMap(M2, M2, (parse_expr("1/2*x", M2), parse_expr("y", M2)))
    p = Bivector(M2, {(0, 1): Expr.one(M2)})
    assert pushforward_bivector(f, f_inv, p) == Bivector(M2, {(0, 1): Expr.const(M2, 2)})


def test_pushforward_requires_true_inverse():
    f = PolyMap(M2, M2, (parse_expr("2*x", M2), parse_expr("y", M2)))
    wrong = PolyMap(M2, M2, (parse_expr("x", M2), parse_expr("y", M2)))
    with pytest.raises(NotInverse):
        pushforward_bivector(f, wrong, Bivector.zero(M2))


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
    for comp, coord in zip(x.components, x.patch.coords):
        acc = acc + comp * f.differentiate(coord)
    return acc


def _evaluate_dense(w, *fields):
    from diracgeom.cartan import _det

    acc = Expr.zero(w.patch)
    for idx, c in w.coeffs.items():
        acc = acc + c * _det([[fields[col].components[row] for col in range(w.degree)] for row in idx])
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
            if x.components[i].is_zero():
                continue
            c = w.signed_coeff((i,) + idx)
            if not c.is_zero():
                acc = acc + x.components[i] * c
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
    return Bivector(a.patch, {k: a.entry(*k) + b.entry(*k) for k in set(a.entries) | set(b.entries)})


def _lift_function_dense(f):
    tp = tangent_patch(f.patch)
    acc = Expr.zero(tp.total)
    for c, v in zip(f.patch.coords, tp.velocity_names):
        acc = acc + Expr.coord(tp.total, v) * f.differentiate(c).inject(tp.total)
    return acc


def layout(obj):
    """Coefficients and terms of a result, in insertion order."""
    if isinstance(obj, Expr):
        return list(obj.terms.items())
    if isinstance(obj, VField):
        return [layout(c) for c in obj.components]
    if isinstance(obj, Bivector):
        return [(k, layout(v)) for k, v in obj.entries.items()]
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
@example((KForm(P6, 2, {(0, j): Expr.one(P6) for j in range(1, 6)}), KForm.zero(P6, 2), VField.coordinate(P6, "x0"), VField.zero(P6), Bivector.zero(P6), Bivector.zero(P6), Expr.zero(P6)))
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
