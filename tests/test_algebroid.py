"""Algebroid checks: Jacobi/anchor, dual Poisson, bialgebroids, IM data, linearity."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, event, given, settings
from hypothesis import strategies as st

from diracgeom.algebroid import (
    AlgebroidPatch,
    IMFoliation,
    IMTwoForm,
    _dual_differential_section,
    _frame_bracket_wedge,
    check_im_foliation,
    check_im_two_form,
    check_lie_algebroid,
    check_lie_bialgebra,
    check_lie_bialgebroid,
    check_linearity,
    dual_linear_poisson,
    dual_patch,
    im_from_two_form,
    tangent_bundle_algebroid,
    tangent_lift_algebroid,
)
from diracgeom.cartan import Bivector, KForm, VField, exterior_derivative, lie_bracket, lie_derivative, schouten_jacobiator, wedge
from diracgeom.cli import parse_expr
from diracgeom.courant import Frame, GSec, check_dirac, check_lagrangian, foliation_frame, graph_bivector, graph_two_form
from diracgeom.errors import (
    EngineError,
    HypothesisFails,
    NotAlgebroid,
    NotLagrangian,
    PatchMismatch,
    RankDeficient,
    WrongShape,
)
from diracgeom.groupoid import abelian_group, heisenberg3, lie_algebroid_of, pair_groupoid
from diracgeom.report import CheckItem, Report
from diracgeom.symalg import Expr, ExprMatrix, Patch, dot, fresh_names, generic_rank

from test_cartan import one_form, vf
from test_symalg import rand_expr

PT = Patch("pt", ())
R1 = Patch("R1", ("x",))
R2 = Patch("R2", ("x", "y"))
R3 = Patch("R3", ("x", "y", "z"))


def const_algebra(rank, brackets):
    """Lie algebra over a point: zero anchors, constant structure."""
    zero = VField.zero(PT)
    table = {
        key: [Expr.const(PT, v) for v in comps] for key, comps in brackets.items()
    }
    return AlgebroidPatch(PT, [zero] * rank, table)


def so3():
    # [e1,e2]=e3, [e2,e3]=e1, [e3,e1]=e2
    return const_algebra(3, {(0, 1): (0, 0, 1), (1, 2): (1, 0, 0), (0, 2): (0, -1, 0)})


def bad_cyclic():
    # [e1,e2]=e1, [e2,e3]=e2, [e3,e1]=e3: fails Jacobi
    return const_algebra(3, {(0, 1): (1, 0, 0), (1, 2): (0, 1, 0), (0, 2): (0, 0, -1)})


def aff1():
    # [e1,e2]=e2
    return const_algebra(2, {(0, 1): (0, 1)})


def abelian(rank):
    return const_algebra(rank, {})


def affine_anchored():
    """rho(e1) = d_x, rho(e2) = x d_x, [e1,e2] = e1 on the line."""
    return AlgebroidPatch(
        R1,
        [vf(R1, "1"), vf(R1, "x")],
        {(0, 1): (Expr.one(R1), Expr.zero(R1))},
    )


# -- check_lie_algebroid ------------------------------------------------------------


def test_tangent_bundle_passes():
    assert check_lie_algebroid(tangent_bundle_algebroid(R2)).passed


def test_a_zero_table_with_coordinate_anchors_multiplies_nothing(monkeypatch):
    # every bracket and every anchor derivative is zero, so the check reads only stored entries
    # and forms no product: both walks of a rank-32 tangent bundle make no dot call
    import diracgeom.algebroid
    import diracgeom.cartan
    import diracgeom.courant

    calls = []

    def spy(patch, pairs):
        calls.append(patch)
        return dot(patch, pairs)

    for module in (diracgeom.cartan, diracgeom.courant, diracgeom.algebroid):
        monkeypatch.setattr(module, "dot", spy)
    wide = Patch("R32", tuple(f"x{i}" for i in range(32)))
    assert check_lie_algebroid(tangent_bundle_algebroid(wide)).passed
    assert calls == []


def test_so3_passes_and_cyclic_fails():
    assert check_lie_algebroid(so3()).passed
    rep = check_lie_algebroid(bad_cyclic())
    assert not rep.passed
    assert "jacobi[1,2,3]" in rep.witness


def test_anchored_affine_algebroid_passes():
    rep = check_lie_algebroid(affine_anchored())
    assert rep.passed


def test_anchor_compatibility_failure():
    a = AlgebroidPatch(R1, [vf(R1, "1"), vf(R1, "x")], {})
    rep = check_lie_algebroid(a)
    assert not rep.passed
    assert "anchor" in rep.witness


def test_jacobi_needs_anchor_derivative_terms():
    # Jacobi on (e1,e2,e3) only closes through rho(e1)(x^2) and rho(e2)(x):
    # [[e1,e2],e3] + [[e2,e3],e1] + [[e3,e1],e2] = (x - 2x + x) e3
    z = Expr.zero(R1)
    a = AlgebroidPatch(
        R1,
        [vf(R1, "1"), vf(R1, "x"), vf(R1, "0")],
        {
            (0, 1): (Expr.one(R1), z, z),
            (0, 2): (z, z, parse_expr("x", R1)),
            (1, 2): (z, z, parse_expr("x^2", R1)),
        },
    )
    rep = check_lie_algebroid(a)
    assert rep.passed, rep.witness


def test_constructor_refuses_malformed_tables():
    zero, one = Expr.zero(PT), Expr.one(PT)
    with pytest.raises(WrongShape):
        AlgebroidPatch(PT, [VField.zero(PT)] * 2, {(1, 0): (one, zero)})
    with pytest.raises(WrongShape):
        AlgebroidPatch(PT, [VField.zero(PT)] * 2, {(0, 2): (one, zero)})
    with pytest.raises(WrongShape):
        AlgebroidPatch(PT, [VField.zero(PT)] * 2, {(0, 1): (one,)})
    with pytest.raises(PatchMismatch):
        AlgebroidPatch(PT, [VField.zero(PT)] * 2, {(0, 1): (one, Expr.zero(R1))})
    with pytest.raises(PatchMismatch):
        AlgebroidPatch(PT, [VField.zero(R1)], {})


def dense_table(alg):
    """c[a][b][k] for every a, b, k, zeros written out: the one dense expansion of the sparse table the references read."""
    zero = Expr.zero(alg.base)
    r = range(alg.rank)
    return tuple(tuple(tuple(alg.bracket(a, b).get(k, zero) for k in r) for b in r) for a in r)


def sparse(v):
    """The sparse section {k: v[k]} of a dense coefficient tuple."""
    return {k: e for k, e in enumerate(v) if e.terms}


# -- dual linear Poisson ---------------------------------------------------------------


def test_dual_poisson_of_tangent_bundle_is_canonical():
    p = dual_linear_poisson(tangent_bundle_algebroid(R2))
    total = dual_patch(tangent_bundle_algebroid(R2))
    assert total.coords == ("x", "y", "xi_1", "xi_2")
    assert p == Bivector(total, {(0, 2): Expr.one(total), (1, 3): Expr.one(total)})


def test_dual_poisson_of_so3():
    p = dual_linear_poisson(so3())
    total = p.patch
    assert total.coords == ("xi_1", "xi_2", "xi_3")
    assert p == Bivector(
        total,
        {
            (0, 1): -parse_expr("xi_3", total),
            (1, 2): -parse_expr("xi_1", total),
            (0, 2): parse_expr("xi_2", total),
        },
    )


def test_dual_poisson_of_abelian_is_zero():
    p = dual_linear_poisson(abelian(3))
    assert p == Bivector(p.patch, {})


def test_dual_poisson_satisfies_jacobi_across_library():
    library = [
        tangent_bundle_algebroid(R1),
        tangent_bundle_algebroid(R2),
        so3(),
        aff1(),
        affine_anchored(),
        tangent_lift_algebroid(affine_anchored()),
    ]
    for a in library:
        jac = schouten_jacobiator(dual_linear_poisson(a))
        assert all(v.is_zero() for v in jac.values())


def test_dual_poisson_rejects_non_algebroid():
    with pytest.raises(NotAlgebroid):
        dual_linear_poisson(bad_cyclic())


# -- bracket in frame coefficients --------------------------------------------------------


def _bracket_by_triple_loop(alg, u, v):
    """The reference: every product u[a]*v[b]*c^k_ab formed, zero or not, on dense coefficient tuples."""
    c = dense_table(alg)
    ru, rv = alg.rho(sparse(u)), alg.rho(sparse(v))
    out = []
    for k in range(alg.rank):
        acc = ru.apply(v[k]) - rv.apply(u[k])
        for a in range(alg.rank):
            for b in range(alg.rank):
                acc = acc + u[a] * v[b] * c[a][b][k]
        out.append(acc)
    return tuple(out)


def _unit(alg, a):
    return tuple(Expr.one(alg.base) if k == a else Expr.zero(alg.base) for k in range(alg.rank))


def test_frame_bracket_matches_triple_loop():
    rng = random.Random(29)
    heis = lie_algebroid_of(heisenberg3())
    cases = [
        lie_algebroid_of(pair_groupoid(R2)),
        heis,
        tangent_lift_algebroid(heis),
        tangent_lift_algebroid(affine_anchored()),
    ]
    for alg in cases:
        for x in range(alg.rank):
            for _ in range(3):
                v = [rand_expr(rng, alg.base) for _ in range(alg.rank)]
                assert alg.frame_bracket(x, sparse(v)) == sparse(_bracket_by_triple_loop(alg, _unit(alg, x), v))
        c = dense_table(alg)
        for i, j in itertools.product(range(alg.rank), repeat=2):
            assert _bracket_by_triple_loop(alg, _unit(alg, i), _unit(alg, j)) == c[i][j]


def reference_lie_algebroid(a):
    """``check_lie_algebroid`` with every bracket formed by the triple loop on unit-vector sections."""
    r = a.rank
    frame = [_unit(a, i) for i in range(r)]

    def jacobi():
        for i, j, k in itertools.combinations(range(r), 3):
            jac = [Expr.zero(a.base)] * r
            for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
                inner = _bracket_by_triple_loop(a, frame[y], frame[z])
                jac = [p + q for p, q in zip(jac, _bracket_by_triple_loop(a, frame[x], inner))]
            bad = next((m for m in range(r) if not jac[m].is_zero()), None)
            if bad is not None:
                yield f"jacobi[{i + 1},{j + 1},{k + 1}] has e_{bad + 1} component {jac[bad]}"

    def anchor():
        for i, j in itertools.combinations(range(r), 2):
            diff = lie_bracket(a.anchor[i], a.anchor[j]) - a.rho(sparse(_bracket_by_triple_loop(a, frame[i], frame[j])))
            comps = diff.components()
            bad = next((m for m, c in enumerate(comps) if not c.is_zero()), None)
            if bad is not None:
                coord = a.base.coords[bad]
                yield f"anchor breaks [e_{i + 1},e_{j + 1}]: d_{coord} component {comps[bad]}"

    return Report(
        (
            CheckItem.first("jacobi identity on the frame", jacobi()),
            CheckItem.first("anchor preserves brackets", anchor()),
        )
    )


def reference_lie_bialgebroid(a, dual):
    """``check_lie_bialgebroid`` with d_* applied to unit-vector sections and to triple-loop brackets."""
    if dual.base != a.base:
        raise PatchMismatch("dual structure on a different base")
    if dual.rank != a.rank:
        raise WrongShape("dual structure must have the same rank")
    if a.rank > 4:
        raise WrongShape("bialgebroid check supports rank at most 4")
    for side, name in ((a, "primary"), (dual, "dual")):
        rep = reference_lie_algebroid(side)
        if not rep.passed:
            raise NotAlgebroid(f"{name} structure: {rep.witness}")
    frame = [_unit(a, i) for i in range(a.rank)]
    d_frame = [_dual_differential_section(dual, sparse(f)) for f in frame]
    minus_d_frame = [{key: -coeff for key, coeff in t.items()} for t in d_frame]

    def derivation():
        for fa, fb in itertools.combinations(range(a.rank), 2):
            diff = _dual_differential_section(dual, sparse(_bracket_by_triple_loop(a, frame[fa], frame[fb])))
            _frame_bracket_wedge(a, fb, d_frame[fa], diff)
            _frame_bracket_wedge(a, fa, minus_d_frame[fb], diff)
            bad = next((key for key in sorted(diff) if not diff[key].is_zero()), None)
            if bad is not None:
                yield f"derivation fails on (e_{fa + 1},e_{fb + 1}) at e_{bad[0] + 1}^e_{bad[1] + 1}: {diff[bad]}"

    return Report((CheckItem.first("derivation condition on frame pairs", derivation()),))


def _poly(base, max_deg):
    """Sparse small-coefficient polynomials of degree at most ``max_deg``; often zero."""
    exps = [e for e in itertools.product(range(max_deg + 1), repeat=base.dim) if sum(e) <= max_deg]
    return st.dictionaries(st.sampled_from(exps), st.integers(-2, 2), max_size=2).map(lambda t: Expr(base, t))


@st.composite
def algebroid_inputs(draw, bases=(PT, R1, R2), ranks=(2, 4), max_deg=1):
    """Constructor input (base, anchors, brackets): random anchors and structure functions on one of ``bases``."""
    base = draw(st.sampled_from(bases))
    rank = draw(st.integers(*ranks))
    polys = _poly(base, max_deg)
    anchors = [VField(base, tuple(draw(polys) for _ in base.coords)) for _ in range(rank)]
    brackets = {key: [draw(polys) for _ in range(rank)] for key in itertools.combinations(range(rank), 2)}
    return base, anchors, brackets


def random_algebroids(bases=(PT, R1, R2), ranks=(2, 4), max_deg=1):
    """Random algebroids on one of ``bases``; most fail Jacobi or the anchor item."""
    return algebroid_inputs(bases, ranks, max_deg).map(lambda inputs: AlgebroidPatch(*inputs))


@settings(max_examples=100, deadline=None)
@given(algebroid_inputs(ranks=(1, 4)))
def test_bracket_table_is_sparse_and_antisymmetric(inputs):
    base, anchors, brackets = inputs
    a = AlgebroidPatch(base, anchors, brackets)
    r = range(a.rank)
    for i, j in itertools.product(r, repeat=2):
        assert all(e.terms for e in a.bracket(i, j).values())
        assert dict(a.bracket(j, i)) == {k: -e for k, e in a.bracket(i, j).items()}
    assert all(not a.bracket(i, i) for i in r)
    zero = Expr.zero(base)
    want = [[[zero] * a.rank for _ in r] for _ in r]
    for (i, j), comps in brackets.items():
        want[i][j] = list(comps)
        want[j][i] = [-e for e in comps]
    assert dense_table(a) == tuple(tuple(tuple(row) for row in plane) for plane in want)
    event(f"stored pairs: {sum(1 for i, j in itertools.product(r, repeat=2) if a.bracket(i, j))}")


def _bialgebroid_outcome(check, a, dual):
    try:
        return str(check(a, dual))
    except EngineError as exc:
        return type(exc), str(exc)


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(random_algebroids(), st.data())
def test_frame_brackets_match_the_unit_vector_reference(a, data):
    rep = check_lie_algebroid(a)
    event(f"lie algebroid: {rep.passed}")
    assert str(rep) == str(reference_lie_algebroid(a))
    # a dual on the same base and rank: random, or zero so the derivation condition is reached
    zero = AlgebroidPatch(a.base, [VField.zero(a.base)] * a.rank, {})
    dual = data.draw(random_algebroids((a.base,), (a.rank, a.rank)) | st.just(zero))
    outcome = _bialgebroid_outcome(check_lie_bialgebroid, a, dual)
    event("bialgebroid " + (f"raised {outcome[0].__name__}" if isinstance(outcome, tuple) else "ran"))
    assert outcome == _bialgebroid_outcome(reference_lie_bialgebroid, a, dual)


# -- tangent prolongation -----------------------------------------------------------------


def test_tangent_lift_algebroid_is_algebroid():
    for a in [so3(), affine_anchored(), tangent_bundle_algebroid(R2)]:
        lifted = tangent_lift_algebroid(a)
        assert lifted.rank == 2 * a.rank
        assert check_lie_algebroid(lifted).passed


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    random_algebroids(ranks=(2, 3))
    | st.sampled_from([lambda: pair_groupoid(R1), lambda: pair_groupoid(R2), lambda: abelian_group(2), heisenberg3]).map(
        lambda build: lie_algebroid_of(build())
    )
)
def test_tangent_prolongation_keeps_the_lie_verdict(a):
    passed = check_lie_algebroid(a).passed
    event(f"lie algebroid: {passed}")
    assert check_lie_algebroid(tangent_lift_algebroid(a)).passed == passed


# -- bialgebroids --------------------------------------------------------------------------


def test_bialgebroid_abelian_affine_pair():
    g = abelian(2)
    gstar = const_algebra(2, {(0, 1): (1, 0)})
    assert check_lie_bialgebroid(g, gstar).passed
    assert check_lie_bialgebroid(gstar, g).passed


def test_bialgebroid_aff1_self_paired():
    g = aff1()
    dual_on_xi1 = const_algebra(2, {(0, 1): (1, 0)})
    dual_on_xi2 = const_algebra(2, {(0, 1): (0, 1)})
    # both duals satisfy the derivation condition, with nonzero terms for xi2
    assert check_lie_bialgebroid(g, dual_on_xi1).passed
    assert check_lie_bialgebroid(g, dual_on_xi2).passed
    assert check_lie_bialgebroid(dual_on_xi2, g).passed


def test_bialgebroid_so3_pair_fails_symmetrically():
    rep = check_lie_bialgebroid(so3(), so3())
    assert not rep.passed
    assert "derivation fails" in rep.witness
    assert not check_lie_bialgebroid(so3(), so3()).passed


def test_bialgebroid_with_anchors():
    a = tangent_bundle_algebroid(R1)
    dual = AlgebroidPatch(R1, [VField.zero(R1)], {})
    assert check_lie_bialgebroid(a, dual).passed
    assert check_lie_bialgebroid(dual, a).passed


def test_bialgebroid_shape_errors():
    big = abelian(5)
    with pytest.raises(WrongShape, match="^bialgebroid check supports rank at most 4$"):
        check_lie_bialgebroid(big, big)
    with pytest.raises(NotAlgebroid):
        check_lie_bialgebroid(bad_cyclic(), so3())
    with pytest.raises(WrongShape):
        check_lie_bialgebroid(abelian(2), abelian(3))


# -- IM 2-forms ------------------------------------------------------------------------------


def test_im_two_form_closed_passes_open_fails():
    a = tangent_bundle_algebroid(R3)
    closed = wedge(KForm.d_coord(R3, "x"), KForm.d_coord(R3, "y"))
    assert check_im_two_form(a, im_from_two_form(a, closed)).passed
    open_b = KForm(R3, 2, {(0, 1): parse_expr("z", R3)})
    rep = check_im_two_form(a, im_from_two_form(a, open_b))
    assert not rep.passed
    assert rep.items[0].passed and not rep.items[1].passed


def test_im_two_form_matches_closedness_over_library():
    a = tangent_bundle_algebroid(R3)
    library = [
        KForm(R3, 2, {(0, 1): Expr.one(R3)}),
        KForm(R3, 2, {(0, 1): parse_expr("z", R3)}),
        KForm(R3, 2, {(0, 1): parse_expr("z", R3), (1, 2): parse_expr("x", R3), (0, 2): parse_expr("-y", R3)}),
        KForm(R3, 2, {(1, 2): parse_expr("x^2", R3)}),
        KForm(R3, 2, {(0, 1): parse_expr("x*y", R3), (0, 2): parse_expr("y", R3)}),
    ]
    for b in library:
        rep = check_im_two_form(a, im_from_two_form(a, b))
        closed = exterior_derivative(b) == KForm.zero(R3, 3)
        assert rep.passed == closed, str(b)


def test_im_zero_passes_on_nontrivial_algebroid():
    a = affine_anchored()
    zero = IMTwoForm((KForm.zero(R1, 1), KForm.zero(R1, 1)))
    assert check_im_two_form(a, zero).passed


def test_im_two_form_requires_algebroid():
    with pytest.raises(NotAlgebroid):
        check_im_two_form(bad_cyclic(), IMTwoForm((KForm.zero(PT, 1),) * 3))


def reference_function_multiple(a, s):
    """The function-multiple item ``check_im_two_form`` carried until the two identities were shown to imply it.

    On every ordered frame pair, with f = 1 + x_1, it compares both sides of
    [f e_i, e_j] = f [e_i, e_j] - rho(e_j)(f) e_i under sigma.
    """
    f = Expr.one(a.base) + Expr.coord(a.base, a.base.coords[0])

    c = dense_table(a)

    def bracket_side(i, j):
        acc = KForm.zero(a.base, 1)
        for k in range(a.rank):
            acc = acc + s.sigma[k].scale(c[i][j][k])
        return acc

    def deviations():
        for i, j in itertools.permutations(range(a.rank), 2):
            lhs = bracket_side(i, j).scale(f) - s.sigma[i].scale(a.anchor[j].apply(f))
            rhs = lie_derivative(a.anchor[i].scale(f), s.sigma[j])
            rhs = rhs - lie_derivative(a.anchor[j], s.sigma[i].scale(f))
            rhs = rhs + exterior_derivative(KForm.function(s.sigma[i].scale(f).evaluate(a.anchor[j])))
            diff = lhs - rhs
            if diff != KForm.zero(a.base, 1):
                yield f"function multiple on (e_{i + 1},e_{j + 1}) deviates by {diff}"

    return CheckItem.first("function-multiple consistency", deviations())


def so3_action():
    """so(3) acting on R^3 by rotations: rho(e_1) = y d_z - z d_y and cyclically, so [e_1,e_2] = -e_3."""
    return AlgebroidPatch(
        R3,
        [vf(R3, "0", "-z", "y"), vf(R3, "z", "0", "-x"), vf(R3, "-y", "x", "0")],
        {key: tuple(Expr.const(R3, v) for v in comps) for key, comps in {(0, 1): (0, 0, -1), (1, 2): (-1, 0, 0), (0, 2): (0, 1, 0)}.items()},
    )


IM_ALGEBROIDS = (tangent_bundle_algebroid(R2), affine_anchored(), so3_action(), tangent_lift_algebroid(affine_anchored()))


@st.composite
def im_two_form_cases(draw):
    """An algebroid on a base of positive dimension and an IM candidate: the flat map of dθ, sometimes nudged."""
    a = draw(st.sampled_from(IM_ALGEBROIDS))
    base = a.base
    polys = st.dictionaries(st.tuples(*[st.integers(0, 1)] * base.dim), st.integers(-2, 2), max_size=2).map(
        lambda t: Expr(base, t)
    )
    theta = KForm.one_form(base, tuple(draw(polys) for _ in base.coords))
    sigma = list(im_from_two_form(a, exterior_derivative(theta)).sigma)
    if draw(st.booleans()):
        k = draw(st.integers(0, a.rank - 1))
        sigma[k] = sigma[k] + KForm.one_form(base, tuple(draw(polys) for _ in base.coords))
    return a, IMTwoForm(tuple(sigma))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(im_two_form_cases())
def test_function_multiple_identity_follows_from_the_two_items(case):
    a, s = case
    rep = check_im_two_form(a, s)
    assert [item.name for item in rep.items] == ["pairing with the anchor is antisymmetric", "bracket identity on frame pairs"]
    event(f"both identities hold: {rep.passed}")
    if rep.passed:
        assert reference_function_multiple(a, s).passed


# -- IM foliations -----------------------------------------------------------------------------


def test_im_foliation_coordinate_example_passes():
    a = tangent_bundle_algebroid(R2)
    f = IMFoliation((vf(R2, "1", "0"),), (0,))
    rep = check_im_foliation(a, f)
    assert rep.passed, rep.witness


def test_im_foliation_bracket_stability_failure():
    # frame e1 = d_x, e2 = d_y + x d_x with [e1,e2] = e1; K = span{e2}
    a = AlgebroidPatch(
        R2,
        [vf(R2, "1", "0"), vf(R2, "x", "1")],
        {(0, 1): (Expr.one(R2), Expr.zero(R2))},
    )
    assert check_lie_algebroid(a).passed
    f = IMFoliation((vf(R2, "1", "0"), vf(R2, "0", "1")), (1,))
    rep = check_im_foliation(a, f)
    assert not rep.passed
    assert not rep.items[1].passed


def test_im_foliation_witnesses():
    # one failing input per bullet, with the full report
    fields = (vf(R3, "1", "0", "0"), vf(R3, "0", "1", "x"))
    assert str(check_im_foliation(tangent_bundle_algebroid(R3), IMFoliation(fields, ()))) == (
        "fail (connection is flat: fail  [[f_1,f_2] leaves the foliation span]; brackets with K stay in K: pass; "
        "bracket classes are flat mod K: pass; anchor flows preserve the foliation: fail  "
        "[[rho(e_1), f_2] leaves the foliation span])"
    )
    line = AlgebroidPatch(R1, [VField.zero(R1)] * 2, {(0, 1): (parse_expr("x", R1), Expr.zero(R1))})
    assert str(check_im_foliation(line, IMFoliation((vf(R1, "1"),), ()))) == (
        "fail (connection is flat: pass; brackets with K stay in K: pass; bracket classes are flat mod K: fail  "
        "[class of [e_1,e_2] is not flat along f_1: 1]; anchor flows preserve the foliation: pass)"
    )
    assert str(check_im_foliation(tangent_bundle_algebroid(R2), IMFoliation((vf(R2, "1", "y"),), ()))) == (
        "fail (connection is flat: pass; brackets with K stay in K: pass; bracket classes are flat mod K: pass; "
        "anchor flows preserve the foliation: fail  [[rho(e_2), f_1] leaves the foliation span])"
    )
    a = AlgebroidPatch(R2, [vf(R2, "1", "0"), vf(R2, "x", "1")], {(0, 1): (Expr.one(R2), Expr.zero(R2))})
    assert str(check_im_foliation(a, IMFoliation((vf(R2, "1", "0"), vf(R2, "0", "1")), (1,)))) == (
        "fail (connection is flat: pass; brackets with K stay in K: fail  [[e_1,e_2] has class component e_1 = 1]; "
        "bracket classes are flat mod K: pass; anchor flows preserve the foliation: pass)"
    )


def test_im_foliation_vacuous_full_kernel():
    a = tangent_bundle_algebroid(R2)
    f = IMFoliation((vf(R2, "1", "0"), vf(R2, "0", "1")), (0, 1))
    assert check_im_foliation(a, f).passed


def test_im_foliation_anchor_not_tangent():
    a = tangent_bundle_algebroid(R2)
    with pytest.raises(HypothesisFails, match="^rho\\(e_2\\) is not tangent to the foliation$"):
        check_im_foliation(a, IMFoliation((vf(R2, "1", "0"),), (1,)))


def test_im_foliation_rank_deficient_generators():
    a = tangent_bundle_algebroid(R2)
    with pytest.raises(RankDeficient):
        check_im_foliation(a, IMFoliation((vf(R2, "1", "0"), vf(R2, "x", "0")), ()))


# -- Lie bialgebras ------------------------------------------------------------------------------


def test_bialgebra_abelian_affine_passes():
    assert check_lie_bialgebra(abelian(2), const_algebra(2, {(0, 1): (1, 0)})).passed


def test_bialgebra_shape_errors():
    with pytest.raises(WrongShape):
        check_lie_bialgebra(abelian(2), abelian(3))
    with pytest.raises(WrongShape):
        check_lie_bialgebra(tangent_bundle_algebroid(R1), AlgebroidPatch(R1, [VField.zero(R1)], {}))
    with pytest.raises(WrongShape):
        check_lie_bialgebra(abelian(1), AlgebroidPatch(Patch("pt2", ()), [VField.zero(Patch("pt2", ()))], {}))


def test_bialgebra_so3_pair_fails_cocycle():
    rep = check_lie_bialgebra(so3(), so3())
    assert not rep.passed
    assert "cocycle" in rep.witness


def test_bialgebra_witnesses():
    def failures(g, gstar):
        rep = check_lie_bialgebra(g, gstar)
        return [(it.name, it.witness) for it in rep.items if not it.passed]

    assert failures(so3(), so3()) == [("dual cocycle condition", "cocycle fails on (e_1,e_2) at e_1^e_2: -1")]
    # the dual table of bad_cyclic fails Jacobi
    assert failures(so3(), bad_cyclic()) == [
        ("dual structure satisfies jacobi", "dual jacobi[1,2,3] component 1: -1"),
        ("dual cocycle condition", "cocycle fails on (e_1,e_2) at e_1^e_3: -1"),
    ]
    assert failures(abelian(3), bad_cyclic()) == [("dual structure satisfies jacobi", "dual jacobi[1,2,3] component 1: -1")]


def test_bialgebra_agrees_with_bialgebroid_over_point():
    pairs = [
        (aff1(), const_algebra(2, {(0, 1): (0, 1)})),
        (aff1(), const_algebra(2, {(0, 1): (1, 0)})),
        (so3(), so3()),
        (abelian(2), const_algebra(2, {(0, 1): (1, 0)})),
    ]
    for g, gstar in pairs:
        broid = check_lie_bialgebroid(g, gstar).passed
        bra = check_lie_bialgebra(g, gstar).passed
        assert broid == bra


def _ref_add_wedge(table, i, j, coeff):
    if i == j or coeff.is_zero():
        return
    if i > j:
        i, j, coeff = j, i, -coeff
    table[(i, j)] = table.get((i, j), Expr.zero(coeff.patch)) + coeff


def _ref_wedge_sub(p, q, patch):
    out = dict(p)
    for key, coeff in q.items():
        out[key] = out.get(key, Expr.zero(patch)) - coeff
    return out


def reference_lie_bialgebra(g, gstar):
    """The bialgebra check written out on dense constant tables: its own dual Jacobi sum and
    cocycle delta[x, y] = ad_x delta(y) - ad_y delta(x), with no algebroid walk."""
    check_lie_algebroid(g).require(NotAlgebroid)
    r = g.rank
    point = g.base
    cbar, cstar = dense_table(g), dense_table(gstar)

    def dual_jacobi():
        for (x, y, z), k in itertools.product(itertools.combinations(range(r), 3), range(r)):
            cyclic = ((x, y, z), (y, z, x), (z, x, y))
            acc = dot(point, ((cstar[p][q][s], cstar[s][t][k]) for s in range(r) for p, q, t in cyclic))
            if not acc.is_zero():
                yield f"dual jacobi[{x + 1},{y + 1},{z + 1}] component {k + 1}: {acc}"

    def delta(m):
        out = {}
        for x in range(r):
            for y in range(x + 1, r):
                _ref_add_wedge(out, x, y, cstar[x][y][m])
        return out

    def ad_wedge(x, table):
        out = {}
        for (i, j), coeff in table.items():
            for k in range(r):
                _ref_add_wedge(out, k, j, coeff * cbar[x][i][k])
                _ref_add_wedge(out, i, k, coeff * cbar[x][j][k])
        return out

    def cocycle():
        for x, y in itertools.combinations(range(r), 2):
            lhs = {}
            for m in range(r):
                for key, coeff in delta(m).items():
                    _ref_add_wedge(lhs, key[0], key[1], coeff * cbar[x][y][m])
            rhs = _ref_wedge_sub(ad_wedge(x, delta(y)), ad_wedge(y, delta(x)), point)
            diff = _ref_wedge_sub(lhs, rhs, point)
            bad = next((key for key in sorted(diff) if not diff[key].is_zero()), None)
            if bad is not None:
                yield f"cocycle fails on (e_{x + 1},e_{y + 1}) at e_{bad[0] + 1}^e_{bad[1] + 1}: {diff[bad]}"

    return Report(
        (
            CheckItem.first("dual structure satisfies jacobi", dual_jacobi()),
            CheckItem.first("dual cocycle condition", cocycle()),
        )
    )


# constant Lie algebras (rank, brackets) the bialgebra draws sum and pad with abelian directions;
# the last one fails Jacobi, so the check must raise NotAlgebroid
LIE_SUMMANDS = [
    (1, {}),
    (2, {(0, 1): (0, 1)}),
    (3, {(0, 1): (0, 0, 1)}),
    (3, {(0, 1): (0, 0, 1), (1, 2): (1, 0, 0), (0, 2): (0, -1, 0)}),
    (3, {(0, 1): (1, 0, 0), (1, 2): (0, 1, 0), (0, 2): (0, 0, -1)}),
]
DUAL_CONSTANTS = [0, 0, 0, 0, 1, -1, 2, Fraction(1, 2)]


def _permuted_algebra(summands, rank, perm):
    """The direct sum of ``summands`` padded to ``rank`` with abelian directions, frame renumbered by ``perm``."""
    brackets, offset = {}, 0
    for size, table in summands:
        for (a, b), comps in table.items():
            full = [0] * rank
            for k, v in enumerate(comps):
                full[perm[offset + k]] = v
            pa, pb = perm[offset + a], perm[offset + b]
            brackets[(min(pa, pb), max(pa, pb))] = full if pa < pb else [-v for v in full]
        offset += size
    return const_algebra(rank, brackets)


@st.composite
def bialgebra_inputs(draw):
    summands = draw(st.lists(st.sampled_from(LIE_SUMMANDS), min_size=1, max_size=2))
    size = sum(s for s, _ in summands)
    assume(size <= 5)
    rank = draw(st.integers(max(2, size), 5))
    g = _permuted_algebra(summands, rank, draw(st.permutations(range(rank))))
    if draw(st.booleans()):
        dual = {
            (a, b): [draw(st.sampled_from(DUAL_CONSTANTS)) for _ in range(rank)]
            for a, b in itertools.combinations(range(rank), 2)
        }
        gstar = const_algebra(rank, dual)
    else:
        pick = draw(st.lists(st.sampled_from(LIE_SUMMANDS[:4]), min_size=1, max_size=2).filter(lambda s: sum(n for n, _ in s) <= rank))
        gstar = _permuted_algebra(pick, rank, draw(st.permutations(range(rank))))
    return g, gstar


def _bialgebra_outcome(check, d):
    try:
        rep = check(*d)
    except EngineError as exc:
        return type(exc), str(exc)
    return [(it.name, it.passed, it.witness) for it in rep.items]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(bialgebra_inputs())
def test_bialgebra_matches_the_constant_table_reference(d):
    assert _bialgebra_outcome(check_lie_bialgebra, d) == _bialgebra_outcome(reference_lie_bialgebra, d)


# -- linearity ------------------------------------------------------------------------------------


def test_linearity_of_lie_poisson_graph():
    p = dual_linear_poisson(so3())
    rep = check_linearity(graph_bivector(p), n_base=0)
    assert rep.passed


def test_linearity_fails_for_constant_bivector():
    total = dual_patch(abelian(2))
    p = Bivector(total, {(0, 1): Expr.one(total)})
    rep = check_linearity(graph_bivector(p), n_base=0)
    assert not rep.passed
    assert "rank" in rep.witness


def test_linearity_of_canonical_symplectic_graph():
    from diracgeom.tanlift import canonical_symplectic, cotangent_patch

    w = canonical_symplectic(cotangent_patch(R2))
    rep = check_linearity(graph_two_form(w), n_base=2)
    assert rep.passed


def test_linearity_mixed_weight_fails():
    total = Patch("E", ("x", "u"))
    w = KForm(total, 2, {(0, 1): Expr.one(total) + parse_expr("u", total)})
    rep = check_linearity(graph_two_form(w), n_base=1)
    assert not rep.passed


def test_linearity_requires_lagrangian():
    bad = Frame(R1, (GSec(VField.coordinate(R1, "x"), KForm.d_coord(R1, "x")),))
    with pytest.raises(NotLagrangian):
        check_linearity(bad, n_base=1)


def test_linearity_base_count_validated():
    p = dual_linear_poisson(abelian(2))
    with pytest.raises(WrongShape):
        check_linearity(graph_bivector(p), n_base=7)


def reference_linearity(l, n_base):
    """``check_linearity`` with the scaled and acted-on spans built column by column."""
    check_lagrangian(l).require(NotLagrangian)
    patch = l.patch
    n = patch.dim
    if not 0 <= n_base <= n:
        raise WrongShape("base coordinate count out of range")
    (tname,) = fresh_names("t", 1, set(patch.coords))
    ext = Patch(patch.name + "_scaled", patch.coords + (tname,))
    t = Expr.coord(ext, tname)
    values = [Expr.coord(ext, c) for c in patch.coords]
    for i in range(n_base, n):
        values[i] = values[i] * t
    a_cols, b_cols = [], []
    for s in l.secs:
        comps = s.coefficients()
        a_cols.append([c.substitute(values, ext) for c in comps])
        inj = [c.inject(ext) for c in comps]
        col = []
        for i in range(n):
            col.append(inj[i] if i < n_base else inj[i] * t)
        for i in range(n):
            col.append(inj[n + i] * t if i < n_base else inj[n + i])
        b_cols.append(col)
    rows_a = [[col[r] for col in a_cols] for r in range(2 * n)]
    rows_b = [[col[r] for col in b_cols] for r in range(2 * n)]
    ra = generic_rank(ExprMatrix.from_rows(ext, rows_a))
    rb = generic_rank(ExprMatrix.from_rows(ext, rows_b))
    joint = generic_rank(ExprMatrix.from_rows(ext, [rows_a[r] + rows_b[r] for r in range(2 * n)]))
    ok = ra == rb == joint
    witness = None if ok else f"scaled span rank {ra}, action image rank {rb}, joint {joint}"
    return Report((CheckItem("span is invariant under fiber scaling", ok, witness),))


@st.composite
def linearity_cases(draw):
    """A Lagrangian frame on 2..4 coordinates (graph of a two-form or bivector, or a foliation) and a base count."""
    n = draw(st.integers(2, 4))
    patch = Patch(f"V{n}", ("x", "y", "z", "w")[:n])
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    max_deg = draw(st.integers(0, 2))
    pairs = list(itertools.combinations(range(n), 2))
    kind = draw(st.sampled_from(["two-form", "bivector", "foliation"]))
    if kind == "two-form":
        frame = graph_two_form(KForm(patch, 2, {ij: rand_expr(rng, patch, max_deg) for ij in pairs}))
    elif kind == "bivector":
        frame = graph_bivector(Bivector(patch, {ij: rand_expr(rng, patch, max_deg) for ij in pairs}))
    else:
        k = draw(st.integers(0, n))
        fields = [VField(patch, tuple(rand_expr(rng, patch, max_deg) for _ in range(n))) for _ in range(k)]
        try:
            frame = foliation_frame(fields) if fields else graph_bivector(Bivector(patch, {}))
        except RankDeficient:
            assume(False)
    return frame, draw(st.integers(0, n))


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(linearity_cases())
def test_linearity_matches_the_column_reference(case):
    frame, n_base = case
    report = check_linearity(frame, n_base)
    event("linear" if report.passed else "not linear")
    assert str(report) == str(reference_linearity(frame, n_base))


def test_bialgebroid_dual_poisson_graph_is_dirac_and_linear():
    g = aff1()
    gstar = const_algebra(2, {(0, 1): (0, 1)})
    assert check_lie_bialgebroid(g, gstar).passed
    graph = graph_bivector(dual_linear_poisson(g))
    assert check_dirac(graph).passed
    assert check_linearity(graph, n_base=0).passed
