"""Lift formulas, canonical maps, and the lifted Courant tensor blocks."""

import random

import pytest

from diracgeom.cartan import (
    Bivector,
    KForm,
    PolyMap,
    VField,
    wedge,
)
from diracgeom.cli import parse_expr
from diracgeom.courant import (
    Frame,
    GSec,
    check_dirac,
    check_lagrangian,
    courant_bracket,
    foliation_frame,
    graph_bivector,
    graph_two_form,
)
from diracgeom.errors import EngineError
from diracgeom.report import CheckItem, Report
from diracgeom.symalg import Expr, Patch
from diracgeom.tanlift import (
    canonical_involution,
    canonical_symplectic,
    check_tangent_mu_identity,
    cotangent_patch,
    lift_function,
    lift_one_form,
    lift_section,
    lift_vector_field,
    tangent_lift_dirac,
    tangent_map,
    tangent_patch,
    tulczyjew_map,
)

from test_cartan import one_form, rand_form, rand_vf, so3_poisson, vf
from test_courant import reference_mu, same_span
from test_symalg import rand_expr

M1 = Patch("M1", ("x",))
M2 = Patch("M2", ("x", "y"))
M3 = Patch("M3", ("x", "y", "z"))


# -- patch doubling ---------------------------------------------------------------


def test_tangent_patch_names():
    tp = tangent_patch(M2)
    assert tp.total.coords == ("x", "y", "x_dot", "y_dot")


def test_second_tangent_patch_names():
    tt = tangent_patch(tangent_patch(M1).total)
    assert tt.total.coords == ("x", "x_dot", "del_x", "del_x_dot")


def test_deeper_tangent_patch_names():
    # from the third lift on, velocities are named by depth: del2_, del3_, ...
    t2 = tangent_patch(tangent_patch(M1).total).total
    t3 = tangent_patch(t2)
    assert t3.total.coords == t2.coords + ("del2_x", "del2_x_dot", "del2_del_x", "del2_del_x_dot")
    t4 = tangent_patch(t3.total)
    assert t4.fibre_names == tuple("del3_" + c for c in t3.total.coords)
    # a del_ block that does not name the velocities of the first half is a first lift's base
    assert tangent_patch(Patch("P", ("x", "del_x"))).fibre_names == ("x_dot", "del_x_dot")


def test_cotangent_patch_names():
    ct = cotangent_patch(M2)
    assert ct.total.coords == ("x", "y", "p_x", "p_y")


def test_lift_collision_takes_fresh_names():
    # a lifted name the base already uses becomes the first free name1, name2, ...
    tp = tangent_patch(Patch("clash", ("x", "x_dot", "y")))
    assert tp.fibre_names == ("x_dot1", "x_dot_dot", "y_dot")
    assert tangent_patch(Patch("clash", ("x", "x_dot", "x_dot1"))).fibre_names == ("x_dot2", "x_dot_dot", "x_dot1_dot")
    ct = cotangent_patch(Patch("Q", ("q", "p_q")))
    assert ct.fibre_names == ("p_q1", "p_p_q")
    # a fresh name that a later lifted name would take moves that one on in turn
    assert cotangent_patch(Patch("Q", ("q", "p_q", "q1"))).fibre_names == ("p_q1", "p_p_q", "p_q11")


def test_lifted_patches_are_memoised():
    assert tangent_patch(M2) is tangent_patch(Patch("M2", ("x", "y")))
    assert cotangent_patch(M2) is cotangent_patch(M2)


# -- function, field, and form lifts ------------------------------------------------


def test_lift_function_examples():
    tp = tangent_patch(M1)
    x = parse_expr("x", M1)
    assert lift_function(x, "tangent") == parse_expr("x_dot", tp.total)
    assert lift_function(x * x, "tangent") == parse_expr("2*x*x_dot", tp.total)
    assert lift_function(Expr.const(M1, 7), "tangent").is_zero()
    assert lift_function(x * x, "vertical") == parse_expr("x^2", tp.total)


def test_lift_vector_field_examples():
    tp = tangent_patch(M1)
    assert lift_vector_field(vf(M1, "1"), "vertical") == vf(tp.total, "0", "1")
    assert lift_vector_field(vf(M1, "x"), "tangent") == vf(tp.total, "x", "x_dot")
    assert lift_vector_field(vf(M1, "1"), "tangent") == vf(tp.total, "1", "0")


def test_lift_one_form_examples():
    tp = tangent_patch(M2)
    dx = KForm.d_coord(M2, "x")
    assert lift_one_form(dx, "tangent") == KForm.d_coord(tp.total, "x_dot")
    assert lift_one_form(dx, "vertical") == KForm.d_coord(tp.total, "x")
    xdy = one_form(M2, "0", "x")
    assert lift_one_form(xdy, "tangent") == one_form(tp.total, "0", "x_dot", "0", "x")


def test_lift_defining_identities():
    rng = random.Random(131)
    for _ in range(10):
        x = rand_vf(rng, M2)
        a = rand_form(rng, M2, 1)
        f = rand_expr(rng, M2)
        xv = lift_vector_field(x, "vertical")
        xt = lift_vector_field(x, "tangent")
        av = lift_one_form(a, "vertical")
        at = lift_one_form(a, "tangent")
        fv = lift_function(f, "vertical")
        ft = lift_function(f, "tangent")
        assert xv.apply(fv).is_zero()
        assert xv.apply(ft) == lift_function(x.apply(f), "vertical")
        assert xt.apply(fv) == lift_function(x.apply(f), "vertical")
        assert xt.apply(ft) == lift_function(x.apply(f), "tangent")
        assert av.evaluate(xv).is_zero()
        assert av.evaluate(xt) == lift_function(a.evaluate(x), "vertical")
        assert at.evaluate(xv) == lift_function(a.evaluate(x), "vertical")
        assert at.evaluate(xt) == lift_function(a.evaluate(x), "tangent")


def test_lift_bracket_identities():
    rng = random.Random(137)
    for _ in range(6):
        s1 = GSec(rand_vf(rng, M2, 1), rand_form(rng, M2, 1, 1))
        s2 = GSec(rand_vf(rng, M2, 1), rand_form(rng, M2, 1, 1))
        vv = courant_bracket(lift_section(s1, "vertical"), lift_section(s2, "vertical"))
        assert vv.vf.is_zero() and vv.of.is_zero()
        tv = courant_bracket(lift_section(s1, "tangent"), lift_section(s2, "vertical"))
        assert tv == lift_section(courant_bracket(s1, s2), "vertical")
        tt = courant_bracket(lift_section(s1, "tangent"), lift_section(s2, "tangent"))
        assert tt == lift_section(courant_bracket(s1, s2), "tangent")


def test_lift_kind_validated():
    with pytest.raises(EngineError, match="kind must be 'vertical' or 'tangent', got 'sideways'"):
        lift_function(parse_expr("x", M1), "sideways")


# -- canonical involution -------------------------------------------------------------


def section_map(x: VField) -> PolyMap:
    """A vector field as the map P -> TP it defines."""
    tp = tangent_patch(x.patch)
    comps = [Expr.coord(x.patch, c) for c in x.patch.coords] + list(x.components())
    return PolyMap(x.patch, tp.total, tuple(comps))


def form_section_map(a: KForm) -> PolyMap:
    """A one-form as the map P -> T*P it defines."""
    ct = cotangent_patch(a.patch)
    comps = [Expr.coord(a.patch, c) for c in a.patch.coords] + list(a.components())
    return PolyMap(a.patch, ct.total, tuple(comps))


def test_involution_is_the_block_swap():
    j = canonical_involution(M2)
    assert j.source == j.target == tangent_patch(tangent_patch(M2).total).total
    names = tuple(str(c) for c in j.components)
    assert names == ("x", "y", "del_x", "del_y", "x_dot", "y_dot", "del_x_dot", "del_y_dot")


def test_involution_squares_to_identity():
    j = canonical_involution(M2)
    assert j.compose(j) == PolyMap.identity(j.source)


def test_involution_on_a_third_level_patch():
    # T(T(TM)) is the second tangent of N = TM: J swaps N's del_ and del2_ velocity blocks
    n = tangent_patch(M1).total
    j = canonical_involution(n)
    names = tuple(str(c) for c in j.components)
    assert names == ("x", "x_dot", "del2_x", "del2_x_dot", "del_x", "del_x_dot", "del2_del_x", "del2_del_x_dot")
    assert j.compose(j) == PolyMap.identity(j.source)
    # and it still turns T X into the tangent lift of X, for a field X on N
    x = vf(n, "x*x_dot", "x^2 - x_dot")
    assert j.compose(tangent_map(section_map(x))) == section_map(lift_vector_field(x, "tangent"))


def test_involution_swaps_tangent_and_vertical_lifts():
    rng = random.Random(139)
    tm = tangent_patch(M2)
    tt = tangent_patch(tm.total)
    j = canonical_involution(M2)
    for x in [vf(M2, "x", "0"), vf(M2, "y", "x*x"), rand_vf(rng, M2)]:
        # T X as a map TM -> TTM, then J on top
        tx = tangent_map(section_map(x))
        assert j.compose(tx) == section_map(lift_vector_field(x, "tangent"))
        # the flip map x-hat(q, v) = (q, 0, v, X(q))
        zero = Expr.zero(tm.total)
        hat = PolyMap(
            tm.total,
            tt.total,
            tuple(
                [Expr.coord(tm.total, c) for c in M2.coords]
                + [zero] * M2.dim
                + [Expr.coord(tm.total, c) for c in tm.fibre_names]
                + [c.inject(tm.total) for c in x.components()]
            ),
        )
        assert j.compose(hat) == section_map(lift_vector_field(x, "vertical"))


# -- Tulczyjew map ---------------------------------------------------------------------


def test_tulczyjew_is_the_displayed_permutation():
    theta = tulczyjew_map(M2)
    assert theta.source == tangent_patch(cotangent_patch(M2).total).total
    assert theta.source.coords == ("x", "y", "p_x", "p_y", "x_dot", "y_dot", "p_x_dot", "p_y_dot")
    assert theta.target == cotangent_patch(tangent_patch(M2).total).total
    names = tuple(str(c) for c in theta.components)
    assert names == ("x", "y", "x_dot", "y_dot", "p_x_dot", "p_y_dot", "p_x", "p_y")


def assert_tulczyjew_sends_form_sections_to_lifts(base, forms):
    theta = tulczyjew_map(base)
    tm = tangent_patch(base)
    for a in forms:
        ta = tangent_map(form_section_map(a))
        assert theta.compose(ta) == form_section_map(lift_one_form(a, "tangent"))
        zero = Expr.zero(tm.total)
        hat = PolyMap(
            tm.total,
            theta.source,
            tuple(
                [Expr.coord(tm.total, c) for c in base.coords]
                + [zero] * base.dim
                + [Expr.coord(tm.total, c) for c in tm.fibre_names]
                + [c.inject(tm.total) for c in a.components()]
            ),
        )
        assert theta.compose(hat) == form_section_map(lift_one_form(a, "vertical"))


def test_tulczyjew_sends_lifted_form_sections_to_lifts():
    assert_tulczyjew_sends_form_sections_to_lifts(M2, [one_form(M2, "0", "x"), KForm.d_coord(M2, "x"), one_form(M2, "y", "x*y")])


def test_tulczyjew_on_a_base_that_uses_a_momentum_name():
    # the cotangent chart of (q, p_q) names its momenta p_q1, p_p_q; Theta reads them by position
    q = Patch("Q", ("q", "p_q"))
    assert cotangent_patch(q).total.coords == ("q", "p_q", "p_q1", "p_p_q")
    forms = [one_form(q, "0", "q"), KForm.d_coord(q, "p_q"), one_form(q, "p_q", "q*p_q")]
    assert_tulczyjew_sends_form_sections_to_lifts(q, forms)


def test_canonical_symplectic_is_closed_and_nondegenerate():
    from diracgeom.cartan import exterior_derivative

    w = canonical_symplectic(cotangent_patch(M2))
    assert exterior_derivative(w) == KForm.zero(w.patch, 3)
    assert check_dirac(graph_two_form(w)).passed


# -- lifted Dirac frames --------------------------------------------------------------------


def test_lift_of_full_tangent_foliation():
    l = foliation_frame([vf(M2, "1", "0"), vf(M2, "0", "1")])
    lifted = tangent_lift_dirac(l)
    assert len(lifted.secs) == 4
    assert all(s.of.is_zero() for s in lifted.secs)
    assert check_dirac(lifted).passed


def test_lift_of_constant_two_form_graph():
    w = wedge(KForm.d_coord(M2, "x"), KForm.d_coord(M2, "y"))
    lifted = tangent_lift_dirac(graph_two_form(w))
    tp = tangent_patch(M2).total
    wt = wedge(KForm.d_coord(tp, "x_dot"), KForm.d_coord(tp, "y")) + wedge(
        KForm.d_coord(tp, "x"), KForm.d_coord(tp, "y_dot")
    )
    assert same_span(lifted, graph_two_form(wt))


def test_lift_of_constant_bivector_graph():
    p = Bivector(M2, {(0, 1): Expr.one(M2)})
    lifted = tangent_lift_dirac(graph_bivector(p))
    tp = tangent_patch(M2).total
    # d_x ^ d_y_dot + d_x_dot ^ d_y, with the second pair normalized to (1, 2)
    pt = Bivector(tp, {(0, 3): Expr.one(tp), (1, 2): -Expr.one(tp)})
    assert same_span(lifted, graph_bivector(pt))


def test_lift_preserves_lagrangian():
    rng = random.Random(149)
    for _ in range(4):
        w = rand_form(rng, M3, 2, max_deg=1)
        lifted = tangent_lift_dirac(graph_two_form(w))
        assert check_lagrangian(lifted).passed


def test_lift_preserves_dirac_verdict():
    closed = KForm(M3, 2, {(0, 1): parse_expr("z", M3), (1, 2): parse_expr("x", M3)})
    closed = exact_completion(closed)
    assert check_dirac(graph_two_form(closed)).passed
    assert check_dirac(tangent_lift_dirac(graph_two_form(closed))).passed
    assert check_dirac(tangent_lift_dirac(graph_bivector(so3_poisson(M3)))).passed


def exact_completion(w):
    """Replace w by an exact two-form with the same leading coefficients."""
    from diracgeom.cartan import exterior_derivative

    patch = w.patch
    alpha = KForm.one_form(
        patch,
        [
            parse_expr("z*y", patch),
            parse_expr("x*z", patch),
            parse_expr("x*y", patch),
        ],
    )
    return exterior_derivative(alpha)


def test_tangent_mu_identity_on_nonclosed_graph():
    w = KForm(M3, 2, {(0, 1): parse_expr("z", M3)})
    rep = check_tangent_mu_identity(graph_two_form(w))
    assert rep.passed, rep.witness


def test_tangent_mu_identity_on_non_poisson_graph():
    p = Bivector(
        M3,
        {
            (0, 1): parse_expr("x", M3),
            (1, 2): parse_expr("y", M3),
            (0, 2): parse_expr("-z", M3),
        },
    )
    rep = check_tangent_mu_identity(graph_bivector(p))
    assert rep.passed, rep.witness


def test_tangent_mu_identity_trivial_on_dirac():
    w = wedge(KForm.d_coord(M2, "x"), KForm.d_coord(M2, "y"))
    rep = check_tangent_mu_identity(graph_two_form(w))
    assert rep.passed


def test_tangent_mu_identity_requires_lagrangian():
    from diracgeom.errors import NotLagrangian

    bad = Frame(M1, (GSec(VField.coordinate(M1, "x"), KForm.d_coord(M1, "x")),))
    with pytest.raises(NotLagrangian):
        check_tangent_mu_identity(bad)


def test_tangent_mu_identity_checks_isotropy_of_the_lifted_frame(monkeypatch):
    # the lifted tensor is filled by antisymmetry, which needs an isotropic
    # lifted frame; a lift that broke isotropy must be refused, not filled
    from diracgeom import tanlift
    from diracgeom.errors import NotLagrangian

    base = graph_two_form(wedge(KForm.d_coord(M2, "x"), KForm.d_coord(M2, "y")))
    lifted = tangent_lift_dirac(base)
    first = lifted.secs[0]
    broken = Frame(lifted.patch, (GSec(first.vf, first.of + KForm.d_coord(lifted.patch, "x")),) + lifted.secs[1:])
    assert not check_lagrangian(broken).items[0].passed
    monkeypatch.setattr(tanlift, "tangent_lift_dirac", lambda l: broken)
    with pytest.raises(NotLagrangian):
        check_tangent_mu_identity(base)


TANGENT_BLOCK = "all-tangent block is the lifted tensor"
MULTI_VERTICAL = "multi-vertical entries vanish"
ONE_VERTICAL = "one-vertical entries are vertical lifts"


def reference_tangent_mu(l):
    """The lifted-tensor check scanning all n^3 entries of both tensors, each computed directly.

    It reads ``tanlift.lift_function`` and ``tanlift.tangent_lift_dirac``
    through the module, so a monkeypatched lift reaches it as it reaches the check.
    """
    from diracgeom import tanlift
    from diracgeom.courant import _require_isotropic
    from diracgeom.errors import NotLagrangian

    check_lagrangian(l).require(NotLagrangian)
    n = len(l.secs)
    lifted = tanlift.tangent_lift_dirac(l)
    _require_isotropic(lifted)
    mu = reference_mu(l)
    mu_lift = reference_mu(lifted)

    def label(i, j, k):
        return "mu_T[" + ",".join(f"{m + 1}^v" if m >= n else f"{m + 1}^T" for m in (i, j, k)) + "]"

    def tangent_block():
        for (i, j, k), v in sorted(mu.items()):
            want = tanlift.lift_function(v, "tangent")
            if mu_lift[(i, j, k)] != want:
                yield f"{label(i, j, k)} = {mu_lift[(i, j, k)]}, expected {want}"

    def multi_vertical():
        for (i, j, k), v in sorted(mu_lift.items()):
            if sum(1 for m in (i, j, k) if m >= n) >= 2 and not v.is_zero():
                yield f"{label(i, j, k)} = {v}"

    def one_vertical():
        for (i, j, k), v in sorted(mu_lift.items()):
            if sum(1 for m in (i, j, k) if m >= n) != 1:
                continue
            want = tanlift.lift_function(mu[tuple(m - n if m >= n else m for m in (i, j, k))], "vertical")
            if v != want:
                yield f"{label(i, j, k)} = {v}, expected {want}"

    return Report(
        (
            CheckItem.first(TANGENT_BLOCK, tangent_block()),
            CheckItem.first(MULTI_VERTICAL, multi_vertical()),
            CheckItem.first(ONE_VERTICAL, one_vertical()),
        )
    )


def _tangent_mu_outcome(check, l):
    try:
        rep = check(l)
    except EngineError as exc:
        return type(exc), str(exc)
    return [(it.name, it.passed, it.witness) for it in rep.items]


def _wrong_lift(f, kind):
    """A function lift that keeps lifted frames isotropic but is neither lift: f^T + 2 f^v."""
    return lift_function(f, "tangent") + 2 * lift_function(f, "vertical")


def _swapped_lift(l):
    """The lifted frame with its vertical block first: isotropic, with every block misplaced."""
    secs = tangent_lift_dirac(l).secs
    return Frame(tangent_patch(l.patch).total, secs[len(l.secs):] + secs[: len(l.secs)])


@pytest.mark.parametrize(
    ("target", "wrong", "fails"),
    [
        (None, None, set()),
        # a function lift reaches the frame only through the velocity slots of X^T and the dx
        # slots of a^T, which leave every multi-vertical entry zero
        ("lift_function", _wrong_lift, {TANGENT_BLOCK, ONE_VERTICAL}),
        ("tangent_lift_dirac", _swapped_lift, {TANGENT_BLOCK, MULTI_VERTICAL, ONE_VERTICAL}),
    ],
    ids=["true-lift", "wrong-function-lift", "swapped-lifted-frame"],
)
def test_tangent_mu_identity_matches_the_full_scan(monkeypatch, target, wrong, fails):
    from diracgeom import tanlift

    if target is not None:
        monkeypatch.setattr(tanlift, target, wrong)
    rng = random.Random(141)
    frames = [graph_two_form(rand_form(rng, M3, 2)) for _ in range(4)]
    frames += [graph_bivector(Bivector(M3, rand_form(rng, M3, 2).coeffs)) for _ in range(4)]
    frames += [graph_bivector(so3_poisson()), foliation_frame((vf(M3, "1", "0", "0"), vf(M3, "0", "1", "x")))]
    failed = set()
    for l in frames:
        got = _tangent_mu_outcome(check_tangent_mu_identity, l)
        assert got == _tangent_mu_outcome(reference_tangent_mu, l)
        failed.update(name for name, passed, _ in got if not passed)
    assert failed == fails


def test_lifted_frames_stay_isotropic():
    rng = random.Random(139)
    for _ in range(4):
        l = graph_two_form(rand_form(rng, M2, 2))
        assert check_lagrangian(tangent_lift_dirac(l)).items[0].passed
