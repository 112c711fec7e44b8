"""Groupoid checks: axioms, algebroids, cotangent maps, multiplicativity routes."""

import random
from collections import Counter
from fractions import Fraction
from functools import cache, cached_property
from itertools import combinations, product
from typing import NamedTuple

import pytest
from hypothesis import HealthCheck, assume, event, example, given, settings
from hypothesis import strategies as st

from diracgeom import cli, groupoid, symalg
from diracgeom.algebroid import (
    IMFoliation,
    check_im_foliation,
    check_im_two_form,
    check_lie_algebroid,
    check_lie_bialgebroid,
    dual_patch,
    tangent_lift_algebroid,
)
from diracgeom.cartan import Bivector, KForm, PolyMap, VField, exterior_derivative, pullback_form
from diracgeom.cli import parse_expr
from diracgeom.courant import (
    Frame,
    GSec,
    bfield_transform,
    check_dirac,
    foliation_frame,
    graph_bivector,
    graph_two_form,
)
from diracgeom.errors import (
    ChartMismatch,
    HypothesisFails,
    Inconsistent,
    NotAGroup,
    NotComposable,
    NotLagrangian,
    NotMultiplicative,
    PatchMismatch,
    RankDeficient,
    RankJump,
    WrongShape,
)
from diracgeom.groupoid import (
    GroupoidPatch,
    abelian_group,
    chart_params,
    check_ca_identities,
    check_groupoid_axioms,
    check_multiplicative_bivector,
    check_multiplicative_frame,
    check_multiplicative_two_form,
    heisenberg3,
    induced_dual_bracket,
    induced_im_two_form,
    lie_algebroid_of,
    pair_groupoid,
    tangent_groupoid,
)
from diracgeom.report import Report
from diracgeom.symalg import Expr, ExprMatrix, Patch, generic_rank, solve_linear
from diracgeom.tanlift import cotangent_patch, lift_function, tangent_lift_dirac, tangent_patch

R1 = Patch("R1", ("x",))
R2 = Patch("R2", ("x", "y"))
R3 = Patch("R3", ("x", "y", "z"))


def bundle_of_groups():
    """Fiberwise addition over a one-dimensional base."""
    base = Patch("B", ("t",))
    total = Patch("E", ("u", "v"))
    chart = Patch("E_pairs", ("w_1", "w_2", "w_3"))
    tp = [Expr.coord(total, c) for c in total.coords]
    cp = [Expr.coord(chart, c) for c in chart.coords]
    return GroupoidPatch(
        base=base,
        total=total,
        src=PolyMap(total, base, (tp[0],)),
        tgt=PolyMap(total, base, (tp[0],)),
        unit=PolyMap(base, total, (Expr.coord(base, "t"), Expr.zero(base))),
        inv=PolyMap(total, total, (tp[0], -tp[1])),
        comp_chart=chart,
        g_of=PolyMap(chart, total, (cp[0], cp[1])),
        h_of=PolyMap(chart, total, (cp[0], cp[2])),
        mul=PolyMap(chart, total, (cp[0], cp[1] + cp[2])),
    )


def pair_section(g, vcomps, acomps):
    """Section (X, X) with covector pr1*a - pr2*a over a pair groupoid."""
    m = g.base
    n = m.dim
    total = g.total
    left = [Expr.coord(total, c) for c in total.coords[:n]]
    right = [Expr.coord(total, c) for c in total.coords[n:]]
    vals = [parse_expr(s, m) for s in vcomps]
    vfc = [v.substitute(left, total) for v in vals] + [v.substitute(right, total) for v in vals]
    al = KForm.one_form(m, tuple(parse_expr(s, m) for s in acomps))
    of = pullback_form(g.tgt, al) - pullback_form(g.src, al)
    return GSec(VField(total, tuple(vfc)), of)


def linear_section(g, matrix, acomps):
    """Section (A x, const covector) over a group chart: both halves additive."""
    total = g.total
    xs = [Expr.coord(total, c) for c in total.coords]
    comps = []
    for row in matrix:
        acc = Expr.zero(total)
        for q, x in zip(row, xs):
            acc = acc + Expr.const(total, q) * x
        comps.append(acc)
    of = KForm.one_form(total, tuple(Expr.const(total, q) for q in acomps))
    return GSec(VField(total, tuple(comps)), of)


# -- axioms ------------------------------------------------------------------------


def test_axioms_pass_on_builtins():
    for g in (pair_groupoid(R2), abelian_group(2), heisenberg3(), bundle_of_groups()):
        rep = check_groupoid_axioms(g)
        assert isinstance(rep, Report)
        assert rep.passed, rep.witness


def test_abelian_group_rejects_sizes_below_one():
    for n in (-1, 0):
        with pytest.raises(WrongShape, match="at least one coordinate"):
            abelian_group(n)


def test_groupoids_need_an_arrow_coordinate():
    with pytest.raises(WrongShape, match="at least one arrow coordinate"):
        pair_groupoid(Patch("pt", ()))


def test_axioms_catch_broken_multiplication():
    ab = abelian_group(1)
    cp = [Expr.coord(ab.comp_chart, c) for c in ab.comp_chart.coords]
    broken = GroupoidPatch(
        base=ab.base, total=ab.total, src=ab.src, tgt=ab.tgt, unit=ab.unit, inv=ab.inv,
        comp_chart=ab.comp_chart, g_of=ab.g_of, h_of=ab.h_of,
        mul=PolyMap(ab.comp_chart, ab.total, (cp[0] + cp[1] + cp[1] * cp[1],)),
    )
    rep = check_groupoid_axioms(broken)
    assert not rep.passed
    names = [item.name for item in rep.items if not item.passed]
    assert "left units act trivially" in names
    assert "composition is associative on the derived triple chart" in names


def test_axioms_need_matching_factor_endpoints():
    g = pair_groupoid(R1)
    cp = [Expr.coord(g.comp_chart, c) for c in g.comp_chart.coords]
    crossed = GroupoidPatch(
        base=g.base, total=g.total, src=g.src, tgt=g.tgt, unit=g.unit, inv=g.inv,
        comp_chart=g.comp_chart, g_of=g.g_of,
        h_of=PolyMap(g.comp_chart, g.total, (cp[2], cp[1])),
        mul=g.mul,
    )
    with pytest.raises(ChartMismatch):
        check_groupoid_axioms(crossed)


def curved_chart_group():
    # the left factor is the square of a chart coordinate, so the pair chart is not affine
    ab = abelian_group(1)
    cp = [Expr.coord(ab.comp_chart, c) for c in ab.comp_chart.coords]
    return GroupoidPatch(
        base=ab.base, total=ab.total, src=ab.src, tgt=ab.tgt, unit=ab.unit, inv=ab.inv,
        comp_chart=ab.comp_chart,
        g_of=PolyMap(ab.comp_chart, ab.total, (cp[0] * cp[0],)),
        h_of=ab.h_of,
        mul=PolyMap(ab.comp_chart, ab.total, (cp[0] * cp[0] + cp[1],)),
    )


def test_axioms_need_affine_factor_projections():
    with pytest.raises(ChartMismatch, match="^factor projections must be affine in the chart coordinates$"):
        check_groupoid_axioms(curved_chart_group())


def test_every_route_names_a_curved_chart_alike():
    # the pair chart raises its own failure: the axioms, the algebroid and the frame route agree
    g = curved_chart_group()
    routes = (
        lambda: check_groupoid_axioms(g),
        lambda: lie_algebroid_of(g),
        lambda: check_multiplicative_frame(g, graph_two_form(KForm.zero(g.total, 2))),
    )
    for route in routes:
        with pytest.raises(ChartMismatch, match="^factor projections must be affine in the chart coordinates$"):
            route()


def loose_chart_group():
    # pair chart carries a third coordinate that moves neither factor
    ab = abelian_group(1)
    chart = Patch("Ab1_loose", ("x", "y", "junk"))
    cp = [Expr.coord(chart, c) for c in chart.coords]
    return GroupoidPatch(
        base=ab.base, total=ab.total, src=ab.src, tgt=ab.tgt, unit=ab.unit, inv=ab.inv,
        comp_chart=chart,
        g_of=PolyMap(chart, ab.total, (cp[0],)),
        h_of=PolyMap(chart, ab.total, (cp[1],)),
        mul=PolyMap(chart, ab.total, (cp[0] + cp[1],)),
    )


def test_axioms_need_embedded_pair_chart():
    with pytest.raises(ChartMismatch):
        check_groupoid_axioms(loose_chart_group())


def test_structure_maps_validate_endpoints():
    ab = abelian_group(1)
    with pytest.raises(WrongShape):
        GroupoidPatch(
            base=ab.base, total=ab.total, src=ab.src, tgt=ab.tgt, unit=ab.unit,
            inv=PolyMap(ab.base, ab.base, ()),
            comp_chart=ab.comp_chart, g_of=ab.g_of, h_of=ab.h_of, mul=ab.mul,
        )


def test_chart_params_solves_the_pair():
    g = pair_groupoid(R1)
    total = g.total
    gp = [Expr.coord(total, c) for c in total.coords]
    eps_t = g.unit.apply(list(g.tgt.components), total)
    c0 = chart_params(g, eps_t, gp, total)
    assert g.g_of.apply(c0, total) == eps_t
    assert g.h_of.apply(c0, total) == gp


def test_chart_params_builds_no_constant_for_a_zero_chart_constant(monkeypatch):
    g = pair_groupoid(R1)
    assert not any(g._chart.c_g + g._chart.c_h)
    total = g.total
    gp = [Expr.coord(total, c) for c in total.coords]
    eps_t = g.unit.apply(list(g.tgt.components), total)
    want = chart_params(g, eps_t, gp, total)
    built = []
    original = Expr.const

    def spy(patch, value):
        built.append(value)
        return original(patch, value)

    monkeypatch.setattr(Expr, "const", spy)
    assert chart_params(g, eps_t, gp, total) == want
    assert built == []


# the chart solve of each groupoid, held against solve_linear on its stacked factor matrix
CHART_GROUPOIDS = {
    "pair": pair_groupoid(R2),
    "abelian": abelian_group(2),
    "heisenberg": heisenberg3(),
    "tangent": tangent_groupoid(pair_groupoid(R1)),
}
ST = Patch("ST", ("s", "t"))
QQ = st.fractions(min_value=-3, max_value=3, max_denominator=3)
ST_POLYS = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), QQ, max_size=3).map(
    lambda terms: Expr(ST, terms)
)


@st.composite
def factor_pairs(draw):
    """Factor values of a chart point, sometimes pushed off the chart in one component."""
    name = draw(st.sampled_from(sorted(CHART_GROUPOIDS)))
    g = CHART_GROUPOIDS[name]
    z = [draw(ST_POLYS) for _ in range(g.comp_chart.dim)]
    left, right = g.g_of.apply(z, ST), g.h_of.apply(z, ST)
    if draw(st.booleans()):
        i = draw(st.integers(0, g.total.dim - 1))
        right[i] = right[i] + draw(ST_POLYS.filter(lambda e: not e.is_zero()))
    return name, left, right


def _solve_stacked(g, rhs):
    data = g._chart
    stacked = [[Expr.const(ST, q) for q in row] for row in data.a_g + data.a_h]
    try:
        return [v.as_expr() for v in solve_linear(ExprMatrix.from_rows(ST, stacked), rhs)]
    except Inconsistent:
        return None


S, ZERO = Expr.coord(ST, "s"), Expr.zero(ST)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(factor_pairs())
# the pair chart cannot move the middle points apart: off the chart, and no direction
@example(("pair", [S, ZERO, S, ZERO], [ZERO, ZERO, S, ZERO]))
def test_chart_solve_matches_solve_linear(problem):
    name, left, right = problem
    g = CHART_GROUPOIDS[name]
    data = g._chart
    consts = [Expr.const(ST, q) for q in data.c_g + data.c_h]
    point = _solve_stacked(g, [p - c for p, c in zip(left + right, consts)])
    direction = _solve_stacked(g, left + right)
    if point is None:
        with pytest.raises(NotComposable, match="does not lie on the composable chart"):
            chart_params(g, left, right, ST)
    else:
        assert chart_params(g, left, right, ST) == point
    if direction is None:
        with pytest.raises(NotComposable, match="^the pair does not lie on the composable chart$"):
            data.solve(left + right, ST)
    else:
        assert data.solve(left + right, ST) == direction


# -- derived data is built once per groupoid --------------------------------------------


@pytest.fixture
def build_counts(monkeypatch):
    """Counts the builds of each cached derived piece and of each structure map's kept Jacobian."""
    counts = Counter()
    for name, prop in list(vars(GroupoidPatch).items()):
        if isinstance(prop, cached_property):

            def counted(self, _build=prop.func, _name=name):
                counts[_name] += 1
                return _build(self)

            monkeypatch.setattr(prop, "func", counted)
    kept = vars(PolyMap)["_jacobian"]

    def counted_jacobian(self, _build=kept.func):
        counts["jacobian", id(self)] += 1
        return _build(self)

    monkeypatch.setattr(kept, "func", counted_jacobian)
    return counts


def _pair_inputs(g):
    p = Patch("P6", ("x", "y", "z", "xi", "eta", "zeta"))

    def pe(s):
        return parse_expr(s, p)

    a = CovectorPoint(p, (pe("x"), pe("y")), (pe("xi"), pe("-eta")))
    b = CovectorPoint(p, (pe("y"), pe("z")), (pe("eta"), pe("-zeta")))
    samples = [(s, s, s) for s in (pair_section(g, ("x",), ("1",)), pair_section(g, ("1",), ("x",)))]
    frames = (graph_two_form(KForm.zero(g.total, 2)), foliation_frame((VField.coordinate(g.total, "x_1"),)))
    w = KForm(g.total, 2, {(0, 1): Expr.coord(g.total, "x_1")})
    return a, b, samples, frames, w


def _pair_checks(g, inputs):
    a, b, samples, frames, w = inputs
    return (
        check_groupoid_axioms(g),
        lie_algebroid_of(g),
        [check_multiplicative_frame(g, frame) for frame in frames],
        check_ca_identities(g, samples),
        cotangent_compose(g, a, b),
        check_multiplicative_two_form(g, w),
        induced_im_two_form(g, w),
    )


def test_derived_data_is_built_once_per_groupoid(build_counts):
    g = pair_groupoid(R1)
    # the inputs read the Jacobians of an equal groupoid's maps, not of g's
    inputs = _pair_inputs(pair_groupoid(R1))
    build_counts.clear()
    first = _pair_checks(g, inputs)
    assert _pair_checks(g, inputs) == first
    pieces = {"_chart", "_triples", "_frame", "_fields", "_algebroid", "_fibre_rows", "_ends", "_unit_covectors", "_product_system"}
    assert {k: v for k, v in build_counts.items() if isinstance(k, str)} == dict.fromkeys(pieces, 1)
    maps = {id(m) for m in (g.src, g.tgt, g.unit, g.inv, g.mul, g.g_of, g.h_of)}
    assert {k[1]: v for k, v in build_counts.items() if not isinstance(k, str)} == dict.fromkeys(maps, 1)
    # another instance builds its own data
    _pair_checks(pair_groupoid(R1), inputs)
    assert build_counts["_chart"] == 2


def test_group_translations_are_built_once(build_counts):
    ab = abelian_group(2)
    pi = Bivector(ab.total, {(0, 1): parse_expr("x_1", ab.total)})
    assert check_multiplicative_bivector(ab, pi).passed
    assert not check_multiplicative_bivector(ab, Bivector(ab.total, {(0, 1): Expr.one(ab.total)})).passed
    induced_dual_bracket(ab, pi)
    assert build_counts["_translations"] == 1
    assert build_counts["_chart"] == 1


def test_derived_data_leaves_equality_and_hashing_alone():
    g, h = pair_groupoid(R1), pair_groupoid(R1)
    lie_algebroid_of(g)
    assert g == h and hash(g) == hash(h)
    assert len({g, h}) == 1


def test_value_types_refuse_attribute_assignment():
    # the classes with a validating constructor, each with one of its attributes
    g = pair_groupoid(R1)
    w = KForm(g.total, 2, {(0, 1): Expr.coord(g.total, "x_1")})
    frame = graph_two_form(w)
    checked = [
        (R1, "coords"),
        (g.src.jacobian(), "entries"),
        (g.src, "components"),
        (frame.secs[0], "vf"),
        (frame, "secs"),
        (g, "mul"),
        (lie_algebroid_of(g), "anchor"),
        (induced_im_two_form(g, w), "sigma"),
        (IMFoliation((), ()), "k_sub"),
    ]
    # and the plain records, by their first field
    cf = cli.parse_checkfile("let M = patch(x)\ncheck closed -(x*dx) 2^1\n")
    let, check = cf.statements
    run = cli.run_checks(cli.parse_checkfile("let M = patch(x)\ncheck closed dx\n"))
    records = [cf, let, let.value, let.value.args[0], check, check.args[0], check.args[0].operand, check.args[1].right]
    report = check_groupoid_axioms(g)
    records += [run, run.checks[0], report, report.items[0], tangent_patch(R1), g._chart]
    assert {type(r).__name__ for r in records} == {
        "CheckFile", "LetStmt", "CheckStmt", "Name", "Neg", "BinOp", "IntLit", "Call",
        "RunReport", "CheckResult", "Report", "CheckItem", "LiftedPatch", "_ChartData",
    }
    checked += [(r, r._fields[0]) for r in records]
    for value, attr in checked:
        getattr(value, attr)
        for name in (attr, "new_attribute"):
            with pytest.raises(AttributeError):
                setattr(value, name, None)


# -- tangent groupoid -----------------------------------------------------------------


def test_tangent_groupoid_passes_axioms():
    for g in (pair_groupoid(R1), abelian_group(2), heisenberg3()):
        assert check_groupoid_axioms(tangent_groupoid(g)).passed


def test_tangent_groupoid_charts_are_tangent_patches():
    g = pair_groupoid(R1)
    tg = tangent_groupoid(g)
    assert tg.total == tangent_patch(g.total).total
    assert tg.base == tangent_patch(g.base).total


# -- the algebroid of a groupoid --------------------------------------------------------


def test_pair_groupoid_gives_tangent_bundle():
    # kernel frame along units: (d/dx_1, d/dx_2) with identity anchor, zero brackets
    a = lie_algebroid_of(pair_groupoid(R2))
    assert a.rank == 2
    assert [v.components() for v in a.anchor] == [
        (Expr.one(R2), Expr.zero(R2)),
        (Expr.zero(R2), Expr.one(R2)),
    ]
    assert not a.bracket(0, 1)
    assert check_lie_algebroid(a).passed


def test_abelian_group_gives_abelian_algebra():
    a = lie_algebroid_of(abelian_group(3))
    assert a.rank == 3
    assert all(v.components() == () for v in a.anchor)
    for i in range(3):
        for j in range(3):
            assert not a.bracket(i, j)


def test_heisenberg_structure_constant():
    # right-invariant frame of a2*b1 cocycle: [E_a, E_b] = E_c
    a = lie_algebroid_of(heisenberg3())
    assert a.rank == 3
    assert a.bracket(0, 1) == {2: Expr.one(a.base)}
    assert a.bracket(1, 0) == {2: -Expr.one(a.base)}
    assert not a.bracket(0, 2) and not a.bracket(1, 2)
    assert check_lie_algebroid(a).passed


def test_bundle_of_groups_has_zero_anchor():
    a = lie_algebroid_of(bundle_of_groups())
    assert a.rank == 1
    assert a.anchor[0].is_zero()
    assert check_lie_algebroid(a).passed


def test_degenerate_source_raises_rank_jump():
    b = bundle_of_groups()
    flat = GroupoidPatch(
        base=b.base, total=b.total,
        src=PolyMap(b.total, b.base, (Expr.zero(b.total),)),
        tgt=b.tgt, unit=b.unit, inv=b.inv,
        comp_chart=b.comp_chart, g_of=b.g_of, h_of=b.h_of, mul=b.mul,
    )
    with pytest.raises(RankJump):
        flat._frame


def test_algebroid_of_tangent_groupoid_is_tangent_lift():
    # after reordering by the canonical involution, the kernel frame of the
    # tangent groupoid consists of tangent and vertical lifts of the base frame
    for g in (pair_groupoid(R1), heisenberg3(), bundle_of_groups()):
        a = lie_algebroid_of(g)
        tg = tangent_groupoid(g)
        tm = tangent_patch(g.base).total
        n_total = g.total.dim
        base_frame = g._frame
        lifted = []
        for col in base_frame:
            lifted.append(
                [lift_function(c, "vertical") for c in col]
                + [lift_function(c, "tangent") for c in col]
            )
        for col in base_frame:
            lifted.append(
                [Expr.zero(tm)] * n_total + [lift_function(c, "vertical") for c in col]
            )
        assert groupoid._algebroid_on(tg, lifted, groupoid._right_invariant_fields(tg, lifted)) == tangent_lift_algebroid(a)


# -- cotangent source and target ----------------------------------------------------------


def cotangent_source_target(g: GroupoidPatch) -> tuple[PolyMap, PolyMap]:
    """Source and target of the cotangent groupoid, from the cotangent chart of G onto the dual algebroid chart.

    The reference for the fibre rows ``groupoid._end`` reads.  The source
    pairs a covector with left translates of target-horizontal kernel
    vectors, a route independent of the inversion that the package's source
    rows read; the target pairs it with right translates of the kernel frame
    itself.  Both charts name fresh coordinates, so base coordinates that
    reuse those names are refused.
    """
    dual = dual_patch(g._algebroid)
    ct = cotangent_patch(g.total).total
    n_total = g.total.dim
    gp = [Expr.coord(ct, c) for c in ct.coords[:n_total]]
    xi = [Expr.coord(ct, c) for c in ct.coords[n_total:]]

    # target: the right translates of the kernel frame are the right-invariant fields
    x_t = [comp.inject(ct) for comp in g.tgt.components]
    t_fiber = groupoid._matvec([[comp.inject(ct) for comp in field.components()] for field in g._fields], xi, ct)

    # source: left-translate target-horizontal corrections of the frame at eps(s(g))
    x_s = [comp.inject(ct) for comp in g.src.components]
    eps_s = g.unit.apply(x_s, ct)
    jt_eps = groupoid._subst_matrix(g.tgt.jacobian().entries, eps_s, ct)
    jeps = groupoid._subst_matrix(g.unit.jacobian().entries, x_s, ct)
    pair = chart_params(g, gp, eps_s, ct)
    translate = groupoid._tangent_product(g, pair, ct)
    zero = [Expr.zero(ct)] * n_total
    translated = []
    for vec in g._frame:
        vec = [comp.substitute(x_s, ct) for comp in vec]
        correction = groupoid._matvec(jeps, groupoid._matvec(jt_eps, vec, ct), ct)
        translated.append(translate(zero, [u - w for u, w in zip(vec, correction)]))
    s_fiber = groupoid._matvec(translated, xi, ct)
    return PolyMap(ct, dual, tuple(x_s + s_fiber)), PolyMap(ct, dual, tuple(x_t + t_fiber))


def test_pair_cotangent_source_target_formulas():
    g = pair_groupoid(R2)
    s_map, t_map = cotangent_source_target(g)
    ct = s_map.source
    assert t_map.components == tuple(
        Expr.coord(ct, c) for c in ("x_1", "y_1", "p_x_1", "p_y_1")
    )
    assert s_map.components == tuple(
        Expr.coord(ct, c) if i < 2 else -Expr.coord(ct, c)
        for i, c in enumerate(("x_2", "y_2", "p_x_2", "p_y_2"))
    )


def test_group_cotangent_source_equals_target():
    for g in (abelian_group(2), heisenberg3()):
        s_map, t_map = cotangent_source_target(g)
        ct = s_map.source
        n_total = g.total.dim
        momenta = [Expr.coord(ct, c) for c in ct.coords[n_total:]]
        if g.total.dim == 2:
            assert list(s_map.components) == momenta
            assert list(t_map.components) == momenta
        # at the unit the two fiber maps agree with the plain momentum covector
        eps = [c.inject(ct) for c in g.unit.components] if g.base.dim else [
            Expr.const(ct, comp.constant_value()) for comp in g.unit.components
        ]
        vals = eps + momenta
        assert s_map.apply(vals, ct) == t_map.apply(vals, ct)


END_GROUPOIDS = {
    "pair R1": pair_groupoid(R1),
    "pair R2": pair_groupoid(R2),
    "abelian": abelian_group(2),
    "heisenberg": heisenberg3(),
    "tangent heisenberg": tangent_groupoid(heisenberg3()),
    "tangent pair R1": tangent_groupoid(pair_groupoid(R1)),
    "bundle": bundle_of_groups(),
}


@cache
def reference_ends(name):
    return cotangent_source_target(END_GROUPOIDS[name])


@st.composite
def stacked_points(draw):
    """A groupoid, a side, a point of its arrow chart and a stacked (x, a) there, over ST."""
    name = draw(st.sampled_from(sorted(END_GROUPOIDS)))
    n_total = END_GROUPOIDS[name].total.dim
    point, xa = ([draw(ST_POLYS) for _ in range(size)] for size in (n_total, 2 * n_total))
    return name, draw(st.integers(0, 1)), point, xa


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(stacked_points())
def test_ends_match_the_cotangent_chart_reference(case):
    # Ts·x or Tt·x, then the fibre half of the reference map at (point, a)
    name, side, point, xa = case
    g = END_GROUPOIDS[name]
    n, n_total = g.base.dim, g.total.dim
    structure = (g.src, g.tgt)[side]
    jac = [[e.substitute(point, ST) for e in row] for row in structure.jacobian().entries]
    tangent = [symalg.dot(ST, zip(row, xa[:n_total])) for row in jac]
    fibre = reference_ends(name)[side].apply(point + xa[n_total:], ST)[n:]
    assert groupoid._end(g, side, point, ST)(xa) == tangent + fibre


@pytest.mark.parametrize(
    "make",
    [lambda: pair_groupoid(R2), heisenberg3, bundle_of_groups, lambda: tangent_groupoid(pair_groupoid(R1))],
    ids=["pair R2", "heisenberg", "bundle", "tangent pair R1"],
)
def test_source_rows_solve_no_chart(make, monkeypatch):
    # the source rows are the target's after the inversion: no pair is solved, no product taken
    g = make()
    assert g._fields
    calls = Counter()
    for name in ("chart_params", "_tangent_product"):

        def spy(*args, _real=getattr(groupoid, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(groupoid, name, spy)
    assert g._fibre_rows
    assert not calls


# the T*G product at arbitrary points, kept as a reference on groupoid._product


class CovectorPoint(NamedTuple):
    """A covector attached to a point of the total chart, over a parameter patch."""

    ppatch: Patch
    point: tuple[Expr, ...]
    covector: tuple[Expr, ...]


def cotangent_compose(g: GroupoidPatch, a: CovectorPoint, b: CovectorPoint) -> CovectorPoint:
    """Product covector characterized by additivity of the pairing on composable vectors."""
    if a.ppatch != b.ppatch:
        raise PatchMismatch("covectors over different parameter patches")
    ppatch = a.ppatch
    n, n_total = g.base.dim, g.total.dim
    c0 = chart_params(g, a.point, b.point, ppatch)
    zero = [Expr.zero(ppatch)] * n_total
    xa, xb = zero + list(a.covector), zero + list(b.covector)
    diff = groupoid._first_difference(
        groupoid._end(g, 0, a.point, ppatch)(xa)[n:], groupoid._end(g, 1, b.point, ppatch)(xb)[n:]
    )
    if diff is not None:
        raise NotComposable(f"cotangent source and target differ at component {diff[0] + 1}: {diff[1]}")
    # the pairing identity at the chart point c0, solved as groupoid._product solves it on the pair chart
    mat = ExprMatrix(ppatch, tuple(zip(*groupoid._subst_matrix(g.mul.jacobian().entries, c0, ppatch))))
    if generic_rank(mat) != n_total:
        raise RankDeficient("the pairing identity does not pin down the product covector")
    covs = list(a.covector) + list(b.covector)
    cov = solve_linear(mat, [symalg._combine(ppatch, row, covs) for row in zip(*(g._chart.a_g + g._chart.a_h))])
    if not all(v.is_polynomial() for v in cov):
        raise RankJump("product covector is not polynomial on this chart")
    return CovectorPoint(ppatch, tuple(g.mul.apply(c0, ppatch)), tuple(v.as_expr() for v in cov))


def test_cotangent_compose_pair_example():
    # ((x,y),(xi,-eta)) . ((y,z),(eta,-zeta)) = ((x,z),(xi,-zeta))
    g = pair_groupoid(R1)
    p = Patch("P6", ("x", "y", "z", "xi", "eta", "zeta"))

    def pe(s):
        return parse_expr(s, p)

    a = CovectorPoint(p, (pe("x"), pe("y")), (pe("xi"), pe("-eta")))
    b = CovectorPoint(p, (pe("y"), pe("z")), (pe("eta"), pe("-zeta")))
    out = cotangent_compose(g, a, b)
    assert out.point == (pe("x"), pe("z"))
    assert out.covector == (pe("xi"), pe("-zeta"))


def test_cotangent_compose_needs_matching_momenta():
    g = pair_groupoid(R1)
    p = Patch("P6", ("x", "y", "z", "xi", "eta", "zeta"))

    def pe(s):
        return parse_expr(s, p)

    a = CovectorPoint(p, (pe("x"), pe("y")), (pe("xi"), pe("-eta")))
    off_base = CovectorPoint(p, (pe("y + 1"), pe("z")), (pe("eta"), pe("-zeta")))
    with pytest.raises(NotComposable, match="^the pair does not lie on the composable chart$"):
        cotangent_compose(g, a, off_base)
    off_fiber = CovectorPoint(p, (pe("y"), pe("z")), (pe("eta + 1"), pe("-zeta")))
    with pytest.raises(NotComposable, match="^cotangent source and target differ at component 1: -1$"):
        cotangent_compose(g, a, off_fiber)


def test_cotangent_compose_abelian_adds_points_keeps_covector():
    g = abelian_group(2)
    p = Patch("P8", ("a_1", "a_2", "b_1", "b_2", "s_1", "s_2"))

    def pe(s):
        return parse_expr(s, p)

    a = CovectorPoint(p, (pe("a_1"), pe("a_2")), (pe("s_1"), pe("s_2")))
    b = CovectorPoint(p, (pe("b_1"), pe("b_2")), (pe("s_1"), pe("s_2")))
    out = cotangent_compose(g, a, b)
    assert out.point == (pe("a_1 + b_1"), pe("a_2 + b_2"))
    assert out.covector == (pe("s_1"), pe("s_2"))


def test_cotangent_compose_satisfies_pairing_identity_numerically():
    # the defining property, re-checked on random composable tangent vectors
    g = pair_groupoid(R2)
    p = Patch("P0", ())
    rng = random.Random(20)

    def rq():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))

    for _ in range(20):
        x, y, z = ((rq(), rq()) for _ in range(3))
        xi, eta, zeta = ((rq(), rq()) for _ in range(3))
        a = CovectorPoint(
            p,
            tuple(Expr.const(p, q) for q in x + y),
            tuple(Expr.const(p, q) for q in xi + tuple(-q for q in eta)),
        )
        b = CovectorPoint(
            p,
            tuple(Expr.const(p, q) for q in y + z),
            tuple(Expr.const(p, q) for q in eta + tuple(-q for q in zeta)),
        )
        out = cotangent_compose(g, a, b)
        u1, u2, u3 = ((rq(), rq()) for _ in range(3))
        # composable tangent pair (u1, u2) and (u2, u3); its product is (u1, u3)
        lhs = sum(
            c.constant_value() * q for c, q in zip(out.covector, u1 + u3)
        )
        rhs = sum(c.constant_value() * q for c, q in zip(a.covector, u1 + u2))
        rhs += sum(c.constant_value() * q for c, q in zip(b.covector, u2 + u3))
        assert lhs == rhs


def squashed_bundle():
    """The bundle of groups with multiplication (w_1, 0): the pairing identity cannot pin down a product covector."""
    b = bundle_of_groups()
    cp = [Expr.coord(b.comp_chart, c) for c in b.comp_chart.coords]
    return GroupoidPatch(
        base=b.base, total=b.total, src=b.src, tgt=b.tgt, unit=b.unit, inv=b.inv,
        comp_chart=b.comp_chart, g_of=b.g_of, h_of=b.h_of,
        mul=PolyMap(b.comp_chart, b.total, (cp[0], Expr.zero(b.comp_chart))),
    )


def test_cotangent_compose_underdetermined_multiplication():
    squashed = squashed_bundle()
    p = Patch("P4", ("t", "s"))
    cov = CovectorPoint(p, (Expr.coord(p, "t"), Expr.coord(p, "s")), (Expr.zero(p), Expr.one(p)))
    with pytest.raises(RankDeficient, match="^the pairing identity does not pin down the product covector$"):
        cotangent_compose(squashed, cov, cov)


def test_underdetermined_product_covector_is_refused_by_every_check():
    # a kept property that raises keeps nothing: the frame route and then the sample route
    # each meet the refusal on one instance
    squashed = squashed_bundle()
    zero = GSec(VField.zero(squashed.total), KForm.zero(squashed.total, 1))
    checks = (
        lambda: check_multiplicative_frame(squashed, graph_two_form(KForm.zero(squashed.total, 2))),
        lambda: check_ca_identities(squashed, [(zero, zero, zero)]),
    )
    for check in checks:
        with pytest.raises(RankDeficient, match="^the pairing identity does not pin down the product covector$"):
            check()
    assert "_product_system" not in vars(squashed)


def test_loose_chart_breaks_translations():
    g = loose_chart_group()
    with pytest.raises(ChartMismatch, match="^the composable-pair chart has directions that move neither factor$"):
        check_multiplicative_frame(g, graph_two_form(KForm.zero(g.total, 2)))


def test_covector_point_validation():
    p = Patch("P2", ("t", "s"))
    with pytest.raises(PatchMismatch):
        g = pair_groupoid(R1)
        q = Patch("Q2", ("t", "s"))
        a = CovectorPoint(p, (Expr.coord(p, "t"), Expr.zero(p)), (Expr.zero(p), Expr.one(p)))
        b = CovectorPoint(q, (Expr.coord(q, "t"), Expr.zero(q)), (Expr.zero(q), Expr.one(q)))
        cotangent_compose(g, a, b)


# -- multiplicative two-forms ----------------------------------------------------------------


def beta_form(patch, coeff):
    return KForm(patch, 2, {(0, 1): parse_expr(coeff, patch)})


def difference_form(g, beta):
    return pullback_form(g.tgt, beta) - pullback_form(g.src, beta)


def test_two_form_difference_is_multiplicative():
    g = pair_groupoid(R2)
    for coeff in ("1", "x", "x*y - 2"):
        w = difference_form(g, beta_form(R2, coeff))
        assert check_multiplicative_two_form(g, w).passed


def test_single_pullback_is_not_multiplicative():
    g = pair_groupoid(R2)
    w = pullback_form(g.tgt, beta_form(R2, "x + 3"))
    rep = check_multiplicative_two_form(g, w)
    assert not rep.passed
    assert "coefficient[" in rep.witness


def test_zero_two_form_is_multiplicative():
    g = pair_groupoid(R1)
    assert check_multiplicative_two_form(g, KForm.zero(g.total, 2)).passed


def test_two_form_input_validation():
    g = pair_groupoid(R1)
    with pytest.raises(PatchMismatch):
        check_multiplicative_two_form(g, KForm.zero(R2, 2))
    with pytest.raises(WrongShape):
        check_multiplicative_two_form(g, KForm.zero(g.total, 1))


# -- multiplicative bivectors ------------------------------------------------------------------


def test_linear_bivector_is_multiplicative_on_group():
    ab = abelian_group(2)
    pi = Bivector(ab.total, {(0, 1): parse_expr("x_1", ab.total)})
    assert check_multiplicative_bivector(ab, pi).passed


def test_constant_bivector_is_not_multiplicative():
    ab = abelian_group(2)
    pi = Bivector(ab.total, {(0, 1): Expr.one(ab.total)})
    rep = check_multiplicative_bivector(ab, pi)
    assert not rep.passed
    assert "entry[1,2]" in rep.witness


def test_bivector_witness_is_the_first_failing_entry():
    # p(x + y) - p(x) - p(y) on the entries (1,2), (1,3), (2,3) is 0, -1, -2
    ab = abelian_group(3)
    t = ab.total
    pi = Bivector(t, {(0, 1): parse_expr("x_1", t), (0, 2): Expr.one(t), (1, 2): Expr.const(t, 2)})
    assert check_multiplicative_bivector(ab, pi).witness == "entry[1,3] = -1"


def test_zero_bivector_is_multiplicative():
    ab = abelian_group(2)
    assert check_multiplicative_bivector(ab, Bivector(ab.total, {})).passed


def test_bivector_check_requires_group():
    g = pair_groupoid(R1)
    with pytest.raises(NotAGroup):
        check_multiplicative_bivector(g, Bivector(g.total, {}))


# -- multiplicative frames ----------------------------------------------------------------------


def test_frame_route_agrees_with_two_form_route():
    g = pair_groupoid(R2)
    w_good = difference_form(g, beta_form(R2, "x"))
    w_bad = pullback_form(g.tgt, beta_form(R2, "x + 3"))
    for w, verdict in ((w_good, True), (w_bad, False), (KForm.zero(g.total, 2), True)):
        direct = check_multiplicative_two_form(g, w).passed
        framed = check_multiplicative_frame(g, graph_two_form(w)).passed
        assert direct == verdict
        assert framed == verdict


def test_frame_route_agrees_with_bivector_route():
    ab = abelian_group(2)
    h = heisenberg3()
    cases = [
        (ab, Bivector(ab.total, {(0, 1): parse_expr("x_1", ab.total)})),
        (ab, Bivector(ab.total, {(0, 1): Expr.one(ab.total)})),
        (ab, Bivector(ab.total, {})),
        (h, Bivector(h.total, {(1, 2): parse_expr("a", h.total)})),
        (h, Bivector(h.total, {(0, 1): parse_expr("c", h.total)})),
    ]
    for g, pi in cases:
        direct = check_multiplicative_bivector(g, pi).passed
        framed = check_multiplicative_frame(g, graph_bivector(pi)).passed
        assert direct == framed


def test_multiplicative_foliation_frame():
    g = pair_groupoid(R2)
    l = foliation_frame((VField.coordinate(g.total, "x_1"), VField.coordinate(g.total, "x_2")))
    assert check_multiplicative_frame(g, l).passed


def test_nonmultiplicative_foliation_frame():
    # leaves of d/dx_1 alone are not closed under composition of pairs
    g = pair_groupoid(R2)
    l = foliation_frame((VField.coordinate(g.total, "x_1"),))
    assert not check_multiplicative_frame(g, l).passed


def test_frame_check_requires_lagrangian():
    g = pair_groupoid(R1)
    full = Frame(
        g.total,
        (
            GSec(VField.coordinate(g.total, "x_1"), KForm.zero(g.total, 1)),
            GSec(VField.coordinate(g.total, "x_1"), KForm.d_coord(g.total, "x_1")),
        ),
    )
    with pytest.raises(NotLagrangian):
        check_multiplicative_frame(g, full)
    with pytest.raises(PatchMismatch):
        check_multiplicative_frame(g, graph_two_form(KForm.zero(R2, 2)))


def test_tangent_lift_of_multiplicative_frame_is_multiplicative():
    ab = abelian_group(2)
    pi = Bivector(ab.total, {(0, 1): parse_expr("x_1", ab.total)})
    lifted = tangent_lift_dirac(graph_bivector(pi))
    assert check_multiplicative_frame(tangent_groupoid(ab), lifted).passed


# -- span membership of the frame route ---------------------------------------------------------

SMALL_QQ = st.fractions(min_value=-2, max_value=2, max_denominator=2)


def small_polys(patch):
    terms = st.dictionaries(st.tuples(*[st.integers(0, 1)] * patch.dim), SMALL_QQ, max_size=2)
    return terms.map(lambda t: Expr(patch, t))


@st.composite
def lagrangian_spans(draw):
    """A Lagrangian frame on R^1..R^3, its columns taken at a drawn point map.

    Each coordinate goes to itself, another coordinate or a constant, as a
    restriction to units does, so the span may drop below half the rows.
    """
    patch = draw(st.sampled_from((R1, R2, R3)))
    pairs = list(combinations(range(patch.dim), 2))

    def two_form():
        return KForm(patch, 2, {ij: draw(small_polys(patch)) for ij in pairs})

    kind = draw(st.sampled_from(("two-form", "bivector", "foliation", "foliation")))
    if kind == "two-form":
        frame = graph_two_form(two_form())
    elif kind == "bivector":
        frame = graph_bivector(Bivector(patch, {ij: draw(small_polys(patch)) for ij in pairs}))
    else:
        k = draw(st.integers(0, patch.dim))
        fields = [VField(patch, tuple(draw(small_polys(patch)) for _ in patch.coords)) for _ in range(k)]
        try:
            frame = foliation_frame(fields) if fields else graph_bivector(Bivector(patch, {}))
        except RankDeficient:
            assume(False)
    if draw(st.booleans()):
        frame = bfield_transform(frame, two_form())
    targets = [Expr.coord(patch, c) for c in patch.coords] + [Expr.const(patch, v) for v in (0, 1, -2)]
    values = [draw(st.sampled_from(targets)) for _ in patch.coords]
    rows = [[e.substitute(values, patch) for e in row] for row in frame.coefficient_matrix().entries]
    return ExprMatrix.from_rows(patch, rows)


def _augmented_rank_decides(span, span_rank, column):
    # the reference rule: append the column and compare the generic ranks
    joint = ExprMatrix.from_rows(span.patch, [row + (c,) for row, c in zip(span.entries, column)])
    return generic_rank(joint) == span_rank


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(st.data())
def test_in_span_matches_the_augmented_rank(data):
    span = data.draw(lagrangian_spans(), label="span")
    patch = span.patch
    span_rank = generic_rank(span)
    event(f"full rank: {span_rank == span.nrows // 2}")
    coeffs = [data.draw(small_polys(patch)) for _ in range(span.ncols)]
    inside = [sum((c * e for c, e in zip(coeffs, row)), Expr.zero(patch)) for row in span.entries]
    assert groupoid._in_span(span, span_rank, inside)
    assert _augmented_rank_decides(span, span_rank, inside)
    nudge = [data.draw(small_polys(patch)) for _ in range(span.nrows)]
    nudge[data.draw(st.integers(0, span.nrows - 1))] += Expr.one(patch)
    moved = [a + b for a, b in zip(inside, nudge)]
    verdict = _augmented_rank_decides(span, span_rank, moved)
    event(f"perturbed column in the span: {verdict}")
    assert groupoid._in_span(span, span_rank, moved) == verdict


def test_rank_dropping_unit_span_takes_the_augmented_route(monkeypatch):
    # eps*(x_1 - x_2) = 0, so the unit span has rank 1 of 2 and is not its own annihilator
    g = pair_groupoid(R1)
    field = VField(g.total, (parse_expr("x_1 - x_2", g.total), Expr.zero(g.total)))
    shapes = []
    real = groupoid.in_span

    def spy(m, column):
        shapes.append((m.nrows, m.ncols))
        return real(m, column)

    monkeypatch.setattr(groupoid, "in_span", spy)
    rep = check_multiplicative_frame(g, foliation_frame([field]))
    assert str(rep) == (
        "fail (composable products stay in the span: pass; units over sources and targets stay in the span: "
        "fail  [unit element over section 2 leaves the span])"
    )
    assert (4, 2) in shapes  # the unit span, asked on its kept reduction whether a column lies in it


def test_full_rank_span_membership_needs_no_elimination(monkeypatch):
    g = pair_groupoid(R3)
    beta = KForm(R3, 2, {(0, 1): parse_expr("x", R3), (0, 2): parse_expr("y*z", R3), (1, 2): Expr.one(R3)})
    inside = []
    decided = []
    real_in_span = groupoid._in_span
    real_fraction_free = symalg._FractionFree

    def in_span(span, span_rank, column):
        inside.append(True)
        try:
            decided.append(real_in_span(span, span_rank, column))
        finally:
            inside.pop()
        return decided[-1]

    def fraction_free(a):
        assert not inside, "span membership reached Bareiss"
        return real_fraction_free(a)

    monkeypatch.setattr(groupoid, "_in_span", in_span)
    monkeypatch.setattr(symalg, "_FractionFree", fraction_free)
    assert check_multiplicative_frame(g, graph_two_form(difference_form(g, beta))).passed
    assert decided and all(decided)


def test_passing_frame_check_computes_no_unit_subbundle_rank(monkeypatch):
    # 2 generic ranks: the span at the product and the span along units; the product-covector
    # system's rank is checked once per groupoid, and a passing unit item carries no witness
    g = pair_groupoid(R2)
    frame = graph_two_form(difference_form(g, beta_form(R2, "x")))
    assert check_multiplicative_frame(g, frame).passed
    calls = []
    real = groupoid.generic_rank

    def spy(m):
        calls.append((m.nrows, m.ncols))
        return real(m)

    monkeypatch.setattr(groupoid, "generic_rank", spy)
    rep = check_multiplicative_frame(g, frame)
    assert rep.passed
    assert len(calls) == 2
    assert all(item.witness is None for item in rep.items)


@pytest.fixture
def reductions(monkeypatch):
    """Appends each reduction, over Q or fraction-free, with its shape, to the last list in the returned list."""
    rounds = [[]]
    real_gauss_jordan, real_fraction_free = symalg._gauss_jordan, symalg._FractionFree

    def gauss_jordan(rows, ncols):
        rounds[-1].append(("Q", len(rows), ncols))
        return real_gauss_jordan(rows, ncols)

    def fraction_free(a):
        rounds[-1].append(("Bareiss", a.nrows, a.ncols))
        return real_fraction_free(a)

    monkeypatch.setattr(symalg, "_gauss_jordan", gauss_jordan)
    monkeypatch.setattr(symalg, "_FractionFree", fraction_free)
    return rounds


def _checks_in_rounds(rounds, g, frame, samples):
    """A frame check, then check_ca_identities, twice; the reductions of each call in a list of their own."""
    for _ in range(2):
        rounds.append([])
        assert check_multiplicative_frame(g, frame).passed
        rounds.append([])
        assert check_ca_identities(g, samples).passed
    return rounds[1:]


def test_constant_covector_systems_are_reduced_once_per_groupoid(reductions):
    # on pair_groupoid(R3) the product covector solves a 9x6 constant system and the unit
    # covector a 6x6 one; both are kept on the groupoid, so a warm frame check reduces only
    # its 6x12 matching rows, and relating samples reduces nothing
    g = pair_groupoid(R3)
    beta = KForm(R3, 2, {(0, 1): parse_expr("x", R3), (0, 2): parse_expr("y*z", R3), (1, 2): Expr.one(R3)})
    frame = graph_two_form(difference_form(g, beta))
    sections = (pair_section(g, ("y", "x", "z"), ("x", "0", "1")), pair_section(g, ("1", "x*y", "0"), ("y", "x", "z")))
    cold_frame, cold_ca, warm_frame, warm_ca = _checks_in_rounds(reductions, g, frame, [(s, s, s) for s in sections])
    assert (cold_frame.count(("Q", 9, 6)), cold_frame.count(("Q", 6, 6))) == (1, 1)
    assert (cold_ca, warm_frame, warm_ca) == ([], [("Bareiss", 6, 12)], [])


def test_chart_dependent_covector_system_is_eliminated_once_per_groupoid(reductions):
    # the multiplication Jacobian of heisenberg3 depends on the chart, so its 6x3 product-covector
    # system is eliminated fraction-free, once per groupoid; a warm frame check reduces only its
    # 3x6 matching rows and its 6x3 constant span along units, and relating samples reduces nothing
    g = heisenberg3()
    frame = graph_bivector(Bivector(g.total, {(1, 2): parse_expr("a", g.total)}))
    zero = GSec(VField.zero(g.total), KForm.zero(g.total, 1))
    cold_frame, cold_ca, warm_frame, warm_ca = _checks_in_rounds(reductions, g, frame, [(zero, zero, zero)])
    assert cold_frame.count(("Bareiss", 6, 3)) == 1
    assert (cold_ca, warm_frame, warm_ca) == ([], [("Bareiss", 3, 6), ("Q", 6, 3)], [])


# -- multiplicative gauge ---------------------------------------------------------------------------


@st.composite
def pair_frames(draw):
    """A frame on pair_groupoid(R1) or pair_groupoid(R2), multiplicative or not, with its groupoid and kind.

    The graphs of t*w - s*w and of t*w, of pi x (-pi) and pi x pi, or the product
    foliation F x F of a field on the base (the zero field gives the zero foliation).
    """
    m = draw(st.sampled_from((R1, R2)))
    g = pair_groupoid(m)
    total, n = g.total, m.dim
    factors = [Expr.coord(total, c) for c in total.coords[:n]], [Expr.coord(total, c) for c in total.coords[n:]]
    pairs = list(combinations(range(n), 2))
    kind = draw(st.sampled_from(("t*w - s*w", "t*w", "pi x -pi", "pi x pi", "F x F")))
    if kind.startswith("t*w"):
        w = KForm(m, 2, {ij: draw(small_polys(m)) for ij in pairs})
        form = pullback_form(g.tgt, w)
        frame = graph_two_form(form - pullback_form(g.src, w) if kind == "t*w - s*w" else form)
    elif kind.startswith("pi"):
        pi = {ij: draw(small_polys(m)) for ij in pairs}
        sign = -1 if kind == "pi x -pi" else 1
        entries = {(i, j): f.substitute(factors[0], total) for (i, j), f in pi.items()}
        entries.update({(n + i, n + j): f.substitute(factors[1], total) * sign for (i, j), f in pi.items()})
        frame = graph_bivector(Bivector(total, entries))
    else:
        field = [draw(small_polys(m)) for _ in m.coords]
        zero = (Expr.zero(total),) * n
        lifted = [tuple(c.substitute(values, total) for c in field) for values in factors]
        if any(not c.is_zero() for c in field):
            frame = foliation_frame([VField(total, lifted[0] + zero), VField(total, zero + lifted[1])])
        else:
            frame = graph_bivector(Bivector(total, {}))
    return g, frame, kind


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(pair_frames(), st.data())
def test_multiplicative_gauge_keeps_both_verdicts(drawn, data):
    # B = t*beta - s*beta is multiplicative, and closed since every two-form on R1 or R2 is,
    # so X -> i_X B is a groupoid morphism TG -> T*G and L -> L + graph(B) keeps both verdicts
    g, frame, kind = drawn
    m = g.base
    beta = KForm(m, 2, {ij: data.draw(small_polys(m)) for ij in combinations(range(m.dim), 2)})
    gauged = bfield_transform(frame, difference_form(g, beta))
    dirac, multiplicative = check_dirac(frame).passed, check_multiplicative_frame(g, frame).passed
    event(f"{kind}: dirac {dirac}, multiplicative {multiplicative}")
    assert check_dirac(gauged).passed == dirac
    assert check_multiplicative_frame(g, gauged).passed == multiplicative


# -- induced infinitesimal data -------------------------------------------------------------------


def test_induced_im_two_form_matches_dirac_verdict():
    # multiplicative differences of closed and non-closed base forms
    cases = [(R2, "x", True), (R2, "x*y", True), (R3, "z", False)]
    for patch, coeff, closed in cases:
        g = pair_groupoid(patch)
        beta = beta_form(patch, coeff)
        w = difference_form(g, beta)
        assert check_multiplicative_two_form(g, w).passed
        a = lie_algebroid_of(g)
        sig = induced_im_two_form(g, w)
        assert exterior_derivative(beta).is_zero() == closed
        assert check_dirac(graph_two_form(w)).passed == closed
        assert check_im_two_form(a, sig).passed == closed


def test_induced_im_pairs_frame_with_the_form():
    g = pair_groupoid(R2)
    w = difference_form(g, beta_form(R2, "x + 1"))
    sig = induced_im_two_form(g, w)
    # sigma(e_1) = (x+1) dy, sigma(e_2) = -(x+1) dx on the base
    assert sig.sigma[0].components() == (Expr.zero(R2), parse_expr("x + 1", R2))
    assert sig.sigma[1].components() == (parse_expr("-x - 1", R2), Expr.zero(R2))


def _dense_im_two_form(g, w):
    """sigma(e)_i = sum over a, b of w_ab(eps) e_a d_i eps_b, one dense loop per frame vector."""
    m, n_total = g.base, g.total.dim
    eps = list(g.unit.components)
    jeps = g.unit.jacobian().entries
    sigma = []
    for vec in g._frame:
        comps = []
        for i in range(m.dim):
            acc = Expr.zero(m)
            for a, b in product(range(n_total), repeat=2):
                acc = acc + w.signed_coeff((a, b)).substitute(eps, m) * vec[a] * jeps[b][i]
            comps.append(acc)
        sigma.append(KForm.one_form(m, comps))
    return sigma


@cache
def _im_groupoids():
    return (
        pair_groupoid(R1),
        pair_groupoid(R2),
        pair_groupoid(R3),
        abelian_group(3),
        heisenberg3(),
        tangent_groupoid(pair_groupoid(R1)),
        tangent_groupoid(heisenberg3()),
    )


@st.composite
def im_cases(draw):
    g = draw(st.sampled_from(_im_groupoids()))
    total = g.total
    coeffs = {}
    for idx in combinations(range(total.dim), 2):
        terms = draw(
            st.dictionaries(
                st.lists(st.integers(0, total.dim - 1), max_size=2).map(
                    lambda used: tuple(used.count(i) for i in range(total.dim))
                ),
                st.integers(-3, 3),
                max_size=2,
            )
        )
        coeffs[idx] = Expr(total, terms)
    return g, KForm(total, 2, coeffs)


@settings(max_examples=105, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(im_cases())
def test_induced_im_two_form_matches_the_dense_formula(case):
    g, w = case
    got = induced_im_two_form(g, w).sigma
    want = _dense_im_two_form(g, w)
    assert [s.coeffs for s in got] == [s.coeffs for s in want]
    assert [str(s) for s in got] == [str(s) for s in want]


def test_induced_dual_bracket_affine():
    ab = abelian_group(2)
    pi = Bivector(ab.total, {(0, 1): parse_expr("x_1", ab.total)})
    dual = induced_dual_bracket(ab, pi)
    assert dual.rank == 2
    assert dual.bracket(0, 1) == {0: Expr.one(dual.base)}
    assert check_lie_algebroid(dual).passed
    assert check_lie_bialgebroid(lie_algebroid_of(ab), dual).passed


def test_induced_dual_bracket_so3():
    ab = abelian_group(3)
    t = ab.total
    pi = Bivector(
        t,
        {
            (0, 1): parse_expr("x_3", t),
            (1, 2): parse_expr("x_1", t),
            (0, 2): parse_expr("-x_2", t),
        },
    )
    dual = induced_dual_bracket(ab, pi)
    o = Expr.one(dual.base)
    assert dual.bracket(0, 1) == {2: o}
    assert dual.bracket(1, 2) == {0: o}
    assert dual.bracket(2, 0) == {1: o}
    assert check_lie_algebroid(dual).passed


def test_induced_dual_bracket_rejects_bad_input():
    ab = abelian_group(2)
    with pytest.raises(NotMultiplicative):
        induced_dual_bracket(ab, Bivector(ab.total, {(0, 1): Expr.one(ab.total)}))
    with pytest.raises(NotAGroup):
        g = pair_groupoid(R1)
        induced_dual_bracket(g, Bivector(g.total, {}))


# -- compatibility identities on sections ----------------------------------------------------------


def test_ca_identities_on_pair_groupoid():
    g = pair_groupoid(R2)
    s1 = pair_section(g, ("y", "x"), ("x", "0"))
    s2 = pair_section(g, ("1", "x*y"), ("y", "x"))
    s3 = pair_section(g, ("0", "1"), ("0", "y*y"))
    rep = check_ca_identities(g, [(s, s, s) for s in (s1, s2, s3)])
    assert rep.passed, rep.witness


def test_ca_identities_on_abelian_group():
    ab = abelian_group(2)
    s1 = linear_section(ab, ((1, 0), (0, 1)), (1, 0))
    s2 = linear_section(ab, ((0, 2), (0, 0)), (0, 3))
    s3 = linear_section(ab, ((0, 0), (0, 0)), (1, 1))
    rep = check_ca_identities(ab, [(s, s, s) for s in (s1, s2, s3)])
    assert rep.passed, rep.witness


def test_ca_identities_reject_unrelated_samples():
    g = pair_groupoid(R2)
    good = pair_section(g, ("y", "x"), ("x", "0"))
    one_sided = GSec(
        good.vf,
        pullback_form(g.tgt, KForm.one_form(R2, (Expr.one(R2), Expr.zero(R2)))),
    )
    with pytest.raises(HypothesisFails) as covector:
        check_ca_identities(g, [(one_sided, one_sided, one_sided)])
    assert str(covector.value) == "sample 1: covector parts are not composable: component 1 deviates by -1"
    skew = GSec(VField.coordinate(g.total, "x_1"), KForm.zero(g.total, 1))
    with pytest.raises(HypothesisFails) as tangent:
        check_ca_identities(g, [(skew, skew, skew)])
    assert str(tangent.value) == "sample 1: tangent parts are not composable"


def test_ca_identities_report_an_unrelated_bracket(monkeypatch):
    # a bracket scaled by the function x_1 no longer relates related sections of the pair groupoid
    g = pair_groupoid(R2)
    samples = [(s, s, s) for s in (pair_section(g, ("y", "x"), ("x", "0")), pair_section(g, ("1", "x*y"), ("y", "x")))]
    bracket = groupoid.courant_bracket
    x_1 = Expr.coord(g.total, "x_1")
    monkeypatch.setattr(groupoid, "courant_bracket", lambda a, b: bracket(a, b).scale(x_1))
    assert str(check_ca_identities(g, samples)) == (
        "fail (pairing is additive over multiplication: pass; brackets of related sections stay related: "
        "fail  [samples (1,2): bracket not related (tangent parts are not composable)])"
    )


def test_ca_identities_name_the_deviating_component():
    # the third section of the second sample is off by one tangent or one covector component
    g = pair_groupoid(R2)
    total = g.total
    good = pair_section(g, ("y", "x"), ("x", "0"))
    zero = Expr.zero(total)
    off_tangent = GSec(good.vf + VField.coordinate(total, "y_2"), good.of)
    off_covector = GSec(good.vf, good.of + KForm.one_form(total, (zero, zero, parse_expr("x_1", total), zero)))
    with pytest.raises(HypothesisFails) as tangent:
        check_ca_identities(g, [(good, good, good), (good, good, off_tangent)])
    assert str(tangent.value) == "sample 2: tangent component 4 deviates by -1"
    with pytest.raises(HypothesisFails) as covector:
        check_ca_identities(g, [(good, good, good), (good, good, off_covector)])
    assert str(covector.value) == "sample 2: covector component 3 deviates"
    # a tangent deviation is named before covector ends that do not match
    one_sided = GSec(good.vf, pullback_form(g.tgt, KForm.one_form(R2, (Expr.one(R2), Expr.zero(R2)))))
    with pytest.raises(HypothesisFails) as both:
        check_ca_identities(g, [(one_sided, one_sided, off_tangent)])
    assert str(both.value) == "sample 1: tangent component 4 deviates by -1"


def test_ca_identities_vacuous_and_validated():
    g = pair_groupoid(R1)
    assert check_ca_identities(g, []).passed
    stray = GSec(VField.zero(R2), KForm.zero(R2, 1))
    with pytest.raises(PatchMismatch):
        check_ca_identities(g, [(stray, stray, stray)])


def test_ca_identities_solve_the_pair_chart_once_per_trio(monkeypatch):
    # two samples and their two ordered brackets: four trios, one solve on the pair chart each;
    # the right-invariant fields solve on the arrow patch and are not counted
    g = pair_groupoid(R2)
    samples = [(s, s, s) for s in (pair_section(g, ("y", "x"), ("x", "0")), pair_section(g, ("1", "x*y"), ("y", "x")))]
    solves = []
    real = groupoid._ChartData.solve

    def spy(self, rhs, ppatch):
        solves.append(ppatch)
        return real(self, rhs, ppatch)

    monkeypatch.setattr(groupoid._ChartData, "solve", spy)
    assert check_ca_identities(g, samples).passed
    assert solves.count(g.comp_chart) == 4


def test_ca_identities_compute_each_bracket_and_pairing_once(monkeypatch):
    g = pair_groupoid(R2)
    fields = ((("y", "x"), ("x", "0")), (("1", "x*y"), ("y", "x")))
    calls = []

    def spy(name):
        real = getattr(groupoid, name)

        def counted(a, b):
            calls.append(name)
            return real(a, b)

        return counted

    for name in ("courant_bracket", "pairing"):
        monkeypatch.setattr(groupoid, name, spy(name))
    # diagonal trios: the three slots share one bracket per ordered pair and one pairing per pair i <= j
    diagonal = [(s, s, s) for s in (pair_section(g, *f) for f in fields)]
    assert check_ca_identities(g, diagonal).passed
    assert (calls.count("courant_bracket"), calls.count("pairing")) == (2, 3)
    # three equal sections as three objects: one bracket and one pairing per slot
    calls.clear()
    distinct = [tuple(pair_section(g, *f) for _ in range(3)) for f in fields]
    assert check_ca_identities(g, distinct).passed
    assert (calls.count("courant_bracket"), calls.count("pairing")) == (6, 9)


def test_ca_identities_read_only_the_fibre_halves(monkeypatch):
    # on warm derived data, relating the samples substitutes neither the Ts nor the Tt Jacobian
    g = pair_groupoid(R2)
    samples = [(s, s, s) for s in (pair_section(g, ("y", "x"), ("x", "0")), pair_section(g, ("1", "x*y"), ("y", "x")))]
    assert check_ca_identities(g, samples).passed
    ends = (g.src.jacobian().entries, g.tgt.jacobian().entries)
    substituted = []
    real = groupoid._subst_matrix

    def spy(rows, values, ppatch):
        substituted.extend(rows for end in ends if rows is end)
        return real(rows, values, ppatch)

    monkeypatch.setattr(groupoid, "_subst_matrix", spy)
    assert check_ca_identities(g, samples).passed
    assert len(substituted) == 0


def test_ca_identities_on_coordinates_named_like_momenta():
    # a cotangent chart of the pair groupoid of (q, p_q) would name its momenta p_q_1, p_q_2 twice
    m = Patch("Q", ("q", "p_q"))
    g = pair_groupoid(m)
    sections = [pair_section(g, vec, cov) for vec, cov in ((("p_q", "q"), ("q", "0")), (("1", "q*p_q"), ("p_q", "q")))]
    rep = check_ca_identities(g, [(s, s, s) for s in sections])
    assert rep.passed, rep.witness


# -- one multiplication for TG + T*G, held against the inline route it replaced ------------------

PRODUCT_GROUPOIDS = {
    "pair": pair_groupoid(R2),
    "abelian": abelian_group(2),
    "heisenberg": heisenberg3(),
    "tangent heisenberg": tangent_groupoid(heisenberg3()),
}


def reference_product(g, xa, yb):
    """Stacked product of two stacked (x, a) on the pair chart, as the frame check once wrote it inline.

    Solve the pair chart for the tangent direction and apply Tm, then solve the
    pairing identity against the transposed multiplication Jacobian.
    """
    chart, n_total = g.comp_chart, g.total.dim
    data, dmul = g._chart, g.mul.jacobian().entries
    delta = data.solve(list(xa[:n_total]) + list(yb[:n_total]), chart)
    tangent = [symalg.RatExpr(symalg.dot(chart, zip(row, delta))) for row in dmul]
    mat = ExprMatrix(chart, tuple(zip(*dmul)))
    pulled = tuple(zip(*(data.a_g + data.a_h)))
    if generic_rank(mat) != n_total:
        raise RankDeficient("the pairing identity does not pin down the product covector")
    covs = list(xa[n_total:]) + list(yb[n_total:])
    return tangent + solve_linear(mat, [symalg._combine(chart, row, covs) for row in pulled])


@st.composite
def composable_stacked_pairs(draw):
    """A groupoid and two composable stacked (x, a) over its pair chart.

    The tangent parts are the factor images of a drawn chart direction.  The
    covectors solve the pairing identity for a drawn product covector, plus a
    drawn covector that vanishes on every chart direction.
    """
    name = draw(st.sampled_from(sorted(PRODUCT_GROUPOIDS)))
    g = PRODUCT_GROUPOIDS[name]
    chart, n_total = g.comp_chart, g.total.dim
    polys = st.dictionaries(st.tuples(*[st.integers(0, 1)] * chart.dim), SMALL_QQ, max_size=2).map(
        lambda t: Expr(chart, t)
    )
    delta = [draw(polys) for _ in range(chart.dim)]
    data = g._chart
    x = [symalg._combine(chart, row, delta) for row in data.a_g]
    y = [symalg._combine(chart, row, delta) for row in data.a_h]
    c = [draw(polys) for _ in range(n_total)]
    stacked = ExprMatrix.from_rows(chart, [[Expr.const(chart, q) for q in col] for col in zip(*(data.a_g + data.a_h))])
    pulled = [symalg.dot(chart, zip(col, c)) for col in zip(*g.mul.jacobian().entries)]
    ab = [v.as_expr() for v in solve_linear(stacked, pulled)]
    for vec in symalg.nullspace(stacked):
        f = draw(polys)
        ab = [u + f * v for u, v in zip(ab, vec)]
    return name, x + ab[:n_total], y + ab[n_total:]


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(composable_stacked_pairs())
def test_product_matches_the_inline_route(case):
    name, xa, yb = case
    g = PRODUCT_GROUPOIDS[name]
    product = groupoid._product(g, xa, yb)
    assert [str(v) for v in product] == [str(v) for v in reference_product(g, xa, yb)]
