"""Built-in verification library covering every engine capability on worked examples.

Each entry builds a small family of instances with independently known
verdicts (closedness computed by exterior differentiation, Jacobi failure by
the Schouten bracket, involutivity by rank tests, hand-derived structure
constants) and records one report item per instance.  The library is fully
deterministic: fixed seeds, fixed iteration order, no timing in any output.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from .algebroid import (
    AlgebroidPatch,
    IMFoliation,
    check_im_foliation,
    check_im_two_form,
    check_lie_algebroid,
    check_lie_bialgebra,
    check_linearity,
    dual_linear_poisson,
)
from .cartan import (
    Bivector,
    KForm,
    PolyMap,
    VField,
    exterior_derivative,
    lie_bracket,
    pullback_form,
    schouten_jacobiator,
)
from .cli import parse_expr
from .courant import (
    GSec,
    bfield_transform,
    check_dirac,
    courant_bracket,
    foliation_frame,
    graph_bivector,
    graph_two_form,
)
from .errors import CheckError
from .groupoid import (
    abelian_group,
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
from .report import CheckItem, Report
from .symalg import Expr, ExprMatrix, Patch, _combine, in_span
from .tanlift import (
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

R2 = Patch("R2", ("x", "y"))
R3 = Patch("R3", ("x", "y", "z"))
P3 = Patch("P3", ("x_1", "x_2", "x_3"))


def _expect(name: str, verdict: bool, expected: bool) -> CheckItem:
    ok = verdict == expected
    witness = None
    if not ok:
        got = "passes" if verdict else "fails"
        want = "pass" if expected else "fail"
        witness = f"{got} but should {want}"
    return CheckItem(name, ok, witness)


def _ground_truth(holds: bool, claim: str) -> None:
    """Stop the suite when an independent ground truth does not hold."""
    if not holds:
        raise CheckError(f"suite ground truth does not hold: {claim}")


def _rand_expr(rng, patch, max_deg=2):
    out: dict[tuple[int, ...], Fraction] = {}
    for _ in range(rng.randint(1, 3)):
        exps = [0] * patch.dim
        for _ in range(rng.randint(0, max_deg)):
            if patch.dim:
                exps[rng.randrange(patch.dim)] += 1
        coeff = Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))
        key = tuple(exps)
        out[key] = out.get(key, 0) + coeff
    return Expr(patch, out)


def _rand_vf(rng, patch, max_deg=2):
    return VField(patch, tuple(_rand_expr(rng, patch, max_deg) for _ in patch.coords))


def _rand_form(rng, patch, degree, max_deg=2):
    return KForm(
        patch,
        degree,
        {idx: _rand_expr(rng, patch, max_deg) for idx in combinations(range(patch.dim), degree)},
    )


# -- graph integrability ----------------------------------------------------------------


def two_form_integrability() -> Report:
    """Two-form graphs pass the integrability check exactly when closed."""
    instances = [
        ("dx^dy on the plane", KForm(R2, 2, {(0, 1): Expr.one(R2)}), True),
        ("(x^2 + y) dx^dy", KForm(R2, 2, {(0, 1): parse_expr("x^2 + y", R2)}), True),
        ("z dz^dx", KForm(R3, 2, {(0, 2): parse_expr("-z", R3)}), True),
        ("z dx^dy", KForm(R3, 2, {(0, 1): parse_expr("z", R3)}), False),
        ("y dx^dz", KForm(R3, 2, {(0, 2): parse_expr("y", R3)}), False),
        ("x*y dy^dz", KForm(R3, 2, {(1, 2): parse_expr("x*y", R3)}), False),
    ]
    items = []
    for name, w, closed in instances:
        _ground_truth(exterior_derivative(w).is_zero() == closed, f"closedness of {name}")
        verdict = check_dirac(graph_two_form(w)).passed
        items.append(_expect(f"graph of {name}", verdict, closed))
    return Report(tuple(items))


def bivector_integrability() -> Report:
    """Bivector graphs pass the integrability check exactly when Jacobi holds."""

    def biv(patch, entries):
        return Bivector(patch, {k: parse_expr(v, patch) for k, v in entries.items()})

    instances = [
        ("rotation-invariant linear bracket", biv(P3, {(0, 1): "x_3", (1, 2): "x_1", (0, 2): "-x_2"}), True),
        ("cyclic linear bracket", biv(P3, {(0, 1): "x_1", (1, 2): "x_2", (0, 2): "-x_3"}), False),
        ("zero bivector", Bivector(R2, {}), True),
        ("constant plane bivector", biv(R2, {(0, 1): "1"}), True),
        ("x d_x^d_y", biv(R2, {(0, 1): "x"}), True),
        ("x_1^2 d_2^d_3 + x_2 d_1^d_2", biv(P3, {(1, 2): "x_1^2", (0, 1): "x_2"}), False),
        ("x_3 d_1^d_2 + x_1 d_1^d_3", biv(P3, {(0, 1): "x_3", (0, 2): "x_1"}), False),
    ]
    items = []
    for name, p, jacobi in instances:
        jac = schouten_jacobiator(p)
        _ground_truth(all(v.is_zero() for v in jac.values()) == jacobi, f"the Jacobi identity for {name}")
        verdict = check_dirac(graph_bivector(p)).passed
        items.append(_expect(f"graph of {name}", verdict, jacobi))
    return Report(tuple(items))


def _involutive(fields) -> bool:
    patch = fields[0].patch
    columns = [f.components() for f in fields]
    span = ExprMatrix.from_rows(patch, [[col[i] for col in columns] for i in range(patch.dim)])
    return all(in_span(span, lie_bracket(f, g).components()) for f, g in combinations(fields, 2))


def foliation_integrability() -> Report:
    """Foliation frames pass the integrability check exactly when involutive."""

    def vfs(patch, *comps):
        return tuple(VField(patch, tuple(parse_expr(c, patch) for c in cs)) for cs in comps)

    instances = [
        ("coordinate plane field", vfs(R3, ("1", "0", "0"), ("0", "1", "0")), True),
        ("sheared pair", vfs(R3, ("1", "0", "0"), ("0", "x", "1")), False),
        ("radial line field", vfs(R2, ("x", "y")), True),
    ]
    items = []
    for name, fields, involutive in instances:
        _ground_truth(_involutive(fields) == involutive, f"involutivity of the {name}")
        verdict = check_dirac(foliation_frame(fields)).passed
        items.append(_expect(name, verdict, involutive))
    return Report(tuple(items))


# -- tangent lifts ------------------------------------------------------------------------


def tangent_lift_identities() -> Report:
    """Lift defining identities, bracket lifts, canonical maps, lifted graphs."""
    items = []
    rng = random.Random(2026)
    for k in range(20):
        x = _rand_vf(rng, R2)
        a = _rand_form(rng, R2, 1)
        f = _rand_expr(rng, R2)
        xv = lift_vector_field(x, "vertical")
        xt = lift_vector_field(x, "tangent")
        av = lift_one_form(a, "vertical")
        at = lift_one_form(a, "tangent")
        fv = lift_function(f, "vertical")
        ft = lift_function(f, "tangent")
        defining = (
            xv.apply(fv).is_zero()
            and xv.apply(ft) == lift_function(x.apply(f), "vertical")
            and xt.apply(fv) == lift_function(x.apply(f), "vertical")
            and xt.apply(ft) == lift_function(x.apply(f), "tangent")
            and av.evaluate(xv).is_zero()
            and av.evaluate(xt) == lift_function(a.evaluate(x), "vertical")
            and at.evaluate(xv) == lift_function(a.evaluate(x), "vertical")
            and at.evaluate(xt) == lift_function(a.evaluate(x), "tangent")
        )
        s1 = GSec(x, a)
        s2 = GSec(_rand_vf(rng, R2, 1), _rand_form(rng, R2, 1, 1))
        vv = courant_bracket(lift_section(s1, "vertical"), lift_section(s2, "vertical"))
        brackets = (
            vv.vf.is_zero()
            and vv.of.is_zero()
            and courant_bracket(lift_section(s1, "tangent"), lift_section(s2, "vertical"))
            == lift_section(courant_bracket(s1, s2), "vertical")
            and courant_bracket(lift_section(s1, "tangent"), lift_section(s2, "tangent"))
            == lift_section(courant_bracket(s1, s2), "tangent")
        )
        items.append(CheckItem(f"random instance {k + 1}: lift and bracket identities", defining and brackets))

    j = canonical_involution(R2)
    items.append(CheckItem("canonical involution squares to the identity", j.compose(j) == PolyMap.identity(j.source)))

    ct = cotangent_patch(R2)
    theta = tulczyjew_map(R2)
    tm = tangent_patch(R2)
    ok = True
    for a in (
        KForm.one_form(R2, (Expr.zero(R2), parse_expr("x", R2))),
        KForm.d_coord(R2, "x"),
        KForm.one_form(R2, (parse_expr("y", R2), parse_expr("x*y", R2))),
    ):
        comps = [Expr.coord(R2, c) for c in R2.coords] + list(a.components())
        ta = tangent_map(PolyMap(R2, ct.total, tuple(comps)))
        lifted = lift_one_form(a, "tangent")
        target = PolyMap(
            tm.total,
            cotangent_patch(tm.total).total,
            tuple([Expr.coord(tm.total, c) for c in tm.total.coords] + list(lifted.components())),
        )
        ok = ok and theta.compose(ta) == target
    items.append(CheckItem("Tulczyjew map sends lifted form sections to tangent lifts", ok))

    frames = [
        graph_two_form(KForm(R2, 2, {(0, 1): parse_expr("x", R2)})),
        graph_bivector(Bivector(P3, {(0, 1): parse_expr("x_3", P3), (1, 2): parse_expr("x_1", P3), (0, 2): parse_expr("-x_2", P3)})),
        foliation_frame((VField.coordinate(R3, "x"), VField.coordinate(R3, "y"))),
    ]
    for i, l in enumerate(frames):
        lifted = tangent_lift_dirac(l)
        items.append(CheckItem(f"tangent lift of integrable frame {i + 1} stays integrable", check_dirac(lifted).passed))
        items.append(
            CheckItem(
                f"lifted tensor blocks match on frame {i + 1}",
                check_tangent_mu_identity(l).passed,
            )
        )
    bad = graph_two_form(KForm(R3, 2, {(0, 1): parse_expr("z", R3)}))
    items.append(CheckItem("lifted tensor blocks match on a non-integrable graph", check_tangent_mu_identity(bad).passed))
    return Report(tuple(items))


# -- gauge transforms ---------------------------------------------------------------------


def bfield_criterion() -> Report:
    """Gauge transforms preserve integrability exactly for closed two-forms."""
    l1 = graph_two_form(KForm(R3, 2, {(0, 1): Expr.one(R3), (1, 2): Expr.one(R3)}))
    l2 = graph_two_form(KForm(R3, 2, {(0, 1): parse_expr("x", R3)}))
    b_closed = KForm(R3, 2, {(0, 1): parse_expr("y", R3)})
    b_open = KForm(R3, 2, {(0, 1): parse_expr("z", R3)})
    _ground_truth(exterior_derivative(b_closed).is_zero(), "y dx^dy is closed")
    _ground_truth(not exterior_derivative(b_open).is_zero(), "z dx^dy is not closed")
    items = []
    for i, l in enumerate((l1, l2)):
        _ground_truth(check_dirac(l).passed, f"frame {i + 1} is Dirac")
        for b, closed in ((b_closed, True), (b_open, False)):
            kind = "closed" if closed else "non-closed"
            verdict = check_dirac(bfield_transform(l, b)).passed
            items.append(_expect(f"frame {i + 1} under a {kind} gauge form", verdict, closed))
    return Report(tuple(items))


# -- groupoids --------------------------------------------------------------------------


def groupoid_functoriality() -> Report:
    """Tangent groupoids keep the axioms; derived algebroids match hand constants."""
    items = []
    named = (
        ("pairs of plane points", pair_groupoid(R2)),
        ("additive plane", abelian_group(2)),
        ("Heisenberg group", heisenberg3()),
    )
    for name, g in named:
        items.append(CheckItem(f"{name}: axioms", check_groupoid_axioms(g).passed))
        items.append(CheckItem(f"{name}: tangent groupoid axioms", check_groupoid_axioms(tangent_groupoid(g)).passed))
        a = lie_algebroid_of(g)
        items.append(CheckItem(f"{name}: derived algebroid brackets", check_lie_algebroid(a).passed))
    pair_a = lie_algebroid_of(pair_groupoid(R2))
    tangent_like = list(pair_a.anchor) == [VField.coordinate(R2, c) for c in R2.coords] and not pair_a.bracket(0, 1)
    items.append(CheckItem("pair groupoid derives the full tangent algebroid", tangent_like))
    heis_a = lie_algebroid_of(heisenberg3())
    central = (
        heis_a.bracket(0, 1) == {2: Expr.one(heis_a.base)} and not heis_a.bracket(0, 2) and not heis_a.bracket(1, 2)
    )
    items.append(CheckItem("Heisenberg group derives the central bracket [e_1,e_2] = e_3", central))
    return Report(tuple(items))


def multiplicativity_cross_validation() -> Report:
    """Direct multiplicativity identities agree with the frame-route verdicts."""
    items = []
    g = pair_groupoid(R2)
    beta = KForm(R2, 2, {(0, 1): parse_expr("x", R2)})
    forms = (
        ("difference of factor pullbacks", pullback_form(g.tgt, beta) - pullback_form(g.src, beta)),
        ("single factor pullback", pullback_form(g.tgt, beta)),
        ("zero form", KForm.zero(g.total, 2)),
    )
    for name, w in forms:
        direct = check_multiplicative_two_form(g, w).passed
        framed = check_multiplicative_frame(g, graph_two_form(w)).passed
        items.append(_expect(f"two-form route vs frame route: {name}", framed, direct))
    ab = abelian_group(2)
    h = heisenberg3()
    bivs = (
        ("linear plane bivector", ab, Bivector(ab.total, {(0, 1): parse_expr("x_1", ab.total)})),
        ("constant plane bivector", ab, Bivector(ab.total, {(0, 1): Expr.one(ab.total)})),
        ("zero plane bivector", ab, Bivector(ab.total, {})),
        ("Heisenberg a d_b^d_c", h, Bivector(h.total, {(1, 2): parse_expr("a", h.total)})),
        ("Heisenberg c d_a^d_b", h, Bivector(h.total, {(0, 1): parse_expr("c", h.total)})),
    )
    for name, grp, p in bivs:
        direct = check_multiplicative_bivector(grp, p).passed
        framed = check_multiplicative_frame(grp, graph_bivector(p)).passed
        items.append(_expect(f"bivector route vs frame route: {name}", framed, direct))
    return Report(tuple(items))


def correspondence_examples() -> Report:
    """Multiplicative structures induce exactly the expected infinitesimal data."""
    items = []
    # closed base form: induced covector map satisfies both compatibility identities
    g2 = pair_groupoid(R2)
    beta2 = KForm(R2, 2, {(0, 1): parse_expr("x", R2)})
    w2 = pullback_form(g2.tgt, beta2) - pullback_form(g2.src, beta2)
    a2 = lie_algebroid_of(g2)
    items.append(
        _expect(
            "induced covector map of a closed multiplicative form",
            check_im_two_form(a2, induced_im_two_form(g2, w2)).passed,
            True,
        )
    )
    g3 = pair_groupoid(R3)
    beta3 = KForm(R3, 2, {(0, 1): parse_expr("z", R3)})
    w3 = pullback_form(g3.tgt, beta3) - pullback_form(g3.src, beta3)
    a3 = lie_algebroid_of(g3)
    items.append(
        _expect(
            "induced covector map of a non-closed multiplicative form",
            check_im_two_form(a3, induced_im_two_form(g3, w3)).passed,
            False,
        )
    )
    ab = abelian_group(2)
    pi = Bivector(ab.total, {(0, 1): parse_expr("x_1", ab.total)})
    dual = induced_dual_bracket(ab, pi)
    affine = dual.bracket(0, 1) == {0: Expr.one(dual.base)}
    items.append(CheckItem("linear plane bivector linearizes to the affine dual bracket", affine))
    items.append(
        CheckItem(
            "abelian algebra with the affine dual is a bialgebra",
            check_lie_bialgebra(lie_algebroid_of(ab), dual).passed,
        )
    )
    fol = foliation_frame(
        (VField.coordinate(g2.total, "x_1"), VField.coordinate(g2.total, "x_2"))
    )
    items.append(
        CheckItem(
            "product foliation frame is multiplicative",
            check_multiplicative_frame(g2, fol).passed,
        )
    )
    im_fol = IMFoliation((VField.coordinate(R2, "x"),), (0,))
    items.append(
        CheckItem(
            "induced foliation data passes the infinitesimal bullets",
            check_im_foliation(a2, im_fol).passed,
        )
    )
    return Report(tuple(items))


def _pair_section(g, vcomps, acomps):
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


def _linear_section(g, matrix, acomps):
    total = g.total
    xs = [Expr.coord(total, c) for c in total.coords]
    comps = tuple(_combine(total, row, xs) for row in matrix)
    of = KForm.one_form(total, tuple(Expr.const(total, q) for q in acomps))
    return GSec(VField(total, comps), of)


def ca_identity_examples() -> Report:
    """Pairing and bracket identities on related section families."""
    items = []
    g = pair_groupoid(R2)
    sections = [
        _pair_section(g, ("y", "x"), ("x", "0")),
        _pair_section(g, ("1", "x*y"), ("y", "x")),
        _pair_section(g, ("0", "1"), ("0", "y*y")),
    ]
    rep = check_ca_identities(g, [(s, s, s) for s in sections])
    items.append(CheckItem("pairs of plane points: diagonal section family", rep.passed, rep.witness))
    families = {
        2: [
            (((1, 0), (0, 1)), (1, 0)),
            (((0, 2), (0, 0)), (0, 3)),
            (((0, 0), (0, 0)), (1, 1)),
        ],
        3: [
            (((1, 0, 0), (0, 0, 1), (0, 1, 0)), (1, 0, 0)),
            (((0, 1, 0), (0, 0, 0), (2, 0, 0)), (0, 0, 1)),
            (((0, 0, 0), (0, 0, 0), (0, 0, 0)), (1, 2, 3)),
        ],
    }
    for n, fam in families.items():
        ab = abelian_group(n)
        secs = [_linear_section(ab, m, a) for m, a in fam]
        rep = check_ca_identities(ab, [(s, s, s) for s in secs])
        items.append(CheckItem(f"additive group on {n} coordinates: linear section family", rep.passed, rep.witness))
    return Report(tuple(items))


def linearity_examples() -> Report:
    """Fiber-scaling verdicts match how each structure was built."""
    pt, r1 = Patch("pt", ()), Patch("R1", ("x",))
    so3 = AlgebroidPatch(
        pt,
        [VField.zero(pt)] * 3,
        {
            (0, 1): tuple(Expr.const(pt, v) for v in (0, 0, 1)),
            (1, 2): tuple(Expr.const(pt, v) for v in (1, 0, 0)),
            (0, 2): tuple(Expr.const(pt, v) for v in (0, -1, 0)),
        },
    )
    affine = AlgebroidPatch(
        r1,
        [VField(r1, (Expr.one(r1),)), VField(r1, (parse_expr("x", r1),))],
        {(0, 1): (Expr.one(r1), Expr.zero(r1))},
    )
    mixed_patch = Patch("XU", ("x", "u"))
    ct2 = cotangent_patch(R2)
    instances = [
        ("linear rotation-invariant bracket on the dual", graph_bivector(dual_linear_poisson(so3)), 0, True),
        ("canonical symplectic graph on momenta", graph_two_form(canonical_symplectic(ct2)), 2, True),
        ("linear dual bracket of an anchored algebroid", graph_bivector(dual_linear_poisson(affine)), 1, True),
        (
            "constant bivector over a point base",
            graph_bivector(Bivector(P3, {(0, 1): Expr.one(P3)})),
            0,
            False,
        ),
        (
            "mixed-weight two-form graph",
            graph_two_form(KForm(mixed_patch, 2, {(0, 1): parse_expr("1 + u", mixed_patch)})),
            1,
            False,
        ),
        (
            "shifted linear bracket",
            graph_bivector(
                Bivector(
                    P3,
                    {
                        (0, 1): parse_expr("x_3 + 1", P3),
                        (1, 2): parse_expr("x_1", P3),
                        (0, 2): parse_expr("-x_2", P3),
                    },
                )
            ),
            0,
            False,
        ),
        ("full tangent lift of a linear graph", tangent_lift_dirac(graph_bivector(dual_linear_poisson(so3))), 3, True),
    ]
    items = []
    for name, l, n_base, expected in instances:
        verdict = check_linearity(l, n_base).passed
        items.append(_expect(name, verdict, expected))
    return Report(tuple(items))


SUITE = (
    ("two-form graphs integrate exactly when closed", two_form_integrability),
    ("bivector graphs integrate exactly when the Jacobiator vanishes", bivector_integrability),
    ("foliation frames integrate exactly when involutive", foliation_integrability),
    ("tangent lift identities and canonical maps", tangent_lift_identities),
    ("gauge transforms preserve verdicts exactly for closed forms", bfield_criterion),
    ("tangent groupoids and derived algebroids", groupoid_functoriality),
    ("multiplicativity routes agree", multiplicativity_cross_validation),
    ("multiplicative structures induce infinitesimal data", correspondence_examples),
    ("compatibility identities on related sections", ca_identity_examples),
    ("linearity detection on vector-bundle charts", linearity_examples),
)
