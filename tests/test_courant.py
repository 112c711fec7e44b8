"""Courant algebra: pairing, bracket, graphs, foliations, Dirac checks."""

import random
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from diracgeom.cartan import (
    Bivector,
    KForm,
    VField,
    exterior_derivative,
    schouten_jacobiator,
    wedge,
)
from diracgeom.cli import parse_expr
from diracgeom.courant import (
    Frame,
    GSec,
    _increasing_mu,
    _require_isotropic,
    bfield_transform,
    check_dirac,
    check_lagrangian,
    courant_bracket,
    foliation_frame,
    graph_bivector,
    graph_two_form,
    pairing,
)
from diracgeom.errors import NotLagrangian, PatchMismatch, RankDeficient, WrongShape
from diracgeom.report import Report
from diracgeom.symalg import Expr, Patch, generic_rank, in_span

from test_cartan import one_form, rand_expr, rand_form, rand_vf, so3_poisson, vf

M2 = Patch("M2", ("x", "y"))
M3 = Patch("M3", ("x", "y", "z"))


def gsec(patch, vcomps, fcomps):
    return GSec(vf(patch, *vcomps), one_form(patch, *fcomps))


def same_span(l1, l2):
    """Generic span equality of two frames on one patch: a test reference for lifts and gauge transforms."""
    if l1.patch != l2.patch:
        raise PatchMismatch("frames on different patches")
    m1 = l1.coefficient_matrix()
    m2 = l2.coefficient_matrix()
    return generic_rank(m1) == generic_rank(m2) and all(in_span(m1, col) for col in zip(*m2.entries))


# -- pairing and bracket ----------------------------------------------------------


def test_pairing_example():
    a = gsec(M2, ("1", "0"), ("0", "1"))  # (d_x, dy)
    b = gsec(M2, ("0", "1"), ("1", "0"))  # (d_y, dx)
    assert pairing(a, b) == Expr.const(M2, 2)


def test_bracket_on_vector_parts_is_lie_bracket():
    a = gsec(M2, ("1", "0"), ("0", "0"))
    b = gsec(M2, ("0", "x"), ("0", "0"))
    assert courant_bracket(a, b) == gsec(M2, ("0", "1"), ("0", "0"))


def test_bracket_with_form_part():
    a = gsec(M3, ("1", "0", "0"), ("0", "z", "0"))  # (d_x, z dy)
    b = gsec(M3, ("0", "1", "0"), ("0", "0", "0"))  # (d_y, 0)
    assert courant_bracket(a, b) == gsec(M3, ("0", "0", "0"), ("0", "0", "1"))


def test_bracket_of_pure_forms_vanishes():
    rng = random.Random(97)
    for _ in range(8):
        a = GSec(VField.zero(M3), rand_form(rng, M3, 1))
        b = GSec(VField.zero(M3), rand_form(rng, M3, 1))
        br = courant_bracket(a, b)
        assert br.vf.is_zero() and br.of.is_zero()


def test_bracket_leibniz_in_second_slot():
    rng = random.Random(101)
    for _ in range(8):
        a = GSec(rand_vf(rng, M2, 1), rand_form(rng, M2, 1, 1))
        b = GSec(rand_vf(rng, M2, 1), rand_form(rng, M2, 1, 1))
        f = rand_expr(rng, M2, max_deg=1)
        lhs = courant_bracket(a, b.scale(f))
        rhs = courant_bracket(a, b).scale(f) + b.scale(a.vf.apply(f))
        assert lhs == rhs


# -- graph constructors -------------------------------------------------------------


def test_graph_two_form_sections():
    w = wedge(KForm.d_coord(M2, "x"), KForm.d_coord(M2, "y"))
    l = graph_two_form(w)
    assert l.secs[0] == gsec(M2, ("1", "0"), ("0", "1"))
    assert l.secs[1] == gsec(M2, ("0", "1"), ("-1", "0"))


def test_graph_bivector_sections():
    p = Bivector(M2, {(0, 1): Expr.one(M2)})
    l = graph_bivector(p)
    assert l.secs[0] == gsec(M2, ("0", "1"), ("1", "0"))
    assert l.secs[1] == gsec(M2, ("-1", "0"), ("0", "1"))


def test_graphs_are_lagrangian():
    rng = random.Random(103)
    for _ in range(6):
        w = rand_form(rng, M3, 2, max_deg=2)
        assert check_lagrangian(graph_two_form(w)).passed
        p = Bivector(
            M3,
            {
                (0, 1): rand_expr(rng, M3, 1),
                (0, 2): rand_expr(rng, M3, 1),
                (1, 2): rand_expr(rng, M3, 1),
            },
        )
        assert check_lagrangian(graph_bivector(p)).passed


def test_foliation_frame_sections():
    l = foliation_frame([vf(M2, "1", "0")])
    assert len(l.secs) == 2
    assert l.secs[0].vf == vf(M2, "1", "0")
    # annihilator of span{d_x} is span{dy}
    assert l.secs[1].of.components()[0].is_zero()
    assert not l.secs[1].of.components()[1].is_zero()
    assert check_lagrangian(l).passed


def test_foliation_frame_zero_distribution():
    l = graph_bivector(Bivector(M2, {}))
    assert len(l.secs) == 2
    assert all(s.vf.is_zero() for s in l.secs)
    assert check_dirac(l).passed


def test_foliation_frame_needs_a_field():
    with pytest.raises(WrongShape):
        foliation_frame([])


def test_foliation_frame_full_tangent():
    l = foliation_frame([vf(M2, "1", "0"), vf(M2, "0", "1")])
    assert all(s.of.is_zero() for s in l.secs)
    assert check_dirac(l).passed


def test_foliation_rank_deficient():
    from diracgeom.errors import RankDeficient

    with pytest.raises(RankDeficient):
        foliation_frame([vf(M2, "x", "0"), vf(M2, "x^2", "0")])


def test_parts_of_the_wrong_degree_raise_wrong_shape():
    # an engine error, so a library caller that catches EngineError sees it
    with pytest.raises(WrongShape, match="form part must have degree 1"):
        GSec(VField.zero(M2), KForm.zero(M2, 2))
    with pytest.raises(WrongShape, match="b-field must be a two-form"):
        bfield_transform(graph_two_form(KForm.zero(M2, 2)), KForm.d_coord(M2, "x"))


# -- Lagrangian check ---------------------------------------------------------------


def test_check_lagrangian_isotropy_failure():
    patch = Patch("R1", ("x",))
    l = Frame(patch, (GSec(VField.coordinate(patch, "x"), KForm.d_coord(patch, "x")),))
    rep = check_lagrangian(l)
    assert not rep.passed
    assert "pairing[1,1]" in rep.witness


def test_check_lagrangian_maximality_failure():
    l = Frame(M2, (GSec(VField.coordinate(M2, "x"), KForm.zero(M2, 1)),))
    rep = check_lagrangian(l)
    assert not rep.passed
    assert "rank" in rep.witness


# -- Courant tensor ------------------------------------------------------------------


def test_mu_equals_dw_on_graphs():
    rng = random.Random(107)
    for _ in range(6):
        w = rand_form(rng, M3, 2)
        l = graph_two_form(w)
        mu = reference_mu(l)
        dw = exterior_derivative(w)
        for (i, j, k), v in mu.items():
            fields = [VField.coordinate(M3, M3.coords[m]) for m in (i, j, k)]
            assert v == dw.evaluate(*fields)


def test_mu_equals_jacobiator_on_bivector_graphs():
    cases = [
        Bivector(M3, {(0, 1): Expr.one(M3), (0, 2): parse_expr("x", M3)}),
        Bivector(
            M3,
            {
                (0, 1): parse_expr("x", M3),
                (1, 2): parse_expr("y", M3),
                (0, 2): parse_expr("-z", M3),
            },
        ),
        so3_poisson(M3),
    ]
    for p in cases:
        mu = reference_mu(graph_bivector(p))
        jac = schouten_jacobiator(p)
        for (i, j, k), v in jac.items():
            assert mu[(i, j, k)] == v


# -- independent oracle for mu ----------------------------------------------------------
#
# courant._increasing_mu computes only the increasing triples; check_dirac
# stops at the first non-zero one.
# The oracle below computes every one of the n^3 entries from its own bracket
# and pairing, so it relies on no symmetry of mu.

M5 = Patch("M5", ("x", "y", "z", "u", "v"))


def reference_mu(l):
    """mu(i, j, k) = <[[s_i, s_j]], s_k> for all n^3 triples, each computed directly."""
    n = len(l.secs)
    return {
        (i, j, k): pairing(courant_bracket(l.secs[i], l.secs[j]), l.secs[k])
        for i in range(n)
        for j in range(n)
        for k in range(n)
    }


def first_nonzero_witness(mu):
    """The witness a scan of the full tensor in sorted order reports."""
    for (i, j, k) in sorted(mu):
        if not mu[(i, j, k)].is_zero():
            return f"mu[{i + 1},{j + 1},{k + 1}] = {mu[(i, j, k)]}"
    return None


def rand_bivector(rng, patch, max_deg=1):
    from itertools import combinations

    return Bivector(patch, {idx: rand_expr(rng, patch, max_deg) for idx in combinations(range(patch.dim), 2)})


def oracle_frames():
    """Lagrangian frames of every constructor kind, integrable or not."""
    from diracgeom.tanlift import tangent_lift_dirac

    rng = random.Random(131)
    frames = [
        graph_two_form(rand_form(rng, M3, 2)),
        graph_two_form(KForm(M3, 2, {(0, 1): Expr.one(M3), (1, 2): parse_expr("y", M3)})),
        graph_two_form(rand_form(rng, M5, 2, max_deg=1)),
        graph_bivector(so3_poisson(M3)),
        graph_bivector(rand_bivector(rng, M3)),
        graph_bivector(rand_bivector(rng, M5, max_deg=1)),
        foliation_frame([vf(M3, "1", "0", "0"), vf(M3, "0", "1", "x")]),
        foliation_frame([vf(M3, "1", "0", "0"), vf(M3, "0", "1", "y")]),
        foliation_frame([vf(M5, "1", "0", "0", "0", "y"), vf(M5, "0", "0", "1", "x", "0")]),
        bfield_transform(graph_bivector(so3_poisson(M3)), rand_form(rng, M3, 2, max_deg=1)),
        bfield_transform(foliation_frame([vf(M3, "1", "0", "0")]), KForm(M3, 2, {(1, 2): Expr.one(M3)})),
        tangent_lift_dirac(graph_two_form(rand_form(rng, M2, 2))),
        tangent_lift_dirac(graph_bivector(Bivector(M2, {(0, 1): parse_expr("x*y", M2)}))),
    ]
    # failing frames whose first non-zero entry has large indices
    frames += [
        graph_two_form(KForm(M5, 2, {(3, 4): parse_expr("z", M5), (0, 1): parse_expr("x", M5)})),
        graph_bivector(Bivector(M5, {(2, 3): Expr.one(M5), (2, 4): parse_expr("z", M5)})),
        foliation_frame(
            [vf(M5, "1", "0", "0", "0", "0"), vf(M5, "0", "1", "0", "0", "0"), vf(M5, "0", "0", "1", "0", "0"), vf(M5, "0", "0", "0", "1", "z")]
        ),
        tangent_lift_dirac(graph_two_form(KForm(M3, 2, {(0, 1): parse_expr("z", M3)}))),
    ]
    return frames


def test_oracle_frames_are_lagrangian_and_mixed():
    frames = oracle_frames()
    assert all(check_lagrangian(l).passed for l in frames)
    verdicts = [check_dirac(l).passed for l in frames]
    assert any(verdicts) and not all(verdicts)


@pytest.mark.parametrize("index", range(len(oracle_frames())))
def test_courant_tensor_matches_reference(index):
    # the increasing entries, the only ones the engine computes
    l = oracle_frames()[index]
    assert dict(_increasing_mu(l)) == {key: v for key, v in reference_mu(l).items() if key[0] < key[1] < key[2]}


@pytest.mark.parametrize("index", range(len(oracle_frames())))
def test_dirac_witness_is_first_nonzero_reference_entry(index):
    l = oracle_frames()[index]
    rep = check_dirac(l)
    witness = first_nonzero_witness(reference_mu(l))
    assert rep.items[-1].name == "integrable"
    assert rep.items[-1].passed is (witness is None)
    assert rep.witness == witness


def test_late_witnesses_have_large_indices():
    late = oracle_frames()[-4:]
    assert [check_dirac(l).witness.split(" =")[0] for l in late] == ["mu[3,4,5]", "mu[3,4,5]", "mu[3,4,5]", "mu[1,2,6]"]


def test_require_isotropic_refuses_a_nonzero_pairing():
    patch = Patch("R2", ("x", "y"))
    l = Frame(patch, (GSec(VField.coordinate(patch, "x"), KForm.d_coord(patch, "y")), gsec(patch, ("0", "1"), ("1", "0"))))
    with pytest.raises(NotLagrangian, match=r"^pairing\[1,2\] = 2$"):
        _require_isotropic(l)


def test_mu_total_antisymmetry():
    frames = oracle_frames()
    for l in frames[:3] + frames[6:7] + frames[-1:]:
        mu = reference_mu(l)
        for (i, j, k), v in mu.items():
            assert mu[(j, i, k)] == -v
            assert mu[(i, k, j)] == -v
            assert mu[(j, k, i)] == v
            if len({i, j, k}) < 3:
                assert v.is_zero()


def test_mu_tensoriality_under_section_scaling():
    rng = random.Random(113)
    w = rand_form(rng, M3, 2, max_deg=1)
    l = graph_two_form(w)
    f = parse_expr("1 + x*y", M3)
    scaled = Frame(M3, (l.secs[0].scale(f),) + l.secs[1:])
    mu = reference_mu(l)
    mu_scaled = reference_mu(scaled)
    for (i, j, k), v in mu.items():
        mult = (i, j, k).count(0)
        assert mu_scaled[(i, j, k)] == v * f ** mult


# -- Dirac verdicts -------------------------------------------------------------------


def test_dirac_iff_closed_two_form():
    closed = KForm(M3, 2, {(0, 1): Expr.one(M3)})
    not_closed = KForm(M3, 2, {(0, 1): parse_expr("z", M3)})
    assert check_dirac(graph_two_form(closed)).passed
    rep = check_dirac(graph_two_form(not_closed))
    assert not rep.passed
    assert rep.witness == "mu[1,2,3] = 1"


def test_dirac_iff_poisson_bivector():
    assert check_dirac(graph_bivector(so3_poisson(M3))).passed
    bad = Bivector(
        M3,
        {
            (0, 1): parse_expr("x", M3),
            (1, 2): parse_expr("y", M3),
            (0, 2): parse_expr("-z", M3),
        },
    )
    assert not check_dirac(graph_bivector(bad)).passed


def test_dirac_iff_involutive_foliation():
    # [d_x, d_y + y d_z] = 0 stays in the span; [d_x, d_y + x d_z] = d_z leaves it
    good = foliation_frame([vf(M3, "1", "0", "0"), vf(M3, "0", "1", "y")])
    assert check_dirac(good).passed
    bad = foliation_frame([vf(M3, "1", "0", "0"), vf(M3, "0", "1", "x")])
    rep = check_dirac(bad)
    assert not rep.passed
    assert "mu[" in rep.witness


# -- invariances of the Dirac verdict ----------------------------------------------
# Whether a frame spans a Dirac structure depends on the span alone, in any coordinates:
# permuting the coordinates, reordering the sections or scaling one by a non-zero
# polynomial keeps the verdict, though not the witness.

COORDS = ("x", "y", "z", "u")


def _polynomials(patch):
    """Polynomials of degree at most 2 with up to three small integer terms."""
    # x_a * x_b for a <= b, where the index dim stands for the factor 1
    pairs = combinations_with_replacement(range(patch.dim + 1), 2)
    exponents = [tuple(int(i == a) + int(i == b) for i in range(patch.dim)) for a, b in pairs]
    return st.dictionaries(st.sampled_from(exponents), st.integers(-2, 2), max_size=3).map(lambda t: Expr(patch, t))


@st.composite
def dirac_candidates(draw):
    """The graph of a two-form (a third of them exact) or of a bivector, or a foliation frame, on 2-4 coordinates."""
    patch = Patch("M", COORDS[: draw(st.integers(2, 4))])
    n, poly = patch.dim, _polynomials(patch)
    kind = draw(st.sampled_from(["two_form", "bivector", "foliation"]))
    if kind == "two_form":
        if draw(st.integers(0, 2)) == 0:
            return graph_two_form(exterior_derivative(KForm.one_form(patch, [draw(poly) for _ in range(n)])))
        return graph_two_form(KForm(patch, 2, {ij: draw(poly) for ij in combinations(range(n), 2)}))
    if kind == "bivector":
        return graph_bivector(Bivector(patch, {ij: draw(poly) for ij in combinations(range(n), 2)}))
    fields = [VField(patch, tuple(draw(poly) for _ in range(n))) for _ in range(draw(st.sampled_from(range(1, n))))]
    try:
        return foliation_frame(fields)
    except RankDeficient:
        assume(False)


def _permuted(l: Frame, perm) -> Frame:
    """``l`` on the patch whose i-th coordinate is coordinate perm[i] of ``l.patch``, components moved to match."""
    patch = Patch(l.patch.name, tuple(l.patch.coords[p] for p in perm))

    def move(e):
        return Expr(patch, {tuple(exps[p] for p in perm): c for exps, c in e.terms.items()})

    def section(s):
        fields, forms = s.vf.components(), s.of.components()
        return GSec(VField(patch, tuple(move(fields[p]) for p in perm)), KForm.one_form(patch, [move(forms[p]) for p in perm]))

    return Frame(patch, tuple(section(s) for s in l.secs))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_dirac_verdict_is_invariant(data):
    l = data.draw(dirac_candidates())
    verdict = check_dirac(l).passed
    n, k = l.patch.dim, len(l.secs)
    assert check_dirac(_permuted(l, data.draw(st.permutations(range(n))))).passed is verdict
    order = data.draw(st.permutations(range(k)))
    assert check_dirac(Frame(l.patch, tuple(l.secs[i] for i in order))).passed is verdict
    i = data.draw(st.integers(0, k - 1))
    f = data.draw(_polynomials(l.patch).filter(lambda e: not e.is_zero()))
    assert check_dirac(Frame(l.patch, l.secs[:i] + (l.secs[i].scale(f),) + l.secs[i + 1 :])).passed is verdict


def test_dirac_report_shape():
    rep = check_dirac(graph_two_form(KForm(M3, 2, {(0, 1): parse_expr("z", M3)})))
    assert type(rep) is Report
    assert [(it.name, it.passed) for it in rep.items] == [("isotropic", True), ("maximal", True), ("integrable", False)]
    assert rep.witness == rep.items[-1].witness
    # a frame that is not Lagrangian reports the Lagrangian check alone
    not_lagrangian = check_dirac(Frame(M3, ()))
    assert not_lagrangian == check_lagrangian(Frame(M3, ()))
    assert [it.name for it in not_lagrangian.items] == ["isotropic", "maximal"]
    assert not_lagrangian.witness == not_lagrangian.items[1].witness


# -- b-field transforms -----------------------------------------------------------------


def test_bfield_shifts_graph():
    w = KForm(M3, 2, {(0, 1): Expr.one(M3)})
    b = KForm(M3, 2, {(1, 2): parse_expr("x", M3)})
    assert same_span(bfield_transform(graph_two_form(w), b), graph_two_form(w + b))


def test_bfield_preserves_lagrangian_always():
    rng = random.Random(127)
    for _ in range(5):
        w = rand_form(rng, M3, 2, max_deg=1)
        b = rand_form(rng, M3, 2, max_deg=2)
        assert check_lagrangian(bfield_transform(graph_two_form(w), b)).passed


def test_bfield_dirac_verdict_tracks_db():
    closed_b = KForm(M3, 2, {(1, 2): Expr.one(M3)})
    open_b = KForm(M3, 2, {(0, 1): parse_expr("z", M3)})
    frames = [
        graph_two_form(KForm(M3, 2, {(0, 1): Expr.one(M3)})),
        foliation_frame(
            [vf(M3, "1", "0", "0"), vf(M3, "0", "1", "0"), vf(M3, "0", "0", "1")]
        ),
    ]
    for l in frames:
        assert check_dirac(l).passed
        assert check_dirac(bfield_transform(l, closed_b)).passed
        assert not check_dirac(bfield_transform(l, open_b)).passed


def test_same_span_detects_difference():
    w1 = KForm(M2, 2, {(0, 1): Expr.one(M2)})
    w2 = KForm(M2, 2, {(0, 1): parse_expr("x", M2)})
    assert same_span(graph_two_form(w1), graph_two_form(w1))
    assert not same_span(graph_two_form(w1), graph_two_form(w2))
