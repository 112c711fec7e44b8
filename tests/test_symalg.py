"""Scalar algebra: parsing, ring laws, calculus, elimination."""

import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from diracgeom import cli, symalg
from diracgeom.cli import parse_expr
from diracgeom.errors import EngineError, ExprSyntaxError, Inconsistent, PatchMismatch, UnknownSymbol, WrongShape
from diracgeom.symalg import (
    Expr,
    ExprMatrix,
    Patch,
    generic_rank,
    in_span,
    nullspace,
    solve_linear,
)
from diracgeom.tanlift import tangent_patch

XY = Patch("M", ("x", "y"))
XYZ = Patch("N", ("x", "y", "z"))


def rand_expr(rng, patch, max_deg=2, terms=3):
    out = Expr.zero(patch)
    for _ in range(rng.randint(1, terms)):
        exps = [0] * patch.dim
        for _ in range(rng.randint(0, max_deg)):
            if patch.dim:
                exps[rng.randrange(patch.dim)] += 1
        coeff = Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))
        out = out + Expr(patch, {tuple(exps): coeff} if coeff else {})
    return out


def rand_point(rng, patch):
    return [Fraction(rng.randint(-7, 7), rng.randint(1, 5)) for _ in patch.coords]


# -- parsing ---------------------------------------------------------------


def test_parse_canonical_terms():
    e = parse_expr("x^2 + 1/2*y", XY)
    assert e.terms == {(2, 0): Fraction(1), (0, 1): Fraction(1, 2)}


def test_parse_rejects_trailing_operator():
    with pytest.raises(ExprSyntaxError):
        parse_expr("x + ", XY)


def test_parse_unknown_coordinate():
    with pytest.raises(UnknownSymbol):
        parse_expr("z", XY)


def test_parse_parentheses_and_products():
    e = parse_expr("(x + y)*(x - y)", XY)
    assert e == parse_expr("x^2 - y^2", XY)


def test_parse_leading_minus():
    assert parse_expr("-x + y", XY) == parse_expr("y - x", XY)


def test_parse_rational_literals():
    assert parse_expr("2/4", XY) == Expr.const(XY, Fraction(1, 2))
    with pytest.raises(ExprSyntaxError):
        parse_expr("1/0", XY)


def test_parse_exponent_limit():
    assert cli.MAX_EXPONENT == 64
    assert parse_expr("x^64", XY) == Expr.coord(XY, "x") ** 64
    with pytest.raises(ExprSyntaxError, match="above the limit"):
        parse_expr("x^65", XY)
    # the limit bounds the result, not only the literal exponent
    assert parse_expr("(x^2)^32", XY) == Expr.coord(XY, "x") ** 64
    assert parse_expr("2^64", XY) == Expr.const(XY, 2**64)
    for text in ("(x^2)^33", "((x + y)^64)^64", "(x + y)^8^8^8", "2^64^64^64^64^64^64"):
        with pytest.raises(ExprSyntaxError, match="above the limit"):
            parse_expr(text, XY)


def test_parse_refuses_deep_nesting_without_a_traceback():
    for text in ("(" * 2000 + "x" + ")" * 2000, " + ".join(["x"] * 3000)):
        with pytest.raises(ExprSyntaxError, match="^the expression nests too deeply$"):
            parse_expr(text, XY)
    assert parse_expr(" + ".join(["x"] * 300), XY) == Expr.const(XY, 300) * Expr.coord(XY, "x")


def test_parse_rejects_garbage():
    with pytest.raises(ExprSyntaxError):
        parse_expr("x ? y", XY)
    with pytest.raises(ExprSyntaxError):
        parse_expr("x^y", XY)


def test_str_round_trip_is_canonical():
    rng = random.Random(7)
    for _ in range(40):
        e = rand_expr(rng, XYZ, max_deg=3, terms=5)
        assert parse_expr(str(e), XYZ) == e


# -- ring laws (random instances, exact) -------------------------------------


def test_ring_laws():
    rng = random.Random(11)
    for _ in range(30):
        a = rand_expr(rng, XY)
        b = rand_expr(rng, XY)
        c = rand_expr(rng, XY)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == Expr.zero(XY)
        assert a * Expr.one(XY) == a


def test_evaluation_is_a_ring_homomorphism():
    rng = random.Random(13)
    for _ in range(20):
        a = rand_expr(rng, XYZ)
        b = rand_expr(rng, XYZ)
        p = rand_point(rng, XYZ)
        assert (a + b).eval_rational(p) == a.eval_rational(p) + b.eval_rational(p)
        assert (a * b).eval_rational(p) == a.eval_rational(p) * b.eval_rational(p)


def test_patch_mismatch_raises():
    with pytest.raises(PatchMismatch):
        parse_expr("x", XY) + parse_expr("x", XYZ)


def test_power_is_step_by_step_multiplication():
    e = parse_expr("x + 2*y - 1/3", XY)
    real = Expr.__mul__
    calls = []

    def spy(a, b):
        calls.append(1)
        return real(a, b)

    for k in range(6):
        want = Expr.one(XY)
        for _ in range(k):
            want = want * e
        calls.clear()
        with mock.patch.object(Expr, "__mul__", spy):
            got = e ** k
        assert got.terms == want.terms
        # k - 1 products from e itself, and none for e ** 0
        assert len(calls) == max(k - 1, 0)
    with pytest.raises(WrongShape):
        e ** -1


# -- the validating constructor and trusted results ----------------------------


def test_public_constructor_validates():
    with pytest.raises(WrongShape, match="wrong length"):
        Expr(XY, {(1,): 1})
    e = Expr(XY, {(1, 0): Fraction(4, 2), (0, 1): 0, (0, 0): Fraction(0), (1, 1): Fraction(1, 2)})
    assert e.terms == {(1, 0): 2, (1, 1): Fraction(1, 2)}
    # an integral value is stored as an int, any other as a Fraction
    assert type(e.terms[(1, 0)]) is int
    assert type(e.terms[(1, 1)]) is Fraction
    assert Expr(XY, {(1, 0): 0}).is_zero()


def test_trusted_results_are_immutable():
    # filled through the slot setters, a kernel result still refuses assignment
    e = parse_expr("x", XY) * parse_expr("y", XY)
    assert type(e) is Expr and e.patch is XY and e.terms == {(1, 1): 1}
    for attr in ("patch", "terms"):
        with pytest.raises(AttributeError):
            setattr(e, attr, None)
    assert e.terms == {(1, 1): 1}


ONE = Expr.one(XY)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Patch("", ("x",)),
        lambda: Patch("M", ("1x",)),
        lambda: Patch("M", ("x", "x")),
        lambda: parse_expr("x", XY).substitute([ONE], XY),
        lambda: parse_expr("x", XY).eval_rational([1]),
        lambda: solve_linear(ExprMatrix.from_rows(XY, [[parse_expr("x", XY)]]), [ONE, ONE]),
        lambda: symalg._Reduction([[1]], 1).solve([ONE, ONE], XY),
        lambda: parse_expr("x + 1", XY).constant_value(),
    ],
    ids=[
        "patch-without-a-name",
        "bad-coordinate-name",
        "duplicate-coordinate",
        "substitute-count",
        "eval-rational-count",
        "right-hand-side-length",
        "chart-right-hand-side-length",
        "constant-value-of-a-non-constant",
    ],
)
def test_shape_checks_raise_wrong_shape(build):
    # caught as EngineError, the base of every error the package raises; the exponent tuple,
    # the negative power and ragged rows are checked by their own tests above and below
    with pytest.raises(EngineError) as caught:
        build()
    assert type(caught.value) is WrongShape


def test_substituting_zero_validates_the_values_first():
    zero = Expr.zero(XYZ)
    with pytest.raises(PatchMismatch):
        zero.substitute([ONE, ONE, Expr.one(XYZ)], XY)
    with pytest.raises(WrongShape):
        zero.substitute([ONE, ONE], XY)
    # a patch equal to the target, though another object, is the target
    got = zero.substitute([Expr.one(Patch("M", ("x", "y")))] * 3, XY)
    assert got.is_zero() and got.patch is XY


def test_combine_drops_cancelled_sums():
    p = parse_expr("x*y - 3", XY)
    assert symalg._combine(XY, [Fraction(1), Fraction(-1)], [p, p]).terms == {}
    q = symalg._combine(XY, [Fraction(2), Fraction(-1)], [p, parse_expr("x*y", XY)])
    assert q.terms == {(1, 1): Fraction(1), (0, 0): Fraction(-6)}


def test_zero_dimensional_patch_carries_constants():
    pt = Patch("pt", ())
    assert Expr.const(pt, 5) * Expr.const(pt, Fraction(1, 5)) == Expr.one(pt)


# -- patches are values of their name and coordinates ------------------------------------

PATCH_SPECS = st.tuples(st.sampled_from(["M", "N"]), st.lists(st.sampled_from("xyz"), max_size=3, unique=True).map(tuple))


@settings(max_examples=200, deadline=None)
@given(PATCH_SPECS, PATCH_SPECS, st.sampled_from("xyzw"))
def test_patch_is_a_value_of_its_name_and_coordinates(a, b, coord):
    p, q = Patch(*a), Patch(*b)
    assert (p == q) == (a == b) and (p != q) == (a != b)
    # the hash of the pair, so sets and dicts of patches keep their order
    assert hash(p) == hash(a) and p == Patch(*a)
    if p == q:
        # equal patches share one cache entry
        assert tangent_patch(p) is tangent_patch(q)
    if coord in p.coords:
        assert p.index(coord) == p.coords.index(coord)
    else:
        with pytest.raises(UnknownSymbol, match=f"^'{coord}' is not a coordinate of patch '{p.name}'$"):
            p.index(coord)
    # a monomial in every coordinate moves by name, or names the first coordinate missing from q
    e = Expr(p, {tuple(range(1, p.dim + 1)): 1})
    value = {c: ord(c) for c in "xyz"}
    missing = [c for c in p.coords if c not in q.coords]
    if missing:
        with pytest.raises(UnknownSymbol, match=f"^coordinate '{missing[0]}' missing from patch '{q.name}'$"):
            e.inject(q)
    else:
        moved = e.inject(q)
        assert moved.patch == q
        assert moved.eval_rational([value[c] for c in q.coords]) == e.eval_rational([value[c] for c in p.coords])


# -- calculus ------------------------------------------------------------------


def test_differentiate_basic():
    e = parse_expr("x^3*y + 2*x", XY)
    assert e.differentiate("x") == parse_expr("3*x^2*y + 2", XY)
    assert e.differentiate("y") == parse_expr("x^3", XY)


def test_partials_commute():
    rng = random.Random(17)
    for _ in range(25):
        e = rand_expr(rng, XYZ, max_deg=4, terms=5)
        for c1 in XYZ.coords:
            for c2 in XYZ.coords:
                assert e.differentiate(c1).differentiate(c2) == e.differentiate(
                    c2
                ).differentiate(c1)


def test_leibniz_rule():
    rng = random.Random(19)
    for _ in range(25):
        a = rand_expr(rng, XY)
        b = rand_expr(rng, XY)
        lhs = (a * b).differentiate("x")
        rhs = a.differentiate("x") * b + a * b.differentiate("x")
        assert lhs == rhs


def test_substitute_agrees_with_rational_evaluation():
    rng = random.Random(23)
    target = Patch("T", ("s", "t"))
    vals = [parse_expr("s^2", target), parse_expr("s - t", target), parse_expr("1", target)]
    for _ in range(15):
        e = rand_expr(rng, XYZ)
        composed = e.substitute(vals, target)
        p = rand_point(rng, target)
        direct = e.eval_rational([v.eval_rational(p) for v in vals])
        assert composed.eval_rational(p) == direct


def test_inject_preserves_values():
    e = parse_expr("x*y - 2", XY)
    big = Patch("B", ("w", "x", "y", "z"))
    f = e.inject(big)
    assert f.eval_rational([9, 2, 3, 7]) == e.eval_rational([2, 3])


# -- elimination ------------------------------------------------------------------


def numeric_rank(matrix_rows, point):
    """Oracle: exact Gaussian elimination over Fraction at a rational point."""
    rows = [[e.eval_rational(point) for e in r] for r in matrix_rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_generic_rank_examples():
    x = parse_expr("x", XY)
    y = parse_expr("y", XY)
    zero = Expr.zero(XY)
    assert generic_rank(ExprMatrix.from_rows(XY, [[x, zero], [zero, x]])) == 2
    assert generic_rank(ExprMatrix.from_rows(XY, [[x, y], [2 * x, 2 * y]])) == 1


def test_generic_rank_matches_numeric_rank_at_random_points():
    rng = random.Random(29)
    for _ in range(12):
        nr = rng.randint(1, 4)
        nc = rng.randint(1, 4)
        rows = [[rand_expr(rng, XYZ, max_deg=2, terms=2) for _ in range(nc)] for _ in range(nr)]
        g = generic_rank(ExprMatrix.from_rows(XYZ, rows))
        samples = [numeric_rank(rows, rand_point(rng, XYZ)) for _ in range(5)]
        assert max(samples) <= g
        assert max(samples) == g  # generic rank is attained at random points


def test_solve_linear_example():
    one = Expr.one(XY)
    zero = Expr.zero(XY)
    x = parse_expr("x", XY)
    y = parse_expr("y", XY)
    nums, d = solve_linear(ExprMatrix.from_rows(XY, [[one, zero], [zero, x]]), [y, x * x])
    # one denominator for the whole solution, the last Bareiss pivot
    assert d == x
    assert nums == [x * y, x * x]


def test_solve_linear_residual_is_zero_after_clearing():
    rng = random.Random(31)
    for _ in range(12):
        n = rng.randint(1, 3)
        m = rng.randint(n, 4)
        a = [[rand_expr(rng, XY, max_deg=1, terms=2) for _ in range(n)] for _ in range(m)]
        xs = [rand_expr(rng, XY, max_deg=1, terms=2) for _ in range(n)]
        b = [sum((a[i][j] * xs[j] for j in range(n)), Expr.zero(XY)) for i in range(m)]
        try:
            nums, d = solve_linear(ExprMatrix.from_rows(XY, a), b)
        except Inconsistent:
            # rank-deficient a with b built from xs is never inconsistent
            raise AssertionError("consistent system reported inconsistent")
        # the residual of nums / d, cleared of its one denominator: a*N - d*b = 0
        assert not d.is_zero()
        assert [symalg.dot(XY, zip(row, nums)) for row in a] == [d * v for v in b]


def test_solve_linear_inconsistent():
    zero = Expr.zero(XY)
    one = Expr.one(XY)
    with pytest.raises(Inconsistent):
        solve_linear(ExprMatrix.from_rows(XY, [[one], [zero]]), [zero, one])


def test_nullspace_vectors_are_polynomial_kernel_elements():
    x = parse_expr("x", XYZ)
    y = parse_expr("y", XYZ)
    z = parse_expr("z", XYZ)
    rows = [[x, y, z]]
    basis = nullspace(ExprMatrix.from_rows(XYZ, rows))
    assert len(basis) == 2
    for vec in basis:
        res = sum((rows[0][j] * vec[j] for j in range(3)), Expr.zero(XYZ))
        assert res.is_zero()


def test_nullspace_rank_nullity():
    rng = random.Random(37)
    for _ in range(10):
        nr = rng.randint(1, 3)
        nc = rng.randint(1, 4)
        a = ExprMatrix.from_rows(XY, [[rand_expr(rng, XY, max_deg=1, terms=2) for _ in range(nc)] for _ in range(nr)])
        assert generic_rank(a) + len(nullspace(a)) == nc


# -- elimination over Q for constant matrices -------------------------------------


QQ = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def constant_matrices(draw):
    """Constant matrices, square, wide or tall, of chosen rank, with zero lines."""
    nrows = draw(st.integers(1, 5))
    ncols = draw(st.integers(0, 5))
    k = draw(st.integers(0, min(nrows, ncols)))
    left = [[draw(QQ) for _ in range(k)] for _ in range(nrows)]
    right = [[draw(QQ) for _ in range(ncols)] for _ in range(k)]
    vals = [[sum((left[i][t] * right[t][j] for t in range(k)), Fraction(0)) for j in range(ncols)] for i in range(nrows)]
    for i in draw(st.sets(st.integers(0, nrows - 1), max_size=2)):
        vals[i] = [Fraction(0)] * ncols
    if ncols:
        for j in draw(st.sets(st.integers(0, ncols - 1), max_size=2)):
            for row in vals:
                row[j] = Fraction(0)
    return vals


def polys(patch):
    terms = st.dictionaries(st.tuples(*[st.integers(0, 2)] * patch.dim), QQ, max_size=3)
    return terms.map(lambda t: Expr(patch, t))


# -- accumulation: dot and substitute against the step-by-step sums -------------------


@st.composite
def product_pairs(draw):
    """Pairs of polynomials on XY, among them (a, b) next to (-a, b), whose products cancel."""
    pairs = draw(st.lists(st.tuples(polys(XY), polys(XY)), max_size=5))
    a, b = draw(polys(XY)), draw(polys(XY))
    at = draw(st.integers(0, len(pairs)))
    return pairs[:at] + [(a, b), (-a, b)] + pairs[at:]


@settings(max_examples=200, deadline=None)
@given(product_pairs())
# x cancels part-way through the second product and its last term restores it; y cancels between products
@example([(parse_expr("1", XY), parse_expr("x + y", XY)), (parse_expr("1 + x", XY), parse_expr("1 - x", XY)), (parse_expr("y", XY), parse_expr("-1", XY))])
def test_dot_is_the_sum_of_products(pairs):
    want = Expr.zero(XY)
    for a, b in pairs:
        want = want + a * b
    got = symalg.dot(XY, pairs)
    assert got.terms == want.terms and str(got) == str(want)
    # no cancelled term is stored, and the terms come in the order of the step-by-step sum
    assert all(got.terms.values()) and list(got.terms.items()) == list(want.terms.items())


def test_dot_refuses_an_operand_on_another_patch():
    x, y, z = parse_expr("x", XY), parse_expr("y", XY), parse_expr("z", XYZ)
    for pairs in ([(x, y), (x, z)], [(x, y), (z, x)], [(z, z)]):
        with pytest.raises(PatchMismatch):
            symalg.dot(XY, pairs)
    # an equal patch is the same patch, as for the ring operations
    assert symalg.dot(Patch("M", ("x", "y")), [(x, y)]) == x * y
    assert symalg.dot(XY, []) == Expr.zero(XY)


# -- zero and unit operands, and term maps a result may share ------------------------------

# a zero or a unit among the drawn operands, as the shortcuts meet them
OPERANDS = st.one_of(polys(XY), st.sampled_from([Expr.zero(XY), Expr.one(XY), -Expr.one(XY)]))


def _sum_reference(a, b):
    """a + b by the step-by-step rule: a copy of a, each term of b added in order, a cancelled term deleted."""
    out = dict(a.terms)
    for e, c in b.terms.items():
        out[e] = out.get(e, 0) + c
        if not out[e]:
            del out[e]
    return list(out.items())


@settings(max_examples=200, deadline=None)
@given(OPERANDS, OPERANDS)
@example(parse_expr("x - y + 1", XY), parse_expr("x + 2*y + 1", XY))
def test_difference_is_the_sum_with_the_negation(a, b):
    got = list((a - b).terms.items())
    assert got == list((a + (-b)).terms.items()) == _sum_reference(a, -b)
    assert list((a + b).terms.items()) == _sum_reference(a, b)


@settings(max_examples=200, deadline=None)
@given(OPERANDS, OPERANDS, OPERANDS)
@example(Expr.zero(XY), Expr.one(XY), parse_expr("x - 1", XY))
def test_operations_change_no_operand(a, b, c):
    # a result may be an operand itself or share its term map, so a result changed in place would corrupt a live Expr
    def snapshot(values):
        return [list(v.terms.items()) for v in values]

    operands = [a, b, c]
    before = snapshot(operands)
    first = [
        a + b, b + a, a - b, b - a, -a, a * b, b * a, a.differentiate("x"),
        symalg.dot(XY, [(a, b), (b, c), (a, c)]), symalg._combine(XY, [2, -1, 1], [a, b, c]),
        a.substitute([b, c], XY), b.substitute([c, c], XY),
    ]
    middle = snapshot(first)
    # each result again as an operand, and what that gives once more
    for r in first:
        for v in (r + c, c + r, r - c, c - r, r * c, symalg.dot(XY, [(r, c), (c, r), (r, r)]), symalg._combine(XY, [1, 1], [r, c])):
            v + r, v - r
    assert snapshot(operands) == before and snapshot(first) == middle


def _substitute_term_by_term(e, values, target):
    """The substitution rule before monomials were combined once: one scaled term at a time."""
    acc = Expr.zero(target)
    for exps, c in e.terms.items():
        term = Expr.const(target, c)
        for v, k in zip(values, exps):
            if k:
                term = term * v ** k
        acc = acc + term
    return acc


@settings(max_examples=120, deadline=None)
@given(polys(XYZ), st.lists(polys(XY), min_size=3, max_size=3))
def test_substitute_matches_the_term_by_term_rule(e, values):
    got = e.substitute(values, XY)
    want = _substitute_term_by_term(e, values, XY)
    assert got.terms == want.terms and str(got) == str(want)
    assert list(got.terms.items()) == list(want.terms.items())


def single_terms(patch):
    """Values of one term or none: coordinates, zero, integer and non-integral constants, scaled monomials."""
    coords = st.sampled_from([Expr.coord(patch, c) for c in patch.coords])
    constants = QQ.map(lambda c: Expr.const(patch, c))
    monomials = st.builds(lambda e, c: Expr(patch, {e: c}), st.tuples(*[st.integers(0, 2)] * patch.dim), QQ)
    return st.one_of(coords, constants, monomials)


X, Y = Expr.coord(XY, "x"), Expr.coord(XY, "y")


@settings(max_examples=200, deadline=None)
@given(
    polys(XYZ),
    st.lists(single_terms(XY), min_size=3, max_size=3),
    st.lists(st.one_of(single_terms(XY), polys(XY)), min_size=3, max_size=3),
)
# the pair groupoid's unit x -> (x, x) sends x*y and x^2 to one term; x*z restores it after the constant
@example(parse_expr("x*y - x^2 + 1 + x*z", XYZ), [X, X, X], [X, X, parse_expr("x + y", XY)])
@example(parse_expr("x*y*z + 2*z^2", XYZ), [X, Expr.zero(XY), Expr.const(XY, Fraction(2, 3))], [Expr.const(XY, 3), Y, X])
# x*y cancels the X^2 of the first term through the value x + y, and x*z restores it at the end of the map
@example(parse_expr("x^2 - x*y + x*z", XYZ), [X, Y, X], [X, parse_expr("x + y", XY), X])
def test_substitute_by_single_terms_matches_the_term_by_term_rule(e, singles, mixed):
    for values in (singles, mixed):
        got = e.substitute(values, XY)
        want = _substitute_term_by_term(e, values, XY)
        assert got.terms == want.terms and str(got) == str(want)
        assert list(got.terms.items()) == list(want.terms.items())


def test_substitute_builds_no_expr_but_its_result(monkeypatch):
    # multi-term values raised to powers k >= 2, a constant term and a zero value: no power, product or unit
    cases = [
        (parse_expr("x^2*y + z", XYZ), [parse_expr("x + y", XY), Y, X]),
        (parse_expr("3 + x^3*z - y*z^2 + x*z^2", XYZ), [parse_expr("x - 1", XY), Expr.zero(XY), parse_expr("x*y + 2", XY)]),
    ]
    built = []
    trusted = Expr._trusted

    def spy(patch, terms):
        built.append(patch)
        return trusted(patch, terms)

    monkeypatch.setattr(Expr, "_trusted", staticmethod(spy))
    for e, values in cases:
        built.clear()
        got = e.substitute(values, XY)
        assert built == [XY]
        want = _substitute_term_by_term(e, values, XY)
        assert list(got.terms.items()) == list(want.terms.items())


@st.composite
def constant_systems(draw):
    """A constant matrix and a polynomial right-hand side.

    ``b = a*x`` for polynomial ``x`` is consistent; adding a perturbation
    usually leaves the column span when ``a`` is rank deficient.
    """
    vals = draw(constant_matrices())
    a = ExprMatrix.from_rows(XY, [[Expr.const(XY, v) for v in row] for row in vals])
    return a, _right_hand_side(draw, a)


def _right_hand_side(draw, a):
    xs = [draw(polys(XY)) for _ in range(a.ncols)]
    b = [_combine_row(row, xs) for row in a.entries]
    if draw(st.booleans()):
        i = draw(st.integers(0, a.nrows - 1))
        b[i] = b[i] + draw(polys(XY))
    return b


@st.composite
def constant_questions(draw):
    """One constant matrix and, in drawn order, its rank, its kernel and two or three right-hand sides."""
    vals = draw(constant_matrices())
    a = ExprMatrix.from_rows(XY, [[Expr.const(XY, v) for v in row] for row in vals])
    questions = ["rank", "kernel"] + [_right_hand_side(draw, a) for _ in range(draw(st.integers(2, 3)))]
    return a, draw(st.permutations(questions))


def _combine_row(row, xs):
    return sum((e * x for e, x in zip(row, xs)), Expr.zero(XY))


def _by_bareiss(fn, *args):
    """``fn(*args)`` with the Q route and the rank certificate switched off.

    Every matrix then answers from a fraction-free ``_FractionFree`` reduction
    built directly on it, a matrix of constants too, and not one it has
    already made and kept.
    """
    with mock.patch.object(ExprMatrix, "_reduced", property(lambda self: symalg._FractionFree(self))), mock.patch.object(
        symalg, "_point_values_mod_p", lambda m: None
    ):
        return fn(*args)


def _ask(a, question):
    if question == "rank":
        return generic_rank(a)
    if question == "kernel":
        return nullspace(a)
    if isinstance(question, tuple):
        return in_span(a, question[1])
    return _solve_or_inconsistent(a, question)


def _solve_or_inconsistent(a, b):
    try:
        return solve_linear(a, b)
    except Inconsistent:
        return Inconsistent


def _same_answer(fast, slow):
    """Equal answers, a solution (N, d) as a fraction: N * d' == N' * d."""
    if isinstance(fast, tuple) and isinstance(slow, tuple):
        (n1, d1), (n2, d2) = fast, slow
        return [u * d2 for u in n1] == [v * d1 for v in n2]
    return fast == slow


DIFF = settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@DIFF
@given(constant_matrices())
# mixed signs, zero entries and a zero column: the cleared vectors keep their signs
@example(
    [
        [Fraction(2, 3), Fraction(-4, 9), Fraction(0), Fraction(-1, 2), Fraction(0)],
        [Fraction(0), Fraction(3, 4), Fraction(0), Fraction(5, 6), Fraction(-7, 3)],
    ]
)
def test_rational_rank_and_nullspace_match_bareiss(vals):
    a = ExprMatrix.from_rows(XY, [[Expr.const(XY, v) for v in row] for row in vals])
    assert symalg._rational_rows([list(r) for r in a.entries]) is not None
    assert generic_rank(a) == _by_bareiss(generic_rank, a)
    assert nullspace(a) == _by_bareiss(nullspace, a)


@DIFF
@given(constant_systems())
@example(
    (
        ExprMatrix.from_rows(XY, [[Expr.one(XY), Expr.one(XY)], [Expr.const(XY, 2), Expr.const(XY, 2)]]),
        [parse_expr("x", XY), parse_expr("2*x + y^2", XY)],
    )
)
def test_rational_solve_matches_bareiss(system):
    a, b = system
    fast = _solve_or_inconsistent(a, b)
    assert _same_answer(fast, _by_bareiss(_solve_or_inconsistent, a, b))
    if fast is not Inconsistent:
        # over Q the one denominator is 1: the numerators are the solution
        sol, d = fast
        assert d == Expr.one(XY)
        assert [_combine_row(row, sol) for row in a.entries] == b


@DIFF
@given(constant_questions())
def test_one_constant_matrix_is_reduced_once_for_every_question(problem):
    # every answer on the kept reduction equals the Bareiss route, asked of the same object
    a, questions = problem
    with mock.patch.object(symalg, "_gauss_jordan", wraps=symalg._gauss_jordan) as gauss_jordan:
        for question in questions:
            fast = _ask(a, question)
            with mock.patch.object(symalg, "_FractionFree", wraps=symalg._FractionFree) as fraction_free:
                assert _same_answer(fast, _by_bareiss(_ask, a, question))
            assert fraction_free.called or (question == "rank" and not a.ncols)
    assert gauss_jordan.call_count == 1


def test_rational_solve_reports_inconsistent_on_zero_rows():
    zero, one, x = Expr.zero(XY), Expr.one(XY), parse_expr("x", XY)
    a = ExprMatrix.from_rows(XY, [[one, zero], [zero, zero]])
    with pytest.raises(Inconsistent):
        solve_linear(a, [one, x])
    assert solve_linear(a, [x, zero]) == ([x, zero], one)


@settings(max_examples=60, deadline=None)
@given(constant_matrices())
def test_rational_rank_and_nullity_match_sympy(vals):
    sympy = pytest.importorskip("sympy")
    a = ExprMatrix.from_rows(XY, [[Expr.const(XY, v) for v in row] for row in vals])
    ref = sympy.Matrix(len(vals), len(vals[0]), [sympy.Rational(v.numerator, v.denominator) for row in vals for v in row])
    assert generic_rank(a) == ref.rank()
    assert len(nullspace(a)) == len(ref.nullspace())


# -- rank certificate: point rank mod p from below, term rank from above ------------------

# zero at the certificate point x = 2/7, y = 3/7, so rows scaled by them have
# a point rank below the generic rank and force the fallback
VANISHING = ("7*x - 2", "7*y - 3", "49*x*y - 6")


def small_polys(patch):
    terms = st.dictionaries(st.tuples(*[st.integers(0, 1)] * patch.dim), QQ, max_size=2)
    return terms.map(lambda t: Expr(patch, t))


@st.composite
def poly_matrices(draw):
    """Polynomial matrices of chosen rank (a product of two random factors).

    Up to two rows are scaled by polynomials that vanish at the certificate
    point; that keeps the generic rank and lowers the point rank.
    """
    nrows = draw(st.integers(1, 4))
    ncols = draw(st.integers(1, 4))
    k = draw(st.integers(0, min(nrows, ncols)))
    left = [[draw(small_polys(XY)) for _ in range(k)] for _ in range(nrows)]
    right = [[draw(small_polys(XY)) for _ in range(ncols)] for _ in range(k)]
    rows = [[sum((left[i][t] * right[t][j] for t in range(k)), Expr.zero(XY)) for j in range(ncols)] for i in range(nrows)]
    for i in draw(st.sets(st.integers(0, nrows - 1), max_size=2)):
        f = parse_expr(draw(st.sampled_from(VANISHING)), XY)
        rows[i] = [e * f for e in rows[i]]
    return ExprMatrix.from_rows(XY, rows)


@st.composite
def block_matrices(draw):
    """[a 0; 0 b] for two drawn polynomial matrices, rows shuffled: zero blocks, often rank deficient.

    The zero blocks lower the term rank, the upper bound of the certificate,
    as the zero blocks of a foliation frame do.
    """
    a, b = draw(poly_matrices()), draw(poly_matrices())
    zero = Expr.zero(XY)
    rows = [row + (zero,) * b.ncols for row in a.entries] + [(zero,) * a.ncols + row for row in b.entries]
    return ExprMatrix.from_rows(XY, draw(st.permutations(rows)))


def _matrix(*rows):
    return ExprMatrix.from_rows(XY, [[parse_expr(e, XY) for e in row] for row in rows])


def test_rank_certificate_point_is_fixed():
    assert symalg._rank_point(XYZ.dim) == (Fraction(2, 7), Fraction(3, 7), Fraction(4, 7))
    for text in VANISHING:
        assert parse_expr(text, XY).eval_rational(symalg._rank_point(XY.dim)) == 0


def test_rank_certificate_falls_back_below_full_point_rank():
    real = symalg._FractionFree
    calls = []

    def spy(a):
        calls.append(a.nrows)
        return real(a)

    with mock.patch.object(symalg, "_FractionFree", spy):
        assert generic_rank(_matrix(["x", "y"], ["y", "x"], ["1", "x*y"])) == 2
        assert calls == []  # certified at the point
        assert generic_rank(_matrix(["x", "0"], ["0", "0"])) == 1
        assert generic_rank(_matrix(["x", "0"], ["y", "0"])) == 1
        assert generic_rank(_matrix(["x", "y", "0"], ["y", "x", "0"], ["0", "0", "0"])) == 2
        assert calls == []  # point rank below full, equal to the term rank
        assert generic_rank(_matrix(["7*x - 2", "0"], ["0", "7*y - 3"])) == 2
        assert calls == [2]  # point rank 0, generic rank 2
        assert generic_rank(_matrix(["x", "y"], ["2*x", "2*y"])) == 1
        assert calls == [2, 2]  # rank deficient with term rank 2: the bounds disagree
        # point rank 1, term rank 2: a matching that never moves the first row off column 1 stops at 1
        assert generic_rank(_matrix(["x", "7*y - 3"], ["x", "0"])) == 2
        assert calls == [2, 2, 2]


def _largest_matching(support, used=frozenset()):
    """The most rows that get distinct columns of their own support, by trying every choice."""
    if not support:
        return 0
    rest = support[1:]
    return max([_largest_matching(rest, used)] + [1 + _largest_matching(rest, used | {j}) for j in support[0] if j not in used])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(st.lists(st.booleans(), min_size=n, max_size=n), min_size=1, max_size=5)))
def test_term_rank_is_the_largest_matching(pattern):
    x = parse_expr("x", XY)
    m = ExprMatrix.from_rows(XY, [[x if b else Expr.zero(XY) for b in row] for row in pattern])
    assert symalg._term_rank(m) == _largest_matching([[j for j, b in enumerate(row) if b] for row in pattern])


@DIFF
@given(st.one_of(poly_matrices(), block_matrices()))
@example(_matrix(["7*x - 2", "0"], ["0", "7*y - 3"]))
@example(_matrix(["7*x - 2", "x"], ["0", "49*x*y - 6"], ["7*y - 3", "y"]))
@example(_matrix(["x*(7*y - 3)", "y"], ["x^2*(7*y - 3)", "x*y"]))
@example(_matrix(["x", "y", "0"], ["2*x", "2*y", "0"], ["0", "0", "7*x - 2"]))
@example(_matrix(["x", "7*y - 3"], ["x", "0"]))
def test_generic_rank_matches_bareiss_on_polynomial_matrices(m):
    assert generic_rank(m) == _by_bareiss(generic_rank, m)


def _mod(v, p):
    return v.numerator * pow(v.denominator, -1, p) % p


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_point_values_mod_p_are_the_point_values_mod_p(data):
    # seven coordinates, so that one coordinate of the point, 7/7, is an integer
    patch = Patch("P7", tuple("abcdefg"))
    p = symalg._P
    assert p == 2**61 - 1
    nrows, ncols = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    rows = [[data.draw(polys(patch) if data.draw(st.booleans()) else int_polys(patch)) for _ in range(ncols)] for _ in range(nrows)]
    # a coefficient above p, and one below -p
    rows[0][0] = rows[0][0] + Expr(patch, {(1,) + (0,) * 6: 3 * p + 5, (0, 2) + (0,) * 5: Fraction(-5 * p - 1, 3)})
    m = ExprMatrix.from_rows(patch, rows)
    point = symalg._rank_point(patch.dim)
    assert symalg._point_values_mod_p(m) == [[_mod(e.eval_rational(point), p) for e in row] for row in rows]


def test_a_denominator_divisible_by_p_skips_the_certificate():
    p = symalg._P
    x, y = Expr.coord(XY, "x"), Expr.coord(XY, "y")
    over_p = Expr(XY, {(1, 0): Fraction(1, p)})
    singular = ExprMatrix.from_rows(XY, [[over_p, y], [x, y * p]])  # determinant x*y - x*y
    regular = ExprMatrix.from_rows(XY, [[over_p, Expr.zero(XY)], [Expr.zero(XY), y]])
    for m, rank in ((singular, 1), (regular, 2)):
        assert symalg._point_values_mod_p(m) is None
        with mock.patch.object(symalg, "_FractionFree", wraps=symalg._FractionFree) as fraction_free:
            assert generic_rank(m) == rank
        assert fraction_free.call_count == 1
        assert _by_bareiss(generic_rank, ExprMatrix(m.patch, m.entries)) == rank


@st.composite
def polynomial_questions(draw):
    """One polynomial matrix and, in drawn order, its rank, its kernel, two span questions and three right-hand sides."""
    a = draw(poly_matrices())
    questions = ["rank", "kernel"] + [("span", _right_hand_side(draw, a)) for _ in range(2)]
    questions += [_right_hand_side(draw, a) for _ in range(3)]
    return a, draw(st.permutations(questions))


@DIFF
@given(polynomial_questions())
@example((_matrix(["x", "y"], ["2*x", "2*y"]), ["rank", "kernel", ("span", [parse_expr("x", XY), parse_expr("y", XY)])]))
def test_one_polynomial_matrix_is_eliminated_at_most_once(problem):
    # every answer on the kept reduction equals the answer of a fresh copy of the matrix
    a, questions = problem
    with mock.patch.object(symalg, "_FractionFree", wraps=symalg._FractionFree) as fraction_free:
        answers = [_ask(a, question) for question in questions]
    assert fraction_free.call_count <= 1
    assert answers == [_ask(ExprMatrix(a.patch, a.entries), question) for question in questions]


@st.composite
def span_questions(draw):
    """A polynomial or constant matrix and a column, in its span or, when perturbed, usually not."""
    vals = draw(constant_matrices())
    constant = ExprMatrix.from_rows(XY, [[Expr.const(XY, v) for v in row] for row in vals])
    a = draw(st.sampled_from([constant, draw(poly_matrices())]))
    return a, _right_hand_side(draw, a)


@DIFF
@given(span_questions())
@example((_matrix(["x", "y"], ["2*x", "2*y"]), [parse_expr("x", XY), parse_expr("2*x + 1", XY)]))
def test_in_span_matches_the_augmented_rank_rule(problem):
    m, column = problem
    # the rule in_span replaces: append the column and compare generic ranks
    joint = ExprMatrix.from_rows(m.patch, [row + (c,) for row, c in zip(m.entries, column)])
    assert in_span(m, column) == (generic_rank(joint) == generic_rank(m))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(poly_matrices(), block_matrices()))
def test_generic_rank_matches_sympy_on_polynomial_matrices(m):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    ref = DomainMatrix.from_Matrix(sympy.Matrix([[_to_sympy(sympy, e) for e in row] for row in m.entries]))
    assert generic_rank(m) == ref.to_field().rank()


# -- the kernel against sympy ------------------------------------------------------------

KERNEL_NAMES = ("a", "b", "c", "d")


def _assert_canonical(e):
    for exps, c in e.terms.items():
        # an int or a Fraction, never a float or a bool
        assert type(c) in (int, Fraction) and c != 0
        assert type(exps) is tuple and len(exps) == e.patch.dim
        assert all(type(k) is int and k >= 0 for k in exps)


def _to_sympy(sympy, e):
    gens = sympy.symbols(e.patch.coords)
    return sum(
        (sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(g**k for g, k in zip(gens, exps))) for exps, c in e.terms.items()),
        sympy.Integer(0),
    )


def _agrees(sympy, e, expected):
    """``e`` is canonical and has the term map of the sympy expression ``expected``."""
    _assert_canonical(e)
    poly = sympy.Poly(sympy.expand(expected), *sympy.symbols(e.patch.coords), domain="QQ")
    want = {exps: Fraction(int(c.p), int(c.q)) for exps, c in poly.terms() if c}
    assert e.terms == want


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_kernel_matches_sympy(data):
    sympy = pytest.importorskip("sympy")
    dim = data.draw(st.integers(1, 4), label="dim")
    patch = Patch(f"K{dim}", KERNEL_NAMES[:dim])
    a = data.draw(polys(patch), label="a")
    b = data.draw(polys(patch), label="b")
    sa, sb = _to_sympy(sympy, a), _to_sympy(sympy, b)
    _assert_canonical(a)
    _agrees(sympy, a + b, sa + sb)
    _agrees(sympy, a - b, sa - sb)
    _agrees(sympy, -a, -sa)
    _agrees(sympy, a * b, sa * sb)
    k = data.draw(st.integers(0, 6), label="k")
    _agrees(sympy, a**k, sa**k)
    for name in patch.coords:
        _agrees(sympy, a.differentiate(name), sympy.diff(sa, sympy.Symbol(name)))

    target = Patch("T", ("s", "t", "u")[: data.draw(st.integers(1, 3), label="target dim")])
    values = [data.draw(small_polys(target), label="value") for _ in patch.coords]
    swap = {sympy.Symbol(n): _to_sympy(sympy, v) for n, v in zip(patch.coords, values)}
    _agrees(sympy, a.substitute(values, target), sa.xreplace(swap))

    wider = Patch("W", tuple(data.draw(st.permutations(patch.coords + ("e",)), label="wider")))
    _agrees(sympy, a.inject(wider), sa)

    if not b.is_zero():
        _agrees(sympy, (a * b).divide_exact(b), sa)
        sq, sr = sympy.div(sympy.Poly(sa, *sympy.symbols(patch.coords), domain="QQ"), sympy.Poly(sb, *sympy.symbols(patch.coords), domain="QQ"))
        q = a.divide_exact(b)
        if sr.is_zero:
            _agrees(sympy, q, sq.as_expr())
        else:
            assert q is None


# -- solutions over a constant denominator -------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(polys(XYZ), QQ.filter(bool))
def test_constant_denominator_shortcut_matches_division(num, c):
    # a 1 x 1 constant system [c] x = num is solved over Q: its one denominator is 1 and its
    # numerator is what the exact division by c returns
    den = Expr.const(XYZ, c)
    (got_num,), got_den = solve_linear(ExprMatrix.from_rows(XYZ, [[den]]), [num])
    want_num = num.divide_exact(den)
    assert got_num.terms == want_num.terms
    assert str(got_num) == str(want_num)
    assert got_den == Expr.one(XYZ)


NONZERO = polys(XYZ).filter(lambda e: not e.is_zero())


def test_expr_matrix_shape_checks():
    one = Expr.one(XY)
    m = ExprMatrix.from_rows(XY, [[one, one], [one, one]])
    assert m.nrows == 2 and m.ncols == 2
    assert m.transpose().entries == m.entries
    with pytest.raises(WrongShape):
        ExprMatrix.from_rows(XY, [[one], [one, one]])


# -- integer coefficients -------------------------------------------------------------------

ZZ = st.integers(-4, 4)


def int_polys(patch, degree=2, size=3):
    terms = st.dictionaries(st.tuples(*[st.integers(0, degree)] * patch.dim), ZZ, max_size=size)
    return terms.map(lambda t: Expr(patch, t))


def _as_fractions(e):
    """``e`` with every coefficient an integral Fraction, built as a kernel result is built."""
    return Expr._trusted(e.patch, {exps: Fraction(c) for exps, c in e.terms.items()})


def _terms(value):
    """Term maps in insertion order, with their printed form, of a result or a nest of them."""
    if isinstance(value, Expr):
        return list(value.terms.items()), str(value)
    if isinstance(value, (list, tuple)):
        return [_terms(v) for v in value]
    return value


@st.composite
def integer_problems(draw):
    """Two polynomials, a matrix (polynomial, of chosen rank, or constant) and a column, all with integer coefficients."""
    a, b = draw(int_polys(XY)), draw(int_polys(XY))
    nrows, ncols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    if draw(st.booleans()):
        k = draw(st.integers(0, min(nrows, ncols)))
        left = [[draw(int_polys(XY, 1, 2)) for _ in range(k)] for _ in range(nrows)]
        right = [[draw(int_polys(XY, 1, 2)) for _ in range(ncols)] for _ in range(k)]
        rows = [[symalg.dot(XY, zip(left[i], [r[j] for r in right])) for j in range(ncols)] for i in range(nrows)]
    else:
        rows = [[Expr.const(XY, draw(ZZ)) for _ in range(ncols)] for _ in range(nrows)]
    column = [draw(int_polys(XY, 1, 2)) for _ in range(nrows)]
    return a, b, rows, column


def _kernel_results(a, b, rows, column):
    """Every kernel operation on one problem, in a fixed order."""
    m = ExprMatrix.from_rows(XY, rows)
    out = [a + b, a - b, a * b, a.differentiate("x"), a.substitute([b, a], XY), a.divide_exact(b) if b.terms else None]
    if b.terms:
        out.append((a * b).divide_exact(b))
    out += [generic_rank(m), nullspace(m), in_span(m, column), _solve_or_inconsistent(m, column)]
    return out


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(integer_problems())
@example((parse_expr("2*x*y - 4", XY), parse_expr("2*x", XY), [[parse_expr("2*x", XY), parse_expr("4*y", XY)]], [parse_expr("6", XY)]))
def test_integer_coefficients_match_integral_fractions(problem):
    a, b, rows, column = problem
    got = _kernel_results(a, b, rows, column)
    want = _kernel_results(_as_fractions(a), _as_fractions(b), [[_as_fractions(e) for e in row] for row in rows], [_as_fractions(e) for e in column])
    # equal term maps in the same insertion order, printed alike
    assert _terms(got) == _terms(want)
    for value in (a + b, a * b, a.differentiate("y"), a.substitute([b, a], XY)):
        assert all(type(c) is int for c in value.terms.values())


def _divide_by_scan(num, den):
    """``divide_exact`` before the heap: every leading term found by a scan of the whole remainder, rebuilt per step."""
    rem = num
    quot = {}
    de, dc = den.leading()
    while not rem.is_zero():
        re_, rc = rem.leading()
        qe = tuple(a - b for a, b in zip(re_, de))
        if any(k < 0 for k in qe):
            return None
        quot[qe] = Fraction(rc) / dc
        rem = rem - Expr._trusted(num.patch, {qe: quot[qe]}) * den
    return Expr._trusted(num.patch, quot)


@settings(max_examples=300, deadline=None)
@given(polys(XYZ), NONZERO, polys(XYZ), st.booleans())
@example(parse_expr("x^2 + x*y + 1", XYZ), parse_expr("x + y - z", XYZ), parse_expr("y^2 - 2", XYZ), True)
def test_divide_exact_matches_the_scan(q, d, r, exact):
    num = q * d if exact else q * d + r
    got, want = num.divide_exact(d), _divide_by_scan(num, d)
    assert (got is None) == (want is None)
    if got is not None:
        # the same quotient, its terms in the same insertion order
        assert list(got.terms.items()) == list(want.terms.items())


# -- fraction-free results: one denominator per solution, primitive kernel vectors ----------------

# the entries of tests/test_golden.py's elimination_lines: up to three terms of degree at most 2
# with integer coefficients, or rational constants
GOLDEN_POLYS = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(lambda e: sum(e) <= 2), st.integers(-3, 3), max_size=3
).map(lambda t: Expr(XY, t))
GOLDEN_CONSTANTS = st.builds(
    lambda n, d: Expr.const(XY, Fraction(n, d)), st.sampled_from([0, 0, 1, -1, 2, -3]), st.sampled_from([1, 1, 2, 3])
)


@st.composite
def elimination_problems(draw):
    """A 1-4 x 1-4 matrix on (x, y), constant or polynomial, sometimes with a row that is a
    multiple of an earlier one, and two right-hand sides: a times a drawn vector, and a drawn one."""
    constant = draw(st.booleans())
    entries = GOLDEN_CONSTANTS if constant else GOLDEN_POLYS
    nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rows = [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]
    if nrows > 1 and draw(st.booleans()):
        k = draw(st.integers(1, nrows - 1))
        factor = draw(entries)
        rows[k] = [factor * e for e in rows[draw(st.integers(0, k - 1))]]
    xs = [draw(entries) for _ in range(ncols)]
    consistent = [symalg.dot(XY, zip(row, xs)) for row in rows]
    drawn = [draw(entries) for _ in range(nrows)]
    return ExprMatrix.from_rows(XY, rows), constant, consistent, drawn


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(elimination_problems())
@example((_matrix(["x", "0", "y"], ["x*y", "y", "0"]), False, [parse_expr("x", XY), parse_expr("y", XY)], [ONE, ONE]))
def test_solutions_and_kernels_are_fraction_free(problem):
    a, constant, consistent, drawn = problem
    # the free columns: those that add nothing to the rank of the columns before them
    ranks = [generic_rank(ExprMatrix.from_rows(XY, [row[:c] for row in a.entries])) for c in range(a.ncols + 1)]
    free = [c for c in range(a.ncols) if ranks[c + 1] == ranks[c]]
    for b in (consistent, drawn):
        try:
            nums, d = solve_linear(a, b)
        except Inconsistent:
            assert b is drawn and not in_span(a, b)
            continue
        # a*N = d*b with one non-zero d, 1 over Q, and the free entries zero
        assert not d.is_zero()
        if constant:
            assert d == ONE
        assert [symalg.dot(XY, zip(row, nums)) for row in a.entries] == [d * v for v in b]
        assert all(nums[c].is_zero() for c in free)
    kernel = nullspace(a)
    assert len(kernel) == len(free) == a.ncols - generic_rank(a)
    for fc, vec in zip(free, kernel):
        assert all(symalg.dot(XY, zip(row, vec)).is_zero() for row in a.entries)
        # polynomial with integer coefficients of content 1
        coeffs = [c for e in vec for c in e.terms.values()]
        assert all(Fraction(c).denominator == 1 for c in coeffs) and math.gcd(*map(int, coeffs)) == 1
        # its own free entry non-zero with a positive leading coefficient, the other free entries zero:
        # that fixes the vector up to a polynomial factor
        assert not vec[fc].is_zero() and vec[fc].leading()[1] > 0
        assert all(vec[c].is_zero() for c in free if c != fc)
