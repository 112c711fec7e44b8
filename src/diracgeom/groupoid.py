"""Polynomial groupoids on global charts and their multiplicative structures.

A groupoid is stored as explicit polynomial structure maps together with a
solved chart of composable pairs: ``comp_chart`` parametrizes the pairs and
``g_of``/``h_of``/``mul`` read off the left factor, the right factor, and the
product.  Keeping the pair space as a chart of its own (instead of an implicit
constraint variety) keeps every derived computation polynomial.

Left and right translations are never supplied by the caller; they are
recovered from ``mul`` by freezing one argument, which is a constrained
derivative along the chart.  That single mechanism drives the right-invariant
frames, the cotangent target, and the multiplicativity checks.  The cotangent
source is not a second mechanism: T*G inverts by ξ ↦ −(T inv)*ξ, and its
source is its target after that inversion, as s = t ∘ inv on G.
One helper, ``_end``, builds an end of TG ⊕ T*G ⇒ TM ⊕ A* at a point: Ts or
Tt on the tangent half, and on the covector half the fibre rows of the
cotangent source or target, kept on the arrow chart, so no T*G or A* chart
is built.  The checks read the ends at the two factors of a pair and along
units.  A passing unit item carries no witness.  The multiplication of
TG ⊕ T*G has one helper too: ``_tangent_product`` applies Tm to the chart
direction with two given factor vectors, and ``_product`` follows it with
the product covector that the pairing identity pins down.

Data derived from the structure maps is computed once per ``GroupoidPatch``,
on first use, and kept on the instance: the solved pair chart, the chart of
composable triples, the kernel frame along units and its right-invariant
extensions, the Lie algebroid of that frame, the fibre rows of the cotangent
source and target, the four ends the checks read, the unit-covector matrix,
the product-covector system, and a group's translation matrices.  Each structure map keeps its own Jacobian
(``PolyMap.jacobian``).  Every check on the same instance reads the same copy.

Cotangent unit convention: the unit covector over ``xi`` at ``eps(x)`` is the
unique covector annihilating the image of ``T eps`` and restricting to ``xi``
on the kernel of ``Ts``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations, combinations_with_replacement, permutations, product
from typing import NamedTuple, Sequence

from .algebroid import AlgebroidPatch, IMTwoForm
from .cartan import Bivector, KForm, PolyMap, VField, _pushed_entries, interior_product, lie_bracket, pullback_form
from .courant import Frame, GSec, check_lagrangian, courant_bracket, pairing
from .errors import (
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
from .report import CheckItem, Report
from .symalg import (
    MAX_DIMENSION,
    Expr,
    ExprMatrix,
    Patch,
    _combine,
    _rational_rows,
    _Reduction,
    _Value,
    dot,
    fresh_names,
    generic_rank,
    in_span,
    nullspace,
    solve_linear,
)
from .tanlift import tangent_map, tangent_patch


class GroupoidPatch(_Value):
    """Groupoid structure maps over global polynomial charts, plus their derived data.

    Immutable; equal and hashing alike when the structure maps agree.
    """

    _FIELDS = ("base", "total", "src", "tgt", "unit", "inv", "comp_chart", "g_of", "h_of", "mul")

    def __init__(
        self, base: Patch, total: Patch, src: PolyMap, tgt: PolyMap, unit: PolyMap, inv: PolyMap,
        comp_chart: Patch, g_of: PolyMap, h_of: PolyMap, mul: PolyMap,
    ):
        if total.dim == 0:
            # the checks solve linear systems on the arrow charts, which
            # would have no rows: pair_groupoid of a point, the trivial group
            raise WrongShape(f"groupoid {total.name} needs at least one arrow coordinate")
        expected = (
            (src, total, base),
            (tgt, total, base),
            (unit, base, total),
            (inv, total, total),
            (g_of, comp_chart, total),
            (h_of, comp_chart, total),
            (mul, comp_chart, total),
        )
        for m, source, target in expected:
            if m.source != source or m.target != target:
                raise WrongShape(f"structure map {m} should go {source.name} -> {target.name}")
        self._fill(base, total, src, tgt, unit, inv, comp_chart, g_of, h_of, mul)

    # Derived data: cached properties, outside _FIELDS, so equality and hashing
    # see the structure maps only.  A property that raises caches nothing.

    @cached_property
    def _chart(self) -> _ChartData:
        """The pair chart solved over Q; ``ChartMismatch`` when it cannot be solved."""
        g_part, h_part = _affine_rows(self.g_of), _affine_rows(self.h_of)
        if g_part is None or h_part is None:
            raise ChartMismatch("factor projections must be affine in the chart coordinates")
        reduction = _Reduction(g_part[0] + h_part[0], self.comp_chart.dim)
        # the chart must embed into the pair space, otherwise factors do not pin it down
        if len(reduction.pivots) != self.comp_chart.dim:
            raise ChartMismatch("the composable-pair chart has directions that move neither factor")
        return _ChartData(*g_part, *h_part, reduction)

    @cached_property
    def _triples(self) -> tuple[Patch, tuple[Expr, ...], tuple[Expr, ...]]:
        """The composable-triple chart and the pair-chart points of its two pairs.

        ``ChartMismatch`` when the pair chart cannot be solved or no triple fits on it.
        """
        data = self._chart
        d = self.comp_chart.dim
        # composable triples: h_of of the first pair equals g_of of the second
        triples = _Reduction([a_h + tuple(-q for q in a_g) for a_g, a_h in zip(data.a_g, data.a_h)], 2 * d)
        kernel = triples.kernel()
        if len(kernel) > MAX_DIMENSION:
            raise WrongShape(f"the composable-triple chart has {len(kernel)} coordinates, above the limit of {MAX_DIMENSION}")
        tri = Patch(self.comp_chart.name + "_triples", tuple(fresh_names("tau", len(kernel), ())))
        coords = [Expr.coord(tri, c) for c in tri.coords]
        try:
            part = triples.solve([Expr.const(tri, data.c_g[i] - data.c_h[i]) for i in range(self.total.dim)], tri)
        except Inconsistent:
            raise ChartMismatch("no composable triples fit on the chart") from None
        z = tuple(p + _combine(tri, [vec[j] for vec in kernel], coords) for j, p in enumerate(part))
        return tri, z[:d], z[d:]

    @cached_property
    def _frame(self) -> tuple[tuple[Expr, ...], ...]:
        """Frame of the source-map kernel along units."""
        m, n_total = self.base, self.total.dim
        if m.dim == 0:
            return tuple(tuple(Expr.const(m, 1 if i == a else 0) for i in range(n_total)) for a in range(n_total))
        js_unit = _subst_matrix(self.src.jacobian().entries, list(self.unit.components), m)
        basis = nullspace(ExprMatrix.from_rows(m, js_unit))
        if len(basis) != n_total - m.dim:
            raise RankJump(
                f"kernel of the source map has rank {len(basis)} along units, expected {n_total - m.dim}"
            )
        return tuple(tuple(vec) for vec in basis)

    @cached_property
    def _fields(self) -> tuple[VField, ...]:
        return tuple(_right_invariant_fields(self, self._frame))

    @cached_property
    def _algebroid(self) -> AlgebroidPatch:
        return _algebroid_on(self, self._frame, self._fields)

    @cached_property
    def _fibre_rows(self) -> tuple[tuple[tuple[Expr, ...], ...], tuple[tuple[Expr, ...], ...]]:
        """Rows on the arrow chart that pair a covector at g into A*: the source's, then the target's.

        The target's row a is the right-invariant field a^r(g).  The source is
        the target after the inversion ξ ↦ −(T inv)*ξ of T*G, so its row a is
        −J_inv(g⁻¹)·a^r(g⁻¹), read off the field's stored components.
        """
        total = self.total
        g_inv = list(self.inv.components)
        j_inv = _subst_matrix(self.inv.jacobian().entries, g_inv, total)
        s_rows = []
        for field in self._fields:
            at_inv = [(j, -c.substitute(g_inv, total)) for (j,), c in field.coeffs.items()]
            s_rows.append(tuple(dot(total, ((row[j], c) for j, c in at_inv)) for row in j_inv))
        return tuple(s_rows), tuple(field.components() for field in self._fields)

    @cached_property
    def _ends(self) -> tuple:
        """The source of TG ⊕ T*G at the left factor and its target at the right one, then both along units."""
        chart, eps = self.comp_chart, list(self.unit.components)
        pair = (_end(self, 0, list(self.g_of.components), chart), _end(self, 1, list(self.h_of.components), chart))
        return pair + (_end(self, 0, eps, self.base), _end(self, 1, eps, self.base))

    @cached_property
    def _unit_covectors(self) -> ExprMatrix:
        """[Tεᵀ; frame]: a unit covector annihilates the image of Tε and restricts to its fibre value on the frame."""
        return ExprMatrix(self.base, self.unit.jacobian().transpose().entries + self._frame)

    @cached_property
    def _product_system(self) -> tuple[ExprMatrix, tuple[tuple[Fraction, ...], ...]]:
        """The transposed multiplication Jacobian, its rank checked, and the factor rows pulled back to the pair chart."""
        data = self._chart
        mat = self.mul.jacobian().transpose()
        if generic_rank(mat) != self.total.dim:
            raise RankDeficient("the pairing identity does not pin down the product covector")
        return mat, tuple(zip(*(data.a_g + data.a_h)))

    @cached_property
    def _translations(self) -> tuple[tuple[tuple[Expr, ...], ...], ...]:
        """Derivatives of left and right translation on the pair chart, column by moved coordinate."""
        chart = self.comp_chart
        translate = _tangent_product(self, None, chart)
        n_total = self.total.dim
        zero = [Expr.zero(chart)] * n_total
        basis = [[Expr.const(chart, 1 if k == i else 0) for k in range(n_total)] for i in range(n_total)]
        # left translation moves the right factor, right translation the left one
        return tuple(zip(*(translate(zero, e) for e in basis))), tuple(zip(*(translate(e, zero) for e in basis)))


# -- solved-chart linear data ---------------------------------------------------------

class _ChartData(NamedTuple):
    """Affine parts of g_of and h_of, and the reduction over Q of their stacked linear part [a_g; a_h]."""

    a_g: tuple[tuple[Fraction, ...], ...]
    c_g: tuple[Fraction, ...]
    a_h: tuple[tuple[Fraction, ...], ...]
    c_h: tuple[Fraction, ...]
    reduction: _Reduction

    def solve(self, rhs: Sequence[Expr], ppatch: Patch) -> list[Expr]:
        """The chart vector whose factor images are ``rhs``; ``NotComposable`` when there is none."""
        try:
            return self.reduction.solve(rhs, ppatch)
        except Inconsistent:
            raise NotComposable("the pair does not lie on the composable chart") from None


def _affine_rows(m: PolyMap) -> tuple[tuple[tuple[Fraction, ...], ...], tuple[Fraction, ...]] | None:
    """Linear and constant parts of m, or None when m is not affine (its Jacobian is not constant)."""
    rows = _rational_rows([list(row) for row in m.jacobian().entries])
    if rows is None:
        return None
    origin = [0] * m.source.dim
    return tuple(tuple(row) for row in rows), tuple(comp.eval_rational(origin) for comp in m.components)


def chart_params(g: GroupoidPatch, left: Sequence[Expr], right: Sequence[Expr], ppatch: Patch) -> list[Expr]:
    """Chart coordinates of the composable pair (left, right)."""
    data = g._chart
    rhs = [p - Expr.const(ppatch, q) if q else p for p, q in zip(list(left) + list(right), data.c_g + data.c_h)]
    return data.solve(rhs, ppatch)


def _subst_matrix(rows, values: Sequence[Expr] | None, ppatch: Patch):
    """The rows with ``values`` substituted; the rows themselves when ``values`` is None."""
    return rows if values is None else [[e.substitute(values, ppatch) for e in row] for row in rows]


def _matvec(rows, vec, ppatch: Patch) -> list[Expr]:
    return [dot(ppatch, zip(row, vec)) for row in rows]


def _first_difference(lhs: Sequence[Expr], rhs: Sequence[Expr]) -> tuple[int, Expr] | None:
    for i, (a, b) in enumerate(zip(lhs, rhs)):
        if a != b:
            return i, a - b
    return None


# -- groupoid axioms --------------------------------------------------------------------


def check_groupoid_axioms(g: GroupoidPatch) -> Report:
    """All groupoid identities as polynomial equalities on derived charts."""
    matching = _first_difference(g.src.compose(g.g_of).components, g.tgt.compose(g.h_of).components)
    if matching is not None:
        raise ChartMismatch(
            f"left-factor source differs from right-factor target: component {matching[0] + 1} = {matching[1]}"
        )
    total = g.total
    gp = [Expr.coord(total, c) for c in total.coords]
    unit_left = g.unit.apply(list(g.tgt.components), total)
    unit_right = g.unit.apply(list(g.src.components), total)
    inv_pt = list(g.inv.components)

    def product(left, right):
        return g.mul.apply(chart_params(g, left, right, total), total)

    return Report(
        (
            _agreement(
                "products have the source of the right factor",
                g.src.compose(g.mul).components,
                g.src.compose(g.h_of).components,
            ),
            _agreement(
                "products have the target of the left factor",
                g.tgt.compose(g.mul).components,
                g.tgt.compose(g.g_of).components,
            ),
            _agreement(
                "inversion swaps source and target",
                g.src.compose(g.inv).components + g.tgt.compose(g.inv).components,
                g.tgt.components + g.src.components,
            ),
            _agreement("left units act trivially", product(unit_left, gp), gp),
            _agreement("right units act trivially", product(gp, unit_right), gp),
            _agreement("left inverses produce units", product(inv_pt, gp), unit_right),
            _agreement("right inverses produce units", product(gp, inv_pt), unit_left),
            _associativity_item(g),
        )
    )


def _agreement(name: str, lhs: Sequence[Expr], rhs: Sequence[Expr]) -> CheckItem:
    """Pass when the component lists agree, else name the first component that deviates."""
    diff = _first_difference(lhs, rhs)
    return CheckItem(name, diff is None, None if diff is None else f"component {diff[0] + 1} deviates by {diff[1]}")


def _associativity_item(g: GroupoidPatch) -> CheckItem:
    """Compare the two triple products on a chart solved from the pair constraint."""
    tri, c_first, c_second = g._triples
    gh = g.mul.apply(c_first, tri)
    hk = g.mul.apply(c_second, tri)
    left = g.mul.apply(chart_params(g, gh, g.h_of.apply(c_second, tri), tri), tri)
    right = g.mul.apply(chart_params(g, g.g_of.apply(c_first, tri), hk, tri), tri)
    return _agreement("composition is associative on the derived triple chart", left, right)


# -- tangent groupoid ---------------------------------------------------------------------


def tangent_groupoid(g: GroupoidPatch) -> GroupoidPatch:
    """Apply the tangent construction to every structure map.

    The tangent pair chart has twice the coordinates of the pair chart, so a
    pair chart above half of ``MAX_DIMENSION`` is rejected before any lift.
    """
    if 2 * g.comp_chart.dim > MAX_DIMENSION:
        raise WrongShape(
            f"tangent_groupoid needs a pair chart of at most {MAX_DIMENSION // 2} coordinates, got {g.comp_chart.dim}"
        )
    return GroupoidPatch(
        base=tangent_patch(g.base).total,
        total=tangent_patch(g.total).total,
        src=tangent_map(g.src),
        tgt=tangent_map(g.tgt),
        unit=tangent_map(g.unit),
        inv=tangent_map(g.inv),
        comp_chart=tangent_patch(g.comp_chart).total,
        g_of=tangent_map(g.g_of),
        h_of=tangent_map(g.h_of),
        mul=tangent_map(g.mul),
    )


# -- built-in examples ----------------------------------------------------------------------


def pair_groupoid(m: Patch) -> GroupoidPatch:
    """Pairs of points of m, composing when the middle points agree.

    The pair chart has 3 * m.dim coordinates, so a patch above a third of
    ``MAX_DIMENSION`` is rejected before any patch is built.
    """
    n = m.dim
    if 3 * n > MAX_DIMENSION:
        raise WrongShape(f"pair_groupoid needs a patch of at most {MAX_DIMENSION // 3} coordinates, got {n}")
    total = Patch("Pair" + m.name, tuple(c + "_1" for c in m.coords) + tuple(c + "_2" for c in m.coords))
    chart = Patch(
        "Pair" + m.name + "_pairs",
        tuple(c + "_1" for c in m.coords) + tuple(c + "_2" for c in m.coords) + tuple(c + "_3" for c in m.coords),
    )
    tp = [Expr.coord(total, c) for c in total.coords]
    cp = [Expr.coord(chart, c) for c in chart.coords]
    mp = [Expr.coord(m, c) for c in m.coords]
    return GroupoidPatch(
        base=m,
        total=total,
        src=PolyMap(total, m, tuple(tp[n:])),
        tgt=PolyMap(total, m, tuple(tp[:n])),
        unit=PolyMap(m, total, tuple(mp + mp)),
        inv=PolyMap(total, total, tuple(tp[n:] + tp[:n])),
        comp_chart=chart,
        g_of=PolyMap(chart, total, tuple(cp[: 2 * n])),
        h_of=PolyMap(chart, total, tuple(cp[n:])),
        mul=PolyMap(chart, total, tuple(cp[:n] + cp[2 * n :])),
    )


def abelian_group(n: int) -> GroupoidPatch:
    """The additive group on n >= 1 coordinates, over a one-point base.

    n = 0 would be the trivial group, whose empty charts the groupoid checks
    cannot solve on, so it is rejected together with negative n.  The pair
    chart has 2n coordinates, so an n above half of ``MAX_DIMENSION`` is
    rejected before any coordinate name is built.
    """
    if n < 1:
        raise WrongShape(f"abelian_group needs at least one coordinate, got {n}")
    if 2 * n > MAX_DIMENSION:
        raise WrongShape(f"abelian_group needs at most {MAX_DIMENSION // 2} coordinates, got {n}")
    base = Patch("pt", ())
    total = Patch(f"Ab{n}", tuple(f"x_{i + 1}" for i in range(n)))
    chart = Patch(
        f"Ab{n}_pairs",
        tuple(f"x_{i + 1}" for i in range(n)) + tuple(f"y_{i + 1}" for i in range(n)),
    )
    tp = [Expr.coord(total, c) for c in total.coords]
    cp = [Expr.coord(chart, c) for c in chart.coords]
    return GroupoidPatch(
        base=base,
        total=total,
        src=PolyMap(total, base, ()),
        tgt=PolyMap(total, base, ()),
        unit=PolyMap(base, total, tuple(Expr.zero(base) for _ in range(n))),
        inv=PolyMap(total, total, tuple(-x for x in tp)),
        comp_chart=chart,
        g_of=PolyMap(chart, total, tuple(cp[:n])),
        h_of=PolyMap(chart, total, tuple(cp[n:])),
        mul=PolyMap(chart, total, tuple(cp[i] + cp[n + i] for i in range(n))),
    )


def heisenberg3() -> GroupoidPatch:
    """Heisenberg group: central extension of the plane by the cocycle a2*b1."""
    base = Patch("pt", ())
    total = Patch("Heis3", ("a", "b", "c"))
    chart = Patch("Heis3_pairs", ("a_1", "b_1", "c_1", "a_2", "b_2", "c_2"))
    tp = [Expr.coord(total, c) for c in total.coords]
    cp = [Expr.coord(chart, c) for c in chart.coords]
    return GroupoidPatch(
        base=base,
        total=total,
        src=PolyMap(total, base, ()),
        tgt=PolyMap(total, base, ()),
        unit=PolyMap(base, total, (Expr.zero(base),) * 3),
        inv=PolyMap(total, total, (-tp[0], -tp[1], -tp[2] + tp[0] * tp[1])),
        comp_chart=chart,
        g_of=PolyMap(chart, total, tuple(cp[:3])),
        h_of=PolyMap(chart, total, tuple(cp[3:])),
        mul=PolyMap(chart, total, (cp[0] + cp[3], cp[1] + cp[4], cp[2] + cp[5] + cp[3] * cp[1])),
    )


# -- the algebroid of a groupoid ----------------------------------------------------------------


def _right_invariant_fields(g: GroupoidPatch, basis) -> list[VField]:
    """Extend kernel-frame vectors to the whole chart by right translation."""
    total = g.total
    x_t = list(g.tgt.components)
    pair = chart_params(g, g.unit.apply(x_t, total), [Expr.coord(total, c) for c in total.coords], total)
    translate = _tangent_product(g, pair, total)
    zero = [Expr.zero(total)] * total.dim
    return [VField(total, tuple(translate([comp.substitute(x_t, total) for comp in vec], zero))) for vec in basis]


def lie_algebroid_of(g: GroupoidPatch) -> AlgebroidPatch:
    """Anchor and structure functions of the infinitesimal object of g.

    The frame is the kernel of the source map along units; the anchor is the
    target map's derivative and brackets come from right-invariant
    extensions, re-expanded in the frame along units.
    """
    return g._algebroid


def _algebroid_on(g: GroupoidPatch, basis: Sequence[Sequence[Expr]], fields) -> AlgebroidPatch:
    """The algebroid of a kernel frame along units, given as its vectors, and its right-invariant fields."""
    m = g.base
    frame_matrix = ExprMatrix(m, tuple(zip(*basis)))
    eps = list(g.unit.components)
    jt_unit = _subst_matrix(g.tgt.jacobian().entries, eps, m)
    anchors = [VField(m, tuple(_matvec(jt_unit, col, m))) for col in basis]
    brackets = {}
    for a in range(len(basis)):
        for b in range(a + 1, len(basis)):
            bracket = lie_bracket(fields[a], fields[b])
            along_units = [comp.substitute(eps, m) for comp in bracket.components()]
            try:
                nums, d = solve_linear(frame_matrix, along_units)
            except Inconsistent:
                raise RankJump("bracket of right-invariant fields leaves the kernel frame") from None
            comps = tuple(v.divide_exact(d) for v in nums)
            if any(v is None for v in comps):
                raise RankJump("bracket coefficients are not polynomial on this chart")
            brackets[(a, b)] = comps
    return AlgebroidPatch(m, anchors, brackets)


def _tangent_product(g: GroupoidPatch, pair: Sequence[Expr] | None, ppatch: Patch):
    """The map (x, y) -> Tm·δ at chart point ``pair``, where δ is the chart direction with factor images x and y.

    ``ChartMismatch`` at once when the pair chart cannot be solved, and ``NotComposable`` from the
    map when there is no such δ; ``pair=None`` is the pair chart itself, with no substitution.
    """
    data = g._chart
    dmul = _subst_matrix(g.mul.jacobian().entries, pair, ppatch)
    return lambda x, y: _matvec(dmul, data.solve(list(x) + list(y), ppatch), ppatch)


def _product(g: GroupoidPatch, xa: Sequence[Expr], yb: Sequence[Expr]) -> tuple[list[Expr], list[Expr], Expr]:
    """The multiplication of TG ⊕ T*G on the pair chart: the product of two stacked (x, a).

    The product is the tangent product, then the covector c the pairing
    identity ⟨c, Tm·δ⟩ = ⟨a, δ_g⟩ + ⟨b, δ_h⟩ pins down over chart directions δ
    with factor images δ_g, δ_h.  Every product solves the same kept system
    (``GroupoidPatch._product_system``), whose rank is checked once per groupoid.
    Returned as (tangent, N, d): the covector is N / d.
    """
    chart, n_total = g.comp_chart, g.total.dim
    x = _tangent_product(g, None, chart)(xa[:n_total], yb[:n_total])
    mat, pulled = g._product_system
    covs = list(xa[n_total:]) + list(yb[n_total:])
    return (x, *solve_linear(mat, [_combine(chart, row, covs) for row in pulled]))


# -- multiplicativity checks ---------------------------------------------------------------------


def check_multiplicative_two_form(g: GroupoidPatch, w: KForm) -> Report:
    """Pull the form back along multiplication and along the two factors."""
    if w.patch != g.total:
        raise PatchMismatch("two-form on a different patch")
    if w.degree != 2:
        raise WrongShape("need a two-form")
    diff = pullback_form(g.mul, w) - pullback_form(g.g_of, w) - pullback_form(g.h_of, w)
    coefficients = (f"coefficient[{i + 1},{j + 1}] = {val}" for (i, j), val in sorted(diff.coeffs.items()))
    return Report((CheckItem.first("multiplication pulls the form back to the sum over the factors", coefficients),))


def check_multiplicative_bivector(g: GroupoidPatch, p: Bivector) -> Report:
    """Translation identity for bivectors; defined here for group patches only."""
    if g.base.dim != 0:
        raise NotAGroup("the translation identity needs a group patch; use check_multiplicative_frame")
    if p.patch != g.total:
        raise PatchMismatch("bivector on a different patch")
    chart = g.comp_chart
    left, right = g._translations
    mul_pt = list(g.mul.components)
    by_left = _pushed_entries(p, left, list(g.h_of.components), chart)
    by_right = _pushed_entries(p, right, list(g.g_of.components), chart)

    def entries():
        for k, l in combinations(range(g.total.dim), 2):
            acc = p.entry(k, l).substitute(mul_pt, chart) - by_left[k, l] - by_right[k, l]
            if not acc.is_zero():
                yield f"entry[{k + 1},{l + 1}] = {acc}"

    return Report((CheckItem.first("product bivector equals the sum of its translates", entries()),))


def _in_span(span: ExprMatrix, span_rank: int, column: Sequence[Expr]) -> bool:
    """Whether ``column`` lies in the generic span of the columns of ``span``.

    The columns of ``span`` are pairwise isotropic sections of T ⊕ T*, stacked
    vector half over form half, and ``span_rank`` is their generic rank.  At
    full rank (half the rows) they span their own annihilator, so membership
    is ⟨column, s⟩ = α(Y) + β(X) = 0 for every column s, checked as a
    polynomial identity.  Below full rank ``in_span`` decides it on the
    span's kept reduction.
    """
    n = span.nrows // 2
    if span_rank != n:
        return in_span(span, column)
    swapped = list(column[n:]) + list(column[:n])
    return all(v.is_zero() for v in _matvec(zip(*span.entries), swapped, span.patch))


def _end(g: GroupoidPatch, side: int, point: Sequence[Expr], ppatch: Patch):
    """The source (side 0) or target (side 1) of TG ⊕ T*G at ``point``.

    The returned map takes a stacked (x, a) to Ts·x or Tt·x, followed by the
    fibre value of a in A*.
    """
    jac = _subst_matrix((g.src, g.tgt)[side].jacobian().entries, point, ppatch)
    fibre = _subst_matrix(g._fibre_rows[side], point, ppatch)
    n_total = g.total.dim
    return lambda xa: _matvec(jac, xa[:n_total], ppatch) + _matvec(fibre, xa[n_total:], ppatch)


def check_multiplicative_frame(g: GroupoidPatch, l: Frame) -> Report:
    """Subgroupoid test: composable frame combinations close up, and so do units.

    L_G must be a subgroupoid of TG ⊕ T*G ⇒ TM ⊕ A*, whose source and target
    are the kept ``_ends``.  Composable pairs are the kernel of the matching
    condition over the pair chart, and each product must stay in the span of
    the frame at the product point; units over the source and target of each
    section along units must stay in the span there.

    The covector half of the source reads ``inv``: it is the target's after
    the inversion of T*G (``GroupoidPatch._fibre_rows``).  That identity, like
    the translations read off ``mul``, holds on a groupoid, so the verdict
    assumes the axioms that ``check_groupoid_axioms`` verifies.

    Span membership is exact either way (``_in_span``).  The frame has passed
    ``check_lagrangian``, and substitution is a ring map, so the substituted
    sections stay pairwise isotropic.  When they keep generic rank n of 2n,
    they span a Lagrangian L over Q(x); the pairing is non-degenerate there,
    so L equals its own annihilator, and a column lies in L exactly when it
    pairs to zero with every section.  Substitution can drop the rank (the
    unit map is not injective), and then the annihilator is larger than the
    span: such a span is decided by the rank of the span with the column
    appended.  A product or unit covector is N / d (``solve_linear``), so the
    column tested is [d·x; N], d times the stacked (x, N / d): a non-zero
    polynomial multiple, which lies in the span exactly when the column does.
    """
    if l.patch != g.total:
        raise PatchMismatch("frame on a different patch")
    check_lagrangian(l).require(NotLagrangian)
    chart, m = g.comp_chart, g.base
    n, n_total, k = m.dim, g.total.dim, len(l.secs)
    s_left, t_right, *unit_ends = g._ends
    coefficients = l.coefficient_matrix().entries
    # stacked section values, one column per section, at the two factors and at the product
    left = _subst_matrix(coefficients, list(g.g_of.components), chart)
    right = _subst_matrix(coefficients, list(g.h_of.components), chart)
    span = ExprMatrix.from_rows(chart, _subst_matrix(coefficients, list(g.mul.components), chart))

    # matching: the source of the left combination equals the target of the right one
    s_ends = list(map(s_left, zip(*left)))
    t_ends = list(map(t_right, zip(*right)))
    rows = [[s[i] for s in s_ends] + [-t[i] for t in t_ends] for i in range(n_total)]
    kernel = nullspace(ExprMatrix.from_rows(chart, rows))
    span_rank = generic_rank(span)

    def products():
        for idx, vec in enumerate(kernel):
            xa, yb = _matvec(left, vec[:k], chart), _matvec(right, vec[k:], chart)
            tangent, nums, d = _product(g, xa, yb)
            if not _in_span(span, span_rank, [d * v for v in tangent] + nums):
                yield f"composable direction {idx + 1}: the product leaves the span"

    closed = CheckItem.first("composable products stay in the span", products())

    # units over the source and target of every section along units
    jeps = g.unit.jacobian().entries
    along_units = _subst_matrix(coefficients, list(g.unit.components), m)
    span_unit = ExprMatrix.from_rows(m, along_units)
    span_unit_rank = generic_rank(span_unit)

    def escaping_units():
        for (j, col), end in product(enumerate(zip(*along_units)), unit_ends):
            down = end(col)
            try:
                nums, d = solve_linear(g._unit_covectors, [Expr.zero(m)] * n + down[n:])
            except Inconsistent:
                raise RankJump("unit covector is not determined along units") from None
            if not _in_span(span_unit, span_unit_rank, [d * v for v in _matvec(jeps, down[:n], m)] + nums):
                yield f"unit element over section {j + 1} leaves the span"

    return Report((closed, CheckItem.first("units over sources and targets stay in the span", escaping_units())))


# -- induced infinitesimal data -------------------------------------------------------------------


def induced_im_two_form(g: GroupoidPatch, w: KForm) -> IMTwoForm:
    """IM form sigma(a) = eps*(i_{a^r} w) over the right-invariant fields a^r (Bursztyn–Crainic–Weinstein–Zhu)."""
    if w.patch != g.total or w.degree != 2:
        raise WrongShape("need a two-form on the total chart")
    return IMTwoForm(tuple(pullback_form(g.unit, interior_product(field, w)) for field in g._fields))


def induced_dual_bracket(g: GroupoidPatch, p: Bivector) -> AlgebroidPatch:
    """Linearize a multiplicative bivector at the unit into dual structure constants."""
    if g.base.dim != 0:
        raise NotAGroup("linearization at the unit needs a group patch")
    check_multiplicative_bivector(g, p).require(NotMultiplicative)
    m = g.base
    eps = list(g.unit.components)
    brackets = {
        (a, b): tuple(p.entry(a, b).differentiate(c).substitute(eps, m) for c in g.total.coords)
        for a, b in combinations(range(g.total.dim), 2)
    }
    return AlgebroidPatch(m, [VField(m, ())] * g.total.dim, brackets)


# -- compatibility identities on sample sections ---------------------------------------------------


def check_ca_identities(g: GroupoidPatch, samples: Sequence[tuple[GSec, GSec, GSec]]) -> Report:
    """Pairing additivity and bracket compatibility on related section triples.

    Each Courant bracket and each pairing of two sample sections is computed
    once per call, keyed by the identity of the two sections, so the three
    slots of a diagonal trio ``(s, s, s)`` share one bracket and one pairing.
    The pairing is symmetric, so only the pairs i <= j are visited: the first
    failing pair in row order has i <= j.  The bracket (Dorfman) is not skew,
    so both orders of every pair are kept.
    """
    chart = g.comp_chart
    n, n_total = g.base.dim, g.total.dim
    s_left, t_right = g._ends[:2]
    g_pt, h_pt, mul_pt = points = [list(f.components) for f in (g.g_of, g.h_of, g.mul)]
    zero = [Expr.zero(chart)] * n_total

    def unrelated(trio) -> str | None:
        """First obstruction to a triple of sections being related by multiplication."""
        # stacked section values at the two factors and at the product
        xa1, xa2, xa0 = ([c.substitute(pt, chart) for c in sec.coefficients()] for sec, pt in zip(trio, points))
        ends = _first_difference(s_left(xa1)[n:], t_right(xa2)[n:])
        # covectors whose ends differ have no product: multiply the tangent parts alone
        if ends is not None:
            xa1, xa2 = xa1[:n_total] + zero, xa2[:n_total] + zero
        try:
            tangent, nums, d = _product(g, xa1, xa2)
        except NotComposable:
            return "tangent parts are not composable"
        diff = _first_difference(tangent, xa0[:n_total])
        if diff is not None:
            return f"tangent component {diff[0] + 1} deviates by {diff[1]}"
        if ends is not None:
            return f"covector parts are not composable: component {ends[0] + 1} deviates by {ends[1]}"
        # the product covector is nums / d
        for i, (v, want) in enumerate(zip(nums, xa0[n_total:])):
            if v != d * want:
                return f"covector component {i + 1} deviates"
        return None

    for idx, trio in enumerate(samples):
        for sec in trio:
            if sec.patch != g.total:
                raise PatchMismatch("sample section on a different patch")
        bad = unrelated(trio)
        if bad is not None:
            raise HypothesisFails(f"sample {idx + 1}: {bad}")

    indices = range(len(samples))
    computed: dict = {}

    def once(op, a: GSec, b: GSec):
        """``op(a, b)``, computed on its first use in this call."""
        key = (op, id(a), id(b))
        value = computed.get(key)
        if value is None:
            value = computed[key] = op(a, b)
        return value

    def pairings():
        for i, j in combinations_with_replacement(indices, 2):
            lhs = once(pairing, samples[i][2], samples[j][2]).substitute(mul_pt, chart)
            rhs = once(pairing, samples[i][0], samples[j][0]).substitute(g_pt, chart)
            rhs = rhs + once(pairing, samples[i][1], samples[j][1]).substitute(h_pt, chart)
            if lhs != rhs:
                yield f"samples ({i + 1},{j + 1}): pairing deviates by {lhs - rhs}"

    def brackets():
        for i, j in permutations(indices, 2):
            bra = tuple(once(courant_bracket, samples[i][slot], samples[j][slot]) for slot in range(3))
            bad = unrelated(bra)
            if bad is not None:
                yield f"samples ({i + 1},{j + 1}): bracket not related ({bad})"

    return Report(
        (
            CheckItem.first("pairing is additive over multiplication", pairings()),
            CheckItem.first("brackets of related sections stay related", brackets()),
        )
    )
