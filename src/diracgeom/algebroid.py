"""Lie algebroids over a patch: anchor plus structure functions on a fixed frame.

A rank-r algebroid is stored through its action on the frame e_1..e_r:
anchor fields rho(e_a) and bracket coefficients [e_a, e_b] = sum c^k_ab e_k.
The bracket is one sparse table {(a, b): {k: c^k_ab}} of the non-zero
coefficients only, each pair in both orders with the second negated, so it
is antisymmetric by construction; ``bracket(a, b)`` reads one entry, empty
for a zero bracket.  Sections are sparse {k: coefficient} mappings too, as
``rho`` and ``frame_bracket`` take them.  Every walk below visits stored
entries only, so a table of zeros costs nothing.

A bracket of two frame sections is the table entry c_ab itself, since the
Leibniz terms differentiate constant coefficients to zero; only [e_x, v]
(``frame_bracket``) carries the Leibniz term rho(e_x)(v^k), so the outer
bracket of the Jacobi check on frame triples picks up anchor derivatives of
non-constant structure functions.

Sign conventions, fixed once:

  section bracket   [u, v]^k = sum u^a v^b c^k_ab + rho(u)(v^k) - rho(v)(u^k)
  dual Poisson      {x^i, x^j} = 0   {x^i, xi_a} = rho^i_a
                    {xi_a, xi_b} = -sum_k c^k_ab xi_k

The relative sign between the mixed and fiber-fiber brackets is forced by the
Jacobi identity as soon as some frame pair has both c != 0 and a nonzero
anchor; the mixed sign is pinned by the tangent-bundle case, where the dual
must carry the canonical bracket {x^i, p_j} = delta^i_j.

Jacobi and the bialgebroid derivation condition are each walked by one
generator of raw failures, ``_jacobi_failures`` and ``_derivation_failures``.
A Lie bialgebra is a Lie bialgebroid over a point, so ``check_lie_bialgebra``
takes the algebra and the bracket on its dual as two algebroids over one
point patch, reads both walks on them and prints the negated values: at a
point d_* = -delta, and the cyclic sum of [[x, y], z] is minus the
Jacobiator.
"""

from itertools import combinations, combinations_with_replacement, product
from types import MappingProxyType
from typing import Mapping

from .cartan import (
    Bivector,
    KForm,
    VField,
    exterior_derivative,
    interior_product,
    lie_bracket,
    lie_derivative,
)
from .courant import Frame, check_lagrangian
from .errors import (
    HypothesisFails,
    NotAlgebroid,
    NotLagrangian,
    PatchMismatch,
    RankDeficient,
    WrongShape,
)
from .report import CheckItem, Report
from .symalg import MAX_DIMENSION, Expr, ExprMatrix, Patch, _Frozen, _Value, dot, fresh_names, generic_rank, in_span
from .tanlift import lift_function, lift_vector_field, tangent_patch

_NO_TERMS = MappingProxyType({})


def _linear_combination(cls, patch: Patch, section: Mapping[int, Expr], tensors):
    """sum_k section[k] tensors[k] for degree-1 ``tensors``, summed over their stored entries."""
    pairs = {}
    for k, c in section.items():
        for i, e in tensors[k].coeffs.items():
            pairs.setdefault(i, []).append((c, e))
    return cls._trusted(patch, 1, {i: dot(patch, ps) for i, ps in sorted(pairs.items())})


class AlgebroidPatch(_Value):
    """Anchor fields and structure functions of a would-be Lie algebroid.

    Built from the anchor fields and a ``{(a, b): comps}`` table with a < b,
    each ``comps`` all r coefficients of [e_a, e_b] and a pair left out zero;
    keys, lengths and patches are validated.  Jacobi and anchor compatibility
    are check results (check_lie_algebroid), not construction invariants.
    Immutable; equal when base, anchors and structure functions agree, and
    unhashable, as its table holds mappings.
    """

    __slots__ = _FIELDS = ("base", "anchor", "_table")
    __hash__ = None

    def __init__(self, base: Patch, anchors, brackets):
        anchor = tuple(anchors)
        r = len(anchor)
        table = {}
        for (a, b), comps in brackets.items():
            if not 0 <= a < b < r:
                raise WrongShape(f"bracket key ({a}, {b}) must satisfy 0 <= a < b < rank")
            if len(comps) != r:
                raise WrongShape(f"bracket ({a}, {b}) needs {r} components")
            if any(e.patch != base for e in comps):
                raise PatchMismatch("structure function on a different patch")
            entry = {k: e for k, e in enumerate(comps) if e.terms}
            if entry:
                table[(a, b)] = MappingProxyType(entry)
                table[(b, a)] = MappingProxyType({k: -e for k, e in entry.items()})
        for v in anchor:
            if v.patch != base:
                raise PatchMismatch("anchor field on a different patch")
        self._fill(base, anchor, table)

    @property
    def rank(self) -> int:
        return len(self.anchor)

    def bracket(self, a: int, b: int) -> Mapping[int, Expr]:
        """The non-zero coefficients c^k_ab of [e_a, e_b] by k; empty for a zero bracket."""
        return self._table.get((a, b), _NO_TERMS)

    def rho(self, section) -> VField:
        """Anchor of the sparse section ``{k: coefficient}``, summed over the anchors' stored components."""
        return _linear_combination(VField, self.base, section, self.anchor)

    def frame_bracket(self, x: int, section) -> dict[int, Expr]:
        """[e_x, v] as a sparse section: rho(e_x)(v^k) + sum_b v^b c^k_xb, non-zero entries only."""
        rho = self.anchor[x]
        out = {k: rho.apply(f) for k, f in section.items()}
        for b, f in section.items():
            for k, c in self.bracket(x, b).items():
                out[k] = out[k] + f * c if k in out else f * c
        return {k: value for k, value in out.items() if value.terms}


def tangent_bundle_algebroid(base: Patch) -> AlgebroidPatch:
    """TM in the coordinate frame: identity anchor, vanishing structure."""
    return AlgebroidPatch(base, (VField.coordinate(base, c) for c in base.coords), {})


def tangent_lift_algebroid(a: AlgebroidPatch) -> AlgebroidPatch:
    """Tangent prolongation over TM with frame (Te_1..Te_r, e_1-hat..e_r-hat).

    Brackets: [Te_a, Te_b] = sum (c^k)^v Te_k + (c^k)^T e_k-hat,
    [Te_a, e_b-hat] = sum (c^k)^v e_k-hat, hats commute; the anchor sends
    Te_a to the tangent lift and e_a-hat to the vertical lift of rho(e_a).
    Only the pairs with a non-zero base bracket get an entry.
    """
    if 2 * a.base.dim > MAX_DIMENSION:
        raise WrongShape(f"tangent_lift_algebroid needs an algebroid over at most {MAX_DIMENSION // 2} coordinates, got {a.base.dim}")
    r = a.rank
    total = tangent_patch(a.base).total
    anchors = [lift_vector_field(v, "tangent") for v in a.anchor]
    anchors += [lift_vector_field(v, "vertical") for v in a.anchor]
    brackets = {}
    for fa, fb in product(range(r), repeat=2):
        entry = a.bracket(fa, fb)
        if not entry:
            continue
        hat = [Expr.zero(total)] * (2 * r)
        for k, c in entry.items():
            hat[r + k] = lift_function(c, "vertical")
        brackets[(fa, r + fb)] = hat
        if fa < fb:
            comps = [Expr.zero(total)] * (2 * r)
            for k, c in entry.items():
                comps[k] = hat[r + k]
                comps[r + k] = lift_function(c, "tangent")
            brackets[(fa, fb)] = comps
    return AlgebroidPatch(total, anchors, brackets)


def _jacobi_failures(a: AlgebroidPatch):
    """Yield (i, j, k, m, value) for each frame triple i < j < k whose Jacobiator
    sum [e_i, [e_j, e_k]] + cyclic has a non-zero e_m component, the first such m."""
    for i, j, k in combinations(range(a.rank), 3):
        jac = {}
        for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
            for m, value in a.frame_bracket(x, a.bracket(y, z)).items():
                jac[m] = jac[m] + value if m in jac else value
        bad = min((m for m, value in jac.items() if value.terms), default=None)
        if bad is not None:
            yield i, j, k, bad, jac[bad]


def check_lie_algebroid(a: AlgebroidPatch) -> Report:
    """Jacobi identity on frame triples and anchor compatibility on frame pairs, up to rank MAX_DIMENSION // 4."""
    r = a.rank
    if r > MAX_DIMENSION // 4:
        raise WrongShape(f"an algebroid of rank {r} is above the limit of {MAX_DIMENSION // 4} for the Jacobi check")
    jacobi = (f"jacobi[{i + 1},{j + 1},{k + 1}] has e_{m + 1} component {v}" for i, j, k, m, v in _jacobi_failures(a))

    def anchor():
        for i, j in combinations(range(r), 2):
            diff = lie_bracket(a.anchor[i], a.anchor[j]) - a.rho(a.bracket(i, j))
            if diff.coeffs:
                bad = min(diff.coeffs)
                yield f"anchor breaks [e_{i + 1},e_{j + 1}]: d_{a.base.coords[bad[0]]} component {diff.coeffs[bad]}"

    return Report(
        (
            CheckItem.first("jacobi identity on the frame", jacobi),
            CheckItem.first("anchor preserves brackets", anchor()),
        )
    )


def dual_patch(a: AlgebroidPatch) -> Patch:
    """Total patch of the dual bundle: base coordinates, then the first r names xi_k the base leaves free."""
    return Patch(a.base.name + "_dual", a.base.coords + tuple(fresh_names("xi_", a.rank, a.base.coords)))


def dual_linear_poisson(a: AlgebroidPatch) -> Bivector:
    """The fiberwise-linear Poisson bivector on the dual total patch."""
    check_lie_algebroid(a).require(NotAlgebroid)
    total = dual_patch(a)
    n, r = a.base.dim, a.rank
    entries = {}
    for fa, field in enumerate(a.anchor):
        for (i,), rho in field.coeffs.items():
            entries[(i, n + fa)] = rho.inject(total)
    xi = [Expr.coord(total, name) for name in total.coords[n:]]
    for fa, fb in combinations(range(r), 2):
        acc = -dot(total, ((c.inject(total), xi[k]) for k, c in a.bracket(fa, fb).items()))
        if not acc.is_zero():
            entries[(n + fa, n + fb)] = acc
    return Bivector(total, entries)


# -- Lie bialgebroids ---------------------------------------------------------------


def _add_wedge(table: dict, i: int, j: int, coeff: Expr) -> None:
    if i == j or coeff.is_zero():
        return
    if i > j:
        i, j, coeff = j, i, -coeff
    table[(i, j)] = table.get((i, j), Expr.zero(coeff.patch)) + coeff


def _dual_differential_section(dual: AlgebroidPatch, u) -> dict:
    """d_* u as a wedge table for a sparse section u: (d_*u)(xi_a, xi_b) with the dual anchor and bracket."""
    out, zero = {}, Expr.zero(dual.base)
    for fa, fb in combinations(range(dual.rank), 2):
        bracket = dot(dual.base, ((c, u[k]) for k, c in dual.bracket(fa, fb).items() if k in u))
        acc = dual.anchor[fa].apply(u.get(fb, zero)) - dual.anchor[fb].apply(u.get(fa, zero)) - bracket
        _add_wedge(out, fa, fb, acc)
    return out


def _frame_bracket_wedge(a: AlgebroidPatch, b: int, table: dict, out: dict) -> None:
    """Add [e_b, P] to ``out`` for a wedge table P, extending the bracket as a degree-0 derivation."""
    rho_b = a.anchor[b]
    for (m, l), coeff in table.items():
        _add_wedge(out, m, l, rho_b.apply(coeff))
        for k, c in a.bracket(b, m).items():
            _add_wedge(out, k, l, coeff * c)
        for k, c in a.bracket(b, l).items():
            _add_wedge(out, m, k, coeff * c)


def _derivation_failures(a: AlgebroidPatch, dual: AlgebroidPatch):
    """Yield (x, y, (i, j), value) for each frame pair x < y on which
    d_*[e_x,e_y] + [e_y, d_*e_x] - [e_x, d_*e_y] has a non-zero wedge
    coefficient, the first such e_i^e_j in sorted order."""
    pairs = list(combinations(range(a.rank), 2))
    # (d_* e_c)(xi_i, xi_j) = -c*^c_ij: the dual anchor differentiates the constant coefficients of e_c to zero
    minus_d_frame = [{} for _ in range(a.rank)]
    for i, j in pairs:
        for c, coeff in dual.bracket(i, j).items():
            minus_d_frame[c][(i, j)] = coeff
    d_frame = [{key: -coeff for key, coeff in t.items()} for t in minus_d_frame]
    for fa, fb in pairs:
        diff = _dual_differential_section(dual, a.bracket(fa, fb))
        _frame_bracket_wedge(a, fb, d_frame[fa], diff)
        _frame_bracket_wedge(a, fa, minus_d_frame[fb], diff)
        bad = next((key for key in sorted(diff) if not diff[key].is_zero()), None)
        if bad is not None:
            yield fa, fb, bad, diff[bad]


def check_lie_bialgebroid(a: AlgebroidPatch, dual: AlgebroidPatch) -> Report:
    """Derivation condition d_*[u, v] = [d_*u, v] + [u, d_*v] on frame pairs.

    d_* is the differential of the dual structure acting on sections and
    wedge tables of the primary bundle; [P, v] = -[v, P] converts the
    first Schouten term to the derivation extension used here.
    """
    if dual.base != a.base:
        raise PatchMismatch("dual structure on a different base")
    if dual.rank != a.rank:
        raise WrongShape("dual structure must have the same rank")
    if a.rank > 4:
        raise WrongShape("bialgebroid check supports rank at most 4")
    for side, name in ((a, "primary"), (dual, "dual")):
        rep = check_lie_algebroid(side)
        if not rep.passed:
            raise NotAlgebroid(f"{name} structure: {rep.witness}")
    derivation = (
        f"derivation fails on (e_{x + 1},e_{y + 1}) at e_{i + 1}^e_{j + 1}: {v}"
        for x, y, (i, j), v in _derivation_failures(a, dual)
    )
    return Report((CheckItem.first("derivation condition on frame pairs", derivation),))


# -- IM 2-forms ------------------------------------------------------------------------


class IMTwoForm(_Value):
    """A bundle map into covectors, one one-form per frame section.

    Immutable; equal and hashing alike when the one-forms agree.
    """

    __slots__ = _FIELDS = ("sigma",)

    def __init__(self, sigma: tuple[KForm, ...]):
        for s in sigma:
            if s.degree != 1:
                raise WrongShape("IM data must consist of one-forms")
            if s.patch != sigma[0].patch:
                raise PatchMismatch("IM one-forms on different patches")
        self._fill(sigma)


def im_from_two_form(a: AlgebroidPatch, b: KForm) -> IMTwoForm:
    """sigma(e_a) = i_{rho(e_a)} b, the flat map of b along the anchor."""
    if b.degree != 2:
        raise WrongShape("flat map needs a two-form")
    if b.patch != a.base:
        raise PatchMismatch("two-form on a different patch")
    return IMTwoForm(tuple(interior_product(v, b) for v in a.anchor))


def check_im_two_form(a: AlgebroidPatch, s: IMTwoForm) -> Report:
    """The two IM identities on frame pairs.

    They imply the identity on a function multiple [f e_i, e_j] = f [e_i, e_j] - rho(e_j)(f) e_i:
    its two sides differ by f times the bracket identity on (i, j), minus
    (<sigma_i, rho_j> + <sigma_j, rho_i>) df, and the identity on (j, i) follows
    from (i, j) and the pairing identity.
    """
    check_lie_algebroid(a).require(NotAlgebroid)
    if len(s.sigma) != a.rank:
        raise WrongShape("need one form per frame section")
    if s.sigma and s.sigma[0].patch != a.base:
        raise PatchMismatch("IM data on a different patch")
    r = a.rank

    def anchor_pairing():
        for i, j in combinations_with_replacement(range(r), 2):
            p = s.sigma[i].evaluate(a.anchor[j]) + s.sigma[j].evaluate(a.anchor[i])
            if not p.is_zero():
                yield f"<sigma(e_{i + 1}), rho(e_{j + 1})> + <sigma(e_{j + 1}), rho(e_{i + 1})> = {p}"

    def lie_side(i, j):
        out = lie_derivative(a.anchor[i], s.sigma[j]) - lie_derivative(a.anchor[j], s.sigma[i])
        return out + exterior_derivative(KForm.function(s.sigma[i].evaluate(a.anchor[j])))

    def bracket_identity():
        for i, j in combinations(range(r), 2):
            # sigma([e_i, e_j]) = sum_k c^k_ij sigma_k
            diff = _linear_combination(KForm, a.base, a.bracket(i, j), s.sigma) - lie_side(i, j)
            if not diff.is_zero():
                yield f"sigma[e_{i + 1},e_{j + 1}] deviates by {diff}"

    return Report(
        (
            CheckItem.first("pairing with the anchor is antisymmetric", anchor_pairing()),
            CheckItem.first("bracket identity on frame pairs", bracket_identity()),
        )
    )


# -- IM foliations -----------------------------------------------------------------------


class IMFoliation(_Frozen):
    """Foliation data: tangent generators and the frame columns spanning K.  Immutable.

    Quotient classes are the frame sections outside k_sub in increasing
    index order; flat sections are the quotient frame classes themselves.
    """

    __slots__ = _FIELDS = ("f_m", "k_sub")

    def __init__(self, f_m: tuple[VField, ...], k_sub: tuple[int, ...]):
        if tuple(sorted(set(k_sub))) != k_sub:
            raise WrongShape("k_sub must be strictly increasing")
        for v in f_m:
            if v.patch != f_m[0].patch:
                raise PatchMismatch("foliation fields on different patches")
        self._fill(f_m, k_sub)


def check_im_foliation(a: AlgebroidPatch, f: IMFoliation) -> Report:
    """The four foliation bullets, verified on frame generators.

    Flat sections are the quotient frame classes, so the connection is
    trivial: its flatness is the involutivity of the foliation, and a
    bracket class is flat when the foliation fields kill its coefficients.
    """
    if f.f_m and f.f_m[0].patch != a.base:
        raise PatchMismatch("foliation on a different patch")
    for m in f.k_sub:
        if not 0 <= m < a.rank:
            raise WrongShape(f"k_sub index {m} out of range")
    # one generator matrix for every span question of the check; n x 0 without generators
    columns = [v.components() for v in f.f_m]
    span = ExprMatrix.from_rows(a.base, [[col[i] for col in columns] for i in range(a.base.dim)])
    if generic_rank(span) != len(f.f_m):
        raise RankDeficient("foliation generators are generically dependent")
    for m in f.k_sub:
        if not in_span(span, a.anchor[m].components()):
            raise HypothesisFails(f"rho(e_{m + 1}) is not tangent to the foliation")
    quotient = [m for m in range(a.rank) if m not in f.k_sub]
    nf = len(f.f_m)

    def involutive():
        # bullet 1: the trivial connection is flat exactly when the foliation is involutive
        for i, j in combinations(range(nf), 2):
            if not in_span(span, lie_bracket(f.f_m[i], f.f_m[j]).components()):
                yield f"[f_{i + 1},f_{j + 1}] leaves the foliation span"

    def k_brackets():
        # bullet 2: brackets of quotient generators with K stay in K
        for m, k in product(quotient, f.k_sub):
            br = a.bracket(m, k)
            bad = next((l for l in quotient if l in br), None)
            if bad is not None:
                yield f"[e_{m + 1},e_{k + 1}] has class component e_{bad + 1} = {br[bad]}"

    def class_flatness():
        # bullet 3: bracket classes of quotient generators are flat
        for mi, mj in combinations(quotient, 2):
            br = a.bracket(mi, mj)
            for j, l in product(range(nf), (l for l in quotient if l in br)):
                d = f.f_m[j].apply(br[l])
                if not d.is_zero():
                    yield f"class of [e_{mi + 1},e_{mj + 1}] is not flat along f_{j + 1}: {d}"

    def anchor_flows():
        # bullet 4: anchors of quotient generators preserve the foliation
        for m, j in product(quotient, range(nf)):
            if not in_span(span, lie_bracket(a.anchor[m], f.f_m[j]).components()):
                yield f"[rho(e_{m + 1}), f_{j + 1}] leaves the foliation span"

    return Report(
        (
            CheckItem.first("connection is flat", involutive()),
            CheckItem.first("brackets with K stay in K", k_brackets()),
            CheckItem.first("bracket classes are flat mod K", class_flatness()),
            CheckItem.first("anchor flows preserve the foliation", anchor_flows()),
        )
    )


# -- Lie bialgebras --------------------------------------------------------------------


def check_lie_bialgebra(g: AlgebroidPatch, gstar: AlgebroidPatch) -> Report:
    """Dual Jacobi and the cocycle condition on a Lie algebra g and a bracket gstar on its dual,
    both algebroids of one rank over one point patch, read as a bialgebroid over the point."""
    if g.base.dim != 0 or gstar.base != g.base or gstar.rank != g.rank:
        raise WrongShape("a Lie bialgebra needs two algebroids of one rank over one point patch")
    check_lie_algebroid(g).require(NotAlgebroid)
    dual_jacobi = (
        f"dual jacobi[{i + 1},{j + 1},{k + 1}] component {m + 1}: {-v}" for i, j, k, m, v in _jacobi_failures(gstar)
    )
    cocycle = (
        f"cocycle fails on (e_{x + 1},e_{y + 1}) at e_{i + 1}^e_{j + 1}: {-v}"
        for x, y, (i, j), v in _derivation_failures(g, gstar)
    )
    return Report(
        (
            CheckItem.first("dual structure satisfies jacobi", dual_jacobi),
            CheckItem.first("dual cocycle condition", cocycle),
        )
    )


# -- linearity of frames on a vector bundle total patch ------------------------------------


def check_linearity(l: Frame, n_base: int) -> Report:
    """Invariance of the span under the fiber scaling action with a formal parameter.

    With h_t(x, u) = (x, tu), compares the span of the frame at (x, tu)
    against the pointwise image (T h_t X, t (T h_t^-1)* alpha) of the span
    at (x, u); equality is generic-rank equality of the stacked matrices
    over the patch extended by t.
    """
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
    rows = l.coefficient_matrix().entries
    rows_a = [[c.substitute(values, ext) for c in row] for row in rows]
    # the action multiplies vector components past the base and form components on the base by t
    rows_b = [
        [c.inject(ext) * t if n_base <= r < n + n_base else c.inject(ext) for c in row] for r, row in enumerate(rows)
    ]
    ra = generic_rank(ExprMatrix.from_rows(ext, rows_a))
    rb = generic_rank(ExprMatrix.from_rows(ext, rows_b))
    joint = generic_rank(ExprMatrix.from_rows(ext, [rows_a[r] + rows_b[r] for r in range(2 * n)]))
    ok = ra == rb == joint
    witness = None if ok else f"scaled span rank {ra}, action image rank {rb}, joint {joint}"
    return Report((CheckItem("span is invariant under fiber scaling", ok, witness),))
