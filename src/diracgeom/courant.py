"""Generalized sections, Courant bracket, and Dirac structure checks.

A generalized section is a pair (vector field, one-form) on one patch.  The
pairing and bracket are

    <(X, a), (Y, b)> = a(Y) + b(X)
    [[(X, a), (Y, b)]] = ([X, Y], L_X b - i_Y da)

and the integrability obstruction of a Lagrangian frame is the trilinear
tensor mu(i, j, k) = <[[s_i, s_j]], s_k>, which vanishes identically exactly
when the spanned subbundle is Dirac.

Only the increasing triples i < j < k are computed.  On a frame whose
sections pair to zero, the bracket identities

    [[a, b]] + [[b, a]] = d<a, b>
    rho(a)<b, c> = <[[a, b]], c> + <b, [[a, c]]>

make mu totally antisymmetric and zero on repeated indices (Courant 1990).
So C(n, 2) brackets and C(n, 3) pairings determine all n^3 entries, and the
first non-zero entry in sorted order is always an increasing triple: sorting
the indices of a non-zero entry gives a non-zero entry that comes no later.
``check_dirac`` therefore reports the same witness as a scan of the full
tensor, and stops at it.  The symmetry holds only on an isotropic frame, so
a caller that has not run ``check_lagrangian`` calls ``_require_isotropic``
before it reads ``_increasing_mu``.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from typing import Iterator

from .cartan import (
    Bivector,
    KForm,
    VField,
    exterior_derivative,
    interior_product,
    lie_bracket,
    lie_derivative,
    sharp_bivector,
)
from .errors import NotLagrangian, PatchMismatch, RankDeficient, WrongShape
from .report import CheckItem, Report
from .symalg import Expr, ExprMatrix, Patch, _Frozen, _Value, dot, generic_rank, nullspace


class GSec(_Value):
    """Section of TM + T*M: a vector field and a one-form.

    Immutable; equal and hashing alike when both parts agree.
    """

    __slots__ = _FIELDS = ("vf", "of")

    def __init__(self, vf: VField, of: KForm):
        if of.degree != 1:
            raise WrongShape("form part must have degree 1")
        if vf.patch != of.patch:
            raise PatchMismatch("vector and form parts on different patches")
        self._fill(vf, of)

    @property
    def patch(self) -> Patch:
        return self.vf.patch

    def __add__(self, other: "GSec") -> "GSec":
        return GSec(self.vf + other.vf, self.of + other.of)

    def scale(self, f: Expr) -> "GSec":
        return GSec(self.vf.scale(f), self.of.scale(f))

    def coefficients(self) -> list[Expr]:
        """Stacked component vector (vector components, then form components)."""
        return list(self.vf.components()) + list(self.of.components())

    def __str__(self):
        return f"({self.vf}; {self.of})"


class Frame(_Frozen):
    """Ordered generating sections for a would-be Dirac structure.  Immutable.

    The container itself is loose; check_lagrangian verifies the span is
    Lagrangian (isotropic of generic rank n) and reports failures.
    """

    __slots__ = _FIELDS = ("patch", "secs")

    def __init__(self, patch: Patch, secs: tuple[GSec, ...]):
        for s in secs:
            if s.patch != patch:
                raise PatchMismatch("section on a different patch")
        self._fill(patch, secs)

    def coefficient_matrix(self) -> ExprMatrix:
        """2n x k matrix whose columns are the stacked section components."""
        n2 = 2 * self.patch.dim
        cols = [s.coefficients() for s in self.secs]
        rows = [[col[r] for col in cols] for r in range(n2)]
        if not cols:
            rows = [[] for _ in range(n2)]
        return ExprMatrix.from_rows(self.patch, rows)


# -- pairing and bracket ---------------------------------------------------------


def pairing(a1: GSec, a2: GSec) -> Expr:
    """<(X, a), (Y, b)> = a(Y) + b(X), one sum over the indices each form and field both store."""
    if a1.patch != a2.patch:
        raise PatchMismatch("sections on different patches")
    halves = ((a1.of, a2.vf), (a2.of, a1.vf))
    return dot(a1.patch, ((c, v) for form, field in halves for i, c in form.coeffs.items() if (v := field.coeffs.get(i)) is not None))


def courant_bracket(a1: GSec, a2: GSec) -> GSec:
    """[[(X, a), (Y, b)]] = ([X, Y], L_X b - i_Y da)."""
    if a1.patch != a2.patch:
        raise PatchMismatch("sections on different patches")
    x, a = a1.vf, a1.of
    y, b = a2.vf, a2.of
    return GSec(lie_bracket(x, y), lie_derivative(x, b) - interior_product(y, exterior_derivative(a)))


# -- frame constructors ------------------------------------------------------------


def graph_two_form(w: KForm) -> Frame:
    """Sections (d_i, i_{d_i} w) spanning the graph of a two-form."""
    if w.degree != 2:
        raise WrongShape("graph_two_form needs a two-form")
    patch = w.patch
    secs = []
    for c in patch.coords:
        e = VField.coordinate(patch, c)
        secs.append(GSec(e, interior_product(e, w)))
    return Frame(patch, tuple(secs))


def graph_bivector(p: Bivector) -> Frame:
    """Sections (p^#(dx^i), dx^i) spanning the graph of a bivector."""
    patch = p.patch
    secs = []
    for c in patch.coords:
        a = KForm.d_coord(patch, c)
        secs.append(GSec(sharp_bivector(p, a), a))
    return Frame(patch, tuple(secs))


def foliation_frame(fields: list[VField]) -> Frame:
    """Frame for F + Ann(F): the fields, then polynomial annihilator one-forms.

    The fields must be generically independent (RankDeficient otherwise).
    The zero foliation on M is the graph of the zero bivector,
    ``graph_bivector(Bivector(M, {}))``; an empty list raises WrongShape.
    """
    if not fields:
        raise WrongShape("a foliation frame needs at least one field")
    patch = fields[0].patch
    for f in fields:
        if f.patch != patch:
            raise PatchMismatch("foliation field on a different patch")
    r = len(fields)
    span = ExprMatrix.from_rows(patch, [f.components() for f in fields])
    rank = generic_rank(span)
    if rank != r:
        raise RankDeficient(f"{r} fields span generic rank {rank}")
    ann = nullspace(span)
    secs = [GSec(f, KForm.zero(patch, 1)) for f in fields]
    for a in ann:
        secs.append(GSec(VField.zero(patch), KForm.one_form(patch, a)))
    return Frame(patch, tuple(secs))


def bfield_transform(l: Frame, b: KForm) -> Frame:
    """Gauge transform (X, a) -> (X, a + i_X b)."""
    if b.degree != 2:
        raise WrongShape("b-field must be a two-form")
    if b.patch != l.patch:
        raise PatchMismatch("b-field on a different patch")
    secs = tuple(GSec(s.vf, s.of + interior_product(s.vf, b)) for s in l.secs)
    return Frame(l.patch, secs)


# -- checks -----------------------------------------------------------------------


def _nonzero_pairings(l: Frame) -> Iterator[str]:
    """Witnesses of the section pairs i <= j, in sorted order, whose pairing is not zero."""
    for i, j in combinations_with_replacement(range(len(l.secs)), 2):
        p = pairing(l.secs[i], l.secs[j])
        if not p.is_zero():
            yield f"pairing[{i + 1},{j + 1}] = {p}"


def _require_isotropic(l: Frame) -> None:
    """Raise NotLagrangian with the first pairing witness unless the sections pair to zero."""
    witness = next(_nonzero_pairings(l), None)
    if witness is not None:
        raise NotLagrangian(witness)


def check_lagrangian(l: Frame) -> Report:
    """Isotropy of all section pairs plus generic maximality (rank = dim)."""
    items = [CheckItem.first("isotropic", _nonzero_pairings(l))]
    n = l.patch.dim
    rank = generic_rank(l.coefficient_matrix())
    max_ok = rank == n and len(l.secs) == n
    witness = None if max_ok else f"generic rank {rank} with {len(l.secs)} sections, need {n}"
    items.append(CheckItem("maximal", max_ok, witness))
    return Report(tuple(items))


def _increasing_mu(l: Frame) -> Iterator[tuple[tuple[int, int, int], Expr]]:
    """Yield ((i, j, k), mu(i, j, k)) for i < j < k in lexicographic order.

    Lazy: the bracket [[s_i, s_j]] is built when its first triple comes up
    and paired with every s_k, k > j, so a consumer that stops early never
    builds the later brackets.  Brackets with j = n - 1 pair with nothing and
    are never built.
    """
    secs = l.secs
    n = len(secs)
    for i in range(n):
        for j in range(i + 1, n - 1):
            br = courant_bracket(secs[i], secs[j])
            for k in range(j + 1, n):
                yield (i, j, k), pairing(br, secs[k])


def check_dirac(l: Frame) -> Report:
    """Lagrangian check plus vanishing of the Courant tensor.

    The witness is the first non-zero increasing entry of mu, which is the
    first non-zero entry of the whole tensor (see the module docstring).
    """
    lag = check_lagrangian(l)
    if not lag.passed:
        return lag
    mu = (f"mu[{i + 1},{j + 1},{k + 1}] = {v}" for (i, j, k), v in _increasing_mu(l) if not v.is_zero())
    return Report(lag.items + (CheckItem.first("integrable", mu),))

