"""Vertical and tangent lifts, the canonical maps J and Theta, and lifted frames.

Coordinate naming is deterministic so that iterated constructions agree by
equality of patches:

  tangent_patch    x -> x, x_dot        (second lift uses del_x, del_x_dot,
                                         the k-th for k >= 3 del{k-1}_x, ...)
  cotangent_patch  x -> x, p_x

Both are memoised per base patch, so each lift's names are built once per
process.  A lifted name the base already uses takes the first free name1,
name2, ... instead: patch(x, x_dot, y) lifts to (x, x_dot, y, x_dot1,
x_dot_dot, y_dot).  The canonical maps build their charts from the base
patch with these two functions and read them by position, not by name.

The lift formulas below are the closed coordinate forms pinned down by the
defining identities

  X^v(f^v) = 0        X^v(f^T) = (Xf)^v      X^T(f^v) = (Xf)^v
  X^T(f^T) = (Xf)^T   a^v(X^T) = (a(X))^v    a^T(X^T) = (a(X))^T

which the test suite re-verifies on random inputs.
"""

from functools import cache
from typing import NamedTuple

from .cartan import KForm, PolyMap, VField, _perm_sign
from .courant import Frame, GSec, _increasing_mu, _require_isotropic, check_lagrangian
from .errors import NotLagrangian, WrongShape
from .report import CheckItem, Report
from .symalg import MAX_DIMENSION, Expr, Patch, dot, fresh_names

VELOCITY_SUFFIX = "_dot"
SECOND_ORDER_PREFIX = "del_"
MOMENTUM_PREFIX = "p_"


def _velocities(coords: tuple[str, ...], depth: int) -> tuple[str, ...]:
    """The names the ``depth``-th tangent lift gives the velocities of ``coords``."""
    if depth == 1:
        return tuple(c + VELOCITY_SUFFIX for c in coords)
    prefix = SECOND_ORDER_PREFIX if depth == 2 else f"del{depth - 1}_"
    return tuple(prefix + c for c in coords)


def _tangent_depth(coords: tuple[str, ...]) -> int:
    """How many tangent lifts named ``coords``: 0 unless the second half names velocities of the first."""
    n, odd = divmod(len(coords), 2)
    if odd or n == 0:
        return 0
    depth = _tangent_depth(coords[:n]) + 1
    return depth if coords[n:] == _velocities(coords[:n], depth) else 0


def _extend(base: Patch, new_names: tuple[str, ...], name: str) -> Patch:
    """The patch ``name`` on ``base``'s coordinates and ``new_names``, each taken name made fresh."""
    taken = set(base.coords)
    names = []
    for c in new_names:
        if c in taken:
            (c,) = fresh_names(c, 1, taken)
        taken.add(c)
        names.append(c)
    return Patch(name, base.coords + tuple(names))


class LiftedPatch(NamedTuple):
    """A base patch together with its doubled total patch: positions, then velocities or momenta."""

    base: Patch
    total: Patch

    @property
    def fibre_names(self) -> tuple[str, ...]:
        return self.total.coords[self.base.dim:]


@cache
def tangent_patch(base: Patch) -> LiftedPatch:
    vel = _velocities(base.coords, _tangent_depth(base.coords) + 1)
    return LiftedPatch(base, _extend(base, vel, "T" + base.name))


@cache
def cotangent_patch(base: Patch) -> LiftedPatch:
    mom = tuple(MOMENTUM_PREFIX + c for c in base.coords)
    return LiftedPatch(base, _extend(base, mom, "Tstar" + base.name))


def _check_kind(kind: str) -> None:
    if kind not in ("vertical", "tangent"):
        raise WrongShape(f"kind must be 'vertical' or 'tangent', got {kind!r}")


def lift_function(f: Expr, kind: str) -> Expr:
    """f^v = f reinterpreted; f^T = sum of velocity * df/dx."""
    _check_kind(kind)
    tp = tangent_patch(f.patch)
    if kind == "vertical":
        return f.inject(tp.total)
    total = tp.total
    diffs = ((v, f.differentiate(c)) for c, v in zip(f.patch.coords, tp.fibre_names))
    return dot(total, ((Expr.coord(total, v), df.inject(total)) for v, df in diffs if df.terms))


def lift_vector_field(x: VField, kind: str) -> VField:
    """X^v feeds the components into the velocity slots; X^T adds their derivative flow."""
    _check_kind(kind)
    total, n = tangent_patch(x.patch).total, x.patch.dim
    if kind == "vertical":
        return VField._trusted(total, 1, {(n + i,): c.inject(total) for (i,), c in x.coeffs.items()})
    out = {k: c.inject(total) for k, c in x.coeffs.items()}
    out.update({(n + i,): lift_function(c, "tangent") for (i,), c in x.coeffs.items()})
    return VField._trusted(total, 1, out)


def lift_one_form(a: KForm, kind: str) -> KForm:
    """a^v keeps the dx components; a^T pairs lifted coefficients with dx and dx_dot."""
    _check_kind(kind)
    if a.degree != 1:
        raise WrongShape("only one-forms lift here")
    total, n = tangent_patch(a.patch).total, a.patch.dim
    if kind == "vertical":
        return KForm._trusted(total, 1, {k: c.inject(total) for k, c in a.coeffs.items()})
    out = {k: lift_function(c, "tangent") for k, c in a.coeffs.items()}
    out.update({(n + i,): c.inject(total) for (i,), c in a.coeffs.items()})
    return KForm._trusted(total, 1, out)


def lift_section(s: GSec, kind: str) -> GSec:
    return GSec(lift_vector_field(s.vf, kind), lift_one_form(s.of, kind))


def tangent_map(f: PolyMap) -> PolyMap:
    """Tangent functor: (x, v) -> (f(x), Df(x) v)."""
    src = tangent_patch(f.source)
    tgt = tangent_patch(f.target)
    vel = [Expr.coord(src.total, v) for v in src.fibre_names]
    comps = [c.inject(src.total) for c in f.components]
    comps += [dot(src.total, ((e.inject(src.total), v) for e, v in zip(row, vel) if e.terms)) for row in f.jacobian().entries]
    return PolyMap(src.total, tgt.total, tuple(comps))


def canonical_involution(base: Patch) -> PolyMap:
    """J on T(TM), the block swap (x, x_dot, del_x, del_x_dot) -> (x, del_x, x_dot, del_x_dot)."""
    tt = tangent_patch(tangent_patch(base).total).total
    n = base.dim
    c = tt.coords
    order = c[:n] + c[2 * n : 3 * n] + c[n : 2 * n] + c[3 * n :]
    return PolyMap(tt, tt, tuple(Expr.coord(tt, name) for name in order))


def tulczyjew_map(base: Patch) -> PolyMap:
    """Theta: T(T*M) -> T*(TM), the permutation (x, p, x_dot, p_dot) -> (x, x_dot, p_dot, p).

    The source is the tangent patch of T*M and the target the cotangent
    patch of TM, both built from ``base``.  When no lifted name was taken
    they carry the same names, in the orders (x, p, x_dot, p_dot) and
    (x, x_dot, p, p_dot).
    """
    src = tangent_patch(cotangent_patch(base).total).total
    n = base.dim
    c = src.coords
    order = c[:n] + c[2 * n : 3 * n] + c[3 * n :] + c[n : 2 * n]
    tgt = cotangent_patch(tangent_patch(base).total).total
    return PolyMap(src, tgt, tuple(Expr.coord(src, name) for name in order))


def canonical_symplectic(ct: LiftedPatch) -> KForm:
    """omega = sum of dq^i wedge dp_i on a cotangent total patch, whose momenta follow the base coordinates."""
    one = Expr.one(ct.total)
    return KForm(ct.total, 2, {(ct.total.index(q), ct.total.index(p)): one for q, p in zip(ct.base.coords, ct.fibre_names)})


def tangent_lift_dirac(l: Frame) -> Frame:
    """Frame of tangent lifts followed by vertical lifts of the sections."""
    tp = tangent_patch(l.patch)
    secs = [lift_section(s, "tangent") for s in l.secs]
    secs += [lift_section(s, "vertical") for s in l.secs]
    return Frame(tp.total, tuple(secs))


def check_tangent_mu_identity(l: Frame) -> Report:
    """Compare the Courant tensor of the lifted frame against the lifted tensor.

    Generators are indexed with the tangent lifts first, so entry (i, j, k)
    with all indices below n is the all-tangent block.  Verified blocks:
    all-tangent equals the tangent lift of the base tensor, entries with two
    or more vertical generators vanish, and one-vertical entries equal the
    vertical lift of the base entry at the same positions.

    Both tensors are read on increasing triples only.  Each block's
    difference is totally antisymmetric and zero on repeated indices once
    the lifted frame is isotropic, so its first non-zero entry in sorted
    order is an increasing triple (see ``courant``); isotropy of the lift is
    checked here, and holds whenever the base frame is isotropic, since the
    pairing of lifts is the lift of the pairing.  A frame on more than
    ``MAX_DIMENSION // 4`` coordinates, whose lift would have more than 64
    sections, is refused before anything is computed.
    """
    if l.patch.dim > MAX_DIMENSION // 4:
        raise WrongShape(
            f"a frame on {l.patch.dim} coordinates is above the limit of {MAX_DIMENSION // 4} for the lifted Courant tensor"
        )
    check_lagrangian(l).require(NotLagrangian)
    n = len(l.secs)
    lifted = tangent_lift_dirac(l)
    _require_isotropic(lifted)
    mu = dict(_increasing_mu(l))
    mu_lift = dict(_increasing_mu(lifted))

    def label(i, j, k):
        parts = [f"{m + 1}^v" if m >= n else f"{m + 1}^T" for m in (i, j, k)]
        return "mu_T[" + ",".join(parts) + "]"

    def tangent_block():
        for (i, j, k), v in mu.items():
            want = lift_function(v, "tangent")
            if mu_lift[(i, j, k)] != want:
                yield f"{label(i, j, k)} = {mu_lift[(i, j, k)]}, expected {want}"

    def multi_vertical():
        for (i, j, k), v in mu_lift.items():
            if sum(1 for m in (i, j, k) if m >= n) >= 2 and not v.is_zero():
                yield f"{label(i, j, k)} = {v}"

    def one_vertical():
        for (i, j, k), v in mu_lift.items():
            if sum(1 for m in (i, j, k) if m >= n) != 1:
                continue
            base = tuple(m - n if m >= n else m for m in (i, j, k))
            sign = _perm_sign(base)
            want = lift_function(sign * mu[tuple(sorted(base))] if sign else Expr.zero(l.patch), "vertical")
            if v != want:
                yield f"{label(i, j, k)} = {v}, expected {want}"

    return Report(
        (
            CheckItem.first("all-tangent block is the lifted tensor", tangent_block()),
            CheckItem.first("multi-vertical entries vanish", multi_vertical()),
            CheckItem.first("one-vertical entries are vertical lifts", one_vertical()),
        )
    )
