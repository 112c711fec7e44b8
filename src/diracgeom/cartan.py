"""Vector fields, differential forms of degree <= 3, bivectors, polynomial maps.

Conventions fixed once and used everywhere:

* ``wedge_fields``: ``(X ^ Y)(a, b) = a(X) b(Y) - a(Y) b(X)``, so a bivector
  ``p`` stores the coefficients ``p[i, j] = p(dx^i, dx^j)`` for ``i < j``.
* ``sharp_bivector(p, a)^i = sum_j p[j, i] a_j``, i.e. ``p^#(a) = p(a, .)``.
  For ``p = dx ^ dy`` this sends ``dx`` to ``d_y`` and ``dy`` to ``-d_x``.
* Forms store coefficients on strictly increasing index tuples; evaluation is
  the determinant convention, ``(dx ^ dy)(d_x, d_y) = 1``.
* ``KForm`` and ``Bivector`` are one sparse antisymmetric tensor,
  ``_AntisymTensor``, that differs only in degree and printed basis (``dx``
  against ``d_x``); a form never equals a bivector with the same coefficients.

Frames built from lifts are mostly zero, so the operators walk only what is
stored: ``VField.apply``, ``KForm.evaluate`` and ``sharp_bivector`` skip
zero components, and ``exterior_derivative`` and ``interior_product`` visit
only the index tuples reachable from stored coefficients (and, for i_X, the
support of X).  They visit those tuples in sorted order, the order of
``combinations``, so every result has the same terms in the same order as
the dense loops.  A form memoises its ``d`` on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Mapping, Sequence

from .errors import DegreeTooHigh, DegreeZero, NotInverse, PatchMismatch
from .symalg import Expr, ExprMatrix, Patch

MAX_DEGREE = 3


def _perm_sign(seq: Sequence[int]) -> int:
    """Sign of the permutation sorting ``seq``; 0 on repeated entries."""
    if len(set(seq)) != len(seq):
        return 0
    sign = 1
    items = list(seq)
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if items[i] > items[j]:
                sign = -sign
    return sign


@dataclass(frozen=True)
class VField:
    """Vector field: one component per coordinate."""

    patch: Patch
    components: tuple[Expr, ...]

    def __post_init__(self):
        if len(self.components) != self.patch.dim:
            raise ValueError("need one component per coordinate")
        for c in self.components:
            if c.patch != self.patch:
                raise PatchMismatch("component on a different patch")

    @staticmethod
    def zero(patch: Patch) -> "VField":
        return VField(patch, tuple(Expr.zero(patch) for _ in patch.coords))

    @staticmethod
    def coordinate(patch: Patch, name: str) -> "VField":
        i = patch.index(name)
        comps = [Expr.zero(patch)] * patch.dim
        comps[i] = Expr.one(patch)
        return VField(patch, tuple(comps))

    def apply(self, f: Expr) -> Expr:
        """Directional derivative X(f)."""
        acc = Expr.zero(self.patch)
        for comp, coord in zip(self.components, self.patch.coords):
            if comp.terms:
                acc = acc + comp * f.differentiate(coord)
        return acc

    def __add__(self, other: "VField") -> "VField":
        if other.patch != self.patch:
            raise PatchMismatch("vector fields on different patches")
        return VField(self.patch, tuple(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other: "VField") -> "VField":
        return self + (-other)

    def __neg__(self) -> "VField":
        return VField(self.patch, tuple(-c for c in self.components))

    def scale(self, f: Expr) -> "VField":
        return VField(self.patch, tuple(f * c for c in self.components))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def __str__(self):
        parts = []
        for comp, coord in zip(self.components, self.patch.coords):
            if comp.is_zero():
                continue
            cs = str(comp)
            if cs == "1":
                parts.append(f"d_{coord}")
            elif "+" in cs or (cs.count("-") and not cs.startswith("-")) or " " in cs:
                parts.append(f"({cs})*d_{coord}")
            else:
                parts.append(f"{cs}*d_{coord}")
        return " + ".join(parts) if parts else "0"


class _AntisymTensor:
    """Nonzero coefficients ``coeffs`` on strictly increasing index tuples.

    A subclass sets its printed ``_basis`` and ``_mismatch`` message, and
    ``_like`` rebuilds each result through the subclass constructor, so every
    result is validated.  Tensors of different classes never compare equal or add.
    """

    __slots__ = ("patch", "degree", "coeffs")

    def __init__(self, patch: Patch, degree: int, coeffs: Mapping[tuple[int, ...], Expr]):
        clean: dict[tuple[int, ...], Expr] = {}
        for idx, e in coeffs.items():
            idx = tuple(idx)
            if len(idx) != degree or list(idx) != sorted(set(idx)):
                raise ValueError(f"index {idx} not strictly increasing of length {degree}")
            if any(i < 0 or i >= patch.dim for i in idx):
                raise ValueError(f"index {idx} out of range")
            if e.patch != patch:
                raise PatchMismatch("coefficient on a different patch")
            if not e.is_zero():
                clean[idx] = e
        object.__setattr__(self, "patch", patch)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def signed_coeff(self, idx: Sequence[int]) -> Expr:
        """Coefficient with arbitrary index order (antisymmetric extension)."""
        sign = _perm_sign(idx)
        value = self.coeffs.get(tuple(sorted(idx))) if sign else None
        if value is None:
            return Expr.zero(self.patch)
        return value if sign == 1 else -value

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if other.patch != self.patch or other.degree != self.degree:
            raise PatchMismatch(self._mismatch)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out[k] + v if k in out else v
        return self._like(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._like({k: -v for k, v in self.coeffs.items()})

    def scale(self, f: Expr):
        return self._like({k: f * v for k, v in self.coeffs.items()})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.patch == other.patch and self.degree == other.degree and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.patch, self.degree, frozenset(self.coeffs.items())))

    def __str__(self):
        if not self.coeffs:
            return "0"
        if self.degree == 0:
            return str(self.coeffs[()])
        parts = []
        for idx in sorted(self.coeffs):
            mono = "^".join(f"{self._basis}{self.patch.coords[i]}" for i in idx)
            cs = str(self.coeffs[idx])
            if cs == "1":
                parts.append(mono)
            elif cs == "-1":
                parts.append(f"-{mono}")
            elif " " in cs:
                parts.append(f"({cs})*{mono}")
            else:
                parts.append(f"{cs}*{mono}")
        return " + ".join(parts)

    def __repr__(self):
        return f"{type(self).__name__}({self})"


class KForm(_AntisymTensor):
    """Differential form of degree 0..3 with polynomial coefficients.

    ``_d`` holds d of the form once ``exterior_derivative`` has taken it; it
    takes no part in equality or hashing.
    """

    __slots__ = ("_d",)
    _basis = "d"
    _mismatch = "can only add forms of one degree on one patch"

    def __init__(self, patch: Patch, degree: int, coeffs: Mapping[tuple[int, ...], Expr]):
        if degree < 0 or degree > MAX_DEGREE:
            raise DegreeTooHigh(f"degree {degree} outside 0..{MAX_DEGREE}")
        super().__init__(patch, degree, coeffs)
        object.__setattr__(self, "_d", None)

    def _like(self, coeffs):
        return KForm(self.patch, self.degree, coeffs)

    @staticmethod
    def zero(patch: Patch, degree: int) -> "KForm":
        return KForm(patch, degree, {})

    @staticmethod
    def function(f: Expr) -> "KForm":
        return KForm(f.patch, 0, {(): f})

    @staticmethod
    def one_form(patch: Patch, components: Sequence[Expr]) -> "KForm":
        return KForm(patch, 1, {(i,): c for i, c in enumerate(components)})

    @staticmethod
    def d_coord(patch: Patch, name: str) -> "KForm":
        return KForm(patch, 1, {(patch.index(name),): Expr.one(patch)})

    def coeff(self, idx: tuple[int, ...]) -> Expr:
        return self.coeffs.get(tuple(idx), Expr.zero(self.patch))

    def components(self) -> tuple[Expr, ...]:
        """Degree-1 forms as a coefficient vector."""
        if self.degree != 1:
            raise ValueError("components() needs a one-form")
        return tuple(self.coeff((i,)) for i in range(self.patch.dim))

    def evaluate(self, *fields: VField) -> Expr:
        """Multilinear antisymmetric evaluation on vector fields."""
        if len(fields) != self.degree:
            raise ValueError(f"need {self.degree} vector fields")
        for v in fields:
            if v.patch != self.patch:
                raise PatchMismatch("vector field on a different patch")
        if self.degree == 0:
            return self.coeff(())
        acc = Expr.zero(self.patch)
        for idx, c in self.coeffs.items():
            det = _det([[fields[col].components[row] for col in range(self.degree)] for row in idx])
            if det.terms:
                acc = acc + c * det
        return acc


def _det(rows: list[list[Expr]]) -> Expr:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    if n == 3:
        return (
            rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
            - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
            + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0])
        )
    raise DegreeTooHigh("determinants only up to 3x3 are needed")


class Bivector(_AntisymTensor):
    """Antisymmetric (2,0)-tensor: entries p[i, j] = p(dx^i, dx^j) for i < j."""

    __slots__ = ()
    _basis = "d_"
    _mismatch = "bivectors on different patches"

    def __init__(self, patch: Patch, entries: Mapping[tuple[int, int], Expr]):
        super().__init__(patch, 2, entries)

    def _like(self, coeffs):
        return Bivector(self.patch, coeffs)

    @staticmethod
    def zero(patch: Patch) -> "Bivector":
        return Bivector(patch, {})

    def entry(self, i: int, j: int) -> Expr:
        """Signed entry p(dx^i, dx^j) for any index pair."""
        return self.signed_coeff((i, j))


@dataclass(frozen=True)
class PolyMap:
    """Polynomial map between patches: one component per target coordinate."""

    source: Patch
    target: Patch
    components: tuple[Expr, ...]

    def __post_init__(self):
        if len(self.components) != self.target.dim:
            raise ValueError("need one component per target coordinate")
        for c in self.components:
            if c.patch != self.source:
                raise PatchMismatch("component on a patch other than the source")

    @staticmethod
    def identity(patch: Patch) -> "PolyMap":
        return PolyMap(patch, patch, tuple(Expr.coord(patch, c) for c in patch.coords))

    def apply(self, point: Sequence[Expr], ppatch: Patch | None = None) -> list[Expr]:
        """Value on a symbolic point (exprs over any parameter patch).

        ``ppatch`` is only needed when the source is zero-dimensional, where
        the empty point cannot carry the parameter patch itself.
        """
        if len(point) != self.source.dim:
            raise ValueError("point has wrong length")
        if point:
            ppatch = point[0].patch
        elif ppatch is None:
            raise ValueError("zero-dimensional source needs an explicit parameter patch")
        values = list(point)
        return [c.substitute(values, ppatch) for c in self.components]

    def compose(self, other: "PolyMap") -> "PolyMap":
        """self o other."""
        if other.target != self.source:
            raise PatchMismatch("maps do not chain")
        comps = tuple(c.substitute(list(other.components), other.source) for c in self.components)
        return PolyMap(other.source, self.target, comps)

    def pullback_scalar(self, f: Expr) -> Expr:
        if f.patch != self.target:
            raise PatchMismatch("scalar not on the target patch")
        return f.substitute(list(self.components), self.source)

    def jacobian(self) -> ExprMatrix:
        """Rows = target components, columns = source coordinates."""
        rows = [
            [c.differentiate(x) for x in self.source.coords] for c in self.components
        ]
        return ExprMatrix.from_rows(self.source, rows)

    def is_identity(self) -> bool:
        return self.source == self.target and all(
            c == Expr.coord(self.source, x) for c, x in zip(self.components, self.source.coords)
        )

    def __str__(self):
        comps = ", ".join(str(c) for c in self.components)
        return f"{self.source.name} -> {self.target.name}: ({comps})"


# -- operations -----------------------------------------------------------------


def lie_bracket(x: VField, y: VField) -> VField:
    """[X, Y]^i = X^j d_j Y^i - Y^j d_j X^i."""
    if x.patch != y.patch:
        raise PatchMismatch("vector fields on different patches")
    comps = tuple(x.apply(yc) - y.apply(xc) for xc, yc in zip(x.components, y.components))
    return VField(x.patch, comps)


def exterior_derivative(w: KForm) -> KForm:
    """d on forms of degree <= 2, taken once per form and memoised on it."""
    if w.degree > 2:
        raise DegreeTooHigh("exterior derivative supported for degree <= 2")
    if w._d is not None:
        return w._d
    patch = w.patch
    reach = set()
    for rest, c in w.coeffs.items():
        used = {i for e in c.terms for i, k in enumerate(e) if k}
        reach.update(tuple(sorted(rest + (i,))) for i in used.difference(rest))
    out: dict[tuple[int, ...], Expr] = {}
    for idx in sorted(reach):
        acc = Expr.zero(patch)
        for m, i in enumerate(idx):
            c = w.coeffs.get(idx[:m] + idx[m + 1:])
            if c is not None:
                term = c.differentiate(patch.coords[i])
                acc = acc + (term if m % 2 == 0 else -term)
        if acc.terms:
            out[idx] = acc
    d = KForm(patch, w.degree + 1, out)
    object.__setattr__(w, "_d", d)
    return d


def interior_product(x: VField, w: KForm) -> KForm:
    """i_X w; requires degree >= 1."""
    if w.degree == 0:
        raise DegreeZero("cannot contract a function")
    if x.patch != w.patch:
        raise PatchMismatch("operands on different patches")
    patch = w.patch
    support = [i for i, c in enumerate(x.components) if c.terms]
    reach = {key[:m] + key[m + 1:] for key in w.coeffs for m, i in enumerate(key) if x.components[i].terms}
    out: dict[tuple[int, ...], Expr] = {}
    for idx in sorted(reach):
        acc = Expr.zero(patch)
        for i in support:
            sign = _perm_sign((i,) + idx)
            c = w.coeffs.get(tuple(sorted((i,) + idx))) if sign else None
            if c is not None:
                acc = acc + x.components[i] * (c if sign == 1 else -c)
        if acc.terms:
            out[idx] = acc
    return KForm(patch, w.degree - 1, out)


def lie_derivative(x: VField, w: KForm) -> KForm:
    """Cartan magic formula L_X = i_X d + d i_X (degree <= 2)."""
    if w.degree > 2:
        raise DegreeTooHigh("Lie derivative supported for degree <= 2")
    if w.degree == 0:
        return KForm.function(x.apply(w.coeff(())))
    return interior_product(x, exterior_derivative(w)) + exterior_derivative(
        interior_product(x, w)
    )


def wedge(a: KForm, b: KForm) -> KForm:
    """Wedge product (determinant convention), result degree <= 3."""
    if a.patch != b.patch:
        raise PatchMismatch("forms on different patches")
    deg = a.degree + b.degree
    if deg > MAX_DEGREE:
        raise DegreeTooHigh(f"wedge degree {deg} exceeds {MAX_DEGREE}")
    patch = a.patch
    out: dict[tuple[int, ...], Expr] = {}
    for ia, ca in a.coeffs.items():
        for ib, cb in b.coeffs.items():
            sign = _perm_sign(ia + ib)
            if sign == 0:
                continue
            key = tuple(sorted(ia + ib))
            add = ca * cb if sign == 1 else -(ca * cb)
            cur = out.get(key, Expr.zero(patch))
            out[key] = cur + add
    return KForm(patch, deg, out)


def wedge_fields(x: VField, y: VField) -> Bivector:
    """X ^ Y, so that (X ^ Y)[i, j] = X^i Y^j - X^j Y^i."""
    if x.patch != y.patch:
        raise PatchMismatch("wedge of vector fields on different patches")
    a, b = x.components, y.components
    return Bivector(x.patch, {(i, j): a[i] * b[j] - a[j] * b[i] for i, j in combinations(range(x.patch.dim), 2)})


def sharp_bivector(p: Bivector, a: KForm) -> VField:
    """p^#(a) = p(a, .); component i is sum_j p[j, i] a_j."""
    if a.degree != 1:
        raise ValueError("sharp needs a one-form")
    if a.patch != p.patch:
        raise PatchMismatch("operands on different patches")
    patch = p.patch
    stored = sorted(a.coeffs.items())
    comps = []
    for i in range(patch.dim):
        acc = Expr.zero(patch)
        for (j,), aj in stored:
            pji = p.coeffs.get((j, i)) if j < i else p.coeffs.get((i, j))
            if pji is not None:
                acc = acc + (pji if j < i else -pji) * aj
        comps.append(acc)
    return VField(patch, tuple(comps))


def poisson_bracket(p: Bivector, f: Expr, g: Expr) -> Expr:
    """{f, g} = p(df, dg)."""
    patch = p.patch
    acc = Expr.zero(patch)
    for (i, j), c in p.coeffs.items():
        xi, xj = patch.coords[i], patch.coords[j]
        acc = acc + c * (f.differentiate(xi) * g.differentiate(xj) - f.differentiate(xj) * g.differentiate(xi))
    return acc


def schouten_jacobiator(p: Bivector) -> dict[tuple[int, int, int], Expr]:
    """Jacobiator Jac(i,j,k) = sum_cyc {x^i, {x^j, x^k}} on increasing triples.

    Vanishing of every entry is the Poisson condition.
    """
    patch = p.patch
    # row[a]: (m, stored entry, whether p[a, m] is its negative), in increasing m
    row: list[list[tuple[int, Expr, bool]]] = [[] for _ in patch.coords]
    for (a, m), e in sorted(p.coeffs.items()):
        row[a].append((m, e, False))
        row[m].append((a, e, True))
    out: dict[tuple[int, int, int], Expr] = {}
    for (i, j, k) in combinations(range(patch.dim), 3):
        acc = Expr.zero(patch)
        for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
            # {x^a, p(dx^b, dx^c)} = sum_m p[a, m] d_m p[b, c]
            pbc = p.entry(b, c)
            for m, e, flip in row[a]:
                acc = acc + (-e if flip else e) * pbc.differentiate(patch.coords[m])
        out[(i, j, k)] = acc
    return out


def pullback_form(f: PolyMap, w: KForm) -> KForm:
    """f^* w for w on the target of f."""
    if w.patch != f.target:
        raise PatchMismatch("form not on the target patch")
    src = f.source
    jac = f.jacobian()
    if w.degree == 0:
        return KForm.function(f.pullback_scalar(w.coeff(())))
    out: dict[tuple[int, ...], Expr] = {}
    for idx_src in combinations(range(src.dim), w.degree):
        acc = Expr.zero(src)
        for idx_tgt, c in w.coeffs.items():
            minor = _det([[jac.entries[r][s] for s in idx_src] for r in idx_tgt])
            if not minor.is_zero():
                acc = acc + f.pullback_scalar(c) * minor
        if not acc.is_zero():
            out[idx_src] = acc
    return KForm(src, w.degree, out)


def pushforward_bivector(f: PolyMap, f_inv: PolyMap, p: Bivector) -> Bivector:
    """f_* p expressed on the target, using the supplied two-sided inverse."""
    if p.patch != f.source:
        raise PatchMismatch("bivector not on the source patch")
    if f_inv.source != f.target or f_inv.target != f.source:
        raise NotInverse("inverse goes between the wrong patches")
    if not f.compose(f_inv).is_identity() or not f_inv.compose(f).is_identity():
        raise NotInverse("supplied map is not a two-sided inverse")
    jac = f.jacobian()
    tgt = f.target
    out: dict[tuple[int, int], Expr] = {}
    for (k, l) in combinations(range(tgt.dim), 2):
        acc = Expr.zero(f.source)
        for (i, j), c in p.coeffs.items():
            acc = acc + c * (
                jac.entries[k][i] * jac.entries[l][j] - jac.entries[k][j] * jac.entries[l][i]
            )
        if not acc.is_zero():
            out[(k, l)] = f_inv.pullback_scalar(acc)
    return Bivector(tgt, out)
