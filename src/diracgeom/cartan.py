"""Vector fields, differential forms of degree <= 3, bivectors, polynomial maps.

Conventions fixed once and used everywhere:

* ``wedge_fields``: ``(X ^ Y)(a, b) = a(X) b(Y) - a(Y) b(X)``, so a bivector
  ``p`` stores the coefficients ``p[i, j] = p(dx^i, dx^j)`` for ``i < j``.
* ``sharp_bivector(p, a)^i = sum_j p[j, i] a_j``, i.e. ``p^#(a) = p(a, .)``.
  For ``p = dx ^ dy`` this sends ``dx`` to ``d_y`` and ``dy`` to ``-d_x``.
* Forms store coefficients on strictly increasing index tuples; evaluation is
  the determinant convention, ``(dx ^ dy)(d_x, d_y) = 1``.
* ``VField``, ``KForm`` and ``Bivector`` are three classes on one sparse
  antisymmetric tensor, ``_AntisymTensor``, that differ only in degree and
  printed basis (``dx`` against ``d_x``).  A vector field is the degree-1
  contravariant tensor: it stores its non-zero components as ``coeffs[(i,)]``
  and prints as a bivector does.  A tensor never equals or adds to one of
  another class with the same coefficients.  ``components()`` is the one
  dense view, of a field or a one-form, for callers that need a vector.

Only the public constructors validate (index order and range, patch, one
component per coordinate for a field); they are the boundary for input from
outside.  Every operator below builds its result through
``_AntisymTensor._trusted``, which drops zero entries and checks nothing
else, as ``Expr._trusted`` takes a term map.

Frames built from lifts are mostly zero, so the operators walk only what is
stored: ``VField.apply``, ``KForm.evaluate``, ``sharp_bivector`` and
``wedge_fields`` read stored components only, and ``exterior_derivative``
and ``interior_product`` visit only the index tuples reachable from stored
coefficients (and, for i_X, the support of X).  They visit those tuples in
sorted order, the order of ``combinations``, so every result has the same
terms in the same order as the dense loops.  ``pullback_form`` picks only
non-zero entries of the Jacobian the map keeps (``PolyMap.jacobian``) and
forms no minor.  A form memoises its ``d`` on
first use, and a vector field its Jacobian (``VField._jacobian``, the
non-zero derivatives only), so ``lie_bracket`` differentiates each component
once along each coordinate it contains however many brackets the field
enters, and visits only the rows a stored derivative reaches.  A one-form is
evaluated as sum_i c_i X^i over the indices both store, without
determinants.  Each sum is built in one term map by ``symalg.dot`` (or
``_combine`` for signs), and a signed lookup that misses returns None
(``_AntisymTensor._signed``), so no operator builds a zero it then skips.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations, product
from typing import Mapping, Sequence

from .errors import PatchMismatch, WrongShape
from .symalg import Expr, ExprMatrix, Patch, _combine, _Frozen, _Value, dot

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


class _AntisymTensor(_Frozen):
    """Nonzero coefficients ``coeffs`` on strictly increasing index tuples.

    A subclass sets its printed ``_basis`` and ``_mismatch`` message.  The
    constructor validates and ``_trusted`` builds kernel results.  ``_memo``
    holds what a subclass derives once (d of a form, the Jacobian of a field)
    and takes no part in equality or hashing.  Tensors of different classes
    never compare equal or add.
    """

    __slots__ = ("patch", "degree", "coeffs", "_memo")

    def __init__(self, patch: Patch, degree: int, coeffs: Mapping[tuple[int, ...], Expr]):
        clean: dict[tuple[int, ...], Expr] = {}
        for idx, e in coeffs.items():
            idx = tuple(idx)
            if len(idx) != degree or list(idx) != sorted(set(idx)):
                raise WrongShape(f"index {idx} not strictly increasing of length {degree}")
            if any(i < 0 or i >= patch.dim for i in idx):
                raise WrongShape(f"index {idx} out of range")
            if e.patch is not patch and e.patch != patch:
                raise PatchMismatch("coefficient on a different patch")
            if e.terms:
                clean[idx] = e
        self._fill(patch, degree, clean)

    @classmethod
    def _trusted(cls, patch: Patch, degree: int, coeffs: Mapping[tuple[int, ...], Expr]):
        """A result the kernel built, on strictly increasing in-range keys with coefficients on ``patch``:
        its zero coefficients are dropped and nothing else is checked."""
        self = object.__new__(cls)
        self._fill(patch, degree, {idx: e for idx, e in coeffs.items() if e.terms})
        return self

    def _fill(self, patch: Patch, degree: int, coeffs: dict[tuple[int, ...], Expr]) -> None:
        # in place of _Frozen._fill: through the slot descriptors' own setters, as Expr._trusted fills an Expr
        _set_patch(self, patch)
        _set_degree(self, degree)
        _set_coeffs(self, coeffs)
        _set_memo(self, None)

    def _signed(self, idx: Sequence[int]) -> Expr | None:
        """Coefficient with arbitrary index order (antisymmetric extension), None when it is zero."""
        sign = _perm_sign(idx)
        value = self.coeffs.get(tuple(sorted(idx))) if sign else None
        return value if value is None or sign == 1 else -value

    def signed_coeff(self, idx: Sequence[int]) -> Expr:
        """Coefficient with arbitrary index order (antisymmetric extension)."""
        value = self._signed(idx)
        return Expr.zero(self.patch) if value is None else value

    def components(self) -> tuple[Expr, ...]:
        """A vector field or one-form as its dense vector: one entry per coordinate, zero where none is stored."""
        if self.degree != 1:
            raise WrongShape("components() needs a vector field or a one-form")
        zero = Expr.zero(self.patch)
        return tuple(self.coeffs.get((i,), zero) for i in range(self.patch.dim))

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if other.patch != self.patch or other.degree != self.degree:
            raise PatchMismatch(self._mismatch)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out[k] + v if k in out else v
        return self._trusted(self.patch, self.degree, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._trusted(self.patch, self.degree, {k: -v for k, v in self.coeffs.items()})

    def scale(self, f: Expr):
        return self._trusted(self.patch, self.degree, {k: f * v for k, v in self.coeffs.items()})

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


_set_patch, _set_degree, _set_coeffs, _set_memo = (getattr(_AntisymTensor, name).__set__ for name in _AntisymTensor.__slots__)


class VField(_AntisymTensor):
    """Vector field: the degree-1 contravariant tensor, built from one component per coordinate.

    ``_memo`` holds the Jacobian once ``_jacobian`` has been read.
    """

    __slots__ = ()
    _basis = "d_"
    _mismatch = "vector fields on different patches"

    def __init__(self, patch: Patch, components: Sequence[Expr]):
        if len(components) != patch.dim:
            raise WrongShape("need one component per coordinate")
        super().__init__(patch, 1, {(i,): c for i, c in enumerate(components)})

    @staticmethod
    def zero(patch: Patch) -> "VField":
        return VField._trusted(patch, 1, {})

    @staticmethod
    def coordinate(patch: Patch, name: str) -> "VField":
        return VField._trusted(patch, 1, {(patch.index(name),): Expr.one(patch)})

    def _jacobian(self) -> dict[tuple[int], list[tuple[tuple[int], Expr]]]:
        """Row (i,) lists ((j,), d_j X^i) for each coordinate j that X^i contains, in increasing j.

        Each stored component is differentiated once, on first use, and the
        rows are kept; a constant component has no row."""
        if self._memo is None:
            coords, rows = self.patch.coords, {}
            for key, c in self.coeffs.items():
                used = sorted({j for e in c.terms for j, k in enumerate(e) if k})
                if used:
                    rows[key] = [((j,), c.differentiate(coords[j])) for j in used]
            _set_memo(self, rows)
        return self._memo

    def apply(self, f: Expr) -> Expr:
        """Directional derivative X(f)."""
        coords = self.patch.coords
        return dot(self.patch, ((c, f.differentiate(coords[i])) for (i,), c in self.coeffs.items()))


class KForm(_AntisymTensor):
    """Differential form of degree 0..3 with polynomial coefficients.

    ``_memo`` holds d of the form once ``exterior_derivative`` has taken it.
    """

    __slots__ = ()
    _basis = "d"
    _mismatch = "can only add forms of one degree on one patch"

    def __init__(self, patch: Patch, degree: int, coeffs: Mapping[tuple[int, ...], Expr]):
        if degree < 0 or degree > MAX_DEGREE:
            raise WrongShape(f"degree {degree} outside 0..{MAX_DEGREE}")
        super().__init__(patch, degree, coeffs)

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
        c = self.coeffs.get(tuple(idx))
        return Expr.zero(self.patch) if c is None else c

    def evaluate(self, *fields: VField) -> Expr:
        """Multilinear antisymmetric evaluation on vector fields, reading their stored components."""
        if len(fields) != self.degree:
            raise WrongShape(f"need {self.degree} vector fields")
        for v in fields:
            if v.patch != self.patch:
                raise PatchMismatch("vector field on a different patch")
        if self.degree == 0:
            return self.coeff(())
        if self.degree == 1:
            # sum_i c_i X^i over the indices both store: the determinants are the 1x1 ones
            x = fields[0].coeffs
            return dot(self.patch, ((c, xi) for idx, c in self.coeffs.items() if (xi := x.get(idx)) is not None))
        zero = Expr.zero(self.patch)
        return dot(self.patch, ((c, _det([[v.coeffs.get((r,), zero) for v in fields] for r in idx])) for idx, c in self.coeffs.items()))


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
    raise WrongShape("determinants only up to 3x3 are needed")


class Bivector(_AntisymTensor):
    """Antisymmetric (2,0)-tensor: entries p[i, j] = p(dx^i, dx^j) for i < j."""

    __slots__ = ()
    _basis = "d_"
    _mismatch = "bivectors on different patches"

    def __init__(self, patch: Patch, entries: Mapping[tuple[int, int], Expr]):
        super().__init__(patch, 2, entries)

    def entry(self, i: int, j: int) -> Expr:
        """Signed entry p(dx^i, dx^j) for any index pair."""
        return self.signed_coeff((i, j))


class PolyMap(_Value):
    """Polynomial map between patches: one component per target coordinate.

    Immutable; equal and hashing alike when source, target and components agree.
    """

    source: Patch
    target: Patch
    components: tuple[Expr, ...]
    _FIELDS = ("source", "target", "components")

    def __init__(self, source: Patch, target: Patch, components: tuple[Expr, ...]):
        if len(components) != target.dim:
            raise WrongShape("need one component per target coordinate")
        for c in components:
            if c.patch != source:
                raise PatchMismatch("component on a patch other than the source")
        self._fill(source, target, components)

    @staticmethod
    def identity(patch: Patch) -> "PolyMap":
        return PolyMap(patch, patch, tuple(Expr.coord(patch, c) for c in patch.coords))

    def apply(self, point: Sequence[Expr], ppatch: Patch | None = None) -> list[Expr]:
        """Value on a symbolic point (exprs over any parameter patch).

        ``ppatch`` is only needed when the source is zero-dimensional, where
        the empty point cannot carry the parameter patch itself.
        """
        if len(point) != self.source.dim:
            raise WrongShape("point has wrong length")
        if point:
            ppatch = point[0].patch
        elif ppatch is None:
            raise WrongShape("zero-dimensional source needs an explicit parameter patch")
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
        """Rows = target components, columns = source coordinates; built on first use and kept on the map."""
        return self._jacobian

    @cached_property
    def _jacobian(self) -> ExprMatrix:
        rows = [[c.differentiate(x) for x in self.source.coords] for c in self.components]
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
    """[X, Y]^i = X^j d_j Y^i - Y^j d_j X^i, read off the Jacobians the fields keep.

    Only the rows i of a stored derivative are visited.  Each sum runs over
    the stored derivatives d_j whose component X^j (or Y^j) is stored, in
    increasing j, the pairs ``VField.apply`` would take; a field's Jacobian is
    read only when the other field has a stored component.
    """
    if x.patch != y.patch:
        raise PatchMismatch("vector fields on different patches")
    patch = x.patch
    dx = x._jacobian() if y.coeffs else {}
    dy = y._jacobian() if x.coeffs else {}
    out = {}
    for i in sorted(dx.keys() | dy.keys()):
        plus = [(c, d) for j, d in dy.get(i, ()) if (c := x.coeffs.get(j)) is not None]
        minus = [(c, d) for j, d in dx.get(i, ()) if (c := y.coeffs.get(j)) is not None]
        if plus and minus:
            out[i] = dot(patch, plus) - dot(patch, minus)
        elif plus:
            out[i] = dot(patch, plus)
        elif minus:
            out[i] = -dot(patch, minus)
    return VField._trusted(patch, 1, out)


def exterior_derivative(w: KForm) -> KForm:
    """d on forms of degree <= 2, taken once per form and memoised on it."""
    if w.degree > 2:
        raise WrongShape("exterior derivative supported for degree <= 2")
    if w._memo is not None:
        return w._memo
    patch = w.patch
    reach = set()
    for rest, c in w.coeffs.items():
        used = {i for e in c.terms for i, k in enumerate(e) if k}
        reach.update(tuple(sorted(rest + (i,))) for i in used.difference(rest))
    out: dict[tuple[int, ...], Expr] = {}
    for idx in sorted(reach):
        faces = [(m, c) for m in range(len(idx)) if (c := w.coeffs.get(idx[:m] + idx[m + 1:])) is not None]
        out[idx] = _combine(patch, [(-1) ** m for m, _ in faces], [c.differentiate(patch.coords[idx[m]]) for m, c in faces])
    d = KForm._trusted(patch, w.degree + 1, out)
    _set_memo(w, d)
    return d


def interior_product(x: VField, w: KForm) -> KForm:
    """i_X w; requires degree >= 1."""
    if w.degree == 0:
        raise WrongShape("cannot contract a function")
    if x.patch != w.patch:
        raise PatchMismatch("operands on different patches")
    patch, support = w.patch, x.coeffs
    reach = {key[:m] + key[m + 1:] for key in w.coeffs for m, i in enumerate(key) if (i,) in support}
    out = {
        idx: dot(patch, ((xi, c) for (i,), xi in support.items() if (c := w._signed((i,) + idx)) is not None))
        for idx in sorted(reach)
    }
    return KForm._trusted(patch, w.degree - 1, out)


def lie_derivative(x: VField, w: KForm) -> KForm:
    """Cartan magic formula L_X = i_X d + d i_X (degree <= 2)."""
    if w.degree > 2:
        raise WrongShape("Lie derivative supported for degree <= 2")
    if w.degree == 0:
        return KForm._trusted(w.patch, 0, {k: x.apply(c) for k, c in w.coeffs.items()})
    return interior_product(x, exterior_derivative(w)) + exterior_derivative(
        interior_product(x, w)
    )


def _wedge_coeffs(a: _AntisymTensor, b: _AntisymTensor) -> dict[tuple[int, ...], Expr]:
    """Coefficients of a ^ b (determinant convention) for tensors of one patch, key by key in one ``dot``."""
    pairs: dict[tuple[int, ...], list[tuple[Expr, Expr]]] = {}
    for ia, ca in a.coeffs.items():
        for ib, cb in b.coeffs.items():
            sign = _perm_sign(ia + ib)
            if sign:
                pairs.setdefault(tuple(sorted(ia + ib)), []).append((ca if sign == 1 else -ca, cb))
    return {key: dot(a.patch, p) for key, p in pairs.items()}


def wedge(a: KForm, b: KForm) -> KForm:
    """Wedge product (determinant convention), result degree <= 3."""
    if a.patch != b.patch:
        raise PatchMismatch("forms on different patches")
    deg = a.degree + b.degree
    if deg > MAX_DEGREE:
        raise WrongShape(f"wedge degree {deg} exceeds {MAX_DEGREE}")
    return KForm._trusted(a.patch, deg, _wedge_coeffs(a, b))


def wedge_fields(x: VField, y: VField) -> Bivector:
    """X ^ Y, so that (X ^ Y)[i, j] = X^i Y^j - X^j Y^i."""
    if x.patch != y.patch:
        raise PatchMismatch("wedge of vector fields on different patches")
    return Bivector._trusted(x.patch, 2, _wedge_coeffs(x, y))


def sharp_bivector(p: Bivector, a: KForm) -> VField:
    """p^#(a) = p(a, .); component i is sum_j p[j, i] a_j."""
    if a.degree != 1:
        raise WrongShape("sharp needs a one-form")
    if a.patch != p.patch:
        raise PatchMismatch("operands on different patches")
    patch = p.patch
    stored = sorted(a.coeffs.items())
    pairs = ([(pji, aj) for (j,), aj in stored if (pji := p._signed((j, i))) is not None] for i in range(patch.dim))
    return VField._trusted(patch, 1, {(i,): dot(patch, ps) for i, ps in enumerate(pairs) if ps})


def schouten_jacobiator(p: Bivector) -> dict[tuple[int, int, int], Expr]:
    """Jacobiator Jac(i,j,k) = sum_cyc {x^i, {x^j, x^k}} on increasing triples.

    Vanishing of every entry is the Poisson condition.
    """
    patch = p.patch
    # row[a]: (m, p[a, m]) for every nonzero p[a, m], in increasing m
    row: list[list[tuple[int, Expr]]] = [[] for _ in patch.coords]
    for (a, m), e in sorted(p.coeffs.items()):
        row[a].append((m, e))
        row[m].append((a, -e))
    out: dict[tuple[int, int, int], Expr] = {}
    for (i, j, k) in combinations(range(patch.dim), 3):
        # {x^a, p(dx^b, dx^c)} = sum_m p[a, m] d_m p[b, c]
        cyclic = [(row[a], pbc) for a, b, c in ((i, j, k), (j, k, i), (k, i, j)) if (pbc := p._signed((b, c))) is not None]
        out[(i, j, k)] = dot(patch, ((e, pbc.differentiate(patch.coords[m])) for ra, pbc in cyclic for m, e in ra))
    return out


def pullback_form(f: PolyMap, w: KForm) -> KForm:
    """f^* w for w on the target of f.

    f^*(c dx^{r_1} ^ ... ^ dx^{r_k}) is f^*(c) times the wedge of the rows
    f^*dx^r = sum_s J[r][s] dx^s, so the sum runs over one non-zero Jacobian
    entry per row, in distinct columns s_1..s_k: each such pick adds
    sign(s) f^*(c) J[r_1][s_1]...J[r_k][s_k] to the coefficient of the sorted
    columns, where sign(s) is the sign of the permutation sorting them.  The
    picks with one set of columns are the non-zero terms of the Leibniz
    expansion of that minor of J, so this equals the minor expansion,
    without forming a minor or a term that is zero.
    """
    if w.patch != f.target:
        raise PatchMismatch("form not on the target patch")
    src = f.source
    if w.degree == 0:
        return KForm._trusted(src, 0, {k: f.pullback_scalar(c) for k, c in w.coeffs.items()})
    # row r of the Jacobian as its non-zero entries (s, J[r][s])
    rows = [[(s, e) for s, e in enumerate(row) if e.terms] for row in f.jacobian().entries]
    pairs: dict[tuple[int, ...], list[tuple[Expr, Expr]]] = {}
    for idx_tgt, c in w.coeffs.items():
        pulled = f.pullback_scalar(c)
        if not pulled.terms:
            continue
        for pick in product(*(rows[r] for r in idx_tgt)):
            cols = tuple(s for s, _ in pick)
            sign = _perm_sign(cols)
            if sign:
                term = pick[0][1]
                for _, e in pick[1:]:
                    term = term * e
                pairs.setdefault(tuple(sorted(cols)), []).append((pulled if sign == 1 else -pulled, term))
    return KForm._trusted(src, w.degree, {key: dot(src, pairs[key]) for key in sorted(pairs)})



def _pushed_entries(p: Bivector, rows, point: Sequence[Expr], ppatch: Patch) -> dict[tuple[int, int], Expr]:
    """Entries k < l of J p J^T on ``ppatch``, J = ``rows``, with each stored entry of p taken once at ``point``."""
    stored = [(i, j, c.substitute(point, ppatch)) for (i, j), c in p.coeffs.items()]
    return {
        (k, l): dot(ppatch, ((c, rows[k][i] * rows[l][j] - rows[k][j] * rows[l][i]) for i, j, c in stored))
        for k, l in combinations(range(len(rows)), 2)
    }
