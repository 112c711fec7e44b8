"""Exact scalar algebra on coordinate patches.

Scalars are multivariate polynomials with rational coefficients, stored as
canonical term maps: exponent tuple -> coefficient, zero coefficients never
stored.  A coefficient is an ``int`` or a ``Fraction``: the constructors and
every quotient store an integral value as ``int``, and sums and products of
``int`` stay ``int``.  A sum or product with a ``Fraction`` operand stays a
``Fraction`` even when it is integral: ``(Expr(P, {(1,): Fraction(2, 3)}) *
Fraction(3, 2)).terms`` stores ``Fraction(1, 1)``.  It is not normalised, as
that would add a check to every term product.  ``Fraction(2) == 2``, the two
hash alike, print alike and have one residue in ``_mod_p``, so equality of
scalars is literal equality of term maps either way, and ``is_zero`` is a
syntactic check on the canonical form.  No floats anywhere: ``int / int`` is
one, so every division of coefficients goes through ``_quotient``.

Serialization orders terms graded-lexicographically by coordinate index, so
printing is deterministic and byte-stable across runs.

Rational functions (``RatExpr``) appear only transiently, as outputs of
``solve_linear`` and inside elimination; everything user-facing is polynomial.

Elimination (``generic_rank``, ``solve_linear``, ``nullspace``, ``in_span``)
takes an ``ExprMatrix``, which carries its patch even with no entries, and
reads one reduction per matrix, made on first use and kept on it.  A matrix
of constants goes through Gauss-Jordan of [a | I] over Q (``_Reduction``),
so a right-hand side is only combined with rational rows; the groupoid
charts solve their constant systems through the same class.  Any other
matrix goes through one fraction-free Bareiss elimination over the
polynomial ring that keeps its steps (``_FractionFree``), and a
right-hand side is replayed through them: it ends as the last column of
[a | b] would, at the cost of one column.  A column lies in the span when it
vanishes past the rank after either.  Both take the leftmost column with a
nonzero entry as the next pivot, so they find the same pivot columns and
return equal results.

Until a non-constant matrix keeps its reduction, ``generic_rank`` first
certifies the rank from both sides in word-size integers.  From below: the
rank modulo the prime p = 2^61 - 1 of the values at a fixed rational point.
A minor non-zero mod p is non-zero at the point, hence a non-zero
polynomial; a coefficient with p in its denominator skips the certificate.
From above: the term rank, a maximum matching of the non-zero entries,
since every non-zero minor has a non-zero term.  When the lower bound is min(rows, cols) or equals the term rank, that
is the rank and nothing is eliminated; otherwise the matrix is reduced.

Accumulation: every sum of products is built in one term map, never by
adding to an accumulating ``Expr``, which copies the whole map at each step.
``dot`` sums the products of pairs of polynomials, and ``_combine`` a
combination of polynomials with rational coefficients.  Both merge each
product into the sum as it is formed (``_merge``), so they store the terms of
the step-by-step sum in the same insertion order.

Only the public constructor ``Expr(patch, terms)`` validates: it checks the
exponent tuples, turns coefficients into ``int`` or ``Fraction`` and drops
zeros, and is the boundary for input from outside the kernel.  Kernel
results whose term map is canonical by construction are built by
``Expr._trusted``, which takes the dict as given: one ``object.__new__``
and the two slot descriptors' own setters, with no ``__setattr__`` call, so
every other assignment still raises.

No work on a zero or a unit: ``substitute`` checks its values and then
returns the target's zero for the zero polynomial at once.  Otherwise it
makes one pass over the terms and reads each used value once: a value of one
term or none moves a term's exponents and scales its coefficient, a value of
more terms contributes its power, built once per call by ``_product``, and a
term that uses a zero value is skipped.  The terms are merged in the order of
the term-by-term rule, and the result is the only ``Expr`` built.  ``e ** k``
is k - 1 products starting from ``e`` itself.  A zero operand returns at once:
``a + 0``, ``0 + a`` and ``a - 0`` are ``a``, and ``-0`` and the derivative of 0 are that zero, so a
result may be an operand itself; no operation changes a term map it did not
build.  ``a - b`` subtracts into one copy of ``a``, with the terms of
``a + (-b)`` in the same order.  ``__mul__`` and ``dot`` share one product
loop on term maps, ``_product``, so ``dot`` builds no ``Expr`` per pair.  A
``RatExpr`` keeps a unit denominator it is given instead of building another.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence, Union

from .errors import Inconsistent, PatchMismatch, UnknownSymbol, WrongShape

Scalar = Union[int, Fraction]

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# most coordinates a patch may have; every chart and lift is a patch, so nothing
# built from user input grows past it
MAX_DIMENSION = 128


class _Frozen:
    """Fields named by ``_FIELDS``, set once by ``_fill`` from ``__init__``; assignment raises."""

    __slots__ = ()
    _FIELDS: tuple[str, ...] = ()

    def _fill(self, *values) -> None:
        for name, value in zip(self._FIELDS, values):
            _set_field(self, name, value)

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")


# bound once: a lookup of object.__setattr__ per field made a two-field _fill about 70 % slower
_set_field = object.__setattr__


class _Value(_Frozen):
    """A frozen type equal to its own type, and hashing alike, when its fields agree."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._FIELDS)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())


class Patch(_Frozen):
    """A named coordinate patch: an ordered tuple of distinct coordinate names.

    Zero-dimensional patches are allowed; they carry the constants and serve
    as the base of groups viewed as groupoids over a point.  A patch has at
    most ``MAX_DIMENSION`` coordinates.  Immutable; equal and hashing alike
    when name and coordinates agree.  ``dim``, the coordinate -> index map
    and the hash are kept in slots, since every polynomial operation reads
    them.
    """

    __slots__ = _FIELDS = ("name", "coords", "dim", "_index", "_hash")

    def __init__(self, name: str, coords: Sequence[str]):
        coords = tuple(coords)
        if not name:
            raise WrongShape("patch needs a name")
        if len(coords) > MAX_DIMENSION:
            raise WrongShape(f"patch {name} has {len(coords)} coordinates, above the limit of {MAX_DIMENSION}")
        index = {}
        for i, c in enumerate(coords):
            if not _NAME_RE.fullmatch(c):
                raise WrongShape(f"patch {name}: bad coordinate name {c!r}")
            if c in index:
                raise WrongShape(f"patch {name}: duplicate coordinate {c!r}")
            index[c] = i
        self._fill(name, coords, len(coords), index, hash((name, coords)))

    def __eq__(self, other):
        if other is self:
            return True
        if type(other) is not Patch:
            return NotImplemented
        return self._hash == other._hash and self.name == other.name and self.coords == other.coords

    def __hash__(self):
        return self._hash

    def index(self, coord: str) -> int:
        try:
            return self._index[coord]
        except KeyError:
            raise UnknownSymbol(f"{coord!r} is not a coordinate of patch {self.name!r}")

    def __repr__(self):
        return f"Patch({self.name!r}, dim={self.dim})"


def fresh_names(base: str, count: int, taken: Iterable[str]) -> list[str]:
    """Deterministic fresh identifiers base1..baseN avoiding ``taken``."""
    used = set(taken)
    out = []
    i = 1
    while len(out) < count:
        cand = f"{base}{i}"
        if cand not in used:
            used.add(cand)
            out.append(cand)
        i += 1
    return out


def _grlex_key(exps: tuple[int, ...]):
    return (sum(exps), exps)


def _grlex_heap_entry(exps: tuple[int, ...]):
    """A min-heap entry that puts the grlex-largest exponent tuple first."""
    return (-sum(exps), tuple(map(operator.neg, exps)), exps)


def _coefficient(value) -> Scalar:
    """``value`` as a coefficient: an ``int`` when it is integral, else a ``Fraction``."""
    if type(value) is int:
        return value
    v = Fraction(value)
    return v.numerator if v.denominator == 1 else v


def _quotient(a: Scalar, b: Scalar) -> Scalar:
    """a / b exactly, an ``int`` when it is integral (``int / int`` would be a float)."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    v = a / b
    return v.numerator if v.denominator == 1 else v


class Expr(_Frozen):
    """Polynomial over a patch with exact rational coefficients.

    Immutable.  ``terms`` maps exponent tuples (length = patch.dim) to
    nonzero coefficients, each an ``int`` or a ``Fraction``.
    """

    __slots__ = _FIELDS = ("patch", "terms")

    def __init__(self, patch: Patch, terms: Mapping[tuple[int, ...], Scalar]):
        clean = {}
        n = patch.dim
        for exps, c in terms.items():
            c = _coefficient(c)
            if len(exps) != n:
                raise WrongShape("exponent tuple has wrong length")
            if c != 0:
                clean[tuple(exps)] = c
        self._fill(patch, clean)

    @staticmethod
    def _trusted(patch: Patch, terms: dict) -> "Expr":
        """An Expr on a fresh canonical term map, taken as given: non-zero
        ``int`` or ``Fraction`` coefficients on exponent tuples of length
        ``patch.dim``.  One allocation, filled through the slot setters."""
        self = object.__new__(Expr)
        _set_patch(self, patch)
        _set_terms(self, terms)
        return self

    # -- constructors --------------------------------------------------------

    @staticmethod
    def const(patch: Patch, value: Scalar) -> "Expr":
        v = _coefficient(value)
        if v == 0:
            return Expr._trusted(patch, {})
        return Expr._trusted(patch, {(0,) * patch.dim: v})

    @staticmethod
    def zero(patch: Patch) -> "Expr":
        return Expr._trusted(patch, {})

    @staticmethod
    def one(patch: Patch) -> "Expr":
        return Expr.const(patch, 1)

    @staticmethod
    def coord(patch: Patch, name: str) -> "Expr":
        i = patch.index(name)
        exps = [0] * patch.dim
        exps[i] = 1
        return Expr._trusted(patch, {tuple(exps): 1})

    # -- ring operations -----------------------------------------------------

    def _coerce(self, other) -> "Expr":
        if isinstance(other, Expr):
            if other.patch is not self.patch and other.patch != self.patch:
                raise PatchMismatch(
                    f"operands on patches {self.patch.name!r} and {other.patch.name!r}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return Expr.const(self.patch, other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if not o.terms:
            return self
        if not self.terms:
            return o
        return Expr._trusted(self.patch, _merge(dict(self.terms), o.terms))

    __radd__ = __add__

    def __neg__(self):
        if not self.terms:
            return self
        return Expr._trusted(self.patch, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        # into one copy of the minuend: the term map of self + (-o), in the same order
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if not o.terms:
            return self
        out = dict(self.terms)
        for e, c in o.terms.items():
            s = out.get(e)
            if s is None:
                out[e] = -c
            else:
                s -= c
                if s:
                    out[e] = s
                else:
                    del out[e]
        return Expr._trusted(self.patch, out)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Expr._trusted(self.patch, _product(self.terms, o.terms))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise WrongShape("exponent must be a nonnegative integer")
        if k == 0:
            return Expr.one(self.patch)
        result = self
        for _ in range(k - 1):
            result = result * self
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Expr.const(self.patch, other)
        if not isinstance(other, Expr):
            return NotImplemented
        return self.patch == other.patch and self.terms == other.terms

    def __hash__(self):
        return hash((self.patch, frozenset(self.terms.items())))

    # -- queries -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def constant_value(self) -> Scalar:
        """The value when the polynomial is constant; raises otherwise."""
        if not self.terms:
            return 0
        if len(self.terms) == 1 and sum(next(iter(self.terms))) == 0:
            return next(iter(self.terms.values()))
        raise WrongShape(f"{self} is not constant")

    def leading(self) -> tuple[tuple[int, ...], Scalar]:
        """Leading term in graded-lex order; zero polynomial has none."""
        e = max(self.terms, key=_grlex_key)
        return e, self.terms[e]

    # -- calculus and substitution --------------------------------------------

    def differentiate(self, coord: str) -> "Expr":
        i = self.patch.index(coord)
        if not self.terms:
            return self
        out: dict[tuple[int, ...], Scalar] = {}
        for e, c in self.terms.items():
            k = e[i]
            if k == 0:
                continue
            out[e[:i] + (k - 1,) + e[i + 1:]] = c * k
        return Expr._trusted(self.patch, out)

    def substitute(self, values: Sequence["Expr"], target: Patch) -> "Expr":
        """Evaluate at values[i] in place of coordinate i; result on ``target``.

        The terms come in the order of the term-by-term rule c * prod values[i] ** e_i: multiplying
        by one term never merges two terms, so the single-term factors of a term fold into one pair.
        """
        if len(values) != self.patch.dim:
            raise WrongShape("need one value per coordinate")
        for v in values:
            if v.patch is not target and v.patch != target:
                raise PatchMismatch("substitution values must live on the target patch")
        if not self.terms:
            return Expr._trusted(target, {})
        add = operator.add
        constant = (0,) * target.dim
        # coordinate i -> the exponents and coefficient of its value's one term, (constant, 0) for
        # zero, or for a value of more terms its powers by exponent, the first its own term map
        images: dict[int, tuple | dict] = {}
        out: dict[tuple[int, ...], Scalar] = {}
        for e, c in self.terms.items():
            moved, poly = constant, None
            for i, k in enumerate(e):
                if not k:
                    continue
                image = images.get(i)
                if image is None:
                    value = values[i].terms
                    image = images[i] = {1: value} if len(value) > 1 else next(iter(value.items()), (constant, 0))
                if type(image) is dict:
                    p = image.get(k)
                    if p is None:
                        p = image[1]
                        for _ in range(k - 1):
                            p = _product(p, image[1])
                        image[k] = p
                    poly = p if poly is None else _product(poly, p)
                    continue
                a, ci = image
                if not ci:
                    break
                if ci != 1:
                    c = c * ci ** k
                if k > 1:
                    a = tuple([k * x for x in a])
                moved = a if moved is constant else tuple(map(add, moved, a))
            else:
                if poly is not None:
                    # a fresh map: never the value's own map or a kept power
                    out = _merge(out, _product({moved: c}, poly))
                    continue
                s = out.get(moved)
                if s is None:
                    out[moved] = c
                else:
                    s += c
                    if s:
                        out[moved] = s
                    else:
                        del out[moved]
        return Expr._trusted(target, out)

    def eval_rational(self, point: Sequence[Scalar]) -> Fraction:
        """Exact evaluation at a rational point."""
        if len(point) != self.patch.dim:
            raise WrongShape("need one value per coordinate")
        vals = [Fraction(v) for v in point]
        acc = Fraction(0)
        for e, c in self.terms.items():
            t = c
            for v, k in zip(vals, e):
                if k:
                    t *= v ** k
            acc += t
        return acc

    def inject(self, target: Patch) -> "Expr":
        """Reinterpret on a patch containing all coordinates of this one."""
        if target == self.patch:
            return self
        index = target._index
        try:
            idx = [index[c] for c in self.patch.coords]
        except KeyError as exc:
            raise UnknownSymbol(f"coordinate {exc.args[0]!r} missing from patch {target.name!r}") from None
        out = {}
        for e, c in self.terms.items():
            ne = [0] * target.dim
            for i, k in enumerate(e):
                ne[idx[i]] = k
            out[tuple(ne)] = c
        return Expr._trusted(target, out)

    def divide_exact(self, divisor: "Expr") -> "Expr | None":
        """Quotient self/divisor when the division is exact, else None."""
        d = self._coerce(divisor)
        if d.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        de, dc = d.leading()
        tail = [(e, c) for e, c in d.terms.items() if e != de]
        # the remainder, changed in place, and a heap of its exponents, largest in grlex
        # first; an exponent that cancels stays in the heap and is skipped when it comes up
        rem = dict(self.terms)
        heap = [_grlex_heap_entry(e) for e in rem]
        heapify(heap)
        sub, add = operator.sub, operator.add
        # the leading exponent of the remainder strictly decreases, so no two quotient terms meet
        quot = {}
        while rem:
            re_ = heappop(heap)[2]
            rc = rem.pop(re_, None)
            if rc is None:
                continue
            qe = tuple(map(sub, re_, de))
            if any(k < 0 for k in qe):
                return None
            q = quot[qe] = _quotient(rc, dc)
            # rem - q*x^qe*d: the leading term cancels exactly, the tail lands below it
            for e2, c2 in tail:
                e = tuple(map(add, qe, e2))
                s = rem.get(e)
                if s is None:
                    rem[e] = -(q * c2)
                    heappush(heap, _grlex_heap_entry(e))
                else:
                    s -= q * c2
                    if s:
                        rem[e] = s
                    else:
                        del rem[e]
        return Expr._trusted(self.patch, quot)

    # -- printing --------------------------------------------------------------

    def _monomial_str(self, exps: tuple[int, ...]) -> str:
        parts = []
        for name, k in zip(self.patch.coords, exps):
            if k == 1:
                parts.append(name)
            elif k > 1:
                parts.append(f"{name}^{k}")
        return "*".join(parts)

    def __str__(self):
        if not self.terms:
            return "0"
        items = sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True)
        chunks = []
        for e, c in items:
            mono = self._monomial_str(e)
            mag = abs(c)
            if mono and mag == 1:
                body = mono
            elif mono:
                body = f"{mag}*{mono}"
            else:
                body = str(mag)
            if not chunks:
                chunks.append(body if c > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(chunks)

    def __repr__(self):
        return f"Expr({self})"


_set_patch = Expr.patch.__set__
_set_terms = Expr.terms.__set__


# -- rational functions ----------------------------------------------------------


class RatExpr(_Frozen):
    """Element of the fraction field: a pair of polynomials num/den.

    Normalization cancels shared monomial factors and numeric content, and
    performs exact polynomial division when the denominator divides the
    numerator.  Denominators are kept grlex-monic for determinism.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Expr, den: Expr | None = None):
        if den is None:
            den = Expr.one(num.patch)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if den.patch != num.patch:
            raise PatchMismatch("numerator and denominator on different patches")
        num, den = _rat_normalize(num, den)
        # one is built per entry of every solution, so through the slot setters, as Expr._trusted
        _set_num(self, num)
        _set_den(self, den)

    @property
    def patch(self) -> Patch:
        return self.num.patch

    @staticmethod
    def from_scalar(patch: Patch, value: Scalar) -> "RatExpr":
        return RatExpr(Expr.const(patch, value))

    def _coerce(self, other) -> "RatExpr":
        if isinstance(other, RatExpr):
            return other
        if isinstance(other, Expr):
            return RatExpr(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return RatExpr(self.num * o.den + o.num * self.den, self.den * o.den)

    def __neg__(self):
        return RatExpr(-self.num, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return RatExpr(self.num * o.num, self.den * o.den)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.num.is_zero():
            raise ZeroDivisionError("division by zero")
        return RatExpr(self.num * o.den, self.den * o.num)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return (self.num * o.den - o.num * self.den).is_zero()

    def __hash__(self):
        # equal values must hash alike, but num/den is not canonical; a polynomial
        # value is, since normalization divides exactly and leaves it over 1
        return hash(self.num) if self.is_polynomial() else hash(self.patch)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return _is_unit(self.den)

    def as_expr(self) -> Expr:
        """The underlying polynomial; raises when genuinely rational."""
        if not self.is_polynomial():
            raise WrongShape(f"{self} is not a polynomial")
        return self.num

    def __str__(self):
        if self.is_polynomial():
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self):
        return f"RatExpr({self})"


_set_num, _set_den = RatExpr.num.__set__, RatExpr.den.__set__


def _is_unit(e: Expr) -> bool:
    """Whether e is the constant 1, read off its term map without building the unit."""
    return e.terms == {(0,) * e.patch.dim: 1}


def _rat_normalize(num: Expr, den: Expr) -> tuple[Expr, Expr]:
    # a unit denominator given is the unit returned, so no second one is built
    patch = num.patch
    if num.is_zero():
        return num, den if _is_unit(den) else Expr.one(patch)
    if den.degree() == 0:
        # dividing by a constant: what divide_exact would return, term by term
        c = den.constant_value()
        return (num, den) if c == 1 else (_divide_terms(num, c), Expr.one(patch))
    # shared monomial factor
    def min_exps(e: Expr):
        it = iter(e.terms)
        first = next(it)
        mins = list(first)
        for exps in it:
            for i, k in enumerate(exps):
                if k < mins[i]:
                    mins[i] = k
        return mins

    mn = [min(a, b) for a, b in zip(min_exps(num), min_exps(den))]
    if any(mn):
        shift = lambda e: Expr._trusted(
            patch, {tuple(a - b for a, b in zip(ex, mn)): c for ex, c in e.terms.items()}
        )
        num, den = shift(num), shift(den)
    # exact cancellation
    q = num.divide_exact(den)
    if q is not None:
        return q, Expr.one(patch)
    # monic denominator
    _, lc = den.leading()
    if lc != 1:
        num = _divide_terms(num, lc)
        den = _divide_terms(den, lc)
    return num, den


def _divide_terms(p: Expr, c: Scalar) -> Expr:
    """p / c for a non-zero number c, term by term in the order of p."""
    return Expr._trusted(p.patch, {e: _quotient(t, c) for e, t in p.terms.items()})


# -- matrices and elimination ------------------------------------------------------


class ExprMatrix(_Frozen):
    """Dense matrix of polynomials on one patch (rows of equal length).  Immutable."""

    patch: Patch
    entries: tuple[tuple[Expr, ...], ...]
    _FIELDS = ("patch", "entries")

    def __init__(self, patch: Patch, entries: tuple[tuple[Expr, ...], ...]):
        widths = {len(r) for r in entries}
        if len(widths) > 1:
            raise WrongShape("ragged rows")
        for row in entries:
            for e in row:
                if e.patch != patch:
                    raise PatchMismatch("matrix entry on a different patch")
        self._fill(patch, entries)

    @staticmethod
    def from_rows(patch: Patch, rows: Sequence[Sequence[Expr]]) -> "ExprMatrix":
        return ExprMatrix(patch, tuple(tuple(r) for r in rows))

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def transpose(self) -> "ExprMatrix":
        return ExprMatrix(self.patch, tuple(zip(*self.entries)) if self.entries else ())

    def __str__(self):
        return "[" + "; ".join(", ".join(str(e) for e in r) for r in self.entries) + "]"

    @cached_property
    def _reduced(self) -> _Reduction | _FractionFree:
        """The matrix's one elimination, made on first use and kept: over Q for a
        matrix of constants, fraction-free for any other."""
        q = _rational_rows(self.entries)
        return _FractionFree(self) if q is None else _Reduction(q, self.ncols)


def _rational_rows(rows: Sequence[Sequence[Expr]]) -> list[list[Scalar]] | None:
    """The entries as numbers when every one is a constant, else None."""
    if any(e.degree() > 0 for row in rows for e in row):
        return None
    return [[e.constant_value() for e in row] for row in rows]


def _gauss_jordan(rows: list[list[Scalar]], ncols: int) -> list[int]:
    """Reduced row echelon form over Q in place; returns the pivot columns.

    Only the first ``ncols`` columns are pivoted on; later columns (a tracked
    row transform) just follow the row operations.  The pivot column is the
    leftmost one with a nonzero entry in the remaining rows, as in
    ``_FractionFree``, so both reductions find the same pivot columns.
    """
    nrows = len(rows)
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        best = next((i for i in range(r, nrows) if rows[i][col]), None)
        if best is None:
            continue
        rows[r], rows[best] = rows[best], rows[r]
        piv = rows[r][col]
        prow = rows[r] = [_quotient(v, piv) for v in rows[r]]
        live = [c for c in range(col, len(prow)) if prow[c]]
        for i in range(nrows):
            f = rows[i][col]
            if i != r and f:
                row = rows[i]
                for c in live:
                    row[c] -= f * prow[c]
        pivots.append(col)
        r += 1
    return pivots


class _Reduction:
    """Gauss-Jordan of [a | I] over Q for a constant matrix a, done once.

    ``pivots`` are the pivot columns of a, ``echelon`` the rows of its reduced
    echelon form and ``transform`` the row operations that produced them.
    After that a right-hand side b is only combined with rational rows: the
    first rank rows of ``transform`` give the pivot variables, and the other
    rows must send b to zero.
    """

    def __init__(self, q: Sequence[Sequence[Scalar]], ncols: int):
        rows = [list(row) + [int(i == j) for j in range(len(q))] for i, row in enumerate(q)]
        self.ncols = ncols
        self.pivots = _gauss_jordan(rows, ncols)
        self.echelon = [row[:ncols] for row in rows]
        self.transform = [row[ncols:] for row in rows]

    def contains(self, b: Sequence[Expr], patch: Patch) -> bool:
        """Whether b lies in the column span: the rows of ``transform`` past the rank send it to zero."""
        return all(_combine(patch, row, b).is_zero() for row in self.transform[len(self.pivots) :])

    def solve(self, b: Sequence[Expr], patch: Patch) -> list[Expr]:
        """One solution of a*x = b on ``patch``, free variables zero; ``Inconsistent`` when there is none."""
        if len(b) != len(self.transform):
            raise WrongShape("right-hand side has wrong length")
        if not self.contains(b, patch):
            raise Inconsistent("right-hand side outside the column span")
        sol = [Expr.zero(patch)] * self.ncols
        for row, c in zip(self.transform, self.pivots):
            sol[c] = _combine(patch, row, b)
        return sol

    def solution(self, b: Sequence[Expr], patch: Patch) -> list[RatExpr]:
        return [RatExpr(v) for v in self.solve(b, patch)]

    def kernel(self) -> list[list[int]]:
        """Kernel basis indexed by the non-pivot columns in order.

        Each vector is cleared as ``clear_denominators`` clears constants:
        times lcm(denominators) / gcd(numerators), which leaves integers.
        """
        basis = []
        for fc in (c for c in range(self.ncols) if c not in self.pivots):
            vec = [0] * self.ncols
            vec[fc] = 1
            for row, c in zip(self.echelon, self.pivots):
                vec[c] = -row[fc]
            den, num = lcm(*(v.denominator for v in vec)), gcd(*(v.numerator for v in vec))
            basis.append([_quotient(v * den, num) for v in vec])
        return basis

    def basis(self, patch: Patch) -> list[list[Expr]]:
        return [[Expr.const(patch, v) for v in vec] for vec in self.kernel()]


def _step(piv: Expr, v: Expr, head: Expr, w: Expr, prev: Expr) -> Expr:
    """(piv*v - head*w) / prev, or the undivided value should the division ever be inexact."""
    u = piv * v - head * w
    q = u.divide_exact(prev)
    return u if q is None else q


class _FractionFree:
    """Fraction-free Bareiss elimination (Bareiss 1968) of a polynomial matrix a, done once.

    Each step pivots on the leftmost column with a nonzero entry below the
    finished rows, takes the lightest such entry, and replaces every later
    row by (pivot*row - head*pivot row) / previous pivot.  The division is
    exact (consecutive-minor identity), so entries stay polynomial and their
    growth stays in check.  ``rows`` is the echelon form.

    The steps are kept (row swapped up, pivot, heads of the later rows,
    previous pivot), so a right-hand side b is replayed through exactly the
    row operations the last column of [a | b] would see: ``replay`` ends as
    eliminating [a | b] ends, and b lies in the column span exactly when its
    replayed entries past the rank vanish.
    """

    def __init__(self, a: ExprMatrix):
        rows = [list(row) for row in a.entries]
        nrows, ncols = a.nrows, a.ncols
        self.ncols = ncols
        self.pivots: list[int] = []
        self.steps: list[tuple[int, Expr, list[Expr], Expr]] = []
        prev = Expr.one(a.patch)
        for col in range(ncols):
            r = len(self.pivots)
            if r == nrows:
                break
            live = [i for i in range(r, nrows) if not rows[i][col].is_zero()]
            if not live:
                continue
            # the lightest pivot: fewest terms, then lowest degree; the first of equals
            best = min(live, key=lambda i: (len(rows[i][col].terms), rows[i][col].degree()))
            rows[r], rows[best] = rows[best], rows[r]
            piv, prow = rows[r][col], rows[r]
            heads = [rows[i][col] for i in range(r + 1, nrows)]
            for i, head in enumerate(heads, r + 1):
                if any(not v.is_zero() for v in rows[i][col:]):
                    rows[i] = [_step(piv, v, head, w, prev) for v, w in zip(rows[i], prow)]
            self.pivots.append(col)
            self.steps.append((best, piv, heads, prev))
            prev = piv
        self.rows = rows

    def replay(self, b: Sequence[Expr]) -> list[Expr]:
        """b carried through the row operations of the elimination."""
        b = list(b)
        for r, (best, piv, heads, prev) in enumerate(self.steps):
            b[r], b[best] = b[best], b[r]
            for i, head in enumerate(heads, r + 1):
                if not (head.is_zero() and b[i].is_zero()):
                    b[i] = _step(piv, b[i], head, b[r], prev)
        return b

    def contains(self, b: Sequence[Expr], patch: Patch) -> bool:
        return all(v.is_zero() for v in self.replay(b)[len(self.pivots) :])

    def solution(self, b: Sequence[Expr], patch: Patch) -> list[RatExpr]:
        b = self.replay(b)
        if any(not v.is_zero() for v in b[len(self.pivots) :]):
            raise Inconsistent("right-hand side outside the column span")
        return self._back_substitute([RatExpr.from_scalar(patch, 0)] * self.ncols, b)

    def basis(self, patch: Patch) -> list[list[Expr]]:
        # each free column in turn: a*v = 0 with that variable 1 and the other free ones 0
        return [
            clear_denominators(self._back_substitute([RatExpr.from_scalar(patch, int(c == fc)) for c in range(self.ncols)]))
            for fc in range(self.ncols)
            if fc not in self.pivots
        ]

    def _back_substitute(self, sol: list[RatExpr], rhs: Sequence[Expr] | None = None) -> list[RatExpr]:
        """Fill the pivot variables of ``sol``; the others stay as given.

        Pivot row r gives its variable: the replayed ``rhs`` entry (zero
        without one) minus the later variables times their entries, over the
        pivot.
        """
        for r, c in reversed(list(enumerate(self.pivots))):
            row = self.rows[r]
            acc = RatExpr.from_scalar(sol[c].patch, 0) if rhs is None else RatExpr(rhs[r])
            for c2 in range(c + 1, len(sol)):
                if not row[c2].is_zero() and not sol[c2].is_zero():
                    acc = acc - RatExpr(row[c2]) * sol[c2]
            sol[c] = acc / RatExpr(row[c])
        return sol


def _product(t1: dict, t2: dict) -> dict:
    """The term map of the product of two term maps, in a fresh dict: the one product loop of
    ``__mul__`` and ``dot``, a term deleted as soon as it cancels."""
    out: dict[tuple[int, ...], Scalar] = {}
    add = operator.add
    for e1, c1 in t1.items():
        for e2, c2 in t2.items():
            e = tuple(map(add, e1, e2))
            s = out.get(e)
            if s is None:
                out[e] = c1 * c2
            else:
                s += c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
    return out


def _merge(out: dict, terms: dict) -> dict:
    """``out`` with the term map ``terms`` added, a term deleted as soon as it cancels.

    ``out`` must be fresh, as it is changed in place, and so must ``terms``
    when ``out`` may be empty, as it is then returned as it is.
    """
    if not out:
        return terms
    for e, c in terms.items():
        s = out.get(e)
        if s is None:
            out[e] = c
        else:
            s += c
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def dot(patch: Patch, pairs: Iterable[tuple[Expr, Expr]]) -> Expr:
    """sum(a * b for a, b in pairs) on ``patch``, built in one term map.

    Each product is merged into the sum as it is formed, so the result has the
    terms of the step-by-step sum in the same insertion order, without a copy
    of the sum per step.  An operand on another patch raises ``PatchMismatch``.
    """
    out: dict[tuple[int, ...], Scalar] = {}
    for a, b in pairs:
        if a.patch is not patch or b.patch is not patch:
            for x in (a, b):
                if x.patch != patch:
                    raise PatchMismatch(f"operands on patches {patch.name!r} and {x.patch.name!r}")
        if a.terms and b.terms:
            out = _merge(out, _product(a.terms, b.terms))
    return Expr._trusted(patch, out)


def _combine(patch: Patch, coeffs: Iterable[Scalar], polys: Iterable[Expr]) -> Expr:
    """sum(coeffs[i] * polys[i]) for rational coefficients, built in one term map as ``dot`` builds its sum."""
    out: dict[tuple[int, ...], Scalar] = {}
    for k, p in zip(coeffs, polys):
        if k:
            out = _merge(out, {e: k * c for e, c in p.terms.items()})
    return Expr._trusted(patch, out)


# the prime of the rank certificate's lower bound, 2^61 - 1
_P = (1 << 61) - 1


def _rank_point(dim: int) -> tuple[Fraction, ...]:
    """The fixed point of the rank certificate on ``dim`` coordinates: coordinate i (from 0) is (i + 2) / 7."""
    return tuple(Fraction(i + 2, 7) for i in range(dim))


def _mod_p(c: Scalar) -> int | None:
    """The rational c modulo ``_P``; None when ``_P`` divides its denominator."""
    d = c.denominator % _P
    return c.numerator * pow(d, -1, _P) % _P if d else None


def _point_values_mod_p(m: ExprMatrix) -> list[list[int]] | None:
    """The entries of m at ``_rank_point``, modulo ``_P``; None when ``_P`` divides a coefficient's denominator.

    Each monomial is evaluated once per matrix, kept by its exponent tuple.
    """
    point = tuple(map(_mod_p, _rank_point(m.patch.dim)))
    monomials: dict[tuple[int, ...], int] = {}
    out = []
    for row in m.entries:
        values = []
        for p in row:
            acc = 0
            for e, c in p.terms.items():
                v = monomials.get(e)
                if v is None:
                    v = 1
                    for x, k in zip(point, e):
                        if k:
                            v = v * pow(x, k, _P) % _P
                    monomials[e] = v
                if type(c) is not int:
                    c = _mod_p(c)
                    if c is None:
                        return None
                acc += c * v
            values.append(acc % _P)
        out.append(values)
    return out


def _rank_mod_p(rows: list[list[int]]) -> int:
    """Rank of a matrix of integers modulo ``_P``, by row echelon elimination in place."""
    nrows, ncols = len(rows), len(rows[0])
    r = 0
    for col in range(ncols):
        best = next((i for i in range(r, nrows) if rows[i][col]), None)
        if best is None:
            continue
        rows[r], rows[best] = rows[best], rows[r]
        prow = rows[r]
        inv = pow(prow[col], -1, _P)
        live = [c for c in range(col + 1, ncols) if prow[c]]
        for i in range(r + 1, nrows):
            row = rows[i]
            f = row[col] * inv % _P
            if f:
                for c in live:
                    row[c] = (row[c] - f * prow[c]) % _P
        r += 1
        if r == nrows:
            break
    return r


def _term_rank(m: ExprMatrix) -> int:
    """Most non-zero entries with no two in one row or column: a maximum matching
    of rows to columns, grown by augmenting paths (Kuhn)."""
    support = [[j for j, e in enumerate(row) if e.terms] for row in m.entries]
    owner = [-1] * m.ncols  # the row each column is matched to

    def augment(i: int, seen: set[int]) -> bool:
        for j in support[i]:
            if j not in seen:
                seen.add(j)
                if owner[j] < 0 or augment(owner[j], seen):
                    owner[j] = i
                    return True
        return False

    return sum(augment(i, set()) for i in range(m.nrows))


def generic_rank(m: ExprMatrix) -> int:
    """Rank of the matrix over the fraction field of the polynomial ring.

    A matrix of constants, or one that already keeps its reduction, reads
    the rank off the reduction.  Any other is first bounded from both
    sides, in word-size integers:

    * from below, by the rank modulo the prime p = 2^61 - 1 of its values at
      the fixed point ``_rank_point``, coordinate i at (i + 2) * 7^-1 mod p.
      A minor that is non-zero mod p is non-zero over Q, so it is non-zero
      at the point, so it is a non-zero minor of the polynomial matrix.  When
      p divides a coefficient's denominator the values have no residue mod
      p, and the matrix is reduced;
    * from above, by the term rank: a non-zero minor has a non-zero term in
      its expansion, which picks non-zero entries in distinct rows and
      columns, so no minor larger than a maximum matching of the non-zero
      entries is non-zero.  It is taken only when the lower bound is below
      min(rows, cols), which is also an upper bound.

    When the bounds meet, that is the rank, exactly.  Otherwise the point
    may lie on the zero set of every larger minor, and the matrix is reduced.
    """
    if not m.nrows or not m.ncols:
        return 0
    if "_reduced" not in m.__dict__ and _rational_rows(m.entries) is None:
        values = _point_values_mod_p(m)
        if values is not None:
            low = _rank_mod_p(values)
            if low == min(m.nrows, m.ncols) or low == _term_rank(m):
                return low
    return len(m._reduced.pivots)


def _right_hand_side(a: ExprMatrix, b: Sequence[Expr]) -> list[Expr]:
    b = list(b)
    if len(b) != a.nrows:
        raise WrongShape("right-hand side has wrong length")
    if any(bv.patch != a.patch for bv in b):
        raise PatchMismatch("right-hand side on a different patch")
    return b


def solve_linear(a: ExprMatrix, b: Sequence[Expr]) -> list[RatExpr]:
    """One solution of a*x = b over the fraction field.

    ``b`` is a sequence of Exprs (one per row).  Raises ``Inconsistent`` when
    no solution exists generically.  Free variables are set to zero, so the
    returned solution is deterministic; substituting it back yields zero.
    ``b`` is carried through the matrix's kept reduction, so every system
    on one matrix shares a single elimination.
    """
    return a._reduced.solution(_right_hand_side(a, b), a.patch)


def in_span(m: ExprMatrix, column: Sequence[Expr]) -> bool:
    """Whether ``column`` lies in the span of the columns of ``m`` over the fraction field.

    This is rank [m | column] == rank m, read off the matrix's kept
    reduction: the column, carried through its row operations, vanishes
    past the rank.
    """
    return m._reduced.contains(_right_hand_side(m, column), m.patch)


def nullspace(a: ExprMatrix) -> list[list[Expr]]:
    """Basis of the kernel over the fraction field, cleared to polynomials.

    Basis vectors are indexed by the non-pivot columns in order, which makes
    the output deterministic.  The basis is read off the matrix's kept
    reduction.
    """
    return a._reduced.basis(a.patch)


def clear_denominators(vec: Sequence[RatExpr]) -> list[Expr]:
    """Scale a rational vector to a polynomial one, content-reduced to integer coefficients."""
    if not vec:
        return []
    patch = vec[0].patch
    scale = Expr.one(patch)
    for v in vec:
        if not v.is_polynomial():
            # multiply by this denominator unless it already divides scale
            if scale.divide_exact(v.den) is None:
                scale = scale * v.den
    # every denominator divides scale: each numerator times the exact quotient scale/den,
    # its terms in the grlex-descending order in which divide_exact builds num*scale/den
    cofactors: dict[Expr, Expr] = {}
    out = []
    for v in vec:
        if v.is_polynomial():
            out.append(v.num * scale)
            continue
        if v.den not in cofactors:
            cofactors[v.den] = scale.divide_exact(v.den)
        w = v.num * cofactors[v.den]
        out.append(Expr._trusted(patch, dict(sorted(w.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True))))
    # the scale above can overshoot the lcm; divide back out while possible
    if all(e.is_zero() for e in out):
        return out
    dens = sorted({v.den for v in vec if not v.is_polynomial()}, key=str)
    changed = True
    while changed:
        changed = False
        for d in dens:
            quots = [e.divide_exact(d) for e in out]
            if all(q is not None for q in quots):
                out = quots
                changed = True
    # reduce numeric content for a tidy, deterministic representative: times
    # lcm(denominators) / gcd(numerators), which leaves every coefficient an int
    coeffs = [c for e in out for c in e.terms.values()]
    den, num = lcm(*(c.denominator for c in coeffs)), gcd(*(c.numerator for c in coeffs))
    return [Expr._trusted(patch, {x: _quotient(c * den, num) for x, c in e.terms.items()}) for e in out]
