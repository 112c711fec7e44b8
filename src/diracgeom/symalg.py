"""Exact scalar algebra on coordinate patches.

Scalars are multivariate polynomials with rational coefficients, stored as
canonical term maps: exponent tuple -> Fraction, zero coefficients never
stored.  Equality of scalars is therefore literal equality of term maps, and
``is_zero`` is a syntactic check on the canonical form.  No floats anywhere.

Serialization orders terms graded-lexicographically by coordinate index, so
printing is deterministic and byte-stable across runs.

Rational functions (``RatExpr``) appear only transiently, as outputs of
``solve_linear`` and inside elimination; everything user-facing is polynomial.

Elimination (``generic_rank``, ``solve_linear``, ``nullspace``) has two exact
routes, chosen by the coefficient matrix alone.  When every entry is a
constant polynomial, the matrix is read into ``Fraction`` rows and reduced by
Gauss-Jordan over Q, and polynomial right-hand sides are only combined with
rational coefficients.  Any other matrix goes through fraction-free Bareiss
elimination over the polynomial ring.  Both routes take the leftmost column
with a nonzero entry as the next pivot, so they find the same pivot columns
and return equal results.  ``generic_rank`` of a non-constant matrix first
tries a one-sided certificate: full rank at a fixed rational point proves
full generic rank, and anything less falls back to Bareiss.

Only the public constructor ``Expr(patch, terms)`` validates: it checks the
exponent tuples, turns coefficients into ``Fraction`` and drops zeros, and is
the boundary for input from outside the kernel.  Kernel results whose term
map is canonical by construction are built by ``Expr._trusted``, which takes
the dict as given.

The expression grammar of check files lives here too, and ``parse_expr``
evaluates it as a scalar.  Both take powers through ``bounded_power``.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence, Union

from .errors import ExprSyntaxError, Inconsistent, ParseError, PatchMismatch, UnknownSymbol

Scalar = Union[int, Fraction]

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# largest exponent, and largest degree of a power, that ``parse_expr`` and check
# files take; powers are taken by repeated multiplication
MAX_EXPONENT = 64


@dataclass(frozen=True)
class Patch:
    """A named coordinate patch: an ordered tuple of distinct coordinate names.

    Zero-dimensional patches are allowed; they carry the constants and serve
    as the base of groups viewed as groupoids over a point.
    """

    name: str
    coords: tuple[str, ...]

    def __post_init__(self):
        if not self.name:
            raise ValueError("patch needs a name")
        seen = set()
        for c in self.coords:
            if not _NAME_RE.fullmatch(c):
                raise ValueError(f"bad coordinate name {c!r}")
            if c in seen:
                raise ValueError(f"duplicate coordinate {c!r}")
            seen.add(c)

    @property
    def dim(self) -> int:
        return len(self.coords)

    def index(self, coord: str) -> int:
        try:
            return self.coords.index(coord)
        except ValueError:
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


class Expr:
    """Polynomial over a patch with exact rational coefficients.

    Immutable.  ``terms`` maps exponent tuples (length = patch.dim) to
    nonzero ``Fraction`` coefficients.
    """

    __slots__ = ("patch", "terms", "_hash")

    def __init__(self, patch: Patch, terms: Mapping[tuple[int, ...], Fraction]):
        object.__setattr__(self, "patch", patch)
        clean = {}
        n = patch.dim
        for exps, c in terms.items():
            c = Fraction(c)
            if len(exps) != n:
                raise ValueError("exponent tuple has wrong length")
            if c != 0:
                clean[tuple(exps)] = c
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _trusted(cls, patch: Patch, terms: dict) -> "Expr":
        """An Expr on a fresh canonical term map, taken as given: non-zero
        Fractions on exponent tuples of length ``patch.dim``."""
        self = object.__new__(cls)
        object.__setattr__(self, "patch", patch)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_hash", None)
        return self

    def __setattr__(self, *a):
        raise AttributeError("Expr is immutable")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def const(patch: Patch, value: Scalar) -> "Expr":
        v = Fraction(value)
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
        return Expr._trusted(patch, {tuple(exps): Fraction(1)})

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
        out = dict(self.terms)
        for e, c in o.terms.items():
            s = out.get(e)
            if s is None:
                out[e] = c
            else:
                s += c
                if s:
                    out[e] = s
                else:
                    del out[e]
        return Expr._trusted(self.patch, out)

    __radd__ = __add__

    def __neg__(self):
        return Expr._trusted(self.patch, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        out: dict[tuple[int, ...], Fraction] = {}
        add = operator.add
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
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
        return Expr._trusted(self.patch, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Expr.one(self.patch)
        for _ in range(k):
            result = result * self
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Expr.const(self.patch, other)
        if not isinstance(other, Expr):
            return NotImplemented
        return self.patch == other.patch and self.terms == other.terms

    def __hash__(self):
        h = object.__getattribute__(self, "_hash")
        if h is None:
            h = hash((self.patch, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    # -- queries -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def constant_value(self) -> Fraction:
        """The value when the polynomial is constant; raises otherwise."""
        if not self.terms:
            return Fraction(0)
        if len(self.terms) == 1 and sum(next(iter(self.terms))) == 0:
            return next(iter(self.terms.values()))
        raise ValueError(f"{self} is not constant")

    def leading(self) -> tuple[tuple[int, ...], Fraction]:
        """Leading term in graded-lex order; zero polynomial has none."""
        e = max(self.terms, key=_grlex_key)
        return e, self.terms[e]

    # -- calculus and substitution --------------------------------------------

    def differentiate(self, coord: str) -> "Expr":
        i = self.patch.index(coord)
        out: dict[tuple[int, ...], Fraction] = {}
        for e, c in self.terms.items():
            k = e[i]
            if k == 0:
                continue
            out[e[:i] + (k - 1,) + e[i + 1:]] = c * k
        return Expr._trusted(self.patch, out)

    def substitute(self, values: Sequence["Expr"], target: Patch) -> "Expr":
        """Evaluate at values[i] in place of coordinate i; result on ``target``."""
        if len(values) != self.patch.dim:
            raise ValueError("need one value per coordinate")
        for v in values:
            if v.patch != target:
                raise PatchMismatch("substitution values must live on the target patch")
        powers: list[dict[int, Expr]] = [dict() for _ in values]

        def power(i: int, k: int) -> Expr:
            cache = powers[i]
            if k not in cache:
                cache[k] = values[i] ** k
            return cache[k]

        acc = Expr.zero(target)
        for e, c in self.terms.items():
            term = Expr.const(target, c)
            for i, k in enumerate(e):
                if k:
                    term = term * power(i, k)
            acc = acc + term
        return acc

    def eval_rational(self, point: Sequence[Scalar]) -> Fraction:
        """Exact evaluation at a rational point."""
        if len(point) != self.patch.dim:
            raise ValueError("need one value per coordinate")
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
        idx = []
        for c in self.patch.coords:
            if c not in target.coords:
                raise UnknownSymbol(
                    f"coordinate {c!r} missing from patch {target.name!r}"
                )
            idx.append(target.coords.index(c))
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
        rem = self
        quot = Expr.zero(self.patch)
        de, dc = d.leading()
        while not rem.is_zero():
            re_, rc = rem.leading()
            qe = tuple(a - b for a, b in zip(re_, de))
            if any(k < 0 for k in qe):
                return None
            qc = rc / dc
            mono = Expr._trusted(self.patch, {qe: qc})
            quot = quot + mono
            rem = rem - mono * d
        return quot

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


# -- parsing -------------------------------------------------------------------
# One grammar for ``parse_expr`` and the check files of ``cli``:
#   expr    := term (('+' | '-') term)*       term   := unary (('*' | '/') unary)*
#   unary   := '-' unary | factor             factor := primary ('^' primary)*
#   primary := integer | name | name '(' [expr (',' expr)*] ')' | '(' expr ')'


@dataclass(frozen=True)
class Name:
    id: str


@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple


@dataclass(frozen=True)
class Neg:
    operand: object


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 3}


def _print_expr(node, parent_prec: int = 0) -> str:
    if isinstance(node, Name):
        return node.id
    if isinstance(node, IntLit):
        return str(node.value)
    if isinstance(node, Call):
        return node.fn + "(" + ", ".join(_print_expr(a) for a in node.args) + ")"
    if isinstance(node, Neg):
        inner = _print_expr(node.operand, 3)
        out = "-" + inner
        return f"({out})" if parent_prec >= 3 else out
    if isinstance(node, BinOp):
        prec = _PREC[node.op]
        left = _print_expr(node.left, prec - 1)
        right = _print_expr(node.right, prec)
        out = f"{left} {node.op} {right}" if prec == 1 else f"{left}{node.op}{right}"
        return f"({out})" if parent_prec >= prec else out
    raise TypeError(f"not an expression node: {node!r}")


_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|\d+|[()+\-*/^,=]|\S")


class _Line:
    def __init__(self, text: str, number: int):
        self.number = number
        # (token, column) pairs of the text before any '#'
        self.tokens = [(m.group(), m.start() + 1) for m in _TOKEN.finditer(text.split("#", 1)[0])]
        # errors at the end of the line point just after the last token
        self.end = self.tokens[-1][1] + len(self.tokens[-1][0]) if self.tokens else 1
        # set for check arguments, where `L (1)` is two arguments and `f(1)` a call
        self.calls_must_touch = False
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def next(self):
        if self.pos >= len(self.tokens):
            self.fail("unexpected end of line")
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok[0]

    def expect(self, want: str):
        if self.peek() != want:
            found = "end of line" if self.peek() is None else f"'{self.peek()}'"
            self.fail(f"expected '{want}', found {found}")
        self.next()

    def fail(self, message: str):
        col = self.tokens[self.pos][1] if self.pos < len(self.tokens) else self.end
        raise ParseError(f"line {self.number}, column {col}: {message}")


def _parse_left_assoc(line: _Line, ops: tuple[str, ...], operand):
    node = operand(line)
    while line.peek() in ops:
        op = line.next()
        node = BinOp(op, node, operand(line))
    return node


def _parse_expr(line: _Line):
    return _parse_left_assoc(line, ("+", "-"), _parse_term)


def _parse_term(line: _Line):
    return _parse_left_assoc(line, ("*", "/"), _parse_unary)


def _parse_unary(line: _Line):
    if line.peek() == "-":
        line.next()
        return Neg(_parse_unary(line))
    return _parse_left_assoc(line, ("^",), _parse_primary)


def _parse_primary(line: _Line):
    tok = line.peek()
    if tok is None:
        line.fail("expected an expression, found end of line")
    if tok == "(":
        line.next()
        node = _parse_expr(line)
        line.expect(")")
        return node
    if tok.isdigit():
        line.next()
        return IntLit(int(tok))
    if _NAME_RE.fullmatch(tok):
        name_end = line.tokens[line.pos][1] + len(tok)
        line.next()
        if line.peek() == "(" and (line.tokens[line.pos][1] == name_end or not line.calls_must_touch):
            line.next()
            args = []
            if line.peek() != ")":
                args.append(_parse_expr(line))
                while line.peek() == ",":
                    line.next()
                    args.append(_parse_expr(line))
            line.expect(")")
            return Call(tok, tuple(args))
        return Name(tok)
    line.fail(f"unexpected token '{tok}'")


def bounded_power(base, k: int, exc: type[Exception]):
    """``base ** k`` for a polynomial or rational ``base``; raises ``exc`` when the
    exponent, the degree of the result or the bit length of its coefficients is too large."""
    if isinstance(base, Expr):
        degree, coeffs = max(base.degree(), 0), base.terms.values()
    else:
        base = Fraction(base)
        degree, coeffs = 0, (base,)
    bits = max((max(c.numerator.bit_length(), c.denominator.bit_length()) for c in coeffs), default=0)
    if k > MAX_EXPONENT:
        raise exc(f"exponent {k} is above the limit of {MAX_EXPONENT}")
    if degree * k > MAX_EXPONENT:
        raise exc(f"a power of degree {degree * k} is above the limit of {MAX_EXPONENT}")
    if bits * k > 64 * MAX_EXPONENT:
        raise exc(f"a power with {bits * k}-bit coefficients is above the limit of {64 * MAX_EXPONENT} bits")
    return base ** k


def _eval_scalar(node, patch: Patch) -> Expr:
    if isinstance(node, IntLit):
        return Expr.const(patch, node.value)
    if isinstance(node, Name):
        return Expr.coord(patch, node.id)
    if isinstance(node, Neg):
        return -_eval_scalar(node.operand, patch)
    if isinstance(node, BinOp):
        left = _eval_scalar(node.left, patch)
        if node.op == "^":
            if not isinstance(node.right, IntLit):
                raise ExprSyntaxError("exponent must be a natural number")
            return bounded_power(left, node.right.value, ExprSyntaxError)
        right = _eval_scalar(node.right, patch)
        if node.op == "/":
            if right.degree() != 0:
                raise ExprSyntaxError("division is only defined by a nonzero constant")
            return left * Expr.const(patch, 1 / right.constant_value())
        return {"+": operator.add, "-": operator.sub, "*": operator.mul}[node.op](left, right)
    raise ExprSyntaxError(f"'{node.fn}(...)' is not a scalar")


def parse_expr(text: str, patch: Patch) -> Expr:
    """Parse a polynomial in the patch coordinates, written in the check-file grammar."""
    line = _Line(text, 1)
    try:
        node = _parse_expr(line)
        if line.peek() is not None:
            line.fail("trailing tokens after the expression")
    except ParseError as exc:
        raise ExprSyntaxError(str(exc)) from None
    return _eval_scalar(node, patch)


# -- rational functions ----------------------------------------------------------


class RatExpr:
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
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("RatExpr is immutable")

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
        if isinstance(other, (int, Fraction)):
            return RatExpr.from_scalar(self.patch, other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return RatExpr(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RatExpr(-self.num, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return RatExpr(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.num.is_zero():
            raise ZeroDivisionError("division by zero")
        return RatExpr(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return o / self

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return (self.num * o.den - o.num * self.den).is_zero()

    def __hash__(self):
        return hash((self.num, self.den))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den == Expr.one(self.patch)

    def as_expr(self) -> Expr:
        """The underlying polynomial; raises when genuinely rational."""
        if self.is_polynomial():
            return self.num
        q = self.num.divide_exact(self.den)
        if q is None:
            raise ValueError(f"{self} is not a polynomial")
        return q

    def __str__(self):
        if self.is_polynomial():
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self):
        return f"RatExpr({self})"


def _rat_normalize(num: Expr, den: Expr) -> tuple[Expr, Expr]:
    patch = num.patch
    if num.is_zero():
        return num, Expr.one(patch)
    if den.degree() == 0:
        # dividing by a constant: what divide_exact would return, term by term
        c = den.constant_value()
        return (num if c == 1 else num * (Fraction(1) / c)), Expr.one(patch)
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
        inv = Fraction(1) / lc
        num = num * inv
        den = den * inv
    return num, den


# -- matrices and elimination ------------------------------------------------------


@dataclass(frozen=True)
class ExprMatrix:
    """Dense matrix of polynomials on one patch (rows of equal length)."""

    patch: Patch
    entries: tuple[tuple[Expr, ...], ...]

    def __post_init__(self):
        widths = {len(r) for r in self.entries}
        if len(widths) > 1:
            raise ValueError("ragged rows")
        for row in self.entries:
            for e in row:
                if e.patch != self.patch:
                    raise PatchMismatch("matrix entry on a different patch")

    @staticmethod
    def from_rows(patch: Patch, rows: Sequence[Sequence[Expr]]) -> "ExprMatrix":
        return ExprMatrix(patch, tuple(tuple(r) for r in rows))

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def row(self, i: int) -> tuple[Expr, ...]:
        return self.entries[i]

    def transpose(self) -> "ExprMatrix":
        return ExprMatrix(self.patch, tuple(zip(*self.entries)) if self.entries else ())

    def augment(self, cols: Sequence[Sequence[Expr]]) -> "ExprMatrix":
        """Append extra columns (given as a list of columns)."""
        rows = [list(r) for r in self.entries]
        for col in cols:
            for i, v in enumerate(col):
                rows[i].append(v)
        return ExprMatrix.from_rows(self.patch, rows)

    def __str__(self):
        return "[" + "; ".join(", ".join(str(e) for e in r) for r in self.entries) + "]"


def _as_rows(m) -> tuple[Patch, list[list[Expr]]]:
    if isinstance(m, ExprMatrix):
        return m.patch, [list(r) for r in m.entries]
    rows = [list(r) for r in m]
    if not rows or not rows[0]:
        raise ValueError("empty matrix needs an ExprMatrix with an explicit patch")
    return rows[0][0].patch, rows


def _pivot_weight(e: Expr):
    return (len(e.terms), e.degree())


def _bareiss(rows: list[list[Expr]], patch: Patch):
    """Fraction-free forward elimination in place.

    Returns the list of pivot (row, col) pairs.  Entries stay polynomial; the
    classical one-step division by the previous pivot keeps growth in check
    and is exact (consecutive-minor identity); if exactness ever failed we
    would keep the undivided row, which is still a correct elimination.
    This is the route for matrices with non-constant entries, and the
    reference the tests hold the Q route to.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    nrows = len(rows)
    pivots: list[tuple[int, int]] = []
    prev = Expr.one(patch)
    r = 0
    for col in range(ncols):
        best = None
        for i in range(r, nrows):
            if not rows[i][col].is_zero():
                if best is None or _pivot_weight(rows[i][col]) < _pivot_weight(rows[best][col]):
                    best = i
        if best is None:
            continue
        rows[r], rows[best] = rows[best], rows[r]
        piv = rows[r][col]
        for i in range(r + 1, nrows):
            if all(rows[i][c].is_zero() for c in range(col, ncols)):
                continue
            head = rows[i][col]
            new_row = []
            for c in range(ncols):
                v = piv * rows[i][c] - head * rows[r][c]
                q = v.divide_exact(prev)
                new_row.append(v if q is None else q)
            rows[i] = new_row
        pivots.append((r, col))
        prev = piv
        r += 1
        if r == nrows:
            break
    return pivots


def _rational_rows(rows: list[list[Expr]]) -> list[list[Fraction]] | None:
    """The entries as Fractions when every one is a constant, else None."""
    out = []
    for row in rows:
        vals = []
        for e in row:
            terms = e.terms
            if not terms:
                vals.append(Fraction(0))
                continue
            if len(terms) != 1:
                return None
            ((exps, c),) = terms.items()
            if any(exps):
                return None
            vals.append(c)
        out.append(vals)
    return out


def _gauss_jordan(rows: list[list[Fraction]], ncols: int) -> list[int]:
    """Reduced row echelon form over Q in place; returns the pivot columns.

    Only the first ``ncols`` columns are pivoted on; later columns (a tracked
    row transform) just follow the row operations.  The pivot column is the
    leftmost one with a nonzero entry in the remaining rows, as in
    ``_bareiss``, so both routes find the same pivot columns.
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
        prow = rows[r] = [v / piv for v in rows[r]]
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


def _combine(patch: Patch, coeffs: Sequence[Fraction], polys: Sequence[Expr]) -> Expr:
    """sum(coeffs[i] * polys[i]), built on the term maps."""
    out: dict[tuple[int, ...], Fraction] = {}
    for k, p in zip(coeffs, polys):
        if k:
            for e, c in p.terms.items():
                s = out.get(e)
                out[e] = k * c if s is None else s + k * c
    return Expr._trusted(patch, {e: c for e, c in out.items() if c})


def _rank_point(patch: Patch) -> list[Fraction]:
    """The fixed point of the full-rank certificate: coordinate i (from 0) is (i + 2) / 7."""
    return [Fraction(i + 2, 7) for i in range(patch.dim)]


def generic_rank(m) -> int:
    """Rank of the matrix over the fraction field of the polynomial ring.

    A matrix of constants is reduced over Q by ``_gauss_jordan``.  Any other
    matrix is first evaluated at the fixed rational point ``_rank_point``
    and the values reduced over Q.  Evaluation cannot raise the rank (a
    non-zero minor at the point is a non-zero minor of the polynomial
    matrix), so a point rank equal to min(rows, cols) is the generic rank,
    exactly, and is returned.  A lower point rank proves nothing (the point
    may lie on the zero set of every maximal minor), and the matrix then
    goes through fraction-free ``_bareiss``.
    """
    patch, rows = _as_rows(m)
    if not rows or not rows[0]:
        return 0
    q = _rational_rows(rows)
    if q is not None:
        return len(_gauss_jordan(q, len(q[0])))
    full = min(len(rows), len(rows[0]))
    point = _rank_point(patch)
    values = [[e.eval_rational(point) for e in row] for row in rows]
    if len(_gauss_jordan(values, len(values[0]))) == full:
        return full
    return len(_bareiss(rows, patch))


def _back_substitute(rows, pivots, rhs_col, ncols_a):
    """Solve after forward elimination; free variables are set to zero."""
    patch = rows[0][0].patch if rows else None
    sol: list[RatExpr] = [RatExpr.from_scalar(patch, 0) for _ in range(ncols_a)]
    for r, c in reversed(pivots):
        acc = RatExpr(rows[r][rhs_col])
        for c2 in range(c + 1, ncols_a):
            if not rows[r][c2].is_zero():
                acc = acc - RatExpr(rows[r][c2]) * sol[c2]
        sol[c] = acc / RatExpr(rows[r][c])
    return sol


def solve_linear(a, b) -> list[RatExpr]:
    """One solution of a*x = b over the fraction field.

    ``b`` is a sequence of Exprs (one per row).  Raises ``Inconsistent`` when
    no solution exists generically.  Free variables are set to zero, so the
    returned solution is deterministic; substituting it back yields zero.

    When every entry of ``a`` is a constant, ``a`` is reduced over Q with its
    row transform tracked, and each pivot variable is one rational
    combination of the entries of ``b``; ``b`` is inconsistent exactly when
    the combination on a zero row is nonzero.  Otherwise the augmented matrix
    goes through ``_bareiss``.  Both routes give the same solution.
    """
    patch, rows = _as_rows(a)
    b = list(b)
    if len(b) != len(rows):
        raise ValueError("right-hand side has wrong length")
    ncols_a = len(rows[0])
    q = _rational_rows(rows)
    if q is not None:
        return _solve_rational(patch, q, ncols_a, b)
    aug = [row + [bv] for row, bv in zip(rows, b)]
    pivots = _bareiss(aug, patch)
    if pivots and any(c == ncols_a for _, c in pivots):
        raise Inconsistent("right-hand side outside the column span")
    return _back_substitute(aug, pivots, ncols_a, ncols_a)


def _solve_rational(patch: Patch, q: list[list[Fraction]], ncols_a: int, b: list[Expr]) -> list[RatExpr]:
    """``solve_linear`` for a constant matrix: Gauss-Jordan on [a | I]."""
    for bv in b:
        if bv.patch != patch:
            raise PatchMismatch("right-hand side on a different patch")
    nrows = len(q)
    for i, row in enumerate(q):
        row.extend(Fraction(int(i == j)) for j in range(nrows))
    pivots = _gauss_jordan(q, ncols_a)
    for row in q[len(pivots):]:
        if not _combine(patch, row[ncols_a:], b).is_zero():
            raise Inconsistent("right-hand side outside the column span")
    sol = [RatExpr.from_scalar(patch, 0) for _ in range(ncols_a)]
    for row, c in zip(q, pivots):
        sol[c] = RatExpr(_combine(patch, row[ncols_a:], b))
    return sol


def nullspace(a) -> list[list[Expr]]:
    """Basis of the kernel over the fraction field, cleared to polynomials.

    Basis vectors are indexed by the non-pivot columns in order, which makes
    the output deterministic.  A matrix of constants is reduced over Q, any
    other through ``_bareiss``; both routes give the same basis.
    """
    patch, rows = _as_rows(a)
    ncols = len(rows[0])
    q = _rational_rows(rows)
    if q is not None:
        return _nullspace_rational(patch, q, ncols)
    work = [list(r) for r in rows]
    pivots = _bareiss(work, patch)
    pivot_cols = [c for _, c in pivots]
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis: list[list[Expr]] = []
    for fc in free_cols:
        # solve A * v = 0 with v[fc] = 1, other free vars 0
        vec: list[RatExpr] = [RatExpr.from_scalar(patch, 0) for _ in range(ncols)]
        vec[fc] = RatExpr.from_scalar(patch, 1)
        for r, c in reversed(pivots):
            acc = RatExpr.from_scalar(patch, 0)
            for c2 in range(c + 1, ncols):
                if not work[r][c2].is_zero() and not vec[c2].is_zero():
                    acc = acc - RatExpr(work[r][c2]) * vec[c2]
            vec[c] = acc / RatExpr(work[r][c])
        basis.append(clear_denominators(vec))
    return basis


def _nullspace_rational(patch: Patch, q: list[list[Fraction]], ncols: int) -> list[list[Expr]]:
    """``nullspace`` of a constant matrix, read off its reduced echelon form.

    Each vector is cleared as ``clear_denominators`` clears constants: times
    lcm(denominators) / gcd(numerators).
    """
    pivot_cols = _gauss_jordan(q, ncols)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivot_cols):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for row, c in zip(q, pivot_cols):
            vec[c] = -row[fc]
        scale = Fraction(lcm(*(v.denominator for v in vec)), gcd(*(v.numerator for v in vec)))
        basis.append([Expr.const(patch, v * scale) for v in vec])
    return basis


def clear_denominators(vec: Sequence[RatExpr]) -> list[Expr]:
    """Scale a rational vector to a polynomial one (content-reduced)."""
    if not vec:
        return []
    patch = vec[0].patch
    scale = Expr.one(patch)
    for v in vec:
        if not v.is_polynomial():
            # multiply by this denominator unless it already divides scale
            if scale.divide_exact(v.den) is None:
                scale = scale * v.den
    out = []
    for v in vec:
        w = v * RatExpr(scale)
        out.append(w.as_expr())
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
    # reduce numeric content for a tidy, deterministic representative
    coeffs = [c for e in out for c in e.terms.values()]
    if coeffs:
        num_gcd = 0
        den_lcm = 1
        for c in coeffs:
            num_gcd = gcd(num_gcd, c.numerator)
            den_lcm = den_lcm * c.denominator // gcd(den_lcm, c.denominator)
        if num_gcd:
            factor = Fraction(den_lcm, num_gcd)
            if factor != 1:
                out = [e * factor for e in out]
    return out
