"""Check-file language, runner, and report emission.

A check file is line oriented:

    # a closed two-form on the plane
    let M = patch(x, y)
    let omega = (1 + x)*dx^dy
    let L = graph_two_form(omega)
    check dirac L
    check closed omega

``let`` binds a name to a value; ``check`` runs a named verification on
previously bound values (or inline constructor calls).  Expressions follow
the grammar of the "grammar" section below; ``dx``/``Dx`` inside a literal
denote the coordinate one-form and coordinate vector field of a declared
patch.  A literal binds to the first declared patch whose coordinates cover
every free symbol it mentions.  ``parse_expr`` evaluates one line as a scalar
through the same evaluator, so with the same limits and refusals.

Reports are deterministic: repeated runs of the same file emit identical
bytes.  Timings are measured per check but never serialized.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from .algebroid import (
    AlgebroidPatch,
    IMTwoForm,
    check_im_two_form,
    check_lie_algebroid,
    check_lie_bialgebroid,
    check_linearity,
    dual_linear_poisson,
    im_from_two_form,
    tangent_bundle_algebroid,
    tangent_lift_algebroid,
)
from .cartan import Bivector, KForm, VField, exterior_derivative, wedge, wedge_fields
from .courant import (
    Frame,
    bfield_transform,
    check_dirac,
    check_lagrangian,
    foliation_frame,
    graph_bivector,
    graph_two_form,
)
from .errors import CheckError, EngineError, ExprSyntaxError, ParseError, UnknownReference, UnknownSymbol
from .groupoid import (
    GroupoidPatch,
    abelian_group,
    check_groupoid_axioms,
    check_multiplicative_bivector,
    check_multiplicative_frame,
    check_multiplicative_two_form,
    heisenberg3,
    induced_dual_bracket,
    induced_im_two_form,
    lie_algebroid_of,
    pair_groupoid,
    tangent_groupoid,
)
from .report import CheckItem, Report
from .symalg import _NAME_RE, Expr, Patch
from .tanlift import check_tangent_mu_identity, tangent_lift_dirac

# largest exponent, and largest degree of a power, that an expression takes;
# powers are taken by repeated multiplication
MAX_EXPONENT = 64

# the refusal of a divisor that is zero or not constant
DIVISION_REFUSAL = "division is only defined by a nonzero number"


# -- grammar ----------------------------------------------------------------------------
# One grammar for check files and ``parse_expr``:
#   expr    := term (('+' | '-') term)*       term   := unary (('*' | '/') unary)*
#   unary   := '-' unary | factor             factor := primary ('^' primary)*
#   primary := integer | name | name '(' [expr (',' expr)*] ')' | '(' expr ')'


class Name(NamedTuple):
    id: str


class IntLit(NamedTuple):
    value: int


class Call(NamedTuple):
    fn: str
    args: tuple


class Neg(NamedTuple):
    operand: object


class BinOp(NamedTuple):
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
        # a negated base keeps its parentheses: -x^2 reads as -(x^2)
        left = _print_expr(node.left, 3 if prec == 3 and isinstance(node.left, Neg) else prec - 1)
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


# -- statements --------------------------------------------------------------------------


class LetStmt(NamedTuple):
    name: str
    value: object
    line: int


class CheckStmt(NamedTuple):
    kind: str
    args: tuple
    line: int


class CheckFile(NamedTuple):
    statements: tuple


# -- parser -------------------------------------------------------------------------------


def parse_checkfile(text: str) -> CheckFile:
    statements = []
    seen = set()
    for number, raw in enumerate(text.splitlines(), start=1):
        try:
            line = _Line(raw, number)
            head = line.peek()
            if head is None:
                continue
            if head == "let":
                line.next()
                name = line.next()
                if not _NAME_RE.fullmatch(name):
                    line.fail(f"'{name}' is not a valid name")
                if name in seen:
                    line.fail(f"'{name}' is declared twice")
                seen.add(name)
                line.expect("=")
                value = _parse_expr(line)
                if line.peek() is not None:
                    line.fail("trailing tokens after declaration")
                statements.append(LetStmt(name, value, number))
            elif head == "check":
                line.next()
                kind = line.next()
                if kind not in CHECKS:
                    known = ", ".join(sorted(CHECKS))
                    raise ParseError(f"line {number}: unknown check kind '{kind}' (known: {known})")
                args = []
                line.calls_must_touch = True
                while line.peek() is not None:
                    args.append(_parse_unary(line))
                statements.append(CheckStmt(kind, tuple(args), number))
            else:
                line.fail(f"expected 'let' or 'check', found '{head}'")
        except RecursionError:
            raise ParseError(f"line {number}: the expression nests too deeply") from None
    return CheckFile(tuple(statements))


# -- evaluation ---------------------------------------------------------------------------


def _free_names(node, env, out):
    if isinstance(node, Name):
        if node.id not in env:
            out.append(node.id)
    elif isinstance(node, Neg):
        _free_names(node.operand, env, out)
    elif isinstance(node, BinOp):
        _free_names(node.left, env, out)
        _free_names(node.right, env, out)
    elif isinstance(node, Call):
        # patch(...) arguments declare coordinates, they reference nothing
        if node.fn != "patch":
            for a in node.args:
                _free_names(a, env, out)


def _resolve_atom(name: str, patch: Patch):
    if name in patch.coords:
        return Expr.coord(patch, name)
    if name.startswith("D") and name[1:] in patch.coords:
        return VField.coordinate(patch, name[1:])
    if name.startswith("d") and name[1:] in patch.coords:
        return KForm.d_coord(patch, name[1:])
    return None


def _bind_patch(names, env):
    """First declared patch whose coordinates cover every free symbol.

    A declared groupoid counts through its total space, so literals can live
    on the arrow patch without re-declaring it.
    """
    if not names:
        return None
    candidates = []
    for value in env.values():
        if isinstance(value, Patch):
            candidates.append(value)
        elif isinstance(value, GroupoidPatch):
            candidates.append(value.total)
    for patch in candidates:
        if all(_resolve_atom(n, patch) is not None for n in names):
            return patch
    raise UnknownReference(
        f"'{names[0]}' is not declared and no declared patch explains every symbol in the literal"
    )


def _type_name(value) -> str:
    table = {
        Patch: "patch",
        Expr: "scalar",
        KForm: "form",
        VField: "vector field",
        Bivector: "bivector",
        Frame: "frame",
        AlgebroidPatch: "algebroid",
        GroupoidPatch: "groupoid",
        IMTwoForm: "covector map",
    }
    for t, label in table.items():
        if isinstance(value, t):
            return label
    if isinstance(value, (int, Fraction)):
        return "number"
    return type(value).__name__


# the values that can be added and scaled
_LINEAR = (Expr, KForm, VField, Bivector)


def _scale(value, factor):
    if isinstance(value, (int, Fraction)):
        return Fraction(factor) * value
    if not isinstance(value, _LINEAR):
        raise CheckError(f"cannot scale a {_type_name(value)} by a number")
    patch = value.patch
    c = Expr.const(patch, Fraction(factor))
    if isinstance(value, Expr):
        return value * c
    return value.scale(c)


def bounded_power(base, k: int):
    """``base ** k`` for a polynomial or rational ``base``; raises ``CheckError`` when the
    exponent, the degree of the result or the bit length of its coefficients is too large."""
    if isinstance(base, Expr):
        degree, coeffs = max(base.degree(), 0), base.terms.values()
    else:
        base = Fraction(base)
        degree, coeffs = 0, (base,)
    bits = max((max(c.numerator.bit_length(), c.denominator.bit_length()) for c in coeffs), default=0)
    if k > MAX_EXPONENT:
        raise CheckError(f"exponent {k} is above the limit of {MAX_EXPONENT}")
    if degree * k > MAX_EXPONENT:
        raise CheckError(f"a power of degree {degree * k} is above the limit of {MAX_EXPONENT}")
    if bits * k > 64 * MAX_EXPONENT:
        raise CheckError(f"a power with {bits * k}-bit coefficients is above the limit of {64 * MAX_EXPONENT} bits")
    return base ** k


def _eval_binop(node, lv, rv):
    op = node.op
    if op in ("+", "-"):
        if isinstance(lv, (int, Fraction)) and isinstance(rv, (int, Fraction)):
            return lv + rv if op == "+" else lv - rv
        if isinstance(lv, Expr) and isinstance(rv, (int, Fraction)):
            rv = Expr.const(lv.patch, Fraction(rv))
        if isinstance(rv, Expr) and isinstance(lv, (int, Fraction)):
            lv = Expr.const(rv.patch, Fraction(lv))
        if type(lv) is not type(rv) or not isinstance(lv, _LINEAR):
            raise CheckError(f"cannot combine {_type_name(lv)} and {_type_name(rv)} with '{op}'")
        return lv + rv if op == "+" else lv - rv
    if op == "*":
        if isinstance(lv, (int, Fraction)) and isinstance(rv, (int, Fraction)):
            return Fraction(lv) * rv
        for a, b in ((lv, rv), (rv, lv)):
            if isinstance(a, (int, Fraction)) and not isinstance(b, (int, Fraction)):
                return _scale(b, a)
        if isinstance(lv, Expr) and isinstance(rv, Expr):
            return lv * rv
        if isinstance(lv, Expr) and isinstance(rv, (KForm, VField, Bivector)):
            return rv.scale(lv)
        if isinstance(rv, Expr) and isinstance(lv, (KForm, VField, Bivector)):
            return lv.scale(rv)
        raise CheckError(f"cannot multiply {_type_name(lv)} by {_type_name(rv)} (use '^' to wedge)")
    if op == "/":
        if isinstance(rv, Expr) and rv.degree() == 0:
            # a non-zero constant polynomial divides as its value; a number over it is a scalar
            if isinstance(lv, (int, Fraction)):
                lv = Expr.const(rv.patch, Fraction(lv))
            rv = rv.constant_value()
        if not isinstance(rv, (int, Fraction)) or rv == 0:
            raise CheckError(DIVISION_REFUSAL)
        if isinstance(lv, (int, Fraction)):
            return Fraction(lv) / rv
        return _scale(lv, Fraction(1, 1) / Fraction(rv))
    if op == "^":
        if isinstance(rv, Fraction) and rv.denominator == 1:
            rv = int(rv)
        if isinstance(lv, (int, Fraction, Expr)) and isinstance(rv, int):
            if rv < 0:
                raise CheckError("negative powers are not defined for polynomials")
            return bounded_power(lv, rv)
        if isinstance(lv, KForm) and isinstance(rv, KForm):
            return wedge(lv, rv)
        if isinstance(lv, VField) and isinstance(rv, VField):
            return wedge_fields(lv, rv)
        raise CheckError(f"cannot raise {_type_name(lv)} to {_type_name(rv)}")
    raise CheckError(f"unknown operator '{op}'")


def _eval(node, env, patch):
    if isinstance(node, IntLit):
        return node.value
    if isinstance(node, Name):
        if node.id in env:
            return env[node.id]
        if patch is not None:
            atom = _resolve_atom(node.id, patch)
            if atom is not None:
                return atom
        raise UnknownReference(f"'{node.id}' is not declared")
    if isinstance(node, Neg):
        return _scale(_eval(node.operand, env, patch), -1)
    if isinstance(node, BinOp):
        return _eval_binop(node, _eval(node.left, env, patch), _eval(node.right, env, patch))
    if isinstance(node, Call):
        if node.fn == "patch":
            raise CheckError("patch(...) may only appear as the whole right side of a let")
        if node.fn not in CONSTRUCTORS:
            known = ", ".join(sorted(CONSTRUCTORS))
            raise UnknownReference(f"unknown constructor '{node.fn}' (known: {known})")
        types, variadic, fn = CONSTRUCTORS[node.fn]
        args = _typed_args(node.fn, types, variadic, node.args, lambda a: _eval(a, env, patch))
        try:
            return fn(*args)
        except EngineError:
            raise
        except Exception as exc:
            raise CheckError(f"{node.fn}: {exc}") from exc
    raise TypeError(f"not an expression node: {node!r}")


def _typed_args(name, types, variadic, nodes, evaluate) -> list:
    """The values of ``nodes``, checked against a signature once the count fits.

    A variadic signature repeats its last type; an integral Fraction passes as an int.
    """
    count = f"{len(types)} argument" + ("" if len(types) == 1 else "s")
    if variadic:
        if len(nodes) < len(types):
            raise CheckError(f"{name} expects at least {count}, got {len(nodes)}")
        types = list(types) + [types[-1]] * (len(nodes) - len(types))
    elif len(nodes) != len(types):
        raise CheckError(f"{name} expects {count}, got {len(nodes)}")
    args = []
    for i, (node, want) in enumerate(zip(nodes, types), start=1):
        value = evaluate(node)
        if want is int and isinstance(value, Fraction) and value.denominator == 1:
            value = int(value)
        if not isinstance(value, want):
            raise CheckError(f"{name}: argument {i} has the wrong kind ({_type_name(value)})")
        args.append(value)
    return args


def _evaluate_argument(node, env):
    free = []
    _free_names(node, env, free)
    patch = _bind_patch(free, env)
    return _eval(node, env, patch)


def parse_expr(text: str, patch: Patch) -> Expr:
    """The polynomial one line of the language gives on ``patch``, evaluated as a ``let`` is.

    A name that is neither a coordinate nor a constructor raises ``UnknownSymbol``; any
    other refusal, and a value that is not a scalar, raises ``ExprSyntaxError``.
    """
    line = _Line(text, 1)
    try:
        node = _parse_expr(line)
        if line.peek() is not None:
            line.fail("trailing tokens after the expression")
        value = _eval(node, {}, patch)
    except UnknownReference as exc:
        raise UnknownSymbol(str(exc)) from None
    except EngineError as exc:
        raise ExprSyntaxError(str(exc)) from None
    except RecursionError:
        raise ExprSyntaxError("the expression nests too deeply") from None
    if isinstance(value, (int, Fraction)):
        return Expr.const(patch, value)
    if not isinstance(value, Expr):
        raise ExprSyntaxError(f"the expression is a {_type_name(value)}, not a scalar")
    return value


CONSTRUCTORS: dict[str, tuple[tuple, bool, Callable]] = {
    "graph_two_form": ((KForm,), False, graph_two_form),
    "graph_bivector": ((Bivector,), False, graph_bivector),
    "foliation_frame": ((VField,), True, lambda *fields: foliation_frame(tuple(fields))),
    "bfield_transform": ((Frame, KForm), False, bfield_transform),
    "tangent_lift_dirac": ((Frame,), False, tangent_lift_dirac),
    "tangent_bundle_algebroid": ((Patch,), False, tangent_bundle_algebroid),
    "tangent_lift_algebroid": ((AlgebroidPatch,), False, tangent_lift_algebroid),
    "dual_linear_poisson": ((AlgebroidPatch,), False, dual_linear_poisson),
    "im_from_two_form": ((AlgebroidPatch, KForm), False, im_from_two_form),
    "pair_groupoid": ((Patch,), False, pair_groupoid),
    "abelian_group": ((int,), False, abelian_group),
    "heisenberg3": ((), False, heisenberg3),
    "tangent_groupoid": ((GroupoidPatch,), False, tangent_groupoid),
    "lie_algebroid_of": ((GroupoidPatch,), False, lie_algebroid_of),
    "induced_dual_bracket": ((GroupoidPatch, Bivector), False, induced_dual_bracket),
    "induced_im_two_form": ((GroupoidPatch, KForm), False, induced_im_two_form),
}


def _check_closed(w: KForm) -> Report:
    d = exterior_derivative(w)
    coefficients = (
        f"d coefficient[{','.join(str(i + 1) for i in idx)}] = {val}" for idx, val in sorted(d.coeffs.items())
    )
    return Report((CheckItem.first("exterior derivative vanishes", coefficients),))


CHECKS: dict[str, tuple[tuple, bool, Callable]] = {
    "dirac": ((Frame,), False, check_dirac),
    "lagrangian": ((Frame,), False, check_lagrangian),
    "linearity": ((Frame, int), False, check_linearity),
    "tangent_mu": ((Frame,), False, check_tangent_mu_identity),
    "closed": ((KForm,), False, _check_closed),
    "lie_algebroid": ((AlgebroidPatch,), False, check_lie_algebroid),
    "bialgebroid": ((AlgebroidPatch, AlgebroidPatch), False, check_lie_bialgebroid),
    "im_two_form": ((AlgebroidPatch, IMTwoForm), False, check_im_two_form),
    "groupoid_axioms": ((GroupoidPatch,), False, check_groupoid_axioms),
    "multiplicative_two_form": ((GroupoidPatch, KForm), False, check_multiplicative_two_form),
    "multiplicative_bivector": ((GroupoidPatch, Bivector), False, check_multiplicative_bivector),
    "multiplicative_frame": ((GroupoidPatch, Frame), False, check_multiplicative_frame),
}


# -- running ------------------------------------------------------------------------------


class CheckResult(NamedTuple):
    name: str
    verdict: str
    witness: str | None
    seconds: float


class RunReport(NamedTuple):
    checks: tuple[CheckResult, ...]

    @property
    def passes(self) -> int:
        return sum(1 for c in self.checks if c.verdict == "pass")

    @property
    def failures(self) -> int:
        return len(self.checks) - self.passes

    @property
    def exit_code(self) -> int:
        return 0 if self.failures == 0 else 1


def _result(name: str, report: Report, seconds: float) -> CheckResult:
    return CheckResult(name, "pass" if report.passed else "fail", report.witness, seconds)


def run_checks(cf: CheckFile) -> RunReport:
    """Evaluate the statements in order; an evaluation error names its line, as a parse error does."""
    env: dict[str, object] = {}
    results = []
    for stmt in cf.statements:
        try:
            result = _run_statement(stmt, env)
        except EngineError as exc:
            raise type(exc)(f"line {stmt.line}: {exc}") from exc
        if result is not None:
            results.append(result)
    return RunReport(tuple(results))


def _run_statement(stmt, env: dict) -> CheckResult | None:
    """Bind a let in ``env``, or run a check and return its result."""
    try:
        if isinstance(stmt, LetStmt):
            if isinstance(stmt.value, Call) and stmt.value.fn == "patch":
                coords = []
                for a in stmt.value.args:
                    if not isinstance(a, Name):
                        raise ParseError("patch(...) takes bare coordinate names")
                    coords.append(a.id)
                # a bad coordinate list raises WrongShape, whose message names the patch
                env[stmt.name] = Patch(stmt.name, tuple(coords))
            else:
                env[stmt.name] = _evaluate_argument(stmt.value, env)
            return None
        types, variadic, fn = CHECKS[stmt.kind]
        args = _typed_args(f"check {stmt.kind}", types, variadic, stmt.args, lambda a: _evaluate_argument(a, env))
        label = " ".join([stmt.kind] + [_print_expr(a, 3) for a in stmt.args])
    except RecursionError:
        raise CheckError("the expression nests too deeply") from None
    start = time.monotonic()
    try:
        report = fn(*args)
    except EngineError as exc:
        raise CheckError(f"{label}: {exc}") from exc
    return _result(label, report, time.monotonic() - start)


def run_checkfile(path: str) -> RunReport:
    """Run a UTF-8 check file; a leading byte-order mark is skipped."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # the codec reports the offset within the bytes after the mark
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"line {line}: the file is not UTF-8 text") from None
    return run_checks(parse_checkfile(text))


def run_builtin_suite() -> RunReport:
    # imported here, not at the top: the suite builds its examples with this module's parse_expr
    from . import suite

    results = []
    for name, build in suite.SUITE:
        start = time.monotonic()
        report = build()
        results.append(_result(name, report, time.monotonic() - start))
    return RunReport(tuple(results))


# -- emission -----------------------------------------------------------------------------


def emit_report(r: RunReport, format: str = "text") -> bytes:
    if format == "json":
        checks = []
        for c in r.checks:
            entry = {"name": c.name, "verdict": c.verdict}
            if c.witness is not None:
                entry["witness"] = c.witness
            checks.append(entry)
        data = {"checks": checks, "summary": {"pass": r.passes, "fail": r.failures}}
        return (json.dumps(data, indent=2) + "\n").encode("utf-8")
    if format == "text":
        lines = []
        for c in r.checks:
            lines.append(f"{c.verdict:4s}  {c.name}")
            if c.witness is not None:
                lines.append(f"      witness: {c.witness}")
        lines.append(f"summary: {r.passes} passed, {r.failures} failed")
        return ("\n".join(lines) + "\n").encode("utf-8")
    raise ValueError(f"unknown format '{format}'")


# -- entry point --------------------------------------------------------------------------


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="diracgeom", description="Exact checks for Dirac geometry on charts.")
    sub = parser.add_subparsers(dest="command", required=True)
    verify = sub.add_parser("verify", help="run a check file or the built-in suite")
    verify.add_argument("file", nargs="?", help="check file to run")
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.add_argument("--suite", choices=("paper-examples",), help="run the built-in example library")
    args = parser.parse_args(argv)

    if args.command == "verify":
        if (args.file is None) == (args.suite is None):
            verify.error("give exactly one of a check file or --suite")
        try:
            report = run_builtin_suite() if args.suite else run_checkfile(args.file)
        except EngineError as exc:
            sys.stderr.write(f"error: {exc}\n")
            return 2
        sys.stdout.buffer.write(emit_report(report, args.format))
        sys.stdout.buffer.flush()
        return report.exit_code
    return 2


if __name__ == "__main__":
    sys.exit(main())
