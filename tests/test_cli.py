"""Check-file parsing, evaluation, report emission, and exit codes."""

import json
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diracgeom import cli, suite
from diracgeom.algebroid import dual_patch, tangent_bundle_algebroid
from diracgeom.cartan import KForm
from diracgeom.cli import (
    DIVISION_REFUSAL,
    MAX_EXPONENT,
    BinOp,
    Call,
    CheckFile,
    CheckStmt,
    IntLit,
    LetStmt,
    Name,
    Neg,
    RunReport,
    _print_expr,
    emit_report,
    main,
    parse_checkfile,
    parse_expr,
    run_builtin_suite,
    run_checkfile,
    run_checks,
)
from diracgeom.errors import CheckError, EngineError, ExprSyntaxError, ParseError, UnknownReference, UnknownSymbol
from diracgeom.symalg import MAX_DIMENSION, Expr, Patch

SAMPLE = """\
# a closed two-form on the plane
let M = patch(x, y)
let omega = (1 + x)*dx^dy
let L = graph_two_form(omega)

check dirac L
check closed omega
check lagrangian L
"""


def write(tmp_path, text, name="file.check"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


# -- parsing ---------------------------------------------------------------------


def test_parse_shapes():
    cf = parse_checkfile(SAMPLE)
    assert [type(s) for s in cf.statements] == [LetStmt, LetStmt, LetStmt, CheckStmt, CheckStmt, CheckStmt]
    omega = cf.statements[1]
    assert omega == LetStmt(
        "omega",
        BinOp("*", BinOp("+", IntLit(1), Name("x")), BinOp("^", Name("dx"), Name("dy"))),
        3,
    )
    # each statement keeps its line, counting the comment and the blank line
    assert cf.statements[3] == CheckStmt("dirac", (Name("L"),), 6)


def print_checkfile(cf: CheckFile) -> str:
    """The check-file text of ``cf``, which parses back to ``cf``: the parser round-trip reference.

    Each statement is printed on its own line number, blank lines filling the gaps.
    """
    lines = []
    for stmt in cf.statements:
        lines += [""] * (stmt.line - 1 - len(lines))
        if isinstance(stmt, LetStmt):
            lines.append(f"let {stmt.name} = {_print_expr(stmt.value)}")
        else:
            args = " ".join(_print_expr(a, 3) for a in stmt.args)
            lines.append(f"check {stmt.kind} {args}".rstrip())
    return "\n".join(lines) + ("\n" if lines else "")


def test_parse_print_round_trip():
    cf = parse_checkfile(SAMPLE)
    assert parse_checkfile(print_checkfile(cf)) == cf


def test_round_trip_preserves_tricky_expressions():
    text = "\n".join(
        [
            "let M = patch(x, y)",
            "let a = -(x + y)*dx^dy",
            "let b = 2*a - (1/3)*dx^dy",
            "let L = graph_two_form(b)",
            "check dirac L",
            "check linearity L 1",
        ]
    )
    cf = parse_checkfile(text)
    assert parse_checkfile(print_checkfile(cf)) == cf


def test_parenthesised_check_arguments_are_not_calls():
    # a call needs its '(' to touch the name; after a space it starts the next argument
    cf = parse_checkfile(
        "let M = patch(x, y)\n"
        "let L = graph_two_form(x*dx^dy)\n"
        "check linearity L (1)\n"
        "check dirac graph_two_form(y*dx^dy)\n"
        "let H = abelian_group(2)\n"
        "check multiplicative_bivector H (x_2*Dx_1^Dx_2)\n"
    )
    checks = [s for s in cf.statements if isinstance(s, CheckStmt)]
    assert checks[0].args == (Name("L"), IntLit(1))
    assert isinstance(checks[1].args[0], Call)
    assert checks[2].args[0] == Name("H") and isinstance(checks[2].args[1], BinOp)
    rep = run_checks(cf)
    assert [c.verdict for c in rep.checks] == ["pass", "pass", "pass"]
    assert parse_checkfile(print_checkfile(cf)) == cf


EXPR_TREES = st.recursive(
    st.one_of(st.sampled_from([Name("x"), Name("dy")]), st.integers(0, 12).map(IntLit)),
    lambda children: st.one_of(
        children.map(Neg),
        st.builds(BinOp, st.sampled_from("+-*/^"), children, children),
        st.builds(Call, st.sampled_from(["f", "patch"]), st.lists(children, max_size=2).map(tuple)),
    ),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None)
@given(EXPR_TREES)
@example(Neg(BinOp("^", Neg(Name("x")), Name("x"))))
@example(BinOp("^", BinOp("^", Name("x"), IntLit(2)), IntLit(3)))
def test_printed_expressions_parse_back(tree):
    # as a declared value (parent precedence 0) and as a check argument (3)
    assert parse_checkfile(f"let a = {_print_expr(tree)}\n").statements[0].value == tree
    assert parse_checkfile(f"check closed {_print_expr(tree, 3)}\n").statements[0].args == (tree,)


def test_labels_keep_the_parentheses_of_a_negated_power_base(tmp_path, capsys):
    path = write(tmp_path, "let M = patch(x, y)\ncheck closed ((-x)^2*dy)\ncheck closed (-(x^2)*dy)\n")
    assert main(["verify", path]) == 1
    assert capsys.readouterr().out.splitlines()[::2] == [
        "fail  closed ((-x)^2*dy)",
        "fail  closed (-(x^2)*dy)",
        "summary: 0 passed, 2 failed",
    ]


def test_exponent_limit():
    ok = run_checks(parse_checkfile(f"let M = patch(x)\ncheck closed (x^{MAX_EXPONENT}*dx)\n"))
    assert ok.checks[0].verdict == "pass"
    with pytest.raises(CheckError, match="above the limit"):
        run_checks(parse_checkfile(f"let M = patch(x)\nlet f = x^{MAX_EXPONENT + 1}\n"))


# scalar texts: integers, coordinates, unary minus, + - *, / by an integer, a
# constant polynomial or any other text (zero and non-constant divisors are
# refused), ^ by a literal of at most 3, and parentheses
SCALAR_TEXTS = st.recursive(
    st.one_of(st.integers(0, 9).map(str), st.sampled_from(["x", "y", "z"])),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from([" + ", " - ", "*", "-"]), inner).map("".join),
        inner.map(lambda t: f"-{t}"),
        inner.map(lambda t: f"({t})"),
        st.tuples(inner, st.integers(1, 9)).map(lambda t: f"{t[0]}/{t[1]}"),
        st.tuples(inner, st.integers(1, 9)).map(lambda t: f"{t[0]}/(y - y + {t[1]})"),
        st.tuples(inner, inner).map(lambda t: f"{t[0]}/({t[1]})"),
        st.tuples(inner, st.integers(0, 3)).map(lambda t: f"{t[0]}^{t[1]}"),
    ),
    max_leaves=8,
)
XYZ = Patch("P", ("x", "y", "z"))


def _outcome(evaluate):
    try:
        return evaluate()
    except EngineError as exc:  # only the power limit and a bad divisor can refuse these texts
        assert "above the limit" in str(exc) or str(exc) == DIVISION_REFUSAL
        return str(exc)


def _let_value_raw(text):
    stmt = parse_checkfile(f"let f = {text}\n").statements[0]
    return cli._evaluate_argument(stmt.value, {"P": XYZ})


def _let_value(text):
    value = _let_value_raw(text)
    return value if isinstance(value, Expr) else Expr.const(XYZ, value)


@settings(max_examples=150, deadline=None)
@given(SCALAR_TEXTS)
@example("x/2")
@example("x*-y")
@example("x^2^2")
@example("3/4^2")
@example("x/(y - y + 2)")
@example("x/(y - y)")
@example("x/0")
@example("x/y")
@example("x/(0*y)")
def test_parse_expr_and_check_files_agree(text):
    # one grammar, one meaning: parse_expr gives what `let f = <text>` binds
    assert _outcome(lambda: parse_expr(text, XYZ)) == _outcome(lambda: _let_value(text))


def test_scalar_texts_the_old_parser_rejected():
    x, y = Expr.coord(XYZ, "x"), Expr.coord(XYZ, "y")
    assert parse_expr("x/2", XYZ) == x * Expr.const(XYZ, Fraction(1, 2))
    assert parse_expr("x*-y", XYZ) == -(x * y)
    assert parse_expr("x^2^2", XYZ) == x**4
    # '^' binds tighter than '/', as in check files
    assert parse_expr("3/4^2", XYZ) == Expr.const(XYZ, Fraction(3, 16))


def test_division_by_a_constant_polynomial_gives_a_scalar():
    # a number over a constant polynomial is a scalar, as a number times one is
    for text in ("3/(y - y + 2)", "3*(y - y + 1)/2", "(3*x - 3*x + 3)/(z - z + 2)"):
        assert _let_value_raw(text) == Expr.const(XYZ, Fraction(3, 2))
    with pytest.raises(CheckError, match="division is only defined by a nonzero number"):
        _let_value_raw("x/(y - y)")


def test_integral_exponents_in_check_files():
    # + of numbers stays an int while * and / give a Fraction, and unary minus gives one too;
    # an integral exponent raises either way
    x = Expr.coord(XYZ, "x")
    for text in ("x^(1+1)", "x^(2*1)", "x^(4/2)", "x^(-(-2))"):
        assert _let_value_raw(text) == x**2
    for text, message in [
        ("x^(1/2)", "cannot raise scalar to number"),
        ("x^(0-2)", "negative powers are not defined for polynomials"),
        ("x^(-2)", "negative powers are not defined for polynomials"),
    ]:
        with pytest.raises(CheckError, match=f"^{re.escape(message)}$"):
            _let_value_raw(text)


# number texts: integers combined by + - * / and unary minus, each compound one in parentheses,
# so that it can stand as an exponent or a divisor
NUMBER_TEXTS = st.recursive(
    st.integers(0, 4).map(str),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*", "/"]), inner).map(lambda t: f"({''.join(t)})"),
        inner.map(lambda t: f"(-{t})"),
    ),
    max_leaves=4,
)


@st.composite
def patch_and_scalar_text(draw):
    """A patch of 2 or 3 coordinates and a scalar text over them, with number texts as exponents and divisors."""
    coords = ("x", "y", "z")[: draw(st.integers(2, 3))]
    text = draw(
        st.recursive(
            st.one_of(st.integers(0, 9).map(str), st.sampled_from(coords)),
            lambda inner: st.one_of(
                st.tuples(inner, st.sampled_from([" + ", " - ", "*"]), inner).map("".join),
                inner.map(lambda t: f"-{t}"),
                st.tuples(inner, NUMBER_TEXTS).map(lambda t: f"({t[0]})^{t[1]}"),
                st.tuples(inner, NUMBER_TEXTS).map(lambda t: f"({t[0]})/{t[1]}"),
            ),
            max_leaves=6,
        )
    )
    return Patch("M", coords), text


def _value_or_refusal(evaluate):
    try:
        return evaluate()
    except EngineError as exc:
        return str(exc)


def _bound_by_let(patch, text):
    """The value ``let f = <text>`` binds in a check file after ``let M = patch(...)``."""
    _, bind = parse_checkfile(f"let M = patch({', '.join(patch.coords)})\nlet f = {text}\n").statements
    value = cli._evaluate_argument(bind.value, {"M": patch})
    return value if isinstance(value, Expr) else Expr.const(patch, value)


@settings(max_examples=150, deadline=None)
@given(patch_and_scalar_text())
@example((XYZ, "x^(1+1)"))
@example((XYZ, "x^(2*1)"))
@example((XYZ, "x^(4/2)"))
@example((XYZ, "(x + y)/(1+1)"))
@example((XYZ, "x/(2-2)"))
@example((XYZ, "x^(1/2)"))
def test_parse_expr_is_the_check_file_evaluator(case):
    # the same value, or the same refusal text, for every scalar text
    patch, text = case
    assert _value_or_refusal(lambda: parse_expr(text, patch)) == _value_or_refusal(lambda: _bound_by_let(patch, text))


XY = Patch("M", ("x", "y"))


@pytest.mark.parametrize(
    "text, error",
    [
        ("x^(1/2)", ExprSyntaxError),
        ("x^(-2)", ExprSyntaxError),
        ("x^y", ExprSyntaxError),
        ("1/0", ExprSyntaxError),
        ("x^65", ExprSyntaxError),
        ("(x^2)^33", ExprSyntaxError),
        ("x +", ExprSyntaxError),
        ("z", UnknownSymbol),
        ("f(x)", UnknownSymbol),
        # a form, a vector field and a frame are values, but not scalars
        ("dx", ExprSyntaxError),
        ("Dx", ExprSyntaxError),
        ("graph_two_form(dx^dy)", ExprSyntaxError),
    ],
)
def test_parse_expr_refusals(text, error):
    with pytest.raises(EngineError) as err:
        parse_expr(text, XY)
    assert type(err.value) is error


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_checkfile("let x = = 1\n")
    assert "line 1" in str(err.value)
    with pytest.raises(ParseError):
        parse_checkfile("let 9bad = 1\n")
    with pytest.raises(ParseError):
        parse_checkfile("let a = 1\nlet a = 2\n")
    with pytest.raises(ParseError):
        parse_checkfile("frob a b\n")
    with pytest.raises(ParseError):
        parse_checkfile("check verywrong L\n")
    # at the end of a line the column is the one just after the last token
    for text, message in [
        ("let a = (1 + 2", "line 1, column 15: expected ')', found end of line"),
        ("let a = (1 + 2  # open", "line 1, column 15: expected ')', found end of line"),
        ("let x =", "line 1, column 8: expected an expression, found end of line"),
        ("let M = patch(x)\nlet", "line 2, column 4: unexpected end of line"),
        ("check", "line 1, column 6: unexpected end of line"),
    ]:
        with pytest.raises(ParseError) as err:
            parse_checkfile(text + "\n")
        assert str(err.value) == message


def test_comments_and_blanks_are_ignored():
    cf = parse_checkfile("\n\n# only comments\n   # indented\n")
    assert cf == CheckFile(())


# -- evaluation ---------------------------------------------------------------------


def test_form_literal_binds_to_covering_patch():
    cf = parse_checkfile(
        "let A = patch(u)\nlet M = patch(x, y)\ncheck closed (x*dx^dy)\n"
    )
    rep = run_checks(cf)
    assert rep.checks[0].verdict == "pass"
    assert rep.checks[0].name == "closed (x*dx^dy)"


def test_vector_field_atoms_and_foliations():
    cf = parse_checkfile(
        "let M = patch(x, y, z)\ncheck dirac foliation_frame(Dx, Dy)\n"
        "check dirac foliation_frame(Dx, x*Dy + Dz)\n"
    )
    rep = run_checks(cf)
    assert [c.verdict for c in rep.checks] == ["pass", "fail"]


def test_bivector_wedge_and_graph():
    cf = parse_checkfile(
        "let M = patch(x_1, x_2, x_3)\n"
        "let pi = x_3*Dx_1^Dx_2 + x_1*Dx_2^Dx_3 - x_2*Dx_1^Dx_3\n"
        "check dirac graph_bivector(pi)\n"
        "check linearity graph_bivector(pi) 0\n"
    )
    rep = run_checks(cf)
    assert [c.verdict for c in rep.checks] == ["pass", "pass"]


def test_groupoid_constructors_in_files():
    cf = parse_checkfile(
        "let G = heisenberg3()\n"
        "check groupoid_axioms G\n"
        "check groupoid_axioms tangent_groupoid(G)\n"
        "check lie_algebroid lie_algebroid_of(G)\n"
        "let H = abelian_group(2)\n"
        "let pi = x_1*Dx_1^Dx_2\n"
        "check multiplicative_bivector H pi\n"
        "check bialgebroid lie_algebroid_of(H) induced_dual_bracket(H, pi)\n"
    )
    rep = run_checks(cf)
    assert all(c.verdict == "pass" for c in rep.checks)


def test_unknown_references():
    with pytest.raises(UnknownReference):
        run_checks(parse_checkfile("check dirac nosuch\n"))
    with pytest.raises(UnknownReference):
        run_checks(parse_checkfile("let a = frobnicate(1)\n"))
    with pytest.raises(UnknownReference):
        # no declared patch covers the symbol
        run_checks(parse_checkfile("let M = patch(x)\ncheck closed dx^dq\n"))


def test_type_errors_are_check_errors():
    with pytest.raises(CheckError):
        run_checks(parse_checkfile("let M = patch(x, y)\ncheck dirac dx^dy\n"))
    with pytest.raises(CheckError):
        run_checks(parse_checkfile("let M = patch(x)\nlet a = dx + Dx\n"))
    with pytest.raises(CheckError):
        run_checks(parse_checkfile("let M = patch(x)\nlet a = x/(x)\n"))
    with pytest.raises(CheckError):
        run_checks(parse_checkfile("let a = patch(x) + 1\n"))
    with pytest.raises(CheckError):
        run_checks(parse_checkfile("check dirac abelian_group(1, 2)\n"))


def test_engine_errors_become_check_errors():
    text = "let M = patch(x)\nlet L = graph_two_form(0*dx^dx)\ncheck linearity L 7\n"
    with pytest.raises(CheckError):
        run_checks(parse_checkfile(text))


# -- reports ----------------------------------------------------------------------


def test_report_counts_and_witnesses(tmp_path):
    path = write(
        tmp_path,
        "let M = patch(x, y, z)\ncheck dirac graph_two_form(z*dx^dy)\ncheck closed dx^dy\n",
    )
    rep = run_checkfile(path)
    assert rep.passes == 1 and rep.failures == 1
    assert rep.exit_code == 1
    failing = rep.checks[0]
    assert failing.verdict == "fail"
    assert failing.witness == "mu[1,2,3] = 1"
    assert rep.checks[1].witness is None


def test_json_schema(tmp_path):
    path = write(tmp_path, "let M = patch(x, y, z)\ncheck dirac graph_two_form(z*dx^dy)\n")
    rep = run_checkfile(path)
    data = json.loads(emit_report(rep, "json").decode("utf-8"))
    assert set(data) == {"checks", "summary"}
    assert data["summary"] == {"pass": 0, "fail": 1}
    (entry,) = data["checks"]
    assert entry["name"] == "dirac graph_two_form(z*dx^dy)"
    assert entry["verdict"] == "fail"
    assert entry["witness"] == "mu[1,2,3] = 1"
    assert data["summary"]["pass"] + data["summary"]["fail"] == len(data["checks"])


def test_reports_exclude_timing(tmp_path):
    path = write(tmp_path, "let M = patch(x)\ncheck closed dx^dx\n")
    rep = run_checkfile(path)
    assert rep.checks[0].seconds >= 0.0
    blob = emit_report(rep, "json") + emit_report(rep, "text")
    assert b"seconds" not in blob and b"time" not in blob


def test_emissions_are_deterministic(tmp_path):
    path = write(
        tmp_path,
        "let M = patch(x, y)\nlet L = graph_two_form((1 + x)*dx^dy)\ncheck dirac L\ncheck lagrangian L\n",
    )
    first = emit_report(run_checkfile(path), "json")
    second = emit_report(run_checkfile(path), "json")
    assert first == second
    assert emit_report(run_checkfile(path), "text") == emit_report(run_checkfile(path), "text")


def test_empty_file_gives_empty_report(tmp_path):
    path = write(tmp_path, "")
    rep = run_checkfile(path)
    assert rep.checks == () and rep.exit_code == 0


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        emit_report(RunReport(()), "xml")


# -- entry point -------------------------------------------------------------------


def test_main_exit_codes(tmp_path, capsys):
    good = write(tmp_path, "let M = patch(x, y)\ncheck closed dx^dy\n", "good.check")
    bad = write(tmp_path, "let M = patch(x, y, z)\ncheck closed (z*dx^dy)\n", "bad.check")
    broken = write(tmp_path, "let = nope\n", "broken.check")
    assert main(["verify", good]) == 0
    assert main(["verify", bad, "--format", "json"]) == 1
    assert main(["verify", broken]) == 2
    assert main(["verify", str(tmp_path / "missing.check")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    ("text", "expected"),
    [
        ("let M = patch(x, x)\n", "line 1: patch M: duplicate coordinate 'x'"),
        # an evaluation error names its line, as a parse error does
        ("let M = patch(x)\nlet a = x/0\n", "line 2: division is only defined by a nonzero number"),
        ("let M = patch(x, y, z, w)\ncheck closed dx^dy^dz^dw\n", None),
        ("let G = abelian_group(-1)\ncheck groupoid_axioms G\n", None),
        ("let M = patch()\nlet G = pair_groupoid(M)\ncheck groupoid_axioms G\n", None),
        ("let M = patch(x, y, z)\nlet f = (x + y + z)^300\n", None),
        ("let M = patch(x)\ncheck closed (x^100000000*dx)\n", None),
        ("let G = heisenberg3()\nlet f = -G\n", None),
        ("let M = patch(x)\nlet f = 2*M\n", None),
        ("let G = heisenberg3()\nlet f = G + G\n", None),
        ("let M = patch(x, y)\nlet f = (x + y)^64\nlet g = f^64\n", None),
        ("let M = patch(x, y, z)\nlet f = (x + y + z)^8^8\nlet g = f^8\n", None),
        ("let n = 2^64^64^64^64^64^64\n", None),
        ("let G = abelian_group(10^9)\ncheck groupoid_axioms G\n", "line 1: abelian_group needs at most 64 coordinates, got 1000000000"),
        (
            f"let M = patch({', '.join(f'x{i}' for i in range(MAX_DIMENSION + 1))})\n",
            "line 1: patch M has 129 coordinates, above the limit of 128",
        ),
        (
            "let G = tangent_groupoid(tangent_groupoid(abelian_group(20)))\ncheck groupoid_axioms G\n",
            "line 1: patch TTAb20_pairs has 160 coordinates, above the limit of 128",
        ),
        # the constructor names itself: the pair chart of abelian_group(n) has 2n coordinates
        ("let G = abelian_group(100)\n", "line 1: abelian_group needs at most 64 coordinates, got 100"),
        # and that of pair_groupoid(M) three times as many as M
        (
            f"let M = patch({', '.join(f'x{i}' for i in range(43))})\nlet G = pair_groupoid(M)\n",
            "line 2: pair_groupoid needs a patch of at most 42 coordinates, got 43",
        ),
        # the associativity check names its chart of composable triples: 3n coordinates for a group,
        (
            "let G = abelian_group(43)\ncheck groupoid_axioms G\n",
            "line 2: groupoid_axioms G: the composable-triple chart has 129 coordinates, above the limit of 128",
        ),
        # 4n for a pair groupoid
        (
            f"let M = patch({', '.join(f'x{i}' for i in range(33))})\nlet G = pair_groupoid(M)\ncheck groupoid_axioms G\n",
            "line 3: groupoid_axioms G: the composable-triple chart has 132 coordinates, above the limit of 128",
        ),
        # the lifted Courant tensor of a frame on 64 coordinates would have C(128, 3) entries
        (
            f"let M = patch({', '.join('abcdefghijklmnop')})\n"
            "check tangent_mu tangent_lift_dirac(tangent_lift_dirac(graph_two_form(da^db)))\n",
            "line 2: tangent_mu tangent_lift_dirac(tangent_lift_dirac(graph_two_form(da^db))): "
            "a frame on 64 coordinates is above the limit of 32 for the lifted Courant tensor",
        ),
        # nesting deeper than the interpreter's stack is an error line, not a traceback: in the parser,
        ("let M = patch(x)\nlet f = " + "(" * 2000 + "x" + ")" * 2000 + "\n", "line 2: the expression nests too deeply"),
        ("let M = patch(x)\nlet f = " + "-" * 5000 + "x\n", "line 2: the expression nests too deeply"),
        # and in the evaluation of a let or of a check's arguments
        ("let M = patch(x)\nlet f = x" + "^1" * 3000 + "\n", "line 2: the expression nests too deeply"),
        ("let M = patch(x)\ncheck closed ((" + "+".join(["x"] * 1500) + ")*dx)\n", "line 2: the expression nests too deeply"),
        # the Jacobi walk refuses a rank above MAX_DIMENSION // 4, also where a check or constructor needs it
        (
            f"let M = patch({', '.join(f'x{i}' for i in range(33))})\nlet P = dual_linear_poisson(tangent_bundle_algebroid(M))\n",
            "line 2: an algebroid of rank 33 is above the limit of 32 for the Jacobi check",
        ),
        (
            f"let M = patch({', '.join(f'x{i}' for i in range(33))})\nlet A = tangent_bundle_algebroid(M)\n"
            "check im_two_form A im_from_two_form(A, dx0^dx1)\n",
            "line 3: im_two_form A im_from_two_form(A, dx0^dx1): an algebroid of rank 33 is above the limit of 32 for the Jacobi check",
        ),
        # a constructor's shape error is an engine error, printed once without the constructor's name
        ("let M = patch(x, y)\nlet L = bfield_transform(graph_two_form(dx^dy), dx)\n", "line 2: b-field must be a two-form"),
        # one argument is singular, for a variadic constructor and for a check
        ("let M = patch(x)\nlet L = foliation_frame()\n", "line 2: foliation_frame expects at least 1 argument, got 0"),
        ("let M = patch(x)\ncheck closed\n", "line 2: check closed expects 1 argument, got 0"),
    ],
    ids=[
        "duplicate-coordinate",
        "division-by-zero-on-line-2",
        "degree-too-high",
        "negative-group-size",
        "zero-dimensional-pair-groupoid",
        "huge-exponent-of-a-sum",
        "huge-exponent-in-a-check",
        "negated-groupoid",
        "scaled-patch",
        "sum-of-groupoids",
        "power-of-a-bound-power",
        "chained-powers",
        "chained-number-powers",
        "huge-abelian-group",
        "patch-above-the-dimension-limit",
        "tangent-groupoids-above-the-dimension-limit",
        "abelian-group-with-a-pair-chart-above-the-limit",
        "pair-groupoid-with-a-pair-chart-above-the-limit",
        "abelian-group-with-a-triple-chart-above-the-limit",
        "pair-groupoid-with-a-triple-chart-above-the-limit",
        "triple-tangent-lift-above-the-tangent-mu-limit",
        "deeply-nested-parentheses",
        "deeply-nested-minus-signs",
        "deeply-chained-powers",
        "long-sum-in-a-check",
        "dual-poisson-above-the-algebroid-rank-limit",
        "im-two-form-above-the-algebroid-rank-limit",
        "bfield-of-a-one-form",
        "variadic-constructor-without-arguments",
        "check-without-arguments",
    ],
)
def test_bad_inputs_exit_2_with_one_error_line(tmp_path, capsys, text, expected):
    assert main(["verify", write(tmp_path, text)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1
    if expected is not None:
        assert out.err == f"error: {expected}\n"


@pytest.mark.parametrize(
    "data, expected",
    [
        (b"let M = patch(x)\n# caf\xe9\ncheck closed dx\n", "line 2: the file is not UTF-8 text"),
        (b"\xef\xbb\xbflet M = patch(x)\r\n\xff", "line 2: the file is not UTF-8 text"),
        (b"\xe9", "line 1: the file is not UTF-8 text"),
    ],
    ids=["latin-1-comment", "after-a-byte-order-mark", "first-byte"],
)
def test_a_file_that_is_not_utf8_exits_2_naming_its_line(tmp_path, capsys, data, expected):
    path = tmp_path / "bytes.check"
    path.write_bytes(data)
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {expected}\n")


def test_a_byte_order_mark_is_skipped(tmp_path, capsys):
    path = tmp_path / "bom.check"
    path.write_bytes(b"\xef\xbb\xbflet M = patch(x)\ncheck closed dx\n")
    assert main(["verify", str(path)]) == 0
    assert capsys.readouterr().out == "pass  closed dx\nsummary: 1 passed, 0 failed\n"


def test_a_300_term_sum_in_a_check_passes(tmp_path, capsys):
    path = write(tmp_path, "let M = patch(x, y)\ncheck closed ((" + "+".join(["x"] * 300) + ")*dx^dy)\n")
    assert main(["verify", path]) == 0
    assert capsys.readouterr().out.endswith("summary: 1 passed, 0 failed\n")


def test_oversized_algebroid_is_refused_at_once(tmp_path, capsys):
    coords = ", ".join(f"x{i}" for i in range(MAX_DIMENSION // 4 + 1))
    path = write(tmp_path, f"let M = patch({coords})\ncheck lie_algebroid tangent_bundle_algebroid(M)\n")
    start = time.monotonic()
    assert main(["verify", path]) == 2
    assert time.monotonic() - start < 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (
        "error: line 2: lie_algebroid tangent_bundle_algebroid(M): an algebroid of rank 33 is above the limit of 32 for the Jacobi check\n"
    )


def test_third_tangent_groupoid_passes_its_axioms(tmp_path, capsys):
    # each level names its velocities apart: a_dot, then del_a, then del2_a
    text = "let G = tangent_groupoid(tangent_groupoid(tangent_groupoid(heisenberg3())))\ncheck groupoid_axioms G\n"
    assert main(["verify", write(tmp_path, text)]) == 0
    assert capsys.readouterr().out == "pass  groupoid_axioms G\nsummary: 1 passed, 0 failed\n"


def test_dual_chart_avoids_base_coordinate_names(tmp_path, capsys):
    # the fibre of the dual takes the xi_k names the base leaves free, here xi_2 and xi_3
    text = (
        "let M = patch(xi_1, y)\n"
        "check dirac graph_bivector(dual_linear_poisson(tangent_bundle_algebroid(M)))\n"
        "check linearity graph_bivector(dual_linear_poisson(tangent_bundle_algebroid(M))) 2\n"
    )
    assert main(["verify", write(tmp_path, text)]) == 0
    assert capsys.readouterr().out == (
        "pass  dirac graph_bivector(dual_linear_poisson(tangent_bundle_algebroid(M)))\n"
        "pass  linearity graph_bivector(dual_linear_poisson(tangent_bundle_algebroid(M))) 2\n"
        "summary: 2 passed, 0 failed\n"
    )
    assert dual_patch(tangent_bundle_algebroid(Patch("M", ("xi_1", "y")))).coords == ("xi_1", "y", "xi_2", "xi_3")


def test_linearity_on_a_frame_over_a_point(tmp_path, capsys):
    # the frame lives on a point patch, so every matrix of the check is 0 x 0
    text = "let N = patch()\ncheck linearity graph_bivector(dual_linear_poisson(tangent_bundle_algebroid(N))) 0\n"
    assert main(["verify", write(tmp_path, text)]) == 0
    assert capsys.readouterr().out == (
        "pass  linearity graph_bivector(dual_linear_poisson(tangent_bundle_algebroid(N))) 0\n"
        "summary: 1 passed, 0 failed\n"
    )


def test_tangent_lift_avoids_base_coordinate_names(tmp_path, capsys):
    # the base already uses y_dot, so its lift names the velocity of y y_dot1
    text = "let M = patch(x, y_dot, y)\ncheck dirac tangent_lift_dirac(graph_two_form(dx^dy))\n"
    assert main(["verify", write(tmp_path, text)]) == 0
    assert capsys.readouterr().out == (
        "pass  dirac tangent_lift_dirac(graph_two_form(dx^dy))\n"
        "summary: 1 passed, 0 failed\n"
    )


def test_failed_suite_ground_truth_exits_2(monkeypatch, capsys):
    # every form now reads as closed, so "z dx^dy is not closed" no longer holds
    monkeypatch.setattr(suite, "exterior_derivative", lambda w: KForm.zero(w.patch, w.degree + 1))
    assert main(["verify", "--suite", "paper-examples"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1


def test_main_requires_one_source(tmp_path, capsys):
    good = write(tmp_path, "", "x.check")
    with pytest.raises(SystemExit) as err:
        main(["verify", good, "--suite", "paper-examples"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["verify"])
    assert err.value.code == 2
    capsys.readouterr()


def test_builtin_suite_passes():
    start = time.monotonic()
    rep = run_builtin_suite()
    wall = time.monotonic() - start
    assert rep.failures == 0
    assert rep.passes == 10
    assert rep.exit_code == 0
    # each section is timed while it runs, so the timings cover the whole call
    assert sum(c.seconds for c in rep.checks) >= 0.9 * wall


def test_cli_subprocess_round_trip(tmp_path):
    path = write(tmp_path, "let M = patch(x, y)\ncheck closed dx^dy\n")
    out = subprocess.run(
        [sys.executable, "-m", "diracgeom", "verify", path, "--format", "json"],
        capture_output=True,
    )
    assert out.returncode == 0
    data = json.loads(out.stdout.decode("utf-8"))
    assert data["summary"] == {"pass": 1, "fail": 0}
