"""Check-file parsing, evaluation, report emission, and exit codes."""

import json
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diracgeom import cli
from diracgeom.cli import (
    BinOp,
    Call,
    CheckFile,
    CheckStmt,
    IntLit,
    LetStmt,
    Name,
    Neg,
    RunReport,
    emit_report,
    main,
    parse_checkfile,
    print_checkfile,
    run_builtin_suite,
    run_checkfile,
    run_checks,
)
from diracgeom.errors import CheckError, EngineError, ParseError, UnknownReference
from diracgeom.symalg import MAX_EXPONENT, Expr, Patch, parse_expr

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
    )
    assert cf.statements[3] == CheckStmt("dirac", (Name("L"),))


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


def test_exponent_limit():
    ok = run_checks(parse_checkfile(f"let M = patch(x)\ncheck closed (x^{MAX_EXPONENT}*dx)\n"))
    assert ok.checks[0].verdict == "pass"
    with pytest.raises(CheckError, match="above the limit"):
        run_checks(parse_checkfile(f"let M = patch(x)\nlet f = x^{MAX_EXPONENT + 1}\n"))


# scalar texts: integers, coordinates, unary minus, + - *, / by a non-zero
# integer or a non-zero constant polynomial, ^ by a literal of at most 3, and
# parentheses
SCALAR_TEXTS = st.recursive(
    st.one_of(st.integers(0, 9).map(str), st.sampled_from(["x", "y", "z"])),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from([" + ", " - ", "*", "-"]), inner).map("".join),
        inner.map(lambda t: f"-{t}"),
        inner.map(lambda t: f"({t})"),
        st.tuples(inner, st.integers(1, 9)).map(lambda t: f"{t[0]}/{t[1]}"),
        st.tuples(inner, st.integers(1, 9)).map(lambda t: f"{t[0]}/(y - y + {t[1]})"),
        st.tuples(inner, st.integers(0, 3)).map(lambda t: f"{t[0]}^{t[1]}"),
    ),
    max_leaves=8,
)
XYZ = Patch("P", ("x", "y", "z"))


def _outcome(evaluate):
    try:
        return evaluate()
    except EngineError as exc:  # only the power limit can refuse these texts
        assert "above the limit" in str(exc)
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
    "text",
    [
        "let M = patch(x, x)\n",
        "let M = patch(x, y, z, w)\ncheck closed dx^dy^dz^dw\n",
        "let G = abelian_group(-1)\ncheck groupoid_axioms G\n",
        "let M = patch()\nlet G = pair_groupoid(M)\ncheck groupoid_axioms G\n",
        "let M = patch(x, y, z)\nlet f = (x + y + z)^300\n",
        "let M = patch(x)\ncheck closed (x^100000000*dx)\n",
        "let G = heisenberg3()\nlet f = -G\n",
        "let M = patch(x)\nlet f = 2*M\n",
        "let G = heisenberg3()\nlet f = G + G\n",
        "let M = patch(x, y, z, u, v, w)\ncheck tangent_mu tangent_lift_dirac(tangent_lift_dirac(graph_two_form(dx^dy)))\n",
        "let M = patch(x, y)\nlet f = (x + y)^64\nlet g = f^64\n",
        "let M = patch(x, y, z)\nlet f = (x + y + z)^8^8\nlet g = f^8\n",
        "let n = 2^64^64^64^64^64^64\n",
    ],
    ids=[
        "duplicate-coordinate",
        "degree-too-high",
        "negative-group-size",
        "zero-dimensional-pair-groupoid",
        "huge-exponent-of-a-sum",
        "huge-exponent-in-a-check",
        "negated-groupoid",
        "scaled-patch",
        "sum-of-groupoids",
        "colliding-tangent-lift",
        "power-of-a-bound-power",
        "chained-powers",
        "chained-number-powers",
    ],
)
def test_bad_inputs_exit_2_with_one_error_line(tmp_path, capsys, text):
    assert main(["verify", write(tmp_path, text)]) == 2
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
