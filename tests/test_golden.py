"""Byte-for-byte golden outputs: the built-in suite, check files, Lagrangian witnesses.

Every verdict and witness string is part of the product, so a speed-up or a
refactor must leave these bytes alone.  The files under ``tests/golden/``
hold, for the suite and for each ``<name>.check``:

  <name>.txt   stdout of ``diracgeom verify <file>``
  <name>.json  stdout of ``diracgeom verify <file> --format json``
  <name>.err   stderr, for a file whose run stops with an evaluation error

``lagrangian_witnesses.txt`` holds the reports of frames that no check file
can build (non-isotropic or rank-deficient ones), which carry the
``pairing[...]`` and ``generic rank`` witnesses.

``elimination.txt`` holds the rank, kernel and two solutions of a fixed set
of random matrices.  Witnesses print ``RatExpr`` numerators and
denominators, and normalization is not canonical, so a different
elimination order could print a different but equal fraction; this file
pins the bytes the elimination itself produces.

Re-record (only for a change that means to alter output, and say so):

    PYTHONPATH=src python tests/test_golden.py --record
"""

import io
import random
import sys
from contextlib import redirect_stderr
from fractions import Fraction
from pathlib import Path

import pytest

from diracgeom.cli import emit_report, main, run_builtin_suite
from diracgeom.courant import Frame, check_dirac, check_lagrangian
from diracgeom.errors import Inconsistent
from diracgeom.symalg import Expr, ExprMatrix, Patch, generic_rank, nullspace, solve_linear

from test_courant import gsec, same_span

GOLDEN = Path(__file__).resolve().parent / "golden"
CHECK_FILES = sorted(p.stem for p in GOLDEN.glob("*.check"))
# exit code of each golden check file: 1 when some check fails, 2 on an error
EXIT_CODES = {
    "algebroid_witnesses": 1,
    "constructor_error": 2,
    "cotangent_chart": 1,
    "deep_nesting": 2,
    "dirac_witnesses": 1,
    "groupoid_witnesses": 1,
    "lifted_algebroids": 1,
    "not_utf8": 2,
    "rank_deficient": 2,
    "slow_linearity": 1,
    "slow_linearity_4d": 1,
    "wide_algebroid": 0,
}


def _run_cli(argv):
    """(exit code, stdout bytes, stderr text) of one in-process CLI run."""
    out = io.BytesIO()
    err = io.StringIO()

    class _Stdout:
        buffer = out

    saved = sys.stdout
    sys.stdout = _Stdout()
    try:
        with redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdout = saved
    return code, out.getvalue(), err.getvalue()


def lagrangian_witness_lines() -> list[str]:
    """Reports of hand-built frames, one line each: lagrangian | dirac | span."""
    p2 = Patch("M2", ("x", "y"))
    p3 = Patch("M3", ("x", "y", "z"))
    frames = {
        # pairing witnesses
        "not isotropic": Frame(p2, (gsec(p2, ("1", "0"), ("1", "0")), gsec(p2, ("0", "1"), ("0", "0")))),
        "late pairing": Frame(
            p3,
            (
                gsec(p3, ("1", "0", "0"), ("0", "0", "0")),
                gsec(p3, ("0", "1", "0"), ("0", "0", "0")),
                gsec(p3, ("0", "0", "1"), ("0", "x*y", "z")),
            ),
        ),
        # generic rank witnesses
        "too few sections": Frame(p2, (gsec(p2, ("1", "0"), ("0", "0")),)),
        "dependent sections": Frame(
            p2, (gsec(p2, ("1", "y"), ("0", "0")), gsec(p2, ("x", "x*y"), ("0", "0")))
        ),
        "dependent forms": Frame(
            p3,
            (
                gsec(p3, ("0", "0", "0"), ("1", "x", "0")),
                gsec(p3, ("0", "0", "0"), ("y", "x*y", "0")),
                gsec(p3, ("0", "0", "0"), ("0", "0", "z")),
            ),
        ),
        # full rank although a section vanishes at a rational point
        "vanishing at a point": Frame(
            p2, (gsec(p2, ("1", "0"), ("0", "0")), gsec(p2, ("0", "7*x - 2"), ("0", "0")))
        ),
        "non-integrable, vanishing at a point": Frame(
            p3,
            (
                gsec(p3, ("7*x - 2", "0", "0"), ("0", "0", "0")),
                gsec(p3, ("0", "1", "x"), ("0", "0", "0")),
                gsec(p3, ("0", "0", "0"), ("0", "-x", "1")),
            ),
        ),
    }
    lines = []
    for label, frame in frames.items():
        dirac = check_dirac(frame)
        verdict = "pass" if dirac.passed else f"fail [{dirac.witness}]"
        lines.append(f"{label}: {check_lagrangian(frame)} | dirac: {verdict}")
    spans = [
        ("graph of x dx^dy vs itself scaled", p2, [("1", "0"), ("0", "1")], [("0", "x"), ("-x", "0")], 2),
        ("vector fields vs forms", p2, [("1", "0"), ("0", "1")], [("0", "0"), ("0", "0")], None),
    ]
    for label, patch, vcols, fcols, scale in spans:
        secs = tuple(gsec(patch, v, f) for v, f in zip(vcols, fcols))
        if scale is None:
            other = tuple(gsec(patch, ("0", "0"), v) for v in vcols)
        else:
            other = tuple(s.scale(Expr.const(patch, scale) + Expr.coord(patch, "y")) for s in secs)
        lines.append(f"{label}: same span {same_span(Frame(patch, secs), Frame(patch, other))}")
    return lines


def _random_poly(rng, patch, constant):
    if constant:
        return Expr.const(patch, Fraction(rng.choice([0, 0, 1, -1, 2, -3]), rng.choice([1, 1, 2, 3])))
    out = Expr.zero(patch)
    for _ in range(rng.randint(0, 3)):
        exps = [0] * patch.dim
        for _ in range(rng.randint(0, 2)):
            exps[rng.randrange(patch.dim)] += 1
        out = out + Expr(patch, {tuple(exps): rng.randint(-3, 3)})
    return out


def elimination_lines(count: int = 200, seed: int = 12) -> list[str]:
    """Rank, kernel and two solutions of ``count`` random 1-4 x 1-4 matrices, one line each.

    About 30 % of the matrices are constant and some repeat a multiple of an
    earlier row.  The first right-hand side is a times a random vector, so it
    is consistent; the second is drawn at random.
    """
    patch = Patch("E", ("x", "y"))
    rng = random.Random(seed)

    def solution(a, b):
        try:
            return "; ".join(f"{v.num} | {v.den}" for v in solve_linear(a, b))
        except Inconsistent:
            return "inconsistent"

    lines = []
    for i in range(count):
        constant = rng.random() < 0.3
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[_random_poly(rng, patch, constant) for _ in range(ncols)] for _ in range(nrows)]
        if nrows > 1 and rng.random() < 0.3:
            k = rng.randrange(1, nrows)
            factor = _random_poly(rng, patch, constant)
            rows[k] = [factor * e for e in rows[rng.randrange(k)]]
        a = ExprMatrix.from_rows(patch, rows)
        xs = [_random_poly(rng, patch, constant) for _ in range(ncols)]
        consistent = [sum((e * x for e, x in zip(row, xs)), Expr.zero(patch)) for row in rows]
        drawn = [_random_poly(rng, patch, constant) for _ in range(nrows)]
        kernel = " / ".join(", ".join(str(e) for e in vec) for vec in nullspace(a))
        lines.append(
            f"{i + 1}: {a} | rank {generic_rank(a)} | kernel [{kernel}]"
            f" | solve [{solution(a, consistent)}] | solve [{solution(a, drawn)}]"
        )
    return lines


def _suite_outputs():
    report = run_builtin_suite()
    return {"txt": emit_report(report, "text"), "json": emit_report(report, "json")}


def test_suite_matches_golden_bytes():
    for ext, data in _suite_outputs().items():
        assert data == (GOLDEN / f"suite.{ext}").read_bytes(), f"suite.{ext}"


@pytest.mark.parametrize("name", CHECK_FILES)
def test_check_file_matches_golden_bytes(name):
    path = str(GOLDEN / f"{name}.check")
    for ext, fmt in (("txt", "text"), ("json", "json")):
        code, out, err = _run_cli(["verify", path, "--format", fmt])
        assert code == EXIT_CODES[name]
        if code == 2:
            assert out == b""
            assert err == (GOLDEN / f"{name}.err").read_text(encoding="utf-8")
        else:
            assert err == ""
            assert out == (GOLDEN / f"{name}.{ext}").read_bytes(), f"{name}.{ext}"


def test_lagrangian_witnesses_match_golden():
    text = "\n".join(lagrangian_witness_lines()) + "\n"
    assert text == (GOLDEN / "lagrangian_witnesses.txt").read_text(encoding="utf-8")


def test_elimination_matches_golden():
    text = "\n".join(elimination_lines()) + "\n"
    assert text == (GOLDEN / "elimination.txt").read_text(encoding="utf-8")


def test_golden_files_cover_every_witness_kind():
    recorded = "".join(p.read_text(encoding="utf-8") for p in GOLDEN.iterdir() if p.suffix != ".check")
    for needle in ("mu[", "pairing[", "generic rank"):
        assert needle in recorded


def record():
    for ext, data in _suite_outputs().items():
        (GOLDEN / f"suite.{ext}").write_bytes(data)
    for name in CHECK_FILES:
        path = str(GOLDEN / f"{name}.check")
        for ext, fmt in (("txt", "text"), ("json", "json")):
            code, out, err = _run_cli(["verify", path, "--format", fmt])
            if code == 2:
                (GOLDEN / f"{name}.err").write_text(err, encoding="utf-8")
            else:
                (GOLDEN / f"{name}.{ext}").write_bytes(out)
    text = "\n".join(lagrangian_witness_lines()) + "\n"
    (GOLDEN / "lagrangian_witnesses.txt").write_text(text, encoding="utf-8")
    text = "\n".join(elimination_lines()) + "\n"
    (GOLDEN / "elimination.txt").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    record()
