"""Front-end fuzz: generated check files never break the exit-code contract.

Check files are drawn from the README grammar and run through ``cli.main``
in-process.  Most files declare a patch or a built-in groupoid and check
well-typed values of every check kind, so they reach evaluation; some lines
are free-form expressions with unknown names, wrong argument types and
malformed tokens, and some files get a malformed token spliced in anywhere.
Whatever the input, the exit code is 0, 1 or 2, no traceback escapes, and
exit 2 prints one ``error:`` line.  Sizes are bounded so the whole test takes
a few seconds: patches of dimension at most 3, exponents at most 4.
"""

import contextlib
import io
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from diracgeom.algebroid import AlgebroidPatch, IMTwoForm
from diracgeom.cartan import Bivector, KForm
from diracgeom.cli import CHECKS, CONSTRUCTORS, main
from diracgeom.courant import Frame
from diracgeom.groupoid import GroupoidPatch

COORDS = ("x", "y", "z")
JUNK = ("?", "@", "1/0", "))", "(", "^", "x^", "x^-1", "1.5", "9bad", "let", "check", "=", ",", "Dq", "#", "∂", "--", "**")

# a world is the declaration lines and the coordinates literals live on
WORLDS = {
    "abelian": lambda n: ([f"let G = abelian_group({n})"], [f"x_{i + 1}" for i in range(n)]),
    "heisenberg": lambda n: (["let G = heisenberg3()"], ["a", "b", "c"]),
    "tangent": lambda n: (["let G = tangent_groupoid(abelian_group(1))"], ["x_1", "x_1_dot"]),
    "patch": lambda n: ([f"let M = patch({', '.join(COORDS[:n])})"], list(COORDS[:n])),
    "pair": lambda n: (
        [f"let M = patch({', '.join(COORDS[:n])})", "let G = pair_groupoid(M)"],
        [f"{c}_{k}" for k in (1, 2) for c in COORDS[:n]],
    ),
}


def typed(decls, coords):
    """Strategies for literals of each argument type, on the given coordinates."""
    declared = " ".join(decls)
    name = st.sampled_from(coords)
    scalar = st.recursive(
        st.one_of(name, st.sampled_from(("0", "1", "2", "1/2", "-3"))),
        lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from("+-*"), inner).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
            st.tuples(inner, st.integers(0, 4)).map(lambda t: f"{t[0]}^{t[1]}"),
        ),
        max_leaves=4,
    )

    def sums(term):
        return st.lists(term, min_size=1, max_size=2).map(" + ".join)

    two_form = sums(st.tuples(scalar, name, name).map(lambda t: f"{t[0]}*d{t[1]}^d{t[2]}"))
    one_form = sums(st.tuples(scalar, name).map(lambda t: f"{t[0]}*d{t[1]}"))
    bivector = sums(st.tuples(scalar, name, name).map(lambda t: f"{t[0]}*(D{t[1]}^D{t[2]})"))
    field = sums(st.tuples(scalar, name).map(lambda t: f"{t[0]}*D{t[1]}"))
    frame = st.recursive(
        st.one_of(
            two_form.map(lambda w: f"graph_two_form({w})"),
            bivector.map(lambda p: f"graph_bivector({p})"),
            st.lists(field, min_size=1, max_size=2).map(lambda fs: f"foliation_frame({', '.join(fs)})"),
        ),
        lambda inner: st.one_of(
            st.tuples(inner, two_form).map(lambda t: f"bfield_transform({t[0]}, {t[1]})"),
            inner.map(lambda f: f"tangent_lift_dirac({f})"),
        ),
        max_leaves=2,
    )
    groupoid = st.sampled_from(("G", "heisenberg3()") if "let G" in declared else ("heisenberg3()",))
    algebroid = st.one_of(
        groupoid.map(lambda g: f"lie_algebroid_of({g})"),
        groupoid.map(lambda g: f"tangent_lift_algebroid(lie_algebroid_of({g}))"),
        st.just("tangent_bundle_algebroid(M)" if "let M" in declared else "lie_algebroid_of(abelian_group(2))"),
    )
    im_form = st.one_of(
        st.tuples(groupoid, two_form).map(lambda t: f"induced_im_two_form({t[0]}, {t[1]})"),
        st.tuples(algebroid, two_form).map(lambda t: f"im_from_two_form({t[0]}, {t[1]})"),
    )
    return {
        Frame: frame,
        KForm: st.one_of(two_form, one_form).map(lambda w: f"({w})"),
        Bivector: bivector.map(lambda p: f"({p})"),
        AlgebroidPatch: algebroid,
        IMTwoForm: im_form,
        GroupoidPatch: groupoid,
        int: st.integers(0, 3).map(str),
    }


free_exprs = st.recursive(
    st.one_of(st.sampled_from(COORDS + ("dx", "Dy", "x_1", "a", "G", "M", "L0", "nosuch")), st.integers(0, 5).map(str)),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*/^"), inner).map(lambda t: f"{t[0]} {t[1]} {t[2]}"),
        inner.map(lambda e: f"-({e})"),
        st.tuples(st.sampled_from(sorted(CONSTRUCTORS) + ["patch", "nosuch"]), st.lists(inner, max_size=2)).map(
            lambda t: f"{t[0]}({', '.join(t[1])})"
        ),
    ),
    max_leaves=5,
)


@st.composite
def check_lines(draw, kinds, name):
    kind = draw(st.sampled_from(sorted(CHECKS) + ["nosuch"]))
    signature = CHECKS[kind][0] if kind in CHECKS else (int,)
    count = draw(st.sampled_from((len(signature),) * 6 + (0, len(signature) + 1)))
    args = []
    for i in range(count):
        # now and then an argument of another type
        t = signature[i] if i < len(signature) and draw(st.integers(0, 9)) else draw(st.sampled_from(sorted(kinds, key=str)))
        args.append(draw(kinds[t]))
    if args and draw(st.booleans()):
        # bind the first argument by name first
        return [f"let {name} = {args[0]}", " ".join(["check", kind, name] + args[1:])]
    return [" ".join(["check", kind] + args)]


@st.composite
def check_files(draw):
    world = draw(st.sampled_from(sorted(WORLDS)))
    lines, coords = WORLDS[world](draw(st.integers(1, 3)))
    kinds = typed(lines, coords)
    for i in range(draw(st.integers(1, 3))):
        if draw(st.integers(0, 4)):
            lines += draw(check_lines(kinds, f"L{i}"))
        else:
            lines.append(f"let f{i} = {draw(free_exprs)}")
    text = "\n".join(lines) + "\n"
    if not draw(st.integers(0, 4)):
        # a malformed token anywhere, even inside a name
        at = draw(st.sampled_from(range(len(text) + 1)))
        text = text[:at] + draw(st.sampled_from(JUNK)) + text[at:]
    return text


def run_main(text):
    """``diracgeom verify`` on the text, in-process: (exit code, stderr)."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.check")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", path])
    return code, err.getvalue()


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(check_files())
def test_generated_check_files_keep_the_exit_code_contract(text):
    code, err = run_main(text)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1
