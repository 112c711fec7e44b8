"""Seeded inputs, known answers and one timed pass for each benchmark workload.

Every workload is a list of items.  An item is one closed-loop request: the
benchmark calls it, waits for its verdicts, then calls the next one.  An item
returns one ``Outcome`` per verdict ("check"), and carries the verdicts its
inputs were built to have.  Those expected verdicts come from a route that
does not go through the check under test: closedness from
``exterior_derivative``, the Jacobi identity from ``schouten_jacobiator``,
involutivity from vanishing Lie brackets, multiplicativity from how the
structure was built.

Inputs are generated by this module from the seed alone, as plain exponent
dictionaries, and only then handed to the engine, so the same seed gives the
same inputs whatever the engine version.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Callable

import diracgeom.cli as cli
import diracgeom.suite as suite
from diracgeom.algebroid import check_im_two_form, check_lie_algebroid
from diracgeom.cartan import Bivector, KForm, VField, exterior_derivative, lie_bracket, pullback_form, schouten_jacobiator
from diracgeom.courant import GSec, bfield_transform, check_dirac, foliation_frame, graph_bivector, graph_two_form
from diracgeom.groupoid import (
    abelian_group,
    check_ca_identities,
    check_groupoid_axioms,
    check_multiplicative_bivector,
    check_multiplicative_frame,
    check_multiplicative_two_form,
    heisenberg3,
    induced_im_two_form,
    lie_algebroid_of,
    pair_groupoid,
    tangent_groupoid,
)
from diracgeom.symalg import Expr, Patch
from diracgeom.tanlift import tangent_lift_dirac


@dataclass(frozen=True)
class Outcome:
    """One verdict: its label, pass/fail, and the witness the engine gave."""

    label: str
    passed: bool
    witness: str | None

    def key(self) -> bytes:
        return f"{self.label}\0{'pass' if self.passed else 'fail'}\0{self.witness or ''}".encode("utf-8")


@dataclass
class Item:
    """One closed-loop request and the verdicts it was built to produce."""

    name: str
    run: Callable[[], list[Outcome]]
    expected: list[bool]
    exit_code: int | None = None
    span: str | None = None
    last_exit: int | None = None


# -- seeded polynomials ---------------------------------------------------------------


def rand_poly(rng: random.Random, nvars: int, terms: int, max_deg: int, over=None, min_deg: int = 0) -> dict:
    """``terms`` distinct monomials in the variables ``over``, with nonzero coefficients.

    Term k has degree max_deg - k, cycling back to max_deg below min_deg, so
    the size of the inputs, and with it their cost, does not depend on the seed.
    """
    over = list(range(nvars)) if over is None else list(over)
    out: dict[tuple[int, ...], Fraction] = {}
    while len(out) < terms:
        exps = [0] * nvars
        for _ in range(max_deg - len(out) % (max_deg - min_deg + 1)):
            exps[rng.choice(over)] += 1
        if tuple(exps) not in out:
            out[tuple(exps)] = Fraction(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]), rng.choice([1, 1, 1, 2, 3]))
    return out


def poly_text(patch_coords, poly: dict) -> str:
    """Render in the check-file expression grammar, highest degree first."""
    chunks = []
    for exps, c in sorted(poly.items(), key=lambda kv: (-sum(kv[0]), tuple(-e for e in kv[0]))):
        factors = [str(abs(c))] if abs(c) != 1 or not any(exps) else []
        factors += [name if k == 1 else f"{name}^{k}" for name, k in zip(patch_coords, exps) if k]
        body = "*".join(factors)
        if chunks:
            chunks.append(f"{'-' if c < 0 else '+'} {body}")
        else:
            chunks.append(f"-{body}" if c < 0 else body)
    return " ".join(chunks) if chunks else "0"


def d_poly(poly: dict, i: int) -> dict:
    out = {}
    for exps, c in poly.items():
        if exps[i]:
            e = list(exps)
            e[i] -= 1
            out[tuple(e)] = out.get(tuple(e), Fraction(0)) + c * exps[i]
    return {e: c for e, c in out.items() if c}


def exact_two_form(rng, patch: Patch, terms: int, max_deg: int) -> KForm:
    """d(alpha) for a seeded one-form alpha: closed by construction."""
    alpha = KForm.one_form(patch, tuple(Expr(patch, rand_poly(rng, patch.dim, terms, max_deg)) for _ in patch.coords))
    return exterior_derivative(alpha)


def random_two_form(rng, patch: Patch, terms: int, max_deg: int) -> KForm:
    return KForm(
        patch,
        2,
        {idx: Expr(patch, rand_poly(rng, patch.dim, terms, max_deg)) for idx in combinations(range(patch.dim), 2)},
    )


def is_closed(w: KForm) -> bool:
    return exterior_derivative(w).is_zero()


def is_poisson(p: Bivector) -> bool:
    return all(v.is_zero() for v in schouten_jacobiator(p).values())


def report_outcome(label: str, report) -> list[Outcome]:
    return [Outcome(label, report.passed, report.witness)]


def _mono(nvars: int, *idx: int) -> tuple[int, ...]:
    exps = [0] * nvars
    for i in idx:
        exps[i] += 1
    return tuple(exps)


def coords_patch(name: str, n: int) -> Patch:
    return Patch(name, tuple(f"x{i + 1}" for i in range(n)))


# -- suite -----------------------------------------------------------------------------


def suite_sections(rng, workdir) -> list[Item]:
    """The ten ``suite.SUITE`` builders, each one check; every section is built to pass."""
    return [
        Item(build.__name__, lambda name=name, build=build: report_outcome(name, build()), [True], span=f"suite.{build.__name__}")
        for name, build in suite.SUITE
    ]


def suite_json(outcomes: list[Outcome]) -> bytes:
    """What ``diracgeom verify --suite paper-examples --format json`` prints for these verdicts."""
    results = tuple(
        cli.CheckResult(o.label, "pass" if o.passed else "fail", None if o.passed else o.witness, 0.0) for o in outcomes
    )
    return cli.emit_report(cli.RunReport(results), "json")


# -- dirac-ladder ----------------------------------------------------------------------


def _dirac_item(label: str, build: Callable, expected: bool) -> Item:
    return Item(label, lambda: report_outcome(label, check_dirac(build())), [expected])


def log_canonical(rng, patch: Patch) -> Bivector:
    """{x_i, x_j} = c_ij x_i x_j satisfies Jacobi for every constant matrix c."""
    n = patch.dim
    entries = {}
    for i, j in combinations(range(n), 2):
        entries[(i, j)] = Expr(patch, {_mono(n, i, j): Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))})
    return Bivector(patch, entries)


def random_bivector(rng, patch: Patch) -> Bivector:
    n = patch.dim
    return Bivector(patch, {(i, j): Expr(patch, rand_poly(rng, n, 2, 2)) for i, j in combinations(range(n), 2)})


def triangular_fields(rng, patch: Patch, r: int, involutive: bool) -> tuple[VField, ...]:
    """X_i = d_i + sum_{j >= r} p_ij d_j for i < r.

    The fields are independent by their identity block.  With p_ij = d_i q_j
    they commute (tangent to the level sets of x_j - q_j), otherwise p_ij is
    seeded at random.  Either way the span is involutive exactly when every
    pairwise bracket vanishes, because a bracket of two such fields has no
    d_i component for i < r.
    """
    n = patch.dim
    q = [rand_poly(rng, n, 2, 2, over=range(r)) for _ in range(n - r)]
    fields = []
    for i in range(r):
        comps = [Expr.const(patch, 1 if k == i else 0) for k in range(r)]
        for j in range(n - r):
            comps.append(Expr(patch, d_poly(q[j], i) if involutive else rand_poly(rng, n, 2, 1)))
        fields.append(VField(patch, tuple(comps)))
    return tuple(fields)


def brackets_vanish(fields) -> bool:
    return all(lie_bracket(a, b).is_zero() for a, b in combinations(fields, 2))


def dirac_ladder(rng: random.Random, workdir=None) -> list[Item]:
    items = []
    for n in range(3, 9):
        m = coords_patch(f"R{n}", n)
        exact = exact_two_form(rng, m, 2, 2)
        rand = random_two_form(rng, m, 1, 2)
        items.append(_dirac_item(f"n={n} graph of an exact two-form", lambda w=exact: graph_two_form(w), is_closed(exact)))
        items.append(_dirac_item(f"n={n} graph of a seeded two-form", lambda w=rand: graph_two_form(w), is_closed(rand)))
        poisson = log_canonical(rng, m)
        rbiv = random_bivector(rng, m)
        items.append(_dirac_item(f"n={n} graph of a log-canonical bivector", lambda p=poisson: graph_bivector(p), is_poisson(poisson)))
        items.append(_dirac_item(f"n={n} graph of a seeded bivector", lambda p=rbiv: graph_bivector(p), is_poisson(rbiv)))
        base = exact_two_form(rng, m, 1, 2)
        b_closed = exact_two_form(rng, m, 1, 2)
        b_open = random_two_form(rng, m, 1, 1)
        ok_base = is_closed(base)
        for kind, b in (("closed", b_closed), ("seeded", b_open)):
            items.append(
                _dirac_item(
                    f"n={n} {kind} gauge transform of an exact graph",
                    lambda w=base, b=b: bfield_transform(graph_two_form(w), b),
                    ok_base and is_closed(b),
                )
            )
        if n <= 6:
            for involutive in (True, False):
                fields = triangular_fields(rng, m, n // 2, involutive)
                kind = "commuting" if involutive else "seeded"
                items.append(
                    _dirac_item(f"n={n} foliation by {kind} fields", lambda f=fields: foliation_frame(f), brackets_vanish(fields))
                )
    for n in range(2, 5):
        m = coords_patch(f"R{n}", n)
        for kind, w in (("exact", exact_two_form(rng, m, 2, 2)), ("seeded", random_two_form(rng, m, 2, 2))):
            items.append(
                _dirac_item(
                    f"n={n} tangent lift of the graph of a {kind} two-form",
                    lambda w=w: tangent_lift_dirac(graph_two_form(w)),
                    is_closed(w),
                )
            )
    return items


# -- groupoid-ladder -------------------------------------------------------------------


def _check_item(label: str, call: Callable, expected: bool) -> Item:
    return Item(label, lambda: report_outcome(label, call()), [expected])


def mixed_two_form(rng, g) -> KForm:
    """f dx_i(1)^dx_j(2) on a pair groupoid: pullbacks t*b - s*b never mix the factors."""
    n = g.base.dim
    i, j = rng.randrange(n), n + rng.randrange(n)
    return KForm(g.total, 2, {(i, j): Expr(g.total, rand_poly(rng, 2 * n, 1, 1))})


def linear_bivector(rng, patch: Patch) -> Bivector:
    """Entries linear in the coordinates: multiplicative on an additive group."""
    n = patch.dim
    return Bivector(patch, {(i, j): Expr(patch, rand_poly(rng, n, 2, 1, min_deg=1)) for i, j in combinations(range(n), 2)})


def constant_bivector(rng, patch: Patch) -> Bivector:
    """Nonzero at the unit, so never multiplicative."""
    return Bivector(patch, {(0, 1): Expr.const(patch, rng.choice([-2, -1, 1, 2]))})


def heisenberg_coboundary(rng, g) -> Bivector:
    """r (a d_a^d_c + b d_b^d_c) = r^R - r^L for r = r_0 e_a^e_b: multiplicative.

    On Heis3 with (a, b, c)(a', b', c') = (a + a', b + b', c + c' + a' b),
    right-invariant fields are (d_a, d_b + a d_c, d_c) and left-invariant
    ones (d_a + b d_c, d_b, d_c); only the e_a^e_b part of r survives the
    difference.
    """
    total = g.total
    r = rng.choice([-3, -2, -1, 1, 2, 3])
    return Bivector(total, {(0, 2): Expr(total, {(1, 0, 0): Fraction(r)}), (1, 2): Expr(total, {(0, 1, 0): Fraction(r)})})


def pair_section(rng, g) -> GSec:
    """(X on both factors, t*alpha - s*alpha): a multiplicative section of a pair groupoid."""
    m, total = g.base, g.total
    n = m.dim
    left = [Expr.coord(total, c) for c in total.coords[:n]]
    right = [Expr.coord(total, c) for c in total.coords[n:]]
    vals = [Expr(m, rand_poly(rng, n, 2, 2)) for _ in range(n)]
    vf = [v.substitute(left, total) for v in vals] + [v.substitute(right, total) for v in vals]
    alpha = KForm.one_form(m, tuple(Expr(m, rand_poly(rng, n, 2, 2)) for _ in range(n)))
    return GSec(VField(total, tuple(vf)), pullback_form(g.tgt, alpha) - pullback_form(g.src, alpha))


def linear_section(rng, g) -> GSec:
    """(linear vector field, constant one-form): a multiplicative section of an additive group."""
    total = g.total
    n = total.dim
    xs = [Expr.coord(total, c) for c in total.coords]
    comps = []
    for _ in range(n):
        acc = Expr.zero(total)
        for x in xs:
            acc = acc + x * Expr.const(total, rng.choice([-2, -1, 1, 2]))
        comps.append(acc)
    of = KForm.one_form(total, tuple(Expr.const(total, rng.choice([-2, -1, 1, 2])) for _ in range(n)))
    return GSec(VField(total, tuple(comps)), of)


def _algebroid_items(name: str, g) -> list[Item]:
    return [
        _check_item(f"{name}: axioms", lambda: check_groupoid_axioms(g), True),
        _check_item(f"{name}: derived algebroid", lambda: check_lie_algebroid(lie_algebroid_of(g)), True),
    ]


def groupoid_ladder(rng: random.Random, workdir=None) -> list[Item]:
    items: list[Item] = []
    for k in (1, 2, 3):
        m = coords_patch(f"R{k}", k)
        g = pair_groupoid(m)
        name = f"pair groupoid of R^{k}"
        items += _algebroid_items(name, g)
        betas = [("zero", KForm.zero(m, 2))] if k == 1 else [("seeded", random_two_form(rng, m, 2, 2))]
        if k == 3:
            betas.insert(0, ("exact", exact_two_form(rng, m, 2, 2)))
        for kind, beta in betas:
            w = pullback_form(g.tgt, beta) - pullback_form(g.src, beta) if k > 1 else KForm.zero(g.total, 2)
            label = f"{name}: t*b - s*b for a {kind} b"
            items.append(_check_item(f"{label}, two-form route", lambda w=w, g=g: check_multiplicative_two_form(g, w), True))
            if kind != "exact":  # one frame route per groupoid keeps a pass short enough to repeat
                items.append(
                    _check_item(f"{label}, frame route", lambda f=graph_two_form(w), g=g: check_multiplicative_frame(g, f), True)
                )
            items.append(
                _check_item(
                    f"{label}, induced covector map",
                    lambda w=w, g=g: check_im_two_form(lie_algebroid_of(g), induced_im_two_form(g, w)),
                    is_closed(beta),
                )
            )
            bad = w + mixed_two_form(rng, g)
            items.append(_check_item(f"{label} plus a mixed term, two-form route", lambda w=bad, g=g: check_multiplicative_two_form(g, w), False))
            if k >= 2:
                single = pullback_form(g.tgt, beta)
                items.append(_check_item(f"{label}: t*b alone, two-form route", lambda w=single, g=g: check_multiplicative_two_form(g, w), False))
        if k <= 2:
            samples = [(s, s, s) for s in (pair_section(rng, g) for _ in range(2))]
            items.append(_check_item(f"{name}: related sections", lambda s=samples, g=g: check_ca_identities(g, s), True))
    for n in (2, 3, 4):
        g = abelian_group(n)
        name = f"additive group on {n} coordinates"
        items += _algebroid_items(name, g)
        lin = linear_bivector(rng, g.total)
        shifted = lin + constant_bivector(rng, g.total)
        for kind, p, mult in (("linear", lin, True), ("shifted linear", shifted, False)):
            items.append(_check_item(f"{name}: {kind} bivector, bivector route", lambda p=p, g=g: check_multiplicative_bivector(g, p), mult))
            if n == 2:
                items.append(
                    _check_item(f"{name}: {kind} bivector, frame route", lambda f=graph_bivector(p), g=g: check_multiplicative_frame(g, f), mult)
                )
        samples = [(s, s, s) for s in (linear_section(rng, g) for _ in range(2))]
        items.append(_check_item(f"{name}: related sections", lambda s=samples, g=g: check_ca_identities(g, s), True))
    g = heisenberg3()
    name = "Heisenberg group"
    items += _algebroid_items(name, g)
    cob = heisenberg_coboundary(rng, g)
    shifted = cob + constant_bivector(rng, g.total)
    for kind, p, mult in (("coboundary", cob, True), ("shifted coboundary", shifted, False)):
        items.append(_check_item(f"{name}: {kind} bivector, bivector route", lambda p=p, g=g: check_multiplicative_bivector(g, p), mult))
        items.append(_check_item(f"{name}: {kind} bivector, frame route", lambda f=graph_bivector(p), g=g: check_multiplicative_frame(g, f), mult))
    items += _algebroid_items("tangent groupoid of the pair groupoid of R^2", tangent_groupoid(pair_groupoid(coords_patch("R2", 2))))
    items += _algebroid_items("tangent groupoid of the Heisenberg group", tangent_groupoid(heisenberg3()))
    ttg = tangent_groupoid(tangent_groupoid(heisenberg3()))
    items.append(_check_item("second tangent groupoid of the Heisenberg group: axioms", lambda: check_groupoid_axioms(ttg), True))
    return items


# -- checkfile-corpus ------------------------------------------------------------------


def form_text(coords, entries: dict) -> str:
    parts = [f"({poly_text(coords, p)})*d{coords[i]}^d{coords[j]}" for (i, j), p in sorted(entries.items()) if p]
    return " + ".join(parts) if parts else f"0*d{coords[0]}^d{coords[1]}"


def bivector_text(coords, entries: dict) -> str:
    return " + ".join(f"({poly_text(coords, p)})*(D{coords[i]}^D{coords[j]})" for (i, j), p in sorted(entries.items()) if p)


def form_of(coords, entries: dict) -> KForm:
    patch = Patch("oracle", tuple(coords))
    return KForm(patch, 2, {k: Expr(patch, p) for k, p in entries.items()})


def bivector_of(coords, entries: dict) -> Bivector:
    patch = Patch("oracle", tuple(coords))
    return Bivector(patch, {k: Expr(patch, p) for k, p in entries.items() if p})


XYZ = ("x", "y", "z")


def _closed_entries(rng) -> dict:
    """p(x, y) dx^dy + q(y, z) dy^dz + r(x, z) dx^dz: each term is closed on its own."""
    return {(0, 1): rand_poly(rng, 3, 2, 2, over=(0, 1)), (1, 2): rand_poly(rng, 3, 2, 2, over=(1, 2)), (0, 2): rand_poly(rng, 3, 2, 2, over=(0, 2))}


def cf_forms(rng):
    w = _closed_entries(rng)
    v = _closed_entries(rng)
    v[(0, 1)] = {**v[(0, 1)], _mono(3, 2, 2): Fraction(rng.choice([-2, -1, 1, 2]))}
    text = f"""# closedness and graphs of two-forms
let M = patch(x, y, z)
let w = {form_text(XYZ, w)}
let v = {form_text(XYZ, v)}
check closed w
check closed v
check dirac graph_two_form(w)
check lagrangian graph_two_form(v)
"""
    wf, vf = form_of(XYZ, w), form_of(XYZ, v)
    return text, [is_closed(wf), is_closed(vf), is_closed(wf), True]


def cf_bivectors(rng):
    poisson = {(i, j): {_mono(3, i, j): Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))} for i, j in combinations(range(3), 2)}
    seeded = {(i, j): rand_poly(rng, 3, 2, 2) for i, j in combinations(range(3), 2)}
    text = f"""# graphs of bivectors
let M = patch(x, y, z)
let P = {bivector_text(XYZ, poisson)}
let Q = {bivector_text(XYZ, seeded)}
check dirac graph_bivector(P)
check dirac graph_bivector(Q)
"""
    return text, [is_poisson(bivector_of(XYZ, poisson)), is_poisson(bivector_of(XYZ, seeded))]


def cf_gauge_foliation(rng):
    base = {(0, 1): rand_poly(rng, 3, 2, 2, over=(0, 1))}
    b = {(0, 2): rand_poly(rng, 3, 2, 2)}
    potential = rand_poly(rng, 3, 3, 3, over=(0, 1))
    p, q = d_poly(potential, 0), d_poly(potential, 1)
    rp, rq = rand_poly(rng, 3, 2, 1), rand_poly(rng, 3, 2, 1)
    text = f"""# gauge transforms and foliations
let M = patch(x, y, z)
let L = graph_two_form({form_text(XYZ, base)})
check dirac bfield_transform(L, {form_text(XYZ, b)})
check dirac foliation_frame(Dx + ({poly_text(XYZ, p)})*Dz, Dy + ({poly_text(XYZ, q)})*Dz)
check dirac foliation_frame(Dx + ({poly_text(XYZ, rp)})*Dz, Dy + ({poly_text(XYZ, rq)})*Dz)
"""
    m = Patch("oracle", XYZ)

    def fields(pp, qq):
        return (
            VField(m, (Expr.one(m), Expr.zero(m), Expr(m, pp))),
            VField(m, (Expr.zero(m), Expr.one(m), Expr(m, qq))),
        )

    closed = is_closed(form_of(XYZ, base)) and is_closed(form_of(XYZ, b))
    return text, [closed, brackets_vanish(fields(p, q)), brackets_vanish(fields(rp, rq))]


def cf_lifts(rng):
    w = {(0, 1): rand_poly(rng, 3, 2, 2), (1, 2): rand_poly(rng, 3, 1, 2)}
    text = f"""# tangent lifts
let M = patch(x, y, z)
let L = graph_two_form({form_text(XYZ, w)})
check tangent_mu L
check dirac tangent_lift_dirac(L)
"""
    return text, [True, is_closed(form_of(XYZ, w))]


def cf_linearity(rng):
    a, b, c = (rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(3))
    text = f"""# fiber-scaling linearity
let M = patch(x)
let A = tangent_bundle_algebroid(M)
check linearity graph_bivector(dual_linear_poisson(A)) 1
let N = patch(u, v)
check linearity graph_bivector(({a}*u + {b}*v)*(Du^Dv)) 0
check linearity graph_bivector(({a}*u + {c})*(Du^Dv)) 0
"""
    return text, [True, True, False]


def cf_algebroids(rng):
    lin = {(i, j): rand_poly(rng, 3, 2, 1, min_deg=1) for i, j in combinations(range(3), 2)}
    coords = ("x_1", "x_2", "x_3")
    text = f"""# Lie algebroids from groupoids, lifts and linear bivectors
let M = patch(x, y)
let G = pair_groupoid(M)
check lie_algebroid lie_algebroid_of(G)
check lie_algebroid tangent_lift_algebroid(tangent_bundle_algebroid(M))
let H = abelian_group(3)
check lie_algebroid induced_dual_bracket(H, {bivector_text(coords, lin)})
"""
    return text, [True, True, is_poisson(bivector_of(coords, lin))]


def cf_bialgebroid(rng):
    a, b, c = (rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(3))
    text = f"""# Lie bialgebras with an abelian primary side
let H = abelian_group(2)
check bialgebroid lie_algebroid_of(H) induced_dual_bracket(H, ({a}*x_1 + {b}*x_2)*(Dx_1^Dx_2))
let K = abelian_group(3)
check bialgebroid lie_algebroid_of(K) induced_dual_bracket(K, {c}*x_3*(Dx_1^Dx_2))
"""
    return text, [True, True]


def _pair_coords(coords, factor: int):
    return tuple(f"{c}_{factor}" for c in coords)


def _pullback_difference(coords, beta: dict) -> dict:
    """t*b - s*b on the pair groupoid chart: b on the first factor minus b on the second."""
    n = len(coords)
    out = {}
    for (i, j), p in beta.items():
        for factor, sign in ((0, 1), (1, -1)):
            lifted = {tuple([0] * (n * factor)) + e + tuple([0] * (n * (1 - factor))): sign * c for e, c in p.items()}
            out[(i + n * factor, j + n * factor)] = lifted
    return out


def cf_im_forms(rng):
    beta = {(0, 1): rand_poly(rng, 3, 2, 2), (1, 2): rand_poly(rng, 3, 1, 2)}
    b = {(0, 2): rand_poly(rng, 3, 2, 2, over=(0, 2)), (0, 1): rand_poly(rng, 3, 1, 2)}
    pair = _pair_coords(XYZ, 1) + _pair_coords(XYZ, 2)
    text = f"""# infinitesimal data of multiplicative two-forms
let M = patch(x, y, z)
let G = pair_groupoid(M)
let w = {form_text(pair, _pullback_difference(XYZ, beta))}
check im_two_form lie_algebroid_of(G) induced_im_two_form(G, w)
let A = tangent_bundle_algebroid(M)
check im_two_form A im_from_two_form(A, {form_text(XYZ, b)})
"""
    return text, [is_closed(form_of(XYZ, beta)), is_closed(form_of(XYZ, b))]


def cf_mult_forms(rng):
    xy = ("x", "y")
    beta = {(0, 1): rand_poly(rng, 2, 2, 2)}
    pair = _pair_coords(xy, 1) + _pair_coords(xy, 2)
    w = _pullback_difference(xy, beta)
    v = dict(w)
    v[(0, 3)] = rand_poly(rng, 4, 1, 1)
    text = f"""# multiplicative two-forms on a pair groupoid
let M = patch(x, y)
let G = pair_groupoid(M)
check groupoid_axioms G
let w = {form_text(pair, w)}
let v = {form_text(pair, v)}
check multiplicative_two_form G w
check multiplicative_two_form G v
"""
    return text, [True, True, False]


def cf_mult_bivectors(rng):
    a, b, c, r = (rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(4))
    text = f"""# multiplicative bivectors on groups
let H = abelian_group(2)
let P = ({a}*x_1 + {b}*x_2)*(Dx_1^Dx_2)
let Q = ({a}*x_1 + {c})*(Dx_1^Dx_2)
check multiplicative_bivector H P
check multiplicative_bivector H Q
let K = heisenberg3()
let R = {r}*a*(Da^Dc) + {r}*b*(Db^Dc)
let S = {r}*a*(Da^Dc) + {c}*(Da^Db)
check multiplicative_bivector K R
check multiplicative_bivector K S
"""
    return text, [True, False, True, False]


def cf_mult_frames(rng):
    a, b, c = (rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(3))
    text = f"""# multiplicative frames
let H = abelian_group(2)
check multiplicative_frame H graph_bivector(({a}*x_1 + {b}*x_2)*(Dx_1^Dx_2))
check multiplicative_frame H graph_bivector(({b}*x_2 + {c})*(Dx_1^Dx_2))
"""
    return text, [True, False]


def cf_tangent_groupoids(rng):
    """Fixed structures: no seeded input, so every file costs the same."""
    text = """# tangent groupoids and derived algebroids
check groupoid_axioms tangent_groupoid(abelian_group(1))
check groupoid_axioms tangent_groupoid(abelian_group(2))
check groupoid_axioms heisenberg3()
check lie_algebroid lie_algebroid_of(heisenberg3())
"""
    return text, [True, True, True, True]


CORPUS_TEMPLATES = (
    cf_forms,
    cf_bivectors,
    cf_gauge_foliation,
    cf_lifts,
    cf_linearity,
    cf_algebroids,
    cf_bialgebroid,
    cf_im_forms,
    cf_mult_forms,
    cf_mult_bivectors,
    cf_mult_frames,
    cf_tangent_groupoids,
)


def run_cli(argv: list[str]) -> tuple[int, bytes]:
    """``diracgeom`` in this process: exit code and the bytes written to stdout."""
    out = io.BytesIO()
    text = io.TextIOWrapper(out, encoding="utf-8")
    with contextlib.redirect_stdout(text), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        text.flush()
    return code, out.getvalue()


def _file_item(path: Path, expected: list[bool]) -> Item:
    def run() -> list[Outcome]:
        code, data = run_cli(["verify", str(path), "--format", "json"])
        item.last_exit = code
        checks = json.loads(data)["checks"] if code in (0, 1) else []
        return [Outcome(f"{path.name}: {c['name']}", c["verdict"] == "pass", c.get("witness")) for c in checks]

    item = Item(path.name, run, expected, exit_code=0 if all(expected) else 1)
    return item


def checkfile_corpus(rng: random.Random, workdir: Path, rounds: int = 2) -> list[Item]:
    """Write ``rounds`` seeded files per template, in a fixed template order."""
    workdir.mkdir(parents=True, exist_ok=True)
    items = []
    for r in range(rounds):
        for t, template in enumerate(CORPUS_TEMPLATES):
            text, expected = template(rng)
            path = workdir / f"{r:02d}-{t:02d}-{template.__name__[3:]}.check"
            path.write_text(text, encoding="utf-8")
            items.append(_file_item(path, expected))
    return items


# name -> (item builder, optional step that turns the pass's outcomes into output bytes)
WORKLOADS = {
    "suite": (suite_sections, suite_json),
    "dirac-ladder": (dirac_ladder, None),
    "groupoid-ladder": (groupoid_ladder, None),
    "checkfile-corpus": (checkfile_corpus, None),
}
