"""End-to-end acceptance runs, one criterion per test, all comparisons exact."""

import json
import subprocess
import sys

from diracgeom import courant, groupoid, suite


def _verdict(n: int, label: str, report) -> None:
    bad = [item.name for item in report.items if not item.passed]
    print(f"{'PASS' if not bad else 'FAIL'} criterion {n}: {label}")
    assert not bad, f"criterion {n} failing items: {bad}"


def test_criterion_1_two_form_graphs_integrate_iff_closed():
    _verdict(1, "two-form graphs integrate exactly when closed", suite.two_form_integrability())


def test_criterion_2_bivector_graphs_integrate_iff_jacobi():
    _verdict(
        2,
        "bivector graphs integrate exactly when the Jacobiator vanishes",
        suite.bivector_integrability(),
    )


def test_criterion_3_foliations_integrate_iff_involutive():
    _verdict(3, "foliation frames integrate exactly when involutive", suite.foliation_integrability())


def test_criterion_4_tangent_lift_identities():
    _verdict(4, "tangent lift identities and canonical maps", suite.tangent_lift_identities())


def test_criterion_5_gauge_transforms_preserve_verdicts():
    _verdict(5, "gauge transforms preserve verdicts exactly for closed forms", suite.bfield_criterion())


def test_criterion_6_tangent_groupoids_and_algebroids():
    _verdict(6, "tangent groupoids and derived algebroids", suite.groupoid_functoriality())


def test_criterion_7_multiplicativity_routes_agree():
    _verdict(7, "multiplicativity routes agree", suite.multiplicativity_cross_validation())


def test_criterion_8_multiplicative_to_infinitesimal():
    _verdict(8, "multiplicative structures induce infinitesimal data", suite.correspondence_examples())


def test_criterion_9_compatibility_identities():
    _verdict(9, "compatibility identities on related sections", suite.ca_identity_examples())


def test_criterion_10_linearity_detection():
    _verdict(10, "linearity detection on vector-bundle charts", suite.linearity_examples())


def test_criterion_11_cli_suite_is_reproducible():
    cmd = [sys.executable, "-m", "diracgeom", "verify", "--suite", "paper-examples", "--format", "json"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and first.stdout
    )
    print(f"{'PASS' if ok else 'FAIL'} criterion 11: command line suite exits clean and reproduces bytes")
    assert first.returncode == 0, first.stderr.decode()
    assert second.returncode == 0, second.stderr.decode()
    assert first.stdout == second.stdout
    data = json.loads(first.stdout.decode("utf-8"))
    assert data["summary"] == {"pass": len(suite.SUITE), "fail": 0}


def _count_calls(monkeypatch, module, name):
    """The argument tuples of every call of ``module.name``, from each diracgeom module that holds it."""
    calls = []
    fn = getattr(module, name)

    def spy(*args):
        calls.append(args)
        return fn(*args)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("diracgeom.") and getattr(mod, name, None) is fn:
            monkeypatch.setattr(mod, name, spy)
    return calls


def test_suite_sections_build_each_bracket_and_algebroid_once(monkeypatch):
    # per random lift instance: the base bracket once, and s1's lifted sections from its lifted parts
    brackets = _count_calls(monkeypatch, courant, "courant_bracket")
    assert suite.tangent_lift_identities().passed
    assert len(brackets) == 139
    # the pair groupoid's and the Heisenberg group's algebroids are read from the groupoids checked before
    builds = _count_calls(monkeypatch, groupoid, "_algebroid_on")
    assert suite.groupoid_functoriality().passed
    assert len(builds) == 3
