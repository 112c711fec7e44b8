#!/usr/bin/env python3
"""Benchmark of the diracgeom checker: one workload per run, closed loop, one process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the engine is imported from ``src/`` next to this
directory.  The run sets up the workload several times (fresh import plus
input generation) and keeps the last set-up, then runs whole passes over the
workload until ``--seconds`` have gone by: one check at a time, the next only
after the previous verdict.  Times are stated in reference seconds, scaled by
slices of the fixed kernel in ``reference.py`` timed between the checks.
Every verdict is compared with its known answer and every witness with the
previous passes and, at the default seed, with ``golden.json``.  The last
line of stdout is the result as JSON; the line before it carries the run's
sample counts and machine description.

With ``--trace 1`` the timed passes are followed by one traced pass, and the
result holds the per-layer figures of ``spans.py`` instead of the end-to-end
ones.  ``--record-golden`` writes the default-seed digests of one workload.

Exit status: 0 when every verdict, witness and exit code was right, 1 when
one was not, 2 when the engine sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
GOLDEN = BENCH / "golden.json"
DEFAULT_SEED = 1
SETUP_REPEATS = 7
SETUP_SLICES = 5  # reference slices timed before and after each set-up
REF_REACH = 2  # reference slices each side of a step's own two that scale its time

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("checks_per_s", "1/s"),
    ("check_p50_ms", "ms"),
    ("check_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
SUITE_SECTIONS = (
    "two_form_integrability",
    "bivector_integrability",
    "foliation_integrability",
    "tangent_lift_identities",
    "bfield_criterion",
    "groupoid_functoriality",
    "multiplicativity_cross_validation",
    "correspondence_examples",
    "ca_identity_examples",
    "linearity_examples",
)
PER_LAYER = (
    ("symalg.rank_calls", "count"),
    ("symalg.solve_calls", "count"),
    ("symalg.nullspace_calls", "count"),
    ("symalg.elim_self_s", "s"),
    ("symalg.elim_max_cells", "cells"),
    ("symalg.solve_const_share", "share"),
    ("symalg.rank_full_share", "share"),
    ("symalg.expr_init_calls", "count"),
    ("symalg.mul_calls", "count"),
    ("symalg.mul_max_terms", "terms"),
    ("symalg.substitute_calls", "count"),
    ("symalg.substitute_self_s", "s"),
    ("symalg.self_s", "s"),
    ("cartan.lie_bracket_calls", "count"),
    ("cartan.exterior_derivative_calls", "count"),
    ("cartan.pullback_form_calls", "count"),
    ("cartan.self_s", "s"),
    ("courant.check_dirac_calls", "count"),
    ("courant.bracket_calls", "count"),
    ("courant.pairing_calls", "count"),
    ("courant.pairings_per_check", "ratio"),
    ("courant.self_s", "s"),
    ("tanlift.lift_calls", "count"),
    ("tanlift.tangent_map_calls", "count"),
    ("tanlift.self_s", "s"),
    ("algebroid.check_calls", "count"),
    ("algebroid.self_s", "s"),
    ("groupoid.chart_params_calls", "count"),
    ("groupoid.lie_algebroid_of_calls", "count"),
    ("groupoid.cotangent_source_target_calls", "count"),
    ("groupoid.algebroid_frame_calls", "count"),
    ("groupoid.rebuilds_per_groupoid", "ratio"),
    ("groupoid.self_s", "s"),
    ("cli.parse_s", "s"),
    ("cli.eval_s", "s"),
    ("cli.emit_s", "s"),
) + tuple((f"suite.{name}_s", "s") for name in SUITE_SECTIONS) + (
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
)


# -- set-up ---------------------------------------------------------------------------


def fresh_setup(workload: str, seed: int):
    """Import the engine afresh and build the workload's inputs; returns the module and items."""
    for name in [m for m in sys.modules if m == "workloads" or m == "diracgeom" or m.startswith("diracgeom.")]:
        del sys.modules[name]
    wl = importlib.import_module("workloads")
    build, finish = wl.WORKLOADS[workload]
    return wl, build(random.Random(seed), WORK / "corpus"), finish


def setup(workload: str, seed: int):
    """Set up ``SETUP_REPEATS`` times; returns the last set-up and each one's time in reference seconds."""
    times = []
    for _ in range(SETUP_REPEATS):
        before = [reference.time_slice()[0] for _ in range(SETUP_SLICES)]
        t0 = time.perf_counter()
        wl, items, finish = fresh_setup(workload, seed)
        took = time.perf_counter() - t0
        after = [reference.time_slice()[0] for _ in range(SETUP_SLICES)]
        times.append(took * reference.NOMINAL_SLICE_S / statistics.median(before + after))
    return wl, items, finish, times


# -- one pass -------------------------------------------------------------------------


class Pass:
    """Timings, digests and failed check indices of one pass over the workload.

    A step is one item, in order, then the step that builds the pass's output
    bytes when the workload has one.  One reference slice is timed before
    every step and one after the last, outside the steps' own times.
    """

    def __init__(self):
        self.step_wall: list[float] = []
        self.step_cpu: list[float] = []
        self.ref_wall: list[float] = []
        self.ref_cpu: list[float] = []
        self.digests: list[str] = []
        self.failed: set[int] = set()
        self.output: bytes | None = None

    def time_reference(self):
        wall, cpu = reference.time_slice()
        self.ref_wall.append(wall)
        self.ref_cpu.append(cpu)

    def time_step(self, fn, *args):
        self.time_reference()
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            return fn(*args)
        finally:
            self.step_wall.append(time.perf_counter() - wall)
            self.step_cpu.append(time.process_time() - cpu)

    def scaled(self) -> tuple[list[float], list[float]]:
        """Each step's wall and CPU time in reference seconds.

        A step is scaled by the median of the reference slices timed nearest
        to it: the two that bracket it and up to ``REF_REACH`` more each side.
        """
        out = ([], [])
        for i, (wall, cpu) in enumerate(zip(self.step_wall, self.step_cpu)):
            near = slice(max(0, i - REF_REACH), i + 2 + REF_REACH)
            out[0].append(wall * reference.NOMINAL_SLICE_S / statistics.median(self.ref_wall[near]))
            out[1].append(cpu * reference.NOMINAL_SLICE_S / statistics.median(self.ref_cpu[near]))
        return out


def _run_item(item, idx, tracer):
    try:
        if tracer is None:
            return item.run(), None
        tracer.item = idx
        return (tracer.span(item.span, item.run) if item.span else item.run()), None
    except Exception:  # an engine traceback is a failed check, never a skipped one
        return [], traceback.format_exc()


def run_pass(items, finish, tracer=None) -> Pass:
    p = Pass()
    done = [p.time_step(_run_item, item, idx, tracer) for idx, item in enumerate(items)]
    if finish is not None:
        p.output = p.time_step(finish, [o for outcomes, _ in done for o in outcomes])
    p.time_reference()

    index = 0
    for item, (outcomes, error) in zip(items, done):
        n = len(item.expected)
        ok_shape = error is None and len(outcomes) == n
        ok_exit = item.exit_code is None or item.last_exit == item.exit_code
        for k in range(n):
            p.digests.append(hashlib.sha256(outcomes[k].key()).hexdigest() if ok_shape else "error")
            if not (ok_shape and ok_exit and outcomes[k].passed == item.expected[k]):
                p.failed.add(index + k)
        if error is not None:
            sys.stderr.write(f"{item.name}: {error}")
        elif not ok_shape or not ok_exit:
            sys.stderr.write(f"{item.name}: {len(outcomes)} verdicts for {n} checks, exit code {item.last_exit}\n")
        index += n
    return p


def compare_digests(p: Pass, expected: list[str], what: str) -> None:
    differ = [k for k, (got, want) in enumerate(zip(p.digests, expected)) if got != want]
    if len(p.digests) != len(expected):
        differ = list(range(len(p.digests)))
    if differ:
        p.failed.update(differ)
        sys.stderr.write(f"{what}: {len(differ)} of {len(p.digests)} verdict digests differ\n")


def cli_suite_bytes() -> bytes:
    """``python -m diracgeom verify --suite paper-examples --format json`` as users run it."""
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    cmd = [sys.executable, "-m", "diracgeom", "verify", "--suite", "paper-examples", "--format", "json"]
    done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=120, check=False)
    return done.stdout


# -- figures --------------------------------------------------------------------------


def percentile(samples: list[float], q: float) -> float:
    """Linearly interpolated percentile, q in (0, 1)."""
    ordered = sorted(samples)
    pos = q * (len(ordered) - 1)
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def src_lines() -> int:
    return sum(
        sum(1 for line in path.read_text(encoding="utf-8").splitlines() if line.strip())
        for path in sorted((SRC / "diracgeom").rglob("*.py"))
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("suite", "dirac-ladder", "groupoid-ladder", "checkfile-corpus"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true", help="write this workload's default-seed digests")
    args = parser.parse_args(argv)

    if not (SRC / "diracgeom" / "__init__.py").is_file():
        sys.stderr.write(f"error: no engine sources at {SRC}; run from a full checkout\n")
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]

    wl, items, finish, setup_times = setup(args.workload, args.seed)
    checks = sum(len(item.expected) for item in items)

    deadline = time.perf_counter() + args.seconds
    passes = [run_pass(items, finish)]
    while not args.record_golden and time.perf_counter() < deadline:
        passes.append(run_pass(items, finish))

    if args.record_golden:
        if passes[0].failed:
            sys.stderr.write("refusing to record digests: some verdicts are wrong\n")
            return 1
        golden = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
        golden[args.workload] = {"seed": args.seed, "digests": passes[0].digests}
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        return 0

    traced = None
    if args.trace:
        spans = importlib.import_module("spans")
        tracer = spans.Tracer([wl])
        tracer.install()
        try:
            traced = run_pass(items, finish, tracer)
        finally:
            tracer.uninstall()
        passes.append(traced)

    golden = json.loads(GOLDEN.read_text(encoding="utf-8")).get(args.workload) if GOLDEN.exists() else None
    golden_checked = golden is not None and args.seed == golden["seed"]
    for p in passes:
        compare_digests(p, passes[0].digests, "pass")
        if golden_checked:
            compare_digests(p, golden["digests"], "golden")
    suite_bytes_match = None
    if passes[0].output is not None:
        suite_bytes_match = cli_suite_bytes() == passes[0].output
        if not suite_bytes_match:
            sys.stderr.write("suite: in-process JSON differs from the command line's bytes\n")
        for p in passes:
            if p.output != passes[0].output or not suite_bytes_match:
                p.failed.update(range(checks))

    untraced = [p for p in passes if p is not traced]
    attempted = checks * len(passes)
    failed = sum(len(p.failed) for p in passes)
    # times in reference seconds, each item scaled by the reference slices timed
    # nearest to it, then the median over passes; see README.md for why
    timed = untraced[1:] if len(untraced) > 2 else untraced  # the first pass warms up
    scaled = [p.scaled() for p in timed]
    pass_wall = [sum(wall) for wall, _ in scaled]
    pass_cpu = [sum(cpu) for _, cpu in scaled]
    step_wall = [statistics.median(col) for col in zip(*(wall for wall, _ in scaled))]
    wall = statistics.median(pass_wall)
    if args.trace:
        figures = tracer.layer_metrics()
        for name in SUITE_SECTIONS:
            section = [i for i, item in enumerate(items) if item.name == name]
            figures[f"suite.{name}_s"] = step_wall[section[0]] if section else 0.0
        figures["trace.overhead_s"] = sum(traced.step_wall) - statistics.median(sum(p.step_wall) for p in untraced)
        metrics = {name: {"value": figures[name], "unit": unit} for name, unit in PER_LAYER}
        tracer.write(WORK / f"spans-{args.workload}.bin")
    else:
        latencies = [t / len(item.expected) for item, t in zip(items, step_wall) for _ in item.expected]
        figures = {
            "wall_s": wall,
            "cpu_s": statistics.median(pass_cpu),
            "checks_per_s": checks / wall,
            "check_p50_ms": 1000 * percentile(latencies, 0.5),
            "check_p90_ms": 1000 * percentile(latencies, 0.9),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": figures[name], "unit": unit} for name, unit in END_TO_END}

    digest = hashlib.sha256("".join(passes[0].digests).encode("ascii")).hexdigest()
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(untraced),
        "timed_passes": len(timed),
        "pass_wall_raw_s": [round(sum(p.step_wall), 4) for p in untraced],
        "reference_slice_s": [round(statistics.median(p.ref_wall), 5) for p in untraced],
        "checks_per_pass": checks,
        "latency_samples": checks,
        "setup_repeats": len(setup_times),
        "failed_share": failed / attempted,
        "digest": digest,
        "golden_checked": golden_checked,
        "suite_bytes_match_cli": suite_bytes_match,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": cpu_model(),
        "src.lines": src_lines(),
    }
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
