"""A fixed reference kernel that measures how fast the machine runs this kind of code right now.

On a shared virtual machine a fixed pure-Python loop switches between speeds
that differ by a third or more, for seconds to minutes at a time.  Those
phases move every time the benchmark takes, whatever the engine does.  The
benchmark therefore times this kernel between the engine's checks and states
its times on a machine on which one ``run_slice`` takes ``NOMINAL_SLICE_S``
seconds.

The kernel does what the engine's exact arithmetic does (sparse polynomials
as dictionaries from exponent tuples to ``Fraction`` coefficients, products,
sums and a small fraction-free elimination) but it is frozen here and shares
no code with the engine: a change to the engine never changes its cost.
"""

from __future__ import annotations

import time
from fractions import Fraction

# one slice's wall time, in seconds, on the machine the bounds were set on
# (2 vCPUs of an Intel Xeon, Python 3.11, in a fast phase)
NOMINAL_SLICE_S = 0.010

_NVARS = 4


def _poly(seed: int, terms: int) -> dict:
    """A fixed sparse polynomial made from ``seed`` by a linear congruential sequence."""
    out = {}
    x = seed
    for _ in range(terms):
        x = (1103515245 * x + 12345) % 2147483648
        mono = tuple((x >> (3 * k)) % 3 for k in range(_NVARS))
        out[mono] = out.get(mono, 0) + Fraction(x % 97 + 1, x % 7 + 1)
    return out


def _mul(a: dict, b: dict) -> dict:
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(i + j for i, j in zip(ka, kb))
            v = out.get(k, 0) + va * vb
            if v:
                out[k] = v
            else:
                out.pop(k, None)
    return out


def _add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, 0) + v
        if s:
            out[k] = s
        else:
            del out[k]
    return out


def _det(rows: list[list[Fraction]]) -> Fraction:
    """Fraction-free (Bareiss) determinant of a small integer-valued matrix."""
    m = [list(r) for r in rows]
    n = len(m)
    prev = Fraction(1)
    sign = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return Fraction(0)
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


_A = _poly(11, 14)
_B = _poly(23, 14)
_C = _poly(37, 8)
_M = [[Fraction((7 * i + 3 * j * j + 1) % 11 - 5, 1 + (i + j) % 3) for j in range(7)] for i in range(7)]


def run_slice() -> int:
    """One fixed piece of work; returns a checksum so that nothing is optimised away."""
    p = _add(_mul(_mul(_A, _B), _C), _mul(_B, _C))
    d = _det(_M)
    return len(p) + d.numerator % 1000


def time_slice() -> tuple[float, float]:
    """Wall and process CPU time of one slice."""
    wall, cpu = time.perf_counter(), time.process_time()
    run_slice()
    return time.perf_counter() - wall, time.process_time() - cpu
