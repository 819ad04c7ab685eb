"""Host-speed calibration for the benchmark's timings.

On a shared host the same code runs up to 1.8 times slower for tens of
seconds at a time, and CPU time slows with wall time, so neither a median
over a 30-second run nor CPU time gives a steady figure.  A fixed reference
computation slows with it.  It has the instruction mix of radbif's
operations: a pure-Python loop (interpreter overhead), arithmetic on short
double vectors, and extended-precision arithmetic on 4096-node vectors
with banded LAPACK solves.  Alone, the first two track the acceptance
suite and the multiplicity sweep best and the third the M=4096 branch.
At the sizes below, where the first two take about 60% of the time, the
sum tracks all three: over two sets of ten runs, normalized medians
spread 3-14% (IQR over median) where raw ones spread 11-38%.  Timed next
to the program, it converts a wall time into seconds at the reference
speed:

    normalized = wall * REF_S / calibration seconds

REF_S is about the calibration's time on a quiet 2-core host, so
normalized seconds read roughly as wall seconds there.  The reference
computation touches no radbif code, so a change to the program moves only
the numerator.

Run as a script to print a few calibration times:  python3 bench/calibrate.py
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
from scipy.linalg import solve_banded

REF_S = 0.32  # never change: every normalized figure is relative to it

_RNG = np.random.default_rng(20240611)
_X = np.linspace(0.0, 1.0, 512)
_BANDS = _RNG.random((3, 4096)).astype(np.longdouble)
_V = _RNG.random(4096).astype(np.longdouble)
_AB = _RNG.random((3, 8192))
_AB[1] += 4.0  # diagonally dominant, so the solve is well posed
_RHS = np.ones(8192)


def reference_work() -> float:
    """The fixed computation; returns a checksum so nothing is skipped."""
    s = 0
    for i in range(1_200_000):
        s += i * i % 7
    x = _X
    for _ in range(12_000):
        y = np.exp(-x) * x + np.sqrt(x + 1.0)
        x = y / y.max()
    acc = 0.0
    for _ in range(640):
        out = _BANDS[0] * _V + _BANDS[1] * _V + _BANDS[2] * _V
        acc += float(solve_banded((1, 1), _AB, _RHS, check_finite=False)[0])
        acc += float(out[0])
    return s + float(x[0]) + acc


def calibrate() -> float:
    """Seconds taken by one reference_work() call."""
    t0 = perf_counter()
    reference_work()
    return perf_counter() - t0


if __name__ == "__main__":
    for _ in range(5):
        print(f"{calibrate():.4f}")
