"""Exact discrete fold of the positive branch, independent of the
continuation code.

The interior rows of the discrete problem are linear with no source term,
so every discrete solution is (t1 phi_h, t2 phi_h) with phi_h = v / v(R),
v = solve_flux_bvp(grid, 1.0) and mu_h = 1 / v(R).  The problem is then
exactly the two-unknown trace system

    mu_h t1 = lam f1(t2),    mu_h t2 = lam f2(t1).

Dividing the two equations gives t1 f2(t1) = t2 f1(t2), which fixes t2 for
each t1 (t f1(t) is increasing for the models used here), and then
lam(t1) = mu_h t2 / f2(t1).  The fold is the maximum of lam along that
curve.  Reference values: 0.3332099444 at M = 512 and 0.3332102969 at
M = 4096 (N = 3, R = 1, reference model).

Run as a script to print both:  python3 bench/fold_oracle.py
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import brentq, minimize_scalar


def exact_fold(grid, model) -> float:
    from radbif import eval_f, solve_flux_bvp

    mu_h = 1.0 / float(solve_flux_bvp(grid, 1.0)[-1])

    def lam_of(t1: float) -> float:
        target = t1 * eval_f(model, 2, t1)

        def gap(t2):
            return t2 * eval_f(model, 1, t2) - target

        hi = max(1.0, t1)
        while gap(hi) < 0.0:
            hi *= 2.0
        t2 = brentq(gap, 0.0, hi, xtol=1e-300,
                    rtol=4.0 * np.finfo(float).eps, maxiter=500)
        return mu_h * t2 / eval_f(model, 2, t1)

    ts = np.logspace(-4.0, 4.0, 161)
    lams = [lam_of(t) for t in ts]
    k = int(np.argmax(lams))
    if not 0 < k < ts.size - 1:
        raise ValueError("lambda has no interior maximum on [1e-4, 1e4]")
    best = minimize_scalar(lambda t: -lam_of(t), bounds=(ts[k - 1], ts[k + 1]),
                           method="bounded", options={"xatol": 1e-12})
    return max(-float(best.fun), lams[k])


if __name__ == "__main__":
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from radbif import build_grid, reference_model

    for m in (512, 4096):
        print(f"M={m} fold={exact_fold(build_grid(3, 1.0, m), reference_model()):.10f}")
