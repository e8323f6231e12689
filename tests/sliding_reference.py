"""The Python search for sliding modes that the compiled ``sl_modes`` runs
step for step: the reference it is compared against.

It samples f1 at the Chebyshev-Lobatto points with ``np.cos``, takes the
coefficients by ``np.fft.rfft``, the roots by numpy's ``chebroots``
(LAPACK's eigenvalues of the colleague matrix), merges each cluster, and
polishes on the uniform grid with scipy's ``brentq``, of which the loop's
Brent solver is a port.  The constants are written out here rather than
read from the package, so that the reference stands apart from it.
"""

import math

import numpy as np
from scipy.optimize import brentq

from switchlayer.core import _check_finite
from switchlayer.layer import DegenerateInclusionError, SlidingSolution, _full_state

SLIDING_GRID = 512
GRID = np.linspace(-1.0, 1.0, SLIDING_GRID + 1).tolist()
CHEB_TOL = 1e-13
CLUSTER_MAX = 1e-2
POLISH_TOL = 5e-5
REAL_TOL = 1e-6
DERIV_TOL = 1e-8


def chebyshev_f1(feval, x, t):
    """f1's Chebyshev coefficients on [-1, 1], or None if not resolved."""
    n, v = 16, None
    lams = np.cos(np.arange(n + 1) * (np.pi / n))
    while True:
        fields = np.array([feval(x, t, lm) for lm in lams.tolist()])
        _check_finite(fields, x, "[-1, 1]")
        v = fields[:, 0] if v is None else np.insert(v, np.arange(1, v.size), fields[:, 0])
        scale = np.abs(v).max()
        if scale < 1e-14:
            raise DegenerateInclusionError("f1 vanishes on a lam-subinterval")
        c = np.fft.rfft(np.concatenate((v, v[-2:0:-1]))).real / n  # even extension
        c[[0, n]] /= 2
        tol = CHEB_TOL * scale
        if np.abs(c[n // 2 + 1:]).max() <= tol:
            return c[:np.flatnonzero(np.abs(c) > tol)[-1] + 1]
        if n == SLIDING_GRID:
            return None
        n *= 2
        lams = np.cos(np.arange(1, n, 2) * (np.pi / n))


def merged_roots(coeffs):
    """Real roots in [-1, 1] of a Chebyshev series p, each cluster merged."""
    cheb = np.polynomial.chebyshev
    z = [r for r in np.sort_complex(cheb.chebroots(coeffs)).tolist()
         if abs(r.imag) <= CLUSTER_MAX]
    eta = CHEB_TOL * np.abs(coeffs).sum()
    out, runs = [], [z] if z else []
    while runs:
        run = runs.pop()
        k, mean = len(run), sum(run) / len(run)
        gaps = [abs(b - a) for a, b in zip(run, run[1:])]
        if k > 1 and (max(gaps) > CLUSTER_MAX or max(abs(r - mean) for r in run) ** k
                      * abs(cheb.chebval(mean, cheb.chebder(coeffs, k)))
                      > eta * math.factorial(k)):
            i = gaps.index(max(gaps)) + 1
            runs += [run[:i], run[i:]]
        elif abs(mean.imag) <= REAL_TOL and abs(mean.real) <= 1.0 + REAL_TOL:
            out.append(mean.real)
    return out


def cell_roots(f1, lo, hi, vals=None):
    """The grid scan's root in cells lo..hi: an end where f1 is 0, else Brent's."""
    vals = {i: f1(GRID[i]) for i in range(lo, hi + 2)} if vals is None else vals
    out = []
    for i in range(lo, hi + 1):
        a, b, fa, fb = GRID[i], GRID[i + 1], vals[i], vals[i + 1]
        if fa == 0.0 or fb == 0.0:
            out.append(a if fa == 0.0 else b)
        elif fa * fb < 0:
            out.append(brentq(f1, a, b, xtol=1e-12, rtol=4 * np.finfo(float).eps))
    return out


def find_sliding_modes(sys, x_rest, t=0.0):
    """The sliding modes of ``sys`` at (0, x_rest), as ``layer.find_sliding_modes``
    gives them, and whether each root was polished on the grid."""
    x, feval = _full_state(x_rest, sys.dim), sys.fused

    def f1(lam):
        return float(feval(x, t, lam)[0])

    coeffs = chebyshev_f1(feval, x, t)
    polished = set()
    if coeffs is None:
        fields = np.array([feval(x, t, lm) for lm in GRID])
        _check_finite(fields, x, "[-1, 1]")
        tiny = np.abs(fields[:, 0]) < 1e-14
        if (tiny[:-2] & tiny[1:-1] & tiny[2:]).any():
            raise DegenerateInclusionError("f1 vanishes on a lam-subinterval")
        found = cell_roots(f1, 0, SLIDING_GRID - 1, fields[:, 0])
        polished.update(found)
    else:
        found = []
        for r in merged_roots(coeffs):
            lo, hi = (min(max(int((r + d + 1) * SLIDING_GRID / 2), 0), SLIDING_GRID - 1)
                      for d in (-POLISH_TOL, POLISH_TOL))
            near = [p for p in cell_roots(f1, lo, hi) if abs(p - r) <= POLISH_TOL]
            if near:
                found.append(min(near, key=lambda p: abs(p - r)))
                polished.add(found[-1])
            elif -1.0 <= r <= 1.0:
                found.append(r)

    out = []
    for r in sorted(found):
        if out and r - out[-1].lam_s <= 1e-9:
            continue
        lo, hi = max(-1.0, r - 1e-6), min(1.0, r + 1e-6)
        d = (f1(hi) - f1(lo)) / (hi - lo)
        stab = ("marginal" if abs(d) <= DERIV_TOL
                else "attracting" if d < 0 else "repelling")
        out.append(SlidingSolution(r, stab, feval(x, t, r)[1:]))
    return out, [r.lam_s in polished for r in out]
