"""The row-by-row numpy search for layer equilibria that the compiled
``sl_rows`` and ``sl_jac`` replaced: the reference it is compared against.

It calls the Python ``fused`` once per row, for the field values and for
each column of the central-difference Jacobians, and keeps its box filter,
merge and classification as loops over the converged seeds.  The constants
are written out here rather than read from the package, so that the
reference stands apart from it.
"""

import numpy as np

from switchlayer.core import _check_finite
from switchlayer.layer import LayerEquilibrium

ROOT_TOL = 1e-12
EQUILIBRIA_GRID = 8
STEP = 1e-7


def layer_jacobians(F, Z, h=STEP):
    """Central-difference Jacobians of F at each row of Z, shape (m, n, n)."""
    m, n = Z.shape
    J = np.empty((m, n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        J[:, :, j] = (F(Z + e) - F(Z - e)) / (2 * h)
    return J


def check_rows_finite(values, Z):
    bad = ~np.isfinite(values.reshape(len(Z), -1)).all(axis=1)
    if bad.any():
        k = np.flatnonzero(bad)[0]
        _check_finite(values[k], Z[k, 1:], Z[k, 0])


def find_layer_equilibria(sys, search_box):
    """``layer.find_layer_equilibria`` as it was, for a valid search box."""
    box = [(float(lo), float(hi)) for lo, hi in search_box]
    fused = sys.fused

    def F(Z):
        X = Z.copy()
        X[:, 0] = 0.0
        lams = np.clip(Z[:, 0], -1, 1).tolist()
        return np.array([fused(x, 0.0, lam) for x, lam in zip(X, lams)])

    axes = [np.linspace(lo, hi, EQUILIBRIA_GRID) for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    Z = np.stack([m.ravel() for m in mesh], axis=1)
    seed = np.arange(len(Z))
    roots = {}
    for _ in range(60):
        if not seed.size:
            break
        Fz = F(Z)
        done = np.max(np.abs(Fz), axis=1) < ROOT_TOL
        roots.update(zip(seed[done].tolist(), Z[done]))
        Z, Fz, seed = Z[~done], Fz[~done], seed[~done]
        if not seed.size:
            break
        check_rows_finite(Fz, Z)
        J = layer_jacobians(F, Z)
        check_rows_finite(J, Z)
        ok = np.linalg.slogdet(J)[0] != 0
        step = np.full_like(Fz, np.nan)
        step[ok] = np.linalg.solve(J[ok], Fz[ok][:, :, None])[:, :, 0]
        keep = np.isfinite(step).all(axis=1) & (np.linalg.norm(step, axis=1) <= 1e6)
        Z, seed = (Z - step)[keep], seed[keep]

    found = []
    for z in (roots[k] for k in sorted(roots)):
        if not (-1.0 - 1e-9 <= z[0] <= 1.0 + 1e-9):
            continue
        if any(z[i] < lo - 1e-6 or z[i] > hi + 1e-6 for i, (lo, hi) in enumerate(box)):
            continue
        if all(np.linalg.norm(z - w) > 1e-6 for w in found):
            found.append(z)

    out = []
    for z, J in zip(found, layer_jacobians(F, np.array(found)) if found else ()):
        eigs = np.linalg.eigvals(J)
        re = eigs.real
        if np.any(np.abs(re) <= 1e-8):
            cls = "nonhyperbolic"
        elif np.any(np.abs(eigs.imag) > 1e-8):
            cls = "focus"
        elif re.min() < 0 < re.max():
            cls = "saddle"
        else:
            cls = "node"
        out.append(LayerEquilibrium(lam_e=float(np.clip(z[0], -1, 1)), x_rest=z[1:],
                                    eigenvalues=eigs, classification=cls))
    out.sort(key=lambda e: (e.lam_e, tuple(e.x_rest)))
    return out
