"""Switching-layer analysis and hybrid trajectory construction.

The switching surface is blown up into a layer lam in [-1, +1] carrying
the fast dynamics d(lam)/dtau = f1(x; lam) on an instantaneous timescale,
while the tangential components evolve on the slow timescale.  Sliding
modes are the layer equilibria of the fast subsystem; hybrid trajectories
alternate free flight, crossing, sliding and layer transit.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from .core import (
    SURFACE_TOL,
    DimensionMismatchError,
    SwitchedField,
    eval_field,
    regime_of,
    _check_finite,
)
from .integrate import (
    IntegratorConfig,
    IntegrationError,
    TrajectorySegment,
    advance_to_surface,
    _check_start,
    _solve,
)

ROOT_TOL = 1e-12
DERIV_TOL = 1e-8
SLIDING_GRID = 512  # uniform lam cells that bracket the polished roots
_GRID = np.linspace(-1.0, 1.0, SLIDING_GRID + 1).tolist()
CHEB_TOL = 1e-13  # resolved once upper-half coefficients < CHEB_TOL * max|f1|
CLUSTER_MAX = 1e-2  # widest gap inside a cluster of colleague-matrix roots
POLISH_TOL = 5e-5  # how far a grid-cell root may lie from the root it polishes
REAL_TOL = 1e-6  # slack on a root's imaginary part and on [-1, 1]
_SET_VALUED = "f1 vanishes on a lam-subinterval; sliding is set-valued"
EQUILIBRIA_GRID = 8  # Newton seeds per search-box axis
SECANT_STEPS = 8  # secant steps per sliding solve before the bracketed fallback
SECANT_REACH = 0.05  # how far a secant iterate may go, so it keeps to its branch
SLOPE_STEP = 1e-7  # difference step of d f1/d lam at an accepted sliding sample
LAM_REACH = 1.5  # how far past +-1 a sliding root is followed
FOLD_GAP = 1e-4  # lam offset that tells the flow past a fold from the fold itself


class DegenerateInclusionError(ValueError):
    """f1 vanishes identically on a lam-subinterval; the set-valued case."""


@dataclass(frozen=True)
class SlidingSolution:
    """A root lam_s of f1(x; lam) = 0 with its induced sliding motion."""

    lam_s: float
    stability: str  # attracting | repelling | marginal
    sliding_field: np.ndarray  # (dx2/dt, ..., dxn/dt)

    def __post_init__(self):
        object.__setattr__(self, "sliding_field",
                           np.asarray(self.sliding_field, dtype=float))


@dataclass(frozen=True)
class LayerEquilibrium:
    """Rest point of the coupled (lam, x_rest) layer system."""

    lam_e: float
    x_rest: np.ndarray
    eigenvalues: np.ndarray
    classification: str  # saddle | node | focus | nonhyperbolic

    def __post_init__(self):
        object.__setattr__(self, "x_rest", np.asarray(self.x_rest, dtype=float))
        object.__setattr__(self, "eigenvalues", np.asarray(self.eigenvalues))


@dataclass
class HybridTrajectory:
    """Time-ordered segments with the transition events between them."""

    segments: list[TrajectorySegment] = field(default_factory=list)
    transitions: list[tuple[float, str]] = field(default_factory=list)

    @property
    def t_final(self) -> float:
        return self.segments[-1].t_final

    @property
    def x_final(self) -> np.ndarray:
        return self.segments[-1].x_final


def _check_rest(x_rest, dim: int) -> np.ndarray:
    x_rest = np.asarray(x_rest, dtype=float)
    if x_rest.shape != (dim - 1,):
        raise DimensionMismatchError(
            f"expected x_rest of shape ({dim - 1},), got shape {x_rest.shape}")
    return x_rest


def _full_state(x_rest, dim: int) -> np.ndarray:
    """The surface state (0, x_rest)."""
    x = np.zeros(dim)
    x[1:] = _check_rest(x_rest, dim)
    return x


def _chebyshev_f1(feval, x, t: float):
    """f1's Chebyshev coefficients on [-1, 1], or None if not resolved."""
    n, v = 16, None
    lams = np.cos(np.arange(n + 1) * (np.pi / n))
    while True:
        fields = np.array([feval(x, t, lm) for lm in lams.tolist()])
        _check_finite(fields, x, "[-1, 1]")
        v = fields[:, 0] if v is None else np.insert(v, np.arange(1, v.size), fields[:, 0])
        scale = np.abs(v).max()
        if scale < 1e-14:
            raise DegenerateInclusionError(_SET_VALUED)
        c = np.fft.rfft(np.concatenate((v, v[-2:0:-1]))).real / n  # even extension
        c[[0, n]] /= 2
        tol = CHEB_TOL * scale
        if np.abs(c[n // 2 + 1:]).max() <= tol:
            return c[:np.flatnonzero(np.abs(c) > tol)[-1] + 1]
        if n == SLIDING_GRID:
            return None
        n *= 2
        lams = np.cos(np.arange(1, n, 2) * (np.pi / n))


def _merged_roots(coeffs) -> list[float]:
    """Real roots in [-1, 1] of a Chebyshev series p, each cluster merged.

    A k-fold root splits by about (eta / |p^(k)(r) / k!|)**(1/k), eta =
    CHEB_TOL * sum|coeffs|: k roots that close to their mean are one root.
    """
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


def _cell_roots(f1, lo: int, hi: int, vals=None) -> list[float]:
    """The grid scan's root in cells lo..hi: an end where f1 is 0, else brentq's."""
    vals = {i: f1(_GRID[i]) for i in range(lo, hi + 2)} if vals is None else vals
    out = []
    for i in range(lo, hi + 1):
        a, b, fa, fb = _GRID[i], _GRID[i + 1], vals[i], vals[i + 1]
        if fa == 0.0 or fb == 0.0:
            out.append(a if fa == 0.0 else b)
        elif fa * fb < 0:
            out.append(brentq(f1, a, b, xtol=ROOT_TOL, rtol=4 * np.finfo(float).eps))
    return out


def find_sliding_modes(sys: SwitchedField, x_rest, t: float = 0.0
                       ) -> list[SlidingSolution]:
    """All roots of f1(x; lam) = 0 on lam in [-1, 1], tagged with stability.

    f1 is sampled at the Chebyshev-Lobatto points cos(pi k / n), n = 16,
    32, ... (old samples reused), until the upper half of its Chebyshev
    coefficients is below CHEB_TOL * max|f1|.  The roots are the real
    eigenvalues in [-1, 1] of the colleague matrix; the cluster a multiple
    root splits into is merged.  Each is replaced by the nearest root
    within POLISH_TOL of a cell of the uniform SLIDING_GRID grid: an end
    where f1 is zero, or brentq's root where f1 changes sign.  A root no
    cell brackets (even multiplicity, two in a cell) is kept as it is.  A
    central difference gives stability, so a multiple root is 'marginal'.
    An f1 unresolved at SLIDING_GRID cells (a kink in lam) gets the roots
    of every grid cell instead.  No roots means the flow crosses; f1 = 0
    (on that scan: on a subinterval) raises DegenerateInclusionError.
    """
    # every lam below lies in [-1, 1]: the Chebyshev points, the grid,
    # brentq's iterates inside grid cells and the clamped stability points
    x, feval = _full_state(x_rest, sys.dim), sys.fused

    def f1(lam):
        return float(feval(x, t, lam)[0])

    coeffs = _chebyshev_f1(feval, x, t)
    if coeffs is None:
        fields = np.array([feval(x, t, lm) for lm in _GRID])
        _check_finite(fields, x, "[-1, 1]")
        tiny = np.abs(fields[:, 0]) < 1e-14
        if (tiny[:-2] & tiny[1:-1] & tiny[2:]).any():
            raise DegenerateInclusionError(_SET_VALUED)
        found = _cell_roots(f1, 0, SLIDING_GRID - 1, fields[:, 0])
    else:
        found = []
        for r in _merged_roots(coeffs):
            lo, hi = (min(max(int((r + d + 1) * SLIDING_GRID / 2), 0), SLIDING_GRID - 1)
                      for d in (-POLISH_TOL, POLISH_TOL))
            near = [p for p in _cell_roots(f1, lo, hi) if abs(p - r) <= POLISH_TOL]
            if near or -1.0 <= r <= 1.0:
                found.append(min(near, key=lambda p: abs(p - r)) if near else r)

    out: list[SlidingSolution] = []
    for r in sorted(found):
        if out and r - out[-1].lam_s <= 1e-9:
            continue
        lo, hi = max(-1.0, r - 1e-6), min(1.0, r + 1e-6)
        d = (f1(hi) - f1(lo)) / (hi - lo)
        stab = ("marginal" if abs(d) <= DERIV_TOL
                else "attracting" if d < 0 else "repelling")
        out.append(SlidingSolution(r, stab, feval(x, t, r)[1:]))
    return out


def classify_surface_point(sys: SwitchedField, x_rest, t: float,
                           entry_side: str):
    """Resolve the surface reached from one side: cross, stick, or layer.

    Returns ('cross', None), ('stick', SlidingSolution), or
    ('layer_dynamic', None).  The stuck root is the first one met by the
    fast lam-flow started at the entry boundary; for a one-dimensional
    autonomous flow this is the first root in the direction of travel.
    """
    if entry_side not in ("plus", "minus"):
        raise ValueError("entry_side must be 'plus' or 'minus'")
    x_rest = _check_rest(x_rest, sys.dim)
    if sys.time_dependent:
        return "layer_dynamic", None
    roots = find_sliding_modes(sys, x_rest, t)

    lam0 = -1.0 if entry_side == "minus" else 1.0
    inward = -lam0  # direction the lam-flow must travel to enter the layer
    # f1 at lam0 = +-1 is finite: find_sliding_modes sampled it there
    f10 = sys.fused(_full_state(x_rest, sys.dim), t, lam0)[0]

    if f10 * inward > 0:
        roots = [r for r in roots if (r.lam_s - lam0) * inward > 1e-12]
    # else the boundary flow points back off the surface: the surface repels
    # this side and is reached only along the layer's invariant sets;
    # report the nearest root (possibly repelling) so the caller can decide
    if roots:
        return "stick", min(roots, key=lambda r: abs(r.lam_s - lam0))
    return "cross", None


def _layer_jacobians(F, Z: np.ndarray, h: float = 1e-7) -> np.ndarray:
    """Central-difference Jacobians of F at each row of Z, shape (m, n, n)."""
    m, n = Z.shape
    J = np.empty((m, n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        J[:, :, j] = (F(Z + e) - F(Z - e)) / (2 * h)
    return J


def _check_rows_finite(values: np.ndarray, Z: np.ndarray) -> None:
    """NonFiniteFieldError at the first row of Z whose values are not all finite."""
    bad = ~np.isfinite(values.reshape(len(Z), -1)).all(axis=1)
    if bad.any():
        k = np.flatnonzero(bad)[0]
        _check_finite(values[k], Z[k, 1:], Z[k, 0])


def find_layer_equilibria(sys: SwitchedField, search_box) -> list[LayerEquilibrium]:
    """Rest points of the autonomous coupled layer system inside a search box.

    search_box is a sequence of (lo, hi) pairs for (lam, x2, ..., xn); the
    field is evaluated at t = 0.  Newton iteration is seeded from a coarse
    grid and runs on all seeds at once: each sweep evaluates the field on
    the stacked seeds still active and solves their steps in one stacked
    solve.  A seed whose Jacobian is singular, or whose step is not finite
    or longer than 1e6, is dropped; the rest go on.  After the sweeps,
    the converged seeds are filtered to the box and merged within 1e-6 in
    seed order, and each survivor is classified by the eigenvalues of the
    layer Jacobian.
    """
    if sys.time_dependent:
        raise ValueError("layer equilibria require an autonomous layer")
    box = [(float(lo), float(hi)) for lo, hi in search_box]
    if len(box) != sys.dim:
        raise ValueError(f"search_box must give {sys.dim} (lam, x_rest) intervals")

    fused = sys.fused

    def F(Z):
        # row by row: the state on the surface is (0, x_rest), at the row's
        # lam clipped to the layer
        X = Z.copy()
        X[:, 0] = 0.0
        lams = np.clip(Z[:, 0], -1, 1).tolist()
        return np.array([fused(x, 0.0, lam) for x, lam in zip(X, lams)])

    axes = [np.linspace(lo, hi, EQUILIBRIA_GRID) for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    Z = np.stack([m.ravel() for m in mesh], axis=1)
    seed = np.arange(len(Z))  # the seed each row of Z started from
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
        # F first: a non-finite F would poison the differences in J
        _check_rows_finite(Fz, Z)
        J = _layer_jacobians(F, Z)
        _check_rows_finite(J, Z)
        # slogdet's sign is 0 exactly where solve would raise: both factor with getrf
        ok = np.linalg.slogdet(J)[0] != 0
        step = np.full_like(Fz, np.nan)
        step[ok] = np.linalg.solve(J[ok], Fz[ok][:, :, None])[:, :, 0]
        keep = np.isfinite(step).all(axis=1) & (np.linalg.norm(step, axis=1) <= 1e6)
        Z, seed = (Z - step)[keep], seed[keep]

    found: list[np.ndarray] = []
    for z in (roots[k] for k in sorted(roots)):
        if not (-1.0 - 1e-9 <= z[0] <= 1.0 + 1e-9):
            continue
        if any(z[i] < lo - 1e-6 or z[i] > hi + 1e-6
               for i, (lo, hi) in enumerate(box)):
            continue
        if all(np.linalg.norm(z - w) > 1e-6 for w in found):
            found.append(z)

    out = []
    for z, J in zip(found, _layer_jacobians(F, np.array(found)) if found else ()):
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
        out.append(LayerEquilibrium(
            lam_e=float(np.clip(z[0], -1, 1)), x_rest=z[1:],
            eigenvalues=eigs, classification=cls,
        ))
    out.sort(key=lambda e: (e.lam_e, tuple(e.x_rest)))
    return out


def _branch_fallback(f1, lam, f, branch):
    """(lam, found) where the secant lost the branch: the first root from lam
    (f = f1(lam)) the way the branch runs, in steps doubling from 1e-3, or,
    if |f1| turns up first or at the reach, where f1 is nearest zero."""
    sgn = math.copysign(1.0, f)
    direction, lo, mid, g_mid, step = -sgn * branch, lam, lam, abs(f), 1e-3
    while True:
        a = min(max(mid + direction * step, -LAM_REACH), LAM_REACH)
        g = sgn * f1(a)
        if g <= 0.0:
            return brentq(f1, *sorted((mid, a)), xtol=ROOT_TOL), True
        if g > g_mid:  # the least |f1| lies in (lo, a): a root if it dips through 0
            m = minimize_scalar(lambda v: sgn * f1(v), bounds=sorted((lo, a)),
                                method="bounded", options={"xatol": 1e-10}).x
            if sgn * f1(m) > 0.0:
                return m, False
            return brentq(f1, *sorted((lo, m)), xtol=ROOT_TOL), True
        if abs(a) == LAM_REACH:
            return a, False
        lo, mid, g_mid, step = mid, a, g, 2.0 * step


def _integrate_sliding(sys, x_surface, t_span, cfg, root: SlidingSolution):
    """Slide on the root lam_s(t, x_rest) of f1 = 0 to t_end, |lam_s| = 1 or a fold.

    Each field call solves for lam_s by secant from the anchor (lam and d f1/d lam
    at the last accepted sample, carried forward at their rates), so within a step
    lam_s is a function of (t, x_rest); ``_branch_fallback`` covers points past a
    fold or the reach.  Returns (segment, side, root): side is None at t_end, else the
    boundary the fast flow leaves by; root is where a fold's flow sticks again.
    """
    fused, dim, tol = sys.fused, sys.dim, 10 * ROOT_TOL
    reach, secant_reach, secant_steps = LAM_REACH, SECANT_REACH, SECANT_STEPS
    t0, y0 = float(t_span[0]), np.array(x_surface[1:], dtype=float)
    x0, lam0 = _full_state(y0, dim), root.lam_s
    h = -SLOPE_STEP if lam0 > 0 else SLOPE_STEP
    slope = (fused(x0, t0, lam0 + h)[0] - fused(x0, t0, lam0)[0]) / h
    branch = -1.0 if slope < 0 else 1.0  # sign of d f1/d lam along the branch
    anchor = (t0, lam0, 0.0, slope, 0.0, y0.tolist())  # t, lam, d lam/dt, s = d f1/d lam, ds/dt, x_rest
    last, lams = None, array("d")  # last: [t, x, lam, F, found, fold value] of a solve
    # the surface state (0, x_rest), filled element-wise by each field call;
    # `last` holds this buffer, and every reader of last[1] (at, the fallback
    # below, the end-of-run re-solve) reads it before the next field call
    x, rest = np.zeros(dim), range(1, dim)

    def rhs(y, t):
        # d x_rest/dt at lam_s(t, y); the solve is kept in `last`
        nonlocal last
        for i in rest:
            x[i] = y.item(i - 1)
        ta, lam, rate, slope, srate, _ = anchor
        dt = t - ta
        lam = start = lam + rate * dt
        if not -reach <= lam <= reach:
            lam = start = math.copysign(reach, lam)
        slope += srate * dt
        F = fused(x, t, lam)
        for _ in range(secant_steps):
            f = F[0]
            if not slope * branch > 0.0:  # not the branch's sign: past a fold
                break
            nxt = lam - f / slope
            # converged, or a step below one ulp of lam: f1 is at its rounding
            # floor, which far from the origin can lie above tol
            if abs(f) < tol or nxt == lam:
                last = [t, x, lam, F, True, None]
                return F[1:]
            if not (abs(nxt - start) <= secant_reach and abs(nxt) <= reach):
                break
            F = fused(x, t, nxt)
            lam, slope = nxt, (F[0] - f) / (nxt - lam)
        f = fused(x, t, anchor[1])[0]
        if not math.isfinite(f):
            raise IntegrationError("non-finite field value")
        lam, found = _branch_fallback(lambda v: fused(x, t, v)[0], anchor[1], f, branch)
        last = [t, x, lam, fused(x, t, lam), found, None]
        return last[3][1:]

    def at(t, y):
        # the solve at (t, y), the FSAL stage's at an accepted sample, with its
        # fold value: branch-signed d f1/d lam, or -|f1| past a fold; y may be
        # the solver's own array, so the anchor keeps its values as a list
        nonlocal anchor
        rest_now = y.tolist()
        if not (last and last[0] == t and last[1][1:].tolist() == rest_now):
            rhs(y, t)
        _, x, lam, F, found, fold = last
        if fold is None:
            hs = -SLOPE_STEP if lam > 0 else SLOPE_STEP
            slope = (fused(x, t, lam + hs)[0] - F[0]) / hs if found else anchor[3]
            last[5] = branch * slope if found else -abs(F[0])
            if t > anchor[0]:  # accepted: record lam, move the anchor
                dt = t - anchor[0]
                anchor = (t, lam, (lam - anchor[1]) / dt, slope, (slope - anchor[3]) / dt,
                          rest_now)
                lams.append(lam)
        return last

    def edge(t, y):
        # the nearer end of the slide, both read from one solve: |lam_s| = 1 or a fold
        _, _, lam, _, _, fold = at(t, y)
        return min(1.0 - abs(lam), fold)

    try:
        lams.append(at(t0, y0)[2])
        run = _solve(rhs, y0, t_span, cfg, edge)
    except IntegrationError as exc:
        t, lam, _, _, _, y = anchor
        raise IntegrationError(f"sliding phase at t={t:.6g}, x_rest={y}, "
                               f"lam={lam:.6g}: {exc}") from exc
    del lams[run.t.size:]
    if run.stopped:  # the located crossing, inside the last step
        _, _, lams[-1], _, _, fold = at(run.t[-1], run.y[-1])
    x_arr = np.zeros((run.t.size, dim))
    x_arr[:, 1:] = run.y
    seg = TrajectorySegment(run.t, x_arr, "sliding", lam=np.clip(lams, -1, 1))
    if not run.stopped or 1.0 - abs(lams[-1]) <= fold:  # t_end, or a boundary exit
        return seg, math.copysign(1.0, lams[-1]) if run.stopped else None, None
    # a fold: past it f1 keeps one sign near lam, the way the fast flow goes;
    # it sticks at the nearest root beyond FOLD_GAP that way, or leaves the layer
    te, xe, lam = seg.t_final, seg.x_final, lams[-1]
    side = math.copysign(1.0, fused(xe, te, lam + FOLD_GAP)[0] + fused(xe, te, lam - FOLD_GAP)[0])
    ahead = [r for r in find_sliding_modes(sys, xe[1:], te) if (r.lam_s - lam) * side > FOLD_GAP]
    return seg, side, min(ahead, key=lambda r: abs(r.lam_s - lam), default=None)


def _integrate_layer(sys, lam0, x_rest0, t_span, cfg, eps_layer):
    """Coupled layer transit: d lam/dt = f1/eps_layer, slow rest dynamics.

    Runs on DOP853, which takes about a third of DOPRI5's steps on the
    ripple a layer resolves (see ``integrate``).
    Returns (segment, side): side is None at t_end, else lam's exit boundary.
    """
    fused, x = sys.fused, np.zeros(sys.dim)
    rest = range(1, sys.dim)

    def rhs(z, t):
        # the state on the surface is (0, x_rest): x1 of the buffer stays 0;
        # lam is clipped to the layer; at dim 2 and 3 an element-wise fill
        # costs less than a slice copy
        lam = z.item(0)
        for i in rest:
            x[i] = z.item(i)
        F = fused(x, t, -1.0 if lam < -1.0 else (1.0 if lam > 1.0 else lam))
        return (F[0] / eps_layer, *F[1:])

    z0 = np.concatenate(([lam0], x_rest0))
    run = _solve(rhs, z0, t_span, cfg, lambda t, z: 1.0 - abs(z.item(0)), method="dop853")
    # lam is copied out; the run's own array, its column 0 zeroed, is x
    lam = run.y[:, 0].copy()
    run.y[:, 0] = 0.0
    seg = TrajectorySegment(run.t, run.y, "layer_transit", lam=lam)
    return seg, math.copysign(1.0, lam[-1]) if run.stopped else None


def integrate_layer_only(sys: SwitchedField, lam0: float, x_rest0, t_span,
                         cfg: IntegratorConfig | None = None,
                         eps_layer: float = 1e-5) -> TrajectorySegment:
    """Simulate the layer subsystem alone from (lam0, x_rest0) on x1 = 0, lam0 in [-1, 1]."""
    cfg = cfg or IntegratorConfig()
    if not 0.0 < eps_layer < math.inf:  # False for NaN
        raise ValueError("eps_layer must be finite and positive")
    z0 = np.concatenate(([lam0], _check_rest(x_rest0, sys.dim)))
    z0, t0, t1 = _check_start(sys, z0, t_span)
    if not -1.0 <= z0[0] <= 1.0:
        raise ValueError(f"lam0 must lie in [-1, 1], got {z0[0]}")
    seg, _ = _integrate_layer(sys, float(z0[0]), z0[1:], (t0, t1), cfg, eps_layer)
    return seg


def layer_amplitude(t, lam, window, average: float = 0.0) -> float:
    """Half the peak-to-peak range of the multiplier over window (lo, hi).

    With average > 0, lam is first replaced by its time-weighted running
    mean over spans of that length (centres spaced average/10 apart, every
    span inside the window).  This removes in-layer ripple much faster
    than the span while keeping slower motion almost unchanged.
    """
    t = np.asarray(t, dtype=float)
    lam = np.asarray(lam, dtype=float)
    lo, hi = float(window[0]), float(window[1])
    inside = (t >= lo) & (t <= hi)
    if not inside.any():
        span = f"spans [{t[0]:g}, {t[-1]:g}]" if t.size else "has no samples"
        raise ValueError(f"window [{lo:g}, {hi:g}] holds no samples; the run {span}")
    if average > 0:
        area = np.concatenate(([0.0], np.cumsum(0.5 * (lam[1:] + lam[:-1]) * np.diff(t))))
        half = 0.5 * average
        centres = np.arange(lo + half, hi - half, 0.1 * average)
        if centres.size == 0:
            raise ValueError(f"window [{lo:g}, {hi:g}] is not longer than "
                             f"the averaging span {average:g}")
        lam = (np.interp(centres + half, t, area)
               - np.interp(centres - half, t, area)) / average
    else:
        lam = lam[inside]
    return float(0.5 * (lam.max() - lam.min()))


def integrate_hybrid(sys: SwitchedField, x0, t_span,
                     cfg: IntegratorConfig | None = None,
                     eps_layer: float = 1e-5) -> HybridTrajectory:
    """Full piecewise trajectory: free flight, crossing, sliding, layer transit.

    eps_layer sets the t-scale of layer transits (tau = t / eps_layer); it
    only matters for systems whose layer carries slow-time dynamics.
    """
    cfg = cfg or IntegratorConfig()
    if not 0.0 < eps_layer < math.inf:  # False for NaN
        raise ValueError("eps_layer must be finite and positive")
    xv, t_now, t_end = _check_start(sys, np.array(x0, dtype=float), t_span)
    traj = HybridTrajectory()

    regime = regime_of(xv)
    entry_side = None
    if regime == "on_surface":
        # starting on the surface: take the side whose boundary flow enters
        xv[0] = 0.0
        f1m = eval_field(sys, xv, -1.0, t=t_now)[0]
        f1p = eval_field(sys, xv, 1.0, t=t_now)[0]
        entry_side = "minus" if f1m > 0 else ("plus" if f1p < 0 else "minus")

    restick = None  # the root the fast flow reached from a fold
    while t_now < t_end - 1e-14:
        if restick is None and entry_side is None:
            seg, hit = advance_to_surface(sys, xv, (t_now, t_end), cfg)
            traj.segments.append(seg)
            if hit is None:
                break
            t_now, xv = hit[0], hit[1].copy()
            entry_side = "plus" if seg.regime == "free_plus" else "minus"
            xv[0] = 0.0
            continue
        kind, sliding = (("stick", restick) if restick is not None
                         else classify_surface_point(sys, xv[1:], t_now, entry_side))
        if kind == "cross":
            down = entry_side == "plus"
            traj.transitions.append((t_now, "cross_down" if down else "cross_up"))
            xv[0], entry_side = (-2 * SURFACE_TOL if down else 2 * SURFACE_TOL), None
            continue

        if kind == "stick":
            enter, leave = "stick", "exit_slide"
            seg, side, restick = _integrate_sliding(sys, xv, (t_now, t_end), cfg, sliding)
        else:  # layer_dynamic
            enter, leave = "layer_enter", "layer_exit"
            lam0 = 1.0 if entry_side == "plus" else -1.0
            seg, side = _integrate_layer(sys, lam0, xv[1:], (t_now, t_end), cfg, eps_layer)
        traj.transitions.append((t_now, enter))
        traj.segments.append(seg)
        t_now, xv = seg.t_final, seg.x_final.copy()
        if side is None:
            break
        traj.transitions.append((t_now, leave))
        # step off the surface on the side the multiplier left through
        xv[0], entry_side = 2 * side * SURFACE_TOL, None

    return traj
