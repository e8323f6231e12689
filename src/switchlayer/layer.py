"""Switching-layer analysis and hybrid trajectory construction.

The switching surface is blown up into a layer lam in [-1, +1] carrying
the fast dynamics d(lam)/dtau = f1(x; lam) on an instantaneous timescale,
while the tangential components evolve on the slow timescale.  Sliding
modes are the layer equilibria of the fast subsystem; hybrid trajectories
alternate free flight, crossing, sliding and layer transit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    SURFACE_TOL,
    DimensionMismatchError,
    NonFiniteFieldError,
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
    _SOLVE_FAILED,
    _check_start,
    _field,
    _reraise,
    _solve,
    ffi,
    lib,
)

ROOT_TOL = lib.SL_ROOT_TOL  # 1e-12, the loop's tolerance of every lam solve
# find_sliding_modes' constants, set in _loop.c
DERIV_TOL = lib.SL_DERIV_TOL  # 1e-8: a smaller central difference is a marginal root
SLIDING_GRID = lib.SL_GRID  # 512 uniform lam cells that bracket the polished roots
CHEB_TOL = lib.SL_CHEB_TOL  # 1e-13: resolved once upper-half coefficients < CHEB_TOL * max|f1|
CLUSTER_MAX = lib.SL_CLUSTER_MAX  # 1e-2, the widest gap inside a cluster of roots
POLISH_TOL = lib.SL_POLISH_TOL  # 5e-5: how far a grid-cell root may lie from the root it polishes
REAL_TOL = lib.SL_REAL_TOL  # 1e-6, the slack on a root's imaginary part and on [-1, 1]
_MODES_MAX = SLIDING_GRID + 1  # sl_modes finds at most a root a grid point
_STABILITY = ("attracting", "repelling", "marginal")  # by sl_modes' tag
_SET_VALUED = "f1 vanishes on a lam-subinterval; sliding is set-valued"
EQUILIBRIA_GRID = 8  # Newton seeds per search-box axis
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


def _modes_failed(code: int, where, x, t: float):
    """Raise the error of a failed ``sl_modes`` call."""
    if code == -1:
        _reraise()
    if code == -10:
        raise DegenerateInclusionError(_SET_VALUED)
    if code == -4:
        raise NonFiniteFieldError(f"non-finite field value(s) at x={x}, lam={where[0]}")
    if code == -11:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    if code == -5:
        raise MemoryError("no memory for the colleague matrix")
    bracket = f"lam root search on [{where[0]}, {where[1]}]"
    if code == -7:
        raise NonFiniteFieldError(f"non-finite f1 value in the {bracket} at x={x}, t={t}")
    raise RuntimeError(f"{bracket}: {_SOLVE_FAILED[code]}")


def find_sliding_modes(sys: SwitchedField, x_rest, t: float = 0.0
                       ) -> list[SlidingSolution]:
    """All roots of f1(x; lam) = 0 on lam in [-1, 1], tagged with stability.

    f1 is sampled at the Chebyshev-Lobatto points cos(pi k / n), n = 16,
    32, ... (old samples reused), until the upper half of its Chebyshev
    coefficients is below CHEB_TOL * max|f1|.  The roots are the real
    eigenvalues in [-1, 1] of the colleague matrix; the cluster a multiple
    root splits into is merged.  Each is replaced by the nearest root
    within POLISH_TOL of a cell of the uniform SLIDING_GRID grid: an end
    where f1 is zero, or Brent's root where f1 changes sign.  A root no
    cell brackets (even multiplicity, two in a cell) is kept as it is.  A
    central difference gives stability, so a multiple root is 'marginal'.
    An f1 unresolved at SLIDING_GRID cells (a kink in lam) gets the roots
    of every grid cell instead.  No roots means the flow crosses; f1 = 0
    (on that scan: on a subinterval) raises DegenerateInclusionError, and
    a sample with a non-finite component NonFiniteFieldError, at once.

    The whole search runs in the step loop's module (``sl_modes`` in
    ``_loop.c``), on the field's compiled kernel when it has one, else
    through one Python callback per evaluation; every lam it evaluates
    lies in [-1, 1].  An exception from the field is re-raised as it is.
    """
    field, x, keep = _field((sys.fused, "lam", 0.0), sys.dim)
    x[1:] = _check_rest(x_rest, sys.dim)  # the state (0, x_rest) of every call
    w = sys.dim + 1
    out = ffi.new("double[]", _MODES_MAX * w)
    count = lib.sl_modes(field, t, out)
    if count < 0:
        _modes_failed(count, out, x, t)
    rows = ffi.unpack(out, count * w)
    return [SlidingSolution(rows[i], _STABILITY[int(rows[i + 1])], rows[i + 2:i + w])
            for i in range(0, count * w, w)]


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

    search_box holds (lo, hi) pairs, lo <= hi, for (lam, x2, ..., xn); the
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
    if not all(lo <= hi for lo, hi in box):  # False for NaN too
        raise ValueError(f"search_box intervals must have lo <= hi, got {box}")

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


def _integrate_sliding(sys, x_surface, t_span, cfg, root: SlidingSolution):
    """Slide on the root lam_s(t, x_rest) of f1 = 0 to t_end, |lam_s| = 1 or a fold.

    The slide runs in the step loop (``_solve``'s "slide" kind, in
    ``_loop.c``).  Each field call solves for lam_s by secant from the
    anchor (lam and d f1/d lam at the last accepted sample, carried forward
    at their rates), so within a step lam_s is a function of (t, x_rest);
    where the secant leaves the branch past a fold or the reach, a
    bracketed fallback takes the first root the branch's way, or the
    least |f1|.  The run's event is min(1 - |lam_s|, fold value), the
    fold value being the branch-signed d f1/d lam at a root, or -|f1|
    where none was found.  Returns (segment, side, root): side is None at
    t_end, else the boundary the fast flow leaves by; root is where a
    fold's flow sticks again.
    """
    fused, dim = sys.fused, sys.dim
    rest = ffi.new("double[]", dim - 1)
    slide = ffi.new("sl_slide *", {"lam": root.lam_s, "rest": rest})
    try:
        run = _solve((fused, "slide", slide), x_surface[1:], t_span, cfg)
    except IntegrationError as exc:
        raise IntegrationError(f"sliding phase at t={slide.t:.6g}, "
                               f"x_rest={ffi.unpack(rest, dim - 1)}, "
                               f"lam={slide.lam:.6g}: {exc}") from exc
    seg = TrajectorySegment(run.t, run.y, "sliding", lam=run.lam)
    lam = slide.llam  # unclipped, with its fold value: the last sample's solve
    if not run.stopped or 1.0 - abs(lam) <= slide.fold:  # t_end, or a boundary exit
        return seg, math.copysign(1.0, lam) if run.stopped else None, None
    # a fold: past it f1 keeps one sign near lam, the way the fast flow goes;
    # it sticks at the nearest root beyond FOLD_GAP that way, or leaves the layer
    te, xe = seg.t_final, seg.x_final
    side = math.copysign(1.0, fused(xe, te, lam + FOLD_GAP)[0] + fused(xe, te, lam - FOLD_GAP)[0])
    ahead = [r for r in find_sliding_modes(sys, xe[1:], te) if (r.lam_s - lam) * side > FOLD_GAP]
    return seg, side, min(ahead, key=lambda r: abs(r.lam_s - lam), default=None)


def _integrate_layer(sys, lam0, x_rest0, t_span, cfg, eps_layer):
    """Coupled layer transit: d lam/dt = f1/eps_layer, slow rest dynamics.

    Runs on DOP853, which takes about a third of DOPRI5's steps on the
    ripple a layer resolves (see ``integrate``); lam is clipped to the layer
    where f is evaluated, and the run ends where |lam| reaches 1.
    Returns (segment, side): side is None at t_end, else lam's exit boundary.
    """
    z0 = np.concatenate(([lam0], x_rest0))
    run = _solve((sys.fused, "layer", eps_layer), z0, t_span, cfg, (1.0, 0.0, -1.0),
                 method="dop853")
    seg = TrajectorySegment(run.t, run.y, "layer_transit", lam=run.lam)
    return seg, math.copysign(1.0, run.lam[-1]) if run.stopped else None


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
    while t_now < t_end - 1e-14 or not traj.segments:  # a span may be shorter
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
