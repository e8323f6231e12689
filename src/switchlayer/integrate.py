"""Adaptive integration with switching-surface event detection.

All flows run on one core, ``_solve``, around one of Hairer's compiled
Dormand-Prince step loops that scipy exposes as ``ode(...).set_integrator``:
the 4(5) code DOPRI5 for free flight, sliding and regularized runs, and
the 8(5,3) code DOP853 for layer transits.  A layer run resolves a weakly
damped fast ripple, so its step count is set by the method's order and
the higher order takes about a third of the steps.  Where ``max_step`` or
the eps/4 band cap binds, the step count is fixed and DOP853 would only
double the evaluations per step (Hairer, Norsett & Wanner, *Solving ODEs
I*, sec. II.5 and II.10).  Each accepted step is handed to a callback that
records the sample and tests the event functions; crossings are localized
inside the step on its cubic Hermite interpolant (ibid., sec. II.6).
Regularized systems replace the discontinuous multiplier by a sigmoid of
the surface function and are integrated as a single smooth system, with
the step size capped at eps/4 inside the transition band.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy.integrate import ode
from scipy.optimize import brentq

from .core import SwitchedField, regime_of
from .sigmoids import SigmoidSpec

_EPS = np.finfo(float).eps


class IntegrationError(RuntimeError):
    """Integration failed or exceeded the step budget."""


class GrazeWarning(UserWarning):
    """Trajectory touched the surface tolerance band without crossing."""


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    max_step: float = 1e-2
    max_steps: int = 10_000_000

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol", "max_step"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.max_steps <= 0:
            raise ValueError("max_steps must be positive")


@dataclass
class TrajectorySegment:
    """Sampled solution piece with a single dynamical regime label."""

    t: np.ndarray
    x: np.ndarray  # shape (len(t), n)
    regime: str
    lam: np.ndarray | None = None

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.x = np.asarray(self.x, dtype=float)
        if self.x.shape[0] != self.t.size:
            raise ValueError("t and x sample counts differ")
        if self.t.size > 1 and not np.all(np.diff(self.t) > 0):
            raise ValueError("sample times must be strictly increasing")

    @property
    def t_final(self) -> float:
        return float(self.t[-1])

    @property
    def x_final(self) -> np.ndarray:
        return self.x[-1]


class Event(NamedTuple):
    """A zero of ``fun(t, y)`` watched along a run.

    ``direction`` > 0 fires on upward zero crossings only, < 0 on downward
    ones, 0 on both.  A zero at the start of a step followed by motion in
    that direction counts as a crossing at the step start.  Every event
    ends the run at its located crossing.
    """

    fun: Callable[[float, np.ndarray], float]
    direction: float = 0.0


@dataclass
class _Run:
    t: np.ndarray
    y: np.ndarray  # shape (len(t), n)
    stopped_by: int | None  # index of the event that ended the run


def _hermite(t0, y0, f0, t1, y1, f1):
    """Cubic Hermite interpolant of one step from its end values and slopes."""
    h = t1 - t0

    def y(t):
        s = (t - t0) / h
        s2, s3 = s * s, s * s * s
        return ((2 * s3 - 3 * s2 + 1) * y0 + (s3 - 2 * s2 + s) * h * f0
                + (3 * s2 - 2 * s3) * y1 + (s3 - s2) * h * f1)

    return y


_running = False


def _solve(field, x0, t_span, cfg: IntegratorConfig, events=(), max_step=None,
           max_steps=None, method="dopri5") -> _Run:
    """Integrate dx/dt = field(x, t) on Hairer's compiled DOPRI5 or DOP853.

    Every accepted step is recorded.  Events are evaluated once at each
    step end; a step whose two values have a positive product keeps one
    strict sign and needs no further test (a NaN or an underflowed product
    takes the full test).  A sign change is localized with ``brentq`` on
    the cubic Hermite interpolant of that step; the run stops at the
    earliest located root (the lower event index on a tie), so the last
    sample satisfies that event to rounding level.  Exceptions raised by the field or an event
    end the run and are re-raised here; the step budget is ``max_steps``
    (default ``cfg.max_steps``) accepted steps.  ``method`` names the step
    loop, ``"dopri5"`` or ``"dop853"``; both take the same tolerances,
    ``max_step`` and budget.  Neither code is re-entrant, so no run may be
    started from inside a field or an event function.
    """
    global _running
    if _running:
        raise RuntimeError("the Dormand-Prince core is not re-entrant")
    t0, t1 = float(t_span[0]), float(t_span[1])
    y0 = np.array(x0, dtype=float)
    budget = cfg.max_steps if max_steps is None else max_steps
    failure: list[BaseException] = []
    nan = np.full(y0.size, np.nan)

    def fcn(t, y):
        if failure:
            return nan
        try:
            return field(y, t)
        except Exception as exc:  # re-raised once the solver has returned
            failure.append(exc)
            return nan

    ts, ys = [t0], [y0]
    funs = [ev.fun for ev in events]
    directions = [ev.direction for ev in events]
    g_prev = [fun(t0, y0) for fun in funs]
    stopped_by = None

    def locate(i, ta, tb, ga, gb, interp):
        if ga == 0.0:
            return ta
        if gb == 0.0:
            return tb
        fun = events[i].fun
        return brentq(lambda s: fun(s, interp(s)), ta, tb,
                      xtol=4 * _EPS, rtol=4 * _EPS)

    def solout(t, y):
        nonlocal stopped_by
        if t == t0 and len(ts) == 1:
            return 0  # the solver reports the initial point first
        try:
            y = y.copy()
            hit = None
            for i, fun in enumerate(funs):
                g0 = g_prev[i]
                g_prev[i] = g1 = fun(t, y)
                if g0 * g1 > 0.0:
                    continue  # one strict sign at both ends
                d = directions[i]
                # a sign change (or a zero at either end) in direction d;
                # a pair of exact zeros is no crossing
                if ((g0 <= 0.0 <= g1 and d >= 0 or g0 >= 0.0 >= g1 and d <= 0)
                        and (g0 != 0.0 or g1 != 0.0)):
                    hit = (hit or []) + [(i, g0, g1)]
            if hit:
                ta, ya = ts[-1], ys[-1]
                interp = _hermite(ta, ya, np.asarray(field(ya, ta), dtype=float),
                                  t, y, np.asarray(field(y, t), dtype=float))
                tr, stopped_by = min((locate(i, ta, t, g0, g1, interp), i)
                                     for i, g0, g1 in hit)
                if tr > ta:
                    ts.append(tr)
                    ys.append(interp(tr))
                return -1
            ts.append(t)
            ys.append(y)
            if len(ts) - 1 > budget:
                raise IntegrationError(f"step budget of {budget} exceeded")
            return 0
        except Exception as exc:
            failure.append(exc)
            return -1

    solver = ode(fcn).set_integrator(
        method, rtol=cfg.rel_tol, atol=cfg.abs_tol,
        max_step=cfg.max_step if max_step is None else max_step,
        nsteps=min(budget + 1, 2**31 - 1))
    solver.set_solout(solout)
    solver.set_initial_value(y0, t0)
    # IWORK(4) < 0 switches off the stiffness interrupt: the layer
    # systems are stiff by construction and are integrated on purpose
    solver._integrator.iwork[3] = -1
    _running = True
    try:
        with warnings.catch_warnings():
            # failures are reported below from the return code
            warnings.filterwarnings("ignore", method + ": ", UserWarning)
            solver.integrate(t1)
    finally:
        _running = False
        # the compiled wrapper keeps its last callback alive past the run,
        # and through it the integrator and this run's sample lists
        solver._integrator.solout = None
        solver._integrator.call_args = None
    if failure:
        raise failure[0]
    code = solver.get_return_code()
    if code < 0:
        raise IntegrationError(
            f"integration failed near t={ts[-1]:.6g}: "
            f"{solver._integrator.messages.get(code, f'return code {code}')}")
    y = np.array(ys)
    if not np.all(np.isfinite(y)):
        raise IntegrationError("non-finite state encountered")
    return _Run(np.array(ts), y, stopped_by)


def advance_to_surface(sys: SwitchedField, x0, t_span,
                       cfg: IntegratorConfig | None = None
                       ) -> tuple[TrajectorySegment, tuple[float, np.ndarray] | None]:
    """Integrate the active branch until x1 changes sign or time runs out.

    Returns the free segment and, when the surface is reached, the hit
    (t*, x*) localized inside the step so |x1*| is at rounding level.  A
    run that ends without crossing but has a sample inside the surface
    tolerance band warns with a GrazeWarning naming the first such
    sample's time.
    """
    cfg = cfg or IntegratorConfig()
    xv = np.asarray(x0, dtype=float)
    regime = regime_of(sys, xv)
    if regime == "on_surface":
        raise ValueError("advance_to_surface requires a strictly off-surface start")
    fused, sgn = sys.fused, 1.0 if regime == "plus" else -1.0

    # leaving the active side ends the segment
    crossing = Event(lambda t, y: y.item(0), direction=-sgn)
    run = _solve(lambda x, t: fused(x, t, sgn), xv, t_span, cfg, events=(crossing,))
    seg = TrajectorySegment(run.t, run.y, "free_plus" if regime == "plus" else "free_minus")
    if run.stopped_by is not None:
        return seg, (float(run.t[-1]), run.y[-1].copy())
    grazed = np.flatnonzero(sgn * run.y[:, 0] <= sys.surface_tolerance)
    if grazed.size:
        warnings.warn(
            f"trajectory grazed the surface tolerance band near "
            f"t={run.t[grazed[0]]:.6g} without crossing", GrazeWarning)
    return seg, None


def integrate_regularized(sys: SwitchedField, sigmoid: SigmoidSpec, x0, t_span,
                          cfg: IntegratorConfig | None = None) -> TrajectorySegment:
    """Integrate dx/dt = f(x; phi_eps(x1)) as one smooth stiff system.

    Inside the transition band |x1| < eps the step size is capped at eps/4;
    outside it the configured max_step applies.  Band entry and exit are
    localized with events so the cap switches at the right times.  Every
    sigmoid kind switches at v = 0, so phi_eps(x1) switches on the surface.
    """
    cfg = cfg or IntegratorConfig()
    xv = sys._check_state(x0)
    eps = sigmoid.eps
    fused = sys.fused
    # lam = phi(x1), a [0, 1] kind shifted onto [-1, 1]; every kind
    # stays inside [-1, 1] in floating point, so nothing is clamped
    phi = sigmoid.scalar_fn()
    if sigmoid.range == (0.0, 1.0):
        def lam_of(v):
            return 2.0 * phi(v) - 1.0
    else:
        lam_of = phi

    def field(x, t):
        return fused(x, t, lam_of(x.item(0)))

    def edge(sign):
        return lambda t, y: y.item(0) - sign * eps

    # each run ends where the trajectory passes a band edge outward
    # (inside) or inward (outside); crossings back are not events
    leave = (Event(edge(1.0), direction=1.0), Event(edge(-1.0), direction=-1.0))
    enter = (Event(edge(1.0), direction=-1.0), Event(edge(-1.0), direction=1.0))

    def in_band(x, t):
        v0 = x[0]
        if abs(v0) < eps * (1.0 - 1e-12):
            return True
        if abs(v0) > eps * (1.0 + 1e-12):
            return False
        # sitting on the band edge: side of the next instant decided by dx1/dt
        return v0 * field(x, t)[0] < 0

    t_parts, x_parts = [], []
    t_now, t_end = float(t_span[0]), float(t_span[1])
    x_now = xv
    steps_left = cfg.max_steps
    inside = in_band(x_now, t_now)
    while True:
        run = _solve(field, x_now, (t_now, t_end), cfg,
                     events=leave if inside else enter,
                     max_step=min(cfg.max_step, eps / 4.0) if inside else cfg.max_step,
                     max_steps=steps_left)
        steps_left -= run.t.size - 1
        keep = slice(0, None) if not t_parts else slice(1, None)
        t_parts.append(run.t[keep])
        x_parts.append(run.y[keep])
        if run.stopped_by is None or run.t[-1] >= t_end:
            break
        if run.t.size == 1:
            raise IntegrationError(
                f"no progress past a transition-band edge at t={t_now:.6g}")
        t_now, x_now = float(run.t[-1]), run.y[-1]
        # x1 may lie a few ulp past the edge, so the event that stopped the
        # run tells the side: a leave stop is outside, an enter stop inside
        inside = not inside

    t_all = np.concatenate(t_parts)
    x_all = np.vstack(x_parts)
    lam_all = np.array([lam_of(x1) for x1 in x_all[:, 0].tolist()])
    return TrajectorySegment(t_all, x_all, "regularized", lam=lam_all)
