"""Adaptive integration with switching-surface event detection.

All flows run on one core, ``_solve``, around one of Hairer's compiled
Dormand-Prince step loops that scipy exposes as ``ode(...).set_integrator``:
the 4(5) code DOPRI5 for free flight, sliding and regularized runs, and
the 8(5,3) code DOP853 for layer transits.  A layer run resolves a weakly
damped fast ripple, so its step count is set by the method's order and
the higher order takes about a third of the steps (Hairer, Norsett &
Wanner, *Solving ODEs I*, sec. II.5 and II.10).  Each accepted step is
handed to a callback that records the sample and tests the run's one
event, a function whose fall through zero ends the run; the crossing is
localized inside the step on the cubic Hermite interpolant (ibid.,
sec. II.6).  Regularized systems replace the discontinuous multiplier by
a sigmoid of the surface function and are integrated as a single smooth
system, with the step size capped at eps/4 inside the transition band.

The step loop calls back into Python at every stage.  The generic field
path, which free flight and sliding take at every dimension, stores the
field's values into the run's float64 buffer with one store for any
dimension.  At dimension 2, which every scenario has, regularized and
layer runs hand ``_solve`` a ready stage that calls the system's
``fused`` itself, one frame fewer than the generic path; their step
counts are fixed by the physics and the eps/4 cap, so the cost of a
stage is what is left to cut.  Each stage catches its own exceptions,
because the compiled loop goes on calling after a callback raises (see
``_solve``).
"""

from __future__ import annotations

import ctypes
import math
import warnings
from array import array
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy.integrate import ode
from scipy.optimize import brentq

from .core import SURFACE_TOL, SwitchedField, regime_of
from .sigmoids import SigmoidSpec

_EPS = np.finfo(float).eps


class IntegrationError(RuntimeError):
    """Integration failed or exceeded the step budget."""


class GrazeWarning(UserWarning):
    """Trajectory touched the surface tolerance band without crossing."""


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances, step cap and step budget of an integrator run.

    ``max_steps`` bounds the accepted steps of each integrator run;
    rejected steps do not count.  The band parts of one regularized run
    share one budget; each phase of a hybrid run gets a fresh one.
    """

    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    max_step: float = 1e-2
    max_steps: int = 10_000_000

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol", "max_step"):
            if not 0.0 < getattr(self, name) < math.inf:  # False for NaN
                raise ValueError(f"{name} must be finite and positive")
        m = self.max_steps
        if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or m < 1:
            raise ValueError(f"max_steps must be an integer of at least 1, got {m!r}")


@dataclass
class TrajectorySegment:
    """Sampled solution piece with a single dynamical regime label.

    ``t``, ``x`` and ``lam`` are float64 arrays, taken without a copy when
    they already are.  In a segment built by this package each array owns
    its memory: no other array of any result shares it.
    """

    t: np.ndarray
    x: np.ndarray  # shape (len(t), n)
    regime: str
    lam: np.ndarray | None = None  # shape (len(t),)

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.x = np.asarray(self.x, dtype=float)
        if self.x.shape[0] != self.t.size:
            raise ValueError("t and x sample counts differ")
        if self.lam is not None:
            self.lam = np.asarray(self.lam, dtype=float)
            if self.lam.shape != (self.t.size,):
                raise ValueError("t and lam sample counts differ")
        if self.t.size > 1 and not (self.t[1:] > self.t[:-1]).all():
            raise ValueError("sample times must be strictly increasing")

    @property
    def t_final(self) -> float:
        return float(self.t[-1])

    @property
    def x_final(self) -> np.ndarray:
        return self.x[-1]


@dataclass
class _Run:
    t: np.ndarray
    y: np.ndarray  # shape (len(t), n)
    stopped: bool  # the event ended the run at its located crossing


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


def _solve(field, x0, t_span, cfg: IntegratorConfig,
           event: Callable[[float, np.ndarray], float] | None = None,
           method="dopri5", stage=None, taken: int = 0) -> _Run:
    """Integrate dx/dt = field(x, t) on Hairer's compiled DOPRI5 or DOP853.

    Every accepted step is recorded into float64 buffers (``array("d")``),
    8 bytes a value, which numpy takes at the end without a copy, so each
    returned array owns its memory.  ``field`` returns n values as a
    sequence or an array.  At every n one ``ctypes`` store copies them,
    element by element, into a float64 buffer of length n, allocated once
    per run and handed to the solver at every stage, which copies it; an
    array is copied too, about 0.7 us an evaluation at n = 10.  A wrong
    number of values fails the run with a ValueError naming both counts,
    a value that is no sequence with a TypeError.  At n == 2 a caller may
    also hand over ``stage(out, nan, failure)``, which builds the callback
    ``(t, y)`` the step loop then calls itself in place of ``field``: it
    writes the slopes into ``out`` and returns it.  Regularized and layer
    runs do, and so save a Python frame per stage; every other run, and
    the event localization, calls ``field``.  Each stage callback catches
    its own exceptions, appends the first to ``failure`` and from then on
    returns ``nan`` without calling anything: the compiled loop keeps
    calling after a callback raises, and a raise there ends the run in
    a chained SystemError.  The event, if any, is a function
    ``event(t, y)`` evaluated once at each step end.  A step whose value
    falls through zero (``g1 <= 0 <= g0`` and ``g0 != g1``) ends the run,
    so a zero at the step start followed by a fall counts as a crossing
    there; a rise, one strict sign at both ends, two equal values or a
    NaN is no crossing.  The crossing is localized with ``brentq`` on the
    cubic Hermite interpolant of that step, and the run stops there, so
    the last sample satisfies the event to rounding level.  ``event`` may
    get the solver's own state array, which is valid only during the
    call.  Exceptions raised by the field or the event end the run and
    are re-raised here.  Tolerances, step cap and budget come from
    ``cfg``; the budget counts accepted steps, ``taken`` of which earlier
    parts of the same run have spent, and a run that needs more raises
    IntegrationError naming ``cfg.max_steps``, also where the step past
    the budget would be an event stop.  ``method`` names the step loop,
    ``"dopri5"`` or ``"dop853"``.  Neither code is re-entrant, so no run
    may be started from inside a field or an event function.  The
    compiled wrapper never releases the callbacks it is handed, so the
    run empties what they reach; about 0.7 kB a run stays.
    """
    global _running
    if _running:
        raise RuntimeError("the Dormand-Prince core is not re-entrant")
    t0, t1 = float(t_span[0]), float(t_span[1])
    y0 = np.array(x0, dtype=float)
    n = y0.size
    budget = cfg.max_steps - taken
    failure: list[BaseException] = []
    nan = np.full(n, np.nan)
    # the compiled wrapper would rebuild a returned tuple into a new array
    # on every call; it copies this buffer instead
    out = np.empty(n)
    if stage is not None and n == 2:
        fcn = stage(out, nan, failure)
    else:
        store = (ctypes.c_double * n).from_buffer(out)  # any n in one call

        def fcn(t, y):
            if failure:
                return nan
            try:
                v = field(y, t)
                try:
                    store[:] = v
                except ValueError:  # len(v) raises TypeError for a non-sequence
                    raise ValueError(
                        f"field returned {len(v)} values for dimension {n}") from None
                return out
            except Exception as exc:
                failure.append(exc)
                return nan

    ts, flat = array("d", [t0]), array("d", y0.tobytes())
    g_prev = event(t0, y0) if event is not None else None
    stopped = False

    def solout(t, y):
        nonlocal g_prev, stopped
        if t == t0 and len(ts) == 1:
            return 0  # the solver reports the initial point first
        try:
            if len(ts) > budget:  # this step is one past the budget
                raise IntegrationError(f"step budget of {cfg.max_steps} exceeded")
            if event is not None:
                g0 = g_prev
                g_prev = g1 = event(t, y)
                if g1 <= 0.0 <= g0 and g0 != g1:  # a fall through zero
                    ta, ya, y = ts[-1], np.frombuffer(flat[-n:]), y.copy()
                    interp = _hermite(ta, ya, np.asarray(field(ya, ta), dtype=float),
                                      t, y, np.asarray(field(y, t), dtype=float))
                    tr = ta if g0 == 0.0 else t if g1 == 0.0 else brentq(
                        lambda s: event(s, interp(s)), ta, t, xtol=4 * _EPS, rtol=4 * _EPS)
                    if tr > ta:
                        ts.append(tr)
                        flat.frombytes(interp(tr).tobytes())
                    stopped = True
                    return -1
            ts.append(t)
            flat.frombytes(y.tobytes())
            return 0
        except Exception as exc:
            failure.append(exc)
            return -1

    # nsteps would count rejected steps too; solout alone enforces the budget
    solver = ode(fcn).set_integrator(
        method, rtol=cfg.rel_tol, atol=cfg.abs_tol, max_step=cfg.max_step,
        nsteps=2**31 - 1)
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
        code = solver.get_return_code()
    finally:
        _running = False
        # the compiled wrapper never releases the callbacks it is handed:
        # empty the integrator its bound solout holds, and what fcn reaches
        vars(solver._integrator).clear()
        field = out = nan = store = None
    if failure:
        exc = failure[0]
        failure.clear()  # a ready stage's fcn holds this list too
        raise exc
    if code < 0:
        raise IntegrationError(
            f"integration failed near t={ts[-1]:.6g}: "
            f"{solver._integrator.messages.get(code, f'return code {code}')}")
    y = np.frombuffer(flat).reshape(-1, n)
    if not np.all(np.isfinite(y)):
        raise IntegrationError("non-finite state encountered")
    return _Run(np.frombuffer(ts), y, stopped)


def _check_start(sys: SwitchedField, x0, t_span) -> tuple[np.ndarray, float, float]:
    """(x0, t0, t1) of a run: x0 a finite float64 array of shape (dim,) and
    t0 < t1 finite, else DimensionMismatchError or ValueError."""
    xv = sys._check_state(x0)
    if not np.isfinite(xv).all():
        raise ValueError(f"initial state must be finite, got {xv}")
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not -math.inf < t0 < t1 < math.inf:  # False for NaN
        raise ValueError(f"t_span must be finite with t0 < t1, got ({t0}, {t1})")
    return xv, t0, t1


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
    xv, t0, t1 = _check_start(sys, x0, t_span)
    regime = regime_of(xv)
    if regime == "on_surface":
        raise ValueError("advance_to_surface requires a strictly off-surface start")
    fused, sgn = sys.fused, 1.0 if regime == "plus" else -1.0

    # leaving the active side, sgn * x1 falling through zero, ends the segment
    run = _solve(lambda x, t: fused(x, t, sgn), xv, (t0, t1), cfg,
                 lambda t, y: sgn * y.item(0))
    seg = TrajectorySegment(run.t, run.y, "free_plus" if regime == "plus" else "free_minus")
    if run.stopped:
        return seg, (float(run.t[-1]), run.y[-1].copy())
    grazed = np.flatnonzero(sgn * run.y[:, 0] <= SURFACE_TOL)
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
    x_now, t_now, t_end = _check_start(sys, x0, t_span)
    eps = sigmoid.eps
    fused = sys.fused
    # lam = phi(x1); every kind stays inside [-1, 1] in floating point,
    # so nothing is clamped
    lam_of = sigmoid.scalar_fn()

    def field(x, t):
        return fused(x, t, lam_of(x.item(0)))

    def stage(out, nan, failure):
        # field's body, called by the step loop itself at dim 2 (see _solve)
        mv = memoryview(out)  # stores a float in half the time out[i] takes

        def fcn(t, y):
            if failure:
                return nan
            try:
                mv[0], mv[1] = fused(y, t, lam_of(y.item(0)))
                return out
            except Exception as exc:
                failure.append(exc)
                return nan
        return fcn

    # a run inside ends where |x1| reaches eps; a run outside where x1
    # passes the edge on its starting side, since one step may leap the
    # whole band and |x1| - eps would miss that
    def leave(t, y):
        return eps - abs(y.item(0))

    def enter(t, y):
        return side * y.item(0) - eps

    def in_band(x, t):
        v0 = x[0]
        if abs(v0) < eps * (1.0 - 1e-12):
            return True
        if abs(v0) > eps * (1.0 + 1e-12):
            return False
        # sitting on the band edge: side of the next instant decided by dx1/dt
        return v0 * field(x, t)[0] < 0

    t_parts, x_parts = [], []
    taken = 0  # steps of the budget the earlier parts spent
    inside = in_band(x_now, t_now)
    while True:
        side = 1.0 if x_now[0] > 0.0 else -1.0
        part = replace(cfg, max_step=min(cfg.max_step, eps / 4.0)) if inside else cfg
        run = _solve(field, x_now, (t_now, t_end), part, leave if inside else enter,
                     stage=stage, taken=taken)
        taken += run.t.size - 1
        keep = slice(0, None) if not t_parts else slice(1, None)
        t_parts.append(run.t[keep])
        x_parts.append(run.y[keep])
        if not run.stopped or run.t[-1] >= t_end:
            break
        if run.t.size == 1:
            raise IntegrationError(
                f"no progress past a transition-band edge at t={t_now:.6g}")
        t_now, x_now = float(run.t[-1]), run.y[-1]
        # x1 may lie a few ulp past the edge, so the run's event tells the
        # side: a leave stop is outside, an enter stop inside
        inside = not inside

    t_all, x_all = ((t_parts[0], x_parts[0]) if len(t_parts) == 1
                    else (np.concatenate(t_parts), np.vstack(x_parts)))
    del run, t_parts, x_parts  # a split run's parts go before the lam column comes
    lam_all = np.fromiter(map(lam_of, memoryview(x_all[:, 0])), float, len(x_all))
    return TrajectorySegment(t_all, x_all, "regularized", lam=lam_all)
