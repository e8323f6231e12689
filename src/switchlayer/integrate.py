"""Adaptive integration with switching-surface event detection.

Every run takes one step loop, ``_solve``, compiled from ``_loop.c`` (see
``_build``): DOPRI5 for free flight, sliding and regularized runs, DOP853
for layer transits, whose fast ripple sets a step count that the higher
order cuts to about a third (Hairer, Norsett & Wanner, *Solving ODEs I*,
sec. II.4-II.5 and II.10).  A run's one event ends it where it falls
through zero, localized on the step's cubic Hermite interpolant (ibid.,
sec. II.6).  Regularized systems replace the discontinuous multiplier by
a sigmoid of the surface function and are integrated as one smooth
system, with the step capped at eps/4 inside the transition band.  A
slide runs in the loop too: its rhs solves f1(x; lam) = 0 for lam_s at
each stage and its event watches the slide's ends (see
``layer._integrate_sliding``).  Every run of a built-in system runs
entirely in C, on its compiled kernel (see ``scenarios``); every other
field is called through one Python callback.  The compiled module also
finds the roots of f1 in lam, the sliding modes, and evaluates the layer
field and its central-difference Jacobians at the stacked rows of a
Newton sweep for the layer equilibria, with the same field struct
(``_field``; see ``layer.find_sliding_modes`` and
``layer.find_layer_equilibria``).
"""

from __future__ import annotations

import math
import threading
import warnings
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from ._build import KERNELS, load
from .core import SURFACE_TOL, SwitchedField, regime_of
from .sigmoids import KINDS, SigmoidSpec

_loop = load()
ffi, lib = _loop.ffi, _loop.lib
# the C run kind and sigmoid of each kind of _solve's (fused, kind, value)
_KINDS = {"lam": (1, 0), **{k: (2, i) for i, k in enumerate(KINDS)}, "layer": (3, 0),
          "slide": (4, 0)}
# what a failed lam solve returns, for codes -7 to -9
_SOLVE_FAILED = {-7: "non-finite field value", -8: "Brent's method did not converge",
                 -9: "f1 has one sign at both ends of the bracket"}


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
    y: np.ndarray  # shape (len(t), n); a layer run's rows are x = (0, x_rest)
    lam: np.ndarray | None  # the multiplier of a regularized or layer run
    stopped: bool  # the event ended the run at its located crossing
    accepted: int  # the loop's own counts: steps accepted and rejected,
    rejected: int  # and field evaluations
    evals: int


_failure = threading.local()  # what a callback raised, per thread, until _solve raises it


def _failed(exc_type, exc, tb):
    _failure.exc = exc_type() if exc is None else exc.with_traceback(tb)


@ffi.def_extern(error=-1, onerror=_failed)
def sl_py(handle, t, lam):
    ffi.from_handle(handle)(t, lam)
    return 0


def _reraise():
    """Raise what the callback that ended the loop raised."""
    exc, _failure.exc = _failure.exc, None
    raise exc


def _values(v, n: int):
    """A field value that is not a tuple, as a list, or the documented error."""
    if isinstance(v, np.ndarray):
        return v.tolist()
    len(v)  # a TypeError for a value that is no sequence
    if not isinstance(v, list):
        raise ValueError(f"field returned a {type(v).__name__}, not a sequence of {n} values")
    return v


def _take(rec, name: str, shape) -> np.ndarray:
    """An array over one of the record's buffers, which it then owns."""
    ptr = getattr(rec, name)
    setattr(rec, name, ffi.NULL)
    return np.asarray(SimpleNamespace(memory=ffi.gc(ptr, lib.sl_free), __array_interface__={
        "data": (int(ffi.cast("uintptr_t", ptr)), False), "shape": shape, "typestr": "<f8",
        "version": 3}))


def _field(rhs, n: int, tag=None):
    """The loop's ``sl_field`` for ``rhs`` (see ``_solve``), the state buffer
    of its Python calls, and the objects the struct points into.  ``tag``, a
    (kernel name, parameters) pair, runs in place of the ``fused``'s own
    ``kernel`` (see ``layer.find_sliding_modes``)."""
    x = np.zeros(n)
    keep = [ffi.from_buffer("double[]", x)]
    field = ffi.new("sl_field *")  # zeroed: kind SL_PLAIN
    field.n, field.x = n, keep[0]
    plain = callable(rhs)
    fn = rhs if plain else rhs[0]
    if not plain:
        field.kind, field.sigmoid = _KINDS[rhs[1]]
        if rhs[1] == "slide":
            field.slide = rhs[2]
        else:
            field.value = rhs[2]
        tag = tag or getattr(fn, "kernel", None)
    if tag is not None:
        field.kernel = KERNELS[tag[0]]
        keep.append(par := ffi.new("double[]", tag[1]))
        field.par = par
    else:
        slopes = ffi.new("double[]", n)

        def call(t, lam):
            v = fn(x, t) if plain else fn(x, t, lam)
            if type(v) is not tuple:
                v = _values(v, n)
            try:
                slopes[0:n] = v
            except ValueError:
                raise ValueError(f"field returned {len(v)} values for dimension {n}") from None
        keep += [slopes, handle := ffi.new_handle(call)]
        field.kernel, field.f, field.py = -1, slopes, handle
    return field, x, keep


def _solve(rhs, x0, t_span, cfg: IntegratorConfig, event=None, method="dopri5") -> _Run:
    """Integrate dy/dt = rhs from x0 over t_span, t0 < t1, on the step loop.

    ``rhs`` is a Python field ``field(y, t)`` or a tuple (fused, kind,
    value): kind "lam" evaluates fused(y, t, value); a sigmoid kind
    (``sigmoids.KINDS``) runs the regularized system at lam =
    phi_value(y1) in band parts (see ``integrate_regularized``); "layer"
    runs the layer system y = (lam, x_rest) -> (f1/value, f_rest) at
    x = (0, x_rest), lam clipped to [-1, 1], and records x and lam apart;
    "slide" runs the sliding system y = x_rest -> f_rest at x = (0, x_rest)
    and lam_s, from the ``sl_slide`` state ``value`` (see
    ``layer._integrate_sliding``), and records x = (0, x_rest) and lam_s
    clipped to [-1, 1], with its own event in place of ``event``.
    A ``fused`` with a ``kernel`` runs as that kernel; anything else is
    called through the Python callback, with a state buffer it must
    neither keep nor modify, and returns n values (see ``SwitchedField``:
    a wrong count or kind is a ValueError naming it, no sequence a
    TypeError).  The event is a Python ``event(t, y)``, given the same
    buffer, or (c0, c1, c2) for c0 + c1 y1 + c2 |y1|, evaluated at the
    start and at each step end.  A step whose value falls through zero
    (``g1 <= 0 <= g0`` and ``g0 != g1``) ends the run, so a zero at the
    step start followed by a fall counts as a crossing there; a rise, one
    strict sign at both ends, two equal values or a NaN is none.  The
    crossing is localized with Brent's method on the step's cubic Hermite
    interpolant, so the last sample satisfies the event to rounding level.
    An exception from the field or the event ends the run at once and is
    re-raised here; a slide's failed lam solve is an IntegrationError
    naming the failure.  ``cfg`` gives tolerances, step cap and a budget of
    accepted steps, over all parts of a regularized run; a run that needs
    more, also where that step would be an event stop, raises
    IntegrationError naming ``cfg.max_steps``.  ``method`` is "dopri5" or
    "dop853".  The loop keeps its state in the call, so a field may start
    runs of its own.  The arrays returned own the loop's sample buffers.
    """
    y = np.array(x0, dtype=float)
    field, x, keep = _field(rhs, y.size + (not callable(rhs) and rhs[1] == "slide"))
    n = field.n  # a recorded row's width
    ev = ffi.NULL
    if callable(event):
        g = ffi.new("double[]", 1)

        def at(t, lam):
            g[0] = event(t, x)
        keep.append(ffi.new_handle(at))
        ev = ffi.new("sl_event *", {"py": keep[-1], "g": g})
    elif event is not None:
        ev = ffi.new("sl_event *", dict(zip(("c0", "c1", "c2"), event)))
    rec = ffi.new("sl_record *")
    try:
        code = lib.sl_run(field, ev, method == "dop853", float(t_span[0]),
                          float(t_span[1]), ffi.from_buffer("double[]", y), cfg.rel_tol,
                          cfg.abs_tol, cfg.max_step, cfg.max_steps, rec)
        if code == -1:
            _reraise()
        if code == -5:
            raise MemoryError("no memory for the integrator's samples")
        if code < 0:  # t of the last sample, which every failing run has
            t = rec.t[rec.len - 1]
            raise IntegrationError({
                -2: f"step budget of {cfg.max_steps} exceeded",
                -3: f"integration failed near t={t:.6g}: step size becomes too small",
                -4: "non-finite state encountered",
                -6: f"no progress past a transition-band edge at t={t:.6g}",
                **_SOLVE_FAILED}[code])
        lib.sl_take(rec, n)
        m = rec.len
        return _Run(_take(rec, "t", (m,)), _take(rec, "y", (m, n)),
                    _take(rec, "lam", (m,)) if rec.lam else None, code == 1,
                    rec.accepted, rec.rejected, rec.evals)
    finally:
        lib.sl_release(rec)


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
    sgn = 1.0 if regime == "plus" else -1.0
    # leaving the active side, sgn * x1 falling through zero, ends the segment
    run = _solve((sys.fused, "lam", sgn), xv, (t0, t1), cfg, (0.0, sgn, 0.0))
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

    The run alternates parts inside the transition band |x1| < eps, with
    the step capped at eps/4, and outside it, at the configured max_step.
    A part inside ends where |x1| reaches eps; one outside where x1 passes
    the edge on its starting side, since one step may leap the band.  A
    start on the edge is inside if dx1/dt points in.  The parts share the
    step budget, and lam = phi_eps(x1) is recorded at every sample.  Every
    sigmoid kind switches at v = 0, so phi_eps(x1) switches on the surface.
    """
    cfg = cfg or IntegratorConfig()
    xv, t0, t1 = _check_start(sys, x0, t_span)
    run = _solve((sys.fused, sigmoid.kind, sigmoid.eps), xv, (t0, t1), cfg)
    return TrajectorySegment(run.t, run.y, "regularized", lam=run.lam)
