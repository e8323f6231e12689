"""Switched vector fields and their hidden terms.

States are in adapted coordinates: the first component x1 is the surface
function, so a system dx/dt = f_+(x) for x1 > 0, f_-(x) for x1 < 0 is
extended across the switching surface x1 = 0 by one field f(x; lam),
lam in [-1, +1], with f(x; +-1) = f_+-(x).  It splits as

    f(x; lam) = (f_+ + f_-)/2 + (f_+ - f_-)/2 * lam + (lam^2 - 1) g(x, lam)

The last term is the "hidden" part: what f adds to the linear (Filippov)
combination.  It vanishes identically off the surface (lam = +-1) but
shapes the dynamics inside it.  A ``SwitchedField`` holds f alone: f_+,
f_- and the hidden part are all read from it.  One band, |x1| <=
``SURFACE_TOL``, counts as on the surface for every system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# (x, t, lam) -> n-vector
HiddenFn = Callable[[np.ndarray, float, float], np.ndarray]

# a state with |x1| <= SURFACE_TOL is on the switching surface
SURFACE_TOL = 1e-9


class DimensionMismatchError(ValueError):
    """State dimension does not match the system's dimension."""


class NonFiniteFieldError(ArithmeticError):
    """A field component evaluated to NaN or infinity."""


@dataclass(frozen=True, kw_only=True)
class SwitchedField:
    """A piecewise-smooth system, given by its one evaluator f(x; lam).

    The switching surface is x1 = 0: the first state component is the
    surface function, and ``abs(x1) <= SURFACE_TOL`` classifies a state as
    on-surface.  A system given in other variables is adapted by a
    coordinate map first, as the relay circuit's x = (Vb - V, I).
    ``time_dependent`` must be declared by the constructor; it is never
    inferred from sampling.

    ``fused(x, t, lam)`` is the field, and the one evaluator every run
    calls: f_+ and f_- are fused(x, t, +-1), and ``hidden_term`` is what
    it adds to their linear combination.  ``eval_field`` wraps it with
    validation; the runs call it directly, clipping lam themselves, and
    also slightly past +-1 (|lam| <= 1.5), where sliding continuation
    follows a root through the layer boundary, so it must continue
    smoothly there.

    The runs rely on this calling contract: ``fused`` gets a float64 state
    of shape (dim,) and a Python float lam and returns dim floats, and
    neither keeps nor modifies x (the runs reuse their state buffers).  A
    tuple of Python floats is preferred: the integrator takes it without a
    numpy round trip.  A float64 array of shape (dim,) is accepted; callers
    never keep it or write into it, so a field may return the same array
    on every call.
    """

    dim: int
    fused: HiddenFn
    time_dependent: bool = False
    # not fields: perfbench/tracing.py still lists these in FIELD_MEMBERS
    # and reads them from every system it instruments
    f_plus = f_minus = hidden_g = None

    def _check_state(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise DimensionMismatchError(
                f"expected state of dimension {self.dim}, got shape {x.shape}"
            )
        return x


def _check_lambda(lam: float) -> float:
    lam = float(lam)
    if not -1.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [-1, +1], got {lam}")
    return lam


def eval_field(sys: SwitchedField, x, lam: float, t: float = 0.0) -> np.ndarray:
    """Evaluate f(x; lam) = (f_+ + f_-)/2 + (f_+ - f_-)/2 lam + (lam^2-1) g.

    The validating wrapper of ``sys.fused``: the state shape, lam in
    [-1, 1] and the finiteness of the result are each checked once.  At
    lam = +-1 this is exactly the direct evaluation of f_+ / f_-.
    """
    xv = sys._check_state(x)
    lam = _check_lambda(lam)
    out = np.asarray(sys.fused(xv, float(t), lam), dtype=float)
    _check_finite(out, xv, lam)
    return out


def _check_finite(values: np.ndarray, x, lam, what: str = "field") -> None:
    """Raise NonFiniteFieldError unless every value is finite."""
    if not np.all(np.isfinite(values)):
        raise NonFiniteFieldError(f"non-finite {what} value(s) at x={x}, lam={lam}")


def hidden_term(sys: SwitchedField, x, lam: float, t: float = 0.0) -> np.ndarray:
    """The hidden part of f: f(lam) - (f_+ + f_-)/2 - (f_+ - f_-)/2 lam.

    Exactly zero at lam = +-1.
    """
    xv = sys._check_state(x)
    lam = _check_lambda(lam)
    if abs(lam) == 1.0:
        return np.zeros(sys.dim)
    t, fused = float(t), sys.fused
    fp = np.asarray(fused(xv, t, 1.0), dtype=float)
    fm = np.asarray(fused(xv, t, -1.0), dtype=float)
    out = (np.asarray(fused(xv, t, lam), dtype=float)
           - 0.5 * (fp + fm) - (0.5 * lam) * (fp - fm))
    _check_finite(out, xv, lam, what="hidden term")
    return out


def fast_field_eval(sys: SwitchedField):
    """Closure computing f(x; lam) without per-call validation.

    The unchecked wrapper of ``sys.fused`` with lam clipped into [-1, 1].
    No library code calls it: it stays for the ``core.fast_field_eval_us``
    micro metric of perfbench.  It returns what ``fused`` returns.
    """
    inner = sys.fused

    def f(x, t, lam):
        if lam > 1.0:
            lam = 1.0
        elif lam < -1.0:
            lam = -1.0
        return inner(x, t, lam)

    return f


def regime_of(x) -> str:
    """Classify a state as 'plus', 'minus', or 'on_surface' by its x1."""
    v = float(x[0])
    if v > SURFACE_TOL:
        return "plus"
    if v < -SURFACE_TOL:
        return "minus"
    return "on_surface"
