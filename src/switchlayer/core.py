"""Switched vector fields and their hidden terms.

States are in adapted coordinates: the first component x1 is the surface
function, so a system dx/dt = f_+(x) for x1 > 0, f_-(x) for x1 < 0 is
extended across the switching surface x1 = 0 by one field f(x; lam),
lam in [-1, +1], with f(x; +-1) = f_+-(x).  It splits as

    f(x; lam) = (f_+ + f_-)/2 + (f_+ - f_-)/2 * lam + (lam^2 - 1) g(x, lam)

The last term is the "hidden" part: what f adds to the linear (Filippov)
combination.  It vanishes identically off the surface (lam = +-1) but
shapes the dynamics inside it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# (x, t) -> n-vector
FieldFn = Callable[[np.ndarray, float], np.ndarray]
# (x, t, lam) -> n-vector
HiddenFn = Callable[[np.ndarray, float, float], np.ndarray]


class DimensionMismatchError(ValueError):
    """State dimension does not match the system's dimension."""


class NonFiniteFieldError(ArithmeticError):
    """A field component evaluated to NaN or infinity."""


@dataclass(frozen=True, kw_only=True)
class SwitchedField:
    """A piecewise-smooth system, given by its one evaluator f(x; lam).

    The switching surface is x1 = 0: the first state component is the
    surface function, and ``abs(x1) <= surface_tolerance`` classifies a
    state as on-surface.  A system given in other variables is adapted by
    a coordinate map first, as the relay circuit's x = (Vb - V, I).
    ``time_dependent`` must be declared by the constructor; it is never
    inferred from sampling.

    ``fused(x, t, lam)`` is the field.  Given alone, it derives f_plus /
    f_minus as fused(x, t, +-1), derived again when ``dataclasses.replace``
    swaps fused, and ``hidden_term`` is what it adds to their linear
    combination.  The hidden form (f_plus, f_minus, hidden_g), hidden_g
    None for the linear (Filippov) combination, is still accepted: fused
    is then composed from it, exact at lam = +-1 without calling hidden_g.
    A hidden_g next to a given fused is a TypeError: nothing would read it.
    ``eval_field`` wraps fused with validation and ``fast_field_eval`` with
    a clip of lam; the runs call it directly, clipping lam themselves, and
    also slightly past +-1 (|lam| <= 1.5), where sliding continuation
    follows a root through the layer boundary, so it must continue
    smoothly there.

    The runs rely on this calling contract: ``fused`` gets a float64 state
    of shape (dim,) and a Python float lam and returns dim floats, and
    neither keeps nor modifies x (the runs reuse their state buffers).  A
    tuple of Python floats is preferred: the integrator takes it without a
    numpy round trip.  A float64 array of shape (dim,) is accepted, as a
    composed field returns; callers never keep it or write into it, since
    a composed field shares it with f_plus / f_minus at lam = +-1.
    """

    dim: int
    fused: HiddenFn | None = None
    f_plus: FieldFn | None = None
    f_minus: FieldFn | None = None
    hidden_g: HiddenFn | None = None
    time_dependent: bool = False
    surface_tolerance: float = 1e-9

    def __post_init__(self):
        if not self.surface_tolerance > 0:
            raise ValueError("surface_tolerance must be positive")
        fused, parts = self.fused, (self.f_plus, self.f_minus, self.hidden_g)
        # a composed evaluator is rebuilt when dataclasses.replace swaps
        # the parts it was composed from, a derived branch when it swaps fused
        if fused is None or getattr(fused, "parts", parts) != parts:
            if self.f_plus is None or self.f_minus is None:
                raise TypeError("SwitchedField needs fused(x, t, lam), or "
                                "f_plus(x, t) and f_minus(x, t)")
            object.__setattr__(self, "fused", _compose(*parts))
            return
        if self.hidden_g is not None and not hasattr(fused, "parts"):
            raise TypeError("hidden_g composes a field from f_plus and f_minus; "
                            "a field given by fused takes none")
        for name, lam in (("f_plus", 1.0), ("f_minus", -1.0)):
            branch = getattr(self, name)
            if branch is None or getattr(branch, "source", fused) is not fused:
                object.__setattr__(self, name, _branch(fused, lam))

    def _check_state(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise DimensionMismatchError(
                f"expected state of dimension {self.dim}, got shape {x.shape}"
            )
        return x


def _branch(fused: HiddenFn, lam: float) -> FieldFn:
    """f_+ (lam = 1) or f_- (lam = -1) of a field given by ``fused``."""

    def branch(x, t):
        return np.array(fused(x, t, lam), dtype=float)

    branch.source = fused
    return branch


def _compose(fp: FieldFn, fm: FieldFn, g: HiddenFn | None) -> HiddenFn:
    """f(x, t, lam) from the hidden form, exact branch values at lam = +-1."""

    def fused(x, t, lam):
        if lam == 1.0:
            return np.asarray(fp(x, t), dtype=float)
        if lam == -1.0:
            return np.asarray(fm(x, t), dtype=float)
        fpv = np.asarray(fp(x, t), dtype=float)
        fmv = np.asarray(fm(x, t), dtype=float)
        out = 0.5 * (fpv + fmv) + (0.5 * lam) * (fpv - fmv)
        if g is not None:
            out = out + (lam * lam - 1.0) * np.asarray(g(x, t, lam), dtype=float)
        return out

    fused.parts = (fp, fm, g)
    return fused


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

    Exactly zero at lam = +-1.  A field given in hidden form returns its
    (lam^2 - 1) g(x, lam), or zero without hidden_g.
    """
    xv = sys._check_state(x)
    lam = _check_lambda(lam)
    t, composed = float(t), hasattr(sys.fused, "parts")
    if abs(lam) == 1.0 or composed and sys.hidden_g is None:
        return np.zeros(sys.dim)
    if composed:
        g = np.asarray(sys.hidden_g(xv, t, lam), dtype=float)
        _check_finite(g, xv, lam, what="hidden multiplier g")
        return (lam * lam - 1.0) * g
    fp = np.asarray(sys.f_plus(xv, t), dtype=float)
    fm = np.asarray(sys.f_minus(xv, t), dtype=float)
    out = (np.asarray(sys.fused(xv, t, lam), dtype=float)
           - 0.5 * (fp + fm) - (0.5 * lam) * (fp - fm))
    _check_finite(out, xv, lam, what="hidden term")
    return out


def fast_field_eval(sys: SwitchedField):
    """Closure computing f(x; lam) without per-call validation.

    The unchecked wrapper of ``sys.fused``, for inner loops where the
    state shape is fixed and finiteness is checked on the collected
    values instead of per evaluation.  lam is clipped into [-1, 1].  It
    returns what ``fused`` returns, dim floats: a tuple of Python floats
    or a float64 array, which callers never keep or write into.
    """
    inner = sys.fused

    def f(x, t, lam):
        if lam > 1.0:
            lam = 1.0
        elif lam < -1.0:
            lam = -1.0
        return inner(x, t, lam)

    return f


def regime_of(sys: SwitchedField, x) -> str:
    """Classify a state as 'plus', 'minus', or 'on_surface' by its x1."""
    v = float(x[0])
    if v > sys.surface_tolerance:
        return "plus"
    if v < -sys.surface_tolerance:
        return "minus"
    return "on_surface"
