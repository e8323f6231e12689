"""Switched vector fields in canonical hidden-term form.

A system dx/dt = f_+(x) for v(x) > 0, f_-(x) for v(x) < 0 is extended
across the switching surface v = 0 as

    f(x; lam) = (f_+ + f_-)/2 + (f_+ - f_-)/2 * lam + (lam^2 - 1) g(x, lam)

with lam in [-1, +1].  The last term is the "hidden" part: it vanishes
identically off the surface (lam = +-1) but shapes the dynamics inside it.
Storing the hidden part as g, rather than as the raw product, makes the
vanishing condition structural.
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


class CoordinateAdaptationError(ValueError):
    """Operation requires the adapted form v(x) = x1."""


@dataclass(frozen=True)
class StateVector:
    """A point in state space together with the time it is held at."""

    x: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        if x.ndim != 1 or x.size < 2:
            raise DimensionMismatchError(
                f"state must be a vector of dimension >= 2, got shape {x.shape}"
            )
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "t", float(self.t))

    @property
    def dim(self) -> int:
        return self.x.size


@dataclass(frozen=True)
class SwitchingSurface:
    """Scalar threshold function v with its gradient.

    ``abs(v(x)) <= surface_tolerance`` classifies a point as on-surface.
    """

    v: Callable[[np.ndarray], float]
    grad_v: Callable[[np.ndarray], np.ndarray]
    surface_tolerance: float = 1e-9

    def __post_init__(self):
        if self.surface_tolerance <= 0:
            raise ValueError("surface_tolerance must be positive")

    def value(self, x: np.ndarray) -> float:
        return float(self.v(np.asarray(x, dtype=float)))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.grad_v(np.asarray(x, dtype=float)), dtype=float)

    def check_gradient(self, x: np.ndarray, rel_tol: float = 1e-5,
                       h: float = 1e-6) -> bool:
        """Verify grad_v against central finite differences of v at x."""
        x = np.asarray(x, dtype=float)
        g = self.gradient(x)
        fd = np.empty_like(g)
        for i in range(x.size):
            e = np.zeros_like(x)
            e[i] = h
            fd[i] = (self.value(x + e) - self.value(x - e)) / (2 * h)
        scale = max(1.0, float(np.linalg.norm(g)))
        return bool(np.linalg.norm(fd - g) <= rel_tol * scale)

    def is_adapted(self, x: np.ndarray, tol: float = 1e-12) -> bool:
        """True if the gradient at x is (1, 0, ..., 0), i.e. v(x) = x1."""
        g = self.gradient(x)
        e1 = np.zeros_like(g)
        e1[0] = 1.0
        return bool(np.linalg.norm(g - e1) <= tol)


def adapted_surface(dim: int, surface_tolerance: float = 1e-9) -> SwitchingSurface:
    """The canonical surface v(x) = x1 used by all layer operations."""

    def v(x):
        return x[0]

    def grad(x):
        g = np.zeros(dim)
        g[0] = 1.0
        return g

    return SwitchingSurface(v, grad, surface_tolerance)


@dataclass(frozen=True)
class SwitchedField:
    """A piecewise-smooth system with an optional hidden switching term.

    ``hidden_g`` may be None for the classical linear (Filippov) combination.
    ``time_dependent`` must be declared by the constructor; it is never
    inferred from sampling.

    ``fused`` evaluates f(x; lam) in one call and is always set: it is the
    one evaluator that ``eval_field`` and ``fast_field_eval`` wrap.  When
    the constructor gives none, it is composed once from the hidden form of
    f_plus, f_minus and hidden_g; the composition returns f_plus / f_minus
    exactly at lam = +-1 without calling hidden_g.  A given ``fused`` must
    agree with that hidden form.  Either way it is also evaluated slightly
    past +-1 (|lam| <= 1.5), where sliding continuation follows a root
    through the layer boundary, so it must continue the hidden form there.
    """

    f_plus: FieldFn
    f_minus: FieldFn
    surface: SwitchingSurface
    dim: int
    hidden_g: HiddenFn | None = None
    time_dependent: bool = False
    fused: HiddenFn | None = None

    def __post_init__(self):
        parts = (self.f_plus, self.f_minus, self.hidden_g)
        # a composed evaluator is rebuilt when dataclasses.replace swaps
        # the parts it was composed from
        if self.fused is None or getattr(self.fused, "parts", parts) != parts:
            object.__setattr__(self, "fused", _compose(*parts))

    def _check_state(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise DimensionMismatchError(
                f"expected state of dimension {self.dim}, got shape {x.shape}"
            )
        return x


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


def _as_state(x) -> tuple[np.ndarray, float]:
    if isinstance(x, StateVector):
        return x.x, x.t
    return np.asarray(x, dtype=float), 0.0


def _check_lambda(lam: float) -> float:
    lam = float(lam)
    if not -1.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [-1, +1], got {lam}")
    return lam


def eval_field(sys: SwitchedField, x, lam: float, t: float | None = None) -> np.ndarray:
    """Evaluate f(x; lam) = (f_+ + f_-)/2 + (f_+ - f_-)/2 lam + (lam^2-1) g.

    The validating wrapper of ``sys.fused``: the state shape, lam in
    [-1, 1] and the finiteness of the result are each checked once.  At
    lam = +-1 this is exactly the direct evaluation of f_+ / f_-.
    """
    xv, xt = _as_state(x)
    if t is not None:
        xt = float(t)
    xv = sys._check_state(xv)
    lam = _check_lambda(lam)
    out = np.asarray(sys.fused(xv, xt, lam), dtype=float)
    _check_finite(out, xv, lam)
    return out


def _check_finite(values: np.ndarray, x, lam, what: str = "field") -> None:
    """Raise NonFiniteFieldError unless every value is finite."""
    if not np.all(np.isfinite(values)):
        raise NonFiniteFieldError(f"non-finite {what} value(s) at x={x}, lam={lam}")


def hidden_term(sys: SwitchedField, x, lam: float, t: float | None = None) -> np.ndarray:
    """The hidden part E(x; lam) = (lam^2 - 1) g(x, lam); zero at lam = +-1."""
    xv, xt = _as_state(x)
    if t is not None:
        xt = float(t)
    xv = sys._check_state(xv)
    lam = _check_lambda(lam)
    if sys.hidden_g is None or abs(lam) == 1.0:
        return np.zeros(sys.dim)
    g = np.asarray(sys.hidden_g(xv, xt, lam), dtype=float)
    _check_finite(g, xv, lam, what="hidden multiplier g")
    return (lam * lam - 1.0) * g


def fast_field_eval(sys: SwitchedField):
    """Closure computing f(x; lam) without per-call validation.

    The unchecked wrapper of ``sys.fused``, for inner loops where the
    state shape is fixed and finiteness is checked on the collected
    values instead of per evaluation.  lam is clipped into [-1, 1].
    """
    inner = sys.fused

    def f(x, t, lam):
        if lam > 1.0:
            lam = 1.0
        elif lam < -1.0:
            lam = -1.0
        return inner(x, t, lam)

    return f


def regime_of(surface: SwitchingSurface, x) -> str:
    """Classify a state as 'plus', 'minus', or 'on_surface'."""
    xv, _ = _as_state(x)
    val = surface.value(xv)
    if val > surface.surface_tolerance:
        return "plus"
    if val < -surface.surface_tolerance:
        return "minus"
    return "on_surface"


def require_adapted(sys: SwitchedField, x) -> None:
    """Raise unless the surface is in the adapted form v(x) = x1 at x."""
    xv, _ = _as_state(x)
    if not sys.surface.is_adapted(xv):
        raise CoordinateAdaptationError(
            "layer operations require adapted coordinates with v(x) = x1 "
            "(surface gradient (1, 0, ..., 0))"
        )
