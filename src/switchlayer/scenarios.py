"""The four reference systems with their published parameters.

All are built in adapted coordinates (the first state component is the
surface function), so every layer operation applies directly.  The relay
circuit keeps its physical (I, V) variables behind a coordinate map.
Each is its ``fused`` evaluator alone, a tuple of Python floats per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SwitchedField


def make_example1(variant: str = "nonlinear") -> SwitchedField:
    """Planar relay with outer fields (1, -1) / (-1, -1).

    The 'nonlinear' variant is (lam, 1 - 2 lam^2): the square of the
    switching term is kept, so the sliding motion on x1 = 0 runs with
    dx2/dt = +1.  The 'filippov' variant drops it and slides with -1.
    """
    if variant not in ("filippov", "nonlinear"):
        raise ValueError(f"unknown example1 variant {variant!r}")

    if variant == "nonlinear":
        def fused(x, t, lam):
            return (lam, 1.0 - 2.0 * lam * lam)
    else:
        def fused(x, t, lam):
            return (lam, -1.0)

    return SwitchedField(dim=2, fused=fused)


def make_example2(variant: str = "nonlinear") -> SwitchedField:
    """Apparently-continuous system (1, 1) on both sides.

    The 'nonlinear' variant is (2 lam^2 - 1, 1): two sliding modes at
    lam = -+1/sqrt(2).  The 'continuous' variant has no hidden term and
    simply crosses.
    """
    if variant not in ("continuous", "nonlinear"):
        raise ValueError(f"unknown example2 variant {variant!r}")

    if variant == "nonlinear":
        def fused(x, t, lam):
            return (2.0 * lam * lam - 1.0, 1.0)
    else:
        def fused(x, t, lam):
            return (1.0, 1.0)

    return SwitchedField(dim=2, fused=fused)


@dataclass(frozen=True)
class CircuitParams:
    """Relay circuit constants; defaults are the published phase-portrait run."""

    L: float = 5.0
    C: float = 2.5 / 3.75  # RC = 5/2 with R = 15/4
    R: float = 3.75
    V0: float = 5.0
    Vb: float = 6.0
    sigma: float = 0.0

    def __post_init__(self):
        for name in ("L", "C", "R", "V0", "Vb"):
            if not 0.0 < getattr(self, name) < math.inf:  # False for NaN
                raise ValueError(f"{name} must be finite and positive")
        if not abs(self.sigma) < 1:
            raise ValueError("|sigma| must be < 1")

    @property
    def RC(self) -> float:
        return self.R * self.C

    def p_of_mu(self, mu: float) -> float:
        """Switch response p(mu) = mu - sigma (1 - mu) mu; p(0)=0, p(1)=1."""
        return mu - self.sigma * (1.0 - mu) * mu

    def saddle(self) -> tuple[float, float]:
        """Closed-form layer saddle (mu, I) for IR p(mu) = Vb, mu = V0/Vb."""
        mu = self.V0 / self.Vb
        return mu, self.Vb / (self.R * self.p_of_mu(mu))

    def focus(self) -> tuple[float, float]:
        """(I, V) equilibrium of the closed ('on') circuit."""
        return self.V0 / self.R, self.V0


def make_circuit(p: CircuitParams | None = None) -> SwitchedField:
    """DC relay circuit in adapted coordinates x = (Vb - V, I).

    The switch mu = step(Vb - V) maps to the multiplier by mu = (1+lam)/2,
    so the plus side (x1 > 0, V < Vb) is the closed ('on') branch.  The
    quadratic part of p(mu) becomes a constant-in-lam hidden multiplier.
    """
    p = p or CircuitParams()
    L, R, RC, V0, Vb, sg = p.L, p.R, p.RC, p.V0, p.Vb, p.sigma

    # f = (dx1/dt, dI/dt); x1 = Vb - V, so dx1/dt = -dV/dt.  Computed on
    # Python floats, with p.p_of_mu(mu) written out in its operation order
    def fused(x, t, lam):
        x1, I = x.tolist()
        mu = 0.5 * (1.0 + lam)
        V = Vb - x1
        return ((V - I * R * (mu - sg * (1.0 - mu) * mu)) / RC, (V0 - mu * V) / L)

    return SwitchedField(dim=2, fused=fused)


def circuit_state_to_iv(x: np.ndarray, p: CircuitParams) -> tuple[float, float]:
    """Map adapted coordinates (x1, x2) back to physical (I, V)."""
    return float(x[1]), float(p.Vb - x[0])


def circuit_iv_to_state(I: float, V: float, p: CircuitParams) -> np.ndarray:
    return np.array([p.Vb - V, I], dtype=float)


def mu_of_lambda(lam) -> float:
    """mu = (1 + lam)/2: the [0, 1] switch variable of the circuit."""
    return 0.5 * (1.0 + np.asarray(lam, dtype=float))


# Averaging span for the forced relay's layer multiplier: far longer than
# the fast in-layer ripple (period about 2 pi sqrt(eps_layer / (3 lam^2)),
# 0.02 at eps_layer = 1e-5 and lam = 1/2) and far shorter than the forcing
# period 2 pi, which it damps by under 0.5%.
DUFFING_RIPPLE_WINDOW = 0.3


@dataclass(frozen=True)
class DuffingParams:
    """Forced relay oscillator constants; defaults match the published run."""

    a: float = 0.15   # forcing amplitude
    b: float = 0.05   # damping
    c: float = 0.1    # fold coefficient
    variant: str = "nonlinear_cubic"

    def __post_init__(self):
        for name in ("a", "b", "c"):
            if not 0.0 < getattr(self, name) < math.inf:  # False for NaN
                raise ValueError(f"{name} must be finite and positive")
        if self.variant not in ("nonlinear_cubic", "linear"):
            raise ValueError(f"unknown duffing variant {self.variant!r}")


def make_duffing(p: DuffingParams | None = None) -> SwitchedField:
    """Forced oscillator (x2 - c x1, -lam^k - b x2 + a cos t), k = 3 or 1.

    The cubic uses -lam^3 = -lam - (lam^2 - 1) lam, i.e. hidden multiplier
    (0, -lam).  Every run records lam, so the in-layer oscillation is read
    from the segments' lam columns.
    """
    p = p or DuffingParams()
    a, b, c = p.a, p.b, p.c
    cubic = p.variant == "nonlinear_cubic"

    def fused(x, t, lam):
        s = x.tolist()  # Python floats: far cheaper than numpy scalars
        # both variants agree at lam = +-1
        drive = -lam * lam * lam if cubic else -lam
        return (s[1] - c * s[0], drive - b * s[1] + a * math.cos(t))

    return SwitchedField(dim=2, fused=fused, time_dependent=True)
