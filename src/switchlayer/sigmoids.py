"""Transition (sigmoid) families used to regularize a switch.

Each kind interpolates sign(v) over a stiffness scale eps, onto the
multiplier range [-1, 1], and carries the leading terms of its tail
expansion away from the switch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

KINDS = ("piecewise_linear", "arctan_unit", "tanh", "erf")


class UnsupportedExpansionError(ValueError):
    """No tail expansion is available for this kind/order combination."""


@dataclass(frozen=True)
class SigmoidSpec:
    """A transition function phi_eps(v) of a given kind and stiffness.

    kind: one of piecewise_linear | arctan_unit | tanh | erf; each maps
          v onto [-1, 1] with phi_eps(0) = 0
    eps:  stiffness scale, finite and > 0
    """

    kind: str
    eps: float

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown sigmoid kind {self.kind!r}")
        if not 0.0 < self.eps < math.inf:  # False for NaN
            raise ValueError("eps must be finite and positive")

    # -- evaluation -----------------------------------------------------

    def __call__(self, v):
        """phi_eps(v), vectorized over v: ``scalar_fn()`` elementwise."""
        out = np.vectorize(self.scalar_fn(), otypes=[float])(np.asarray(v, dtype=float))
        return out if out.ndim else float(out)

    def scalar_fn(self):
        """Return a validation-free scalar closure phi_eps(v).

        The one statement of each formula: calling the spec applies it
        elementwise, and integrator hot loops call it per step.
        """
        e = self.eps
        if self.kind == "piecewise_linear":
            def f(v):
                v = v / e
                return -1.0 if v < -1.0 else (1.0 if v > 1.0 else v)
        elif self.kind == "arctan_unit":
            def f(v):
                return (2.0 / math.pi) * math.atan(v / e)
        elif self.kind == "tanh":
            def f(v):
                return math.tanh(v / e)
        else:  # erf
            def f(v):
                return math.erf(v / e)
        return f

    # -- tail asymptotics ----------------------------------------------

    def tail_expansion(self, v: float, order: int = 0) -> float:
        """Truncated asymptotic value of phi_eps(v) for |v| >= 3 eps.

        Exponential-tail kinds follow
        sign(v) * (1 + exp(-kappa |v/eps|^p) * sum_n c_n (eps/|v|)^n);
        the arctan kind has an algebraic tail and supports order <= 1 only.
        """
        v = float(v)
        e = self.eps
        if order < 0 or order > 3:
            raise UnsupportedExpansionError(f"order must be in 0..3, got {order}")
        if abs(v) < 3 * e * (1.0 - 1e-15):  # a few ulp of slack: 3 * 0.1 > 0.3
            raise ValueError("tail expansion requires |v| >= 3 eps")
        s = math.copysign(1.0, v)
        u = abs(v) / e
        if self.kind == "piecewise_linear":
            return s  # exact saturation
        if self.kind == "arctan_unit":
            if order > 1:
                raise UnsupportedExpansionError(
                    "arctan tails are algebraic; only order <= 1 is provided"
                )
            # (2/pi) arctan(u) ~ sign(u)(1 - (2/pi)/|u|)
            series = -(2.0 / math.pi) / u if order >= 1 else 0.0
            return s * (1.0 + series)
        kappa, p, c = self.tail_coefficients()
        series = sum(c[n] * u ** -n for n in range(order + 1))
        return s * (1.0 + math.exp(-kappa * u ** p) * series)

    def tail_coefficients(self) -> tuple[float, float, list[float]]:
        """(kappa, p, [c_0..c_3]) of the exponential tail, where defined."""
        if self.kind == "tanh":
            # tanh(u) ~ sign(u)(1 - 2 e^{-2|u|}); no algebraic (eps/v) terms
            return 2.0, 1.0, [-2.0, 0.0, 0.0, 0.0]
        if self.kind == "erf":
            # erf(u) ~ sign(u)(1 - e^{-u^2}(1/u - 1/(2u^3))/sqrt(pi))
            sp = math.sqrt(math.pi)
            return 1.0, 2.0, [0.0, -1.0 / sp, 0.0, 0.5 / sp]
        raise UnsupportedExpansionError(
            f"no exponential tail coefficients for kind {self.kind!r}"
        )
