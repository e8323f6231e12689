"""Transition (sigmoid) families used to regularize a switch.

Each kind interpolates sign(v) (range [-1, 1]) or step(v) (range [0, 1])
over a stiffness scale eps, and carries the leading terms of its tail
expansion away from the switch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erfinv

KINDS = ("piecewise_linear", "arctan_unit", "arctan_01", "tanh", "erf", "hill")

# ranges are fixed per kind, not free parameters
_UNIT_RANGE = {"arctan_01": (0.0, 1.0), "hill": (0.0, 1.0)}


class UnsupportedExpansionError(ValueError):
    """No tail expansion is available for this kind/order combination."""


@dataclass(frozen=True)
class SigmoidSpec:
    """A transition function phi_eps(v) of a given kind and stiffness.

    kind:  one of piecewise_linear | arctan_unit | arctan_01 | tanh | erf | hill
    eps:   stiffness scale (> 0)
    theta: threshold for the hill kind (other kinds take only the default)
    """

    kind: str
    eps: float
    theta: float = 1.0
    range: tuple[float, float] = field(init=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown sigmoid kind {self.kind!r}")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.kind == "hill" and self.theta <= 0:
            raise ValueError("hill threshold theta must be positive")
        if self.kind != "hill" and self.theta != 1.0:
            raise ValueError(f"theta is the hill threshold; {self.kind} takes none")
        object.__setattr__(self, "range", _UNIT_RANGE.get(self.kind, (-1.0, 1.0)))

    # -- evaluation -----------------------------------------------------

    def evaluate(self, v):
        """phi_eps(v), vectorized over v: ``scalar_fn()`` elementwise.

        For the hill kind v is the raw (positive) Hill argument; the value
        is computed in log space so small eps does not overflow.
        """
        out = np.vectorize(self.scalar_fn(), otypes=[float])(np.asarray(v, dtype=float))
        return out if out.ndim else float(out)

    def __call__(self, v):
        return self.evaluate(v)

    def scalar_fn(self):
        """Return a validation-free scalar closure phi_eps(v).

        The one statement of each formula: ``evaluate`` applies it
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
        elif self.kind == "arctan_01":
            def f(v):
                return 0.5 + math.atan(v / e) / math.pi
        elif self.kind == "tanh":
            def f(v):
                return math.tanh(v / e)
        elif self.kind == "erf":
            def f(v):
                return math.erf(v / e)
        else:  # hill
            log_theta = math.log(self.theta)

            def f(v):
                if v <= 0:
                    raise ValueError("hill sigmoid requires a positive argument")
                u = (math.log(v) - log_theta) / e
                return 0.5 * (1.0 + math.tanh(0.5 * u))
        return f

    def inverse(self, y):
        """The value v with phi_eps(v) = y, for y strictly inside the range."""
        y = np.asarray(y, dtype=float)
        lo, hi = self.range
        if np.any(y <= lo) or np.any(y >= hi):
            raise ValueError(f"inverse defined only on the open range ({lo}, {hi})")
        e = self.eps
        if self.kind == "piecewise_linear":
            out = e * y
        elif self.kind == "arctan_unit":
            out = e * np.tan(0.5 * np.pi * y)
        elif self.kind == "arctan_01":
            out = e * np.tan(np.pi * (y - 0.5))
        elif self.kind == "tanh":
            out = e * np.arctanh(y)
        elif self.kind == "erf":
            out = e * erfinv(y)
        else:  # hill
            out = self.theta * np.exp(e * np.log(y / (1.0 - y)))
        return out if out.ndim else float(out)

    # -- tail asymptotics ----------------------------------------------

    def tail_expansion(self, v: float, order: int = 0) -> float:
        """Truncated asymptotic value of phi_eps(v) for |v| >= 3 eps.

        Exponential-tail kinds follow
        sign(v) * (1 + exp(-kappa |v/eps|^p) * sum_n c_n (eps/|v|)^n);
        the arctan kinds have algebraic tails and support order <= 1 only.
        """
        v = float(v)
        e = self.eps
        if order < 0 or order > 3:
            raise UnsupportedExpansionError(f"order must be in 0..3, got {order}")
        if self.kind == "hill":
            if order > 0:
                raise UnsupportedExpansionError("hill tail supports order 0 only")
            if v <= 0:
                raise ValueError("hill sigmoid requires a positive argument")
            s = math.copysign(1.0, v - self.theta)
            return 0.5 + s * (0.5 - math.exp(-abs(math.log(v / self.theta)) / e))
        if abs(v) < 3 * e:
            raise ValueError("tail expansion requires |v| >= 3 eps")
        s = math.copysign(1.0, v)
        u = abs(v) / e
        if self.kind == "piecewise_linear":
            return s  # exact saturation
        if self.kind == "tanh":
            # tanh(u) ~ sign(u)(1 - 2 e^{-2|u|}); no algebraic (eps/v) terms
            return s * (1.0 - 2.0 * math.exp(-2.0 * u))
        if self.kind == "erf":
            # erf(u) ~ sign(u)(1 - e^{-u^2}(1/u - 1/(2u^3))/sqrt(pi))
            series = 0.0
            if order >= 1:
                series -= 1.0 / u
            if order >= 3:
                series += 0.5 / u**3
            return s * (1.0 + math.exp(-u * u) * series / math.sqrt(math.pi))
        if self.kind == "arctan_unit":
            if order > 1:
                raise UnsupportedExpansionError(
                    "arctan tails are algebraic; only order <= 1 is provided"
                )
            # (2/pi) arctan(u) ~ sign(u)(1 - (2/pi)/|u|)
            series = -(2.0 / math.pi) / u if order >= 1 else 0.0
            return s * (1.0 + series)
        # arctan_01
        if order > 1:
            raise UnsupportedExpansionError(
                "arctan tails are algebraic; only order <= 1 is provided"
            )
        step = 1.0 if v > 0 else 0.0
        corr = -s / (math.pi * u) if order >= 1 else 0.0
        return step + corr

    def tail_coefficients(self) -> tuple[float, float, list[float]]:
        """(kappa, p, [c_0..c_3]) of the exponential tail, where defined."""
        if self.kind == "tanh":
            return 2.0, 1.0, [-2.0, 0.0, 0.0, 0.0]
        if self.kind == "erf":
            sp = math.sqrt(math.pi)
            return 1.0, 2.0, [0.0, -1.0 / sp, 0.0, 0.5 / sp]
        raise UnsupportedExpansionError(
            f"no exponential tail coefficients for kind {self.kind!r}"
        )
