"""Power-series representation of a switched field in the multiplier.

f(x; lam) = sum_n alpha_n(x) lam^n.  The n = 0, 1 coefficients carry the
classical convex combination; everything from n = 2 up is hidden
nonlinearity.  ``to_hidden_form`` makes the series a SwitchedField given
by its ``fused`` evaluator alone: f_plus, f_minus and the hidden term are
derived from it.  The hidden term factors as (lam^2 - 1) g with

    g(x, lam) = sum_{n>=1} sum_{j=0}^{n-1} [alpha_2n + lam alpha_2n+1] lam^(2j).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import SwitchedField

# state -> n-vector
CoeffFn = Callable[[np.ndarray], np.ndarray]


class MatchingUndefinedError(ValueError):
    """Asymptotic matching requested with a vanishing leading tail coefficient."""


@dataclass(frozen=True)
class SeriesExpansion:
    """Truncated coefficient list alpha_0..alpha_N of the lam-power series."""

    coefficients: tuple[CoeffFn, ...]

    def __post_init__(self):
        if len(self.coefficients) < 2:
            raise ValueError("an expansion needs at least alpha_0 and alpha_1")
        object.__setattr__(self, "coefficients", tuple(self.coefficients))

    @property
    def truncation_order(self) -> int:
        return len(self.coefficients) - 1


@dataclass(frozen=True)
class AsymptoticData:
    """Measured departure asymptotics near the two outer states.

    g_plus / g_minus are the departure directions, b0_plus / b0_minus the
    leading series coefficients of the departure, c0 the leading tail
    coefficient of the sigmoid, and (kappa, p) the shared decay exponents.
    """

    g_plus: np.ndarray
    g_minus: np.ndarray
    b0_plus: float
    b0_minus: float
    c0: float
    kappa: float = 1.0
    p: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "g_plus", np.asarray(self.g_plus, dtype=float))
        object.__setattr__(self, "g_minus", np.asarray(self.g_minus, dtype=float))
        if self.kappa < 0:
            raise ValueError("kappa must be >= 0")
        if self.p <= 0:
            raise ValueError("p must be > 0")


def expand_from_midpoint(f_plus: CoeffFn, f_minus: CoeffFn, r: CoeffFn,
                         dfdlam0: CoeffFn | None = None) -> SeriesExpansion:
    """Build the expansion from the outer fields and the midpoint value r.

    r is the field value at lam = 0 on the surface.  Without dfdlam0 the
    truncation is N = 2:

        alpha_0 = r,  alpha_1 = (f_+ - f_-)/2,  alpha_2 = (f_+ + f_-)/2 - r.

    Supplying the lam-derivative at 0 extends this to N = 3 with
    alpha_1 = dfdlam0 and alpha_3 = (f_+ - f_-)/2 - dfdlam0.  Both
    truncations satisfy the boundary sums at lam = +-1 exactly by
    construction.
    """

    def a0(x):
        return np.asarray(r(x), dtype=float)

    def a2(x):
        return 0.5 * (np.asarray(f_plus(x), dtype=float)
                      + np.asarray(f_minus(x), dtype=float)) - a0(x)

    def half_diff(x):
        return 0.5 * (np.asarray(f_plus(x), dtype=float)
                      - np.asarray(f_minus(x), dtype=float))

    if dfdlam0 is None:
        return SeriesExpansion((a0, half_diff, a2))

    def a1(x):
        return np.asarray(dfdlam0(x), dtype=float)

    def a3(x):
        return half_diff(x) - a1(x)

    return SeriesExpansion((a0, a1, a2, a3))


def reconstruct(e: SeriesExpansion, x, lam: float) -> np.ndarray:
    """Evaluate sum_n alpha_n(x) lam^n."""
    lam = float(lam)
    if not -1.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [-1, +1], got {lam}")
    return _power_sum(e.coefficients, np.asarray(x, dtype=float), lam)


def _power_sum(coeffs, x: np.ndarray, lam: float) -> np.ndarray:
    out = np.array(coeffs[0](x), dtype=float)
    lam_pow = 1.0
    for a in coeffs[1:]:
        lam_pow *= lam
        out += lam_pow * np.asarray(a(x), dtype=float)
    return out


def to_hidden_form(e: SeriesExpansion, *, dim: int) -> SwitchedField:
    """The autonomous SwitchedField whose ``fused`` evaluator is the series.

    f_plus / f_minus are the series at lam = +-1 and its hidden term is the
    n >= 2 part of the series with its value at lam = +-1 taken out, both
    derived from ``fused``; for N <= 1 it is zero up to rounding.  The
    coefficients are functions of x alone, so the field ignores t.
    """
    coeffs = e.coefficients

    def fused(x, t, lam):
        return _power_sum(coeffs, x, lam)

    return SwitchedField(dim=dim, fused=fused)


def match_alpha23(f_plus: np.ndarray, f_minus: np.ndarray, a: AsymptoticData,
                  tail_even: np.ndarray | None = None,
                  tail_odd: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Recover alpha_2, alpha_3 at a fixed state from departure asymptotics.

    tail_even / tail_odd are the weighted sums of higher coefficients
    (sum over m >= 2 of m * alpha_2m, resp. m * alpha_2m+1); both vanish
    under truncation and default to zero.
    """
    if a.c0 == 0:
        raise MatchingUndefinedError(
            "leading sigmoid tail coefficient c0 vanishes; matching undefined"
        )
    f_plus = np.asarray(f_plus, dtype=float)
    f_minus = np.asarray(f_minus, dtype=float)
    gp = a.g_plus * a.b0_plus
    gm = a.g_minus * a.b0_minus
    te = np.zeros_like(f_plus) if tail_even is None else np.asarray(tail_even, dtype=float)
    to = np.zeros_like(f_plus) if tail_odd is None else np.asarray(tail_odd, dtype=float)
    alpha2 = (gp + gm) / (4.0 * a.c0) - te
    alpha3 = (gp - gm) / (4.0 * a.c0) - 0.25 * (f_plus - f_minus) - to
    return alpha2, alpha3


def boundary_residuals(e: SeriesExpansion, x) -> tuple[np.ndarray, np.ndarray]:
    """(sum alpha_n - f(+1), sum (-1)^n alpha_n - f(-1)); zero by construction
    for expansions built here, exposed for property checks on hand-built ones."""
    xv = np.asarray(x, dtype=float)
    plus = reconstruct(e, xv, 1.0)
    minus = reconstruct(e, xv, -1.0)
    direct_plus = sum(np.asarray(a(xv), dtype=float) for a in e.coefficients)
    direct_minus = sum(((-1.0) ** n) * np.asarray(a(xv), dtype=float)
                       for n, a in enumerate(e.coefficients))
    return direct_plus - plus, direct_minus - minus
