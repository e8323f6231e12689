"""Power-series representation of a switched field in the multiplier.

f(x; lam) = sum_n alpha_n(x) lam^n.  The n = 0, 1 coefficients carry the
classical convex combination; everything from n = 2 up is hidden
nonlinearity.  ``to_hidden_form`` makes the series a SwitchedField whose
``fused`` evaluator is the sum itself, so ``eval_field`` evaluates it and
f_+, f_- and the hidden term are read from it.  The hidden term factors
as (lam^2 - 1) g with

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
    leading series coefficients of the departure, and c0 the leading tail
    coefficient of the sigmoid.
    """

    g_plus: np.ndarray
    g_minus: np.ndarray
    b0_plus: float
    b0_minus: float
    c0: float

    def __post_init__(self):
        object.__setattr__(self, "g_plus", np.asarray(self.g_plus, dtype=float))
        object.__setattr__(self, "g_minus", np.asarray(self.g_minus, dtype=float))


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


def to_hidden_form(e: SeriesExpansion, *, dim: int) -> SwitchedField:
    """The autonomous SwitchedField whose ``fused`` evaluator is the series.

    ``eval_field`` of it is the series' one evaluator.  f_+ and f_- are
    the series at lam = +-1, and its hidden term is the n >= 2 part of the
    series with its value at lam = +-1 taken out; for N <= 1 it is zero up
    to rounding.  The coefficients are functions of x alone, so the field
    ignores t.
    """
    coeffs = e.coefficients

    def fused(x, t, lam):
        out = np.array(coeffs[0](x), dtype=float)
        lam_pow = 1.0
        for a in coeffs[1:]:
            lam_pow *= lam
            out += lam_pow * np.asarray(a(x), dtype=float)
        return out

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

