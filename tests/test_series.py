"""Multiplier power series: construction, hidden-form factoring, matching."""

import numpy as np
import pytest

from switchlayer import (
    AsymptoticData,
    MatchingUndefinedError,
    SeriesExpansion,
    eval_field,
    expand_from_midpoint,
    hidden_term,
    match_alpha23,
    reconstruct,
    to_hidden_form,
)
from switchlayer.series import boundary_residuals


def const(vec):
    vec = np.asarray(vec, dtype=float)
    return lambda x: vec


def random_expansion(rng, dim=2, order=5):
    coeffs = [const(rng.normal(size=dim)) for _ in range(order + 1)]
    return SeriesExpansion(tuple(coeffs))


class TestSeriesExpansion:
    def test_needs_at_least_two_coefficients(self):
        with pytest.raises(ValueError):
            SeriesExpansion((const([1.0, 0.0]),))

    def test_truncation_order(self):
        e = SeriesExpansion((const([1, 0]), const([0, 1]), const([1, 1])))
        assert e.truncation_order == 2

    def test_reconstruct_is_power_series(self):
        e = SeriesExpansion((const([1.0, 0.0]), const([0.0, 2.0]),
                             const([3.0, 0.0])))
        lam = 0.5
        np.testing.assert_allclose(
            reconstruct(e, np.zeros(2), lam),
            [1.0 + 3.0 * lam**2, 2.0 * lam])

    def test_reconstruct_rejects_lambda_outside_layer(self):
        e = SeriesExpansion((const([1, 0]), const([0, 1])))
        with pytest.raises(ValueError):
            reconstruct(e, np.zeros(2), 1.5)


class TestExpandFromMidpoint:
    def test_quadratic_coefficients(self):
        fp, fm, r = const([1.0, -1.0]), const([-1.0, -1.0]), const([0.0, 1.0])
        e = expand_from_midpoint(fp, fm, r)
        assert e.truncation_order == 2
        x = np.zeros(2)
        np.testing.assert_allclose(e.coefficients[0](x), [0.0, 1.0])
        np.testing.assert_allclose(e.coefficients[1](x), [1.0, 0.0])
        np.testing.assert_allclose(e.coefficients[2](x), [0.0, -2.0])

    def test_boundary_values_exact_by_construction(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            fp, fm, r = (const(rng.normal(size=3)) for _ in range(3))
            e = expand_from_midpoint(fp, fm, r)
            x = rng.normal(size=3)
            np.testing.assert_allclose(reconstruct(e, x, 1.0), fp(x), atol=1e-14)
            np.testing.assert_allclose(reconstruct(e, x, -1.0), fm(x), atol=1e-14)

    def test_cubic_truncation_with_slope(self):
        rng = np.random.default_rng(8)
        fp, fm, r, d0 = (const(rng.normal(size=2)) for _ in range(4))
        e = expand_from_midpoint(fp, fm, r, dfdlam0=d0)
        assert e.truncation_order == 3
        x = np.zeros(2)
        np.testing.assert_allclose(reconstruct(e, x, 1.0), fp(x), atol=1e-14)
        np.testing.assert_allclose(reconstruct(e, x, -1.0), fm(x), atol=1e-14)
        np.testing.assert_allclose(e.coefficients[1](x), d0(x))
        # slope at 0 equals the supplied derivative
        h = 1e-6
        slope = (reconstruct(e, x, h) - reconstruct(e, x, -h)) / (2 * h)
        np.testing.assert_allclose(slope, d0(x), atol=1e-8)

    def test_boundary_residuals_vanish(self):
        rng = np.random.default_rng(9)
        e = random_expansion(rng, dim=2, order=4)
        rp, rm = boundary_residuals(e, rng.normal(size=2))
        np.testing.assert_allclose(rp, 0.0, atol=1e-13)
        np.testing.assert_allclose(rm, 0.0, atol=1e-13)


class TestHiddenForm:
    def test_round_trip_identity(self):
        # series -> switched field -> evaluation agrees with the raw series
        rng = np.random.default_rng(11)
        for _ in range(30):
            order = rng.integers(2, 7)
            e = random_expansion(rng, dim=2, order=order)
            sys = to_hidden_form(e, dim=2)
            x = rng.normal(size=2)
            for lam in np.linspace(-1, 1, 9):
                np.testing.assert_allclose(
                    eval_field(sys, x, float(lam)),
                    reconstruct(e, x, float(lam)), atol=1e-12)

    def test_linear_truncation_has_no_hidden_part(self):
        e = SeriesExpansion((const([0.5, 0.0]), const([1.0, 0.0])))
        sys = to_hidden_form(e, dim=2)
        for lam in (-0.9, -0.5, 0.0, 0.3, 0.77):
            np.testing.assert_allclose(hidden_term(sys, np.array([0.1, 0.2]), lam),
                                       0.0, atol=1e-12)

    def test_dimension_inference(self):
        e = SeriesExpansion((const([1, 0, 0]), const([0, 1, 0]),
                             const([0, 0, 1])))
        assert to_hidden_form(e, dim=3).dim == 3

    def test_factored_hidden_multiplier_reproduces_series(self):
        def factored_g(a, x, lam):
            # g = sum_{n>=1} sum_{j<n} [alpha_2n + lam alpha_2n+1] lam^(2j)
            out = 0.0
            for n in range(1, (len(a) - 1) // 2 + 1):
                term = a[2 * n](x) + (lam * a[2 * n + 1](x) if 2 * n + 1 < len(a) else 0.0)
                out = out + sum(lam ** (2 * j) for j in range(n)) * term
            return out

        rng = np.random.default_rng(12)
        for order in range(2, 7):
            e = random_expansion(rng, dim=2, order=order)
            sys = to_hidden_form(e, dim=2)
            x = rng.normal(size=2)
            fp, fm = sys.f_plus(x, 0.0), sys.f_minus(x, 0.0)
            for lam in np.linspace(-1, 1, 9):
                hidden_form = (0.5 * (fp + fm) + 0.5 * (fp - fm) * lam
                               + (lam * lam - 1.0) * factored_g(e.coefficients, x, lam))
                np.testing.assert_allclose(hidden_form, reconstruct(e, x, float(lam)),
                                           atol=1e-12)


class TestAsymptoticMatching:
    def test_round_trip_recovery(self):
        # forward-generate the departure data from known alpha_2, alpha_3
        rng = np.random.default_rng(13)
        for _ in range(25):
            fp = rng.normal(size=2)
            fm = rng.normal(size=2)
            a2 = rng.normal(size=2)
            a3 = rng.normal(size=2)
            c0 = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
            gp = 2 * c0 * (a2 + a3) + 0.5 * c0 * (fp - fm)
            gm = 2 * c0 * (a2 - a3) - 0.5 * c0 * (fp - fm)
            data = AsymptoticData(g_plus=gp, g_minus=gm,
                                  b0_plus=1.0, b0_minus=1.0, c0=c0)
            got2, got3 = match_alpha23(fp, fm, data)
            np.testing.assert_allclose(got2, a2, atol=1e-12)
            np.testing.assert_allclose(got3, a3, atol=1e-12)

    def test_higher_order_tail_subtraction(self):
        fp = np.array([1.0, 0.0])
        fm = np.array([0.0, 1.0])
        data = AsymptoticData(g_plus=np.zeros(2), g_minus=np.zeros(2),
                              b0_plus=1.0, b0_minus=1.0, c0=-2.0)
        te = np.array([0.3, -0.1])
        to = np.array([0.2, 0.4])
        a2, a3 = match_alpha23(fp, fm, data, tail_even=te, tail_odd=to)
        np.testing.assert_allclose(a2, -te)
        np.testing.assert_allclose(a3, -0.25 * (fp - fm) - to)

    def test_vanishing_leading_coefficient_rejected(self):
        data = AsymptoticData(g_plus=np.ones(2), g_minus=np.ones(2),
                              b0_plus=1.0, b0_minus=1.0, c0=0.0)
        with pytest.raises(MatchingUndefinedError):
            match_alpha23(np.ones(2), np.ones(2), data)

    def test_data_validation(self):
        with pytest.raises(ValueError):
            AsymptoticData(np.ones(2), np.ones(2), 1.0, 1.0, c0=1.0, p=0.0)
        with pytest.raises(ValueError):
            AsymptoticData(np.ones(2), np.ones(2), 1.0, 1.0, c0=1.0, kappa=-1.0)
