"""Transition function families: construction, values, tail asymptotics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchlayer import SigmoidSpec, UnsupportedExpansionError
from switchlayer.sigmoids import KINDS



def spec_for(kind, eps=0.1):
    return SigmoidSpec(kind, eps=eps)


class TestConstruction:
    def test_unknown_kind_rejected(self):
        for kind in ("logit", "hill"):
            with pytest.raises(ValueError, match="kind"):
                SigmoidSpec(kind, eps=0.1)

    def test_eps_must_be_positive(self):
        with pytest.raises(ValueError):
            SigmoidSpec("tanh", eps=0.0)

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_eps_must_be_finite(self, eps):
        with pytest.raises(ValueError, match="finite"):
            SigmoidSpec("tanh", eps=eps)

    @pytest.mark.parametrize("theta", [-5.0, 2.0])
    def test_theta_keyword_rejected(self, theta):
        with pytest.raises(TypeError, match="theta"):
            SigmoidSpec("tanh", eps=0.1, theta=theta)

    def test_range_fixed_by_kind(self):
        # every kind spans the multiplier range [-1, 1]; none is a [0, 1] step
        for kind in KINDS:
            s = spec_for(kind, eps=1e-300)
            assert (s(-1.0), s(0.0), s(1.0)) == (-1.0, 0.0, 1.0)


class TestEvaluation:
    def test_midpoint_values(self):
        for kind in KINDS:
            assert spec_for(kind)(0.0) == 0.0

    def test_piecewise_linear_is_clipped_ramp(self):
        s = SigmoidSpec("piecewise_linear", eps=0.5)
        v = np.array([-2.0, -0.25, 0.0, 0.25, 2.0])
        np.testing.assert_array_equal(s(v), [-1.0, -0.5, 0.0, 0.5, 1.0])

    @given(v=st.floats(-50.0, 50.0), kind=st.sampled_from(KINDS))
    @settings(max_examples=300, deadline=None)
    def test_odd_symmetry_and_bounds(self, v, kind):
        s = spec_for(kind)
        assert s(v) == pytest.approx(-s(-v), abs=1e-15)
        assert -1.0 <= s(v) <= 1.0

    def test_scalar_fn_matches_evaluate(self):
        for kind in KINDS:
            s = spec_for(kind)
            f = s.scalar_fn()
            for v in np.linspace(-5.0, 5.0, 47):
                assert f(float(v)) == pytest.approx(s(float(v)),
                                                    abs=1e-15, rel=1e-15)

    def test_evaluate_is_scalar_fn_elementwise(self):
        # one statement of each formula: the vectorized and scalar paths agree bit for bit
        for kind in KINDS:
            s = SigmoidSpec(kind, eps=0.3)
            f = s.scalar_fn()
            vs = np.linspace(-5.0, 5.0, 2001)
            ref = np.array([f(v) for v in vs.tolist()])
            np.testing.assert_array_equal(s(vs), ref, strict=True)
            np.testing.assert_array_equal(s(vs.reshape(3, 667)), ref.reshape(3, 667),
                                          strict=True)
            scalars = [s(v) for v in vs.tolist()]
            assert all(type(y) is float for y in scalars)
            assert scalars == ref.tolist()

    @given(kind=st.sampled_from(KINDS),
           a=st.floats(-10.0, 10.0), b=st.floats(-10.0, 10.0))
    @settings(max_examples=300, deadline=None)
    def test_monotone_nondecreasing(self, kind, a, b):
        s = spec_for(kind)
        lo, hi = min(a, b), max(a, b)
        assert s(lo) <= s(hi) + 1e-15

    def test_vectorized_evaluation(self):
        s = spec_for("tanh")
        out = s(np.linspace(-1, 1, 7))
        assert out.shape == (7,)


class TestTailAsymptotics:
    def test_tanh_coefficients(self):
        kappa, p, c = spec_for("tanh").tail_coefficients()
        assert (kappa, p) == (2.0, 1.0)
        assert c == [-2.0, 0.0, 0.0, 0.0]

    def test_erf_coefficients(self):
        kappa, p, c = spec_for("erf").tail_coefficients()
        assert (kappa, p) == (1.0, 2.0)
        sp = math.sqrt(math.pi)
        assert c[0] == 0.0
        assert c[1] == pytest.approx(-1.0 / sp)
        assert c[2] == 0.0
        assert c[3] == pytest.approx(0.5 / sp)

    @pytest.mark.parametrize("kind", ["tanh", "erf"])
    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_tail_expansion_is_the_coefficient_series(self, kind, order):
        # sign(v) (1 + e^(-kappa u^p) sum_{n <= order} c_n u^-n), u = |v|/eps
        s = spec_for(kind, eps=0.1)
        kappa, p, c = s.tail_coefficients()
        for v in (0.35, 0.45, -0.45, 1.0, -2.0):
            u = abs(v) / s.eps
            terms = sum(c[n] / u ** n for n in range(order + 1))
            expected = math.copysign(1.0, v) * (1.0 + math.exp(-kappa * u ** p) * terms)
            assert s.tail_expansion(v, order=order) == pytest.approx(expected, rel=1e-15)

    def test_no_exponential_tail_for_algebraic_kinds(self):
        for kind in ("piecewise_linear", "arctan_unit"):
            with pytest.raises(UnsupportedExpansionError):
                spec_for(kind).tail_coefficients()

    def test_tanh_tail_accuracy(self):
        s = SigmoidSpec("tanh", eps=0.1)
        for v in (0.4, 0.6, 1.0):
            exact = s(v)
            approx = s.tail_expansion(v)
            # next tanh tail term is O(e^{-4u}), far below the kept one
            assert abs(approx - exact) < 3 * math.exp(-4 * v / s.eps)

    def test_erf_tail_orders_improve(self):
        s = SigmoidSpec("erf", eps=0.1)
        v = 0.35
        exact = s(v)
        e1 = abs(s.tail_expansion(v, order=1) - exact)
        e3 = abs(s.tail_expansion(v, order=3) - exact)
        assert e3 < e1 < abs(s.tail_expansion(v, order=0) - exact)

    def test_arctan_tail_first_order(self):
        s = SigmoidSpec("arctan_unit", eps=0.1)
        for v in (1.0, -1.0):
            exact = s(v)
            e0 = abs(s.tail_expansion(v, order=0) - exact)
            e1 = abs(s.tail_expansion(v, order=1) - exact)
            assert e1 < e0
            # the omitted term is O((eps/v)^3)
            assert e1 < 10 * (s.eps / abs(v)) ** 3
            with pytest.raises(UnsupportedExpansionError):
                s.tail_expansion(v, order=2)

    def test_piecewise_linear_tail_exact(self):
        s = SigmoidSpec("piecewise_linear", eps=0.1)
        assert s.tail_expansion(0.5) == 1.0
        assert s.tail_expansion(-0.5) == -1.0

    def test_tail_requires_distance_from_switch(self):
        with pytest.raises(ValueError, match="3 eps"):
            spec_for("tanh").tail_expansion(0.1)

    def test_tail_starts_at_three_eps_for_decimal_eps(self):
        # 3 * 0.1 rounds up past 0.3: the boundary itself is accepted
        s = SigmoidSpec("tanh", eps=0.1)
        assert s.tail_expansion(0.3) == pytest.approx(1.0 - 2.0 * math.exp(-6.0), rel=1e-14)
        assert s.tail_expansion(-0.3) == -s.tail_expansion(0.3)
        with pytest.raises(ValueError, match="3 eps"):
            s.tail_expansion(0.29)

    def test_invalid_order_rejected(self):
        with pytest.raises(UnsupportedExpansionError):
            spec_for("tanh").tail_expansion(1.0, order=4)

    def test_saturation_far_from_switch(self):
        # exponential-tail kinds are saturated to 1e-2 by 10 eps; the
        # algebraic arctan kinds only by ~100 eps
        for kind in ("piecewise_linear", "tanh", "erf"):
            s = spec_for(kind, eps=0.01)
            assert abs(s(10 * s.eps) - 1.0) < 1e-2
        for kind in ("arctan_unit",):
            s = spec_for(kind, eps=0.01)
            assert abs(s(100 * s.eps) - 1.0) < 1e-2
